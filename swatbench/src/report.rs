//! Metrics, provenance and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{median, Summary};
use crate::Args;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted name, e.g. `point.p99_us`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
    /// How it was measured (sample count, percentile used).
    pub note: String,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload parameters, for provenance.
    pub params: Vec<(&'static str, String)>,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Metrics of the untraced run that are printed and saved but not in
    /// the result line: ingest rates, commit and query medians, every
    /// tail and peak memory (see README: too noisy on the reference host
    /// to hold any bound).
    pub ungated: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, timeouts, wrong answers.
    pub failed: u64,
    /// Correctness failures; any one fails the run.
    pub wrong: Vec<String>,
    /// Seconds the measured phase ran.
    pub run_s: f64,
}

impl Report {
    /// Record a workload parameter.
    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note,
        });
    }

    /// Record a metric that is printed and saved but not gated.
    pub fn ungated(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.ungated.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note,
        });
    }

    /// Record `<prefix>.p50_us` (end-to-end if `gated`) and
    /// `<prefix>.p99_us` (never gated) from `s`.
    pub fn latency(&mut self, prefix: &str, gated: bool, s: Option<Summary>) {
        let (p50, p99) = latency_pair(prefix, s);
        if gated {
            self.e2e.push(p50);
        } else {
            self.ungated.push(p50);
        }
        self.ungated.push(p99);
    }

    /// Record `ingest.rows_per_s`: the median of `rates`, each the rows
    /// acknowledged in one part of the run ÷ the time spent ingesting
    /// them; `how` says what the parts are.
    pub fn ingest_rate(&mut self, rates: &[f64], how: &str) {
        let mut note = format!("median over {} {how}", rates.len());
        if rates.len() <= 32 {
            let _ = write!(note, ": {rates:.0?}");
        }
        self.ungated("ingest.rows_per_s", median(rates), "rows/s", note);
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        });
    }

    /// Note a wrong answer (it also counts as failed).
    pub fn wrong(&mut self, why: String) {
        self.failed += 1;
        if self.wrong.len() < 8 {
            self.wrong.push(why);
        } else if self.wrong.len() == 8 {
            self.wrong
                .push("... (further mismatches not shown)".to_owned());
        }
    }

    /// Whether every checked output was correct.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// Print provenance, parameters and every metric by name and unit.
    pub fn print(&self, args: &Args) {
        for (k, v) in provenance(args) {
            println!("# {k}: {v}");
        }
        for (k, v) in &self.params {
            println!("# param {k}: {v}");
        }
        println!("# measured phase: {:.3} s", self.run_s);
        let metrics = if args.trace { &self.layers } else { &self.e2e };
        let ungated = if args.trace {
            &[][..]
        } else {
            &self.ungated[..]
        };
        for (m, tag) in metrics
            .iter()
            .map(|m| (m, ""))
            .chain(ungated.iter().map(|m| (m, "not gated; ")))
        {
            let note = if m.note.is_empty() && tag.is_empty() {
                String::new()
            } else {
                format!("  ({tag}{})", m.note)
            };
            println!("{:<34} {:>16.4} {}{note}", m.name, m.value, m.unit);
        }
        println!(
            "{:<34} {:>16.6} failed/attempted  ({} of {})",
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for w in &self.wrong {
            println!("WRONG: {w}");
        }
    }

    /// The final JSON line: end-to-end metrics untraced, per-layer traced.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace { &self.layers } else { &self.e2e };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Write a flat JSON report (one key per line) with provenance to
    /// `swatbench/out/report-<workload>-seed<n>-trace<t>.json`.
    pub fn save(&self, args: &Args) -> std::io::Result<()> {
        let dir = args.root.join("swatbench/out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "report-{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        let mut lines: Vec<String> = provenance(args)
            .into_iter()
            .map(|(k, v)| format!("  \"{k}\": \"{}\"", escape(&v)))
            .collect();
        for (k, v) in &self.params {
            lines.push(format!("  \"param.{k}\": \"{}\"", escape(v)));
        }
        lines.push(format!("  \"run_s\": {}", json_number(self.run_s)));
        lines.push(format!("  \"correct\": {}", self.correct()));
        lines.push(format!("  \"attempted\": {}", self.attempted));
        lines.push(format!("  \"failed\": {}", self.failed));
        let metrics = if args.trace { &self.layers } else { &self.e2e };
        for m in metrics {
            lines.push(format!("  \"metric.{}\": {}", m.name, json_number(m.value)));
        }
        if !args.trace {
            for m in &self.ungated {
                lines.push(format!(
                    "  \"ungated.{}\": {}",
                    m.name,
                    json_number(m.value)
                ));
            }
        }
        std::fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n")))
    }
}

fn latency_pair(prefix: &str, s: Option<Summary>) -> (Metric, Metric) {
    let s = s.unwrap_or(Summary {
        n: 0,
        p50: f64::NAN,
        tail: f64::NAN,
        tail_q: 0.0,
    });
    let mk = |suffix: &str, value: f64, note: String| Metric {
        name: format!("{prefix}.{suffix}"),
        value,
        unit: "us",
        note,
    };
    (
        mk("p50_us", s.p50, format!("n={}", s.n)),
        mk(
            "p99_us",
            s.tail,
            format!("n={}, reported percentile p{:.2}", s.n, 100.0 * s.tail_q),
        ),
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Host and build facts recorded with every report.
pub fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_owned())
        .unwrap_or_default();
    let rev = std::process::Command::new("git")
        .arg("-C")
        .arg(&args.root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    vec![
        ("host.nproc", nproc.to_string()),
        ("host.cpu", cpu),
        ("host.name", host),
        ("git_rev", rev),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]
}

/// Read a saved report back as key → raw value.
fn load(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let (k, v) = l.trim().trim_end_matches(',').split_once("\": ")?;
            Some((
                k.trim_start_matches('"').to_owned(),
                v.trim_matches('"').to_owned(),
            ))
        })
        .collect())
}

/// Compare two saved reports metric by metric — unless they come from
/// different hosts, which is flagged instead.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let host = |r: &BTreeMap<String, String>| {
        (
            r.get("host.nproc").cloned().unwrap_or_default(),
            r.get("host.cpu").cloned().unwrap_or_default(),
        )
    };
    if host(&ra) != host(&rb) {
        println!(
            "DIFFERENT HOSTS: {:?} vs {:?}; the reports are not comparable and were not compared",
            host(&ra),
            host(&rb)
        );
        return Ok(());
    }
    for key in ["workload", "seconds", "trace"] {
        if ra.get(key) != rb.get(key) {
            println!(
                "note: {key} differs ({:?} vs {:?})",
                ra.get(key),
                rb.get(key)
            );
        }
    }
    println!("{:<40} {:>14} {:>14} {:>8}", "metric", "A", "B", "B/A");
    for (k, va) in &ra {
        let Some(("metric" | "ungated", name)) = k.split_once('.') else {
            continue;
        };
        let Some(vb) = rb.get(k) else { continue };
        let (x, y) = (va.parse::<f64>(), vb.parse::<f64>());
        if let (Ok(x), Ok(y)) = (x, y) {
            println!("{name:<40} {x:>14.4} {y:>14.4} {:>8.3}", y / x);
        }
    }
    Ok(())
}
