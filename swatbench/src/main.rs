//! The SWAT benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! swatbench --workload ingest-fanout|query-mix|durable-ingest --seed N \
//!           --seconds S --trace 0|1 --swatd PATH --root PATH
//! swatbench --compare REPORT_A REPORT_B
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. A wrong answer, a digest
//! mismatch or a failed recovery prints it with `"correct": false` and
//! exits 1. See README.md beside this crate for the workloads and the
//! layer-to-end-to-end metric map.

mod daemon;
mod durable;
mod gen;
mod layers;
mod oracle;
mod procs;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line of one run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// The `swatd` binary.
    pub swatd: PathBuf,
    /// Repository root: sources for the freshness check, and the parent
    /// of the benchmark's scratch directory.
    pub root: PathBuf,
}

impl Args {
    /// Scratch directory for this run (daemon logs, port files, stores).
    pub fn scratch(&self) -> PathBuf {
        self.root.join("swatbench/out").join(format!(
            "run-{}-{}",
            self.workload,
            std::process::id()
        ))
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        swatd: PathBuf::from("target/release/swatd"),
        root: PathBuf::from("."),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--swatd" => a.swatd = value.into(),
            "--root" => a.root = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !daemon::WORKLOADS.contains(&a.workload.as_str()) && a.workload != durable::WORKLOAD {
        return Err(format!(
            "--workload {:?}: expected one of ingest-fanout, query-mix, durable-ingest",
            a.workload
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.iter().position(|a| a == "--compare") {
        return match argv.get(i + 1..i + 3) {
            Some([a, b]) => match report::compare(a.as_ref(), b.as_ref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("swatbench: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: swatbench --compare REPORT_A REPORT_B");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swatbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scratch = args.scratch();
    let result = if args.workload == durable::WORKLOAD {
        durable::run(&args)
    } else {
        procs::check_fresh(&args.swatd, &args.root).and_then(|()| daemon::run(&args))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(report) => finish(&args, report),
        Err(e) => {
            eprintln!("swatbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn finish(args: &Args, report: Report) -> ExitCode {
    report.print(args);
    if let Err(e) = report.save(args) {
        eprintln!("swatbench: writing the report: {e}");
    }
    println!("{}", report.result_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
