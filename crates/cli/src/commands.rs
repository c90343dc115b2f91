//! The CLI commands: `summarize`, `simulate`, `generate`, `ingest-bench`,
//! `query-bench`, `chaos`, `recover`, `recovery-bench`, `store-bench`,
//! `repair-bench`, `scale-bench`, `daemon-bench`, `failover-bench`.

use std::io::Read;

use crate::args::{split_spec, Args};
use crate::errors::PathError;
use swat_data::Dataset;
use swat_net::Topology;
use swat_replication::harness::{run, WorkloadConfig};
use swat_replication::SchemeKind;
use swat_tree::{InnerProductQuery, RangeQuery, SwatConfig, SwatTree};

/// Print top-level usage.
pub fn print_help() {
    println!(
        "swat — hierarchical stream summarization (Bulut & Singh, ICDE 2003)

USAGE
  swat summarize    [input] [summary options] [queries...]
  swat simulate     [workload options]
  swat generate     --dataset weather|synthetic --count N [--seed S]
  swat ingest-bench [grid options] [--out PATH] [--quick]
  swat query-bench  [grid options] [--out PATH] [--quick]
  swat chaos        [sweep options] [--out PATH] [--quick]
  swat recover      --dir PATH
  swat client       --addr HOST:PORT [requests...]
  swat recovery-bench [options] [--out PATH] [--quick]
  swat store-bench  [options] [--out PATH] [--quick]
  swat repair-bench [options] [--out PATH] [--quick]
  swat scale-bench  [sweep options] [--out PATH] [--quick]
  swat daemon-bench [options] [--out PATH] [--quick]
  swat failover-bench [options] [--out PATH] [--quick]
  swat help

SUMMARIZE — build a SWAT over a stream and answer queries
  input:     --file PATH | --stdin | --dataset weather|synthetic --count N [--seed S]
  summary:   --window N (power of two, default 256)   --coeffs K (default 1)
  queries:   --point IDX                    (repeatable)
             --inner exp:M[:DELTA] | lin:M[:DELTA]    (repeatable)
             --range CENTER:RADIUS[:FROM:TO]          (repeatable)
             --aggregate FROM:TO                      (repeatable)
             --render            print the tree's node layout

SIMULATE — compare replication schemes on one workload
  --scheme asr|dc|aps|all (default all)   --topology single|chain|star|binary
  --clients N | --depth D                 --window N (default 32)
  --td TICKS --tq TICKS --delta D         --horizon T --warmup T --seed S

GENERATE — emit a dataset as CSV on stdout
  --dataset weather|synthetic --count N [--seed S]

INGEST-BENCH — measure push vs frozen-reference vs blocked batch vs sharded
  grid:      --windows N,N,..   --coeffs K,K,..   --values N
             --streams N,N,..   --threads T,T,..  --chunks C,C,.. (0 = default)
             --seed S
  output:    --out PATH (default results/BENCH_ingest.json)
  --quick    shrunk grid for smoke runs
  the JSON summary's batch_ge_reference records whether the blocked
  path beat the frozen scalar reference at every grid point

QUERY-BENCH — measure query serving: reference vs engine vs kernel
  grid:      --windows N,N,..   --coeffs K,K,..   --points N
             --inners N         --ranges N        --streams N
             --threads T,T,..   --seed S
  output:    --out PATH (default results/BENCH_query.json)
  --quick    shrunk grid for smoke runs
  errors if any fast path disagrees with the reference answers

CHAOS — sweep SWAT-ASR under deterministic fault injection
  sweep:     --drops P,P,..     per-edge drop probabilities
             --delays D,D,..    max per-edge delays in ticks (uniform 0..=D)
             --depth D          complete binary client tree depth
             --window N --horizon T --warmup T --delta D --seed S
             --heal             run every cell with self-healing on
  output:    --out PATH (default results/BENCH_chaos.json)
  --quick    shrunk grid for smoke runs (no crash variant)

RECOVER — recover a crashed durable store directory
  --dir PATH   the store directory (checkpoints + write-ahead logs);
               prints what was recovered and re-anchors the store

CLIENT — send requests to a running swatd node or cluster
  --addr HOST:PORT      a node; repeat for the whole cluster — the
                        client then follows NotLeaderR redirects and
                        retries refused/timed-out sockets with backoff
  --ingest V,V,..       apply one global row          (repeatable)
  --point STREAM:IDX    point query                   (repeatable)
  --range STREAM:CENTER:RADIUS:NEWEST:OLDEST          (repeatable)
  --top-k K             exact distributed top-k
  --status              health snapshot   --shutdown  graceful drain
  --req-id N            first write id (default 0)
  --timeout-ms MS       connect/read deadline (default 2000)
  --retries N           retry rounds over the peer list (default 4)
  --retry-ms MS         backoff base between rounds (default 50)

RECOVERY-BENCH — measure crash recovery and the durable-restart win
  store:     --window N --coeffs K --streams N --rows N
             --checkpoint-every N
  faults:    --trials N --max-faults N   seeded corruption trials
  output:    --out PATH (default results/BENCH_recovery.json) --seed S
  --quick    shrunk run for smoke tests

STORE-BENCH — non-blocking flush latency and disk-fault survival
  store:     --window N --coeffs K --streams N --rows N
             --freeze-rows N       rows per frozen generation
  grid:      --grid-rows N         rows per injected-fault cell
             --grid-points N       crash points sampled per fault kind
  output:    --out PATH (default results/BENCH_store.json) --seed S
  --quick    shrunk run for smoke tests
  errors unless push_row never blocks on background flushing (zero
  voluntary-wait stalls ≥ 1 ms, p99 under 1 ms; involuntary scheduler
  preemption is classified and reported separately), and unless the
  ENOSPC/EIO/torn-write grid recovers every cell with zero acked-row
  loss, zero digest mismatches, and zero panics

REPAIR-BENCH — self-healing vs static tree under interior crashes
  sweep:     --crash-fracs F,F,..  outage lengths as fractions of the
                                   measured span (default 0.34,0.67,1.0)
             --window N --horizon T --warmup T --delta D --seed S
  healing:   --hb-period TICKS     heartbeat period (default 5)
             --miss-threshold N    misses before repair (default 3)
  output:    --out PATH (default results/BENCH_repair.json)
  --quick    shrunk grid for smoke runs
  errors unless every cell's healed run answers strictly more queries
  than its static run, at zero correctness violations

SCALE-BENCH — sharded many-stream ingest and distributed top-k merge
  sweep:     --streams N,N,..   stream counts (default 1000,10000,100000)
             --shards N         hash shards (default 16)
             --threads T,T,..   worker threads (default 1,4,8)
             --window N --coeffs K --rows N --top-k K --seed S
             --verify-limit N   oracle-check cases up to N streams
  output:    --out PATH (default results/BENCH_scale.json)
  --quick    shrunk sweep for smoke runs, oracle-verified throughout
  errors if any oracle-checked case disagrees with the unsharded set

DAEMON-BENCH — real-TCP cluster latency/throughput, clean vs killed
  cluster:   --streams N --shards N (>= 2) --window N --coeffs K
  workload:  --rows N --points N --topks N --seed S
  output:    --out PATH (default results/BENCH_daemon.json)
  --quick    shrunk run for smoke tests
  kills one replica mid-run; errors on any wrong answer (explicit
  degradation — failed_shards, Unavailable, incomplete — is expected)

FAILOVER-BENCH — kill the LEADER of a full failover cluster mid-run
  cluster:   --streams N --shards N (>= 2) --window N --coeffs K
  workload:  --rows-before N --rows-after N --seed S
  timing:    --election-timeout-ms MS (default 250 quick / 300 full)
             --deadline-ms MS   recovery deadline before the run fails
  output:    --out PATH (default results/BENCH_failover.json)
  --quick    shrunk run for smoke tests
  measures election latency, the unavailability window, and the
  answered fraction before/during/after; errors unless the cluster
  re-elects, re-acks, and answers with zero wrong answers"
    );
}

fn load_values(a: &Args) -> Result<Vec<f64>, String> {
    if let Some(path) = a.get("file") {
        return swat_data::csv::load_values(path).map_err(|e| PathError::reading(path, e).into());
    }
    if a.switch("stdin") {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        return swat_data::csv::parse_values(&text).map_err(|e| e.to_string());
    }
    if let Some(name) = a.get("dataset") {
        let dataset = parse_dataset(name)?;
        let count = a
            .get_parsed("count", 1024usize, "a positive integer")
            .map_err(|e| e.to_string())?;
        let seed = a
            .get_parsed("seed", 42u64, "an integer")
            .map_err(|e| e.to_string())?;
        return Ok(dataset.series(seed, count));
    }
    Err("no input: use --file, --stdin, or --dataset (see `swat help`)".into())
}

fn parse_dataset(name: &str) -> Result<Dataset, String> {
    match name {
        "weather" | "real" => Ok(Dataset::Weather),
        "synthetic" | "uniform" => Ok(Dataset::Synthetic),
        other => Err(format!("unknown dataset {other:?} (weather|synthetic)")),
    }
}

/// `swat summarize`.
pub fn summarize(a: &Args) -> Result<(), String> {
    let values = load_values(a)?;
    let window = a
        .get_parsed("window", 256usize, "a power of two")
        .map_err(|e| e.to_string())?;
    let coeffs = a
        .get_parsed("coeffs", 1usize, "a positive integer")
        .map_err(|e| e.to_string())?;
    let config = SwatConfig::with_coefficients(window, coeffs).map_err(|e| e.to_string())?;
    let mut tree = SwatTree::new(config);
    // Fallible batched ingestion: malformed input (e.g. a NaN that survived
    // parsing) is a user-facing error, not a panic.
    tree.try_push_batch(&values).map_err(|e| e.to_string())?;
    println!(
        "ingested {} values; window {}, {} coefficients/node; {} summaries, {} bytes",
        values.len(),
        window,
        coeffs,
        tree.summary_count(),
        tree.space_bytes()
    );
    if !tree.is_warm() {
        println!("note: tree not fully warm (need ~2N arrivals); old indices may be uncovered");
    }
    if a.switch("render") {
        print!("{}", tree.render());
    }
    for raw in a.get_all("point") {
        let idx: usize = raw
            .parse()
            .map_err(|_| format!("--point {raw:?}: expected an index"))?;
        let p = tree.point(idx).map_err(|e| e.to_string())?;
        println!(
            "point[{idx}] = {:.4} (±{:.4}, level {})",
            p.value, p.error_bound, p.level
        );
    }
    for raw in a.get_all("inner") {
        let q = parse_inner(raw)?;
        let ans = tree.inner_product(&q).map_err(|e| e.to_string())?;
        println!(
            "inner {raw} = {:.4} (error bound {:.4}, {} nodes, precision {})",
            ans.value,
            ans.error_bound,
            ans.nodes_used,
            if ans.meets_precision {
                "met"
            } else {
                "NOT met"
            }
        );
    }
    for raw in a.get_all("range") {
        let q = parse_range(raw, window)?;
        let matches = tree.range_query(&q).map_err(|e| e.to_string())?;
        println!(
            "range {raw}: {} matches{}",
            matches.len(),
            if matches.is_empty() {
                String::new()
            } else {
                format!(
                    " (first at index {}, value {:.4})",
                    matches[0].index, matches[0].value
                )
            }
        );
    }
    for raw in a.get_all("aggregate") {
        let parts = split_spec(raw);
        let [from, to] = parts.as_slice() else {
            return Err(format!("--aggregate {raw:?}: expected FROM:TO"));
        };
        let from: usize = from.parse().map_err(|_| format!("bad FROM in {raw:?}"))?;
        let to: usize = to.parse().map_err(|_| format!("bad TO in {raw:?}"))?;
        let agg = tree.aggregate(from, to).map_err(|e| e.to_string())?;
        println!(
            "aggregate [{from}..{to}]: sum {:.4} (±{:.4}), mean {:.4}, bounds {}",
            agg.sum, agg.sum_error_bound, agg.mean, agg.bounds
        );
    }
    Ok(())
}

fn parse_inner(raw: &str) -> Result<InnerProductQuery, String> {
    let parts = split_spec(raw);
    let (shape, rest) = parts
        .split_first()
        .ok_or_else(|| format!("--inner {raw:?}: expected exp:M or lin:M"))?;
    let m: usize = rest
        .first()
        .ok_or_else(|| format!("--inner {raw:?}: missing length M"))?
        .parse()
        .map_err(|_| format!("--inner {raw:?}: bad length"))?;
    if m == 0 {
        return Err(format!("--inner {raw:?}: length must be positive"));
    }
    let delta: f64 = match rest.get(1) {
        Some(d) => d
            .parse()
            .map_err(|_| format!("--inner {raw:?}: bad delta"))?,
        None => f64::INFINITY,
    };
    match *shape {
        "exp" | "exponential" => Ok(InnerProductQuery::exponential(m, delta)),
        "lin" | "linear" => Ok(InnerProductQuery::linear(m, delta)),
        other => Err(format!("--inner {raw:?}: unknown shape {other:?}")),
    }
}

fn parse_range(raw: &str, window: usize) -> Result<RangeQuery, String> {
    let parts = split_spec(raw);
    match parts.as_slice() {
        [center, radius] | [center, radius, ..] => {
            let center: f64 = center
                .parse()
                .map_err(|_| format!("bad CENTER in {raw:?}"))?;
            let radius: f64 = radius
                .parse()
                .map_err(|_| format!("bad RADIUS in {raw:?}"))?;
            if radius < 0.0 {
                return Err(format!("--range {raw:?}: radius must be >= 0"));
            }
            let from: usize = match parts.get(2) {
                Some(s) => s.parse().map_err(|_| format!("bad FROM in {raw:?}"))?,
                None => 0,
            };
            let to: usize = match parts.get(3) {
                Some(s) => s.parse().map_err(|_| format!("bad TO in {raw:?}"))?,
                None => window - 1,
            };
            if from > to {
                return Err(format!("--range {raw:?}: FROM must be <= TO"));
            }
            Ok(RangeQuery::new(center, radius, from, to))
        }
        _ => Err(format!("--range {raw:?}: expected CENTER:RADIUS[:FROM:TO]")),
    }
}

/// `swat simulate`.
pub fn simulate(a: &Args) -> Result<(), String> {
    let window = a
        .get_parsed("window", 32usize, "a power of two")
        .map_err(|e| e.to_string())?;
    let cfg = WorkloadConfig {
        window,
        t_data: a
            .get_parsed("td", 2u64, "ticks")
            .map_err(|e| e.to_string())?,
        t_query: a
            .get_parsed("tq", 1u64, "ticks")
            .map_err(|e| e.to_string())?,
        delta: a
            .get_parsed("delta", 20.0f64, "a number")
            .map_err(|e| e.to_string())?,
        horizon: a
            .get_parsed("horizon", 5000u64, "ticks")
            .map_err(|e| e.to_string())?,
        warmup: a
            .get_parsed("warmup", 1000u64, "ticks")
            .map_err(|e| e.to_string())?,
        seed: a
            .get_parsed("seed", 42u64, "an integer")
            .map_err(|e| e.to_string())?,
        ..WorkloadConfig::default()
    };
    cfg.validate().map_err(|e| e.to_string())?;
    let topo = parse_topology(a)?;
    let dataset = parse_dataset(a.get("dataset").unwrap_or("weather"))?;
    let data = dataset.series(cfg.seed, (cfg.horizon / cfg.t_data + 2) as usize);
    let schemes: Vec<SchemeKind> = match a.get("scheme").unwrap_or("all") {
        "asr" | "swat" | "swat-asr" => vec![SchemeKind::SwatAsr],
        "dc" | "divergence" => vec![SchemeKind::DivergenceCaching],
        "aps" | "precision" => vec![SchemeKind::AdaptivePrecision],
        "all" => SchemeKind::ALL.to_vec(),
        other => return Err(format!("unknown scheme {other:?} (asr|dc|aps|all)")),
    };
    println!(
        "topology: source + {} clients; N={}, T_d={}, T_q={}, delta={}, horizon={}, warmup={}",
        topo.client_count(),
        cfg.window,
        cfg.t_data,
        cfg.t_query,
        cfg.delta,
        cfg.horizon,
        cfg.warmup
    );
    println!(
        "{:<10} {:>10} {:>10} {:>9} {:>15}",
        "scheme", "messages", "weighted", "hit rate", "approximations"
    );
    for kind in schemes {
        let out = run(kind, &topo, &data, &cfg);
        let hits = out.metrics.counter("local_hits") as f64;
        let queries = out.metrics.counter("queries").max(1) as f64;
        println!(
            "{:<10} {:>10} {:>10.1} {:>8.1}% {:>15}",
            out.scheme,
            out.ledger.total(),
            out.ledger.weighted_total(),
            100.0 * hits / queries,
            out.approximations
        );
    }
    Ok(())
}

fn parse_topology(a: &Args) -> Result<Topology, String> {
    let clients = a
        .get_parsed("clients", 1usize, "a count")
        .map_err(|e| e.to_string())?;
    let depth = a
        .get_parsed("depth", 2usize, "a depth")
        .map_err(|e| e.to_string())?;
    match a.get("topology").unwrap_or("single") {
        "single" => Ok(Topology::single_client()),
        "chain" => {
            if clients == 0 {
                return Err("--clients must be positive".into());
            }
            Ok(Topology::chain(clients))
        }
        "star" => {
            if clients == 0 {
                return Err("--clients must be positive".into());
            }
            Ok(Topology::star(clients))
        }
        "binary" => {
            if depth == 0 {
                return Err("--depth must be positive".into());
            }
            Ok(Topology::complete_binary(depth))
        }
        other => Err(format!(
            "unknown topology {other:?} (single|chain|star|binary)"
        )),
    }
}

/// `swat ingest-bench`: the perf-regression harness, outside criterion.
pub fn ingest_bench(a: &Args) -> Result<(), String> {
    use swat_bench::ingest::{run, IngestConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        IngestConfig::quick(seed)
    } else {
        IngestConfig::full(seed)
    };
    if let Some(raw) = a.get("windows") {
        cfg.windows = parse_usize_list("windows", raw)?;
    }
    if let Some(raw) = a.get("coeffs") {
        cfg.coefficients = parse_usize_list("coeffs", raw)?;
    }
    if let Some(raw) = a.get("threads") {
        cfg.threads = parse_usize_list("threads", raw)?;
    }
    if let Some(raw) = a.get("streams") {
        cfg.streams = parse_usize_list("streams", raw)?;
    }
    if let Some(raw) = a.get("chunks") {
        cfg.chunks = parse_usize_list("chunks", raw)?;
    }
    cfg.values = a
        .get_parsed("values", cfg.values, "a count")
        .map_err(|e| e.to_string())?;
    for &s in &cfg.streams {
        if s == 0 {
            return Err("--streams entries must be positive".into());
        }
        if cfg.values < s {
            return Err("--values must be at least every --streams entry".into());
        }
    }
    for (&w, &k) in cfg
        .windows
        .iter()
        .flat_map(|w| cfg.coefficients.iter().map(move |k| (w, k)))
    {
        SwatConfig::with_coefficients(w, k).map_err(|e| e.to_string())?;
    }
    for &t in &cfg.threads {
        if t == 0 {
            return Err("--threads entries must be positive".into());
        }
    }
    let report = run(&cfg);
    report.print();
    let out = a.get("out").unwrap_or("results/BENCH_ingest.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

/// `swat query-bench`: query-serving throughput — reference vs the
/// zero-allocation engine vs the wavelet-domain kernel, plus parallel
/// multi-stream fan-out — writing the `BENCH_query.json` artifact.
pub fn query_bench(a: &Args) -> Result<(), String> {
    use swat_bench::query::{run, QueryConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        QueryConfig::quick(seed)
    } else {
        QueryConfig::full(seed)
    };
    if let Some(raw) = a.get("windows") {
        cfg.windows = parse_usize_list("windows", raw)?;
    }
    if let Some(raw) = a.get("coeffs") {
        cfg.coefficients = parse_usize_list("coeffs", raw)?;
    }
    if let Some(raw) = a.get("threads") {
        cfg.threads = parse_usize_list("threads", raw)?;
    }
    cfg.points = a
        .get_parsed("points", cfg.points, "a count")
        .map_err(|e| e.to_string())?;
    cfg.inners = a
        .get_parsed("inners", cfg.inners, "a count")
        .map_err(|e| e.to_string())?;
    cfg.ranges = a
        .get_parsed("ranges", cfg.ranges, "a count")
        .map_err(|e| e.to_string())?;
    cfg.streams = a
        .get_parsed("streams", cfg.streams, "a count")
        .map_err(|e| e.to_string())?;
    if cfg.streams == 0 {
        return Err("--streams must be positive".into());
    }
    for (&w, &k) in cfg
        .windows
        .iter()
        .flat_map(|w| cfg.coefficients.iter().map(move |k| (w, k)))
    {
        SwatConfig::with_coefficients(w, k).map_err(|e| e.to_string())?;
        if w < 4 {
            return Err("--windows entries must be at least 4".into());
        }
    }
    for &t in &cfg.threads {
        if t == 0 {
            return Err("--threads entries must be positive".into());
        }
    }
    let report = run(&cfg);
    report.print();
    if !report.agreement {
        return Err(
            "fast query paths disagreed with the reference implementation — this is a bug".into(),
        );
    }
    let out = a.get("out").unwrap_or("results/BENCH_query.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

/// `swat chaos`: sweep SWAT-ASR under fault injection and write the
/// `BENCH_chaos.json` artifact.
pub fn chaos(a: &Args) -> Result<(), String> {
    use swat_bench::chaos::{run, ChaosConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        ChaosConfig::quick(seed)
    } else {
        ChaosConfig::full(seed)
    };
    if let Some(raw) = a.get("drops") {
        cfg.drops = parse_f64_list("drops", raw)?;
        if cfg.drops.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("--drops entries must be probabilities in [0, 1]".into());
        }
    }
    if let Some(raw) = a.get("delays") {
        cfg.delays = parse_u64_list("delays", raw)?;
    }
    cfg.depth = a
        .get_parsed("depth", cfg.depth, "a tree depth")
        .map_err(|e| e.to_string())?;
    if cfg.depth == 0 {
        return Err("--depth must be positive".into());
    }
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.horizon = a
        .get_parsed("horizon", cfg.horizon, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.warmup = a
        .get_parsed("warmup", cfg.warmup, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.delta = a
        .get_parsed("delta", cfg.delta, "a number")
        .map_err(|e| e.to_string())?;
    cfg.heal = a.switch("heal");
    // Fail early with the workload's own diagnostics (window shape,
    // warmup vs horizon, delta) before paying for the sweep.
    WorkloadConfig {
        window: cfg.window,
        delta: cfg.delta,
        horizon: cfg.horizon,
        warmup: cfg.warmup,
        seed,
        ..WorkloadConfig::default()
    }
    .validate()
    .map_err(|e| e.to_string())?;
    let report = run(&cfg);
    report.print();
    let violations: usize = report.cases.iter().map(|c| c.violations).sum();
    if violations > 0 {
        return Err(format!(
            "{violations} correctness violations under faults — this is a bug"
        ));
    }
    let out = a.get("out").unwrap_or("results/BENCH_chaos.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

/// `swat recover`.
pub fn recover(a: &Args) -> Result<(), String> {
    use swat_store::RecoveryManager;
    let dir = a
        .get("dir")
        .ok_or("--dir is required (the store directory)")?;
    let (mut store, report) =
        RecoveryManager::recover(dir).map_err(|e| PathError::recovering(dir, e))?;
    match report.checkpoint_t {
        Some(t) => println!("base checkpoint:      t = {t}"),
        None => println!("base checkpoint:      none (bootstrapped from wal-0 header)"),
    }
    if report.checkpoints_skipped > 0 {
        println!(
            "checkpoints skipped:  {} (failed verification)",
            report.checkpoints_skipped
        );
    }
    println!("wal rows replayed:    {}", report.wal_rows_replayed);
    if report.wal_bytes_dropped > 0 {
        println!(
            "wal bytes dropped:    {} (torn or corrupt)",
            report.wal_bytes_dropped
        );
    }
    println!("recovered arrivals:   {}", report.recovered_arrivals);
    println!(
        "streams × window:     {} × {}",
        store.set().streams(),
        store.set().config().window()
    );
    println!("answers digest:       {:016x}", store.answers_digest());
    println!("store re-anchored: fresh checkpoint + WAL written in {dir}");
    Ok(())
}

/// `swat recovery-bench`.
pub fn recovery_bench(a: &Args) -> Result<(), String> {
    use swat_bench::recovery::{run, RecoveryConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        RecoveryConfig::quick(seed)
    } else {
        RecoveryConfig::full(seed)
    };
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.coeffs = a
        .get_parsed("coeffs", cfg.coeffs, "a positive integer")
        .map_err(|e| e.to_string())?;
    cfg.streams = a
        .get_parsed("streams", cfg.streams, "a positive integer")
        .map_err(|e| e.to_string())?;
    cfg.rows = a
        .get_parsed("rows", cfg.rows, "a row count")
        .map_err(|e| e.to_string())?;
    cfg.checkpoint_every = a
        .get_parsed("checkpoint-every", cfg.checkpoint_every, "a row cadence")
        .map_err(|e| e.to_string())?;
    cfg.fault_trials = a
        .get_parsed("trials", cfg.fault_trials, "a trial count")
        .map_err(|e| e.to_string())?;
    cfg.max_faults = a
        .get_parsed("max-faults", cfg.max_faults, "a fault count")
        .map_err(|e| e.to_string())?;
    if cfg.streams == 0 || cfg.rows == 0 || cfg.checkpoint_every == 0 {
        return Err("--streams, --rows, and --checkpoint-every must be positive".into());
    }
    if !cfg.window.is_power_of_two() || cfg.window < 2 {
        return Err("--window must be a power of two ≥ 2".into());
    }
    if cfg.coeffs == 0 {
        return Err("--coeffs must be positive".into());
    }
    let report = run(&cfg);
    report.print();
    if !report.clean.digest_match {
        return Err("clean-crash recovery digest mismatch — this is a bug".into());
    }
    if report.chaos.violations > 0 {
        return Err(format!(
            "{} soundness violations in the durability comparison — this is a bug",
            report.chaos.violations
        ));
    }
    let out = a.get("out").unwrap_or("results/BENCH_recovery.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

/// `swat store-bench`.
pub fn store_bench(a: &Args) -> Result<(), String> {
    use swat_bench::store::{run, StoreBenchConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        StoreBenchConfig::quick(seed)
    } else {
        StoreBenchConfig::full(seed)
    };
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.coeffs = a
        .get_parsed("coeffs", cfg.coeffs, "a positive integer")
        .map_err(|e| e.to_string())?;
    cfg.streams = a
        .get_parsed("streams", cfg.streams, "a positive integer")
        .map_err(|e| e.to_string())?;
    cfg.rows = a
        .get_parsed("rows", cfg.rows, "a row count")
        .map_err(|e| e.to_string())?;
    cfg.freeze_rows = a
        .get_parsed("freeze-rows", cfg.freeze_rows, "a row cadence")
        .map_err(|e| e.to_string())?;
    cfg.grid_rows = a
        .get_parsed("grid-rows", cfg.grid_rows, "a row count")
        .map_err(|e| e.to_string())?;
    cfg.grid_points = a
        .get_parsed("grid-points", cfg.grid_points, "a sample count")
        .map_err(|e| e.to_string())?;
    if cfg.streams == 0 || cfg.rows == 0 || cfg.freeze_rows == 0 || cfg.grid_rows == 0 {
        return Err("--streams, --rows, --freeze-rows, and --grid-rows must be positive".into());
    }
    if !cfg.window.is_power_of_two() || cfg.window < 2 {
        return Err("--window must be a power of two ≥ 2".into());
    }
    if cfg.coeffs == 0 {
        return Err("--coeffs must be positive".into());
    }
    let report = run(&cfg);
    report.print();
    if !report.latency.flush_nonblocking {
        return Err(format!(
            "push_row blocked on background flushing ({} blocking stalls, p99 {} µs, \
             max {} µs) — this is a bug",
            report.latency.blocking_stalls, report.latency.p99_micros, report.latency.max_micros
        ));
    }
    if report.grid.acked_rows_lost > 0 {
        return Err(format!(
            "{} acknowledged rows lost across the injected-fault grid — this is a bug",
            report.grid.acked_rows_lost
        ));
    }
    if report.grid.digest_mismatches > 0 || report.grid.panics > 0 {
        return Err(format!(
            "{} digest mismatches and {} panics in the injected-fault grid — this is a bug",
            report.grid.digest_mismatches, report.grid.panics
        ));
    }
    let out = a.get("out").unwrap_or("results/BENCH_store.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

/// `swat repair-bench`: compare the self-healing driver against a static
/// tree under interior crashes and write the `BENCH_repair.json`
/// artifact. Fails unless healing strictly dominates in every cell.
pub fn repair_bench(a: &Args) -> Result<(), String> {
    use swat_bench::repair::{run, RepairConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        RepairConfig::quick(seed)
    } else {
        RepairConfig::full(seed)
    };
    if let Some(raw) = a.get("crash-fracs") {
        cfg.crash_fracs = parse_f64_list("crash-fracs", raw)?;
        if cfg.crash_fracs.iter().any(|f| !(0.0..=1.0).contains(f)) {
            return Err("--crash-fracs entries must be fractions in [0, 1]".into());
        }
    }
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.horizon = a
        .get_parsed("horizon", cfg.horizon, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.warmup = a
        .get_parsed("warmup", cfg.warmup, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.delta = a
        .get_parsed("delta", cfg.delta, "a number")
        .map_err(|e| e.to_string())?;
    cfg.heal.period = a
        .get_parsed("hb-period", cfg.heal.period, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.heal.miss_threshold = a
        .get_parsed("miss-threshold", cfg.heal.miss_threshold, "a miss count")
        .map_err(|e| e.to_string())?;
    if cfg.heal.period == 0 || cfg.heal.miss_threshold == 0 {
        return Err("--hb-period and --miss-threshold must be positive".into());
    }
    WorkloadConfig {
        window: cfg.window,
        delta: cfg.delta,
        horizon: cfg.horizon,
        warmup: cfg.warmup,
        seed,
        ..WorkloadConfig::default()
    }
    .validate()
    .map_err(|e| e.to_string())?;
    let report = run(&cfg);
    report.print();
    let violations: usize = report.cases.iter().map(|c| c.violations).sum();
    if violations > 0 {
        return Err(format!(
            "{violations} correctness violations under healing — this is a bug"
        ));
    }
    if !report.all_dominate() {
        return Err("a healed cell failed to beat its static run — this is a bug".into());
    }
    let out = a.get("out").unwrap_or("results/BENCH_repair.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

/// `swat scale-bench`: sweep the sharded stream tier over stream
/// counts, measure ingest throughput, bytes/stream, and distributed
/// top-k merge latency, and write the `BENCH_scale.json` artifact.
/// Fails if any oracle-checked case disagrees with the unsharded set.
pub fn scale_bench(a: &Args) -> Result<(), String> {
    use swat_bench::scale::{run, ScaleConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        ScaleConfig::quick(seed)
    } else {
        ScaleConfig::full(seed)
    };
    if let Some(raw) = a.get("streams") {
        cfg.stream_counts = parse_usize_list("streams", raw)?;
    }
    if let Some(raw) = a.get("threads") {
        cfg.threads = parse_usize_list("threads", raw)?;
        if cfg.threads.contains(&0) {
            return Err("--threads entries must be positive".into());
        }
    }
    cfg.shards = a
        .get_parsed("shards", cfg.shards, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.k = a
        .get_parsed("coeffs", cfg.k, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.rows = a
        .get_parsed("rows", cfg.rows, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.top_k = a
        .get_parsed("top-k", cfg.top_k, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.verify_limit = a
        .get_parsed("verify-limit", cfg.verify_limit, "a stream count")
        .map_err(|e| e.to_string())?;
    if cfg.shards == 0 || cfg.rows == 0 || cfg.top_k == 0 {
        return Err("--shards, --rows, and --top-k must be positive".into());
    }
    if SwatConfig::with_coefficients(cfg.window, cfg.k).is_err() {
        return Err(format!(
            "--window {} / --coeffs {}: window must be a power of two >= 2 \
             and coeffs in 1..=window",
            cfg.window, cfg.k
        ));
    }
    let report = run(&cfg);
    report.print();
    if !report.all_agree() {
        return Err("a sharded case disagreed with the unsharded oracle — this is a bug".into());
    }
    let out = a.get("out").unwrap_or("results/BENCH_scale.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

/// `swat daemon-bench`: spawn a real-TCP localhost cluster, measure
/// request latency/throughput clean vs one-replica-killed, and write
/// the `BENCH_daemon.json` artifact. Fails on any wrong answer — the
/// cluster may degrade explicitly, never silently.
pub fn daemon_bench(a: &Args) -> Result<(), String> {
    use swat_bench::daemon::{run, DaemonBenchConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        DaemonBenchConfig::quick(seed)
    } else {
        DaemonBenchConfig::full(seed)
    };
    cfg.streams = a
        .get_parsed("streams", cfg.streams, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.shards = a
        .get_parsed("shards", cfg.shards, "a count of at least 2")
        .map_err(|e| e.to_string())?;
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.coeffs = a
        .get_parsed("coeffs", cfg.coeffs, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.rows = a
        .get_parsed("rows", cfg.rows, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.points = a
        .get_parsed("points", cfg.points, "a count")
        .map_err(|e| e.to_string())?;
    cfg.topks = a
        .get_parsed("topks", cfg.topks, "a count")
        .map_err(|e| e.to_string())?;
    if cfg.shards < 2 {
        return Err("--shards must be at least 2 (the bench kills one replica)".into());
    }
    if cfg.streams == 0 || cfg.rows == 0 {
        return Err("--streams and --rows must be positive".into());
    }
    SwatConfig::with_coefficients(cfg.window, cfg.coeffs).map_err(|e| e.to_string())?;
    let report = run(&cfg);
    report.print();
    if !report.zero_wrong_answers() {
        return Err("the daemon answered a query wrongly under faults — this is a bug".into());
    }
    let out = a.get("out").unwrap_or("results/BENCH_daemon.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

/// `swat failover-bench`: spawn a full failover cluster over real TCP,
/// kill the leader mid-run, and measure election latency, the
/// unavailability window, and the answered fraction — writing the
/// `BENCH_failover.json` artifact. Fails unless the cluster recovers
/// inside the deadline with zero wrong answers.
pub fn failover_bench(a: &Args) -> Result<(), String> {
    use swat_bench::failover::{run, FailoverBenchConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        FailoverBenchConfig::quick(seed)
    } else {
        FailoverBenchConfig::full(seed)
    };
    cfg.streams = a
        .get_parsed("streams", cfg.streams, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.shards = a
        .get_parsed("shards", cfg.shards, "a count of at least 2")
        .map_err(|e| e.to_string())?;
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.coeffs = a
        .get_parsed("coeffs", cfg.coeffs, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.rows_before = a
        .get_parsed("rows-before", cfg.rows_before, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.rows_after = a
        .get_parsed("rows-after", cfg.rows_after, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.election_timeout_ms = a
        .get_parsed(
            "election-timeout-ms",
            cfg.election_timeout_ms,
            "milliseconds",
        )
        .map_err(|e| e.to_string())?;
    cfg.deadline_ms = a
        .get_parsed("deadline-ms", cfg.deadline_ms, "milliseconds")
        .map_err(|e| e.to_string())?;
    if cfg.shards < 2 {
        return Err("--shards must be at least 2 (the bench kills the leader)".into());
    }
    if cfg.streams == 0 || cfg.rows_before == 0 || cfg.rows_after == 0 {
        return Err("--streams, --rows-before, and --rows-after must be positive".into());
    }
    if cfg.election_timeout_ms == 0 || cfg.deadline_ms == 0 {
        return Err("--election-timeout-ms and --deadline-ms must be positive".into());
    }
    SwatConfig::with_coefficients(cfg.window, cfg.coeffs).map_err(|e| e.to_string())?;
    let report = run(&cfg);
    report.print();
    if !report.recovered {
        return Err("the cluster did not recover inside the deadline — this is a bug".into());
    }
    if !report.zero_wrong_answers() {
        return Err("the cluster answered wrongly around a failover — this is a bug".into());
    }
    let out = a.get("out").unwrap_or("results/BENCH_failover.json");
    report
        .write_json(std::path::Path::new(out))
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

fn parse_f64_list(flag: &str, raw: &str) -> Result<Vec<f64>, String> {
    let list: Result<Vec<f64>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(v) if !v.is_empty() && v.iter().all(|x| x.is_finite()) => Ok(v),
        _ => Err(format!(
            "--{flag} {raw:?}: expected comma-separated numbers"
        )),
    }
}

fn parse_u64_list(flag: &str, raw: &str) -> Result<Vec<u64>, String> {
    let list: Result<Vec<u64>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(format!("--{flag} {raw:?}: expected comma-separated counts")),
    }
}

fn parse_usize_list(flag: &str, raw: &str) -> Result<Vec<usize>, String> {
    let list: Result<Vec<usize>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(format!("--{flag} {raw:?}: expected comma-separated counts")),
    }
}

/// `swat generate`.
pub fn generate(a: &Args) -> Result<(), String> {
    let dataset = parse_dataset(
        a.get("dataset")
            .ok_or("--dataset is required (weather|synthetic)")?,
    )?;
    let count = a
        .get_parsed("count", 1024usize, "a count")
        .map_err(|e| e.to_string())?;
    let seed = a
        .get_parsed("seed", 42u64, "an integer")
        .map_err(|e| e.to_string())?;
    let mut out = String::with_capacity(count * 8);
    for v in dataset.series(seed, count) {
        out.push_str(&format!("{v}\n"));
    }
    print!("{out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_spec_parsing() {
        let q = parse_inner("exp:8:5").unwrap();
        assert_eq!(q.len(), 8);
        assert_eq!(q.delta(), 5.0);
        let q = parse_inner("lin:4").unwrap();
        assert_eq!(q.weights()[0], 1.0);
        assert!(q.delta().is_infinite());
        assert!(parse_inner("exp").is_err());
        assert!(parse_inner("exp:0").is_err());
        assert!(parse_inner("wavy:4").is_err());
        assert!(parse_inner("exp:x").is_err());
    }

    #[test]
    fn range_spec_parsing() {
        let q = parse_range("80:2.5", 128).unwrap();
        assert_eq!(
            (q.center, q.radius, q.newest, q.oldest),
            (80.0, 2.5, 0, 127)
        );
        let q = parse_range("10:1:5:20", 128).unwrap();
        assert_eq!((q.newest, q.oldest), (5, 20));
        assert!(parse_range("80", 128).is_err());
        assert!(parse_range("80:-1", 128).is_err());
        assert!(parse_range("80:1:9:3", 128).is_err());
    }

    #[test]
    fn dataset_parsing() {
        assert_eq!(parse_dataset("weather").unwrap(), Dataset::Weather);
        assert_eq!(parse_dataset("synthetic").unwrap(), Dataset::Synthetic);
        assert!(parse_dataset("csv").is_err());
    }

    #[test]
    fn topology_parsing() {
        let a = Args::parse(["simulate", "--topology", "binary", "--depth", "3"]).unwrap();
        assert_eq!(parse_topology(&a).unwrap().client_count(), 14);
        let a = Args::parse(["simulate", "--topology", "chain", "--clients", "4"]).unwrap();
        assert_eq!(parse_topology(&a).unwrap().client_count(), 4);
        let a = Args::parse(["simulate"]).unwrap();
        assert_eq!(parse_topology(&a).unwrap().client_count(), 1);
        let a = Args::parse(["simulate", "--topology", "mesh"]).unwrap();
        assert!(parse_topology(&a).is_err());
    }

    #[test]
    fn summarize_end_to_end_with_dataset() {
        let a = Args::parse([
            "summarize",
            "--dataset",
            "weather",
            "--count",
            "600",
            "--window",
            "128",
            "--point",
            "0",
            "--inner",
            "exp:16:50",
            "--aggregate",
            "0:31",
        ])
        .unwrap();
        summarize(&a).unwrap();
    }

    #[test]
    fn simulate_end_to_end() {
        let a = Args::parse([
            "simulate",
            "--horizon",
            "600",
            "--warmup",
            "200",
            "--window",
            "16",
        ])
        .unwrap();
        simulate(&a).unwrap();
        let a = Args::parse(["simulate", "--horizon", "100", "--warmup", "200"]).unwrap();
        assert!(simulate(&a).is_err(), "warmup beyond horizon must fail");
    }

    #[test]
    fn summarize_requires_input() {
        let a = Args::parse(["summarize"]).unwrap();
        assert!(summarize(&a).is_err());
    }
}
