//! `durable-ingest`: group-committed ingest into an in-process
//! `DurableStore`, and the store layer's probe for the other workloads.
//!
//! Rows go in one at a time with `push_row`; `sync()` after every
//! [`GROUP`] rows is the group-commit acknowledgement. Afterwards the
//! rows are replayed into a plain `StreamSet`, whose digest the synced
//! store, and the directory recovered after closing it, must match.

use std::path::Path;
use std::time::Instant;

use swat_store::{DurableStore, RecoveryManager, StoreOptions};
use swat_tree::{StreamSet, SwatConfig};

use crate::gen::{Op, QueryGen, RowGen, TOP_K};
use crate::oracle;
use crate::procs::{self, vm_hwm_kib, CpuSample};
use crate::report::Report;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{layers, Args};

/// This workload's name.
pub const WORKLOAD: &str = "durable-ingest";
const STREAMS: usize = 64;
/// Tree window of every workload.
pub const WINDOW: usize = 256;
/// Coefficients per node of every workload.
pub const COEFFS: usize = 4;
/// Rows per commit group, on every workload.
pub const GROUP: usize = 256;
/// Store creations per run; `setup_s` is their median. The first makes
/// the run's store; the rest are spread evenly over the measured phase,
/// because a creation is a few fsyncs whose cost shifts within seconds
/// on a shared disk, and back-to-back creations all see the same moment.
const SETUPS: usize = 24;
/// Commit groups per freeze cycle: with default `StoreOptions` a
/// generation freezes every 4096 rows, so each run of this many
/// consecutive groups carries one freeze and hand-off to the flusher.
/// `ingest.rows_per_s` is the median over the run's cycles.
const CYCLE_GROUPS: usize = 16;
/// Commit groups the store probe replays on the daemon workloads:
/// twelve frozen generations, enough for flushes and (from eight
/// segments on) a compaction.
const PROBE_GROUPS: u64 = 192;

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What [`drive`] measured.
#[derive(Default)]
pub struct StoreRun {
    /// Per-row `push_row` time, ns.
    pub push_ns: Vec<f64>,
    /// Per-commit `sync` time, µs.
    pub sync_us: Vec<f64>,
    /// Per-group commit latency (first push to sync return), µs.
    pub commit_us: Vec<f64>,
    /// `arrivals − covered_t` after each commit.
    pub lag: Vec<u64>,
    /// Rows committed.
    pub rows: u64,
    /// Time spent generating each group's rows, µs.
    pub late_us: Vec<f64>,
    /// The same rows pushed back-to-back into a plain `StreamSet`, ns.
    pub plain_push_ns: Vec<f64>,
    /// Background flushes at the end.
    pub flushes: u64,
    /// Background compactions at the end.
    pub compactions: u64,
}

/// Commit groups of generated rows into `store`. `between(groups)` runs
/// before each group, outside every timed span, and ends the run by
/// returning false. With `plain`, each group's rows are also pushed into
/// it after the commit, for the tree's share of `push_row` measured the
/// same way.
fn drive(
    store: &mut DurableStore,
    gen: &mut RowGen,
    mut between: impl FnMut(u64) -> Result<bool, String>,
    mut tracer: Option<&mut Tracer>,
    mut plain: Option<&mut StreamSet>,
) -> Result<StoreRun, String> {
    let mut run = StoreRun::default();
    let mut groups = 0u64;
    while between(groups)? {
        let g0 = Instant::now();
        let rows: Vec<Vec<f64>> = (0..GROUP).map(|_| gen.next_row()).collect();
        let t0 = Instant::now();
        run.late_us.push(us(t0 - g0));
        for row in &rows {
            let a = Instant::now();
            store.push_row(row).map_err(|e| format!("push_row: {e}"))?;
            run.push_ns.push(a.elapsed().as_nanos() as f64);
        }
        let ts = Instant::now();
        store.sync().map_err(|e| format!("sync: {e}"))?;
        let t1 = Instant::now();
        run.sync_us.push(us(t1 - ts));
        run.commit_us.push(us(t1 - t0));
        run.rows += GROUP as u64;
        groups += 1;
        let st = store.status();
        run.lag.push(st.arrivals - st.covered_t);
        if let Some(t) = tracer.as_deref_mut() {
            let root = t.record("commit", t.at(t0), t.at(t1), None, groups);
            t.record("store.push_row", t.at(t0), t.at(ts), Some(root), groups);
            t.record("store.sync", t.at(ts), t.at(t1), Some(root), groups);
        }
        if let Some(p) = plain.as_deref_mut() {
            for row in &rows {
                let a = Instant::now();
                p.push_row(row);
                run.plain_push_ns.push(a.elapsed().as_nanos() as f64);
            }
        }
    }
    let st = store.status();
    run.flushes = st.flushes;
    run.compactions = st.compactions;
    Ok(run)
}

/// Replay the run's rows into a plain `StreamSet`; the synced store's
/// digest must equal its.
fn verify(config: SwatConfig, seed: u64, streams: usize, rows: u64, digest: u64, rep: &mut Report) {
    let mut oracle = StreamSet::new(config, streams);
    let mut gen = RowGen::new(seed, streams);
    for _ in 0..rows {
        oracle.push_row(&gen.next_row());
    }
    if let Err(e) = oracle::check_digest("synced store", digest, oracle.answers_digest()) {
        rep.wrong(e);
    }
}

/// Create a store in `dir`, timed.
fn create_timed(
    dir: &Path,
    config: SwatConfig,
    streams: usize,
) -> Result<(DurableStore, f64), String> {
    let t0 = Instant::now();
    let store =
        DurableStore::create(dir, config, streams).map_err(|e| format!("creating store: {e}"))?;
    Ok((store, t0.elapsed().as_secs_f64()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|es| {
            es.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Close the store without draining it, recover its directory and
/// require the recovered digest to equal the synced one. With `checkpoint`, first checkpoint
/// and measure stored bytes per user value. Returns that and the synced
/// digest.
fn close_and_recover(
    mut store: DurableStore,
    checkpoint: bool,
    rep: &mut Report,
) -> Result<(f64, u64), String> {
    let dir = store.dir().to_owned();
    let synced = store.answers_digest();
    let mut per_value = f64::NAN;
    if checkpoint {
        store.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        let values = store.arrivals() as f64 * store.set().streams() as f64;
        per_value = dir_bytes(&dir) as f64 / values;
    }
    // Close without draining the flush queue: everything acknowledged is
    // already synced, so recovery must reach the synced digest.
    store.crash();
    let (recovered, _) =
        RecoveryManager::recover(&dir).map_err(|e| format!("recovering {}: {e}", dir.display()))?;
    if let Err(e) = oracle::check_digest("recovered store", recovered.answers_digest(), synced) {
        rep.wrong(e);
    }
    Ok((per_value, synced))
}

/// The store layer's metrics from a run of [`drive`].
fn store_layers(rep: &mut Report, run: &StoreRun, disk_bytes_per_value: f64) {
    let push = median(&run.push_ns);
    rep.layer("store.push_row_ns", push, "ns");
    rep.layer(
        "store.wal_overhead_ns",
        push - median(&run.plain_push_ns),
        "ns",
    );
    rep.layer("store.sync_us", median(&run.sync_us), "us");
    rep.layer(
        "store.flush_lag_rows.max",
        run.lag.iter().copied().max().unwrap_or(0) as f64,
        "rows",
    );
    rep.layer(
        "store.flush_lag_rows.end",
        run.lag.last().copied().unwrap_or(0) as f64,
        "rows",
    );
    rep.layer("store.flushes", run.flushes as f64, "count");
    rep.layer("store.compactions", run.compactions as f64, "count");
    rep.layer("store.disk_bytes_per_value", disk_bytes_per_value, "bytes");
}

/// The store probe for a daemon workload: [`PROBE_GROUPS`] commit
/// groups of the workload's own rows at its full width.
pub fn probe(
    args: &Args,
    config: SwatConfig,
    streams: usize,
    rep: &mut Report,
) -> Result<(), String> {
    let dir = args.scratch().join("store-probe");
    let mut store =
        DurableStore::create(&dir, config, streams).map_err(|e| format!("creating store: {e}"))?;
    let mut gen = RowGen::new(args.seed, streams);
    let mut plain = StreamSet::new(config, streams);
    let run = drive(
        &mut store,
        &mut gen,
        |g| Ok(g < PROBE_GROUPS),
        None,
        Some(&mut plain),
    )?;
    let (per_value, _) = close_and_recover(store, true, rep)?;
    store_layers(rep, &run, per_value);
    Ok(())
}

/// Run `durable-ingest`.
pub fn run(args: &Args) -> Result<Report, String> {
    let config = SwatConfig::with_coefficients(WINDOW, COEFFS).map_err(|e| e.to_string())?;
    let mut rep = Report::default();
    rep.param("streams", STREAMS);
    rep.param("window", WINDOW);
    rep.param("coeffs", COEFFS);
    rep.param("group_rows", GROUP);
    rep.param("store_options", format!("{:?}", StoreOptions::default()));
    let scratch = args.scratch();
    // Write back whatever an earlier run left dirty, so its I/O does not
    // land in this run's set-up.
    procs::sync_disks();
    let (mut store, first) = create_timed(&scratch.join("store"), config, STREAMS)?;
    let mut setup_s = vec![first];
    let mut gen = RowGen::new(args.seed, STREAMS);
    let mut tracer = args.trace.then(Tracer::default);
    let me = [std::process::id()];
    let cpu0 = CpuSample::read(&me);
    let start = Instant::now();
    let seconds = args.seconds;
    let mut plain = args.trace.then(|| StreamSet::new(config, STREAMS));
    let between = |_| {
        let elapsed = start.elapsed().as_secs_f64();
        // Set-up i (from 1) is due at (i - 1/2) / (SETUPS - 1) of the
        // phase; its store is closed and deleted untimed.
        let i = setup_s.len();
        if i < SETUPS && elapsed >= seconds * (i as f64 - 0.5) / (SETUPS - 1) as f64 {
            let dir = scratch.join(format!("store-setup-{i}"));
            let (extra, t) = create_timed(&dir, config, STREAMS)?;
            setup_s.push(t);
            drop(extra);
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(elapsed < seconds)
    };
    let mut run = drive(
        &mut store,
        &mut gen,
        between,
        tracer.as_mut(),
        plain.as_mut(),
    )?;
    rep.run_s = start.elapsed().as_secs_f64();
    if run.commit_us.len() < CYCLE_GROUPS {
        return Err(format!(
            "no {CYCLE_GROUPS}-group freeze cycle completed; raise --seconds"
        ));
    }
    let cpu = CpuSample::read(&me).since(&cpu0);
    let hwm_mib = vm_hwm_kib(me[0]).unwrap_or(0) as f64 / 1024.0;
    rep.attempted = run.rows;
    let (per_value, synced) = close_and_recover(store, args.trace, &mut rep)?;
    verify(config, args.seed, STREAMS, run.rows, synced, &mut rep);

    rep.e2e(
        "setup_s",
        median(&setup_s),
        "s",
        format!(
            "median of {} store creations over the run: {setup_s:.5?}",
            setup_s.len()
        ),
    );
    rep.ungated(
        "peak_rss_mb",
        hwm_mib,
        "MiB",
        "VmHWM of the process holding the store".into(),
    );
    let cycle_rows = (CYCLE_GROUPS * GROUP) as f64;
    let rates: Vec<f64> = run
        .commit_us
        .chunks_exact(CYCLE_GROUPS)
        .map(|c| cycle_rows / (c.iter().sum::<f64>() / 1e6))
        .collect();
    rep.ingest_rate(
        &rates,
        "freeze cycles (16 consecutive commit groups, 4096 rows) of their rows / their summed commit time (row generation excluded)",
    );
    let mut push_us: Vec<f64> = run.push_ns.iter().map(|n| n / 1e3).collect();
    rep.latency("ingest", true, summarize(&mut push_us, 0.99));
    rep.latency("commit", false, summarize(&mut run.commit_us, 0.99));

    if let Some(mut tracer) = tracer {
        let kreq = run.rows as f64 / 1e3;
        rep.layer("server.cpu_user_ms_per_kreq", cpu.user_ms / kreq, "ms");
        rep.layer("server.cpu_sys_ms_per_kreq", cpu.sys_ms / kreq, "ms");
        rep.layer(
            "server.ctx_switches_per_req",
            cpu.ctx_switches as f64 / run.rows as f64,
            "count",
        );
        let late = summarize(&mut run.late_us, 0.99).map_or(f64::NAN, |s| s.tail);
        rep.layer("gen.late_p99_us", late, "us");
        let ops = replay_ops(args.seed);
        let model = layers::replay(config, STREAMS, &[], &ops, &mut tracer)?;
        model.report(&mut rep);
        store_layers(&mut rep, &run, per_value);
        // The commit path modelled from its layers' medians.
        let modelled = GROUP as f64 * median(&run.push_ns) / 1e3 + median(&run.sync_us);
        rep.layer("trace.coverage", modelled / median(&run.commit_us), "ratio");
        let spans_per_commit = 3.0;
        rep.layer(
            "trace.overhead",
            layers::span_cost_ns() * spans_per_commit / (median(&run.commit_us) * 1e3),
            "ratio",
        );
        let path = args
            .root
            .join(format!("swatbench/out/trace-{WORKLOAD}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(rep)
}

/// The daemon-layer model's input for this workload: the first groups'
/// rows as ingests, each group followed by a few reads. The run itself
/// reads nothing; the reads give the query layers values here too, so
/// the traced result line has the same keys on every workload.
fn replay_ops(seed: u64) -> Vec<(Op, Option<Vec<f64>>)> {
    let mut gen = RowGen::new(seed, STREAMS);
    let mut q = QueryGen::new(seed, STREAMS, WINDOW);
    let mut ops = Vec::new();
    for _ in 0..16 {
        for _ in 0..GROUP {
            ops.push((Op::Ingest, Some(gen.next_row())));
        }
        for _ in 0..4 {
            ops.push((q.point(), None));
        }
        ops.push((q.range(), None));
        ops.push((Op::TopK { k: TOP_K }, None));
    }
    ops
}
