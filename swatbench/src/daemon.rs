//! The daemon workloads: a `swatd` leader and four in-memory replicas
//! on loopback, driven through one `DaemonClient` connection.
//!
//! * `ingest-fanout` — 256 streams, closed-loop `Ingest`s, no queries
//!   while ingest is timed. Each row is split into four sub-rows that
//!   the leader sends to the shards in turn, so fan-out, `proto` and
//!   `transport` do most of the work. Rounds of ingest alternate with
//!   slices of a closed-loop read-back of every stream (points, ranges,
//!   top-k), checked against the oracle.
//! * `query-mix` — 64 streams pre-filled with four windows of rows, then
//!   an open loop at 1000 req/s: 75% point, 10% range, 10% top-k, 5%
//!   ingest. A point touches one shard; a top-k touches every shard in
//!   two rounds; the ingests change what later queries read.

use std::time::{Duration, Instant};

use swat_daemon::{DaemonClient, Request, Response};
use swat_tree::{QueryOptions, RangeQuery, ShardedStreamSet, SwatConfig};

use crate::durable::{self, COEFFS, GROUP, WINDOW};
use crate::gen::{latency_from_due, lateness, Op, OpenLoop, QueryGen, RowGen, KINDS, TOP_K};
use crate::layers::{self, SHARDS};
use crate::oracle::{self, Mismatch};
use crate::procs::{pin_to_one_cpu, tight_timer_slack, vm_hwm_kib, Cluster, CpuSample};
use crate::report::Report;
use crate::stats::{median, summarize, RateSlices};
use crate::trace::Tracer;
use crate::Args;

/// The daemon workloads' names.
pub const WORKLOADS: [&str; 2] = ["ingest-fanout", "query-mix"];
/// Cluster set-ups per `query-mix` run: half before the measured phase
/// (the last of those is measured) and half after it, because its open
/// loop cannot pause. On a shared host set-up time shifts within
/// seconds, so the set-ups are spread over the run.
const SETUPS: usize = 16;
/// Cluster set-ups after each `ingest-fanout` round, besides the
/// measured cluster's own. A start without pre-fill varies more within a
/// run than `query-mix`'s, so there are more of them.
const SETUPS_PER_ROUND: usize = 4;
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Closed-loop read-back queries per kind on `ingest-fanout`.
const READBACK: usize = 1024;
/// Ingest/read-back rounds of `ingest-fanout`; divides [`READBACK`].
const SEGMENTS: usize = 8;
/// Offered load of `query-mix`.
const RATE: f64 = 1000.0;
/// Rows per commit group on `query-mix`, whose ingests arrive at only
/// 5% of [`RATE`]: a 20 s run holds four 256-row groups.
const MIX_GROUP: usize = 16;
/// Slices of a `query-mix` run for `ingest.rows_per_s`: about thirty
/// ingests each, so one host stall spoils one slice, not the median.
const MIX_RATE_SLICES: usize = 32;
/// Modelled requests per kind in a traced run.
const MODEL_INGESTS: usize = 1024;
const MODEL_QUERIES: usize = 256;
const MODEL_MIX: usize = 4096;

struct Shape {
    streams: usize,
    prefill: usize,
}

fn shape(workload: &str) -> Shape {
    if workload == "ingest-fanout" {
        Shape {
            streams: 256,
            prefill: 0,
        }
    } else {
        Shape {
            streams: 64,
            prefill: 4 * WINDOW,
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Latencies and counts of one measured phase.
#[derive(Default)]
struct Samples {
    /// Latency per request, µs, by [`Op::kind`] (from the due time on
    /// the open loop).
    lat: [Vec<f64>; 4],
    /// Send to response, µs, by kind.
    service: [Vec<f64>; 4],
    /// How late each request was sent, µs.
    late: Vec<f64>,
    /// Commit-group latencies, µs.
    commits: Vec<f64>,
    /// Rows acknowledged and the time spent on them: whole ingest
    /// rounds on `ingest-fanout`, each ingest's send-to-ack time on
    /// `query-mix`.
    rate: RateSlices,
}

/// The client end: one connection, one id counter, and the trace.
struct Driver {
    client: DaemonClient,
    addr: std::net::SocketAddr,
    next_id: u64,
    tracer: Option<Tracer>,
}

impl Driver {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Send `op`; a transport failure reconnects and counts as failed.
    fn call(
        &mut self,
        op: &Op,
        ingest: Option<(u64, Vec<f64>)>,
        rep: &mut Report,
    ) -> Option<Response> {
        // Queries take an id too, so every request's span has its own.
        let (id, row) = match ingest {
            Some((id, row)) => (id, Some(row)),
            None => (self.id(), None),
        };
        let req = layers::request_of(op, id, row);
        let t0 = Instant::now();
        let resp = match req {
            Request::Ingest { req_id, row } => self.client.ingest(req_id, row),
            Request::Point { stream, index } => self.client.point(stream, index),
            Request::TopK { k } => self.client.top_k(k),
            // `DaemonClient` has no typed range method.
            req => self.client.call(&req),
        };
        if let Some(t) = self.tracer.as_mut() {
            let (a, b) = (t.at(t0), t.now());
            t.record("request", a, b, None, id);
        }
        rep.attempted += 1;
        match resp {
            Ok(r) => Some(r),
            Err(e) => {
                rep.failed += 1;
                eprintln!("swatbench: request failed: {e}");
                if let Ok(c) = DaemonClient::connect(self.addr, IO_TIMEOUT) {
                    self.client = c;
                }
                None
            }
        }
    }
}

/// Check a query answer against the oracle.
fn check(op: &Op, resp: &Response, oracle: &ShardedStreamSet) -> Result<(), Mismatch> {
    match *op {
        Op::Point { stream, index } => {
            let want = oracle
                .tree(stream as usize)
                .point_with(index as usize, QueryOptions::default())
                .map_err(|e| format!("oracle point: {e}"))?;
            oracle::check_point(resp, want)
        }
        Op::Range {
            stream,
            center,
            radius,
            newest,
            oldest,
        } => {
            let q = RangeQuery::new(center, radius, newest as usize, oldest as usize);
            let want = oracle
                .tree(stream as usize)
                .range_query(&q)
                .map_err(|e| format!("oracle range: {e}"))?;
            oracle::check_range(resp, want)
        }
        Op::TopK { k } => oracle::check_topk(resp, oracle.global_top_k(k as usize, 1).0.entries()),
        Op::Ingest => unreachable!("ingests are checked by their ack"),
    }
}

/// `ingest-fanout`'s read-back queries: points on every stream in turn,
/// then ranges, then top-ks, `per_kind` of each.
fn readback_ops(seed: u64, streams: usize, per_kind: usize) -> Vec<Op> {
    let mut q = QueryGen::new(seed, streams, WINDOW);
    let mut ops = Vec::with_capacity(3 * per_kind);
    for i in 0..per_kind {
        if let Op::Point { index, .. } = q.point() {
            ops.push(Op::Point {
                stream: (i % streams) as u64,
                index,
            });
        }
    }
    ops.extend((0..per_kind).map(|_| q.range()));
    ops.extend((0..per_kind).map(|_| Op::TopK { k: TOP_K }));
    ops
}

/// `ingest-fanout`'s measured phase: [`SEGMENTS`] rounds of closed-loop
/// ingest (no queries while it is timed), each followed by bringing the
/// oracle up to date (untimed) and a slice of the closed-loop read-back.
/// Slicing spreads the read-back over the whole run instead of its last
/// seconds, which on a shared host may be unusually fast or slow.
/// `between(next_id)` runs after each round, outside every timed span.
fn fanout_phase(
    d: &mut Driver,
    gen: &mut RowGen,
    oracle: &mut ShardedStreamSet,
    seed: u64,
    seconds: f64,
    rep: &mut Report,
    mut between: impl FnMut(&mut u64) -> Result<(), String>,
) -> Result<Samples, String> {
    let mut s = Samples {
        rate: RateSlices::new(SEGMENTS, seconds),
        ..Samples::default()
    };
    let ops = readback_ops(seed, oracle.streams(), READBACK);
    let per = READBACK / SEGMENTS;
    let start = Instant::now();
    for seg in 0..SEGMENTS {
        let end = start + Duration::from_secs_f64(seconds * (seg + 1) as f64 / SEGMENTS as f64);
        let mut acked = Vec::new();
        let round_start = Instant::now();
        let mut prev_done = round_start;
        let mut group_start = prev_done;
        let mut sent = 0u64;
        while Instant::now() < end {
            let row = gen.next_row();
            let copy = row.clone();
            let id = d.id();
            let t0 = Instant::now();
            s.late.push(us(t0 - prev_done));
            if sent.is_multiple_of(GROUP as u64) {
                group_start = t0;
            }
            let resp = d.call(&Op::Ingest, Some((id, row)), rep);
            let t1 = Instant::now();
            prev_done = t1;
            s.lat[0].push(us(t1 - t0));
            s.service[0].push(us(t1 - t0));
            match resp.map(|r| oracle::check_ingest(&r, id)) {
                Some(Ok(())) => acked.push(copy),
                Some(Err(e)) => rep.wrong(e),
                None => {}
            }
            sent += 1;
            if sent.is_multiple_of(GROUP as u64) {
                s.commits.push(us(t1 - group_start));
            }
        }
        let at = (round_start - start).as_secs_f64();
        s.rate
            .add(at, acked.len() as u64, us(round_start.elapsed()));
        for row in &acked {
            oracle.push_row(row);
        }
        for kind in 0..3 {
            let slice = &ops[kind * READBACK + seg * per..kind * READBACK + (seg + 1) * per];
            readback(d, slice, oracle, &mut s, rep);
        }
        between(&mut d.next_id)?;
    }
    rep.run_s = start.elapsed().as_secs_f64();
    Ok(s)
}

/// Closed-loop read-back of `ops`, each answer checked.
fn readback(
    d: &mut Driver,
    ops: &[Op],
    oracle: &ShardedStreamSet,
    s: &mut Samples,
    rep: &mut Report,
) {
    for op in ops {
        let t0 = Instant::now();
        let resp = d.call(op, None, rep);
        let dt = us(t0.elapsed());
        s.lat[op.kind()].push(dt);
        s.service[op.kind()].push(dt);
        if let Some(Err(e)) = resp.map(|r| check(op, &r, oracle)) {
            rep.wrong(e);
        }
    }
}

/// The open loop: requests due every `1/RATE` s for `seconds`, each
/// answer checked against an oracle kept in step with the ingests.
fn mix_phase(
    d: &mut Driver,
    gen: &mut RowGen,
    oracle: &mut ShardedStreamSet,
    seed: u64,
    seconds: f64,
    rep: &mut Report,
) -> Samples {
    tight_timer_slack();
    let mut s = Samples {
        rate: RateSlices::new(MIX_RATE_SLICES, seconds),
        ..Samples::default()
    };
    let mut q = QueryGen::new(seed, oracle.streams(), WINDOW);
    let sched = OpenLoop::new(Instant::now() + Duration::from_millis(1), RATE);
    let end = sched.start + Duration::from_secs_f64(seconds);
    // A commit group's time is the sum of its ingests' send-to-ack
    // times: the cluster's work on its rows, without the schedule's gaps
    // between arrivals or the wait behind earlier requests.
    let mut group_us = 0.0;
    let mut ingests = 0u64;
    let mut i = 0u64;
    loop {
        let due = sched.due(i);
        if due >= end {
            break;
        }
        i += 1;
        let op = q.mixed();
        let ingest = (op == Op::Ingest).then(|| (d.id(), gen.next_row()));
        let row = ingest.as_ref().map(|(_, r)| r.clone());
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        s.late.push(us(lateness(due, sent)));
        let id = ingest.as_ref().map(|(id, _)| *id);
        let resp = d.call(&op, ingest, rep);
        let done = Instant::now();
        let service = us(done - sent);
        s.lat[op.kind()].push(us(latency_from_due(due, done)));
        s.service[op.kind()].push(service);
        if let (Some(id), Some(row)) = (id, row) {
            group_us += service;
            let ok = match resp.map(|r| oracle::check_ingest(&r, id)) {
                Some(Ok(())) => {
                    oracle.push_row(&row);
                    true
                }
                Some(Err(e)) => {
                    rep.wrong(e);
                    false
                }
                None => false,
            };
            let at = (due - sched.start).as_secs_f64();
            s.rate.add(at, u64::from(ok), service);
            ingests += 1;
            if ingests.is_multiple_of(MIX_GROUP as u64) {
                s.commits.push(group_us);
                group_us = 0.0;
            }
        } else if let Some(Err(e)) = resp.map(|r| check(&op, &r, oracle)) {
            rep.wrong(e);
        }
    }
    rep.run_s = sched.start.elapsed().as_secs_f64();
    s
}

/// Start a cluster (and its client), pre-filled with `prefill`.
fn setup(
    args: &Args,
    i: usize,
    streams: usize,
    prefill: &[Vec<f64>],
    next_id: &mut u64,
) -> Result<(Cluster, Driver), String> {
    let dir = args.scratch().join(format!("cluster-{i}"));
    let cluster = Cluster::start(&args.swatd, &dir, streams, SHARDS, WINDOW, COEFFS)?;
    let addr = cluster.leader_addr();
    let client = DaemonClient::connect(addr, IO_TIMEOUT)
        .map_err(|e| format!("connecting to the leader: {e}"))?;
    let mut d = Driver {
        client,
        addr,
        next_id: *next_id,
        tracer: None,
    };
    for row in prefill {
        let id = d.id();
        let resp = d
            .client
            .ingest(id, row.clone())
            .map_err(|e| format!("pre-fill ingest: {e}"))?;
        oracle::check_ingest(&resp, id).map_err(|e| format!("pre-fill: {e}"))?;
    }
    *next_id = d.next_id;
    Ok((cluster, d))
}

/// Run `ingest-fanout` or `query-mix`.
pub fn run(args: &Args) -> Result<Report, String> {
    // One request is a chain of wakeups across five processes. On a
    // small VM under host contention a wakeup on another vCPU can wait
    // for milliseconds, which made medians swing tenfold between runs;
    // on one CPU the chain is plain context switches. The children
    // inherit the mask.
    let pinned = pin_to_one_cpu();
    let fanout = args.workload == "ingest-fanout";
    let Shape { streams, prefill } = shape(&args.workload);
    let config = SwatConfig::with_coefficients(WINDOW, COEFFS).map_err(|e| e.to_string())?;
    let mut rep = Report::default();
    rep.param("streams", streams);
    rep.param("shards", SHARDS);
    rep.param("window", WINDOW);
    rep.param("coeffs", COEFFS);
    rep.param("replicas", "in-memory");
    rep.param(
        "pinned_to_cpu",
        pinned.map_or("none (sched_setaffinity failed)".to_owned(), |c| {
            c.to_string()
        }),
    );
    if fanout {
        rep.param("load", "closed loop, 1 connection, Ingest only");
        rep.param("readback_per_kind", READBACK);
    } else {
        rep.param("prefill_rows", prefill);
        rep.param("load", format!("open loop {RATE} req/s, 1 connection"));
        rep.param("mix", "75% point, 10% range, 10% top-8, 5% ingest");
    }
    let group = if fanout { GROUP } else { MIX_GROUP };
    rep.param("group_rows", group);

    let mut gen = RowGen::new(args.seed, streams);
    let prefill_rows: Vec<Vec<f64>> = (0..prefill).map(|_| gen.next_row()).collect();
    let mut next_id = 0u64;
    let mut setup_s = Vec::new();
    let mut live = None;
    let before = if fanout { 1 } else { SETUPS / 2 };
    for i in 0..before {
        drop(live.take());
        let t0 = Instant::now();
        let started = setup(args, i, streams, &prefill_rows, &mut next_id)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some(started);
    }
    let (cluster, mut d) = live.expect("SETUPS > 0");
    d.tracer = args.trace.then(Tracer::default);
    let mut oracle = ShardedStreamSet::new(config, streams, SHARDS);
    for row in &prefill_rows {
        oracle.push_row(row);
    }
    let pids = cluster.pids();
    let cpu0 = CpuSample::read(&pids);
    let mut next_setup = before;
    let mut timed_setups = |next_id: &mut u64, n: usize| -> Result<(), String> {
        for _ in 0..n {
            let t0 = Instant::now();
            let started = setup(args, next_setup, streams, &prefill_rows, next_id)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(started);
            next_setup += 1;
        }
        Ok(())
    };
    let mut s = if fanout {
        fanout_phase(
            &mut d,
            &mut gen,
            &mut oracle,
            args.seed,
            args.seconds,
            &mut rep,
            |next_id| timed_setups(next_id, SETUPS_PER_ROUND),
        )?
    } else {
        mix_phase(
            &mut d,
            &mut gen,
            &mut oracle,
            args.seed,
            args.seconds,
            &mut rep,
        )
    };
    let cpu = CpuSample::read(&pids).since(&cpu0);
    let requests: usize = s.lat.iter().map(Vec::len).sum();
    let hwm_mib = pids.iter().filter_map(|&p| vm_hwm_kib(p)).sum::<u64>() as f64 / 1024.0;
    drop(cluster);
    if !fanout {
        timed_setups(&mut d.next_id, SETUPS / 2)?;
    }

    rep.e2e(
        "setup_s",
        median(&setup_s),
        "s",
        format!("median of {} cluster starts: {setup_s:.4?}", setup_s.len()),
    );
    rep.ungated(
        "peak_rss_mb",
        hwm_mib,
        "MiB",
        "sum of VmHWM over the swatd processes".into(),
    );
    if s.commits.is_empty() {
        return Err(format!(
            "no {group}-row commit group completed; raise --seconds"
        ));
    }
    let how = if fanout {
        "ingest rounds of acknowledged rows / the round's duration (its read-back excluded)"
    } else {
        "slices of the run of acknowledged rows / the summed send-to-ack time of their ingests"
    };
    rep.ingest_rate(&s.rate.rates(), how);
    for (k, name) in KINDS.iter().enumerate() {
        rep.latency(name, k == 0, summarize(&mut s.lat[k], 0.99));
    }
    rep.latency("commit", false, summarize(&mut s.commits, 0.99));

    if let Some(mut tracer) = d.tracer.take() {
        let kreq = requests as f64 / 1e3;
        rep.layer("server.cpu_user_ms_per_kreq", cpu.user_ms / kreq, "ms");
        rep.layer("server.cpu_sys_ms_per_kreq", cpu.sys_ms / kreq, "ms");
        rep.layer(
            "server.ctx_switches_per_req",
            cpu.ctx_switches as f64 / requests as f64,
            "count",
        );
        let late = summarize(&mut s.late, 0.99).map_or(f64::NAN, |x| x.tail);
        rep.layer("gen.late_p99_us", late, "us");
        let ops = model_ops(args.seed, streams, prefill, fanout);
        let model = layers::replay(config, streams, &prefill_rows, &ops, &mut tracer)?;
        model.report(&mut rep);
        durable::probe(args, config, streams, &mut rep)?;
        // Modelled over measured, weighting each kind by its share of
        // the run's requests.
        let (mut modelled, mut measured) = (0.0, 0.0);
        for k in 0..KINDS.len() {
            let n = s.service[k].len() as f64;
            if n > 0.0 {
                modelled += n * model.modelled_us(k);
                measured += n * median(&s.service[k]);
            }
        }
        rep.layer("trace.coverage", modelled / measured, "ratio");
        let busy_us: f64 = s.service.iter().flatten().sum();
        rep.layer(
            "trace.overhead",
            layers::span_cost_ns() * requests as f64 / (busy_us * 1e3),
            "ratio",
        );
        let path = args
            .root
            .join(format!("swatbench/out/trace-{}.jsonl", args.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(rep)
}

/// The requests the model replays: the start of the run's own sequence.
fn model_ops(
    seed: u64,
    streams: usize,
    prefill: usize,
    fanout: bool,
) -> Vec<(Op, Option<Vec<f64>>)> {
    let mut gen = RowGen::new(seed, streams);
    for _ in 0..prefill {
        gen.next_row();
    }
    if fanout {
        let mut ops: Vec<(Op, Option<Vec<f64>>)> = (0..MODEL_INGESTS)
            .map(|_| (Op::Ingest, Some(gen.next_row())))
            .collect();
        let rb = readback_ops(seed, streams, READBACK);
        for chunk in rb.chunks(READBACK) {
            ops.extend(chunk[..MODEL_QUERIES].iter().map(|&op| (op, None)));
        }
        ops
    } else {
        let mut q = QueryGen::new(seed, streams, WINDOW);
        (0..MODEL_MIX)
            .map(|_| {
                let op = q.mixed();
                let row = (op == Op::Ingest).then(|| gen.next_row());
                (op, row)
            })
            .collect()
    }
}
