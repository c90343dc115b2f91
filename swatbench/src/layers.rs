//! The per-layer model: a workload's generated requests replayed
//! through each module's public functions, composed as one request
//! flows through the cluster.
//!
//! client encode → client→leader round trip → leader decode → plan →
//! for each hop: encode, round trip, replica decode, handle, response
//! encode and decode → finish → response encode → client decode.
//!
//! Round trips are `TcpTransport` exchanges with an echo thread on
//! loopback, carrying the real request frame out and the real response
//! frame back. Every step is a leaf span; a request's modelled time is
//! the sum of its leaves' self times.

use std::collections::BTreeMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swat_daemon::proto::{
    check_frame, decode_request, decode_response, encode_request, encode_response,
};
use swat_daemon::transport::{TcpTransport, Transport};
use swat_daemon::{LeaderCore, PeerCall, Plan, ReplicaNode, Request, Response};
use swat_tree::{local_top_k, QueryOptions, RangeQuery, ShardedStreamSet, StreamSet, SwatConfig};

use crate::gen::{Op, KINDS};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Shards of every daemon cluster (and of the model).
pub const SHARDS: usize = 4;
const IO: Duration = Duration::from_secs(5);
/// Request ids of modelled requests start here, clear of the run's.
const MODEL_IDS: u64 = 1 << 48;

/// Wire messages the model encodes and decodes, requests then responses.
/// `*_hop` are the leader's fenced copies sent to a replica. The top-k
/// refinement round (`TopKScan`) is absent: on these workloads no shard
/// ever qualifies for it, so `cluster.hops.topk` reads 4.
const MESSAGES: [&str; 13] = [
    "ingest",
    "subrow",
    "point",
    "point_hop",
    "range",
    "range_hop",
    "topk",
    "local_topk",
    "ingest_ok",
    "point_r",
    "range_r",
    "topk_r",
    "local_topk_r",
];
/// Request kinds a replica handles.
const HANDLED: [&str; 4] = ["subrow", "point", "range", "local_topk"];
const FINISHES: [&str; 4] = ["ingest", "routed", "topk_round2", "topk"];

fn request_name(r: &Request) -> &'static str {
    match r {
        Request::Ingest { .. } => "ingest",
        Request::Point { .. } => "point",
        Request::Range { .. } => "range",
        Request::TopK { .. } => "topk",
        Request::Fenced { inner, .. } => match **inner {
            Request::Ingest { .. } => "subrow",
            Request::Point { .. } => "point_hop",
            Request::Range { .. } => "range_hop",
            Request::LocalTopK { .. } => "local_topk",
            Request::TopKScan { .. } => "scan",
            _ => "other",
        },
        _ => "other",
    }
}

fn response_name(r: &Response) -> &'static str {
    match r {
        Response::IngestOk { .. } => "ingest_ok",
        Response::PointR { .. } => "point_r",
        Response::RangeR { .. } => "range_r",
        Response::TopKR { .. } => "topk_r",
        Response::LocalTopKR { .. } => "local_topk_r",
        Response::ScanR { .. } => "scan_r",
        _ => "other",
    }
}

/// The request a workload operation sends.
pub fn request_of(op: &Op, req_id: u64, row: Option<Vec<f64>>) -> Request {
    match *op {
        Op::Ingest => Request::Ingest {
            req_id,
            row: row.expect("an ingest carries its row"),
        },
        Op::Point { stream, index } => Request::Point { stream, index },
        Op::Range {
            stream,
            center,
            radius,
            newest,
            oldest,
        } => Request::Range {
            stream,
            center,
            radius,
            newest,
            oldest,
        },
        Op::TopK { k } => Request::TopK { k },
    }
}

/// A loopback echo: sends a frame, gets back whatever frame was set
/// with [`Echo::set_reply`].
struct Echo {
    tp: TcpTransport,
    reply: Arc<Mutex<Vec<u8>>>,
    server: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> Result<Echo, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("echo addr: {e}"))?;
        let reply = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::clone(&reply);
        let server = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let Ok(mut tp) = TcpTransport::new(stream, IO, IO) else {
                return;
            };
            while tp.recv_frame().is_ok() {
                let frame = shared.lock().expect("echo reply lock");
                if tp.send_frame(&frame).is_err() {
                    return;
                }
            }
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
        let tp = TcpTransport::new(stream, IO, IO).map_err(|e| format!("echo socket: {e}"))?;
        Ok(Echo {
            tp,
            reply,
            server: Some(server),
        })
    }

    fn set_reply(&self, frame: &[u8]) {
        let mut r = self.reply.lock().expect("echo reply lock");
        r.clear();
        r.extend_from_slice(frame);
    }

    fn exchange(&mut self, frame: &[u8]) -> Result<(), String> {
        self.tp
            .send_frame(frame)
            .map_err(|e| format!("echo send: {e}"))?;
        self.tp
            .recv_frame()
            .map_err(|e| format!("echo recv: {e}"))?;
        Ok(())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.tp.stream().shutdown(Shutdown::Both);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// Per-layer samples from a replay.
pub struct Model {
    leader: LeaderCore,
    replicas: Vec<ReplicaNode>,
    echo: Echo,
    full: StreamSet,
    shard0: StreamSet,
    members0: Vec<usize>,
    sharded: ShardedStreamSet,
    /// Per-call times by metric key, ns.
    ns: BTreeMap<String, Vec<f64>>,
    /// Frame sizes by message.
    bytes: BTreeMap<&'static str, Vec<f64>>,
    /// Peer calls per request, by [`Op::kind`].
    hops: [Vec<f64>; 4],
    /// Kind of each modelled request, by request id.
    kinds: BTreeMap<u64, usize>,
    /// Modelled time per request, ns, by kind; see [`Model::account`].
    modelled: [Vec<f64>; 4],
    hop_count: u64,
}

impl Model {
    fn new(config: SwatConfig, streams: usize) -> Result<Model, String> {
        let replicas = (0..SHARDS)
            .map(|s| ReplicaNode::new(s as u64 + 1, config, streams, SHARDS, s))
            .collect::<Vec<_>>();
        let members0 = replicas[0].members().to_vec();
        Ok(Model {
            leader: LeaderCore::bootstrap(streams, SHARDS, 3, false),
            echo: Echo::start()?,
            full: StreamSet::new(config, streams),
            shard0: StreamSet::new(config, members0.len()),
            members0,
            sharded: ShardedStreamSet::new(config, streams, SHARDS),
            replicas,
            ns: BTreeMap::new(),
            bytes: BTreeMap::new(),
            hops: Default::default(),
            kinds: BTreeMap::new(),
            modelled: Default::default(),
            hop_count: 0,
        })
    }

    /// Apply a row everywhere without measuring it.
    fn prefill(&mut self, row: &[f64], req_id: u64) {
        for (s, replica) in self.replicas.iter_mut().enumerate() {
            let sub = self.leader.map().subrow(row, s);
            replica.handle(&Request::Ingest { req_id, row: sub });
        }
        self.full.push_row(row);
        self.shard0.push_row(&self.leader.map().subrow(row, 0));
        self.sharded.push_row(row);
    }

    fn sample(&mut self, key: &str, ns: u64) {
        self.ns.entry(key.to_owned()).or_default().push(ns as f64);
    }

    /// Time `f` as a plain sample, outside any span.
    fn timed<T>(&mut self, key: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f(self));
        let ns = start.elapsed().as_nanos() as u64;
        self.sample(key, ns);
        out
    }

    /// Time `f` as a leaf span under `parent`.
    fn leaf<T>(
        &mut self,
        t: &mut Tracer,
        span: &'static str,
        key: &str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let start = t.now();
        let out = f(self);
        let end = t.now();
        t.record(span, start, end, Some(parent), req);
        self.sample(key, end - start);
        out
    }

    /// The module functions alone, on the same input as the request.
    fn tree_layer(&mut self, op: &Op, row: Option<&[f64]>) -> Result<(), String> {
        let opts = QueryOptions::default();
        match *op {
            Op::Ingest => {
                let row = row.expect("an ingest carries its row");
                let sub = self.leader.map().subrow(row, 0);
                self.timed("tree.push_row_ns.full", |m| m.full.push_row(row));
                self.timed("tree.push_row_ns.shard", |m| m.shard0.push_row(&sub));
                self.sharded.push_row(row);
            }
            Op::Point { stream, index } => {
                self.timed("tree.point_ns", |m| {
                    m.full
                        .tree(stream as usize)
                        .point_with(index as usize, opts)
                })
                .map_err(|e| format!("point: {e}"))?;
            }
            Op::Range {
                stream,
                center,
                radius,
                newest,
                oldest,
            } => {
                let q = RangeQuery::new(center, radius, newest as usize, oldest as usize);
                self.timed("tree.range_ns", |m| {
                    m.full.tree(stream as usize).range_query(&q)
                })
                .map_err(|e| format!("range: {e}"))?;
            }
            Op::TopK { k } => {
                self.timed("tree.local_topk_ns", |m| {
                    local_top_k(&m.shard0, &m.members0, k as usize)
                });
                self.timed("tree.topk_merge_ns", |m| {
                    m.sharded.global_top_k(k as usize, 1)
                });
            }
        }
        Ok(())
    }

    /// Model one request end to end; returns the client's decoded answer.
    fn apply(
        &mut self,
        t: &mut Tracer,
        op: &Op,
        row: Option<Vec<f64>>,
        req_id: u64,
    ) -> Result<Response, String> {
        self.tree_layer(op, row.as_deref())?;
        let kind = op.kind();
        let req = request_of(op, req_id, row);
        self.hop_count = 0;
        self.kinds.insert(req_id, kind);
        let root = t.open("request.model", None, req_id);
        let name = request_name(&req);
        let frame = self.leaf(
            t,
            "proto.encode",
            &format!("proto.encode_ns.{name}"),
            root,
            req_id,
            |_| encode_request(&req),
        );
        self.bytes.entry(name).or_default().push(frame.len() as f64);
        let decoded = self
            .leaf(
                t,
                "proto.decode",
                &format!("proto.decode_ns.{name}"),
                root,
                req_id,
                |_| check_frame(&frame).and_then(decode_request),
            )
            .map_err(|e| format!("decode {name}: {e}"))?;
        let plan = self.leaf(
            t,
            "cluster.plan",
            &format!("cluster.plan_ns.{}", KINDS[kind]),
            root,
            req_id,
            |m| m.leader.plan(&decoded),
        );
        let resp = match plan {
            Plan::Done(r) => r,
            Plan::Fan(calls) => {
                let mut results = Vec::with_capacity(calls.len());
                for c in &calls {
                    results.push(Some(self.hop(t, root, req_id, c)?));
                }
                match &decoded {
                    Request::Ingest { req_id: id, .. } => self.leaf(
                        t,
                        "cluster.finish",
                        "cluster.finish_ns.ingest",
                        root,
                        req_id,
                        |m| m.leader.finish_ingest(*id, &calls, &results),
                    ),
                    Request::TopK { k } => {
                        let (_, refines) = self.leaf(
                            t,
                            "cluster.finish",
                            "cluster.finish_ns.topk_round2",
                            root,
                            req_id,
                            |m| m.leader.plan_topk_round2(*k, &calls, &results),
                        );
                        let mut scans = Vec::with_capacity(refines.len());
                        for c in &refines {
                            scans.push((c.shard, Some(self.hop(t, root, req_id, c)?)));
                        }
                        self.leaf(
                            t,
                            "cluster.finish",
                            "cluster.finish_ns.topk",
                            root,
                            req_id,
                            |m| m.leader.finish_topk(*k, &calls, &results, &scans),
                        )
                    }
                    _ => {
                        let first = results.first().cloned().flatten();
                        self.leaf(
                            t,
                            "cluster.finish",
                            "cluster.finish_ns.routed",
                            root,
                            req_id,
                            |m| m.leader.finish_routed(&calls[0], first),
                        )
                    }
                }
            }
        };
        let back = self.respond(t, root, req_id, name, &frame, &resp)?;
        t.close(root);
        self.hops[kind].push(self.hop_count as f64);
        Ok(back)
    }

    /// Encode `resp`, carry `frame` out and the response back over the
    /// echo, and decode the response.
    fn respond(
        &mut self,
        t: &mut Tracer,
        parent: SpanId,
        req_id: u64,
        sent: &'static str,
        frame: &[u8],
        resp: &Response,
    ) -> Result<Response, String> {
        let name = response_name(resp);
        let rframe = self.leaf(
            t,
            "proto.encode",
            &format!("proto.encode_ns.{name}"),
            parent,
            req_id,
            |_| encode_response(resp),
        );
        self.bytes
            .entry(name)
            .or_default()
            .push(rframe.len() as f64);
        self.echo.set_reply(&rframe);
        self.leaf(
            t,
            "transport.rtt",
            &format!("transport.rtt.{sent}"),
            parent,
            req_id,
            |m| m.echo.exchange(frame),
        )?;
        self.leaf(
            t,
            "proto.decode",
            &format!("proto.decode_ns.{name}"),
            parent,
            req_id,
            |_| check_frame(&rframe).and_then(decode_response),
        )
        .map_err(|e| format!("decode {name}: {e}"))
    }

    /// One leader→replica call.
    fn hop(
        &mut self,
        t: &mut Tracer,
        parent: SpanId,
        req_id: u64,
        call: &PeerCall,
    ) -> Result<Response, String> {
        self.hop_count += 1;
        let hop = t.open("hop", Some(parent), req_id);
        let name = request_name(&call.request);
        let frame = self.leaf(
            t,
            "proto.encode",
            &format!("proto.encode_ns.{name}"),
            hop,
            req_id,
            |_| encode_request(&call.request),
        );
        self.bytes.entry(name).or_default().push(frame.len() as f64);
        let decoded = self
            .leaf(
                t,
                "proto.decode",
                &format!("proto.decode_ns.{name}"),
                hop,
                req_id,
                |_| check_frame(&frame).and_then(decode_request),
            )
            .map_err(|e| format!("decode {name}: {e}"))?;
        // The replica's node unwraps the fence before its shard engine
        // sees the request.
        let inner = match decoded {
            Request::Fenced { inner, .. } => *inner,
            other => other,
        };
        let handled = match name {
            "point_hop" => "point",
            "range_hop" => "range",
            other => other,
        };
        let shard = call.shard;
        let resp = self.leaf(
            t,
            "replica.handle",
            &format!("replica.handle_ns.{handled}"),
            hop,
            req_id,
            |m| m.replicas[shard].handle(&inner),
        );
        let back = self.respond(t, hop, req_id, name, &frame, &resp)?;
        t.close(hop);
        Ok(back)
    }

    /// A modelled request's time is the sum of the self times of its
    /// layer spans; the self time left to the `request.model` and `hop`
    /// spans is the replay's own bookkeeping and is left out.
    fn account(&mut self, t: &Tracer) {
        let mut per_req: BTreeMap<u64, u64> = BTreeMap::new();
        for (span, own) in t.spans().iter().zip(t.self_times()) {
            if self.kinds.contains_key(&span.req) && !matches!(span.name, "request.model" | "hop") {
                *per_req.entry(span.req).or_default() += own;
            }
        }
        for (req, ns) in per_req {
            self.modelled[self.kinds[&req]].push(ns as f64);
        }
    }

    /// Median modelled time of requests of `kind`, µs.
    pub fn modelled_us(&self, kind: usize) -> f64 {
        median(&self.modelled[kind]) / 1e3
    }

    /// Emit every per-layer metric the model measures.
    pub fn report(&self, rep: &mut Report) {
        let ns = |key: &str| self.ns.get(key).map_or(f64::NAN, |v| median(v));
        for key in [
            "tree.push_row_ns.shard",
            "tree.push_row_ns.full",
            "tree.point_ns",
            "tree.range_ns",
            "tree.local_topk_ns",
            "tree.topk_merge_ns",
        ] {
            rep.layer(key, ns(key), "ns");
        }
        for m in MESSAGES {
            rep.layer(
                format!("proto.encode_ns.{m}"),
                ns(&format!("proto.encode_ns.{m}")),
                "ns",
            );
            rep.layer(
                format!("proto.decode_ns.{m}"),
                ns(&format!("proto.decode_ns.{m}")),
                "ns",
            );
            let bytes = self.bytes.get(m).map_or(f64::NAN, |v| median(v));
            rep.layer(format!("proto.frame_bytes.{m}"), bytes, "bytes");
        }
        for m in &MESSAGES[..8] {
            rep.layer(
                format!("transport.rtt_us.{m}"),
                ns(&format!("transport.rtt.{m}")) / 1e3,
                "us",
            );
        }
        for k in KINDS {
            rep.layer(
                format!("cluster.plan_ns.{k}"),
                ns(&format!("cluster.plan_ns.{k}")),
                "ns",
            );
        }
        for f in FINISHES {
            rep.layer(
                format!("cluster.finish_ns.{f}"),
                ns(&format!("cluster.finish_ns.{f}")),
                "ns",
            );
        }
        for (i, k) in KINDS.iter().enumerate() {
            let hops = &self.hops[i];
            let mean = hops.iter().sum::<f64>() / hops.len().max(1) as f64;
            rep.layer(format!("cluster.hops.{k}"), mean, "count");
        }
        for h in HANDLED {
            rep.layer(
                format!("replica.handle_ns.{h}"),
                ns(&format!("replica.handle_ns.{h}")),
                "ns",
            );
        }
    }
}

/// Replay `prefill` (unmeasured) and then `ops` through the model.
pub fn replay(
    config: SwatConfig,
    streams: usize,
    prefill: &[Vec<f64>],
    ops: &[(Op, Option<Vec<f64>>)],
    t: &mut Tracer,
) -> Result<Model, String> {
    let mut m = Model::new(config, streams)?;
    for (i, row) in prefill.iter().enumerate() {
        m.prefill(row, MODEL_IDS + (1 << 40) + i as u64);
    }
    for (i, (op, row)) in ops.iter().enumerate() {
        m.apply(t, op, row.clone(), MODEL_IDS + i as u64)?;
    }
    m.account(t);
    Ok(m)
}

/// Cost of recording one span (two clock reads and a push), ns.
pub fn span_cost_ns() -> f64 {
    let mut t = Tracer::default();
    let n = 20_000u64;
    let start = Instant::now();
    for i in 0..n {
        let a = t.now();
        let b = t.now();
        t.record("calibrate", a, b, None, i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}
