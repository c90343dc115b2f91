//! The cluster node: every `swatd` process is one of these.
//!
//! A [`ClusterNode`] wraps the shard holdings a node currently serves
//! (each a [`ReplicaNode`]), the node's term/leader view, and — while
//! the node leads — the [`LeaderCore`] routing machine. Like the layers
//! below it, it is strictly sans-io: [`ClusterNode::handle`] answers any
//! wire request that can be answered locally, and the election / repair
//! / rejoin protocols are expressed as *plans* ([`PeerCall`] lists) the
//! driver delivers, feeding results back into the matching `finish_*`.
//! The threaded TCP server and the deterministic failover simulator are
//! both thin drivers around this type, which is what makes every
//! failover schedule replayable from a seed.
//!
//! # The fencing discipline
//!
//! Every intra-cluster request carries the sender's term (and, for
//! shard traffic, the shard's configuration epoch). [`ClusterNode::
//! handle`] enforces one rule before anything else: **a node never acts
//! on a term older than the newest it has durably adopted**, and it
//! adopts a newer term only after persisting it ([`swat_store::
//! NodeMeta`]). Combined with residue-class term ownership
//! ([`crate::failover::term_owner`]) this makes split-brain structurally
//! impossible: no two nodes can ever lead the same term, and a deposed
//! leader's traffic is rejected with [`Response::StaleTermR`] by any
//! node that has seen the successor.

use std::collections::BTreeMap;
use std::path::PathBuf;

use swat_store::NodeMeta;
use swat_tree::SwatConfig;

use crate::cluster::{LeaderCore, PeerCall};
use crate::failover::{next_term, term_owner, Assignment, ShardSlot};
use crate::proto::{ErrorCode, Request, Response, WireHolding, NO_SHARD};
use crate::registry::ReplicaRegistry;
use swat_net::NodeRole;
use swat_tree::shard_members;

/// One shard this node currently holds, in some role.
struct Holding {
    rep: crate::replica::ReplicaNode,
    /// The configuration epoch the holding is current at.
    epoch: u64,
    /// Primary (serves queries) vs standby (absorbs replication only).
    primary: bool,
}

/// A full cluster node: holdings + term view + (maybe) the leader core.
pub struct ClusterNode {
    id: u64,
    nodes: u64,
    streams: usize,
    shards: usize,
    miss_threshold: u32,
    term: u64,
    leader: u64,
    holdings: BTreeMap<usize, Holding>,
    lead: Option<LeaderCore>,
    /// Where the durable [`NodeMeta`] record lives, if anywhere.
    meta_dir: Option<PathBuf>,
    /// Shards whose current primary may not have adopted the slot's
    /// epoch yet — the repair loop re-sends `Promote` until acked.
    pending_promote: std::collections::BTreeSet<usize>,
    /// An in-flight standby installation: `(shard, target, epoch)`.
    /// While set, the shard's standby legs are expected to fail and are
    /// exempt from the drop-faulty-standby rule.
    installing: Option<(usize, u64, u64)>,
}

impl ClusterNode {
    /// The bootstrap leader: node 0 of a `shards + 1`-node cluster,
    /// leading term 0, holding no shards itself. `standbys` selects the
    /// ring assignment (each replica primary of one shard, standby of
    /// its neighbour's) over the PR 7 solo layout.
    pub fn bootstrap_leader(
        _config: SwatConfig,
        streams: usize,
        shards: usize,
        miss_threshold: u32,
        standbys: bool,
    ) -> ClusterNode {
        ClusterNode {
            id: 0,
            nodes: shards as u64 + 1,
            streams,
            shards,
            miss_threshold,
            term: 0,
            leader: 0,
            holdings: BTreeMap::new(),
            lead: Some(LeaderCore::bootstrap(
                streams,
                shards,
                miss_threshold,
                standbys,
            )),
            meta_dir: None,
            pending_promote: std::collections::BTreeSet::new(),
            installing: None,
        }
    }

    /// A bootstrap replica: node `id ∈ 1..=shards`, primary of shard
    /// `id - 1` and — with `standbys` on and more than one shard —
    /// standby of the ring-predecessor shard, all in memory.
    ///
    /// # Panics
    ///
    /// Panics if `id` is 0 or beyond the cluster.
    pub fn replica(
        id: u64,
        config: SwatConfig,
        streams: usize,
        shards: usize,
        miss_threshold: u32,
        standbys: bool,
    ) -> ClusterNode {
        assert!(id >= 1 && id <= shards as u64, "replica ids are 1..=shards");
        let mut node = ClusterNode {
            id,
            nodes: shards as u64 + 1,
            streams,
            shards,
            miss_threshold,
            term: 0,
            leader: 0,
            holdings: BTreeMap::new(),
            lead: None,
            meta_dir: None,
            pending_promote: std::collections::BTreeSet::new(),
            installing: None,
        };
        let home = id as usize - 1;
        node.holdings.insert(
            home,
            Holding {
                rep: crate::replica::ReplicaNode::new(id, config, streams, shards, home),
                epoch: 0,
                primary: true,
            },
        );
        if standbys && shards > 1 {
            // The shard whose ring standby is this node.
            let guarded = (id as usize + shards - 2) % shards;
            node.holdings.insert(
                guarded,
                Holding {
                    rep: crate::replica::ReplicaNode::new(id, config, streams, shards, guarded),
                    epoch: 0,
                    primary: false,
                },
            );
        }
        node
    }

    /// Like [`ClusterNode::replica`] but with the home shard durable
    /// under `dir` and the node's term/epoch record persisted there as a
    /// [`NodeMeta`] image. Standby holdings stay in memory: they are
    /// warm copies the leader can always re-seed from the primary, so
    /// the WAL cost is spent only on the shard this node answers for.
    ///
    /// # Errors
    ///
    /// Any [`swat_store::StoreError`] from store recovery/creation or a
    /// corrupt meta image.
    pub fn durable_replica(
        id: u64,
        config: SwatConfig,
        streams: usize,
        shards: usize,
        miss_threshold: u32,
        standbys: bool,
        dir: PathBuf,
    ) -> Result<ClusterNode, swat_store::StoreError> {
        let mut node = ClusterNode::replica(id, config, streams, shards, miss_threshold, standbys);
        let home = id as usize - 1;
        // invariant: replica() above always seeds the home shard holding.
        node.holdings
            .get_mut(&home)
            .expect("home holding exists")
            .rep = crate::replica::ReplicaNode::durable(id, config, streams, shards, home, &dir)?;
        if let Some(meta) = NodeMeta::load(&dir)? {
            node.term = meta.term;
            node.leader = meta.leader;
            for (shard, epoch) in meta.epochs {
                if let Some(h) = node.holdings.get_mut(&(shard as usize)) {
                    h.epoch = epoch;
                }
            }
        }
        node.meta_dir = Some(dir);
        Ok(node)
    }

    /// Attach a durable [`NodeMeta`] record under `dir` (creating none
    /// until the first term/epoch change). If a record exists, its
    /// term/leader view is adopted — and if that view shows the cluster
    /// ever moved past bootstrap, a node that *was* leading boots as a
    /// follower instead: its in-memory leader state is gone, so the
    /// safe restart is to wait, get fenced up to date, and re-claim only
    /// if the cluster is actually silent.
    ///
    /// # Errors
    ///
    /// A corrupt meta image ([`swat_store::StoreError::Corrupt`]).
    pub fn with_meta_dir(mut self, dir: PathBuf) -> Result<Self, swat_store::StoreError> {
        if let Some(meta) = NodeMeta::load(&dir)? {
            self.term = meta.term;
            self.leader = meta.leader;
            for (shard, epoch) in meta.epochs {
                if let Some(h) = self.holdings.get_mut(&(shard as usize)) {
                    h.epoch = epoch;
                }
            }
            if !(self.term == 0 && self.leader == self.id) {
                self.lead = None;
            }
        }
        self.meta_dir = Some(dir);
        Ok(self)
    }

    /// This node's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cluster size (leader slot included).
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// The newest term this node has adopted.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Who this node believes leads [`ClusterNode::term`].
    pub fn leader_id(&self) -> u64 {
        self.leader
    }

    /// Whether this node currently leads.
    pub fn is_leader(&self) -> bool {
        self.lead.is_some()
    }

    /// The leader core, while leading.
    pub fn lead(&self) -> Option<&LeaderCore> {
        self.lead.as_ref()
    }

    /// Mutable leader core, while leading.
    pub fn lead_mut(&mut self) -> Option<&mut LeaderCore> {
        self.lead.as_mut()
    }

    /// Every other node's id, ascending — the claim/heartbeat fan-out.
    pub fn peer_ids(&self) -> Vec<u64> {
        (0..self.nodes).filter(|&n| n != self.id).collect()
    }

    /// Rows applied to the primary holding this node answers for
    /// (0 when it holds no primary) — the replica `Status` arrivals.
    pub fn arrivals(&self) -> u64 {
        self.holdings
            .values()
            .find(|h| h.primary)
            .map_or(0, |h| h.rep.arrivals())
    }

    /// The answers digest of this node's holding of `shard`, if any —
    /// the oracle-comparison hook the failover tests use.
    pub fn holding_digest(&self, shard: usize) -> Option<u64> {
        self.holdings.get(&shard).map(|h| h.rep.answers_digest())
    }

    /// Force every durable holding's WAL + checkpoint to disk (the
    /// graceful-shutdown drain).
    ///
    /// # Errors
    ///
    /// The first [`swat_store::StoreError`] any holding reports.
    pub fn checkpoint(&mut self) -> Result<(), swat_store::StoreError> {
        for h in self.holdings.values_mut() {
            h.rep.checkpoint()?;
        }
        Ok(())
    }

    /// Aggregate durable-store health across this node's holdings:
    /// degraded as soon as any holding has parked flush generations,
    /// with the parked counts summed.
    pub fn store_health(&self) -> crate::proto::WireStoreHealth {
        let mut parked: u32 = 0;
        let mut degraded = false;
        for h in self.holdings.values() {
            if let crate::proto::WireStoreHealth::Degraded { parked: p } = h.rep.store_health() {
                // A broken WAL reports degraded with zero parked
                // generations, so the flag is tracked separately.
                degraded = true;
                parked = parked.saturating_add(p);
            }
        }
        if degraded {
            crate::proto::WireStoreHealth::Degraded { parked }
        } else {
            crate::proto::WireStoreHealth::Healthy
        }
    }

    /// Persist the current term/leader/epochs, when durably backed.
    fn persist_meta(&self) -> Result<(), swat_store::StoreError> {
        let Some(dir) = &self.meta_dir else {
            return Ok(());
        };
        let meta = NodeMeta {
            term: self.term,
            leader: self.leader,
            epochs: self
                .holdings
                .iter()
                .map(|(&s, h)| (s as u32, h.epoch))
                .collect(),
        };
        meta.save(dir)
    }

    /// Adopt `(term, leader)` — durably, before acting on it. Newer
    /// terms depose a local leader core. No-op when not newer.
    fn adopt(&mut self, term: u64, leader: u64) -> Result<(), swat_store::StoreError> {
        if term <= self.term {
            return Ok(());
        }
        let (old_term, old_leader) = (self.term, self.leader);
        self.term = term;
        self.leader = leader;
        if let Err(e) = self.persist_meta() {
            // Never act on an unpersisted term: roll back.
            self.term = old_term;
            self.leader = old_leader;
            return Err(e);
        }
        self.lead = None;
        self.pending_promote.clear();
        self.installing = None;
        Ok(())
    }

    /// A fan-out reported [`Response::StaleTermR`]: someone leads a
    /// newer term. Adopt it and (if leading) step down. The driver calls
    /// this with the output of [`crate::cluster::stale_term_in`].
    pub fn observe_stale_term(&mut self, term: u64, leader: u64) {
        // A forged pair (leader not entitled to the term) is ignored.
        if term_owner(self.nodes, term) == leader {
            let _ = self.adopt(term, leader);
        }
    }

    /// Term gate for intra-cluster traffic: reject older terms, adopt
    /// newer ones (durably) first. `leader` is the sender's claim; it
    /// must match the term's residue owner or the message is forged.
    fn fence_term(&mut self, term: u64, leader: u64) -> Result<(), Response> {
        let stale = || Response::StaleTermR {
            term: self.term,
            leader: self.leader,
        };
        if term < self.term || leader != term_owner(self.nodes, term) {
            return Err(stale());
        }
        if term == self.term && leader != self.leader && term > 0 {
            // Same term, different leader can only be a forgery —
            // residues make the owner unique. (Term 0 bootstraps with
            // leader 0 everywhere, so the check is vacuous there.)
            return Err(stale());
        }
        self.adopt(term, leader).map_err(|_| Response::ErrorR {
            code: ErrorCode::Internal,
        })
    }

    /// Epoch gate for shard traffic, after the term gate.
    fn fence_epoch(&self, shard: usize, epoch: u64) -> Result<(), Response> {
        let held = self
            .holdings
            .get(&shard)
            .map(|h| h.epoch)
            .ok_or(Response::ErrorR {
                code: ErrorCode::WrongRole,
            })?;
        if epoch != held {
            return Err(Response::StaleEpochR {
                shard: shard as u32,
                epoch: held,
            });
        }
        Ok(())
    }

    /// This node's holdings as wire records (the `SyncR` payload).
    fn wire_holdings(&self) -> Vec<WireHolding> {
        self.holdings
            .iter()
            .map(|(&shard, h)| WireHolding {
                shard: shard as u32,
                epoch: h.epoch,
                primary: h.primary,
                arrivals: h.rep.arrivals(),
            })
            .collect()
    }

    /// Serve one request locally. Client data requests while this node
    /// is *not* leading answer [`Response::NotLeaderR`] with the best
    /// known hint; while leading, the driver routes them through the
    /// [`LeaderCore`] fan instead of this method.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req {
            Request::Hello { .. } => Response::HelloOk { node: self.id },
            Request::Ping { nonce } => Response::Pong { nonce: *nonce },
            Request::Status => Response::StatusR {
                node: self.id,
                term: self.term,
                leader: self.leader,
                arrivals: self.arrivals(),
                replicas: self
                    .lead
                    .as_ref()
                    .map_or_else(Vec::new, |l| l.registry().statuses()),
                store: self.store_health(),
            },
            // The server intercepts Shutdown to drain; answering here
            // keeps the machine total.
            Request::Shutdown => Response::ShutdownOk { drained: 0 },
            Request::Fenced {
                term,
                leader,
                shard,
                epoch,
                inner,
            } => {
                if let Err(r) = self.fence_term(*term, *leader) {
                    return r;
                }
                if *shard == NO_SHARD {
                    // Node-level traffic (heartbeats): term-fenced only.
                    return self.handle(inner);
                }
                let shard = *shard as usize;
                if let Err(r) = self.fence_epoch(shard, *epoch) {
                    return r;
                }
                // invariant: fence_epoch verified the holding exists.
                let h = self.holdings.get_mut(&shard).expect("holding checked");
                if !h.primary {
                    // Shard traffic belongs on the primary; a leader
                    // addressing a standby has a stale assignment.
                    return Response::ErrorR {
                        code: ErrorCode::WrongRole,
                    };
                }
                h.rep.handle(inner)
            }
            Request::NewTerm { term, leader } => {
                if *term <= self.term || *leader != term_owner(self.nodes, *term) {
                    return Response::StaleTermR {
                        term: self.term,
                        leader: self.leader,
                    };
                }
                match self.adopt(*term, *leader) {
                    Ok(()) => Response::SyncR {
                        term: self.term,
                        holdings: self.wire_holdings(),
                    },
                    Err(_) => Response::ErrorR {
                        code: ErrorCode::Internal,
                    },
                }
            }
            Request::Replicate {
                term,
                shard,
                epoch,
                req_id,
                row,
            } => {
                if let Err(r) = self.fence_term(*term, term_owner(self.nodes, *term)) {
                    return r;
                }
                let shard = *shard as usize;
                if let Err(r) = self.fence_epoch(shard, *epoch) {
                    return r;
                }
                // invariant: fence_epoch verified the holding exists.
                let h = self.holdings.get_mut(&shard).expect("holding checked");
                if h.primary {
                    // Replication lands on standbys only.
                    return Response::ErrorR {
                        code: ErrorCode::WrongRole,
                    };
                }
                h.rep.handle(&Request::Ingest {
                    req_id: *req_id,
                    row: row.clone(),
                })
            }
            Request::FetchShard { term, shard } => {
                if let Err(r) = self.fence_term(*term, term_owner(self.nodes, *term)) {
                    return r;
                }
                match self.holdings.get_mut(&(*shard as usize)) {
                    Some(h) if h.primary => {
                        let (arrivals, applied, snapshot) = h.rep.export();
                        Response::ShardStateR {
                            shard: *shard,
                            epoch: h.epoch,
                            arrivals,
                            applied,
                            snapshot,
                        }
                    }
                    _ => Response::ErrorR {
                        code: ErrorCode::WrongRole,
                    },
                }
            }
            Request::InstallShard {
                term,
                shard,
                epoch,
                arrivals,
                applied,
                snapshot,
            } => {
                if let Err(r) = self.fence_term(*term, term_owner(self.nodes, *term)) {
                    return r;
                }
                let shard_ix = *shard as usize;
                if shard_ix >= self.shards {
                    return Response::ErrorR {
                        code: ErrorCode::BadRequest,
                    };
                }
                match crate::replica::ReplicaNode::install(
                    self.id,
                    self.streams,
                    self.shards,
                    shard_ix,
                    *arrivals,
                    applied.clone(),
                    snapshot,
                ) {
                    Ok(rep) => {
                        // Overwrites any stale holding: the installed
                        // copy *is* the node's state for this shard now.
                        self.holdings.insert(
                            shard_ix,
                            Holding {
                                rep,
                                epoch: *epoch,
                                primary: false,
                            },
                        );
                        match self.persist_meta() {
                            Ok(()) => Response::EpochAck {
                                shard: *shard,
                                epoch: *epoch,
                            },
                            Err(_) => Response::ErrorR {
                                code: ErrorCode::Internal,
                            },
                        }
                    }
                    Err(_) => Response::ErrorR {
                        code: ErrorCode::BadRequest,
                    },
                }
            }
            Request::Promote { term, shard, epoch } => {
                if let Err(r) = self.fence_term(*term, term_owner(self.nodes, *term)) {
                    return r;
                }
                let shard_ix = *shard as usize;
                let Some(h) = self.holdings.get_mut(&shard_ix) else {
                    // Nothing to promote: the holder lost the shard
                    // (e.g. restarted without durability). The leader
                    // escalates to the standby on seeing this.
                    return Response::ErrorR {
                        code: ErrorCode::WrongRole,
                    };
                };
                if *epoch < h.epoch {
                    return Response::StaleEpochR {
                        shard: *shard,
                        epoch: h.epoch,
                    };
                }
                h.epoch = *epoch;
                h.primary = true;
                match self.persist_meta() {
                    Ok(()) => Response::EpochAck {
                        shard: *shard,
                        epoch: *epoch,
                    },
                    Err(_) => Response::ErrorR {
                        code: ErrorCode::Internal,
                    },
                }
            }
            // Client data requests: only the leader routes them.
            Request::Ingest { .. }
            | Request::Point { .. }
            | Request::Range { .. }
            | Request::TopK { .. } => Response::NotLeaderR {
                leader: self.leader,
                term: self.term,
            },
            // Shard-internal requests must arrive fenced.
            Request::LocalTopK { .. } | Request::TopKScan { .. } => Response::ErrorR {
                code: ErrorCode::WrongRole,
            },
        }
    }

    // ------------------------------------------------------------------
    // Elections
    // ------------------------------------------------------------------

    /// Claim leadership: durably adopt the next term in this node's
    /// residue class and return the claim to fan out to every peer. The
    /// node is *not* leading yet — [`ClusterNode::finish_claim`] builds
    /// the core from the peers' sync replies.
    ///
    /// # Errors
    ///
    /// The meta write failed; the claim must not proceed (an unpersisted
    /// term could regress across a restart and break monotonicity).
    pub fn begin_claim(&mut self) -> Result<Request, swat_store::StoreError> {
        let term = next_term(self.nodes, self.term, self.id);
        let (old_term, old_leader) = (self.term, self.leader);
        self.term = term;
        self.leader = self.id;
        if let Err(e) = self.persist_meta() {
            self.term = old_term;
            self.leader = old_leader;
            return Err(e);
        }
        self.lead = None;
        self.pending_promote.clear();
        self.installing = None;
        Ok(Request::NewTerm {
            term,
            leader: self.id,
        })
    }

    /// Complete a claim from the peers' replies (`reports[i]` answers
    /// the claim sent to peer `reports[i].0`; `None` = unreachable).
    /// Rebuilds the assignment from every reported holding — highest
    /// epoch wins; a shard whose newest holding is standby-only is
    /// promoted under a bumped epoch; a shard nobody reported goes
    /// unavailable — and returns the `Promote` calls that re-anchor
    /// every serving primary at its slot's epoch. Returns `None` (no
    /// calls, not leading) when a newer term was observed instead: the
    /// claim lost and the node has already adopted the winner.
    pub fn finish_claim(
        &mut self,
        now: u64,
        reports: &[(u64, Option<Response>)],
    ) -> Option<Vec<PeerCall>> {
        // The claim is already dead if some newer term was adopted
        // between begin_claim and now (e.g. the winner's NewTerm was
        // handled on this node): leading a term we no longer own would
        // be split-brain.
        if self.leader != self.id || term_owner(self.nodes, self.term) != self.id {
            return None;
        }
        // A newer claim beats ours: adopt it and bow out.
        if let Some((term, leader)) = reports
            .iter()
            .filter_map(|(_, r)| match r {
                Some(Response::StaleTermR { term, leader }) if *term > self.term => {
                    Some((*term, *leader))
                }
                _ => None,
            })
            .max()
        {
            self.observe_stale_term(term, leader);
            return None;
        }
        let mut registry = ReplicaRegistry::tracking(self.peer_ids(), self.miss_threshold);
        // (node, holding) candidates, own holdings included.
        let mut candidates: Vec<(u64, WireHolding)> = self
            .wire_holdings()
            .into_iter()
            .map(|h| (self.id, h))
            .collect();
        for (peer, report) in reports {
            match report {
                Some(Response::SyncR { term, holdings }) if *term == self.term => {
                    for &h in holdings {
                        candidates.push((*peer, h));
                    }
                }
                _ => {
                    // No sync, no vote of life: dead until it rejoins.
                    registry.record_dead(now, *peer);
                }
            }
        }
        let mut slots = Vec::with_capacity(self.shards);
        let mut promoted: Vec<(usize, u64)> = Vec::new();
        for shard in 0..self.shards {
            let of_shard: Vec<&(u64, WireHolding)> = candidates
                .iter()
                .filter(|(_, h)| h.shard as usize == shard)
                .collect();
            let emax = of_shard.iter().map(|(_, h)| h.epoch).max();
            let slot = match emax {
                None => ShardSlot {
                    // Total loss: unavailable under a fresh epoch so any
                    // straggler holding stays fenced out.
                    epoch: 1,
                    primary: None,
                    standby: None,
                },
                Some(emax) => {
                    let at = |primary: bool| {
                        of_shard
                            .iter()
                            .filter(|(_, h)| h.epoch == emax && h.primary == primary)
                            .map(|(n, _)| *n)
                            .min()
                    };
                    match (at(true), at(false)) {
                        (Some(p), standby) => ShardSlot {
                            epoch: emax,
                            primary: Some(p),
                            standby,
                        },
                        (None, Some(s)) => {
                            promoted.push((shard, s));
                            ShardSlot {
                                epoch: emax + 1,
                                primary: Some(s),
                                standby: None,
                            }
                        }
                        (None, None) => ShardSlot {
                            epoch: emax + 1,
                            primary: None,
                            standby: None,
                        },
                    }
                }
            };
            slots.push(slot);
        }
        for &(_, node) in &promoted {
            if registry.tracks(node) {
                registry.note_role_change(now, node, NodeRole::Primary);
            }
        }
        // A conservative fully-acked floor for Status reporting: no
        // primary can have fewer rows than the acked prefix.
        let complete_rows = slots
            .iter()
            .filter_map(|s| s.primary)
            .map(|p| {
                candidates
                    .iter()
                    .filter(|(n, h)| *n == p && h.primary)
                    .map(|(_, h)| h.arrivals)
                    .max()
                    .unwrap_or(0)
            })
            .min()
            .unwrap_or(0);
        let assignment = Assignment::from_slots(slots);
        let calls: Vec<PeerCall> = assignment
            .iter()
            .filter_map(|(shard, slot)| {
                slot.primary.map(|node| PeerCall {
                    node,
                    shard,
                    standby_leg: false,
                    request: Request::Promote {
                        term: self.term,
                        shard: shard as u32,
                        epoch: slot.epoch,
                    },
                })
            })
            .collect();
        self.pending_promote = calls.iter().map(|c| c.shard).collect();
        self.lead = Some(LeaderCore::rebuilt(
            self.id,
            self.term,
            self.streams,
            self.shards,
            registry,
            assignment,
            complete_rows,
        ));
        Some(calls)
    }

    // ------------------------------------------------------------------
    // Repair (leader only)
    // ------------------------------------------------------------------

    /// One repair pass: promote standbys around dead/faulty primaries,
    /// drop dead/faulty standbys, and re-send `Promote` to any primary
    /// whose epoch adoption is still unacknowledged. Call after the
    /// heartbeat round has updated the registry; deliver the returned
    /// calls and feed the results to [`ClusterNode::finish_repair`].
    /// Empty when not leading.
    pub fn repair_plan(&mut self, now: u64) -> Vec<PeerCall> {
        let Some(lead) = self.lead.as_mut() else {
            return Vec::new();
        };
        let self_id = self.id;
        let installing_shard = self.installing.map(|(s, _, _)| s);
        let dead = |lead: &LeaderCore, n: u64| {
            n != self_id
                && lead.registry().tracks(n)
                && lead.registry().health(n) == crate::proto::WireHealth::Dead
        };
        let primary_faults = lead.take_primary_faults();
        let standby_faults = lead.take_standby_faults();
        for shard in 0..lead.map().shards() {
            let slot = lead.assignment().slot(shard);
            // Dead or repeatedly faulty primary: fail over to the
            // standby (or go explicitly unavailable).
            let p_dead = slot.primary.is_some_and(|p| dead(lead, p));
            if p_dead {
                let standby_usable = slot.standby.is_some_and(|s| s == self_id || !dead(lead, s));
                if !standby_usable && slot.standby.is_some() {
                    lead.assignment_mut().drop_standby(shard);
                }
                let promoted = lead.assignment_mut().promote_standby(shard);
                self.pending_promote.insert(shard);
                if let Some(new_slot) = promoted {
                    if let Some(p) = new_slot.primary {
                        if lead.registry().tracks(p) {
                            lead.registry_mut()
                                .note_role_change(now, p, NodeRole::Primary);
                        }
                    }
                }
                if self.installing.map(|(s, _, _)| s) == Some(shard) {
                    self.installing = None;
                }
                continue;
            }
            // A live primary that answered with a typed error or a
            // stale epoch: re-anchor it with a fresh Promote.
            if primary_faults.contains(&shard) && slot.primary.is_some() {
                self.pending_promote.insert(shard);
            }
            // Dead or faulty standby: drop it so rows ack on the
            // primary alone — unless it is mid-installation, where
            // failing legs are expected until the copy lands.
            let s_dead = slot.standby.is_some_and(|s| dead(lead, s));
            let s_fault = standby_faults.contains(&shard) && installing_shard != Some(shard);
            if (s_dead || s_fault) && slot.standby.is_some() {
                lead.assignment_mut().drop_standby(shard);
                self.pending_promote.insert(shard);
                if self.installing.map(|(s, _, _)| s) == Some(shard) {
                    self.installing = None;
                }
            }
        }
        let term = self.term;
        self.pending_promote
            .iter()
            .filter_map(|&shard| {
                let slot = lead.assignment().slot(shard);
                slot.primary.map(|node| PeerCall {
                    node,
                    shard,
                    standby_leg: false,
                    request: Request::Promote {
                        term,
                        shard: shard as u32,
                        epoch: slot.epoch,
                    },
                })
            })
            .collect()
    }

    /// Absorb a repair round's results. A `Promote` that a primary
    /// refuses with a typed error escalates to standby promotion (the
    /// holder lost the shard); an unreachable target is a registry miss.
    pub fn finish_repair(&mut self, now: u64, calls: &[PeerCall], results: &[Option<Response>]) {
        debug_assert_eq!(calls.len(), results.len());
        let self_id = self.id;
        for (call, result) in calls.iter().zip(results) {
            let Some(lead) = self.lead.as_mut() else {
                return;
            };
            match result {
                Some(Response::EpochAck { shard, epoch }) => {
                    let shard = *shard as usize;
                    if lead.assignment().slot(shard).epoch == *epoch {
                        self.pending_promote.remove(&shard);
                    }
                    if call.node != self_id && lead.registry().tracks(call.node) {
                        lead.registry_mut().record_success(now, call.node);
                    }
                }
                Some(Response::StaleTermR { term, leader }) => {
                    let (term, leader) = (*term, *leader);
                    self.observe_stale_term(term, leader);
                }
                Some(_) => {
                    // The named primary cannot serve the shard (it lost
                    // the holding, or its epoch ran ahead under a
                    // leader we have since fenced out): fail over.
                    if lead.assignment().slot(call.shard).primary == Some(call.node) {
                        let promoted = lead.assignment_mut().promote_standby(call.shard);
                        self.pending_promote.insert(call.shard);
                        if let Some(slot) = promoted {
                            if let Some(p) = slot.primary {
                                if lead.registry().tracks(p) {
                                    lead.registry_mut()
                                        .note_role_change(now, p, NodeRole::Primary);
                                }
                            }
                        }
                    }
                }
                None => {
                    if call.node != self_id && lead.registry().tracks(call.node) {
                        lead.registry_mut().record_failure(now, call.node);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Rejoin: re-seeding a standby from the primary
    // ------------------------------------------------------------------

    /// If some shard lacks a standby and a live spare node could host
    /// one, start the installation: the standby is added to the
    /// assignment *first* (so no row can ack without it from here on),
    /// then the primary's state is fetched and shipped. Returns the
    /// `[Promote to primary, FetchShard to primary]` calls to deliver in
    /// order, results to [`ClusterNode::finish_fetch`]. At most one
    /// installation is in flight at a time.
    pub fn rejoin_plan(&mut self, now: u64) -> Option<Vec<PeerCall>> {
        if self.installing.is_some() {
            return None;
        }
        let self_id = self.id;
        let lead = self.lead.as_mut()?;
        let alive = |lead: &LeaderCore, n: u64| {
            n == self_id
                || (lead.registry().tracks(n)
                    && lead.registry().health(n) != crate::proto::WireHealth::Dead)
        };
        // Spares: live nodes holding no role in any slot.
        let spare = (0..self.nodes)
            .find(|&n| alive(lead, n) && lead.assignment().roles_of(n).is_empty())?;
        let shard = lead.assignment().iter().find_map(|(shard, slot)| {
            (slot.standby.is_none()
                && slot.primary.is_some_and(|p| p != spare && alive(lead, p))
                && !self.pending_promote.contains(&shard))
            .then_some(shard)
        })?;
        let slot = lead.assignment_mut().set_standby(shard, spare);
        if lead.registry().tracks(spare) {
            lead.registry_mut()
                .note_role_change(now, spare, NodeRole::Standby);
        }
        self.installing = Some((shard, spare, slot.epoch));
        // invariant: set_standby keeps the primary untouched.
        let primary = slot.primary.expect("primary chosen above");
        let term = self.term;
        Some(vec![
            PeerCall {
                node: primary,
                shard,
                standby_leg: false,
                request: Request::Promote {
                    term,
                    shard: shard as u32,
                    epoch: slot.epoch,
                },
            },
            PeerCall {
                node: primary,
                shard,
                standby_leg: false,
                request: Request::FetchShard {
                    term,
                    shard: shard as u32,
                },
            },
        ])
    }

    /// Absorb the fetch round: on a good export, returns the
    /// `InstallShard` call to ship to the standby-elect (results to
    /// [`ClusterNode::finish_install`]); on failure the installation is
    /// rolled back (standby dropped under a bumped epoch).
    pub fn finish_fetch(
        &mut self,
        now: u64,
        calls: &[PeerCall],
        results: &[Option<Response>],
    ) -> Option<PeerCall> {
        self.finish_repair(now, &calls[..1], &results[..1]);
        let (shard, target, epoch) = self.installing?;
        match results.get(1).and_then(|r| r.as_ref()) {
            Some(Response::ShardStateR {
                shard: s,
                arrivals,
                applied,
                snapshot,
                ..
            }) if *s as usize == shard => Some(PeerCall {
                node: target,
                shard,
                standby_leg: true,
                request: Request::InstallShard {
                    term: self.term,
                    shard: shard as u32,
                    epoch,
                    arrivals: *arrivals,
                    applied: applied.clone(),
                    snapshot: snapshot.clone(),
                },
            }),
            _ => {
                self.abort_install(now);
                None
            }
        }
    }

    /// Absorb the installation ack: on success the standby is live (all
    /// future rows require it); on failure the assignment rolls back.
    pub fn finish_install(&mut self, now: u64, result: Option<Response>) {
        let Some((shard, target, epoch)) = self.installing else {
            return;
        };
        match result {
            Some(Response::EpochAck { shard: s, epoch: e })
                if s as usize == shard && e == epoch =>
            {
                self.installing = None;
                if let Some(lead) = self.lead.as_mut() {
                    if lead.registry().tracks(target) {
                        lead.registry_mut().record_success(now, target);
                    }
                }
            }
            Some(Response::StaleTermR { term, leader }) => {
                self.observe_stale_term(term, leader);
            }
            _ => self.abort_install(now),
        }
    }

    fn abort_install(&mut self, _now: u64) {
        if let Some((shard, _, _)) = self.installing.take() {
            if let Some(lead) = self.lead.as_mut() {
                if lead.assignment().slot(shard).standby.is_some() {
                    lead.assignment_mut().drop_standby(shard);
                    self.pending_promote.insert(shard);
                }
            }
        }
    }

    /// The stream count (for drivers sizing rows).
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Global ids of the streams `shard` owns (driver convenience).
    pub fn shard_members_of(&self, shard: usize) -> Vec<usize> {
        shard_members(self.streams, self.shards, shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Plan;
    use crate::proto::WireHealth;

    fn cfg() -> SwatConfig {
        SwatConfig::with_coefficients(16, 4).unwrap()
    }

    /// Deliver `calls` to the in-memory nodes, self-routing included.
    fn deliver(nodes: &mut [ClusterNode], calls: &[PeerCall]) -> Vec<Option<Response>> {
        calls
            .iter()
            .map(|c| {
                nodes
                    .iter_mut()
                    .find(|n| n.id() == c.node)
                    .map(|n| n.handle(&c.request))
            })
            .collect()
    }

    fn three_node_ring() -> Vec<ClusterNode> {
        vec![
            ClusterNode::bootstrap_leader(cfg(), 8, 2, 2, true),
            ClusterNode::replica(1, cfg(), 8, 2, 2, true),
            ClusterNode::replica(2, cfg(), 8, 2, 2, true),
        ]
    }

    /// Run one client request through the leader at `nodes[leader]`.
    fn run(nodes: &mut [ClusterNode], leader: usize, req: &Request) -> Response {
        let plan = nodes[leader].lead().expect("leading").plan(req);
        match plan {
            Plan::Done(r) => r,
            Plan::Fan(calls) => {
                let results = deliver_skip(nodes, leader, &calls);
                let lead = nodes[leader].lead_mut().unwrap();
                match req {
                    Request::Ingest { req_id, .. } => lead.finish_ingest(*req_id, &calls, &results),
                    Request::Point { .. } | Request::Range { .. } => {
                        lead.finish_routed(&calls[0], results.into_iter().next().flatten())
                    }
                    Request::TopK { k } => {
                        let (_, refines) = lead.plan_topk_round2(*k, &calls, &results);
                        let scan_results = deliver_skip(nodes, leader, &refines);
                        let shards: Vec<(usize, Option<Response>)> =
                            refines.iter().map(|c| c.shard).zip(scan_results).collect();
                        nodes[leader]
                            .lead_mut()
                            .unwrap()
                            .finish_topk(*k, &calls, &results, &shards)
                    }
                    other => panic!("no fan merge for {other:?}"),
                }
            }
        }
    }

    /// Deliver, but route self-calls through the leader node too.
    fn deliver_skip(
        nodes: &mut [ClusterNode],
        _leader: usize,
        calls: &[PeerCall],
    ) -> Vec<Option<Response>> {
        deliver(nodes, calls)
    }

    #[test]
    fn ring_bootstrap_gives_replicas_two_holdings() {
        let n1 = ClusterNode::replica(1, cfg(), 8, 2, 2, true);
        assert!(n1.holdings.get(&0).is_some_and(|h| h.primary));
        assert!(n1.holdings.get(&1).is_some_and(|h| !h.primary));
        let n2 = ClusterNode::replica(2, cfg(), 8, 2, 2, true);
        assert!(n2.holdings.get(&1).is_some_and(|h| h.primary));
        assert!(n2.holdings.get(&0).is_some_and(|h| !h.primary));
        // Without standbys: the PR 7 single holding.
        let solo = ClusterNode::replica(1, cfg(), 8, 2, 2, false);
        assert_eq!(solo.holdings.len(), 1);
    }

    #[test]
    fn stale_terms_are_fenced_and_newer_terms_adopted() {
        let mut n = ClusterNode::replica(1, cfg(), 8, 2, 2, true);
        // Term 3 in a 3-node cluster belongs to node 0.
        let fenced_ping = Request::Fenced {
            term: 3,
            leader: 0,
            shard: NO_SHARD,
            epoch: 0,
            inner: Box::new(Request::Ping { nonce: 7 }),
        };
        assert_eq!(n.handle(&fenced_ping), Response::Pong { nonce: 7 });
        assert_eq!((n.term(), n.leader_id()), (3, 0));
        // A deposed term-0 leader is rejected.
        let stale = Request::Fenced {
            term: 0,
            leader: 0,
            shard: NO_SHARD,
            epoch: 0,
            inner: Box::new(Request::Ping { nonce: 1 }),
        };
        assert_eq!(
            n.handle(&stale),
            Response::StaleTermR { term: 3, leader: 0 }
        );
        // A forged claim (node 2 cannot own term 6 ≡ 0 mod 3) is fenced.
        let forged = Request::Fenced {
            term: 6,
            leader: 2,
            shard: NO_SHARD,
            epoch: 0,
            inner: Box::new(Request::Ping { nonce: 2 }),
        };
        assert_eq!(
            n.handle(&forged),
            Response::StaleTermR { term: 3, leader: 0 }
        );
        assert_eq!(n.term(), 3, "forgery must not advance the term");
    }

    #[test]
    fn new_term_claims_sync_holdings() {
        let mut n = ClusterNode::replica(2, cfg(), 8, 2, 2, true);
        // Node 1 claims term 1 (1 ≡ 1 mod 3).
        match n.handle(&Request::NewTerm { term: 1, leader: 1 }) {
            Response::SyncR { term, holdings } => {
                assert_eq!(term, 1);
                assert_eq!(holdings.len(), 2);
                assert!(holdings
                    .iter()
                    .any(|h| h.shard == 1 && h.primary && h.epoch == 0));
                assert!(holdings.iter().any(|h| h.shard == 0 && !h.primary));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Re-claiming the same term is stale.
        assert_eq!(
            n.handle(&Request::NewTerm { term: 1, leader: 1 }),
            Response::StaleTermR { term: 1, leader: 1 }
        );
    }

    #[test]
    fn replicate_lands_on_standbys_only_and_dedups() {
        let mut n = ClusterNode::replica(1, cfg(), 8, 2, 2, true);
        let width = n.shard_members_of(1).len();
        let rep = Request::Replicate {
            term: 0,
            shard: 1,
            epoch: 0,
            req_id: 5,
            row: vec![1.0; width],
        };
        assert!(matches!(
            n.handle(&rep),
            Response::IngestOk {
                duplicate: false,
                ..
            }
        ));
        assert!(matches!(
            n.handle(&rep),
            Response::IngestOk {
                duplicate: true,
                ..
            }
        ));
        // Wrong epoch: fenced with the holding's current epoch.
        let stale = Request::Replicate {
            term: 0,
            shard: 1,
            epoch: 9,
            req_id: 6,
            row: vec![1.0; width],
        };
        assert_eq!(
            n.handle(&stale),
            Response::StaleEpochR { shard: 1, epoch: 0 }
        );
        // Replicating at the primary holding is a role error.
        let wrong = Request::Replicate {
            term: 0,
            shard: 0,
            epoch: 0,
            req_id: 7,
            row: vec![1.0; n.shard_members_of(0).len()],
        };
        assert_eq!(
            n.handle(&wrong),
            Response::ErrorR {
                code: ErrorCode::WrongRole
            }
        );
    }

    #[test]
    fn fetch_install_promote_moves_a_shard_copy() {
        let mut holder = ClusterNode::replica(1, cfg(), 8, 2, 2, false);
        let width = holder.shard_members_of(0).len();
        for r in 0..10u64 {
            let row: Vec<f64> = (0..width).map(|i| (r as f64) + i as f64).collect();
            holder.handle(&Request::Fenced {
                term: 0,
                leader: 0,
                shard: 0,
                epoch: 0,
                inner: Box::new(Request::Ingest { req_id: r, row }),
            });
        }
        let digest = holder.holding_digest(0).unwrap();
        let state = holder.handle(&Request::FetchShard { term: 0, shard: 0 });
        let (arrivals, applied, snapshot) = match state {
            Response::ShardStateR {
                arrivals,
                applied,
                snapshot,
                ..
            } => (arrivals, applied, snapshot),
            other => panic!("unexpected {other:?}"),
        };
        let mut joiner = ClusterNode::replica(2, cfg(), 8, 2, 2, false);
        assert_eq!(
            joiner.handle(&Request::InstallShard {
                term: 0,
                shard: 0,
                epoch: 4,
                arrivals,
                applied,
                snapshot,
            }),
            Response::EpochAck { shard: 0, epoch: 4 }
        );
        assert_eq!(joiner.holding_digest(0), Some(digest));
        // Installed as standby: fenced primary traffic is refused…
        assert_eq!(
            joiner.handle(&Request::Fenced {
                term: 0,
                leader: 0,
                shard: 0,
                epoch: 4,
                inner: Box::new(Request::Point {
                    stream: joiner.shard_members_of(0)[0] as u64,
                    index: 0
                }),
            }),
            Response::ErrorR {
                code: ErrorCode::WrongRole
            }
        );
        // …until promoted.
        assert_eq!(
            joiner.handle(&Request::Promote {
                term: 0,
                shard: 0,
                epoch: 5
            }),
            Response::EpochAck { shard: 0, epoch: 5 }
        );
        assert!(matches!(
            joiner.handle(&Request::Fenced {
                term: 0,
                leader: 0,
                shard: 0,
                epoch: 5,
                inner: Box::new(Request::Point {
                    stream: joiner.shard_members_of(0)[0] as u64,
                    index: 0
                }),
            }),
            Response::PointR { .. }
        ));
        // A truncated snapshot is a typed error, not a panic.
        assert_eq!(
            ClusterNode::replica(2, cfg(), 8, 2, 2, false).handle(&Request::InstallShard {
                term: 0,
                shard: 0,
                epoch: 1,
                arrivals: 1,
                applied: vec![0],
                snapshot: vec![0xFF; 3],
            }),
            Response::ErrorR {
                code: ErrorCode::BadRequest
            }
        );
    }

    #[test]
    fn ring_cluster_ingests_and_queries_through_fences() {
        let mut nodes = three_node_ring();
        for r in 0..20u64 {
            let row: Vec<f64> = (0..8).map(|i| ((r * 3 + i) % 7) as f64).collect();
            let resp = run(&mut nodes, 0, &Request::Ingest { req_id: r, row });
            assert_eq!(
                resp,
                Response::IngestOk {
                    req_id: r,
                    duplicate: false,
                    failed_shards: vec![]
                }
            );
        }
        // Primary and standby copies of each shard are identical.
        for shard in 0..2 {
            let d: Vec<u64> = nodes[1..]
                .iter()
                .filter_map(|n| n.holding_digest(shard))
                .collect();
            assert_eq!(d.len(), 2);
            assert_eq!(d[0], d[1], "shard {shard} copies diverged");
        }
        assert!(matches!(
            run(
                &mut nodes,
                0,
                &Request::Point {
                    stream: 3,
                    index: 2
                }
            ),
            Response::PointR { .. }
        ));
        match run(&mut nodes, 0, &Request::TopK { k: 4 }) {
            Response::TopKR { complete, entries } => {
                assert!(complete);
                assert!(!entries.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn election_rebuilds_the_assignment_and_promotes() {
        let mut nodes = three_node_ring();
        for r in 0..12u64 {
            let row: Vec<f64> = (0..8).map(|i| ((r + i) % 5) as f64).collect();
            run(&mut nodes, 0, &Request::Ingest { req_id: r, row });
        }
        // The leader dies; node 1 claims the next term in its class.
        let claim = nodes[1].begin_claim().unwrap();
        assert_eq!(claim, Request::NewTerm { term: 1, leader: 1 });
        // Node 0 is gone: only node 2 answers.
        let r2 = nodes[2].handle(&claim);
        let reports = vec![(0, None), (2, Some(r2))];
        let calls = nodes[1].finish_claim(7, &reports).expect("claim stands");
        assert!(nodes[1].is_leader());
        let lead = nodes[1].lead().unwrap();
        // Bootstrap ring survives intact: primaries kept at epoch 0.
        assert_eq!(lead.assignment().slot(0).primary, Some(1));
        assert_eq!(lead.assignment().slot(1).primary, Some(2));
        assert_eq!(lead.registry().health(0), WireHealth::Dead);
        // Deliver the re-anchoring promotes (self-routing included).
        let results = deliver(&mut nodes, &calls);
        let calls2 = calls.clone();
        nodes[1].finish_repair(8, &calls2, &results);
        // The cluster serves again under term 1.
        for r in 12..20u64 {
            let row: Vec<f64> = (0..8).map(|i| ((r + i) % 5) as f64).collect();
            let resp = run(&mut nodes, 1, &Request::Ingest { req_id: r, row });
            assert_eq!(
                resp,
                Response::IngestOk {
                    req_id: r,
                    duplicate: false,
                    failed_shards: vec![]
                }
            );
        }
        // The deposed leader's term-0 traffic is fenced out everywhere.
        assert_eq!(
            nodes[2].handle(&Request::Fenced {
                term: 0,
                leader: 0,
                shard: NO_SHARD,
                epoch: 0,
                inner: Box::new(Request::Ping { nonce: 0 }),
            }),
            Response::StaleTermR { term: 1, leader: 1 }
        );
    }

    #[test]
    fn losing_claims_adopt_the_winner() {
        let mut nodes = three_node_ring();
        // Node 2 claims term 2 first…
        let claim2 = nodes[2].begin_claim().unwrap();
        let _ = nodes[1].handle(&claim2);
        // …then node 1 tries term 1 < 2 after hearing the claim: its own
        // begin_claim already moves past term 2 (next in residue class).
        let claim1 = nodes[1].begin_claim().unwrap();
        assert_eq!(claim1, Request::NewTerm { term: 4, leader: 1 });
        // Simulate instead a claim that loses: node 2 re-claims and is
        // told about term 4.
        let claim2b = nodes[2].begin_claim().unwrap();
        assert_eq!(claim2b, Request::NewTerm { term: 5, leader: 2 });
        let r1 = nodes[1].handle(&claim2b);
        let reports = vec![(0, None), (1, Some(r1))];
        assert!(nodes[2].finish_claim(9, &reports).is_some());
        // Now node 1 hears a stale answer and bows out of its term 4.
        let stale = Response::StaleTermR { term: 5, leader: 2 };
        assert!(nodes[1]
            .finish_claim(10, &[(0, None), (2, Some(stale))])
            .is_none());
        assert!(!nodes[1].is_leader());
        assert_eq!((nodes[1].term(), nodes[1].leader_id()), (5, 2));
    }

    #[test]
    fn repair_promotes_standby_when_primary_dies() {
        let mut nodes = three_node_ring();
        for r in 0..10u64 {
            let row: Vec<f64> = (0..8).map(|i| ((r * 2 + i) % 9) as f64).collect();
            run(&mut nodes, 0, &Request::Ingest { req_id: r, row });
        }
        // Node 1 (primary of shard 0, standby of shard 1) dies: the
        // leader's registry learns via heartbeat misses.
        {
            let lead = nodes[0].lead_mut().unwrap();
            for t in 0..2 {
                lead.registry_mut().record_failure(t, 1);
            }
        }
        let calls = nodes[0].repair_plan(5);
        // Shard 0 fails over to node 2; shard 1 drops its dead standby.
        let lead = nodes[0].lead().unwrap();
        assert_eq!(lead.assignment().slot(0).primary, Some(2));
        assert_eq!(lead.assignment().slot(0).standby, None);
        assert_eq!(lead.assignment().slot(1).standby, None);
        assert!(lead.assignment().slot(0).epoch > 0);
        let results = deliver(&mut nodes, &calls);
        let calls2 = calls.clone();
        nodes[0].finish_repair(6, &calls2, &results);
        assert!(nodes[0].pending_promote.is_empty(), "all promotes acked");
        // Acked rows survive: node 2's promoted copy answers queries.
        for r in 10..14u64 {
            let row: Vec<f64> = (0..8).map(|i| ((r * 2 + i) % 9) as f64).collect();
            let resp = run(&mut nodes, 0, &Request::Ingest { req_id: r, row });
            assert_eq!(
                resp,
                Response::IngestOk {
                    req_id: r,
                    duplicate: false,
                    failed_shards: vec![]
                }
            );
        }
    }

    #[test]
    fn rejoin_reseeds_a_standby_from_the_primary() {
        let mut nodes = three_node_ring();
        for r in 0..8u64 {
            let row: Vec<f64> = (0..8).map(|i| ((r + 2 * i) % 6) as f64).collect();
            run(&mut nodes, 0, &Request::Ingest { req_id: r, row });
        }
        // Shard 0's standby (node 2) is dropped (say it faulted)…
        nodes[0]
            .lead_mut()
            .unwrap()
            .assignment_mut()
            .drop_standby(0);
        // …re-anchor the primary at the bumped epoch first.
        nodes[0].pending_promote.insert(0);
        let calls = nodes[0].repair_plan(3);
        let results = deliver(&mut nodes, &calls);
        let calls2 = calls.clone();
        nodes[0].finish_repair(3, &calls2, &results);
        assert!(nodes[0].pending_promote.is_empty());
        // The leader itself holds no shard role, so it is the spare that
        // picks up shard 0's standby duty.
        let calls = nodes[0].rejoin_plan(4).expect("a spare exists");
        assert_eq!(calls.len(), 2, "promote + fetch to the primary");
        assert!(calls.iter().all(|c| c.node == 1));
        let results = deliver(&mut nodes, &calls);
        let calls2 = calls.clone();
        let install = nodes[0]
            .finish_fetch(5, &calls2, &results)
            .expect("export succeeded");
        assert_eq!(install.node, 0, "ships to the spare (the leader)");
        let result = deliver(&mut nodes, std::slice::from_ref(&install))
            .into_iter()
            .next()
            .flatten();
        nodes[0].finish_install(6, result);
        assert!(nodes[0].installing.is_none(), "installation completed");
        let slot = nodes[0].lead().unwrap().assignment().slot(0);
        assert_eq!(slot.standby, Some(0));
        // The re-seeded copy is bit-identical to the primary…
        assert_eq!(nodes[0].holding_digest(0), nodes[1].holding_digest(0));
        // …and future rows require it: ingest keeps both in lockstep.
        for r in 8..12u64 {
            let row: Vec<f64> = (0..8).map(|i| ((r + 2 * i) % 6) as f64).collect();
            let resp = run(&mut nodes, 0, &Request::Ingest { req_id: r, row });
            assert!(matches!(
                resp,
                Response::IngestOk { ref failed_shards, .. } if failed_shards.is_empty()
            ));
        }
        assert_eq!(nodes[0].holding_digest(0), nodes[1].holding_digest(0));
    }
}
