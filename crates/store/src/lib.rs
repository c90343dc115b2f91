//! # SWAT durability layer
//!
//! Crash consistency for SWAT summaries. A network node that holds the
//! only full-resolution summary of its local streams (the paper's §3
//! deployment) cannot afford to lose it to a process crash: rebuilding
//! from peers costs the very network messages the hierarchy exists to
//! avoid. This crate makes a node's [`StreamSet`](swat_tree::StreamSet)
//! durable with a tiered, LSM-flavoured design, engineered so that
//! **arbitrary storage corruption degrades recovery, never correctness**
//! and **no caller ever blocks on an `fsync`**:
//!
//! * [`store::DurableStore`] — the live object: every arrival row is a
//!   checksummed WAL record plus an in-memory tree update, applied in
//!   blocks through the blocked ingest kernel; at every
//!   `freeze_rows` boundary the accumulated rows freeze and a background
//!   thread serializes them into an immutable, bloom-guarded
//!   [`segment`] with an embedded snapshot, committing via the
//!   [`manifest`] and only then pruning the covered WAL prefix.
//! * [`compaction`] — background k-way merge of adjacent segments of one
//!   size tier, with the manifest rename as the single commit point; a
//!   crash at any step leaves only reclaimable orphans, never lost rows.
//! * [`recovery::RecoveryManager`] — rebuilds from the newest verifiable
//!   manifest: base snapshot from the newest intact segment, newer
//!   segments' verified rows rolled forward, then the WAL chain replayed
//!   in bounded-memory chunks with torn tails truncated. The recovered
//!   trees are bit-identical (by `answers_digest`) to a never-crashed
//!   store at some verified prefix of the acknowledged rows.
//! * [`fault`] — two seeded fault families: [`fault::FaultPlan`] mutates
//!   dead directories (bit rot, torn tails, lost files) and
//!   [`fault::IoFaults`] makes live writes/fsyncs/renames fail
//!   (`ENOSPC`, `EIO`, torn writes, mid-operation crashes). A persistent
//!   background fault parks the flush and degrades the store
//!   ([`store::StoreHealth`]) while ingest continues.
//! * [`image`] — a small checksummed record container for non-tree
//!   durable state (the replication layer's per-node bookkeeping).
//!
//! Formats are defined in [`wal`], [`segment`], [`manifest`], and the
//! legacy [`checkpoint`]; every decode path returns a positioned
//! [`StoreError`] and none of them can panic on adversarial bytes.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod checkpoint;
pub mod compaction;
pub mod error;
pub mod fault;
pub mod image;
mod io;
pub mod manifest;
pub mod meta;
pub mod recovery;
pub mod segment;
pub mod store;
pub mod wal;

pub use error::StoreError;
pub use fault::{Fault, FaultInjector, FaultPlan, IoFaultKind, IoFaultPlan, IoFaults, IoOp};
pub use image::{read_image, ImageWriter};
pub use manifest::{Manifest, SegmentEntry, StoreFile};
pub use meta::NodeMeta;
pub use recovery::{RecoveryManager, RecoveryReport};
pub use store::{holds_store, DurableStore, StoreHealth, StoreOptions, TierStatus};
