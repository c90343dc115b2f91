//! The durable store: a tiered (LSM-style) hierarchy in which durability
//! never stalls ingest.
//!
//! A store directory holds immutable segments, the manifest naming them,
//! and the WAL generations extending the newest commit point:
//!
//! ```text
//! seg-00000000000000000000-00000000000000004096.seg   rows 0..4096 + snapshot@4096
//! seg-00000000000000004096-00000000000000008192.seg   rows 4096..8192 + snapshot@8192
//! manifest-00000000000000000003.man                   the commit point
//! wal-00000000000000008192.wal                        arrivals 8192.. (the live log)
//! ```
//!
//! [`DurableStore::push_row`] appends a checksummed record to the live
//! WAL (buffered) and to the in-memory row tail; the trees take the rows
//! later, a block at a time (see "Pending rows" below). Every
//! `freeze_rows` arrivals the active generation is *frozen* and handed to
//! a background flush thread, which serializes it into an immutable,
//! CRC-framed, bloom-guarded segment, commits a new manifest (fsync →
//! atomic rename → directory fsync), and only then prunes the WAL prefix
//! the segment now covers. No caller ever blocks on that fsync.
//!
//! ## Pending rows
//!
//! The trees lag the pushed clock: rows in the active generation beyond
//! the trees' arrival clock are *pending*. They are applied ("settled")
//! with [`StreamSet::push_rows`] — the blocked cascade, bit-identical to
//! one `push_row` per row — once [`SETTLE_VALUES`] values are pending,
//! and before every freeze, checkpoint and read of the trees
//! ([`DurableStore::set`]). [`DurableStore::answers_digest`] digests a
//! settled copy when rows are pending, so no caller ever observes the
//! lag; clocks ([`DurableStore::arrivals`], [`TierStatus::arrivals`])
//! count pushed rows.
//!
//! ## Degradation, not death
//!
//! Disk faults on the background path (ENOSPC, EIO, torn writes) park
//! the frozen generation; the flusher retries with bounded backoff while
//! ingest continues on the WAL, and [`DurableStore::status`] reports
//! [`StoreHealth::Degraded`]. Faults on the foreground WAL path mark the
//! live generation broken: ingest still continues in memory, acks via
//! [`DurableStore::sync`] fail until either the WAL rolls to a healthy
//! generation or the segment tier catches up past the damage. A fault
//! mid-compaction aborts cleanly, leaving the input segments intact.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use swat_tree::{StreamSet, SwatConfig};

use crate::checkpoint::wal_name;
use crate::compaction;
use crate::error::StoreError;
use crate::fault::IoFaults;
use crate::io;
use crate::manifest::{self, Manifest, SegmentEntry, StoreFile};
use crate::segment::{self, segment_name, SegmentData};
use crate::wal::{self, WalHeader};

/// Flush the buffered WAL to the kernel once this many bytes accumulate
/// (an `fsync` still only happens in [`DurableStore::sync`]).
const WAL_FLUSH_BYTES: usize = 64 * 1024;

/// Pending values that trigger a settle: 256 rows at 64 streams, enough
/// for the blocked cascade to run whole aligned chunks, small enough
/// that the transposed block stays in cache.
const SETTLE_VALUES: usize = 1 << 14;

/// A frozen generation's rows, shared between the store's tail and the
/// flusher's queue so the backlog is held once.
type Rows = Arc<Vec<f64>>;

/// Whether `dir` holds store files (a segment, manifest, WAL generation,
/// or legacy checkpoint). Unrelated files — e.g. the [`crate::meta`]
/// image that shares the directory — do not count, so "recover or
/// create?" decisions stay correct when other state lives alongside the
/// trees.
pub fn holds_store(dir: &Path) -> bool {
    let Ok(entries) = fs::read_dir(dir) else {
        return false;
    };
    entries
        .flatten()
        .any(|e| manifest::classify(&e.file_name().to_string_lossy()).is_some())
}

/// Tuning and fault-injection knobs for a [`DurableStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Arrivals per frozen generation; `0` disables automatic freezing
    /// (generations then freeze only on [`DurableStore::checkpoint`]).
    pub freeze_rows: u64,
    /// Segments merged per compaction; compaction triggers once the
    /// manifest holds at least `2 * compact_fanin` segments.
    pub compact_fanin: usize,
    /// Rows a merged segment may not exceed, bounding compaction memory
    /// and keeping old giants from re-merging forever.
    pub max_segment_rows: u64,
    /// Backoff between retries of a parked (failed) flush.
    pub retry_backoff: Duration,
    /// Fault domain of the foreground WAL path (production: no faults).
    pub wal_faults: Arc<IoFaults>,
    /// Fault domain of the background flush/compaction path.
    pub flush_faults: Arc<IoFaults>,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            freeze_rows: 4096,
            compact_fanin: 4,
            max_segment_rows: 1 << 18,
            retry_backoff: Duration::from_millis(25),
            wal_faults: IoFaults::none(),
            flush_faults: IoFaults::none(),
        }
    }
}

/// Whether durability is keeping up with ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreHealth {
    /// No parked generations, live WAL intact.
    Healthy,
    /// A disk fault is outstanding; ingest continues, acks may lag.
    Degraded {
        /// Frozen generations waiting to be flushed.
        parked: usize,
        /// The most recent underlying failure, rendered.
        last_error: String,
    },
}

/// A point-in-time snapshot of the tiered store's shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStatus {
    /// Arrivals ingested per stream (the pushed clock).
    pub arrivals: u64,
    /// Arrivals durably captured by segments (the manifest clock).
    pub covered_t: u64,
    /// Live segments in the manifest.
    pub segments: usize,
    /// Successful background flushes so far.
    pub flushes: u64,
    /// Successful compactions so far.
    pub compactions: u64,
    /// Degradation state.
    pub health: StoreHealth,
}

/// State shared between the foreground store and the flush thread.
#[derive(Debug)]
struct Shared {
    manifest: Manifest,
    flush_error: Option<String>,
    parked: usize,
    flushes: u64,
    compactions: u64,
}

type SharedView = Arc<Mutex<Shared>>;

/// Work items for the flush thread.
enum Job {
    /// Serialize the frozen generation `[start_t, start_t + rows)`.
    Flush { start_t: u64, rows: Rows },
    /// Reply once every pending flush has been attempted: `Ok` when the
    /// segment tier is fully caught up, `Err(last_error)` otherwise.
    Barrier(SyncSender<Result<(), String>>),
    /// Exit without draining (process-shutdown semantics; acked rows are
    /// safe in the WAL).
    Stop,
}

/// A crash-consistent [`StreamSet`] with tiered durability.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    set: StreamSet,
    opts: StoreOptions,
    wal: WalWriter,
    /// First arrival of the active generation (the last freeze point).
    wal_base: u64,
    /// Sealed, not-yet-fsynced WAL generation handles; [`Self::sync`]
    /// drains them oldest-first so the ack order matches arrival order.
    sealed: Vec<File>,
    /// Highest arrival clock guarded by a *broken* generation that was
    /// rolled away: rows below it may exist nowhere durable but the
    /// segment tier, so [`Self::sync`] must not ack until
    /// `covered_t` reaches it.
    wal_hole: Option<u64>,
    /// Frozen generations no committed segment covers yet, oldest
    /// first, as `(start_t, rows)`; each buffer is the one the flusher
    /// was handed.
    frozen: VecDeque<(u64, Rows)>,
    /// Rows `[wal_base, pushed)` of the active generation, flattened.
    /// The trees have applied a prefix of them; the rest are pending.
    /// With `frozen`, serves [`Self::history`] over the uncovered span.
    active: Vec<f64>,
    shared: SharedView,
    jobs: Option<Sender<Job>>,
    flusher: Option<JoinHandle<()>>,
}

impl DurableStore {
    /// Create a fresh store in `dir` (created if missing) with default
    /// [`StoreOptions`]. Fails if the directory already holds store
    /// files — recover those with [`crate::recovery::RecoveryManager`]
    /// instead of silently clobbering them.
    pub fn create(
        dir: impl Into<PathBuf>,
        config: SwatConfig,
        streams: usize,
    ) -> Result<DurableStore, StoreError> {
        Self::create_with(dir, config, streams, StoreOptions::default())
    }

    /// [`Self::create`] with explicit options.
    pub fn create_with(
        dir: impl Into<PathBuf>,
        config: SwatConfig,
        streams: usize,
        opts: StoreOptions,
    ) -> Result<DurableStore, StoreError> {
        let dir = dir.into();
        if streams == 0 {
            return Err(StoreError::BadRow { got: 0, want: 1 });
        }
        fs::create_dir_all(&dir).map_err(StoreError::io("create store directory"))?;
        for entry in fs::read_dir(&dir).map_err(StoreError::io("list store directory"))? {
            let entry = entry.map_err(StoreError::io("list store directory"))?;
            if manifest::classify(&entry.file_name().to_string_lossy()).is_some() {
                return Err(StoreError::Io {
                    context: "create store in a directory that already holds one",
                    source: std::io::Error::from(std::io::ErrorKind::AlreadyExists),
                });
            }
        }
        let set = StreamSet::new(config, streams);
        let initial = Manifest::default();
        manifest::commit(&opts.wal_faults, &dir, &initial)?;
        Self::resume(dir, set, initial, opts)
    }

    /// Wrap an already-reconstructed `set` (freshly created, or rebuilt
    /// by recovery) whose arrival clock equals `manifest.covered_t`, open
    /// its live WAL generation, and start the flush thread.
    pub(crate) fn resume(
        dir: PathBuf,
        set: StreamSet,
        manifest: Manifest,
        opts: StoreOptions,
    ) -> Result<DurableStore, StoreError> {
        let base = set.tree(0).arrivals();
        debug_assert_eq!(manifest.covered_t, base);
        let wal = open_wal(&dir, &set, base, &opts.wal_faults)?;
        // The flusher replays frozen rows into its own shadow set so
        // segment snapshots are produced without ever borrowing (or
        // blocking) the foreground trees; ingest determinism makes the
        // shadow bit-identical at every generation boundary.
        let shadow =
            StreamSet::restore(&set.snapshot()).map_err(|source| StoreError::Snapshot {
                file: "<live snapshot>".to_owned(),
                source,
            })?;
        let shared: SharedView = Arc::new(Mutex::new(Shared {
            manifest,
            flush_error: None,
            parked: 0,
            flushes: 0,
            compactions: 0,
        }));
        let (tx, rx) = mpsc::channel();
        let flusher = Flusher {
            dir: dir.clone(),
            shadow,
            faults: opts.flush_faults.clone(),
            shared: shared.clone(),
            parked: VecDeque::new(),
            fanin: opts.compact_fanin,
            max_rows: opts.max_segment_rows,
            backoff: opts.retry_backoff,
        };
        let handle = std::thread::Builder::new()
            .name("swat-store-flush".to_owned())
            .spawn(move || flusher.run(rx))
            .map_err(StoreError::io("spawn flush thread"))?;
        Ok(DurableStore {
            dir,
            set,
            opts,
            wal,
            wal_base: base,
            sealed: Vec::new(),
            wal_hole: None,
            frozen: VecDeque::new(),
            active: Vec::new(),
            shared,
            jobs: Some(tx),
            flusher: Some(handle),
        })
    }

    /// Ingest one synchronized row: a checksummed WAL record is buffered
    /// and the row joins the pending tail; the trees apply it with the
    /// next settled block. Never blocks on disk — call
    /// [`sync`](Self::sync) for the durability acknowledgment. The only
    /// errors are row validation; I/O trouble surfaces at `sync`.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), StoreError> {
        if row.len() != self.set.streams() {
            return Err(StoreError::BadRow {
                got: row.len(),
                want: self.set.streams(),
            });
        }
        if let Some(stream) = row.iter().position(|v| !v.is_finite()) {
            return Err(StoreError::BadValue { stream });
        }
        self.wal.append_record(row);
        self.active.extend_from_slice(row);
        if self.active.len() - self.settled_len() >= SETTLE_VALUES {
            self.settle();
        }
        if self.opts.freeze_rows > 0 && self.rows_since_freeze() >= self.opts.freeze_rows {
            self.freeze();
        }
        Ok(())
    }

    /// Values of `active` the trees have already applied.
    fn settled_len(&self) -> usize {
        ((self.set.tree(0).arrivals() - self.wal_base) as usize) * self.set.streams()
    }

    /// Apply the pending rows to the trees as one block.
    fn settle(&mut self) {
        let from = self.settled_len();
        self.set.push_rows(&self.active[from..]);
    }

    /// The pushed clock: every row accepted so far, settled or not.
    fn pushed(&self) -> u64 {
        self.wal_base + (self.active.len() / self.set.streams()) as u64
    }

    /// Freeze the active generation: hand its rows to the background
    /// flusher and roll the WAL to a fresh generation. Does not wait for
    /// the flush and does not `fsync` anything. No-op when the active
    /// generation is empty.
    pub fn freeze(&mut self) {
        self.settle();
        let end = self.pushed();
        let start = self.wal_base;
        if end == start {
            return;
        }
        // Land buffered records with the kernel so the sealed handle's
        // later fsync covers them; a failure is already recorded in the
        // writer and the rows still reach durability via the segment.
        let _ = self.wal.flush();
        match open_wal(&self.dir, &self.set, end, &self.opts.wal_faults) {
            Ok(next) => {
                let old = std::mem::replace(&mut self.wal, next);
                if old.broken.is_none() {
                    self.sealed.push(old.file);
                } else {
                    // The broken generation's rows now live only in the
                    // frozen copy headed for the segment tier; until a
                    // committed segment covers them, sync() must not ack.
                    self.wal_hole = Some(end);
                }
            }
            Err(_) => {
                // Could not open the next generation: keep appending to
                // the current one. Recovery replays a generation from any
                // base at or before its clock, so a long generation
                // spanning several freezes is merely untidy.
            }
        }
        let next = Vec::with_capacity(self.active.len());
        let rows: Rows = Arc::new(std::mem::replace(&mut self.active, next));
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(Job::Flush {
                start_t: start,
                rows: rows.clone(),
            });
        }
        self.frozen.push_back((start, rows));
        self.wal_base = end;
        self.trim_tail();
    }

    /// Drop frozen generations the segment tier has durably covered.
    fn trim_tail(&mut self) {
        // invariant: the mutex is only held for short field copies; a
        // poisoned lock means the flush thread panicked, which no
        // adversarial input can cause.
        let covered = self
            .shared
            .lock()
            .expect("flush thread panicked")
            .manifest
            .covered_t;
        let streams = self.set.streams();
        while let Some((start, rows)) = self.frozen.front() {
            if start + (rows.len() / streams) as u64 > covered {
                break;
            }
            self.frozen.pop_front();
        }
    }

    /// The durability acknowledgment: when this returns `Ok`, every row
    /// pushed so far survives a crash. Flushes and `fsync`s the live and
    /// sealed WAL generations; if the WAL path is degraded, the call
    /// still succeeds once the segment tier has durably covered every
    /// arrival.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let covered = self
            .shared
            .lock()
            .expect("flush thread panicked")
            .manifest
            .covered_t;
        match self.sync_wal() {
            Ok(()) => {
                // A healthy WAL chain is not enough if a broken
                // generation was rolled away: those rows are durable only
                // once a committed segment covers their clock.
                match self.wal_hole {
                    Some(hole) if covered < hole => {
                        let parked = self.shared.lock().expect("flush thread panicked").parked;
                        Err(StoreError::Degraded {
                            parked,
                            message: format!(
                                "WAL generation below t={hole} was lost to a write fault; \
                                 rows await the segment tier (covered t={covered})"
                            ),
                        })
                    }
                    _ => {
                        self.wal_hole = None;
                        Ok(())
                    }
                }
            }
            Err(e) => {
                if covered >= self.pushed() {
                    // Everything acked is in fsynced segments; the broken
                    // WAL generation no longer guards any data.
                    self.sealed.clear();
                    self.wal_hole = None;
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    fn sync_wal(&mut self) -> Result<(), StoreError> {
        while let Some(file) = self.sealed.first() {
            io::sync_file(&self.opts.wal_faults, file, "fsync sealed WAL")?;
            self.sealed.remove(0);
        }
        self.wal.sync()?;
        io::sync_dir(&self.opts.wal_faults, &self.dir, "fsync store directory")
    }

    /// Make everything durable *in segments*: freeze the active
    /// generation, wait for the flush tier to drain, and `fsync` the
    /// WAL. Returns [`StoreError::Degraded`] when parked generations
    /// could not be flushed (acked data is still safe — in the WAL).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.freeze(); // settles the trees first
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(Job::Barrier(reply_tx));
        }
        match reply_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(message)) => {
                let parked = self.shared.lock().expect("flush thread panicked").parked;
                return Err(StoreError::Degraded { parked, message });
            }
            Err(_) => {
                return Err(StoreError::Degraded {
                    parked: 0,
                    message: "flush thread unavailable".to_owned(),
                })
            }
        }
        self.trim_tail();
        self.sync()
    }

    /// Historical values of `stream` for arrivals `[from, min(to, now))`,
    /// served from the segment tier (bloom-guarded: a segment whose
    /// filter excludes the stream is answered as zeros without reading
    /// it) plus the in-memory uncovered tail.
    pub fn history(&self, stream: usize, from: u64, to: u64) -> Result<Vec<f64>, StoreError> {
        let streams = self.set.streams();
        if stream >= streams {
            return Err(StoreError::BadRow {
                got: stream,
                want: streams,
            });
        }
        let to = to.min(self.pushed());
        if from >= to {
            return Ok(Vec::new());
        }
        let m = {
            self.shared
                .lock()
                .expect("flush thread panicked")
                .manifest
                .clone()
        };
        let tail_base = self
            .frozen
            .front()
            .map_or(self.wal_base, |(start, _)| *start);
        let floor = m.entries.first().map_or(tail_base, |e| e.start_t);
        if from < floor {
            return Err(StoreError::NoHistory { t: from });
        }
        let mut out = vec![0.0f64; (to - from) as usize];
        for e in &m.entries {
            let lo = e.start_t.max(from);
            let hi = e.end_t.min(to);
            if lo >= hi {
                continue;
            }
            let bytes = fs::read(self.dir.join(&e.name)).map_err(StoreError::io("read segment"))?;
            let seg = SegmentData::parse(&e.name, &bytes)?;
            if !seg.bloom().may_contain(stream) {
                continue; // provably all-zero: already the answer
            }
            let rows = seg.rows();
            for t in lo..hi {
                let idx = ((t - e.start_t) as usize) * streams + stream;
                if idx >= rows.values.len() {
                    return Err(StoreError::NoHistory { t });
                }
                out[(t - from) as usize] = rows.values[idx];
            }
        }
        let active = (self.wal_base, &self.active);
        for (start, rows) in self.frozen.iter().map(|(s, r)| (*s, &**r)).chain([active]) {
            let end = start + (rows.len() / streams) as u64;
            for t in start.max(from)..end.min(to) {
                out[(t - from) as usize] = rows[((t - start) as usize) * streams + stream];
            }
        }
        Ok(out)
    }

    /// A point-in-time view of the tier shape and degradation state.
    pub fn status(&self) -> TierStatus {
        let s = self.shared.lock().expect("flush thread panicked");
        let health = if s.parked > 0 || self.wal.broken.is_some() {
            StoreHealth::Degraded {
                parked: s.parked,
                last_error: s
                    .flush_error
                    .clone()
                    .or_else(|| self.wal.broken.clone())
                    .unwrap_or_default(),
            }
        } else {
            StoreHealth::Healthy
        };
        TierStatus {
            arrivals: self.pushed(),
            covered_t: s.manifest.covered_t,
            segments: s.manifest.entries.len(),
            flushes: s.flushes,
            compactions: s.compactions,
            health: health.clone(),
        }
    }

    /// Shorthand for [`Self::status`]`.health`.
    pub fn health(&self) -> StoreHealth {
        self.status().health
    }

    /// The summarized streams, with every pushed row applied (pending
    /// rows are settled first).
    pub fn set(&mut self) -> &StreamSet {
        self.settle();
        &self.set
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arrivals ingested per stream (the pushed clock, pending rows
    /// included).
    pub fn arrivals(&self) -> u64 {
        self.pushed()
    }

    /// Rows in the active (not yet frozen) generation.
    pub fn rows_since_freeze(&self) -> u64 {
        self.pushed() - self.wal_base
    }

    /// The answers-identity digest of the underlying [`StreamSet`] with
    /// every pushed row applied — the witness that recovery was
    /// bit-identical. With rows pending, a settled copy is digested and
    /// the store itself is left as it is.
    pub fn answers_digest(&self) -> u64 {
        let from = self.settled_len();
        if from == self.active.len() {
            return self.set.answers_digest();
        }
        let mut settled = self.set.clone();
        settled.push_rows(&self.active[from..]);
        settled.answers_digest()
    }

    /// Simulate a process kill: unflushed WAL buffer lost, both fault
    /// domains dead (any in-flight background write fails as at a power
    /// cut), flush thread reaped. Only the files remain — exactly what
    /// [`crate::recovery::RecoveryManager`] is handed after a real crash.
    pub fn crash(mut self) {
        self.opts.wal_faults.kill();
        self.opts.flush_faults.kill();
        self.wal.discard();
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(jobs) = self.jobs.take() {
            let _ = jobs.send(Job::Stop);
        }
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        // Graceful-shutdown parity with the old BufWriter store: buffered
        // records reach the kernel (no fsync); parked flushes are
        // abandoned — their rows are already in the WAL.
        let _ = self.wal.flush();
        self.shutdown();
    }
}

/// The buffered, fault-adjudicated live WAL generation.
#[derive(Debug)]
struct WalWriter {
    file: File,
    buf: Vec<u8>,
    faults: Arc<IoFaults>,
    /// Set on the first write/fsync failure: the generation may hold a
    /// torn record, so it stops accepting appends and [`DurableStore`]
    /// routes durability through the segment tier instead.
    broken: Option<String>,
}

impl WalWriter {
    fn append(&mut self, bytes: &[u8]) {
        if self.broken.is_some() {
            return;
        }
        self.buf.extend_from_slice(bytes);
        self.flush_if_full();
    }

    /// Encode `row`'s record straight into the buffer.
    fn append_record(&mut self, row: &[f64]) {
        if self.broken.is_some() {
            return;
        }
        wal::encode_record(&mut self.buf, row);
        self.flush_if_full();
    }

    fn flush_if_full(&mut self) {
        if self.buf.len() >= WAL_FLUSH_BYTES {
            let _ = self.flush();
        }
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        if let Some(msg) = &self.broken {
            return Err(degraded_io(msg));
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        let res = io::write_all(
            &self.faults,
            &mut self.file,
            &self.buf,
            "append WAL records",
        );
        self.buf.clear();
        if let Err(e) = &res {
            self.broken = Some(e.to_string());
        }
        res
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.flush()?;
        io::sync_file(&self.faults, &self.file, "fsync WAL").inspect_err(|e| {
            // A failed fsync may have dropped dirty pages; nothing in
            // this generation can be trusted as durable anymore.
            self.broken = Some(e.to_string());
        })
    }

    fn discard(&mut self) {
        self.buf.clear();
    }
}

fn degraded_io(msg: &str) -> StoreError {
    StoreError::Io {
        context: "WAL generation degraded",
        source: std::io::Error::other(msg.to_owned()),
    }
}

/// Open `wal-<base>` fresh (truncating any unverifiable leftover with the
/// same name) and buffer its header. Nothing is fsynced here — the
/// header becomes durable with the first [`DurableStore::sync`].
fn open_wal(
    dir: &Path,
    set: &StreamSet,
    base: u64,
    faults: &Arc<IoFaults>,
) -> Result<WalWriter, StoreError> {
    let path = dir.join(wal_name(base));
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .map_err(StoreError::io("open WAL"))?;
    let mut writer = WalWriter {
        file,
        buf: Vec::new(),
        faults: faults.clone(),
        broken: None,
    };
    writer.append(&WalHeader::describe(set.config(), set.streams(), base).encode());
    Ok(writer)
}

/// The background flush/compaction worker.
struct Flusher {
    dir: PathBuf,
    shadow: StreamSet,
    faults: Arc<IoFaults>,
    shared: SharedView,
    parked: VecDeque<(u64, Rows)>,
    fanin: usize,
    max_rows: u64,
    backoff: Duration,
}

impl Flusher {
    fn run(mut self, rx: Receiver<Job>) {
        loop {
            let msg = if self.parked.is_empty() {
                match rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                }
            } else {
                match rx.recv_timeout(self.backoff) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            };
            match msg {
                Some(Job::Flush { start_t, rows }) => {
                    self.parked.push_back((start_t, rows));
                    self.drain();
                }
                Some(Job::Barrier(reply)) => {
                    self.drain();
                    let result = if self.parked.is_empty() {
                        Ok(())
                    } else {
                        let s = self.shared.lock().expect("store dropped mid-lock");
                        Err(s.flush_error.clone().unwrap_or_default())
                    };
                    let _ = reply.send(result);
                }
                Some(Job::Stop) => break,
                None => self.drain(),
            }
        }
    }

    /// Flush parked generations oldest-first; stop at the first failure
    /// (order is part of the format: segments must chain).
    fn drain(&mut self) {
        while let Some((start_t, rows)) = self.parked.pop_front() {
            match self.flush_one(start_t, &rows) {
                Ok(()) => {}
                Err(e) => {
                    self.parked.push_front((start_t, rows));
                    let mut s = self.shared.lock().expect("store dropped mid-lock");
                    s.flush_error = Some(e.to_string());
                    s.parked = self.parked.len();
                    return;
                }
            }
        }
        let mut s = self.shared.lock().expect("store dropped mid-lock");
        s.parked = 0;
        s.flush_error = None;
    }

    fn flush_one(&mut self, start_t: u64, rows: &[f64]) -> Result<(), StoreError> {
        let streams = self.shadow.streams();
        let end_t = start_t + (rows.len() / streams) as u64;
        // invariant: jobs arrive in freeze order, so the shadow clock is
        // always within [start_t, end_t]; a retry whose earlier attempt
        // already replayed must not replay twice.
        let at = self.shadow.tree(0).arrivals();
        if at < end_t {
            let skip = ((at - start_t) as usize) * streams;
            self.shadow.push_rows(&rows[skip..]);
        }
        let name = segment_name(start_t, end_t);
        let bytes = segment::encode(start_t, rows, &self.shadow);
        io::write_atomic(&self.faults, &self.dir, &name, &bytes, "write segment")?;
        let mut m = {
            self.shared
                .lock()
                .expect("store dropped mid-lock")
                .manifest
                .clone()
        };
        m.seq += 1;
        m.covered_t = end_t;
        m.entries.push(SegmentEntry {
            name,
            start_t,
            end_t,
        });
        manifest::commit(&self.faults, &self.dir, &m)?;
        {
            let mut s = self.shared.lock().expect("store dropped mid-lock");
            s.manifest = m.clone();
            s.flushes += 1;
        }
        self.prune_wals(m.covered_t);
        self.maybe_compact();
        Ok(())
    }

    /// Remove WAL generations whose entire span is durably covered by
    /// segments: generation `b_i` is unreachable once the next base
    /// `b_(i+1) <= covered_t`. The newest generation never qualifies.
    fn prune_wals(&self, covered_t: u64) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut bases: Vec<u64> = entries
            .flatten()
            .filter_map(
                |e| match manifest::classify(&e.file_name().to_string_lossy()) {
                    Some(StoreFile::Wal(b)) => Some(b),
                    _ => None,
                },
            )
            .collect();
        bases.sort_unstable();
        for pair in bases.windows(2) {
            if pair[1] <= covered_t {
                let _ = fs::remove_file(self.dir.join(wal_name(pair[0])));
            }
        }
    }

    /// Run compactions until the policy is satisfied. A failure aborts
    /// cleanly — inputs are untouched — and is recorded as degradation;
    /// it retries after the next successful flush.
    fn maybe_compact(&mut self) {
        loop {
            let m = {
                self.shared
                    .lock()
                    .expect("store dropped mid-lock")
                    .manifest
                    .clone()
            };
            match compaction::compact_once(&self.faults, &self.dir, &m, self.fanin, self.max_rows) {
                Ok(Some(next)) => {
                    let mut s = self.shared.lock().expect("store dropped mid-lock");
                    s.manifest = next;
                    s.compactions += 1;
                }
                Ok(None) => return,
                Err(e) => {
                    let mut s = self.shared.lock().expect("store dropped mid-lock");
                    s.flush_error = Some(e.to_string());
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{IoFaultKind, IoFaultPlan};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swat-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> SwatConfig {
        SwatConfig::with_coefficients(32, 2).unwrap()
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            freeze_rows: 8,
            compact_fanin: 2,
            retry_backoff: Duration::from_millis(1),
            ..StoreOptions::default()
        }
    }

    #[test]
    fn create_refuses_to_clobber_existing_state() {
        let dir = tmp("clobber");
        let store = DurableStore::create(&dir, config(), 1).unwrap();
        drop(store);
        let err = DurableStore::create(&dir, config(), 1).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn push_validates_rows_before_touching_disk_or_trees() {
        let dir = tmp("validate");
        let mut store = DurableStore::create(&dir, config(), 2).unwrap();
        assert!(matches!(
            store.push_row(&[1.0]),
            Err(StoreError::BadRow { got: 1, want: 2 })
        ));
        assert!(matches!(
            store.push_row(&[1.0, f64::INFINITY]),
            Err(StoreError::BadValue { stream: 1 })
        ));
        assert_eq!(store.arrivals(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn freezes_flush_to_segments_and_prune_the_wal() {
        let dir = tmp("tiers");
        let mut store = DurableStore::create_with(&dir, config(), 1, small_opts()).unwrap();
        for i in 0..40 {
            store.push_row(&[i as f64]).unwrap();
        }
        store.checkpoint().unwrap();
        let st = store.status();
        assert_eq!(st.arrivals, 40);
        assert_eq!(st.covered_t, 40);
        assert_eq!(st.health, StoreHealth::Healthy);
        assert!(st.flushes >= 5, "{st:?}");
        assert!(st.compactions >= 1, "{st:?}");

        let mut wals = 0;
        let mut segs = 0;
        let mut mans = 0;
        for entry in fs::read_dir(&dir).unwrap() {
            match manifest::classify(&entry.unwrap().file_name().to_string_lossy()) {
                Some(StoreFile::Wal(_)) => wals += 1,
                Some(StoreFile::Segment(..)) => segs += 1,
                Some(StoreFile::Manifest(_)) => mans += 1,
                _ => {}
            }
        }
        assert_eq!(wals, 1, "covered generations must be pruned");
        assert_eq!(st.segments, segs);
        assert!(mans <= manifest::KEPT_MANIFESTS);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_flush_fault_parks_then_catches_up() {
        let dir = tmp("parked");
        let opts = StoreOptions {
            flush_faults: IoFaults::with_plan(IoFaultPlan::at(0, IoFaultKind::Enospc)),
            ..small_opts()
        };
        let mut store = DurableStore::create_with(&dir, config(), 1, opts).unwrap();
        for i in 0..16 {
            store.push_row(&[i as f64]).unwrap();
        }
        // ENOSPC hits the first segment write; the retry (fault is
        // one-shot) succeeds, so the barrier drains everything.
        store.checkpoint().unwrap();
        assert_eq!(store.status().covered_t, 16);
        assert_eq!(store.health(), StoreHealth::Healthy);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_disk_degrades_but_ingest_continues() {
        let dir = tmp("degraded");
        let opts = small_opts();
        let flush_faults = opts.flush_faults.clone();
        let mut store = DurableStore::create_with(&dir, config(), 1, opts).unwrap();
        flush_faults.kill();
        for i in 0..40 {
            store.push_row(&[i as f64]).unwrap();
        }
        let err = store.checkpoint().unwrap_err();
        assert!(
            matches!(err, StoreError::Degraded { parked, .. } if parked > 0),
            "{err}"
        );
        assert!(matches!(store.health(), StoreHealth::Degraded { .. }));
        // Ingest and in-memory answers are unaffected.
        assert_eq!(store.arrivals(), 40);
        // Acked data is still durable: the WAL path is healthy.
        store.sync().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_serves_segments_bloom_guarded_and_the_live_tail() {
        let dir = tmp("history");
        let mut store = DurableStore::create_with(&dir, config(), 3, small_opts()).unwrap();
        // Stream 2 stays silent; stream 0 counts; stream 1 alternates.
        for i in 0..20 {
            store
                .push_row(&[i as f64, if i % 2 == 0 { 1.0 } else { -1.0 }, 0.0])
                .unwrap();
        }
        store.checkpoint().unwrap();
        for i in 20..23 {
            store.push_row(&[i as f64, 1.0, 0.0]).unwrap(); // live tail
        }
        let h = store.history(0, 5, 23).unwrap();
        let expect: Vec<f64> = (5..23).map(|i| i as f64).collect();
        assert_eq!(h, expect);
        let silent = store.history(2, 0, 23).unwrap();
        assert!(silent.iter().all(|&v| v == 0.0));
        assert!(store.history(5, 0, 1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
