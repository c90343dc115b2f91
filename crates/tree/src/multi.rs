//! Multiple streams and correlation estimation.
//!
//! The paper's concluding remarks name this as future work: "We plan to
//! develop efficient techniques to find correlations over multiple data
//! streams." This module provides the natural SWAT-based realization: a
//! [`StreamSet`] maintains one tree per stream over a common window, and
//! correlations between any two streams are estimated from the trees'
//! reconstructions — `O(M log N)` work per pair instead of touching raw
//! history, with accuracy inherited from the summaries (exact for
//! lossless trees).

use crate::codec::{write_frame, Cursor};
use crate::config::{SwatConfig, TreeError};
use crate::query::{InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions};
use crate::scratch::QueryScratch;
use crate::snapshot::SnapshotError;
use crate::tree::{digest, SwatTree};

/// A set of synchronized streams, each summarized by its own SWAT.
///
/// ```
/// use swat_tree::{multi::StreamSet, SwatConfig};
///
/// let mut set = StreamSet::new(SwatConfig::new(64).unwrap(), 2);
/// for i in 0..200 {
///     let x = (i as f64 * 0.2).sin();
///     set.push_row(&[x, 2.0 * x + 1.0]); // perfectly correlated
/// }
/// let rho = set.correlation(0, 1, 64).unwrap();
/// assert!(rho > 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct StreamSet {
    /// The shared configuration, held by the set itself so that a set
    /// with zero streams still knows its window shape (the trees each
    /// carry a copy).
    config: SwatConfig,
    trees: Vec<SwatTree>,
    /// [`StreamSet::push_rows`]'s transpose buffer, reused across calls
    /// (not part of the set's value: never snapshotted or digested).
    columns: Vec<f64>,
}

impl StreamSet {
    /// `streams` synchronized streams under a shared configuration.
    ///
    /// `streams == 0` is legal: an empty set is a well-defined value that
    /// ingests empty rows/columns as no-ops, answers every fan-out query
    /// with an empty result vector, and snapshots/restores losslessly —
    /// the state a dynamic deployment passes through before its first
    /// stream registers (previously these operations panicked; the
    /// `empty_set_*` tests pin the fixed behavior).
    pub fn new(config: SwatConfig, streams: usize) -> Self {
        StreamSet {
            config,
            trees: (0..streams).map(|_| SwatTree::new(config)).collect(),
            columns: Vec::new(),
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.trees.len()
    }

    /// The configuration shared by every stream's tree.
    pub fn config(&self) -> &SwatConfig {
        &self.config
    }

    /// The tree summarizing stream `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tree(&self, i: usize) -> &SwatTree {
        &self.trees[i]
    }

    /// Feed one synchronized row: `row[i]` goes to stream `i`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != streams()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.trees.len(), "row arity mismatch");
        for (tree, &v) in self.trees.iter_mut().zip(row) {
            tree.push(v);
        }
    }

    /// Feed a row-major block of synchronized rows: `rows` holds
    /// `rows.len() / streams()` rows back to back, each laid out as for
    /// [`StreamSet::push_row`].
    ///
    /// The block is transposed once into a reused column buffer and each
    /// stream's column goes through the blocked cascade
    /// ([`SwatTree::push_batch`]), so the final state is bit-identical to
    /// calling `push_row` per row at a fraction of the cost. An empty
    /// set accepts only an empty block.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `streams()` (or is
    /// nonzero on an empty set), or if any value is non-finite (checked
    /// per column before that column is ingested).
    pub fn push_rows(&mut self, rows: &[f64]) {
        let streams = self.trees.len();
        if streams == 0 {
            assert!(rows.is_empty(), "row arity mismatch");
            return;
        }
        assert_eq!(rows.len() % streams, 0, "row arity mismatch");
        let n = rows.len() / streams;
        if n == 0 {
            return;
        }
        self.columns.clear();
        self.columns.resize(rows.len(), 0.0);
        for (r, row) in rows.chunks_exact(streams).enumerate() {
            for (s, &v) in row.iter().enumerate() {
                self.columns[s * n + r] = v;
            }
        }
        for (tree, col) in self.trees.iter_mut().zip(self.columns.chunks_exact(n)) {
            tree.push_batch(col);
        }
    }

    /// Feed a block of synchronized arrivals column-wise: `columns[i]` is
    /// the next batch of values for stream `i`, and all columns must have
    /// equal length. The independent trees are partitioned across at most
    /// `threads` scoped worker threads ([`std::thread::scope`], so no new
    /// dependencies and no `'static` bounds), each running the
    /// single-stream batched fast path [`SwatTree::push_batch`].
    ///
    /// Because every stream's values are applied by exactly one worker in
    /// arrival order, the final state is **deterministic and identical for
    /// every thread count** — including `threads == 1`, which degenerates
    /// to a plain loop without spawning. The
    /// `extend_batched_matches_rows_for_any_thread_count` test proves this
    /// node-by-node.
    ///
    /// An empty set accepts only an empty column slice (the arity check
    /// still applies) and ingests it as a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len() != streams()`, if column lengths differ,
    /// if `threads == 0`, or if any value is non-finite (the underlying
    /// `push_batch` checks each column before ingesting it).
    pub fn extend_batched<C: AsRef<[f64]> + Sync>(&mut self, columns: &[C], threads: usize) {
        assert_eq!(columns.len(), self.trees.len(), "column arity mismatch");
        assert!(threads > 0, "need at least one thread");
        // With zero streams there is no first column to size the batch
        // from (indexing it was the empty-set panic this module used to
        // have) and nothing to ingest.
        let Some(first) = columns.first() else {
            return;
        };
        let len = first.as_ref().len();
        assert!(
            columns.iter().all(|c| c.as_ref().len() == len),
            "columns must have equal lengths"
        );
        let workers = threads.min(self.trees.len());
        if workers == 1 {
            for (tree, col) in self.trees.iter_mut().zip(columns) {
                tree.push_batch(col.as_ref());
            }
            return;
        }
        // Contiguous shards of ceil(streams / workers) trees each; the
        // shard boundaries depend only on the stream count and `workers`,
        // never on scheduling.
        let shard = self.trees.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (tree_shard, col_shard) in self.trees.chunks_mut(shard).zip(columns.chunks(shard)) {
                scope.spawn(move || {
                    for (tree, col) in tree_shard.iter_mut().zip(col_shard) {
                        tree.push_batch(col.as_ref());
                    }
                });
            }
        });
    }

    /// Approximate values of stream `i` over the `m` newest window
    /// indices, evaluated at resolution `opts` — served through the
    /// batched engine so the whole span shares one cover-cache lookup
    /// table.
    fn recent(&self, i: usize, m: usize, opts: QueryOptions) -> Result<Vec<f64>, TreeError> {
        let tree = &self.trees[i];
        let mut out = Vec::with_capacity(m);
        crate::scratch::with_thread_scratch(|scratch| {
            tree.point_span_into(0, m, opts, scratch, &mut out)
        })?;
        Ok(out)
    }

    /// Answer the same block of point queries against **every** stream,
    /// fanning the independent trees out across at most `threads` scoped
    /// worker threads exactly as [`Self::extend_batched`] shards
    /// ingestion: contiguous shards of `ceil(streams / workers)` trees,
    /// one [`QueryScratch`] per worker, `threads == 1` degenerating to a
    /// plain loop without spawning.
    ///
    /// Returns one answer vector per stream, in stream order. Each answer
    /// is bit-identical to [`SwatTree::point_with`] on that stream's tree,
    /// **for every thread count** — workers only partition read-only trees
    /// and write disjoint result slots, so scheduling cannot influence any
    /// value. On error, the error the lowest-numbered failing stream would
    /// report sequentially is returned.
    ///
    /// # Errors
    ///
    /// As [`SwatTree::point_with`] per stream.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn point_many(
        &self,
        indices: &[usize],
        opts: QueryOptions,
        threads: usize,
    ) -> Result<Vec<Vec<PointAnswer>>, TreeError> {
        self.query_fan_out(threads, |tree, scratch, out| {
            tree.point_many(indices, opts, scratch, out)
        })
    }

    /// Answer the same block of inner-product queries against **every**
    /// stream, sharded like [`Self::point_many`]. Returns one answer
    /// vector per stream, in stream order, each bit-identical to
    /// [`SwatTree::inner_product_with`] per query for every thread count.
    ///
    /// # Errors
    ///
    /// As [`SwatTree::inner_product_with`] per stream; the error of the
    /// lowest-numbered failing stream wins.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn inner_product_many(
        &self,
        queries: &[InnerProductQuery],
        opts: QueryOptions,
        threads: usize,
    ) -> Result<Vec<Vec<InnerProductAnswer>>, TreeError> {
        self.query_fan_out(threads, |tree, scratch, out| {
            tree.inner_product_many(queries, opts, scratch, out)
        })
    }

    /// Deterministic query fan-out: run `eval` once per tree, partitioned
    /// into the same contiguous shards as [`Self::extend_batched`], and
    /// collect per-stream results in stream order.
    fn query_fan_out<T: Send>(
        &self,
        threads: usize,
        eval: impl Fn(&SwatTree, &mut QueryScratch, &mut Vec<T>) -> Result<(), TreeError> + Sync,
    ) -> Result<Vec<Vec<T>>, TreeError> {
        assert!(threads > 0, "need at least one thread");
        // Zero streams: nothing to answer, and `div_ceil(workers)` below
        // would divide by zero (the empty-set panic this module used to
        // have on the query path).
        if self.trees.is_empty() {
            return Ok(Vec::new());
        }
        let workers = threads.min(self.trees.len());
        let mut results: Vec<Result<Vec<T>, TreeError>> =
            (0..self.trees.len()).map(|_| Ok(Vec::new())).collect();
        if workers == 1 {
            let mut scratch = QueryScratch::new();
            for (tree, slot) in self.trees.iter().zip(results.iter_mut()) {
                let mut out = Vec::new();
                *slot = eval(tree, &mut scratch, &mut out).map(|()| out);
            }
        } else {
            let shard = self.trees.len().div_ceil(workers);
            let eval = &eval;
            std::thread::scope(|scope| {
                for (tree_shard, slot_shard) in
                    self.trees.chunks(shard).zip(results.chunks_mut(shard))
                {
                    scope.spawn(move || {
                        let mut scratch = QueryScratch::new();
                        for (tree, slot) in tree_shard.iter().zip(slot_shard.iter_mut()) {
                            let mut out = Vec::new();
                            *slot = eval(tree, &mut scratch, &mut out).map(|()| out);
                        }
                    });
                }
            });
        }
        // First error in stream order, independent of which worker hit it
        // first in wall-clock time.
        results.into_iter().collect()
    }

    /// Approximate inner product `Σ x_a[i] · x_b[i]` over the `m` newest
    /// values of streams `a` and `b`.
    ///
    /// # Errors
    ///
    /// Propagates coverage errors while the trees warm up.
    ///
    /// # Panics
    ///
    /// Panics if a stream index is out of range or `m == 0`.
    pub fn inner_product_between(&self, a: usize, b: usize, m: usize) -> Result<f64, TreeError> {
        self.inner_product_between_with(a, b, m, self.config().default_opts())
    }

    /// As [`Self::inner_product_between`] with explicit resolution.
    ///
    /// # Errors
    ///
    /// Propagates coverage errors while the trees warm up.
    pub fn inner_product_between_with(
        &self,
        a: usize,
        b: usize,
        m: usize,
        opts: QueryOptions,
    ) -> Result<f64, TreeError> {
        assert!(m > 0, "need at least one value");
        let xa = self.recent(a, m, opts)?;
        let xb = self.recent(b, m, opts)?;
        Ok(xa.iter().zip(&xb).map(|(x, y)| x * y).sum())
    }

    /// Pearson correlation of streams `a` and `b` over their `m` newest
    /// values, estimated from the summaries (the paper's reference \[17\]
    /// style normalized-window correlation, §1.1). Returns 0 when either stream
    /// is constant over the span.
    ///
    /// # Errors
    ///
    /// Propagates coverage errors while the trees warm up.
    ///
    /// # Panics
    ///
    /// Panics if a stream index is out of range or `m < 2`.
    pub fn correlation(&self, a: usize, b: usize, m: usize) -> Result<f64, TreeError> {
        self.correlation_with(a, b, m, self.config().default_opts())
    }

    /// As [`Self::correlation`] with explicit resolution.
    ///
    /// # Errors
    ///
    /// Propagates coverage errors while the trees warm up.
    pub fn correlation_with(
        &self,
        a: usize,
        b: usize,
        m: usize,
        opts: QueryOptions,
    ) -> Result<f64, TreeError> {
        assert!(m >= 2, "correlation needs at least two values");
        let xa = self.recent(a, m, opts)?;
        let xb = self.recent(b, m, opts)?;
        Ok(pearson(&xa, &xb))
    }
}

/// Magic prefix of a [`StreamSet::snapshot`] buffer.
const SET_MAGIC: &[u8; 4] = b"SWMS";
const SET_VERSION: u8 = 2;
const SET_VERSION_V1: u8 = 1;
/// Section tag wrapping one stream's tree snapshot.
const SEC_STREAM: u8 = 5;

impl StreamSet {
    /// Serialize the whole set: a header carrying the shared
    /// configuration, then one checksummed frame per stream containing
    /// that tree's [`SwatTree::snapshot`] bytes.
    ///
    /// ```text
    /// magic "SWMS"  u8 version = 2
    /// u64 window  u64 k  u64 min_level  u64 streams
    /// per stream: [u8 5][u32 len][u32 crc][tree snapshot v2]
    /// ```
    ///
    /// Version 2 moved the configuration into the header so that a set
    /// with **zero** streams round-trips (v1 derived the configuration
    /// from the first stream and therefore could not represent an empty
    /// set); per-stream configs are validated against the header on
    /// restore.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SET_MAGIC);
        out.push(SET_VERSION);
        out.extend_from_slice(&(self.config.window() as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.coefficients() as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.min_level() as u64).to_le_bytes());
        out.extend_from_slice(&(self.trees.len() as u64).to_le_bytes());
        for tree in &self.trees {
            write_frame(&mut out, SEC_STREAM, &tree.snapshot());
        }
        out
    }

    /// Rebuild a set from [`StreamSet::snapshot`] bytes. Accepts the
    /// current v2 format and the legacy v1 layout (which has no header
    /// configuration and requires at least one stream).
    ///
    /// All streams must restore under the same configuration and clock
    /// (the set only ever ingests synchronized rows). Offsets reported by
    /// errors from inside a stream frame are relative to that frame's
    /// payload.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn restore(bytes: &[u8]) -> Result<StreamSet, SnapshotError> {
        let mut c = Cursor::new(bytes);
        if c.take(4)? != SET_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = c.u8()?;
        match version {
            SET_VERSION_V1 => Self::restore_v1(&mut c),
            SET_VERSION => Self::restore_v2(&mut c),
            v => Err(SnapshotError::BadVersion(v)),
        }
    }

    /// Parse the v2 body: explicit configuration header, then `streams`
    /// framed tree snapshots, each validated against the header.
    fn restore_v2(c: &mut Cursor<'_>) -> Result<StreamSet, SnapshotError> {
        let config_at = c.offset();
        let window = c.u64()? as usize;
        let k = c.u64()? as usize;
        let min_level = c.u64()? as usize;
        let config = SwatConfig::with_coefficients(window, k)
            .and_then(|cfg| cfg.with_min_level(min_level))
            .map_err(|_| SnapshotError::Invalid {
                what: "bad window/coefficient/min-level config",
                offset: config_at,
            })?;
        let count = c.u64()? as usize;
        let mut trees = Vec::new();
        for _ in 0..count {
            let at = c.offset();
            let tree = Self::read_stream_frame(c, at)?;
            if *tree.config() != config {
                return Err(SnapshotError::Invalid {
                    what: "stream config mismatch",
                    offset: at,
                });
            }
            if let Some(first) = trees.first() {
                let first: &SwatTree = first;
                if tree.arrivals() != first.arrivals() {
                    return Err(SnapshotError::Invalid {
                        what: "stream clock mismatch",
                        offset: at,
                    });
                }
            }
            trees.push(tree);
        }
        Self::finish_restore(c, config, trees)
    }

    /// Parse the legacy v1 body: a bare stream count (necessarily
    /// nonzero — the format has nowhere else to carry the configuration)
    /// followed by framed tree snapshots.
    fn restore_v1(c: &mut Cursor<'_>) -> Result<StreamSet, SnapshotError> {
        let count_at = c.offset();
        let count = c.u64()? as usize;
        if count == 0 {
            return Err(SnapshotError::Invalid {
                what: "zero streams",
                offset: count_at,
            });
        }
        let mut trees: Vec<SwatTree> = Vec::new();
        for _ in 0..count {
            let at = c.offset();
            let tree = Self::read_stream_frame(c, at)?;
            if let Some(first) = trees.first() {
                if tree.config() != first.config() {
                    return Err(SnapshotError::Invalid {
                        what: "stream config mismatch",
                        offset: at,
                    });
                }
                if tree.arrivals() != first.arrivals() {
                    return Err(SnapshotError::Invalid {
                        what: "stream clock mismatch",
                        offset: at,
                    });
                }
            }
            trees.push(tree);
        }
        let config = *trees[0].config();
        Self::finish_restore(c, config, trees)
    }

    /// Read one framed stream section and restore its tree.
    fn read_stream_frame(c: &mut Cursor<'_>, at: usize) -> Result<SwatTree, SnapshotError> {
        let (tag, mut payload) = c.frame()?;
        if tag != SEC_STREAM {
            return Err(SnapshotError::Invalid {
                what: "expected STREAM section",
                offset: at,
            });
        }
        SwatTree::restore(payload.rest())
    }

    /// Shared tail of both restore paths: reject trailing bytes.
    fn finish_restore(
        c: &mut Cursor<'_>,
        config: SwatConfig,
        trees: Vec<SwatTree>,
    ) -> Result<StreamSet, SnapshotError> {
        if !c.is_empty() {
            return Err(SnapshotError::Invalid {
                what: "trailing bytes",
                offset: c.offset(),
            });
        }
        Ok(StreamSet {
            config,
            trees,
            columns: Vec::new(),
        })
    }

    /// Order-sensitive digest over every stream's
    /// [`SwatTree::answers_digest`]: equal digests mean every query on
    /// every stream answers identically.
    pub fn answers_digest(&self) -> u64 {
        let mut h = digest::mix(digest::SEED, self.trees.len() as u64);
        for tree in &self.trees {
            h = digest::mix(h, tree.answers_digest());
        }
        h
    }
}

/// Pearson correlation of two equal-length slices (0 for degenerate
/// inputs).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(set: &mut StreamSet, n: usize, f: impl Fn(usize) -> Vec<f64>) {
        for i in 0..n {
            set.push_row(&f(i));
        }
    }

    #[test]
    fn perfectly_correlated_streams() {
        let mut set = StreamSet::new(SwatConfig::new(64).unwrap(), 2);
        feed(&mut set, 200, |i| {
            let x = (i as f64 * 0.3).sin() * 10.0;
            vec![x, 3.0 * x - 5.0]
        });
        let rho = set.correlation(0, 1, 64).unwrap();
        assert!(rho > 0.99, "rho = {rho}");
    }

    #[test]
    fn anti_correlated_streams() {
        let mut set = StreamSet::new(SwatConfig::new(64).unwrap(), 2);
        feed(&mut set, 200, |i| {
            let x = ((i * 17) % 29) as f64;
            vec![x, 100.0 - x]
        });
        let rho = set.correlation(0, 1, 32).unwrap();
        assert!(rho < -0.9, "rho = {rho}");
    }

    #[test]
    fn independent_streams_have_weak_correlation() {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(64, 64).unwrap(), 2);
        // Two decorrelated pseudo-random sequences.
        feed(&mut set, 400, |i| {
            vec![((i * 7919) % 104729) as f64, ((i * 104729) % 7919) as f64]
        });
        let rho = set.correlation(0, 1, 64).unwrap();
        assert!(rho.abs() < 0.4, "rho = {rho}");
    }

    #[test]
    fn lossless_trees_give_exact_correlation() {
        let n = 32;
        let mut set = StreamSet::new(SwatConfig::with_coefficients(n, n).unwrap(), 2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..3 * n {
            let x = ((i * 13) % 37) as f64;
            let y = ((i * 7 + 3) % 23) as f64;
            set.push_row(&[x, y]);
            xs.push(x);
            ys.push(y);
        }
        // Exact correlation over the newest n values (newest first).
        let wx: Vec<f64> = xs.iter().rev().take(n).copied().collect();
        let wy: Vec<f64> = ys.iter().rev().take(n).copied().collect();
        let exact = pearson(&wx, &wy);
        let est = set.correlation(0, 1, n).unwrap();
        assert!((est - exact).abs() < 1e-9, "{est} vs {exact}");
    }

    #[test]
    fn constant_streams_yield_zero() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        feed(&mut set, 64, |_| vec![5.0, 7.0]);
        assert_eq!(set.correlation(0, 1, 16).unwrap(), 0.0);
    }

    #[test]
    fn inner_product_between_matches_reconstructions() {
        let mut set = StreamSet::new(SwatConfig::new(32).unwrap(), 3);
        feed(&mut set, 100, |i| {
            vec![i as f64 % 11.0, i as f64 % 7.0, 1.0]
        });
        // Against the all-ones stream, the pairwise inner product is the
        // sum of stream 0's reconstruction.
        let ip = set.inner_product_between(0, 2, 16).unwrap();
        let direct: f64 = (0..16)
            .map(|idx| set.tree(0).point(idx).unwrap().value)
            .sum();
        assert!((ip - direct).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        set.push_row(&[1.0]);
    }

    /// Per-stream synthetic columns, deterministic in (stream, index).
    fn columns(streams: usize, len: usize) -> Vec<Vec<f64>> {
        (0..streams)
            .map(|s| {
                (0..len)
                    .map(|i| ((i * (2 * s + 3) + s) % 53) as f64 - 26.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn extend_batched_matches_rows_for_any_thread_count() {
        for (n, k, streams) in [(16, 1, 5), (32, 4, 8), (8, 8, 3)] {
            let config = SwatConfig::with_coefficients(n, k).unwrap();
            let cols = columns(streams, 3 * n + 1);
            // Reference: row-at-a-time sequential ingestion.
            let mut reference = StreamSet::new(config, streams);
            for i in 0..cols[0].len() {
                let row: Vec<f64> = cols.iter().map(|c| c[i]).collect();
                reference.push_row(&row);
            }
            for threads in [1usize, 2, 3, 7, 16] {
                let mut sharded = StreamSet::new(config, streams);
                sharded.extend_batched(&cols, threads);
                for s in 0..streams {
                    let a = reference.tree(s);
                    let b = sharded.tree(s);
                    assert_eq!(a.arrivals(), b.arrivals());
                    assert_eq!(a.newest(), b.newest());
                    let nodes_a: Vec<_> = a.nodes().collect();
                    let nodes_b: Vec<_> = b.nodes().collect();
                    assert_eq!(
                        nodes_a, nodes_b,
                        "n={n} k={k} streams={streams} threads={threads} stream {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_batched_supports_incremental_blocks() {
        let config = SwatConfig::new(16).unwrap();
        let cols = columns(4, 40);
        let mut whole = StreamSet::new(config, 4);
        whole.extend_batched(&cols, 2);
        let mut blocks = StreamSet::new(config, 4);
        for start in (0..40).step_by(9) {
            let end = (start + 9).min(40);
            let part: Vec<&[f64]> = cols.iter().map(|c| &c[start..end]).collect();
            blocks.extend_batched(&part, 3);
        }
        for s in 0..4 {
            let a: Vec<_> = whole.tree(s).nodes().collect();
            let b: Vec<_> = blocks.tree(s).nodes().collect();
            assert_eq!(a, b, "stream {s}");
        }
    }

    #[test]
    fn query_fan_out_matches_sequential_for_any_thread_count() {
        use crate::query::InnerProductQuery;
        let streams = 7;
        let mut set = StreamSet::new(SwatConfig::with_coefficients(32, 4).unwrap(), streams);
        set.extend_batched(&columns(streams, 100), 2);
        let indices: Vec<usize> = vec![0, 1, 5, 17, 31];
        let queries = [
            InnerProductQuery::exponential(16, 1e9),
            InnerProductQuery::linear_at(3, 20, 1e9),
        ];
        // Sequential reference: one-at-a-time public API per tree.
        let pts_ref: Vec<Vec<_>> = (0..streams)
            .map(|s| {
                indices
                    .iter()
                    .map(|&i| set.tree(s).point(i).unwrap())
                    .collect()
            })
            .collect();
        let ips_ref: Vec<Vec<_>> = (0..streams)
            .map(|s| {
                queries
                    .iter()
                    .map(|q| set.tree(s).inner_product(q).unwrap())
                    .collect()
            })
            .collect();
        for threads in [1usize, 2, 3, 7, 16] {
            let pts = set
                .point_many(&indices, QueryOptions::default(), threads)
                .unwrap();
            assert_eq!(pts, pts_ref, "points, threads={threads}");
            let ips = set
                .inner_product_many(&queries, QueryOptions::default(), threads)
                .unwrap();
            assert_eq!(ips, ips_ref, "inner products, threads={threads}");
        }
    }

    #[test]
    fn query_fan_out_reports_first_stream_error() {
        // Cold trees: every stream fails; the stream-order-first error for
        // index 0 must come back regardless of thread count.
        let set = StreamSet::new(SwatConfig::new(16).unwrap(), 5);
        for threads in [1usize, 2, 4, 8] {
            let err = set
                .point_many(&[0], QueryOptions::default(), threads)
                .unwrap_err();
            assert_eq!(err, TreeError::Uncovered { index: 0 });
        }
    }

    #[test]
    #[should_panic(expected = "column arity")]
    fn extend_batched_rejects_wrong_arity() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        set.extend_batched(&columns(3, 4), 2);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn extend_batched_rejects_ragged_columns() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        set.extend_batched(&[vec![1.0, 2.0], vec![3.0]], 2);
    }

    #[test]
    fn empty_set_operations_never_panic() {
        // Regression: `extend_batched` indexed `columns[0]` and
        // `query_fan_out` computed `len.div_ceil(0)` on empty sets.
        use crate::query::InnerProductQuery;
        let config = SwatConfig::new(16).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let mut set = StreamSet::new(config, 0);
            assert_eq!(set.streams(), 0);
            assert_eq!(set.config().window(), 16);
            set.push_row(&[]);
            let no_columns: [Vec<f64>; 0] = [];
            set.extend_batched(&no_columns, threads);
            let pts = set
                .point_many(&[0, 3, 15], QueryOptions::default(), threads)
                .unwrap();
            assert!(pts.is_empty(), "threads={threads}");
            let ips = set
                .inner_product_many(
                    &[InnerProductQuery::exponential(8, 1e9)],
                    QueryOptions::default(),
                    threads,
                )
                .unwrap();
            assert!(ips.is_empty(), "threads={threads}");
            assert_eq!(
                set.answers_digest(),
                StreamSet::new(config, 0).answers_digest()
            );
        }
    }

    #[test]
    fn empty_set_snapshot_roundtrips() {
        let config = SwatConfig::with_coefficients(32, 4)
            .unwrap()
            .with_min_level(2)
            .unwrap();
        let set = StreamSet::new(config, 0);
        let restored = StreamSet::restore(&set.snapshot()).unwrap();
        assert_eq!(restored.streams(), 0);
        assert_eq!(restored.config(), set.config());
        assert_eq!(restored.answers_digest(), set.answers_digest());
    }

    #[test]
    fn single_stream_set_matches_lone_tree_for_any_thread_count() {
        let config = SwatConfig::with_coefficients(16, 2).unwrap();
        let cols = columns(1, 50);
        let mut oracle = SwatTree::new(config);
        oracle.push_batch(&cols[0]);
        let indices = [0usize, 1, 7, 15];
        for threads in [1usize, 2, 4, 8] {
            let mut set = StreamSet::new(config, 1);
            set.extend_batched(&cols, threads);
            assert_eq!(
                set.tree(0).answers_digest(),
                oracle.answers_digest(),
                "threads={threads}"
            );
            let pts = set
                .point_many(&indices, QueryOptions::default(), threads)
                .unwrap();
            assert_eq!(pts.len(), 1);
            for (slot, &idx) in pts[0].iter().zip(&indices) {
                assert_eq!(
                    *slot,
                    oracle.point(idx).unwrap(),
                    "threads={threads} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn v1_set_snapshots_remain_readable() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        for i in 0..50 {
            set.push_row(&[i as f64, 1.0 - i as f64]);
        }
        // The v1 writer, frozen here so compatibility stays testable: a
        // bare stream count with no configuration header.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SET_MAGIC);
        bytes.push(SET_VERSION_V1);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        for s in 0..2 {
            write_frame(&mut bytes, SEC_STREAM, &set.tree(s).snapshot());
        }
        let restored = StreamSet::restore(&bytes).unwrap();
        assert_eq!(restored.config(), set.config());
        assert_eq!(restored.answers_digest(), set.answers_digest());
        // v1 cannot carry an empty set: its configuration lives in the
        // first stream, so a zero count stays an error.
        let mut empty = Vec::new();
        empty.extend_from_slice(SET_MAGIC);
        empty.push(SET_VERSION_V1);
        empty.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            StreamSet::restore(&empty),
            Err(SnapshotError::Invalid {
                what: "zero streams",
                ..
            })
        ));
    }

    #[test]
    fn snapshot_roundtrip_preserves_every_stream() {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(32, 2).unwrap(), 3);
        for i in 0..150 {
            let x = (i as f64 * 0.31).sin();
            set.push_row(&[x, x * 2.0, 5.0 - x]);
        }
        let restored = StreamSet::restore(&set.snapshot()).unwrap();
        assert_eq!(restored.streams(), 3);
        assert_eq!(restored.answers_digest(), set.answers_digest());
        for s in 0..3 {
            for idx in 0..32 {
                assert_eq!(
                    set.tree(s).point(idx).unwrap(),
                    restored.tree(s).point(idx).unwrap(),
                    "stream {s} idx {idx}"
                );
            }
        }
        // Restored sets keep ingesting identically.
        let mut a = set;
        let mut b = restored;
        for i in 0..40 {
            let row = [i as f64, -(i as f64), 0.5];
            a.push_row(&row);
            b.push_row(&row);
        }
        assert_eq!(a.answers_digest(), b.answers_digest());
    }

    #[test]
    fn snapshot_restore_rejects_corruption() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        for i in 0..50 {
            set.push_row(&[i as f64, 2.0 * i as f64]);
        }
        let bytes = set.snapshot();
        let digest = set.answers_digest();
        assert!(matches!(
            StreamSet::restore(b"????xxxx"),
            Err(SnapshotError::BadMagic)
        ));
        for cut in 0..bytes.len() {
            assert!(StreamSet::restore(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1 << (byte % 8);
            if let Ok(r) = StreamSet::restore(&bad) {
                assert_eq!(r.answers_digest(), digest, "flip at byte {byte}");
            }
        }
    }
}
