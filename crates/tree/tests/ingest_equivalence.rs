//! Bit-identity property suite: the blocked batch-ingest path must
//! produce trees **node-for-node identical** to the frozen scalar
//! reference (`swat_tree::ingest::reference`) for every window size,
//! coefficient budget, chunk cap, batch decomposition, and interleaving
//! of the ingest entry points — including unaligned heads and tails.

use proptest::prelude::*;
use swat_tree::ingest::reference;
use swat_tree::{IngestScratch, StreamSet, SwatConfig, SwatTree};

/// Assert two trees are observably identical, node by node (clearer
/// failure messages than the digest alone), then cross-check the digest.
fn assert_identical(blocked: &SwatTree, frozen: &SwatTree, ctx: &str) {
    let a: Vec<_> = blocked.nodes().collect();
    let b: Vec<_> = frozen.nodes().collect();
    assert_eq!(a.len(), b.len(), "summary count mismatch ({ctx})");
    for ((la, pa, sa), (lb, pb, sb)) in a.iter().zip(&b) {
        assert_eq!((la, pa), (lb, pb), "node order mismatch ({ctx})");
        assert_eq!(
            sa.created_at(),
            sb.created_at(),
            "created_at mismatch at level {la} {pa:?} ({ctx})"
        );
        assert_eq!(
            sa.range().lo().to_bits(),
            sb.range().lo().to_bits(),
            "range lo bits mismatch at level {la} {pa:?} ({ctx})"
        );
        assert_eq!(
            sa.range().hi().to_bits(),
            sb.range().hi().to_bits(),
            "range hi bits mismatch at level {la} {pa:?} ({ctx})"
        );
        let ca: Vec<u64> = sa
            .coeffs()
            .coefficients()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        let cb: Vec<u64> = sb
            .coeffs()
            .coefficients()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(
            ca, cb,
            "coefficient bits mismatch at level {la} {pa:?} ({ctx})"
        );
    }
    assert_eq!(
        blocked.answers_digest(),
        frozen.answers_digest(),
        "digest mismatch ({ctx})"
    );
}

/// A value stream exercising varied magnitudes and signs (finite only).
fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            -1e6f64..1e6,
            -1.0f64..1.0,
            Just(0.0),
            (-50i32..50).prop_map(f64::from),
        ],
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One big batch vs the frozen per-value reference, across window
    /// sizes, budgets, chunk caps, and total lengths (aligned or not).
    #[test]
    fn single_batch_matches_reference(
        (log_n, k, total, chunk_cap, vals) in (2u32..=8).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (
                Just(log_n),
                prop_oneof![Just(1usize), Just(2), Just(3), Just(8), Just(17)],
                0usize..(3 * n + 5),
                prop_oneof![Just(8usize), Just(16), Just(64), Just(1024)],
            )
                .prop_flat_map(|(log_n, k, total, cap)| {
                    (Just(log_n), Just(k), Just(total), Just(cap), values(total))
                })
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut blocked = SwatTree::new(config);
        let mut scratch = IngestScratch::with_max_chunk(chunk_cap);
        blocked.push_batch_with_scratch(&vals, &mut scratch);
        let mut frozen = SwatTree::new(config);
        reference::push_batch(&mut frozen, &vals);
        assert_identical(&blocked, &frozen, &format!("n={n} k={k} total={total} cap={chunk_cap}"));
    }

    /// Arbitrary batch decompositions — including 1-value batches (the
    /// scalar head/tail path) and batches crossing chunk boundaries —
    /// all collapse to the same tree.
    #[test]
    fn arbitrary_splits_match_reference(
        (log_n, k, vals, splits) in (2u32..=7).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (2 * n..3 * n).prop_flat_map(move |total| {
                (
                    Just(log_n),
                    prop_oneof![Just(1usize), Just(3), Just(8)],
                    values(total),
                    prop::collection::vec(1usize..=total.max(1), 0..12),
                )
            })
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut blocked = SwatTree::new(config);
        let mut rest: &[f64] = &vals;
        for &s in &splits {
            if rest.is_empty() { break; }
            let cut = s.min(rest.len());
            blocked.push_batch(&rest[..cut]);
            rest = &rest[cut..];
        }
        blocked.push_batch(rest);
        let mut frozen = SwatTree::new(config);
        reference::push_batch(&mut frozen, &vals);
        assert_identical(&blocked, &frozen, &format!("n={n} k={k} splits={splits:?}"));
    }

    /// Interleaving scalar `push`, batched `push_batch`, and iterator
    /// `extend` still matches the reference stream byte for byte.
    #[test]
    fn interleaved_entry_points_match_reference(
        (log_n, k, ops) in (2u32..=7).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (
                Just(log_n),
                prop_oneof![Just(2usize), Just(8), Just(17)],
                prop::collection::vec(
                    (0u8..3, 1usize..n.max(2), -100.0f64..100.0),
                    1..10,
                ),
            )
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut blocked = SwatTree::new(config);
        let mut all = Vec::new();
        for (mode, len, seed) in ops {
            let vals: Vec<f64> = (0..len).map(|i| seed + i as f64 * 0.75).collect();
            match mode {
                0 => for &v in &vals { blocked.push(v); },
                1 => blocked.push_batch(&vals),
                _ => blocked.extend(vals.iter().copied()),
            }
            all.extend_from_slice(&vals);
        }
        let mut frozen = SwatTree::new(config);
        reference::push_batch(&mut frozen, &all);
        assert_identical(&blocked, &frozen, &format!("n={n} k={k} len={}", all.len()));
    }

    /// Snapshot round-trips mid-stream don't disturb the blocked path:
    /// a restored tree continues bit-identically (boundary verification
    /// accepts stream-grown slab states).
    #[test]
    fn restored_trees_continue_identically(
        (log_n, k, head, tail) in (3u32..=7).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (0..2 * n).prop_flat_map(move |head_len| {
                (
                    Just(log_n),
                    prop_oneof![Just(1usize), Just(8)],
                    values(head_len),
                    values(2 * n),
                )
            })
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut tree = SwatTree::new(config);
        tree.push_batch(&head);
        let bytes = tree.snapshot();
        let mut restored = SwatTree::restore(&bytes).unwrap();
        restored.push_batch(&tail);
        let mut frozen = SwatTree::new(config);
        let mut all = head.clone();
        all.extend_from_slice(&tail);
        reference::push_batch(&mut frozen, &all);
        assert_identical(&restored, &frozen, &format!("n={n} k={k} head={}", head.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `StreamSet::push_rows` over arbitrary row blocks — empty blocks,
    /// single rows, blocks starting at unaligned clocks and blocks
    /// crossing level boundaries — leaves every stream's tree node for
    /// node identical to `push_row` called once per row.
    #[test]
    fn push_rows_matches_push_row_per_row(
        (log_n, k, streams, rows, blocks) in (2u32..=6).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (1usize..5, 0usize..(3 * n + 9)).prop_flat_map(move |(streams, rows)| {
                (
                    Just(log_n),
                    prop_oneof![Just(1usize), Just(3), Just(4), Just(8)],
                    Just(streams),
                    values(streams * rows),
                    prop::collection::vec(0usize..=(n + 3), 0..16),
                )
            })
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut blocked = StreamSet::new(config, streams);
        let mut rest: &[f64] = &rows;
        for &b in &blocks {
            let cut = (b * streams).min(rest.len());
            blocked.push_rows(&rest[..cut]);
            rest = &rest[cut..];
        }
        blocked.push_rows(rest);
        let mut rowed = StreamSet::new(config, streams);
        for row in rows.chunks_exact(streams) {
            rowed.push_row(row);
        }
        for s in 0..streams {
            assert_identical(
                blocked.tree(s),
                rowed.tree(s),
                &format!("n={n} k={k} streams={streams} stream={s} blocks={blocks:?}"),
            );
        }
        prop_assert_eq!(blocked.answers_digest(), rowed.answers_digest());
    }
}

/// A set with zero streams takes an empty block as a no-op and refuses
/// a non-empty one, like `push_row`.
#[test]
fn push_rows_on_a_zero_stream_set() {
    let config = SwatConfig::with_coefficients(16, 4).unwrap();
    let mut set = StreamSet::new(config, 0);
    set.push_rows(&[]);
    assert_eq!(
        set.answers_digest(),
        StreamSet::new(config, 0).answers_digest()
    );
    let refused = std::panic::catch_unwind(move || set.push_rows(&[1.0]));
    assert!(refused.is_err(), "a value for no stream must be refused");
}

/// A block whose length is not a whole number of rows is refused
/// before any tree changes.
#[test]
#[should_panic(expected = "row arity mismatch")]
fn push_rows_rejects_a_partial_row() {
    let config = SwatConfig::with_coefficients(16, 4).unwrap();
    StreamSet::new(config, 3).push_rows(&[1.0, 2.0, 3.0, 4.0]);
}

/// Deterministic large case: multiple 1024-value chunks, plus unaligned
/// head/tail, at the bench's window and budget.
#[test]
fn large_stream_crosses_max_chunks() {
    for k in [1usize, 3, 8] {
        let config = SwatConfig::with_coefficients(4096, k).unwrap();
        let vals: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761u64) % 10_007) as f64 * 0.01 - 50.0)
            .collect();
        let mut blocked = SwatTree::new(config);
        blocked.push(vals[0]);
        blocked.push_batch(&vals[1..7]);
        blocked.push_batch(&vals[7..9_500]);
        blocked.extend(vals[9_500..].iter().copied());
        let mut frozen = SwatTree::new(config);
        reference::push_batch(&mut frozen, &vals);
        assert_identical(&blocked, &frozen, &format!("large k={k}"));
    }
}

/// The frozen reference matches the scalar `push` loop (it is the same
/// code); the blocked path matches both.
#[test]
fn reference_matches_scalar_push() {
    let config = SwatConfig::with_coefficients(64, 8).unwrap();
    let vals: Vec<f64> = (0..300).map(|i| (i as f64).sin() * 40.0).collect();
    let mut pushed = SwatTree::new(config);
    for &v in &vals {
        pushed.push(v);
    }
    let mut frozen = SwatTree::new(config);
    for &v in &vals {
        reference::push(&mut frozen, v);
    }
    assert_identical(&pushed, &frozen, "push vs reference::push");
    let mut extended = SwatTree::new(config);
    reference::extend(&mut extended, vals.iter().copied());
    assert_identical(&extended, &frozen, "reference extend vs push");
}

/// `try_push_batch` rejects mid-stream NaN without mutating; the fused
/// single-pass validation keeps the all-or-nothing contract even when
/// the bad value sits past several valid chunks.
#[test]
fn try_push_batch_all_or_nothing_across_chunks() {
    let config = SwatConfig::with_coefficients(256, 8).unwrap();
    let mut tree = SwatTree::new(config);
    tree.push_batch(&vec![1.5; 256]);
    let before = tree.answers_digest();
    let mut vals = vec![2.5; 1400];
    vals[1337] = f64::NAN;
    let err = tree.try_push_batch(&vals).unwrap_err();
    assert_eq!(
        format!("{err}"),
        format!(
            "{}",
            swat_tree::TreeError::NonFinite {
                position: 256 + 1337
            }
        )
    );
    assert_eq!(
        tree.answers_digest(),
        before,
        "failed batch must not mutate"
    );
    // And the happy path afterwards still works.
    vals[1337] = 2.5;
    tree.try_push_batch(&vals).unwrap();
}
