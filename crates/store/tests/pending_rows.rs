//! The store's trees lag its pushed clock: `push_row` only logs a row,
//! and the trees apply pending rows a block at a time. No caller may
//! observe that lag. Every read — `set()`, `answers_digest()`,
//! `history()`, `status()`, `arrivals()` — at any point between pushes,
//! freezes and checkpoints must equal a plain `StreamSet` fed the same
//! rows one `push_row` at a time, and a crash with rows still pending
//! must recover the synced digest.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use swat_store::{DurableStore, RecoveryManager, StoreOptions};
use swat_tree::{StreamSet, SwatConfig};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "swat-pending-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic, seed-dependent row for arrival `i`.
fn row(seed: u64, streams: usize, i: u64) -> Vec<f64> {
    (0..streams)
        .map(|s| {
            let x = (seed ^ (i << 8) ^ s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((x >> 12) as f64 / (1u64 << 52) as f64) * 100.0 - 50.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_read_sees_every_pushed_row(
        streams in prop::sample::select(vec![1usize, 3, 64]),
        freeze_rows in prop::sample::select(vec![0u64, 37, 300]),
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u8..8, 1u64..200), 1..12),
    ) {
        let config = SwatConfig::with_coefficients(32, 4).unwrap();
        let dir = fresh_dir("prop");
        let opts = StoreOptions {
            freeze_rows,
            compact_fanin: 2,
            retry_backoff: Duration::from_millis(1),
            ..StoreOptions::default()
        };
        let mut store = DurableStore::create_with(&dir, config, streams, opts).unwrap();
        let mut plain = StreamSet::new(config, streams);
        let mut pushed: Vec<Vec<f64>> = Vec::new();
        for (op, n) in ops {
            // Every op follows a run of pushes, so reads land both right
            // after a settle and with up to a budget of rows pending.
            for _ in 0..n {
                let r = row(seed, streams, pushed.len() as u64);
                store.push_row(&r).unwrap();
                plain.push_row(&r);
                pushed.push(r);
            }
            let t = pushed.len() as u64;
            match op {
                0 => prop_assert_eq!(store.set().answers_digest(), plain.answers_digest()),
                1 => prop_assert_eq!(store.answers_digest(), plain.answers_digest()),
                2 => {
                    let s = (seed as usize + t as usize) % streams;
                    let from = seed % t;
                    let got = store.history(s, from, t + 5).unwrap();
                    let want: Vec<f64> = pushed[from as usize..].iter().map(|r| r[s]).collect();
                    prop_assert_eq!(got, want);
                }
                3 => {
                    prop_assert_eq!(store.status().arrivals, t);
                    prop_assert_eq!(store.arrivals(), t);
                }
                4 => store.freeze(),
                5 => store.checkpoint().unwrap(),
                6 => store.sync().unwrap(),
                _ => {
                    let set = store.set();
                    prop_assert_eq!(set.tree(0).arrivals(), t);
                    let s = streams - 1;
                    prop_assert_eq!(
                        set.tree(s).point(0).map(|a| a.value.to_bits()).ok(),
                        plain.tree(s).point(0).map(|a| a.value.to_bits()).ok()
                    );
                }
            }
        }
        // A digest taken with rows pending leaves the store as it was.
        let before = store.answers_digest();
        prop_assert_eq!(before, plain.answers_digest());
        prop_assert_eq!(store.set().answers_digest(), before);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_with_synced_rows_still_pending_recovers_the_synced_digest() {
    // 64 streams: 100 rows stay well below the settle budget, so the
    // trees have applied none of them when sync() acknowledges them.
    let streams = 64;
    let config = SwatConfig::with_coefficients(256, 4).unwrap();
    for (rows, checkpoint_at) in [(100u64, None), (300, None), (4200, Some(4100))] {
        let dir = fresh_dir("crash");
        let mut store = DurableStore::create(&dir, config, streams).unwrap();
        let mut plain = StreamSet::new(config, streams);
        for i in 0..rows {
            let r = row(7, streams, i);
            store.push_row(&r).unwrap();
            plain.push_row(&r);
            if checkpoint_at == Some(i) {
                store.checkpoint().unwrap();
            }
        }
        store.sync().unwrap();
        let synced = store.answers_digest();
        assert_eq!(synced, plain.answers_digest(), "{rows} rows");
        store.crash();
        let (recovered, report) = RecoveryManager::recover(&dir).unwrap();
        assert_eq!(report.recovered_arrivals, rows);
        assert_eq!(recovered.answers_digest(), synced, "{rows} rows");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
