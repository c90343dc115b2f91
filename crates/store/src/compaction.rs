//! Background compaction of checkpoint segments.
//!
//! Each flush appends one `freeze_rows`-sized segment; left alone, a
//! long-lived store would accumulate thousands of small files and
//! recovery would open every one. Compaction merges `fanin` adjacent
//! segments into a single larger one: concatenated rows, a rebuilt bloom
//! filter, and the snapshot of the newest input (which *is* the state at
//! the merged end — rows are replayed in arrival order, so the last
//! input's snapshot is bit-identical to replaying all of them).
//!
//! ## Size tiers
//!
//! Only segments of similar size merge: a run qualifies when its largest
//! input holds less than [`TIER_RATIO`] times the rows of its smallest. A
//! stream of `freeze_rows` segments therefore merges into tiers of
//! `fanin`, `fanin²`, … times that size, and each row is rewritten at
//! most once per tier — `⌈log_fanin(max_rows / freeze_rows)⌉` times in
//! all, rather than once per merge as when a growing segment keeps
//! absorbing its small neighbours.
//!
//! ## Crash safety
//!
//! The merged segment is written atomically under its own name; the
//! manifest commit (fsync → rename → directory fsync) is the single
//! point at which the merge becomes real; inputs are deleted only after
//! that commit. A crash before the commit leaves an orphan merged
//! segment and intact inputs; a crash after it leaves orphan inputs —
//! both are detected and reclaimed by recovery, and neither loses a row.
//! A *disk fault* at any step aborts the compaction cleanly with the
//! inputs untouched.

use std::fs;
use std::path::Path;

use crate::error::StoreError;
use crate::fault::IoFaults;
use crate::io;
use crate::manifest::{self, Manifest, SegmentEntry};
use crate::segment::{self, segment_name, SegmentData};

/// Bound (exclusive) on the ratio between the row counts of a merge's
/// inputs. Below every `fanin >= 2`, so a merged segment never joins the
/// tier it came from.
const TIER_RATIO: u64 = 2;

/// The window of consecutive manifest entries the policy wants merged:
/// the oldest run of `fanin` row-bearing segments of one size tier (see
/// [`TIER_RATIO`]) whose combined rows stay within `max_rows`. Nothing is
/// proposed until the manifest holds at least `2 * fanin` segments, so
/// the hot tail is left alone.
pub fn plan_window(
    entries: &[SegmentEntry],
    fanin: usize,
    max_rows: u64,
) -> Option<std::ops::Range<usize>> {
    let fanin = fanin.max(2);
    if entries.len() < 2 * fanin {
        return None;
    }
    'starts: for start in 0..=(entries.len() - fanin) {
        let (mut total, mut least, mut most) = (0u64, u64::MAX, 0u64);
        for e in &entries[start..start + fanin] {
            let rows = e.end_t - e.start_t;
            if rows == 0 {
                // Snapshot-only anchors (legacy migration, re-anchor)
                // carry no rows and are not worth rewriting.
                continue 'starts;
            }
            total += rows;
            least = least.min(rows);
            most = most.max(rows);
        }
        if total <= max_rows && most < TIER_RATIO * least {
            return Some(start..start + fanin);
        }
    }
    None
}

/// Merge one [`plan_window`] of `m` into a single segment and commit the
/// resulting manifest. Returns the new manifest, or `None` when the
/// policy finds nothing to merge. On any error the inputs — and the
/// committed manifest — are exactly as before.
pub fn compact_once(
    faults: &IoFaults,
    dir: &Path,
    m: &Manifest,
    fanin: usize,
    max_rows: u64,
) -> Result<Option<Manifest>, StoreError> {
    let Some(window) = plan_window(&m.entries, fanin, max_rows) else {
        return Ok(None);
    };
    let inputs = &m.entries[window.clone()];
    let start_t = inputs[0].start_t;
    let end_t = inputs[inputs.len() - 1].end_t;

    // Read and fully verify every input before writing anything; a
    // corrupt input aborts the compaction (recovery owns that situation),
    // it never produces a merged segment with invented rows.
    let mut rows: Vec<f64> = Vec::new();
    let mut last_set = None;
    for e in inputs {
        let bytes = fs::read(dir.join(&e.name)).map_err(StoreError::io("read segment"))?;
        let seg = SegmentData::parse(&e.name, &bytes)?;
        if !seg.rows_complete() {
            return Err(StoreError::Corrupt {
                file: e.name.clone(),
                source: swat_tree::codec::CodecError::Invalid {
                    what: "segment row section",
                    offset: segment::SEG_HEADER_LEN,
                },
            });
        }
        rows.extend_from_slice(&seg.rows().values);
        if e.end_t == end_t {
            last_set = Some(seg.snapshot(&e.name)?);
        }
    }
    // invariant: the window is non-empty and its last entry has
    // e.end_t == end_t, so last_set is always populated here.
    let set = last_set.expect("compaction window has a last input");

    let merged_name = segment_name(start_t, end_t);
    let bytes = segment::encode(start_t, &rows, &set);
    io::write_atomic(faults, dir, &merged_name, &bytes, "write merged segment")?;

    let mut next = m.clone();
    next.seq += 1;
    next.entries.splice(
        window,
        [SegmentEntry {
            name: merged_name.clone(),
            start_t,
            end_t,
        }],
    );
    manifest::commit(faults, dir, &next)?;

    // The commit happened: the inputs are now orphans. Removal is
    // best-effort — recovery reclaims anything left behind.
    for e in inputs {
        if e.name != merged_name {
            let _ = fs::remove_file(dir.join(&e.name));
        }
    }
    Ok(Some(next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use swat_tree::{StreamSet, SwatConfig};

    use crate::fault::{IoFaultKind, IoFaultPlan};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swat-compact-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Build `n` chained segments of `rows_per` rows each on disk plus
    /// the manifest naming them; returns (manifest, all rows).
    fn seed(dir: &Path, n: usize, rows_per: u64) -> (Manifest, Vec<f64>) {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(16, 2).unwrap(), 2);
        let mut m = Manifest::default();
        let mut all = Vec::new();
        for g in 0..n {
            let start_t = g as u64 * rows_per;
            let mut rows = Vec::new();
            for i in 0..rows_per {
                let row = [(start_t + i) as f64, -((start_t + i) as f64)];
                set.push_row(&row);
                rows.extend_from_slice(&row);
            }
            let name = segment_name(start_t, start_t + rows_per);
            fs::write(dir.join(&name), segment::encode(start_t, &rows, &set)).unwrap();
            m.entries.push(SegmentEntry {
                name,
                start_t,
                end_t: start_t + rows_per,
            });
            all.extend_from_slice(&rows);
        }
        m.covered_t = n as u64 * rows_per;
        m.seq = 1;
        manifest::commit(&IoFaults::none(), dir, &m).unwrap();
        (m, all)
    }

    #[test]
    fn window_policy_respects_threshold_and_size_cap() {
        let e = |s: u64, t: u64| SegmentEntry {
            name: segment_name(s, t),
            start_t: s,
            end_t: t,
        };
        // Below 2 * fanin: nothing.
        assert_eq!(plan_window(&[e(0, 5), e(5, 10), e(10, 15)], 2, 100), None);
        // Oldest qualifying run wins.
        let six = [
            e(0, 5),
            e(5, 10),
            e(10, 15),
            e(15, 20),
            e(20, 25),
            e(25, 30),
        ];
        assert_eq!(plan_window(&six, 2, 100), Some(0..2));
        // A giant old segment is skipped, the run after it merges.
        let giant = [e(0, 1000), e(1000, 1005), e(1005, 1010), e(1010, 1015)];
        assert_eq!(plan_window(&giant, 2, 100), Some(1..3));
        // Snapshot-only anchors are never rewritten.
        let anchored = [e(0, 0), e(0, 5), e(5, 10), e(10, 15)];
        assert_eq!(plan_window(&anchored, 2, 100), Some(1..3));
    }

    /// Feed `flushes` freeze-sized segments through the policy the way
    /// the flusher does (append one, then compact until nothing
    /// qualifies) and count how often each row is rewritten.
    fn rewrites_per_row(flushes: u64, freeze: u64, fanin: usize, max_rows: u64) -> Vec<u32> {
        let e = |s: u64, t: u64| SegmentEntry {
            name: segment_name(s, t),
            start_t: s,
            end_t: t,
        };
        let mut entries = Vec::new();
        let mut rewrites = vec![0u32; (flushes * freeze) as usize];
        for f in 0..flushes {
            entries.push(e(f * freeze, (f + 1) * freeze));
            while let Some(w) = plan_window(&entries, fanin, max_rows) {
                let (start_t, end_t) = (entries[w.start].start_t, entries[w.end - 1].end_t);
                for r in &mut rewrites[start_t as usize..end_t as usize] {
                    *r += 1;
                }
                entries.splice(w, [e(start_t, end_t)]);
            }
        }
        rewrites
    }

    #[test]
    fn size_tiers_bound_rewrites_per_row() {
        for (freeze, fanin, max_rows) in [(8u64, 4usize, 512u64), (8, 2, 256), (4, 3, 200)] {
            // ⌈log_fanin(max_rows / freeze)⌉, by integer powers.
            let mut bound = 0u32;
            while freeze * (fanin as u64).pow(bound) < max_rows {
                bound += 1;
            }
            let rewrites = rewrites_per_row(300, freeze, fanin, max_rows);
            let worst = rewrites.iter().copied().max().unwrap();
            assert!(
                worst <= bound,
                "freeze {freeze} fanin {fanin} max {max_rows}: a row was rewritten \
                 {worst} times, bound {bound}"
            );
            assert!(worst > 0, "the policy must merge something");
        }
    }

    #[test]
    fn merge_is_bit_identical_and_drops_inputs() {
        let dir = tmp("merge");
        let (m, all) = seed(&dir, 4, 6);
        let next = compact_once(&IoFaults::none(), &dir, &m, 2, 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(next.entries.len(), 3);
        assert_eq!(next.covered_t, 24);
        let merged = &next.entries[0];
        assert_eq!((merged.start_t, merged.end_t), (0, 12));
        let bytes = fs::read(dir.join(&merged.name)).unwrap();
        let seg = SegmentData::parse(&merged.name, &bytes).unwrap();
        assert!(seg.rows_complete());
        assert_eq!(seg.rows().values, all[..24]);
        seg.snapshot(&merged.name).unwrap();
        // Inputs are gone; everything the manifest names exists.
        assert!(!dir.join(segment_name(0, 6)).exists());
        assert!(!dir.join(segment_name(6, 12)).exists());
        for e in &next.entries {
            assert!(dir.join(&e.name).exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_compaction_aborts_cleanly_leaving_inputs_intact() {
        let dir = tmp("fault");
        let (m, _) = seed(&dir, 4, 6);
        // Fail every step of the merged-segment write protocol in turn:
        // whatever the step, the committed manifest and inputs survive.
        for step in 0..6 {
            let faults = IoFaults::with_plan(IoFaultPlan::at(step, IoFaultKind::Eio));
            let res = compact_once(&faults, &dir, &m, 2, 1 << 20);
            if let Ok(Some(_)) = &res {
                break; // steps past the protocol's end: merge succeeded
            }
            assert!(res.is_err(), "step {step}");
            for e in &m.entries {
                assert!(dir.join(&e.name).exists(), "step {step} lost an input");
            }
            let (newest, _) = manifest::load_newest(&dir).unwrap();
            assert_eq!(newest.unwrap(), m, "step {step} moved the commit point");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
