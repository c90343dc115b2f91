//! The correctness gate: every answer must be bit-identical to the
//! in-process oracle's.

use swat_daemon::proto::{WirePointAnswer, WireRangeMatch};
use swat_daemon::Response;
use swat_tree::{PointAnswer, RangeMatch};
use swat_wavelet::TopCoeff;

/// Why an answer failed the gate.
pub type Mismatch = String;

fn same_point(a: &WirePointAnswer, b: &WirePointAnswer) -> bool {
    a.value.to_bits() == b.value.to_bits()
        && a.error_bound.to_bits() == b.error_bound.to_bits()
        && a.level == b.level
        && a.extrapolated == b.extrapolated
}

fn same_coeffs(a: &[TopCoeff], b: &[TopCoeff]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.stream == y.stream && x.index == y.index && x.value.to_bits() == y.value.to_bits()
        })
}

/// An ingest must be acknowledged by every shard, under its own id,
/// and applied (not absorbed as a duplicate).
pub fn check_ingest(resp: &Response, req_id: u64) -> Result<(), Mismatch> {
    match resp {
        Response::IngestOk {
            req_id: got,
            duplicate: false,
            failed_shards,
        } if *got == req_id && failed_shards.is_empty() => Ok(()),
        other => Err(format!("ingest {req_id}: {other:?}")),
    }
}

/// A point answer against the oracle's.
pub fn check_point(resp: &Response, want: PointAnswer) -> Result<(), Mismatch> {
    let want = WirePointAnswer::from(want);
    match resp {
        Response::PointR { answer } if same_point(answer, &want) => Ok(()),
        other => Err(format!("point: got {other:?}, want {want:?}")),
    }
}

/// A range answer against the oracle's matches.
pub fn check_range(resp: &Response, want: Vec<RangeMatch>) -> Result<(), Mismatch> {
    let want: Vec<WireRangeMatch> = want.into_iter().map(Into::into).collect();
    match resp {
        Response::RangeR { matches }
            if matches.len() == want.len()
                && matches
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.index == b.index && a.value.to_bits() == b.value.to_bits()) =>
        {
            Ok(())
        }
        other => Err(format!("range: got {other:?}, want {want:?}")),
    }
}

/// A complete top-k answer against the oracle's entries.
pub fn check_topk(resp: &Response, want: &[TopCoeff]) -> Result<(), Mismatch> {
    match resp {
        Response::TopKR {
            complete: true,
            entries,
        } if same_coeffs(entries, want) => Ok(()),
        other => Err(format!("top-k: got {other:?}, want {want:?}")),
    }
}

/// Two answers digests (`StreamSet::answers_digest`) must agree.
pub fn check_digest(what: &str, got: u64, want: u64) -> Result<(), Mismatch> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: digest {got:#018x}, want {want:#018x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_tree::{QueryOptions, RangeQuery, ShardedStreamSet, SwatConfig};

    fn oracle() -> ShardedStreamSet {
        let config = SwatConfig::with_coefficients(16, 4).unwrap();
        let mut set = ShardedStreamSet::new(config, 8, 4);
        let mut rows = crate::gen::RowGen::new(1, 8);
        for _ in 0..64 {
            set.push_row(&rows.next_row());
        }
        set
    }

    #[test]
    fn exact_answers_pass() {
        let set = oracle();
        let a = set.tree(3).point_with(5, QueryOptions::default()).unwrap();
        let resp = Response::PointR { answer: a.into() };
        assert!(check_point(&resp, a).is_ok());
        let (top, _) = set.global_top_k(4, 1);
        let resp = Response::TopKR {
            complete: true,
            entries: top.entries().to_vec(),
        };
        assert!(check_topk(&resp, top.entries()).is_ok());
        let q = RangeQuery::new(70.0, 30.0, 0, 15);
        let want = set.tree(2).range_query(&q).unwrap();
        assert!(!want.is_empty());
        let resp = Response::RangeR {
            matches: want.iter().copied().map(Into::into).collect(),
        };
        assert!(check_range(&resp, want).is_ok());
        let ack = Response::IngestOk {
            req_id: 9,
            duplicate: false,
            failed_shards: vec![],
        };
        assert!(check_ingest(&ack, 9).is_ok());
    }

    #[test]
    fn a_corrupted_point_fails() {
        let set = oracle();
        let a = set.tree(3).point_with(5, QueryOptions::default()).unwrap();
        let mut wire = WirePointAnswer::from(a);
        wire.value = f64::from_bits(wire.value.to_bits() ^ 1);
        assert!(check_point(&Response::PointR { answer: wire }, a).is_err());
        assert!(check_point(&Response::Overloaded, a).is_err());
    }

    #[test]
    fn a_corrupted_top_k_fails() {
        let set = oracle();
        let (top, _) = set.global_top_k(4, 1);
        let mut entries = top.entries().to_vec();
        entries[1].value = f64::from_bits(entries[1].value.to_bits() ^ 1);
        let resp = Response::TopKR {
            complete: true,
            entries,
        };
        assert!(check_topk(&resp, top.entries()).is_err());
        // An incomplete answer fails even with the right entries.
        let resp = Response::TopKR {
            complete: false,
            entries: top.entries().to_vec(),
        };
        assert!(check_topk(&resp, top.entries()).is_err());
    }

    #[test]
    fn a_corrupted_digest_fails() {
        let d = oracle().answers_digest();
        assert!(check_digest("recovered store", d, d).is_ok());
        assert!(check_digest("recovered store", d ^ 1, d).is_err());
    }

    #[test]
    fn a_degraded_or_duplicate_ingest_fails() {
        let degraded = Response::IngestOk {
            req_id: 9,
            duplicate: false,
            failed_shards: vec![2],
        };
        assert!(check_ingest(&degraded, 9).is_err());
        let dup = Response::IngestOk {
            req_id: 9,
            duplicate: true,
            failed_shards: vec![],
        };
        assert!(check_ingest(&dup, 9).is_err());
        assert!(check_ingest(&Response::Unavailable { node: 1 }, 9).is_err());
    }
}
