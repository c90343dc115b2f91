//! Order statistics under the benchmark's percentile rule.
//!
//! A tail percentile is only reported when at least ten samples lie
//! beyond it. With fewer samples than `p99` needs, the report falls
//! back to the highest percentile that still has ten samples beyond it
//! (never below the median) and says which percentile it used.

/// Median and tail of one latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples in the population.
    pub n: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// The reported tail value.
    pub tail: f64,
    /// The percentile the tail value actually is, in `(0, 1]`.
    pub tail_q: f64,
}

/// Samples beyond a reported tail percentile, at least.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    // The epsilon keeps `0.99 * 5000` from rounding up past rank 4950.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Summarize `samples` with `want_q` as the preferred tail percentile.
/// Sorts `samples` in place. `None` for an empty population.
pub fn summarize(samples: &mut [f64], want_q: f64) -> Option<Summary> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let mid = rank(0.5, n);
    // Index i has n - 1 - i samples beyond it.
    let most = (n - 1).saturating_sub(TAIL_MIN_BEYOND);
    let i = rank(want_q, n).min(most).max(mid);
    Some(Summary {
        n,
        p50: samples[mid],
        tail: samples[i],
        tail_q: (i + 1) as f64 / n as f64,
    })
}

/// Median of a small set of values (nearest rank); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    summarize(&mut v, 0.5).map_or(f64::NAN, |s| s.p50)
}

/// Rows acknowledged and the time spent ingesting them, in equal slices
/// of a run by when the work started. The rate is the median over the
/// slices of rows ÷ time: a stall that recurs through the run lowers
/// every slice, while one slow moment of a shared host lowers only one.
#[derive(Debug, Default)]
pub struct RateSlices {
    seconds: f64,
    rows: Vec<u64>,
    busy_us: Vec<f64>,
}

impl RateSlices {
    /// `slices` slices of a `seconds`-long run.
    pub fn new(slices: usize, seconds: f64) -> Self {
        RateSlices {
            seconds,
            rows: vec![0; slices],
            busy_us: vec![0.0; slices],
        }
    }

    /// `rows` acknowledged after `busy_us` of ingest work that began
    /// `at_s` seconds into the run.
    pub fn add(&mut self, at_s: f64, rows: u64, busy_us: f64) {
        let n = self.rows.len();
        let i = ((at_s / self.seconds * n as f64) as usize).min(n - 1);
        self.rows[i] += rows;
        self.busy_us[i] += busy_us;
    }

    /// Rows per second in each slice that saw any ingest work.
    pub fn rates(&self) -> Vec<f64> {
        self.rows
            .iter()
            .zip(&self.busy_us)
            .filter(|(_, &us)| us > 0.0)
            .map(|(&r, &us)| r as f64 / (us / 1e6))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let s = summarize(&mut ramp(1000), 0.99).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        // 990 has exactly ten samples (991..=1000) beyond it.
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_q, 0.99);
        let s = summarize(&mut ramp(5000), 0.99).unwrap();
        assert_eq!(s.tail, 4950.0);
        assert_eq!(s.tail_q, 0.99);
    }

    #[test]
    fn short_populations_report_the_highest_supported_percentile() {
        let s = summarize(&mut ramp(200), 0.99).unwrap();
        // 190 is the highest value with ten samples beyond it.
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.tail_q, 0.95);
        let beyond = ramp(200).iter().filter(|&&v| v > s.tail).count();
        assert_eq!(beyond, TAIL_MIN_BEYOND);
    }

    #[test]
    fn tiny_populations_fall_back_to_the_median() {
        let s = summarize(&mut ramp(15), 0.99).unwrap();
        assert_eq!(s.p50, 8.0);
        assert_eq!(s.tail, s.p50);
        let s = summarize(&mut [7.0], 0.99).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_q), (7.0, 7.0, 1.0));
        assert!(summarize(&mut [], 0.99).is_none());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    /// Ten seconds of 100-row groups, 10 ms each; every `stall_every`th
    /// group stalls for `stall_ms` extra, and the whole 4th second is
    /// `slow_second` times slower.
    fn rate(stall_every: usize, stall_ms: f64, slow_second: f64) -> f64 {
        let mut r = RateSlices::new(10, 10.0);
        let mut at = 0.0;
        for g in 0.. {
            let mut us = 10_000.0;
            if g % stall_every == stall_every - 1 {
                us += stall_ms * 1e3;
            }
            if (3.0..4.0).contains(&at) {
                us *= slow_second;
            }
            if at >= 10.0 {
                break;
            }
            r.add(at, 100, us);
            at += us / 1e6;
        }
        median(&r.rates())
    }

    #[test]
    fn rate_counts_recurring_stalls_but_not_one_slow_slice() {
        let base = rate(usize::MAX, 0.0, 1.0);
        assert!((base - 10_000.0).abs() < 1e-6, "{base}");
        // A 50 ms stall on every 16th group: below the median group
        // time, but 1/3 less throughput, and the rate shows it.
        let stalled = rate(16, 50.0, 1.0);
        assert!(stalled < 0.8 * base, "{stalled} vs {base}");
        // One second at a quarter speed leaves the median slice alone.
        assert_eq!(rate(usize::MAX, 0.0, 4.0), base);
    }
}
