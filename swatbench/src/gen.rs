//! Seeded inputs and the open-loop schedule.
//!
//! Everything a run sends is derived from `--seed`: each stream's
//! values come from its own `swat-data` weather series, and the query
//! mix from a splitmix64 sequence. The same seed gives the same rows
//! and the same requests.

use std::time::{Duration, Instant};

use swat_data::weather::Weather;

/// splitmix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the named sub-sequence `lane`.
    pub fn new(seed: u64, lane: u64) -> Self {
        Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One independent weather series per stream.
pub struct RowGen {
    series: Vec<Weather>,
}

impl RowGen {
    /// `streams` series, each seeded from `seed` and its stream id.
    pub fn new(seed: u64, streams: usize) -> Self {
        let series = (0..streams as u64)
            .map(|s| Weather::new(Rng::new(seed, 1 + s).next_u64()))
            .collect();
        RowGen { series }
    }

    /// The next synchronized row.
    pub fn next_row(&mut self) -> Vec<f64> {
        self.series
            .iter_mut()
            .map(|w| w.next().expect("weather series are endless"))
            .collect()
    }
}

/// A request the query mix asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Point query on `stream` at window index `index`.
    Point { stream: u64, index: u32 },
    /// Range query: indices in `newest..=oldest` within `center ± radius`.
    Range {
        stream: u64,
        center: f64,
        radius: f64,
        newest: u32,
        oldest: u32,
    },
    /// Exact distributed top-k.
    TopK { k: u32 },
    /// Ingest the next generated row.
    Ingest,
}

/// Kinds of request, in report order.
pub const KINDS: [&str; 4] = ["ingest", "point", "range", "topk"];

impl Op {
    /// Index into [`KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Op::Ingest => 0,
            Op::Point { .. } => 1,
            Op::Range { .. } => 2,
            Op::TopK { .. } => 3,
        }
    }
}

/// Top-k size every workload asks for.
pub const TOP_K: u32 = 8;

/// Draws point, range and top-k requests over `streams` streams with a
/// window of `window`.
#[derive(Debug, Clone)]
pub struct QueryGen {
    rng: Rng,
    streams: u64,
    window: u32,
}

impl QueryGen {
    /// A query source for `seed`.
    pub fn new(seed: u64, streams: usize, window: usize) -> Self {
        QueryGen {
            rng: Rng::new(seed, 0x51),
            streams: streams as u64,
            window: window as u32,
        }
    }

    /// A point query, uniform over streams and window indices.
    pub fn point(&mut self) -> Op {
        Op::Point {
            stream: self.rng.below(self.streams),
            index: self.rng.below(self.window as u64) as u32,
        }
    }

    /// A range query over a random 32-index span (or the whole window
    /// if shorter), centered in the weather data's range.
    pub fn range(&mut self) -> Op {
        let span = 32.min(self.window);
        let newest = self.rng.below((self.window - span + 1) as u64) as u32;
        Op::Range {
            stream: self.rng.below(self.streams),
            center: 55.0 + 40.0 * self.rng.unit(),
            radius: 2.0 + 6.0 * self.rng.unit(),
            newest,
            oldest: newest + span - 1,
        }
    }

    /// The query-mix draw: 75% point, 10% range, 10% top-k, 5% ingest.
    pub fn mixed(&mut self) -> Op {
        match self.rng.below(100) {
            0..=74 => self.point(),
            75..=84 => self.range(),
            85..=94 => Op::TopK { k: TOP_K },
            _ => Op::Ingest,
        }
    }
}

/// A fixed-rate arrival schedule. Request `i` is due at
/// `start + i * period`, whether or not earlier requests are done.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// When request 0 is due.
    pub start: Instant,
    /// Time between arrivals.
    pub period: Duration,
}

impl OpenLoop {
    /// The schedule for `rate` requests per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        OpenLoop {
            start,
            period: Duration::from_nanos((1e9 / rate).round() as u64),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos(self.period.as_nanos() as u64 * i)
    }
}

/// How late a request ran: from when it was due until it was sent.
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Latency charged to a request: from when it was due, not from when
/// it was sent, so a stall also counts against the requests it delayed.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_queries_repeat_for_a_seed() {
        let (mut a, mut b) = (RowGen::new(5, 8), RowGen::new(5, 8));
        for _ in 0..100 {
            assert_eq!(a.next_row(), b.next_row());
        }
        assert_ne!(RowGen::new(5, 8).next_row(), RowGen::new(6, 8).next_row());
        let row = RowGen::new(5, 8).next_row();
        assert_ne!(row[0], row[1], "streams are independent series");
        let (mut q, mut r) = (QueryGen::new(9, 64, 256), QueryGen::new(9, 64, 256));
        for _ in 0..1000 {
            assert_eq!(q.mixed(), r.mixed());
        }
    }

    #[test]
    fn mix_shares_and_bounds() {
        let mut q = QueryGen::new(3, 64, 256);
        let mut counts = [0usize; 4];
        for _ in 0..100_000 {
            let op = q.mixed();
            counts[op.kind()] += 1;
            match op {
                Op::Point { stream, index } => assert!(stream < 64 && index < 256),
                Op::Range { newest, oldest, .. } => assert!(newest <= oldest && oldest < 256),
                _ => {}
            }
        }
        let share = |c: usize| c as f64 / 100_000.0;
        assert!((share(counts[0]) - 0.05).abs() < 0.01);
        assert!((share(counts[1]) - 0.75).abs() < 0.01);
        assert!((share(counts[2]) - 0.10).abs() < 0.01);
        assert!((share(counts[3]) - 0.10).abs() < 0.01);
    }

    /// Replays a single-connection open loop on a virtual clock: each
    /// request is sent at `max(due, previous done)`.
    fn replay(schedule: &OpenLoop, service_us: &[u64]) -> Vec<(Duration, Duration)> {
        let mut free = schedule.start;
        service_us
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let due = schedule.due(i as u64);
                let sent = due.max(free);
                let done = sent + Duration::from_micros(s);
                free = done;
                (lateness(due, sent), latency_from_due(due, done))
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        let schedule = OpenLoop::new(Instant::now(), 4000.0);
        assert_eq!(schedule.period, Duration::from_micros(250));
        // Request 0 stalls for 1 ms; the rest take 100 µs.
        let out = replay(&schedule, &[1000, 100, 100, 100, 100, 100]);
        let us = |d: Duration| d.as_micros();
        let late: Vec<u128> = out.iter().map(|p| us(p.0)).collect();
        let lat: Vec<u128> = out.iter().map(|p| us(p.1)).collect();
        assert_eq!(late, vec![0, 750, 600, 450, 300, 150]);
        // Measured from the send, requests 1.. would all read 100 µs;
        // from the due time they carry the wait the stall imposed.
        assert_eq!(lat, vec![1000, 850, 700, 550, 400, 250]);
        // Once the backlog drains, latency is the service time again.
        let out = replay(&schedule, &[1000, 100, 100, 100, 100, 100, 100, 100]);
        assert_eq!(us(out[7].0), 0);
        assert_eq!(us(out[7].1), 100);
    }
}
