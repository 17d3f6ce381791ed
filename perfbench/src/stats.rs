//! Order statistics and interval arithmetic over exact span durations.
//!
//! Every latency the benchmark reports is computed here from raw
//! nanosecond durations; nothing is read back from a bucketed histogram.

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail rule chooses from, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly above a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at 1-based rank
/// `ceil(p / 100 * n)`, together with how many samples lie beyond that rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// Distribution summary of one latency family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Sum of all samples.
    pub sum: f64,
    /// `(percentile, value)` of the highest [`TAIL_LADDER`] percentile
    /// with at least [`MIN_BEYOND`] samples beyond it; `None` when fewer
    /// than 20 samples exist.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let tail = if v.is_empty() {
            None
        } else {
            TAIL_LADDER
                .iter()
                .rev()
                .map(|&p| (p, nearest_rank(&v, p)))
                .find(|(_, (_, beyond))| *beyond >= MIN_BEYOND)
                .map(|(p, (value, _))| (p, value))
        };
        Summary {
            n: v.len(),
            median: median(&v),
            sum: v.iter().sum(),
            tail,
        }
    }

    /// The tail value, or the median when too few samples exist for any
    /// tail percentile (so a reported tail is never below the median).
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }

    /// The tail percentile, 50 when only the median is known, or 0 when
    /// there are no samples.
    pub fn tail_pct(&self) -> f64 {
        match (self.n, self.tail) {
            (0, _) => 0.0,
            (_, Some((p, _))) => p,
            (_, None) => 50.0,
        }
    }
}

/// Total length covered by the union of half-open `[start, end)` intervals.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of `span`: its duration minus the part of it that the union of
/// `children` covers (children are clipped to the span first).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    (span.1 - span.0) - union_len(&clipped)
}

/// How many of a set of intervals were in flight over a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Concurrency {
    /// Window time with nothing in flight.
    pub idle: u64,
    /// Window time with exactly one interval in flight.
    pub one: u64,
    /// Window time with two or more in flight.
    pub many: u64,
    /// Sum of the interval lengths inside the window (busy time).
    pub busy: u64,
}

/// Sweep `intervals` over `window`, splitting the window by how many
/// intervals overlap each instant.
pub fn concurrency(window: (u64, u64), intervals: &[(u64, u64)]) -> Concurrency {
    let mut edges: Vec<(u64, i64)> = Vec::with_capacity(intervals.len() * 2);
    let mut busy = 0;
    for &(s, e) in intervals {
        let (s, e) = (s.max(window.0), e.min(window.1));
        if e > s {
            edges.push((s, 1));
            edges.push((e, -1));
            busy += e - s;
        }
    }
    // Ends sort before starts at the same instant, so back-to-back
    // intervals never count as overlapping.
    edges.sort_unstable();
    let mut out = Concurrency {
        busy,
        ..Concurrency::default()
    };
    let (mut t, mut active) = (window.0, 0i64);
    for (at, delta) in edges {
        let dt = at - t;
        match active {
            0 => out.idle += dt,
            1 => out.one += dt,
            _ => out.many += dt,
        }
        t = at;
        active += delta;
    }
    out.idle += window.1.saturating_sub(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: even p50 (rank 10) leaves only 9 beyond.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 19);
        assert_eq!(s.tail, None);
        assert_eq!(s.tail_or_median(), 10.0);
        // 20 samples: p50 at rank 10 leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).tail, Some((50.0, 10.0)));
        // 40 samples: p75 at rank 30 leaves 10; p90 would leave 4.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).tail, Some((75.0, 30.0)));
        // 1000 samples: p99 at rank 990 leaves 10; p99.9 would leave 1.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.n, 1000);
        assert_eq!(s.sum, 500_500.0);
    }

    #[test]
    fn latencies_are_exact_not_histogram_bucket_bounds() {
        // A log2 histogram would report 2^24 ns for all of these.
        let xs = [9_000_001.0, 12_345_678.0, 16_000_000.0];
        let s = Summary::of(&xs);
        assert_eq!(s.median, 12_345_678.0);
        assert_ne!(s.median, (1u64 << 24) as f64);
    }

    #[test]
    fn union_merges_overlaps_and_touching_intervals() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&[(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_len(&[(3, 3), (4, 2)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..40 and 30..50 overlap on 30..40, and
        // a child running past the parent's end is clipped at 100.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50), (90, 130)]), 50);
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
    }

    #[test]
    fn two_worker_timeline_splits_idle_one_and_both_busy() {
        // Window 0..100. Worker A evaluates 10..40 and 60..90; worker B
        // evaluates 20..50 and 90..95 (starting as A's job ends).
        let evals = [(10, 40), (60, 90), (20, 50), (90, 95)];
        let c = concurrency((0, 100), &evals);
        // Nothing in flight: 0..10, 50..60, 95..100.
        assert_eq!(c.idle, 25);
        // Exactly one: 10..20, 40..50, 60..90, 90..95 (hand-off, no overlap).
        assert_eq!(c.one, 55);
        // Both: 20..40.
        assert_eq!(c.many, 20);
        assert_eq!(c.idle + c.one + c.many, 100);
        // Busy fraction over two workers: (30+30+30+5) / (2*100).
        assert_eq!(c.busy, 95);
        assert_eq!(c.busy as f64 / (2.0 * 100.0), 0.475);
    }

    #[test]
    fn timeline_clips_to_the_window() {
        let c = concurrency((100, 200), &[(50, 150), (180, 260)]);
        assert_eq!(c.busy, 70);
        assert_eq!(c.one, 70);
        assert_eq!(c.idle, 30);
        assert_eq!(c.many, 0);
    }
}
