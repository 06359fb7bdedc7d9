//! Sample summaries: nearest-rank percentiles with the sample-size rule
//! (a percentile is reported with the number of samples beyond it, and
//! needs at least [`MIN_BEYOND`] of them) and failures entering as +∞.

/// Samples that must lie beyond a named percentile for it to be trusted.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value (+∞ when the rank falls on a failed request).
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// True when at least [`MIN_BEYOND`] samples lie beyond the rank.
    pub fn trusted(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// A set of latencies in milliseconds.  A failed request is recorded as
/// +∞, so it misses every latency limit and pushes every percentile up.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed request.
    pub fn ok(&mut self, ms: f64) {
        self.values.push(ms);
    }

    /// Record a failed request.
    pub fn failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    /// Record either outcome.
    pub fn record(&mut self, ms: Option<f64>) {
        match ms {
            Some(ms) => self.ok(ms),
            None => self.failed(),
        }
    }

    /// Number of samples, failures included.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank percentile `q` in `(0, 1]`; `None` on an empty set.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(Percentile {
            value: sorted[rank - 1],
            n,
            beyond: n - rank,
        })
    }

    /// The percentile's value, 0 on an empty set.
    pub fn pct(&self, q: f64) -> f64 {
        self.percentile(q).map_or(0.0, |p| p.value)
    }

    /// Mean of the finite samples, 0 when there are none.
    pub fn mean(&self) -> f64 {
        let finite: Vec<f64> = self
            .values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if finite.is_empty() {
            0.0
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    }

    /// Print `report: <name> = …` for percentile `q` over the whole set,
    /// with the sample count, the samples beyond it, and a flag when fewer
    /// than [`MIN_BEYOND`] lie beyond.
    pub fn report(&self, name: &str, q: f64) {
        match self.percentile(q) {
            Some(p) => println!(
                "report: {name} = {:.4} ms over the whole window (n={}, beyond={}, failed={}{})",
                p.value,
                p.n,
                p.beyond,
                self.failures(),
                if p.trusted() { "" } else { ", TOO FEW SAMPLES" }
            ),
            None => println!("report: {name} = n/a (no samples)"),
        }
    }

    /// Failed samples.
    pub fn failures(&self) -> usize {
        self.values.iter().filter(|v| v.is_infinite()).count()
    }
}

/// At most this many time blocks per run.
pub const MAX_BLOCKS: usize = 5;

/// A steadier estimate of percentile `q` on a noisy machine: the run's
/// window is cut into equal time blocks, `q` is read off each block, and
/// the median of those is reported.  Blocks are as many as keep at least
/// [`MIN_BEYOND`] samples beyond `q` in each (at most [`MAX_BLOCKS`]), so a
/// run too short to split reports the plain percentile.  `points` are
/// `(seconds into the window, latency in ms or +∞)`.
pub fn block_median(points: &[(f64, f64)], window_s: f64, q: f64) -> f64 {
    let blocks = blocks_for(points.len(), q);
    let mut per_block = vec![Samples::new(); blocks];
    for &(at, ms) in points {
        let b = ((at / window_s * blocks as f64) as usize).min(blocks - 1);
        per_block[b].values.push(ms);
    }
    let estimates: Vec<f64> = per_block
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| b.pct(q))
        .collect();
    median(&estimates)
}

/// Blocks for `n` samples and percentile `q`.
pub fn blocks_for(n: usize, q: f64) -> usize {
    ((n as f64 * (1.0 - q) / MIN_BEYOND as f64).floor() as usize).clamp(1, MAX_BLOCKS)
}

/// Median over [`MAX_BLOCKS`] equal time blocks of the completion rate
/// (operations per second); `times` are completion offsets in seconds.
pub fn block_rate(times: &[f64], window_s: f64) -> f64 {
    let width = window_s / MAX_BLOCKS as f64;
    let mut counts = [0usize; MAX_BLOCKS];
    for &at in times {
        counts[((at / width) as usize).min(MAX_BLOCKS - 1)] += 1;
    }
    median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

/// Median of a small list; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut set = Samples::new();
    values.iter().for_each(|&v| set.ok(v));
    set.pct(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut set = Samples::new();
        values.into_iter().for_each(|v| set.ok(v));
        set
    }

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond() {
        let set = samples((1..=1000).map(f64::from));
        let p99 = set.percentile(0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.trusted());
    }

    #[test]
    fn too_few_samples_are_not_trusted() {
        let set = samples((1..=999).map(f64::from));
        let p99 = set.percentile(0.99).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(!p99.trusted());
        let p90 = samples((1..=100).map(f64::from)).percentile(0.9).unwrap();
        assert!(p90.trusted());
    }

    #[test]
    fn failures_enter_as_infinity() {
        let mut set = samples((1..=98).map(f64::from));
        set.failed();
        set.failed();
        assert_eq!(set.failures(), 2);
        // 100 samples: the two failures own the top two ranks.
        assert_eq!(set.pct(0.98), 98.0);
        assert_eq!(set.pct(0.99), f64::INFINITY);
        assert_eq!(set.pct(0.5), 50.0);
        // The mean is over completed requests only.
        assert_eq!(set.mean(), 49.5);
    }

    #[test]
    fn enough_failures_move_the_median() {
        let mut set = samples([1.0, 2.0]);
        set.failed();
        set.failed();
        set.failed();
        assert_eq!(set.pct(0.5), f64::INFINITY);
    }

    #[test]
    fn block_median_ignores_one_noisy_block() {
        // 5000 samples over 5 s: one second of the run is ten times slower.
        let points: Vec<(f64, f64)> = (0..5000)
            .map(|i| {
                let at = i as f64 / 1000.0;
                let ms = if (2.0..3.0).contains(&at) {
                    10.0
                } else {
                    1.0 + (i % 100) as f64 / 100.0
                };
                (at, ms)
            })
            .collect();
        assert_eq!(blocks_for(points.len(), 0.99), 5);
        assert_eq!(block_median(&points, 5.0, 0.99), 1.98);
        // Too few samples to split: the plain percentile.
        assert_eq!(blocks_for(1500, 0.99), 1);
        let rate = block_rate(&points.iter().map(|p| p.0).collect::<Vec<_>>(), 5.0);
        assert_eq!(rate, 1000.0);
    }

    #[test]
    fn median_of_setups() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
