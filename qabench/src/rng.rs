//! Seeded randomness: the splitmix64 stream, an exact Zipf sampler over
//! ranks, seeded shuffles and the Poisson arrival schedule of the
//! open-loop workloads.  Everything here is a pure function of the seed,
//! so one seed always yields the same inputs.

use std::time::Duration;

/// The splitmix64 PRNG: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so that independent
    /// input dimensions (question order, arrivals, write batches, …) drawn
    /// from one run seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Exact Zipf sampler over ranks `0..n` (rank 0 hottest): the cumulative
/// weights `1/(k+1)^s` are tabulated once and a draw is a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Send times of a Poisson arrival process at `rate` per second over
/// `window`, as offsets from the start of the window.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, window: Duration) -> Vec<Duration> {
    let mut at = 0.0f64;
    let end = window.as_secs_f64();
    let mut schedule = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= end {
            return schedule;
        }
        schedule.push(Duration::from_secs_f64(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_identical_for_one_seed() {
        let window = Duration::from_secs(5);
        let a = poisson_schedule(&mut Rng::new(7, 1), 800.0, window);
        let b = poisson_schedule(&mut Rng::new(7, 1), 800.0, window);
        assert_eq!(a, b);
        let c = poisson_schedule(&mut Rng::new(8, 1), 800.0, window);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate_and_increases() {
        let window = Duration::from_secs(20);
        let schedule = poisson_schedule(&mut Rng::new(3, 2), 500.0, window);
        let rate = schedule.len() as f64 / window.as_secs_f64();
        assert!((rate - 500.0).abs() < 25.0, "realized rate {rate}");
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        assert!(schedule.last().is_some_and(|last| *last < window));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
    }
}
