//! Deterministic random number generation for workload and topology models.
//!
//! The simulation must be reproducible byte-for-byte across platforms and
//! dependency upgrades, so it uses an in-tree xoshiro256** generator (public
//! domain algorithm by Blackman & Vigna) seeded through SplitMix64 instead of
//! depending on a particular `rand` version. The distributions implemented
//! here are exactly the ones the paper's workloads need: uniform, Bernoulli,
//! normal (client join/leave times in §5.6), exponential (open-loop request
//! inter-arrivals), and Zipf (hot-key skew in §5.3/§5.5).

/// A deterministic xoshiro256** pseudo-random generator.
///
/// # Examples
///
/// ```
/// use plasma_sim::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators created with the same seed produce identical streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator.
    ///
    /// Useful to give each client / server / app component its own stream so
    /// that adding draws in one component does not perturb another.
    pub fn fork(&mut self, label: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method keeps the draw unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform index in `[0, len)` as `usize`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Returns a uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Draws from a normal distribution via the Box-Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return mean + std_dev * z;
        }
        // Box-Muller: two uniforms to two independent standard normals.
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        mean + std_dev * r * theta.cos()
    }

    /// Draws from an exponential distribution with the given mean.
    ///
    /// Used for open-loop Poisson request arrivals.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Draws from a log-normal distribution parameterized by the mean and
    /// standard deviation of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.index(items.len())]
    }

    /// Samples an index in `[0, weights.len())` proportionally to `weights`.
    ///
    /// Non-finite or negative weights are treated as zero, and the returned
    /// index always has a positive weight. Falls back to a uniform draw when
    /// all weights are zero.
    ///
    /// The draw consumes one `next_f64()` (the uniform fallback one
    /// `index()`), and its result is part of every decision digest, so the
    /// total it scales by is the left-to-right sum of the weights bit for
    /// bit. Summing skips whole chunks of weights that provably leave that
    /// sum unchanged, which makes a long, geometrically decaying tail cheap.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index on empty weights");
        let total = clean_total(weights);
        if total <= 0.0 {
            return self.index(weights.len());
        }
        pick(weights, self.next_f64() * total)
    }
}

/// Runs a seeded property test: `cases` cases, each drawing its inputs from
/// its own [`DetRng`], seeded from `name` and the case index, so every run
/// explores the same inputs. A failing case prints the property, the case
/// and the seed (`DetRng::new(seed)` replays it), then resumes the panic.
pub fn check_cases(name: &str, cases: u32, mut case: impl FnMut(&mut DetRng)) {
    // FNV-1a: properties with different names draw different streams.
    let name_seed = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    for i in 0..cases {
        let seed = name_seed ^ u64::from(i);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(&mut DetRng::new(seed))
        }));
        if let Err(panic) = outcome {
            eprintln!("property {name} failed at case {i} of {cases} (seed {seed:#018x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Weights per skip test in [`clean_total`].
const SKIP_CHUNK: usize = 64;

/// A weight as [`DetRng::weighted_index`] counts it.
fn clean(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

/// Half the gap from `total` down to its neighbour below, when that is a
/// safe skip threshold: adding any `w` with `0 <= w < half` to `total`
/// rounds back to `total` itself under round-to-nearest-even.
///
/// The gap is taken from below because the one above is never smaller and
/// is infinite at `f64::MAX`; at `f64::MAX` the gap below makes the
/// threshold `2^970`, exactly the weight that overflows the sum. A tie
/// (`w == half`) can round an odd-mantissa total up, so the threshold is
/// strict. Zero totals and totals whose gap is subnormal get no threshold,
/// nor do infinite ones.
fn negligible_below(total: f64) -> Option<f64> {
    let gap = total - total.next_down();
    (total.is_finite() && gap >= f64::MIN_POSITIVE).then_some(gap * 0.5)
}

/// The sum of the cleaned weights in index order, bit for bit.
///
/// A chunk is skipped only when every weight in it is below the current
/// total's [`negligible_below`] threshold: each add would return the
/// total's own bits, and the total, hence the threshold, never moves
/// within the chunk. The first chunk starts from a zero total, which has
/// no threshold, so it is summed ahead of the loop: summed inside it, a
/// 40-weight draw ran about 1.7x slower on x86-64.
fn clean_total(weights: &[f64]) -> f64 {
    let (head, tail) = weights.split_at(weights.len().min(SKIP_CHUNK));
    let mut total = head.iter().fold(0.0, |t, &w| t + clean(w));
    for chunk in tail.chunks(SKIP_CHUNK) {
        if let Some(half_gap) = negligible_below(total) {
            // Raw weights: NaN never blocks and +inf always does, both
            // harmless since either cleans to zero.
            let blocks = |w: f64| w >= half_gap;
            // The first weight turns most unskippable chunks away at one
            // compare; the full test is branch-free so that it vectorizes.
            if !blocks(chunk[0]) && !chunk.iter().fold(false, |any, &w| any | blocks(w)) {
                continue;
            }
        }
        total = chunk.iter().fold(total, |t, &w| t + clean(w));
    }
    total
}

/// The index whose cleaned weight `target` falls into, scanning in order.
///
/// Rounding in `target` (up to the total itself) can carry the scan past
/// the last weight; the draw then lands on the last positive weight rather
/// than on a trailing zero, negative or NaN one.
fn pick(weights: &[f64], mut target: f64) -> usize {
    for (i, &w) in weights.iter().enumerate() {
        let w = clean(w);
        if target < w {
            return i;
        }
        target -= w;
    }
    weights
        .iter()
        .rposition(|&w| clean(w) > 0.0)
        .expect("a positive total has a positive weight")
}

/// A Zipf-distributed sampler over ranks `0..n`.
///
/// Rank `k` (0-based) is drawn with probability proportional to
/// `1 / (k + 1)^exponent`. Precomputes the CDF once, so draws are a binary
/// search — fast enough for per-request sampling in workload generators.
///
/// # Examples
///
/// ```
/// use plasma_sim::rng::Zipf;
/// use plasma_sim::DetRng;
///
/// let mut rng = DetRng::new(7);
/// let zipf = Zipf::new(100, 1.0);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with the given skew exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Returns the number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the sampler has exactly one rank.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = DetRng::new(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = DetRng::new(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = DetRng::new(17);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow 10% slack.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::new(23);
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal(5.0, 2.0);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::new(31);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = DetRng::new(41);
        let zipf = Zipf::new(100, 1.0);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DetRng::new(51);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn weighted_index_all_zero_falls_back_to_uniform() {
        let mut rng = DetRng::new(52);
        let weights = [0.0, 0.0];
        let mut seen = [false; 2];
        for _ in 0..64 {
            seen[rng.weighted_index(&weights)] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    /// The plain two-pass draw, one fold over every weight and then the
    /// scan, with the same fall-off fix: the oracle the fast path must match
    /// bit for bit.
    /// Returns the drawn index and the total the draw scaled by.
    fn reference_draw(rng: &mut DetRng, weights: &[f64]) -> (usize, f64) {
        assert!(!weights.is_empty(), "weighted_index on empty weights");
        let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let total: f64 = weights.iter().copied().map(clean).sum();
        if total <= 0.0 {
            return (rng.index(weights.len()), total);
        }
        let mut target = rng.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            let w = clean(w);
            if target < w {
                return (i, total);
            }
            target -= w;
        }
        let last = (0..weights.len()).rev().find(|&i| clean(weights[i]) > 0.0);
        (last.expect("a positive total has a positive weight"), total)
    }

    /// One weight from a pool mixing every class that the clean rule and
    /// the skip test treat differently.
    fn pooled_weight(rng: &mut DetRng) -> f64 {
        match rng.below(10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => rng.range_f64(-1e6, 0.0),
            5 => 5e-324,
            6 => f64::MIN_POSITIVE,
            7 => 1e300,
            8 => f64::MAX,
            _ => rng.next_f64(),
        }
    }

    /// A uniform draw from `lo..hi`.
    fn within(rng: &mut DetRng, lo: usize, hi: usize) -> usize {
        lo + rng.index(hi - lo)
    }

    /// A geometric tail `scale * ratio^i` with one large weight placed after
    /// two or more chunks and a few pool weights dropped in anywhere.
    fn geometric_tail(rng: &mut DetRng) -> Vec<f64> {
        let len = within(rng, 1, 4 * SKIP_CHUNK);
        let ratio = rng.range_f64(0.05, 0.95);
        let scale = match rng.below(4) {
            0 => 1.0,
            1 => 1e-300,
            2 => 1e300,
            _ => rng.range_f64(1e-3, 1e3),
        };
        let big_at = within(rng, 2 * SKIP_CHUNK, 4 * SKIP_CHUNK);
        let big = match rng.below(4) {
            0 => rng.range_f64(0.5, 2.0),
            1 => 1e300,
            2 => f64::MAX,
            _ => 2f64.powi(970),
        };
        let mut placed = vec![(big_at, big)];
        for _ in 0..rng.below(4) {
            placed.push((rng.index(4 * SKIP_CHUNK), pooled_weight(rng)));
        }
        let mut w: Vec<f64> = (0..len).map(|i| scale * ratio.powi(i as i32)).collect();
        for (at, x) in placed {
            if at < len {
                w[at] = x;
            }
        }
        w
    }

    /// A geometric tail whose later chunk holds one weight at, or one ulp
    /// either side of, the skip threshold of the total that chunk starts
    /// from: exact ties land on odd- and even-mantissa totals alike.
    fn threshold_probe(rng: &mut DetRng) -> Vec<f64> {
        let len = within(rng, SKIP_CHUNK + 1, 4 * SKIP_CHUNK);
        let ratio = rng.range_f64(0.05, 0.5);
        let chunk = within(rng, 1, 3);
        let offset = rng.index(SKIP_CHUNK);
        let mut w: Vec<f64> = (0..len).map(|i| ratio.powi(i as i32)).collect();
        // The probed chunk must exist: fall back to the second.
        let start = if chunk * SKIP_CHUNK < len {
            chunk * SKIP_CHUNK
        } else {
            SKIP_CHUNK
        };
        let before: f64 = w[..start].iter().sum();
        let half_gap = (before - before.next_down()) / 2.0;
        let at = (start + offset).min(len - 1);
        w[at] = match rng.below(3) {
            0 => half_gap.next_down(),
            1 => half_gap,
            _ => half_gap.next_up(),
        };
        w
    }

    /// The chunked total is the plain fold bit for bit, so every draw picks
    /// the oracle's index and leaves the generator in the oracle's state.
    #[test]
    fn chunked_draws_match_the_two_pass_oracle() {
        check_cases("chunked_draws_match_the_two_pass_oracle", 1024, |rng| {
            let weights = match rng.below(3) {
                0 => {
                    let len = within(rng, 1, 4 * SKIP_CHUNK);
                    (0..len).map(|_| pooled_weight(rng)).collect()
                }
                1 => geometric_tail(rng),
                _ => threshold_probe(rng),
            };
            let seed = rng.next_u64();
            let (_, total) = reference_draw(&mut DetRng::new(seed), &weights);
            assert_eq!(
                clean_total(&weights).to_bits(),
                total.to_bits(),
                "{weights:?}"
            );
            let mut fast = DetRng::new(seed);
            let mut oracle = fast.clone();
            for _ in 0..8 {
                let (expected, _) = reference_draw(&mut oracle, &weights);
                assert_eq!(fast.weighted_index(&weights), expected, "{weights:?}");
                assert_eq!(fast.s, oracle.s);
            }
        });
    }

    /// Zero weights with `head` leading the first chunk and `probe` inside
    /// the second (not first in it, so the one-compare probe cannot decide).
    fn two_chunks(head: f64, probe: f64) -> Vec<f64> {
        let mut w = vec![0.0; 2 * SKIP_CHUNK];
        w[0] = head;
        w[SKIP_CHUNK + 1] = probe;
        w
    }

    #[test]
    fn zero_subnormal_gap_and_infinite_totals_give_no_threshold() {
        // A first chunk of zero weights leaves a zero total, and the next
        // chunk must still be summed.
        for total in [0.0, f64::MIN_POSITIVE, f64::INFINITY] {
            assert_eq!(negligible_below(total), None, "{total}");
        }
    }

    #[test]
    fn a_tie_on_an_odd_mantissa_total_is_not_skipped() {
        let odd = 1.0 + f64::EPSILON;
        let half_gap = f64::EPSILON / 2.0;
        assert_eq!(negligible_below(odd), Some(half_gap));
        // The tie rounds to the even neighbour, one ulp up.
        let w = two_chunks(odd, half_gap);
        assert_eq!(clean_total(&w), 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(
            reference_draw(&mut DetRng::new(1), &w).1,
            1.0 + 2.0 * f64::EPSILON
        );
        let w = two_chunks(odd, half_gap.next_down());
        assert_eq!(clean_total(&w), odd);
    }

    #[test]
    fn a_weight_that_overflows_max_is_not_skipped() {
        // MAX + 2^970 is a tie that rounds up past MAX: the total overflows.
        let w = two_chunks(f64::MAX, 2f64.powi(970));
        assert_eq!(clean_total(&w), f64::INFINITY);
        assert_eq!(reference_draw(&mut DetRng::new(1), &w).1, f64::INFINITY);
        let w = two_chunks(f64::MAX, 2f64.powi(970).next_down());
        assert_eq!(clean_total(&w), f64::MAX);
    }

    /// A generator whose next `next_u64()` is `out`. xoshiro256** outputs
    /// `rotl(s[1] * 5, 7) * 9`, which inverts for `s[1]` since 5 and 9 are
    /// odd and so invertible modulo 2^64 (Newton's iteration).
    fn rng_emitting(out: u64) -> DetRng {
        let inverse = |a: u64| {
            (0..5).fold(a, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)))
            })
        };
        let mut rng = DetRng::new(0);
        rng.s[1] = out
            .wrapping_mul(inverse(9))
            .rotate_right(7)
            .wrapping_mul(inverse(5));
        rng
    }

    #[test]
    fn weighted_index_never_falls_off_onto_a_dead_weight() {
        let top = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(rng_emitting(u64::MAX).next_f64(), top);
        // The target `top * 1.0` less 0.3 rounds to exactly 0.7, which is
        // not below 0.7: the scan runs past every weight.
        assert_eq!((0.3 + 0.7, top - 0.3), (1.0, 0.7));
        for dead in [0.0, -1.0, f64::NAN] {
            let weights = [0.3, 0.7, dead];
            let drawn = rng_emitting(u64::MAX).weighted_index(&weights);
            assert_eq!(drawn, 1, "{weights:?}");
            assert_eq!(reference_draw(&mut rng_emitting(u64::MAX), &weights).0, 1);
            assert_eq!(pick(&weights, 1.0), 1);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(61);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements staying sorted is ~impossible");
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = DetRng::new(71);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items)));
        }
    }
}
