//! Medians and upper percentiles with their sample counts.

use std::fmt;

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples the value was read from.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Why a percentile was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFew {
    pub p: u32,
    pub samples: usize,
    pub beyond: usize,
}

impl fmt::Display for TooFew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} refused: {} samples leave {} beyond it, {MIN_BEYOND} needed",
            self.p, self.samples, self.beyond
        )
    }
}

/// The nearest-rank `p`th percentile (`p` in 1..100) of `samples`.
///
/// The median is always reported; any higher percentile is refused unless
/// at least [`MIN_BEYOND`] samples lie beyond its rank, so p75 needs 40
/// samples and p80 needs 50.
pub fn percentile(samples: &[f64], p: u32) -> Result<Pct, TooFew> {
    assert!((1..100).contains(&p), "percentile {p} out of range");
    let n = samples.len();
    let rank = (n * p as usize).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || (p > 50 && beyond < MIN_BEYOND) {
        return Err(TooFew {
            p,
            samples: n,
            beyond,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The median of `samples` (the mean of the middle two for an even count),
/// or 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p80_of_seven_rounds_is_refused() {
        // estore-skew-net: 220 s at a 30 s period gives 7 rounds.
        let err = percentile(&ramp(7), 80).unwrap_err();
        assert_eq!(err.samples, 7);
        assert_eq!(err.beyond, 1);
    }

    #[test]
    fn p80_needs_fifty_samples() {
        assert!(percentile(&ramp(49), 80).is_err());
        let p = percentile(&ramp(50), 80).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (40.0, 50, 10));
    }

    #[test]
    fn p75_of_forty_four_windows_leaves_eleven() {
        let p = percentile(&ramp(44), 75).unwrap();
        assert_eq!((p.value, p.beyond), (33.0, 11));
        assert!(percentile(&ramp(39), 75).is_err());
    }

    #[test]
    fn median_is_always_reported() {
        let p = percentile(&[3.0, 1.0, 2.0], 50).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (2.0, 3, 1));
        assert!(percentile(&[], 50).is_err());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
