//! Property tests of the simulation kernel.

use plasma_sim::metrics::BucketedSeries;
use plasma_sim::rng::{check_cases, Zipf};
use plasma_sim::{DetRng, EventQueue, SimDuration, SimTime};

/// A uniform draw from `lo..hi`.
fn within(rng: &mut DetRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// Events always pop in non-decreasing time order, and same-time events
/// pop in insertion order.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    check_cases("event_queue_is_a_stable_priority_queue", 64, |rng| {
        let times: Vec<u64> = (0..within(rng, 1, 200)).map(|_| rng.below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            popped += 1;
            if let Some((lt, li)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(i > li, "FIFO within a timestamp");
                }
            }
            last = Some((t, i));
        }
        assert_eq!(popped, times.len());
    });
}

/// Bucketed means always lie within the range of raw observations.
#[test]
fn bucketed_series_means_bounded() {
    check_cases("bucketed_series_means_bounded", 64, |rng| {
        let obs: Vec<(u64, f64)> = (0..within(rng, 1, 200))
            .map(|_| (rng.below(100_000), rng.range_f64(0.0, 1e4)))
            .collect();
        let width_ms = within(rng, 1, 5_000);
        let mut s = BucketedSeries::new(SimDuration::from_millis(width_ms));
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(t, v) in &obs {
            s.record(SimTime::from_millis(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert_eq!(s.count(), obs.len() as u64);
        for (_, mean) in s.buckets() {
            assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
    });
}

/// Uniform draws stay in range for arbitrary bounds.
#[test]
fn rng_below_in_range() {
    check_cases("rng_below_in_range", 64, |rng| {
        let mut drawn = DetRng::new(rng.next_u64());
        let n = within(rng, 1, 1_000_000);
        for _ in 0..64 {
            assert!(drawn.below(n) < n);
        }
    });
}

/// Zipf ranks stay in range for any skew.
#[test]
fn zipf_in_range() {
    check_cases("zipf_in_range", 64, |rng| {
        let mut drawn = DetRng::new(rng.next_u64());
        let n = within(rng, 1, 500) as usize;
        let zipf = Zipf::new(n, rng.range_f64(0.0, 3.0));
        for _ in 0..64 {
            assert!(zipf.sample(&mut drawn) < n);
        }
    });
}

/// Forked streams never equal the parent stream over a prefix.
#[test]
fn forked_rng_diverges() {
    check_cases("forked_rng_diverges", 64, |rng| {
        let mut parent = DetRng::new(rng.next_u64());
        let mut child = parent.fork(1);
        let mut same = 0;
        for _ in 0..32 {
            if parent.next_u64() == child.next_u64() {
                same += 1;
            }
        }
        assert!(same < 4);
    });
}
