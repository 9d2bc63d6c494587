//! Order statistics for latency samples.

/// The median of `values` (the mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The percentiles `latency_tail_ms` is taken at: p90, or p50 for a run
/// too short to have ten samples beyond p90. A fixed percentile keeps
/// the figure comparable across runs and builds (the highest percentile
/// with ten samples beyond moves with the sample count). Higher
/// percentiles are printed but not gated: on a two-core virtual host
/// they are set by scheduler and disk stalls, and over ten runs
/// `serve-warm`'s p99 spread by about 40% of its median, its p99.9 and
/// its highest percentile with ten samples beyond (about p99.997) by
/// more.
pub const TAIL_LADDER: [f64; 2] = [50.0, 90.0];

/// The tail of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// How many samples lie strictly above it in sorted order.
    pub beyond: usize,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `ladder` (ascending, in percent) that still
/// has at least `beyond` samples above it, or `None` when even the
/// lowest has fewer.
///
/// With `n` samples sorted ascending, percentile `p` is the nearest-rank
/// sample, at index `ceil(p / 100 * n) - 1`; the samples beyond it are
/// the ones at higher indices. Requiring `beyond` of them means the
/// figure never rests on fewer than `beyond` observations.
pub fn tail(values: &[f64], beyond: usize, ladder: &[f64]) -> Option<Tail> {
    let n = values.len();
    let v = sorted(values);
    ladder.iter().rev().find_map(|&p| {
        // In tenths of a percent, so p99 of 1000 is rank 990 exactly.
        let tenths = (p * 10.0).round() as usize;
        let index = (tenths * n).div_ceil(1000).checked_sub(1)?;
        let above = n.checked_sub(index + 1)?;
        (above >= beyond).then(|| Tail {
            value: v[index],
            percentile: p,
            beyond: above,
            samples: n,
        })
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

    fn ramp(n: u32) -> Vec<f64> {
        (1..=n).rev().map(f64::from).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn no_tail_without_enough_samples() {
        assert_eq!(tail(&[], 10, &LADDER), None);
        // p50 of 19 samples is the 10th, with only 9 above it.
        assert_eq!(tail(&ramp(19), 10, &LADDER), None);
        assert_eq!(tail(&ramp(5), 0, &[]), None);
    }

    #[test]
    fn the_lowest_rung_with_exactly_enough_beyond() {
        let t = tail(&ramp(20), 10, &LADDER).unwrap();
        assert_eq!(
            (t.value, t.percentile, t.beyond, t.samples),
            (10.0, 50.0, 10, 20)
        );
    }

    #[test]
    fn the_highest_rung_that_keeps_ten_beyond() {
        // 1000 samples: p99 has exactly 10 above it, p99.9 only 1.
        let t = tail(&ramp(1000), 10, &LADDER).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
        // 999 samples: p99 has 9 above it, so the tail drops to p90.
        let t = tail(&ramp(999), 10, &LADDER).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (900.0, 90.0, 99));
        // 10⁵ samples: the ladder stops at p99.9.
        let t = tail(&ramp(100_000), 10, &LADDER).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (99_900.0, 99.9, 100));
    }

    #[test]
    fn the_reported_tail_is_p90_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(100_000), 10, &TAIL_LADDER).unwrap();
        assert_eq!((t.value, t.percentile), (90_000.0, 90.0));
        // 99 samples leave 9 beyond p90: p50 instead.
        let t = tail(&ramp(99), 10, &TAIL_LADDER).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (50.0, 50.0, 49));
    }

    #[test]
    fn ties_and_unsorted_input() {
        let mut v = vec![5.0; 30];
        v.extend([9.0, 1.0, 7.0]);
        let t = tail(&v, 3, &LADDER).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (5.0, 90.0, 3));
        // Nothing required beyond: the top rung, even at the maximum.
        let top = tail(&[2.0, 1.0], 0, &[100.0]).unwrap();
        assert_eq!((top.value, top.beyond), (2.0, 0));
    }
}
