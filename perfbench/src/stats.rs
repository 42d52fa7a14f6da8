//! Order statistics used by every workload's report.

/// Minimum number of samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least [`TAIL_MIN_BEYOND`] samples strictly beyond it.
///
/// With `n` sorted samples that is the sample at index `n - 11`, i.e.
/// percentile `100 * (n - 10) / n` (p99 at 1000 samples, p90 at 100).
/// Fewer than 11 samples have no such percentile; the maximum is
/// returned then, labelled p100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at the percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// See [`Tail`].
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    let s = sorted(xs);
    if n <= TAIL_MIN_BEYOND {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: s[n - 1 - TAIL_MIN_BEYOND],
        percentile: 100.0 * (n - TAIL_MIN_BEYOND) as f64 / n as f64,
        samples: n,
    }
}

/// Samples per slice of [`sliced_tail`].
pub const TAIL_SLICE: usize = 200;

/// The [`tail`] of a long sample, made robust to bursts of host noise:
/// the samples (in the order they were taken) are cut into consecutive
/// slices of at least [`TAIL_SLICE`], the tail is taken per slice, and
/// the median slice tail is reported, labelled with the per-slice
/// percentile and sample count. A sample shorter than two slices is one
/// slice, i.e. plain [`tail`].
pub fn sliced_tail(xs: &[f64]) -> (Tail, usize) {
    let slices = (xs.len() / TAIL_SLICE).max(1);
    let n = xs.len();
    let tails: Vec<Tail> = (0..slices)
        .map(|i| tail(&xs[n * i / slices..n * (i + 1) / slices]))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let first = tails[0];
    (
        Tail {
            value: median(&values),
            ..first
        },
        slices,
    )
}

/// The three cut points that split `xs` into four equal groups, computed
/// exactly like Python's `statistics.quantiles(xs, n=4)` (the default
/// "exclusive" method, including its extrapolation for tiny samples).
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let s = sorted(xs);
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = i * m - j * n;
        let j = j as usize;
        *slot = (s[j - 1] * (n - delta) as f64 + s[j] * delta as f64) / n as f64;
    }
    Some(out)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1..=1000: p99 is 990, with 991..=1000 (ten samples) beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // 100 samples: p90, whatever the input order.
        let mut ys: Vec<f64> = (0..100).map(f64::from).collect();
        ys.reverse();
        let t = tail(&ys);
        assert_eq!((t.value, t.percentile), (89.0, 90.0));
    }

    #[test]
    fn tail_is_highest_such_percentile() {
        // Any higher sample index would leave fewer than ten beyond.
        for n in 11..200usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&xs);
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn tail_of_tiny_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 3));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn sliced_tail_is_the_median_slice_tail() {
        let n = TAIL_SLICE;
        // Shorter than two slices: one slice, the plain rule.
        let xs: Vec<f64> = (0..n + n / 2).map(|i| i as f64).collect();
        assert_eq!(sliced_tail(&xs), (tail(&xs), 1));
        // Three slices whose middle one is a burst of noise: the burst
        // does not move the median slice tail.
        let mut ys: Vec<f64> = (0..3 * n).map(|i| i as f64).collect();
        for y in &mut ys[n..2 * n] {
            *y += 1e9;
        }
        let (t, slices) = sliced_tail(&ys);
        assert_eq!(slices, 3);
        assert_eq!(t.value, tail(&ys[2 * n..]).value);
        assert_eq!((t.percentile, t.samples), (tail(&ys[..n]).percentile, n));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
