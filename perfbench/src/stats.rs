//! Order statistics for latency and rate samples.

/// The percentiles a summary may report as its tail, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of `xs` (any order); `NAN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A timing distribution as the benchmark reports it: the median, the
/// highest percentile that has at least ten samples beyond it, and the
/// sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (e.g. 99.0), or `None` when fewer
    /// than 20 samples leave no percentile with ten beyond it.
    pub tail_pct: Option<f64>,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). Empty input gives `n == 0` and
    /// `NAN` values.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                n,
                p50: f64::NAN,
                tail_pct: None,
                tail: f64::NAN,
            };
        }
        let tail_pct = TAIL_LADDER
            .into_iter()
            .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0);
        Summary {
            n,
            p50: median(&v),
            tail_pct,
            tail: tail_pct.map_or(f64::NAN, |p| nearest_rank(&v, p)),
        }
    }

    /// Nearest-rank percentile `p` of the same samples, for metrics that
    /// fix their percentile (p99) whatever the sample count.
    pub fn percentile(samples: &[f64], p: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            f64::NAN
        } else {
            nearest_rank(&v, p)
        }
    }

    /// "p50 (n=…, p99=…)" for the human-readable report.
    pub fn describe(&self) -> String {
        match self.tail_pct {
            Some(p) => format!("n={}, p{}={:.4}", self.n, p, self.tail),
            None => format!("n={}", self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 990.0);
        let few = Summary::of(&[1.0; 15]);
        assert_eq!(few.tail_pct, None);
        assert_eq!(Summary::of(&[1.0; 20]).tail_pct, Some(50.0));
        assert_eq!(Summary::percentile(&xs, 99.0), 990.0);
    }
}
