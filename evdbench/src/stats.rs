//! Sample summaries: medians, quartiles and the tail percentile.

/// Summary of one metric's samples within a run.
#[derive(Clone, Debug)]
pub struct Summary {
    pub count: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// The highest whole percentile with at least ten samples beyond it,
    /// and its value; `None` below 11 samples.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let count = s.len();
        let tail = (count > 10).then(|| {
            // p such that count·(1 − p/100) ≥ 10
            let p = (100.0 * (1.0 - 10.0 / count as f64)).floor() as u32;
            (p, quantile(&s, p as f64 / 100.0))
        });
        Summary {
            count,
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            tail,
        }
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// Linear-interpolated quantile of sorted `s` (0 when empty).
fn quantile(s: &[f64], q: f64) -> f64 {
    match s.len() {
        0 => 0.0,
        n => {
            let x = q * (n - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_tail() {
        let xs: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.count, s.q1, s.median, s.q3), (21, 6.0, 11.0, 16.0));
        // 21 samples: p52 leaves 10.08 samples beyond it
        assert_eq!(s.tail, Some((52, 11.4)));
        assert!(Summary::of(&[1.0; 10]).tail.is_none());
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
