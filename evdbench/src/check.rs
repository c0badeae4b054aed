//! The output check every solve goes through, and the pass/fail tally
//! behind `correct_share`.

use crate::workload::{Problem, SplitMix};
use tg_eigen::{EigenError, Evd};

/// Error budget in units of `n·ε`: the measured errors are a few `ε`, so
/// this leaves two orders of magnitude before a correct solve is refused.
const TOL_NEPS: f64 = 100.0;

/// Eigenvector columns checked per solve.
const CHECKED_COLS: usize = 8;

/// The fixed, seeded subset of eigenvector columns every solve of an
/// order-`n` problem is checked on (the first and last always included).
pub fn checked_columns(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed ^ 0xc01_5eed);
    let mut cols: Vec<usize> = vec![0, n.saturating_sub(1)];
    while cols.len() < CHECKED_COLS.min(n) {
        cols.push((rng.next() % n as u64) as usize);
        cols.sort_unstable();
        cols.dedup();
    }
    cols.truncate(n);
    cols
}

/// Checks one solve of `p`: eigenvalues against the known spectrum, and
/// with vectors the orthogonality and `A v − λ v` residual of `cols`. Every
/// error is relative to `‖A‖₂`.
pub fn check(p: &Problem, evd: &Evd, want_vectors: bool, cols: &[usize]) -> Result<(), String> {
    let n = p.eigs.len();
    let tol = TOL_NEPS * n as f64 * f64::EPSILON;
    if evd.eigenvalues.len() != n {
        return Err(format!("{} eigenvalues for n = {n}", evd.eigenvalues.len()));
    }
    let mut err = 0.0f64;
    for (got, want) in evd.eigenvalues.iter().zip(&p.eigs) {
        // NaN-propagating max: a NaN eigenvalue must fail the check.
        let e = (got - want).abs() / p.norm;
        err = if e.is_nan() { e } else { err.max(e) };
    }
    within("eigenvalue error", err, tol)?;
    let v = match (&evd.eigenvectors, want_vectors) {
        (None, false) => return Ok(()),
        (Some(v), true) if v.nrows() == n && v.ncols() == n => v,
        _ => return Err("eigenvectors missing, unasked for, or misshaped".into()),
    };
    let mut orth = 0.0f64;
    let mut resid = 0.0f64;
    for &i in cols {
        let vi = v.col(i);
        for &j in cols {
            let dot: f64 = vi.iter().zip(v.col(j)).map(|(x, y)| x * y).sum();
            let e = (dot - if i == j { 1.0 } else { 0.0 }).abs();
            orth = if e.is_nan() { e } else { orth.max(e) };
        }
        let lam = evd.eigenvalues[i];
        let mut av = vec![0.0; n];
        for (k, &vk) in vi.iter().enumerate() {
            for (y, &a) in av.iter_mut().zip(p.a.col(k)) {
                *y += a * vk;
            }
        }
        for (r, &x) in av.iter().zip(vi) {
            let e = (r - lam * x).abs() / p.norm;
            resid = if e.is_nan() { e } else { resid.max(e) };
        }
    }
    within("orthogonality error", orth, tol)?;
    within("residual", resid, tol)
}

fn within(what: &str, err: f64, tol: f64) -> Result<(), String> {
    if err <= tol {
        Ok(())
    } else {
        Err(format!("{what} {err:.3e} exceeds {tol:.3e}"))
    }
}

/// Solves attempted and solves that failed: errored, panicked, or refused
/// by [`check`]. No failed solve is dropped or retried.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records the outcome of one solve of `p`.
    pub fn record(
        &mut self,
        p: &Problem,
        out: &std::thread::Result<Result<Evd, EigenError>>,
        want_vectors: bool,
        cols: &[usize],
    ) {
        self.attempted += 1;
        let verdict = match out {
            Ok(Ok(evd)) => check(p, evd, want_vectors, cols),
            Ok(Err(e)) => Err(format!("solver error: {e}")),
            Err(_) => Err("solver panicked".into()),
        };
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("evdbench: solve of n = {} failed: {why}", p.eigs.len());
        }
    }

    /// Records a whole batch that failed before producing results.
    pub fn record_failed(&mut self, solves: usize, why: &str) {
        self.attempted += solves as u64;
        self.failed += solves as u64;
        eprintln!("evdbench: batch of {solves} failed: {why}");
    }

    pub fn correct_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{evd_method, problem};

    #[test]
    fn columns_are_fixed_distinct_and_in_range() {
        let c = checked_columns(40, 5);
        assert_eq!(c, checked_columns(40, 5));
        assert_eq!(c.len(), CHECKED_COLS);
        assert!(c.windows(2).all(|w| w[0] < w[1]) && *c.last().unwrap() == 39);
        assert_eq!(checked_columns(3, 5), vec![0, 1, 2]);
    }

    #[test]
    fn clean_solves_pass_for_every_method() {
        let _serial = crate::serial();
        let p = problem(40, 1, 2);
        let cols = checked_columns(40, 3);
        let mut tally = Tally::default();
        for name in crate::workload::METHODS {
            for vectors in [false, true] {
                let out = Ok(tg_eigen::syevd(
                    &mut p.a.clone(),
                    &evd_method(name, 40),
                    vectors,
                ));
                tally.record(&p, &out, vectors, &cols);
            }
        }
        assert_eq!((tally.attempted, tally.failed), (6, 0));
    }

    /// Negative control: a slightly perturbed eigenvector matrix must be
    /// caught, and must pull `correct_share` below 1.
    #[test]
    fn perturbed_eigenvectors_lower_correct_share() {
        let _serial = crate::serial();
        let p = problem(40, 1, 2);
        let cols = checked_columns(40, 3);
        let clean = tg_eigen::syevd(&mut p.a.clone(), &evd_method("proposed", 40), true).unwrap();
        let mut bad = clean.clone();
        let v = bad.eigenvectors.as_mut().unwrap();
        for j in 0..40 {
            v[(7, j)] += 1e-9;
        }
        let mut tally = Tally::default();
        tally.record(&p, &Ok(Ok(clean)), true, &cols);
        tally.record(&p, &Ok(Ok(bad)), true, &cols);
        assert_eq!(tally.failed, 1);
        assert!(tally.correct_share() < 1.0);
    }

    #[test]
    fn errors_and_panics_count_as_failed() {
        let p = problem(8, 1, 2);
        let mut tally = Tally::default();
        tally.record(
            &p,
            &Ok(Err(EigenError::NoConvergence { index: 0 })),
            false,
            &[],
        );
        tally.record(&p, &Err(Box::new("boom")), false, &[]);
        tally.record(
            &p,
            &Ok(Ok(Evd {
                eigenvalues: vec![f64::NAN; 8],
                eigenvectors: None,
            })),
            false,
            &[],
        );
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        assert_eq!(tally.correct_share(), 0.0);
    }
}
