//! Bulge chasing (`Dsb2st`): stage 2 of two-stage tridiagonalization.
//!
//! Reduces a symmetric band matrix (bandwidth `b`) to tridiagonal form with
//! `n − 2` *sweeps*; sweep `s` makes column `s` tridiagonal and chases the
//! resulting bulge off the bottom of the band (Figure 3).
//!
//! * [`seq`] — sequential reference implementation,
//! * [`pipeline`] — the paper's **Algorithm 2**: sweeps run concurrently,
//!   sweep `s` spinning on an atomic progress flag until sweep `s − 1` is at
//!   least `2b` rows ahead. On a GPU each sweep is a thread block; here each
//!   sweep is a task executed by a worker-thread pool, which exercises the
//!   identical synchronisation protocol.
//!
//! Both paths produce **bitwise-identical** results: the dependency protocol
//! makes every task's inputs independent of scheduling.
//!
//! # Back transformation
//!
//! `Q₂ C` is [`BcResult::apply_q_left`], one reflector at a time on the
//! rows it spans: ≈`2n²` flops per column of `C`, the `ormtr` count. The
//! eigenvector-panel workers of
//! [`crate::backtransform::apply_blocks_panels`] run that same body on
//! their column panel. Densifying a sweep into one block reflector is not
//! an option here: its `Y` is `(n−i) × (n−i)/b` and mostly zero, so `Q₂`
//! would cost ≈`4n⁴/(3b)` flops.

pub mod grouped;
pub mod kernels;
pub mod pipeline;
pub mod seq;

pub use grouped::bulge_chase_grouped;
pub use pipeline::bulge_chase_pipelined;
pub use seq::bulge_chase_seq;

use tg_matrix::{Mat, MatMut, Tridiagonal};

/// One Householder reflector generated during bulge chasing, acting on
/// global rows `row0 .. row0 + v.len()` (with `v[0] == 1`).
#[derive(Clone, Debug)]
pub struct BcReflector {
    /// Column whose entries the reflector annihilates.
    pub col: usize,
    /// First global row of the reflector span.
    pub row0: usize,
    /// Scaling factor.
    pub tau: f64,
    /// Reflector vector including the leading unit entry.
    pub v: Vec<f64>,
}

/// Output of bulge chasing.
pub struct BcResult {
    /// The tridiagonal matrix `T` with `B = Q₂ T Q₂ᵀ`.
    pub tri: Tridiagonal,
    /// Reflectors grouped by sweep, in within-sweep application order.
    /// `Q₂ = ∏ H` over sweeps ascending, tasks ascending.
    pub reflectors: Vec<Vec<BcReflector>>,
}

impl BcResult {
    /// Total number of reflectors (≈ `n²/b / 2`).
    pub fn reflector_count(&self) -> usize {
        self.reflectors.iter().map(|v| v.len()).sum()
    }

    /// `C ← Q₂ C`: the BC part of the back transformation, mapping
    /// eigenvectors of `T` to eigenvectors of the band matrix.
    ///
    /// The one body that applies BC reflectors. Each reflector acts on
    /// `len` rows and is applied where it sits (`Q₂ C = H₁ ⋯ H_N C`,
    /// reverse order), so all of `Q₂` costs `Σ 4·len·ncols ≈ 2n²·ncols`
    /// flops. Every column's arithmetic is independent of the others, so
    /// applying this to column panels of `C` is bitwise-identical to
    /// applying it to `C` whole.
    pub fn apply_q_left(&self, c: &mut MatMut<'_>) {
        let (n, ncols) = (c.nrows(), c.ncols());
        let mut rows = 0;
        for r in self.reflectors.iter().flatten() {
            assert!(r.row0 + r.v.len() <= n);
            if r.tau != 0.0 {
                rows += r.v.len();
            }
        }
        tg_trace::add(tg_trace::Counter::Flops, (4 * rows * ncols) as u64);
        for r in self.reflectors.iter().rev().flat_map(|s| s.iter().rev()) {
            let mut sub = c.rb_mut().submatrix_mut(r.row0, 0, r.v.len(), ncols);
            tg_householder::apply_left(r.tau, &r.v[1..], &mut sub);
        }
    }

    /// Materializes `Q₂` (test helper, `O(n³)`).
    pub fn form_q(&self, n: usize) -> Mat {
        let mut q = Mat::identity(n);
        self.apply_q_left(&mut q.as_mut());
        q
    }
}
