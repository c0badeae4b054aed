//! Blocked bulge-chasing back transformation — the paper's stated future
//! work (§8: the BC back transformation dominates the with-vectors EVD at
//! 61 % of total time; "Future work will focus on optimizing this back
//! transformation process").
//!
//! Observation: within one sweep, consecutive reflectors act on **disjoint,
//! adjacent** row spans (task `t+1` starts at `span_t.end + 1`), so they
//! commute and the whole sweep collapses into a single block reflector
//!
//! ```text
//! ∏_t (I − τ_t v_t v_tᵀ)  =  I − W_s Y_sᵀ,
//! Y_s = [v_0 | v_1 | …]  (block-diagonal), W_s = Y_s · diag(τ)
//! ```
//!
//! Applying a sweep then costs two GEMMs with inner dimension =
//! tasks-per-sweep (≈ `(n−i)/b`) instead of that many rank-1 updates — the
//! same shape transformation Figures 13/14 perform for the band-reduction
//! factor.
//!
//! **This is not free.** `Y_s` is block-diagonal, but the block is stored
//! and applied densely: each apply multiplies the full
//! `(n−i) × (n−i)/b` `Y_s` and `W_s`, so a sweep costs ≈`(n−i)/b` times
//! the flops of its reflectors, and all of `Q₂` costs ≈`4n⁴/(3b)` flops
//! instead of ≈`2n³`. A structure-aware apply that groups the reflectors of
//! consecutive sweeps into small compact-WY blocks is the open fix.

use super::{BcReflector, BcResult};
use crate::backtransform::release_blocks;
use crate::workspace::{AllocPool, WorkspacePool};
use tg_blas::{gemm, gemm_into, Op};
use tg_householder::wblock::WyPair;
use tg_matrix::Mat;

/// One sweep's reflectors as an explicit `(offset, W, Y)` block factor,
/// with pool-acquired storage (caller releases). Returns `None` for empty
/// sweeps.
fn sweep_block_ws(sweep: &[BcReflector], pool: &mut dyn WorkspacePool) -> Option<(usize, WyPair)> {
    let active: Vec<&BcReflector> = sweep.iter().filter(|r| r.tau != 0.0).collect();
    if active.is_empty() {
        return None;
    }
    let r0 = active.iter().map(|r| r.row0).min().unwrap();
    let r1 = active.iter().map(|r| r.row0 + r.v.len()).max().unwrap();
    let rows = r1 - r0;
    let k = active.len();
    let mut y = pool.acquire(rows, k);
    let mut w = pool.acquire(rows, k);
    for (j, r) in active.iter().enumerate() {
        for (i, &vi) in r.v.iter().enumerate() {
            let row = r.row0 - r0 + i;
            y[(row, j)] = vi;
            w[(row, j)] = r.tau * vi;
        }
    }
    Some((r0, WyPair { w, y }))
}

impl BcResult {
    /// One `(offset, W, Y)` block per non-empty sweep, in ascending sweep
    /// (product) order, with pool-acquired storage — built **once** so the
    /// panel-parallel back transformation can share the blocks read-only
    /// across column panels. Release with
    /// [`crate::backtransform::release_blocks`].
    pub fn sweep_blocks_ws(&self, pool: &mut dyn WorkspacePool) -> Vec<(usize, WyPair)> {
        self.reflectors
            .iter()
            .filter_map(|s| sweep_block_ws(s, pool))
            .collect()
    }
    /// `C ← Q₂ C` (or `Q₂ᵀ C`) using one block reflector per sweep.
    ///
    /// Bitwise this differs from [`BcResult::apply_q_left`] only by
    /// floating-point reassociation; numerically the results agree to
    /// machine precision.
    pub fn apply_q_left_blocked(&self, c: &mut Mat, trans: bool) {
        let blocks = self.sweep_blocks_ws(&mut AllocPool);
        apply_blocks(&blocks, c, trans);
        release_blocks(blocks, &mut AllocPool);
    }
}

/// Applies ordered factors (`Q₂ = F₁F₂⋯`, ascending sweep order).
fn apply_blocks(blocks: &[(usize, WyPair)], c: &mut Mat, trans: bool) {
    let ncols = c.ncols();
    let apply_one = |off: usize, f: &WyPair, c: &mut Mat, trans: bool| {
        let rows = f.w.nrows();
        let mut sub = c.view_mut(off, 0, rows, ncols);
        if trans {
            // (I − W Yᵀ)ᵀ = I − Y Wᵀ
            let x = gemm_into(1.0, &f.w.as_ref(), Op::Trans, &sub.rb(), Op::NoTrans);
            gemm(
                -1.0,
                &f.y.as_ref(),
                Op::NoTrans,
                &x.as_ref(),
                Op::NoTrans,
                1.0,
                &mut sub,
            );
        } else {
            f.apply_left(&mut sub);
        }
    };
    if trans {
        for (off, f) in blocks {
            apply_one(*off, f, c, true);
        }
    } else {
        for (off, f) in blocks.iter().rev() {
            apply_one(*off, f, c, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::bc::bulge_chase_seq;
    use tg_matrix::{gen, max_abs_diff, SymBand};

    fn setup(n: usize, b: usize, seed: u64) -> (SymBand, crate::bc::BcResult) {
        let dense = gen::random_symmetric_band(n, b, seed);
        let band = SymBand::from_dense_lower(&dense, b);
        let res = bulge_chase_seq(&band);
        (band, res)
    }

    #[test]
    fn sweep_block_reproduces_reflector_product() {
        let (_, res) = setup(20, 3, 1);
        let n = 20;
        let c0 = gen::random(n, 4, 2);
        let mut unblocked = c0.clone();
        res.apply_q_left(&mut unblocked, false);
        let mut blocked = c0.clone();
        res.apply_q_left_blocked(&mut blocked, false);
        assert!(
            max_abs_diff(&unblocked, &blocked) < 1e-12,
            "{}",
            max_abs_diff(&unblocked, &blocked)
        );
    }

    #[test]
    fn blocked_trans_inverts() {
        let (_, res) = setup(18, 2, 3);
        let c0 = gen::random(18, 5, 4);
        let mut c = c0.clone();
        res.apply_q_left_blocked(&mut c, false);
        res.apply_q_left_blocked(&mut c, true);
        assert!(max_abs_diff(&c, &c0) < 1e-12);
    }

    #[test]
    fn blocked_q_is_orthogonal() {
        let (_, res) = setup(22, 4, 7);
        let mut q = tg_matrix::Mat::identity(22);
        res.apply_q_left_blocked(&mut q, false);
        assert!(tg_matrix::orthogonality_residual(&q) < 1e-12);
    }

    #[test]
    fn trivial_no_reflectors() {
        // tridiagonal input ⇒ no reflectors ⇒ identity application
        let t = gen::random_tridiagonal(8, 8);
        let band = SymBand::from_dense_lower(&t.to_dense(), 1);
        let res = bulge_chase_seq(&band);
        let c0 = gen::random(8, 3, 9);
        let mut c = c0.clone();
        res.apply_q_left_blocked(&mut c, false);
        assert_eq!(c, c0);
    }
}
