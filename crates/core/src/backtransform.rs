//! Back transformation for the band-reduction stage (§4.3, §5.3).
//!
//! After SBR/DBBR, `A = Q₁ B Q₁ᵀ` with
//! `Q₁ = (I − W₁Y₁ᵀ)(I − W₂Y₂ᵀ) ⋯ (I − W_pY_pᵀ)`, each factor acting on a
//! trailing row range. Eigenvectors of `B` are mapped back with `Q₁ · X`.
//!
//! * [`apply_q1`] — conventional `ormqr` ordering: one factor at a time,
//!   every GEMM has inner dimension `b` (slow on wide GPUs — Figure 14's
//!   baseline).
//! * [`apply_q1_blocked_ws`] — the Figure-13 scheme and the production
//!   path: factors are merged pairwise (batched) **once** into blocks of
//!   width `≥ target_k` with pool-backed scratch ([`merge_q1_blocked_ws`]),
//!   then the merged read-only blocks are applied to fixed-width *column
//!   panels* of `C` on a scoped worker pool ([`apply_blocks_panels`]). The
//!   GEMMs become `n × k`-sized at the cost of extra flops for the merged
//!   `W`s. [`apply_q1_blocked`] is the same path on one worker with
//!   [`AllocPool`].
//!
//! The two-stage pipelines need `Q C = Q₁ (Q₂ C)`. Each panel worker first
//! applies the bulge-chasing factor `Q₂` to its panel through
//! [`BcResult::apply_q_left`], reflector by reflector (≈`2n²` flops per
//! column), and then the merged `Q₁` blocks. The BC reflectors are never
//! densified into block reflectors.
//!
//! # Why panels split columns, never the factor product
//!
//! The factor product `F₁F₂⋯F_p` is ordered — the factors overlap row
//! ranges and do not commute — so parallelizing across *factors* would
//! change the arithmetic. Columns of `C` are the independent axis: each
//! eigenvector is transformed by the same ordered product with no data
//! shared between columns. Partitioning `C` into **fixed-width** panels
//! (width [`PANEL_COLS`], independent of the worker count) keeps the
//! per-panel GEMM shapes — and therefore the kernel dispatch and the
//! floating-point evaluation order — identical no matter how many workers
//! drain the panel queue, so the result is bitwise-identical at every
//! `TG_THREADS`. The serial path is literally the same panels applied in
//! order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::bc::BcResult;
use crate::workspace::{AllocPool, WorkspacePool};
use tg_blas::{gemm, gemm_into, Op};
use tg_householder::wblock::{merge_to_width_ws, WyPair};
use tg_matrix::{Mat, MatMut};

/// Eigenvector-panel width for the parallel apply. Fixed — deliberately
/// *not* derived from the worker count or `C`'s shape — so the per-panel
/// GEMM shapes (and with them the dispatch and summation order) are
/// invariant under `TG_THREADS`; see the module docs. 32 columns keeps a
/// `k × 32` update above the packed-GEMM threshold for production widths
/// while still yielding enough panels to feed 8 workers at `n = 256`.
pub const PANEL_COLS: usize = 32;

/// Applies `Q₁` (or `Q₁ᵀ`) to `C` one factor at a time (conventional order).
///
/// `factors[i] = (offset, I − WᵢYᵢᵀ)` in product order
/// (`Q₁ = F₁ F₂ ⋯ F_p`, offsets ascending).
pub fn apply_q1(factors: &[(usize, WyPair)], c: &mut Mat, trans: bool) {
    if trans {
        // Q₁ᵀ C = F_pᵀ ⋯ F₁ᵀ C : forward order, transposed factors
        for (off, f) in factors {
            let mut sub = c.view_mut(*off, 0, f.w.nrows(), c.ncols());
            apply_factor_trans(f, &mut sub);
        }
    } else {
        // Q₁ C = F₁ (F₂ (⋯ F_p C)) : reverse order
        for (off, f) in factors.iter().rev() {
            let mut sub = c.view_mut(*off, 0, f.w.nrows(), c.ncols());
            f.apply_left(&mut sub);
        }
    }
}

/// `(I − W Yᵀ)ᵀ C = C − Y (Wᵀ C)`.
fn apply_factor_trans(f: &WyPair, c: &mut MatMut<'_>) {
    let x = gemm_into(1.0, &f.w.as_ref(), Op::Trans, &c.rb(), Op::NoTrans);
    gemm(
        -1.0,
        &f.y.as_ref(),
        Op::NoTrans,
        &x.as_ref(),
        Op::NoTrans,
        1.0,
        c,
    );
}

/// Zero-pads a factor with `pad` rows on top (embedding it in a larger
/// identity) so factors with different supports can be merged. The padded
/// storage is pool-acquired (caller releases).
fn pad_top_ws(f: &WyPair, pad: usize, rows: usize, pool: &mut dyn WorkspacePool) -> WyPair {
    let k = f.width();
    let m = f.w.nrows();
    assert!(pad + m <= rows);
    let mut w = pool.acquire(rows, k);
    w.view_mut(pad, 0, m, k).copy_from(&f.w.as_ref());
    let mut y = pool.acquire(rows, k);
    y.view_mut(pad, 0, m, k).copy_from(&f.y.as_ref());
    WyPair { w, y }
}

/// The merge half of [`apply_q1_blocked_ws`], run **once** so the wide
/// blocks can be shared read-only across all column panels. Consecutive
/// factors are grouped until each group holds `target_k / b` factors;
/// within a group the factors are zero-padded to the group's leading
/// offset and merged level-by-level with batched GEMMs
/// ([`merge_to_width_ws`]). Every temporary and the merged `W`/`Y` storage
/// come from `pool`.
///
/// Returns the merged `(offset, factor)` list in product order; every
/// returned matrix is pool-acquired — release with [`release_blocks`].
pub fn merge_q1_blocked_ws(
    factors: &[(usize, WyPair)],
    target_k: usize,
    pool: &mut dyn WorkspacePool,
) -> Vec<(usize, WyPair)> {
    let _span = tg_trace::span_cat(
        "backtransform.merge",
        "stage",
        Some(("factors", factors.len() as u64)),
    );
    if factors.is_empty() {
        return Vec::new();
    }
    let b = factors.iter().map(|(_, f)| f.width()).max().unwrap_or(1);
    let per_group = (target_k / b.max(1)).max(1);
    let mut merged: Vec<(usize, WyPair)> = Vec::new();
    for chunk in factors.chunks(per_group) {
        let off0 = chunk[0].0; // smallest offset (offsets ascend)
        let rows = chunk.iter().map(|(o, f)| f.w.nrows() + o).max().unwrap() - off0;
        let padded: Vec<WyPair> = chunk
            .iter()
            .map(|(o, f)| pad_top_ws(f, o - off0, rows, pool))
            .collect();
        let wide = merge_to_width_ws(padded, target_k, pool);
        for f in wide {
            merged.push((off0, f));
        }
    }
    merged
}

/// Releases every matrix of a pool-acquired block list (the counterpart of
/// [`merge_q1_blocked_ws`]).
pub fn release_blocks(blocks: Vec<(usize, WyPair)>, pool: &mut dyn WorkspacePool) {
    for (_, f) in blocks {
        pool.release(f.w);
        pool.release(f.y);
    }
}

/// Applies `F₁F₂⋯F_p · Q₂` to `C` from the left — the ordered block-factor
/// product (each entry `(offset, I − WYᵀ)`) after the optional
/// bulge-chasing factor `q2` — partitioned into [`PANEL_COLS`]-wide column
/// panels drained by `workers` scoped threads.
///
/// The blocks and reflectors are shared read-only; each panel applies
/// `Q₂` through [`BcResult::apply_q_left`] and then the block product in
/// reverse order. Each worker owns one `YᵀC` scratch buffer, acquired from
/// `pool` on the calling thread before the fan-out and released after the
/// join, sized exactly for the widest block and the widest panel — so the
/// panel loop itself never touches the pool, takes no lock and never
/// allocates. Panel boundaries are independent of `workers`, so the
/// result is bitwise-identical for every worker count (the `workers == 1`
/// path is the same panels in order on the calling thread). Workers enter
/// the `tg_blas::threads` nested-fan-out guard so inner GEMMs stay serial;
/// a single worker keeps intra-kernel parallelism.
pub fn apply_blocks_panels(
    blocks: &[(usize, WyPair)],
    q2: Option<&BcResult>,
    c: &mut Mat,
    workers: usize,
    pool: &mut dyn WorkspacePool,
) {
    let ncols = c.ncols();
    if (blocks.is_empty() && q2.is_none()) || ncols == 0 {
        return;
    }
    let n_panels = ncols.div_ceil(PANEL_COLS);
    let workers = workers.max(1).min(n_panels);
    let kmax = blocks.iter().map(|(_, f)| f.width()).max().unwrap_or(0);
    let mut scratch: Vec<Mat> = (0..workers)
        .map(|_| pool.acquire(kmax, PANEL_COLS.min(ncols)))
        .collect();

    // Carve C into disjoint fixed-width column panels.
    let mut panels: Vec<MatMut<'_>> = Vec::with_capacity(n_panels);
    let mut rest = c.view_mut(0, 0, c.nrows(), ncols);
    while rest.ncols() > 0 {
        let w = rest.ncols().min(PANEL_COLS);
        let (p, r) = rest.split_at_col(w);
        panels.push(p);
        rest = r;
    }

    if workers == 1 {
        for (idx, panel) in panels.iter_mut().enumerate() {
            let _t = tg_trace::span_cat("backtransform.panel", "task", Some(("panel", idx as u64)));
            apply_to_panel(blocks, q2, panel, &mut scratch[0]);
        }
    } else {
        apply_panels_parallel(blocks, q2, panels, &mut scratch);
    }
    for x in scratch {
        pool.release(x);
    }
}

/// The `workers > 1` arm of [`apply_blocks_panels`]: one scoped thread per
/// scratch buffer, draining the panel queue through an atomic cursor.
fn apply_panels_parallel(
    blocks: &[(usize, WyPair)],
    q2: Option<&BcResult>,
    panels: Vec<MatMut<'_>>,
    scratch: &mut [Mat],
) {
    let n_panels = panels.len();

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<MatMut<'_>>>> =
        panels.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let region = tg_trace::RegionId::fresh();
    let _rspan = tg_trace::span_region(
        "parallel.backtransform",
        "region",
        Some(("panels", n_panels as u64)),
        region,
    );
    std::thread::scope(|s| {
        for (wid, x) in scratch.iter_mut().enumerate() {
            let (next, slots) = (&next, &slots);
            s.spawn(move || {
                // Parallelism budget is spent across panels: keep the BLAS
                // kernels inside each panel serial (bitwise-identical
                // either way) instead of nesting a second fan-out.
                let _region = tg_blas::threads::enter_parallel_region();
                let _wspan = tg_trace::span_region(
                    "backtransform.worker",
                    "worker",
                    Some(("w", wid as u64)),
                    region,
                );
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let mut panel = lock_unpoisoned(&slots[i])
                        .take()
                        .expect("each panel claimed once");
                    let _t = tg_trace::span_region(
                        "backtransform.panel",
                        "task",
                        Some(("panel", i as u64)),
                        region,
                    );
                    apply_to_panel(blocks, q2, &mut panel, x);
                }
            });
        }
    });
}

/// A panicking panel worker must not wedge its siblings' slot access.
fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One panel's work: `Q₂` first, then the full ordered block product in
/// reverse order. Row sub-ranges are taken per factor so each apply sees
/// exactly the rows the factor acts on; its `YᵀC` scratch is the leading
/// `width × panel width` view of the worker's buffer (zeroed by the apply
/// before use).
fn apply_to_panel(
    blocks: &[(usize, WyPair)],
    q2: Option<&BcResult>,
    panel: &mut MatMut<'_>,
    scratch: &mut Mat,
) {
    if let Some(bc) = q2 {
        bc.apply_q_left(panel);
    }
    for (off, f) in blocks.iter().rev() {
        let rows = f.w.nrows();
        let (_, below) = panel.rb_mut().split_at_row(*off);
        let (mut sub, _) = below.split_at_row(rows);
        let mut x = scratch.view_mut(0, 0, f.width(), sub.ncols());
        f.apply_left_with(&mut sub, &mut x);
    }
}

/// Applies `Q₁` to `C` with the Figure-13 blocked-`W` scheme:
/// [`merge_q1_blocked_ws`] once, then the merged blocks applied
/// panel-parallel by [`apply_blocks_panels`] on `workers` workers.
///
/// Numerically this matches [`apply_q1`] to merge accuracy, and it is
/// bitwise-identical to *itself* at every `workers` and for every pool.
pub fn apply_q1_blocked_ws(
    factors: &[(usize, WyPair)],
    c: &mut Mat,
    target_k: usize,
    pool: &mut dyn WorkspacePool,
    workers: usize,
) {
    let merged = merge_q1_blocked_ws(factors, target_k, pool);
    apply_blocks_panels(&merged, None, c, workers, pool);
    release_blocks(merged, pool);
}

/// [`apply_q1_blocked_ws`] on one worker with freshly allocated scratch.
pub fn apply_q1_blocked(factors: &[(usize, WyPair)], c: &mut Mat, target_k: usize) {
    apply_q1_blocked_ws(factors, c, target_k, &mut AllocPool, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbr::band_reduce;
    use crate::workspace::AllocPool;
    use tg_matrix::{gen, max_abs_diff};

    fn setup(n: usize, b: usize, seed: u64) -> Vec<(usize, WyPair)> {
        let mut a = gen::random_symmetric(n, seed);
        band_reduce(&mut a, b, 8).factors
    }

    #[test]
    fn conventional_matches_form_q() {
        let n = 20;
        let factors = setup(n, 3, 1);
        let mut q = Mat::identity(n);
        apply_q1(&factors, &mut q, false);
        // cross-check against BandReduction::form_q by rebuilding
        let mut a = gen::random_symmetric(n, 1);
        let red = band_reduce(&mut a, 3, 8);
        let q_ref = red.form_q(n);
        assert!(max_abs_diff(&q, &q_ref) < 1e-13);
    }

    #[test]
    fn trans_is_inverse() {
        let n = 18;
        let factors = setup(n, 2, 2);
        let c0 = gen::random(n, 5, 10);
        let mut c = c0.clone();
        apply_q1(&factors, &mut c, false);
        apply_q1(&factors, &mut c, true);
        assert!(max_abs_diff(&c, &c0) < 1e-12);
    }

    #[test]
    fn blocked_matches_conventional() {
        let n = 28;
        let b = 2;
        let factors = setup(n, b, 3);
        let c0 = gen::random(n, 6, 20);
        for target_k in [2usize, 4, 8, 64] {
            let mut c1 = c0.clone();
            apply_q1(&factors, &mut c1, false);
            let mut c2 = c0.clone();
            apply_q1_blocked(&factors, &mut c2, target_k);
            assert!(
                max_abs_diff(&c1, &c2) < 1e-11,
                "target_k={target_k}: {}",
                max_abs_diff(&c1, &c2)
            );
        }
    }

    #[test]
    fn blocked_on_single_factor() {
        let n = 10;
        let factors = setup(n, 4, 4);
        let c0 = gen::random(n, 3, 30);
        let mut c1 = c0.clone();
        apply_q1(&factors, &mut c1, false);
        let mut c2 = c0.clone();
        apply_q1_blocked(&factors, &mut c2, 1024);
        assert!(max_abs_diff(&c1, &c2) < 1e-12);
    }

    #[test]
    fn empty_factors_noop() {
        let c0 = gen::random(5, 2, 40);
        let mut c = c0.clone();
        apply_q1(&[], &mut c, false);
        apply_q1_blocked(&[], &mut c, 8);
        apply_q1_blocked_ws(&[], &mut c, 8, &mut AllocPool, 4);
        assert_eq!(c, c0);
    }

    #[test]
    fn panel_apply_matches_conventional_and_is_worker_invariant() {
        let n = 40;
        let factors = setup(n, 3, 6);
        // More columns than one panel so the partition is non-trivial, and
        // a ragged final panel (n+PANEL_COLS/2 columns) to cover the
        // short-panel dispatch path.
        let cols = PANEL_COLS + PANEL_COLS / 2 + 3;
        let c0 = gen::random(n, cols, 60);
        let mut reference = c0.clone();
        apply_q1(&factors, &mut reference, false);

        let mut serial = c0.clone();
        apply_q1_blocked_ws(&factors, &mut serial, 8, &mut AllocPool, 1);
        assert!(
            max_abs_diff(&reference, &serial) < 1e-11,
            "{}",
            max_abs_diff(&reference, &serial)
        );

        for workers in [2usize, 3, 4, 7] {
            let mut par = c0.clone();
            apply_q1_blocked_ws(&factors, &mut par, 8, &mut AllocPool, workers);
            assert_eq!(serial, par, "workers = {workers} must be bitwise-identical");
        }
    }

    #[test]
    fn caller_pool_reaches_allocation_free_steady_state() {
        let n = 36;
        let factors = setup(n, 3, 7);
        let c0 = gen::random(n, 2 * PANEL_COLS, 70);
        let mut pool = crate::workspace::CachingPool::new();
        for workers in [1usize, 2] {
            // The first call warms the pool (merge blocks and one panel
            // scratch per worker)…
            let mut c = c0.clone();
            apply_q1_blocked_ws(&factors, &mut c, 8, &mut pool, workers);
            // …after which the whole apply allocates nothing (a buffer not
            // handed back would show up here as a miss).
            let before = pool.misses();
            let mut again = c0.clone();
            apply_q1_blocked_ws(&factors, &mut again, 8, &mut pool, workers);
            assert_eq!(pool.misses(), before, "workers = {workers}: steady state");
            assert_eq!(c, again, "workers = {workers}: warm pool changed bits");
        }
        assert!(pool.hits() > 0);
    }
}
