//! Determinism contract for the parallel blocked back transformation.
//!
//! The panel-parallel Figure-13 path promises more than "numerically
//! close": panel boundaries are fixed (`PANEL_COLS`), every panel applies
//! the same shared read-only block list in the same order, and workers
//! only *claim* panels — they never split or reorder the arithmetic
//! inside one. The result must therefore be **bitwise identical** across
//! every worker count and every pool implementation. These tests hammer
//! that promise for both two-stage pipelines (SBR and DBBR) with
//! `workers ∈ {1, 2, 4, 7}` (including a deliberately odd, non-divisor
//! count) and repeated runs, and pin the blocked path to the conventional
//! reflector-by-reflector apply within numerical tolerance.

use tridiag_gpu::core::backtransform::apply_blocks_panels;
use tridiag_gpu::core::{AllocPool, CachingPool};
use tridiag_gpu::prelude::*;

fn assert_mat_bitwise(a: &Mat, b: &Mat, ctx: &str) {
    assert_eq!(a.nrows(), b.nrows(), "{ctx}: nrows");
    assert_eq!(a.ncols(), b.ncols(), "{ctx}: ncols");
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            assert!(
                a[(i, j)].to_bits() == b[(i, j)].to_bits(),
                "{ctx}: ({i},{j}) {} vs {}",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
}

fn methods() -> Vec<(&'static str, Method)> {
    vec![
        (
            "sbr",
            Method::Sbr {
                b: 4,
                parallel_sweeps: 2,
            },
        ),
        (
            "dbbr",
            Method::Dbbr {
                cfg: DbbrConfig::new(4, 16),
                parallel_sweeps: 2,
            },
        ),
    ]
}

#[test]
fn blocked_parallel_bitwise_matches_serial_across_worker_counts() {
    let n = 56; // not a multiple of PANEL_COLS: exercises the ragged panel
    for (name, method) in methods() {
        let red = tridiagonalize(&mut gen::random_symmetric(n, 11), &method);
        let c0 = gen::random(n, n, 12);

        let mut serial = c0.clone();
        red.apply_q_blocked_ws_with(&mut serial, 16, &mut AllocPool, 1);

        for &workers in &[2usize, 4, 7] {
            let mut pool = CachingPool::new();
            let mut par = c0.clone();
            red.apply_q_blocked_ws_with(&mut par, 16, &mut pool, workers);
            assert_mat_bitwise(
                &serial,
                &par,
                &format!("{name} workers={workers} vs serial"),
            );
            // repeats: different thread interleavings and a warm pool
            // (recycled merge blocks and panel scratch), same bits
            for rep in 0..2 {
                let mut again = c0.clone();
                red.apply_q_blocked_ws_with(&mut again, 16, &mut pool, workers);
                assert_mat_bitwise(
                    &serial,
                    &again,
                    &format!("{name} workers={workers} repeat {rep}"),
                );
            }
        }
    }
}

#[test]
fn caching_pool_is_bitwise_equal_to_alloc_pool() {
    // PR-4 workspace contract: pool-acquired buffers are zeroed on reuse,
    // so swapping the allocator never changes a single bit — even when
    // the caching pool is reused across applies.
    let n = 48;
    for (name, method) in methods() {
        let red = tridiagonalize(&mut gen::random_symmetric(n, 21), &method);
        let c0 = gen::random(n, n, 22);

        let mut reference = c0.clone();
        red.apply_q_blocked_ws_with(&mut reference, 16, &mut AllocPool, 2);

        let mut cache = CachingPool::new();
        for rep in 0..3 {
            let mut got = c0.clone();
            red.apply_q_blocked_ws_with(&mut got, 16, &mut cache, 2);
            assert_mat_bitwise(&reference, &got, &format!("{name} caching rep {rep}"));
        }
    }
}

#[test]
fn blocked_path_matches_conventional_apply_within_tolerance() {
    // The blocked path regroups the arithmetic (merged W blocks, panel
    // GEMMs), so it is not bitwise-equal to the reflector-by-reflector
    // apply — but both compute Q·C and must agree to rounding error.
    let n = 48;
    for (name, method) in methods() {
        let red = tridiagonalize(&mut gen::random_symmetric(n, 31), &method);
        let c0 = gen::random(n, n, 32);

        let mut conventional = c0.clone();
        red.apply_q(&mut conventional);

        let mut blocked = c0.clone();
        red.apply_q_blocked_ws_with(&mut blocked, 16, &mut AllocPool, 4);

        let mut max_diff = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                max_diff = max_diff.max((conventional[(i, j)] - blocked[(i, j)]).abs());
            }
        }
        assert!(max_diff < 1e-11, "{name}: max |diff| = {max_diff:e}");
    }
}

#[test]
fn panel_q2_apply_is_bitwise_equal_to_whole_matrix_reflector_apply() {
    // Each panel worker applies the BC reflectors through the same body as
    // `BcResult::apply_q_left`, whose per-column arithmetic does not depend
    // on the other columns — so with no Q₁ blocks the panel path must
    // reproduce the whole-matrix apply bit for bit.
    let (n, b) = (70, 5); // 70 columns: two full panels and a ragged one
    let dense = gen::random_symmetric_band(n, b, 51);
    let bc = bulge_chase_pipelined(&SymBand::from_dense_lower(&dense, b), 2);
    let c0 = gen::random(n, n, 52);

    let mut whole = c0.clone();
    bc.apply_q_left(&mut whole.as_mut());

    let mut pool = CachingPool::new();
    for &workers in &[1usize, 2, 4, 7] {
        for rep in 0..2 {
            let mut panels = c0.clone();
            apply_blocks_panels(&[], Some(&bc), &mut panels, workers, &mut pool);
            assert_mat_bitwise(
                &whole,
                &panels,
                &format!("workers={workers} rep {rep} vs whole-matrix apply"),
            );
        }
    }
    assert!(pool.stats().hits > 0, "the pool was never reused");
}

#[test]
fn direct_method_falls_back_to_reflector_apply() {
    // The one-stage pipeline has no W factors to merge; the pooled entry
    // point must degrade to the ormqr-style apply, bitwise.
    let n = 40;
    let red = tridiagonalize(&mut gen::random_symmetric(n, 41), &Method::Direct { nb: 8 });
    let c0 = gen::random(n, n, 42);

    let mut conventional = c0.clone();
    red.apply_q(&mut conventional);

    let mut blocked = c0.clone();
    red.apply_q_blocked_ws_with(&mut blocked, 16, &mut AllocPool, 4);
    assert_mat_bitwise(&conventional, &blocked, "direct fallback");
}
