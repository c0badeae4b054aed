//! Property-based tests (proptest) over the core invariants.

use proptest::prelude::*;
use tridiag_gpu::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DBBR's contract holds for arbitrary (n, b, k-multiplier) geometry.
    #[test]
    fn dbbr_contract_random_geometry(
        n in 6usize..40,
        b in 1usize..6,
        km in 1usize..5,
        seed in 0u64..1000,
    ) {
        let a0 = gen::random_symmetric(n, seed);
        let mut a = a0.clone();
        let cfg = DbbrConfig::new(b, b * km);
        let red = dbbr(&mut a, &cfg);
        prop_assert!(red.band.is_band_within(b, 1e-11));
        let q = red.form_q(n);
        prop_assert!(orthogonality_residual(&q) < 1e-11);
        prop_assert!(similarity_residual(&a0, &q, &red.band.to_dense()) < 1e-10);
    }

    /// Bulge chasing preserves trace and Frobenius norm (orthogonal
    /// similarity invariants) for arbitrary band geometry.
    #[test]
    fn bc_preserves_invariants(
        n in 4usize..36,
        b in 1usize..7,
        seed in 0u64..1000,
        sweeps in 1usize..6,
    ) {
        let b = b.min(n.saturating_sub(1)).max(1);
        let dense = gen::random_symmetric_band(n, b, seed);
        let band = SymBand::from_dense_lower(&dense, b);
        let res = bulge_chase_pipelined(&band, sweeps);
        let tr0: f64 = (0..n).map(|i| dense[(i, i)]).sum();
        prop_assert!((res.tri.trace() - tr0).abs() < 1e-9 * (1.0 + tr0.abs()));
        let f0 = tridiag_gpu::matrix::frob_norm(&dense);
        prop_assert!((res.tri.frob_sq().sqrt() - f0).abs() < 1e-9 * (1.0 + f0));
    }

    /// Eigen-decomposition residual is backward-stable for random inputs.
    #[test]
    fn syevd_residual_random(n in 3usize..32, seed in 0u64..500) {
        let a = gen::random_symmetric(n, seed);
        let b = (n / 6).clamp(1, 4);
        let m = EvdMethod::Proposed {
            b,
            k: b * 2,
            parallel_sweeps: 2,
            backtransform_k: b * 4,
            lookahead: true,
        };
        let evd = syevd(&mut a.clone(), &m, true).unwrap();
        prop_assert!(evd.residual(&a) < 1e-10);
        // eigenvalues ascending and within the Gershgorin disc union
        prop_assert!(evd.eigenvalues.windows(2).all(|w| w[0] <= w[1]));
        let bound: f64 = (0..n)
            .map(|i| (0..n).map(|j| a[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max);
        prop_assert!(evd.eigenvalues.iter().all(|&e| e.abs() <= bound + 1e-9));
    }

    /// Sturm counts of the reduced T match the computed spectrum exactly.
    #[test]
    fn sturm_counts_consistent(n in 4usize..28, seed in 0u64..500) {
        let a = gen::random_symmetric(n, seed);
        let mut w = a.clone();
        let tri = tridiagonalize(&mut w, &Method::Direct { nb: 4 }).tri;
        let eigs = sterf(&tri).unwrap();
        for (k, &lam) in eigs.iter().enumerate() {
            prop_assert!(tri.sturm_count(lam - 1e-7 * (1.0 + lam.abs())) <= k);
            prop_assert!(tri.sturm_count(lam + 1e-7 * (1.0 + lam.abs())) > k);
        }
    }

    /// The WY merge (Algorithm 3) is associative in effect: merging in any
    /// grouping yields the same orthogonal factor.
    #[test]
    fn wy_merge_grouping_invariant(n in 6usize..20, seed in 0u64..200) {
        use tridiag_gpu::householder::panel::panel_qr;
        use tridiag_gpu::core::AllocPool;
        use tridiag_gpu::householder::wblock::{compute_w_recursive, merge_pair_ws, WyPair};
        let factor = |s: u64| {
            let mut p = gen::random(n, 2, s);
            let pq = {
                let mut v = p.as_mut();
                panel_qr(&mut v)
            };
            WyPair { w: pq.block.w(), y: pq.block.v.clone() }
        };
        let f: Vec<WyPair> = (0..4).map(|i| factor(seed * 10 + i)).collect();
        // Left fold ((F₁F₂)F₃)F₄ against Algorithm 3's balanced recursion.
        let pool = &mut AllocPool;
        let left = f[1..].iter().fold(f[0].clone(), |acc, g| merge_pair_ws(&acc, g, pool));
        let rec = compute_w_recursive(&f, pool);
        let d1 = left.to_dense(n);
        let d2 = rec.to_dense(n);
        prop_assert!(tridiag_gpu::matrix::max_abs_diff(&d1, &d2) < 1e-10);
    }

    /// Band storage round-trips through dense for arbitrary geometry.
    #[test]
    fn band_round_trip(n in 1usize..40, kd in 0usize..8) {
        let kd = kd.min(n.saturating_sub(1));
        let dense = gen::random_symmetric_band(n.max(1), kd, 3);
        let band = SymBand::from_dense_lower(&dense, kd);
        prop_assert_eq!(band.to_dense(), dense);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The closed-form pipeline model upper-bounds parallel efficiency:
    /// more sweeps never hurt, and the serial case equals total work.
    #[test]
    fn pipeline_model_sanity(n in 64usize..512, b in 2usize..16) {
        use tridiag_gpu::gpu_sim::{bc_model, pipeline};
        let mut prev = f64::INFINITY;
        for s in [1usize, 2, 4, 8, 32] {
            let t = bc_model::total_cycles(n, b, s);
            prop_assert!(t <= prev + 1e-9);
            prev = t;
        }
        let des = pipeline::simulate(n, b, 1, 1.0);
        prop_assert_eq!(des.makespan_s, des.total_tasks as f64);
    }
}
