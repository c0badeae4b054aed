//! The named workloads, their seeded inputs, and the three EVD pipelines.

use tg_eigen::EvdMethod;
use tg_matrix::{gen, Mat};
use tridiag_core::{DbbrConfig, Method};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["evd-vectors", "evd-values", "batch-small"];

/// Pipeline names, in the order the per-method metrics are reported.
pub const METHODS: [&str; 3] = ["proposed", "magma", "direct"];

/// What one workload solves.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Matrix order of each problem; a single entry means one `syevd` per
    /// solve, several mean one `BatchScheduler::syevd` call over all.
    pub sizes: Vec<usize>,
    pub vectors: bool,
}

impl Spec {
    /// The workload as measured. `seed` only orders the batch sizes.
    pub fn named(name: &str, seed: u64) -> Option<Spec> {
        match name {
            // Back transformation 76–88 % of `proposed`, D&C 5–30 % of
            // every method: where back-transform and D&C changes show.
            "evd-vectors" => Some(Spec::single("evd-vectors", 512, true)),
            // No D&C, no back transformation: stage 1, bulge chasing and
            // the BLAS-3 kernels carry the time.
            "evd-values" => Some(Spec::single("evd-values", 1024, false)),
            // Parallel across problems with serialised inner kernels;
            // arena reuse across shape classes and per-call fixed costs.
            "batch-small" => Some(Spec::batch(&[33, 64, 96, 128], 64, seed)),
            _ => None,
        }
    }

    /// The same workload shrunk so a test can run it in well under a
    /// second.
    #[cfg(test)]
    pub fn tiny(name: &str, seed: u64) -> Option<Spec> {
        let mut spec = Spec::named(name, seed)?;
        spec.sizes = if spec.is_batch() {
            Spec::batch(&[5, 8, 12, 16], 8, seed).sizes
        } else {
            vec![spec.sizes[0] / 16]
        };
        Some(spec)
    }

    fn single(name: &'static str, n: usize, vectors: bool) -> Spec {
        Spec {
            name,
            sizes: vec![n],
            vectors,
        }
    }

    /// `count` sizes cycling through `classes`, in a seeded shuffle.
    fn batch(classes: &[usize], count: usize, seed: u64) -> Spec {
        let mut sizes: Vec<usize> = (0..count).map(|i| classes[i % classes.len()]).collect();
        let mut rng = SplitMix(seed ^ 0x5eed_ba7c);
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Spec {
            name: "batch-small",
            sizes,
            vectors: true,
        }
    }

    pub fn is_batch(&self) -> bool {
        self.sizes.len() > 1
    }

    /// The order the methods are built for: a batch call takes one method
    /// for all its problems, so it is built for the largest of them, as
    /// `tridiag batch` builds it for its `--n`.
    pub fn method_n(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// One input matrix with its known spectrum.
pub struct Problem {
    /// Full symmetric matrix (both triangles stored).
    pub a: Mat,
    /// Exact eigenvalues, ascending.
    pub eigs: Vec<f64>,
    /// `‖A‖₂ = max |λ|`.
    pub norm: f64,
}

/// The workload's problems, generated from `seed` alone.
pub fn problems(spec: &Spec, seed: u64) -> Vec<Problem> {
    let mut rng = SplitMix(seed);
    spec.sizes
        .iter()
        .map(|&n| problem(n, rng.next(), rng.next()))
        .collect()
}

/// `A = Q diag(λ) Qᵀ` with `λ` uniform in `[−1, 1)` (a spread spectrum, so
/// divide and conquer deflates little) and `Q` a random orthogonal matrix.
///
/// This is `gen::with_spectrum` with the product formed column by column
/// (a contiguous axpy per term) instead of entry by entry, which makes
/// n = 1024 take about a second instead of twenty.
pub fn problem(n: usize, spectrum_seed: u64, basis_seed: u64) -> Problem {
    let mut eigs = gen::random(n, 1, spectrum_seed).into_col_major();
    eigs.sort_by(f64::total_cmp);
    let q = gen::random_orthogonal(n, basis_seed);
    let mut a = Mat::zeros(n, n);
    for j in 0..n {
        // lower triangle of column j: A[j.., j] = Σ_k λ_k Q[j, k] Q[j.., k]
        let col = &mut a.col_mut(j)[j..];
        for (k, &lam) in eigs.iter().enumerate() {
            let qk = q.col(k);
            let s = lam * qk[j];
            for (x, &y) in col.iter_mut().zip(&qk[j..]) {
                *x += s * y;
            }
        }
    }
    a.mirror_lower();
    let norm = eigs.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    Problem { a, eigs, norm }
}

/// The EVD pipeline `name` for order `n`, built exactly as
/// `tridiag evd --method <name>` builds it.
pub fn evd_method(name: &str, n: usize) -> EvdMethod {
    let b = (n / 16).clamp(2, 32);
    match name {
        "direct" => EvdMethod::CusolverLike { nb: 32 },
        "magma" => EvdMethod::MagmaLike { b },
        "proposed" => EvdMethod::proposed_default(n),
        other => panic!("unknown method {other}"),
    }
}

/// The reduction `syevd` runs for `m` (its private `to_tridiag_method`,
/// restated through the public types).
pub fn tridiag_method(m: &EvdMethod) -> Method {
    match *m {
        EvdMethod::CusolverLike { nb } => Method::Direct { nb },
        EvdMethod::MagmaLike { b } => Method::Sbr {
            b,
            parallel_sweeps: 1,
        },
        EvdMethod::Proposed {
            b,
            k,
            parallel_sweeps,
            lookahead,
            ..
        } => {
            let mut cfg = DbbrConfig::new(b, k);
            cfg.lookahead = lookahead;
            Method::Dbbr {
                cfg,
                parallel_sweeps,
            }
        }
    }
}

/// splitmix64: the benchmark's own seed stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let spec = Spec::tiny("batch-small", 3).unwrap();
        assert_eq!(spec.sizes, Spec::tiny("batch-small", 3).unwrap().sizes);
        let (p, q) = (problems(&spec, 9), problems(&spec, 9));
        for (x, y) in p.iter().zip(&q) {
            assert_eq!(x.a, y.a);
            assert_eq!(x.eigs, y.eigs);
        }
    }

    #[test]
    fn generated_matrix_matches_with_spectrum() {
        let p = problem(20, 1, 2);
        let want = gen::with_spectrum(&p.eigs, 2);
        let diff = tg_matrix::max_abs_diff(&p.a, &want);
        assert!(diff < 1e-14, "{diff}");
    }
}
