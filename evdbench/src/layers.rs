//! The traced per-layer pass: the calls `syevd` makes, made one by one
//! through the public per-stage functions, timed by the benchmark's own
//! spans with the program's tracing off. Counts come from one extra pass
//! per call inside a `tg_trace::TraceSession`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tg_blas::Op;
use tg_eigen::{stedc, sterf, syevd, EvdMethod};
use tg_matrix::{gen, Mat};
use tg_trace::{Counter, TraceSession};
use tridiag_core::{
    band_reduce, bulge_chase_pipelined, bulge_chase_seq, dbbr_ws, sytrd_blocked, tridiagonalize_ws,
    AllocPool, CachingPool, DbbrConfig, Method, TridiagResult, WorkspacePool,
};

use crate::check::Tally;
use crate::e2e::Runner;
use crate::stats::median;
use crate::workload::{tridiag_method, METHODS};

/// Order of the square GEMM that sets the reference rate.
const GEMM_N: usize = 512;
/// Timed repetitions of each BLAS probe (the median is kept).
const BLAS_REPS: usize = 5;

/// Traced counters of one call (session-total deltas).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub flops: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub pack_bytes: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.flops += o.flops;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.pack_bytes += o.pack_bytes;
    }
}

/// The layers one method's solve is split into.
const LAYERS: [&str; 6] = ["evd", "stage1", "bc", "reduce", "solve", "backtransform"];
const EVD: usize = 0;
const STAGE1: usize = 1;
const BC: usize = 2;
const REDUCE: usize = 3;
const SOLVE: usize = 4;
const BACKTRANSFORM: usize = 5;

/// One method's measurements over every pass.
#[derive(Default)]
struct MethodLayers {
    /// Per pass, per layer: seconds summed over the workload's problems.
    times: Vec<[f64; LAYERS.len()]>,
    /// Per layer, summed over problems, from the first pass.
    counts: [Counts; LAYERS.len()],
    /// Wall seconds of the traced `syevd` of each pass (every pass runs
    /// it: it is the numerator of `trace.overhead`).
    traced_evd: Vec<f64>,
}

/// `(name, value, unit)` of one per-layer metric.
pub type LayerMetric = (String, f64, &'static str);

/// `(method, layer, counts)` of one call in the first pass.
pub type LayerCounts = (&'static str, &'static str, Counts);

/// What the traced run reports.
pub struct LayerRun {
    pub metrics: Vec<LayerMetric>,
    /// For the report only.
    pub counts: Vec<LayerCounts>,
    pub passes: usize,
}

/// Runs `f`, returning its output and wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `f` inside a trace session, returning its output, counts and wall
/// seconds.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts, f64) {
    let session = TraceSession::begin();
    let (out, secs) = timed(f);
    let tr = session.finish();
    let counts = Counts {
        flops: tr.total(Counter::Flops),
        bytes_read: tr.total(Counter::BytesRead),
        bytes_written: tr.total(Counter::BytesWritten),
        pack_bytes: tr.total(Counter::PackBytes),
    };
    (out, counts, secs)
}

/// Times `run(prep())`; when `count`, runs it once more on a fresh
/// `prep()` inside a trace session.
fn layer<I, T>(
    prep: impl Fn() -> I,
    run: impl Fn(I) -> T,
    count: bool,
) -> (T, f64, Option<(Counts, f64)>) {
    let input = prep();
    let (out, secs) = timed(|| run(input));
    let traced = count.then(|| {
        let input = prep();
        let (_, c, s) = counted(|| run(input));
        (c, s)
    });
    (out, secs, traced)
}

/// The back transformation `syevd` runs for `m`.
fn back_transform(res: &TridiagResult, m: &EvdMethod, v: &mut Mat, pool: &mut dyn WorkspacePool) {
    match m {
        EvdMethod::Proposed {
            backtransform_k, ..
        } => res.apply_q_blocked_ws(v, *backtransform_k, pool),
        _ => res.apply_q(v),
    }
}

impl Runner<'_> {
    /// One pass of method `i` over every problem: adds each layer's time
    /// to `times` and, when `count`, its counts to `ml.counts`.
    fn layer_pass(&self, i: usize, count: bool, ml: &mut MethodLayers, tally: &mut Tally) {
        let m = &self.methods[i].1;
        let method = tridiag_method(m);
        let vectors = self.spec.vectors;
        let mut times = [0.0; LAYERS.len()];
        let mut traced_evd = 0.0;
        for (p, cols) in self.problems.iter().zip(&self.cols) {
            let mut add = |l: usize, secs: f64, traced: Option<(Counts, f64)>| {
                times[l] += secs;
                if let Some((c, s)) = traced {
                    if count {
                        ml.counts[l].add(c);
                    }
                    if l == EVD {
                        traced_evd += s;
                    }
                }
            };
            let solve = |mut a: Mat| catch_unwind(AssertUnwindSafe(|| syevd(&mut a, m, vectors)));
            // An untimed solve first, so that the timed `syevd` follows a
            // call of the same method, as every layer call below does.
            tally.record(p, &solve(p.a.clone()), vectors, cols);
            let (out, secs, traced) = layer(|| p.a.clone(), solve, true);
            add(EVD, secs, traced);
            tally.record(p, &out, vectors, cols);

            // Stage 1 and bulge chasing through their own entry points,
            // dispatched as `tridiagonalize_ws` dispatches them.
            let (band, secs, traced) = layer(
                || p.a.clone(),
                |mut a| match &method {
                    Method::Direct { nb } => {
                        sytrd_blocked(&mut a, *nb);
                        None
                    }
                    Method::Sbr { b, .. } => Some(band_reduce(&mut a, *b, 32)),
                    Method::Dbbr { cfg, .. } => Some(dbbr_ws(&mut a, cfg, &mut AllocPool)),
                    Method::DbbrGrouped { .. } => unreachable!("no EvdMethod builds it"),
                },
                count,
            );
            add(STAGE1, secs, traced);
            if let Some(red) = band {
                let (_, secs, traced) = layer(
                    || (),
                    |()| match &method {
                        Method::Sbr {
                            parallel_sweeps: 0 | 1,
                            ..
                        } => bulge_chase_seq(&red.band),
                        Method::Sbr {
                            parallel_sweeps, ..
                        }
                        | Method::Dbbr {
                            parallel_sweeps, ..
                        } => bulge_chase_pipelined(&red.band, (*parallel_sweeps).max(1)),
                        _ => unreachable!("only the two-stage methods chase bulges"),
                    },
                    count,
                );
                add(BC, secs, traced);
            }

            // The three calls `syevd` makes, one by one.
            let (res, secs, traced) = layer(
                || p.a.clone(),
                |mut a| tridiagonalize_ws(&mut a, &method, &mut AllocPool),
                count,
            );
            add(REDUCE, secs, traced);
            if !vectors {
                let (_, secs, traced) = layer(|| (), |()| sterf(&res.tri), count);
                add(SOLVE, secs, traced);
                continue;
            }
            let (dc, secs, traced) = layer(|| (), |()| stedc(&res.tri), count);
            add(SOLVE, secs, traced);
            let Ok((_, v)) = dc else { continue };
            let (_, secs, traced) = layer(
                || v.clone(),
                |mut v| back_transform(&res, m, &mut v, &mut AllocPool),
                count,
            );
            add(BACKTRANSFORM, secs, traced);
        }
        ml.times.push(times);
        ml.traced_evd.push(traced_evd);
    }

    /// `CachingPool` misses of a warm second reduce + back transform over
    /// the workload (0: the steady state allocates nothing from the pool).
    fn pool_misses(&self, i: usize) -> u64 {
        let m = &self.methods[i].1;
        let method = tridiag_method(m);
        let mut pool = CachingPool::new();
        let mut misses = 0;
        for _ in 0..2 {
            misses = pool.misses();
            for p in self.problems {
                let res = tridiagonalize_ws(&mut p.a.clone(), &method, &mut pool);
                if self.spec.vectors {
                    if let Ok((_, mut v)) = stedc(&res.tri) {
                        back_transform(&res, m, &mut v, &mut pool);
                    }
                }
            }
        }
        pool.misses() - misses
    }

    /// The traced run: at least three passes (the first also counts), more
    /// until `seconds` have passed. Times are medians over passes. Every
    /// solve it makes is recorded in `tally`.
    pub fn layers(&self, seconds: f64, tally: &mut Tally) -> LayerRun {
        let mut ml: Vec<MethodLayers> = (0..METHODS.len())
            .map(|_| MethodLayers::default())
            .collect();
        let start = Instant::now();
        for pass in 0usize.. {
            for j in 0..METHODS.len() {
                let i = (pass + j) % METHODS.len();
                self.layer_pass(i, pass == 0, &mut ml[i], tally);
            }
            if pass >= 2 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let pool_misses: Vec<u64> = (0..METHODS.len()).map(|i| self.pool_misses(i)).collect();
        let batch = self.batch_stats(tally);
        let blas = self.blas_rates();
        let (metrics, counts) = self.collect(&ml, &pool_misses, blas, batch);
        LayerRun {
            metrics,
            counts,
            passes: ml[0].times.len(),
        }
    }

    /// Arena hit rate and worker count of one `BatchScheduler::syevd` over
    /// the workload with the proposed pipeline.
    fn batch_stats(&self, tally: &mut Tally) -> (f64, f64) {
        let sched = tg_batch::BatchScheduler::with_default_workers();
        match sched.syevd(&self.mats, &self.methods[0].1, self.spec.vectors) {
            Ok(batch) => {
                for ((p, evd), cols) in self.problems.iter().zip(batch.results).zip(&self.cols) {
                    tally.record(p, &Ok(Ok(evd)), self.spec.vectors, cols);
                }
                (batch.stats.arena.hit_rate(), batch.stats.workers as f64)
            }
            Err(e) => {
                tally.record_failed(self.mats.len(), &e.to_string());
                (0.0, 0.0)
            }
        }
    }

    /// GFLOP/s of the packed square GEMM (n = 512) and of `syr2k_square`
    /// at the proposed pipeline's `(n, k)`, each the median of a few reps.
    fn blas_rates(&self) -> (f64, f64) {
        let a = gen::random(GEMM_N, GEMM_N, 1);
        let b = gen::random(GEMM_N, GEMM_N, 2);
        let mut c = Mat::zeros(GEMM_N, GEMM_N);
        let gemm: Vec<f64> = (0..BLAS_REPS)
            .map(|_| {
                timed(|| {
                    tg_blas::gemm(
                        1.0,
                        &a.as_ref(),
                        Op::NoTrans,
                        &b.as_ref(),
                        Op::NoTrans,
                        0.0,
                        &mut c.as_mut(),
                    )
                })
                .1
            })
            .collect();
        let gemm_flops = tg_blas::flops::gemm(GEMM_N, GEMM_N, GEMM_N) as f64;

        let n = self.spec.method_n();
        let (k, nb) = match &self.methods[0].1 {
            EvdMethod::Proposed { b, k, .. } => (*k, DbbrConfig::new(*b, *k).nb_syr2k),
            other => unreachable!("methods[0] is proposed, got {other:?}"),
        };
        let z = gen::random(n, k, 3);
        let y = gen::random(n, k, 4);
        let c0 = gen::random_symmetric(n, 5);
        let syr2k: Vec<f64> = (0..BLAS_REPS)
            .map(|_| {
                let mut c = c0.clone();
                timed(|| {
                    tg_blas::syr2k_square(
                        -1.0,
                        &z.as_ref(),
                        &y.as_ref(),
                        1.0,
                        &mut c.as_mut(),
                        nb,
                        2,
                    )
                })
                .1
            })
            .collect();
        let syr2k_flops = tg_blas::flops::syr2k(n, k) as f64;
        (
            gemm_flops / median(&gemm) / 1e9,
            syr2k_flops / median(&syr2k) / 1e9,
        )
    }

    /// The per-layer metrics and the first pass's counts.
    fn collect(
        &self,
        ml: &[MethodLayers],
        pool_misses: &[u64],
        (gemm_gflops, syr2k_gflops): (f64, f64),
        (hit_rate, workers): (f64, f64),
    ) -> (Vec<LayerMetric>, Vec<LayerCounts>) {
        let count = self.problems.len() as f64;
        let cube = |n: usize| (n as f64).powi(3);
        let sytrd_flops: f64 = self.spec.sizes.iter().map(|&n| 4.0 / 3.0 * cube(n)).sum();
        let q_apply_flops: f64 = self.spec.sizes.iter().map(|&n| 2.0 * cube(n)).sum();
        let mut metrics = Vec::new();
        let mut push =
            |name: String, value: f64, unit: &'static str| metrics.push((name, value, unit));
        let mut counts = Vec::new();
        for (i, (name, m)) in self.methods.iter().enumerate() {
            let l = &ml[i];
            // Per-layer median over passes, per problem.
            let t = |layer: usize| {
                median(&l.times.iter().map(|t| t[layer]).collect::<Vec<_>>()) / count
            };
            let gflop = |layer: usize| l.counts[layer].flops as f64 / 1e9 / count;
            push(format!("stage1.{name}_s"), t(STAGE1), "s");
            push(format!("stage1.{name}_gflop"), gflop(STAGE1), "GFLOP");
            let rate = sytrd_flops / count / t(STAGE1) / 1e9;
            push(
                format!("stage1.{name}_gemm_frac"),
                rate / gemm_gflops,
                "ratio",
            );
            if !matches!(m, EvdMethod::CusolverLike { .. }) {
                push(format!("bc.{name}_s"), t(BC), "s");
            }
            push(format!("reduce.{name}_s"), t(REDUCE), "s");
            push(format!("solve.{name}_s"), t(SOLVE), "s");
            push(format!("backtransform.{name}_s"), t(BACKTRANSFORM), "s");
            push(
                format!("backtransform.{name}_gflop"),
                gflop(BACKTRANSFORM),
                "GFLOP",
            );
            // Direct applies one Q factor, the two-stage pipelines two.
            let q_factors = if matches!(m, EvdMethod::CusolverLike { .. }) {
                1.0
            } else {
                2.0
            };
            let computed = if self.spec.vectors {
                q_factors * q_apply_flops
            } else {
                0.0
            };
            let ratio = if computed > 0.0 {
                l.counts[BACKTRANSFORM].flops as f64 / computed
            } else {
                0.0
            };
            push(format!("backtransform.{name}_flop_ratio"), ratio, "ratio");
            push(
                format!("pool.{name}_misses"),
                pool_misses[i] as f64,
                "count",
            );
            // Totals over all passes: the host's speed drifts by several
            // per cent between calls seconds apart, and a ratio of totals
            // averages that out best.
            let total = |layer: usize| l.times.iter().map(|t| t[layer]).sum::<f64>();
            let covered = total(REDUCE) + total(SOLVE) + total(BACKTRANSFORM);
            push(format!("coverage.{name}"), covered / total(EVD), "ratio");
            for (layer, c) in LAYERS.iter().zip(l.counts) {
                counts.push((*name, *layer, c));
            }
        }
        push("blas.gemm_gflops".into(), gemm_gflops, "GFLOP/s");
        push("blas.syr2k_gflops".into(), syr2k_gflops, "GFLOP/s");
        push("batch.arena_hit_rate".into(), hit_rate, "ratio");
        push("batch.workers".into(), workers, "count");
        let p = &ml[0];
        let untraced: f64 = p.times.iter().map(|t| t[EVD]).sum();
        let traced: f64 = p.traced_evd.iter().sum();
        push("trace.overhead".into(), traced / untraced, "ratio");
        (metrics, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{problems, Spec, NAMES};

    /// The traced counts the per-layer metrics are built on repeat exactly
    /// from one pass to the next, for every workload and method.
    #[test]
    fn traced_flop_counts_repeat_exactly() {
        let _serial = crate::serial();
        for name in NAMES {
            let spec = Spec::tiny(name, 3).unwrap();
            let problems = problems(&spec, 3);
            let runner = Runner::new(&spec, &problems, 3);
            let mut tally = Tally::default();
            for i in 0..METHODS.len() {
                let (mut first, mut second) = (MethodLayers::default(), MethodLayers::default());
                runner.layer_pass(i, true, &mut first, &mut tally);
                runner.layer_pass(i, true, &mut second, &mut tally);
                assert!(first.counts[EVD].flops > 0, "{name}/{i}: nothing counted");
                assert_eq!(first.counts, second.counts, "{name}/{i}");
            }
            assert_eq!(tally.failed, 0);
        }
    }
}
