//! The timed end-to-end run: a closed loop with a single caller, the three
//! pipelines interleaved round by round.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tg_batch::BatchScheduler;
use tg_eigen::{syevd, EvdMethod};
use tg_matrix::Mat;

use crate::check::{checked_columns, Tally};
use crate::workload::{evd_method, Problem, Spec, METHODS};

/// The workload's problems and pipelines, ready to solve.
pub struct Runner<'a> {
    pub spec: &'a Spec,
    pub problems: &'a [Problem],
    /// `(name, method)` in [`METHODS`] order.
    pub methods: Vec<(&'static str, EvdMethod)>,
    /// Checked eigenvector columns, per problem.
    pub(crate) cols: Vec<Vec<usize>>,
    /// The inputs as `BatchScheduler::syevd` takes them.
    pub(crate) mats: Vec<Mat>,
    scheduler: BatchScheduler,
}

/// Samples of one end-to-end run.
pub struct E2e {
    /// Seconds per problem of every timed solve, per method.
    pub samples: Vec<Vec<f64>>,
    /// Wall seconds of each warm-up phase.
    pub setups: Vec<f64>,
    pub tally: Tally,
}

impl<'a> Runner<'a> {
    pub fn new(spec: &'a Spec, problems: &'a [Problem], seed: u64) -> Runner<'a> {
        let n = spec.method_n();
        Runner {
            spec,
            problems,
            methods: METHODS.iter().map(|&m| (m, evd_method(m, n))).collect(),
            cols: problems
                .iter()
                .map(|p| checked_columns(p.eigs.len(), seed))
                .collect(),
            mats: problems.iter().map(|p| p.a.clone()).collect(),
            scheduler: BatchScheduler::with_default_workers(),
        }
    }

    /// One solve of the workload with method `i`, checked outside the
    /// timed region. Returns its wall time.
    pub fn solve(&self, i: usize, tally: &mut Tally) -> Duration {
        let method = &self.methods[i].1;
        let vectors = self.spec.vectors;
        if !self.spec.is_batch() {
            let p = &self.problems[0];
            let mut a = p.a.clone();
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| syevd(&mut a, method, vectors)));
            let dt = t.elapsed();
            tally.record(p, &out, vectors, &self.cols[0]);
            return dt;
        }
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            self.scheduler.syevd(&self.mats, method, vectors)
        }));
        let dt = t.elapsed();
        match out {
            Ok(Ok(batch)) => {
                for ((p, evd), cols) in self.problems.iter().zip(batch.results).zip(&self.cols) {
                    tally.record(p, &Ok(Ok(evd)), vectors, cols);
                }
            }
            Ok(Err(e)) => tally.record_failed(self.mats.len(), &e.to_string()),
            Err(_) => tally.record_failed(self.mats.len(), "batch panicked"),
        }
        dt
    }

    /// One warm-up phase: one call per method. Returns the summed wall
    /// time of the calls (the checks excluded).
    pub fn warm_up(&self, tally: &mut Tally) -> f64 {
        (0..METHODS.len())
            .map(|i| self.solve(i, tally).as_secs_f64())
            .sum()
    }

    /// `setups` warm-up phases, then whole rounds until `seconds` have
    /// passed (at least one). Round `r` runs the methods in an order
    /// rotated by `r`, so drift in the host's speed hits all three alike.
    pub fn run(&self, setups: usize, seconds: f64) -> E2e {
        let mut tally = Tally::default();
        let setups = (0..setups).map(|_| self.warm_up(&mut tally)).collect();
        let mut samples = vec![Vec::new(); METHODS.len()];
        let start = Instant::now();
        for round in 0usize.. {
            for j in 0..METHODS.len() {
                let i = (round + j) % METHODS.len();
                let secs = self.solve(i, &mut tally).as_secs_f64();
                samples[i].push(secs / self.problems.len() as f64);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        E2e {
            samples,
            setups,
            tally,
        }
    }
}
