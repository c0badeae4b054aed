//! # tg-batch
//!
//! Batched multi-problem EVD / tridiagonalization.
//!
//! GPU eigensolver workloads frequently solve *many* moderate-size
//! problems rather than one huge one (cuSOLVER ships `syevjBatched`; the
//! paper's single-problem pipeline is the building block). This crate adds
//! that batched layer on top of `tg-eigen`:
//!
//! * [`BatchScheduler`] — runs `syevd` / `tridiagonalize` over a slice of
//!   problems on a pool of worker threads, handing out work through an
//!   atomic index queue,
//! * [`ClassPool`] — each worker's [`tridiag_core::CachingPool`], kept
//!   warm across consecutive problems of one [`ShapeClass`] `(n, b, k)`
//!   and scrubbed when the class changes,
//! * [`BatchResult`] / [`BatchStats`] — per-problem outputs in input
//!   order plus scheduling and pool statistics.
//!
//! The headline contract is **per-problem determinism**: every batched
//! result is bitwise-identical to the single-problem `syevd`/
//! `tridiagonalize` output, independent of worker count and scheduling
//! order. See `docs/BATCHING.md` for how the pool's zero-fill contract
//! makes that hold.
//!
//! ```
//! use tg_batch::BatchScheduler;
//! use tg_eigen::EvdMethod;
//! use tg_matrix::gen;
//!
//! let problems: Vec<_> = (0..4).map(|s| gen::random_symmetric(16, s)).collect();
//! let method = EvdMethod::proposed_default(16);
//! let batch = BatchScheduler::new(2).syevd(&problems, &method, true).unwrap();
//! assert_eq!(batch.results.len(), 4);
//! assert!(batch.stats.arena.hit_rate() > 0.0);
//! ```

pub mod scheduler;
pub mod shape;
pub mod threads;

pub use scheduler::{BatchResult, BatchScheduler, BatchStats, CancelToken};
pub use shape::{ClassPool, ShapeClass};
pub use threads::worker_threads;
