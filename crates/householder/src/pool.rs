//! The workspace-pool trait used by every `_ws` kernel variant.
//!
//! The trait lives here, the lowest crate that needs it: the
//! [`crate::wblock`] merge kernels draw their `S` and merged `W`/`Y`
//! storage from the pool, and `tg-householder` sits underneath
//! `tridiag-core` in the dependency graph. `tridiag_core::WorkspacePool`
//! re-exports it next to its two implementors, `AllocPool` and
//! `CachingPool`.
//!
//! **Determinism contract:** a pool must return buffers that are
//! *bitwise-zero*, exactly like `Mat::zeros`. Under that contract a
//! workspace-taking kernel performs the identical floating-point
//! operations whichever pool supplies its scratch, so its outputs are
//! bitwise-identical across pools.

use tg_matrix::Mat;

/// Supplies zeroed scratch matrices and accepts them back for reuse.
///
/// Implementations must return buffers indistinguishable from
/// `Mat::zeros(rows, cols)`; everything else (caching policy, accounting,
/// debug poisoning) is up to the pool.
pub trait WorkspacePool {
    /// Returns a zero-filled `rows × cols` matrix.
    fn acquire(&mut self, rows: usize, cols: usize) -> Mat;

    /// Hands a no-longer-needed buffer back to the pool. The pool may
    /// recycle or drop it; the contents are dead.
    fn release(&mut self, m: Mat);
}
