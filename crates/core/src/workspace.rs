//! Scratch-buffer injection for the reduction and back-transform kernels.
//!
//! The band-reduction stages allocate sizeable intermediates — the
//! accumulated `(Z, Y)` pair grows to `n × k` per outer block, and every
//! panel needs a fresh `U`/`Z` — and the back transformation needs merged
//! `W`/`Y` blocks plus per-worker `YᵀC` scratch, so a driver solving many
//! problems in a row pays the allocator once per buffer per problem. The
//! [`WorkspacePool`] trait lets a caller hand the kernels recycled storage
//! instead: every `_ws` entry point requests its scratch through the pool
//! and returns it when done.
//!
//! The trait itself lives in [`tg_householder::pool`] — the `wblock`
//! merge kernels sit below this crate and draw their scratch from the pool
//! too — and is re-exported here so `tridiag_core::WorkspacePool` names the
//! same trait for every implementor and consumer upstack.
//!
//! There are exactly two pools: [`AllocPool`] allocates and drops, and
//! [`CachingPool`] recycles. Every batch worker, serve worker and bench
//! sweep that wants reuse owns one `CachingPool`, so the
//! `ArenaHit`/`ArenaMiss` trace counters have exactly one producer and a
//! pool's [`PoolStats`] always equal what it added to the trace.
//!
//! **Determinism contract:** a pool must return buffers that are
//! *bitwise-zero*, exactly like `Mat::zeros`. Under that contract every
//! `_ws` kernel performs the identical floating-point operations no matter
//! which pool supplies its scratch, so outputs are bitwise-identical across
//! pools and pool states.

use std::collections::BTreeMap;

use tg_matrix::Mat;
use tg_trace::Counter;

pub use tg_householder::pool::WorkspacePool;

/// The trivial pool: every acquire is a fresh allocation, every release a
/// drop. [`crate::dbbr`] and [`crate::tridiagonalize`] use this, so the
/// allocating entry points are literally the `_ws` variants with this pool.
#[derive(Default)]
pub struct AllocPool;

impl WorkspacePool for AllocPool {
    fn acquire(&mut self, rows: usize, cols: usize) -> Mat {
        // Feed the live-bytes gauge so the single-problem path reports the
        // same workspace high-water mark a caching pool does.
        tg_trace::gauge_add(Counter::ArenaLiveBytes, 8 * (rows * cols) as u64);
        Mat::zeros(rows, cols)
    }

    fn release(&mut self, m: Mat) {
        tg_trace::gauge_sub(Counter::ArenaLiveBytes, 8 * (m.nrows() * m.ncols()) as u64);
    }
}

/// Hit/miss accounting for one [`CachingPool`] (or, merged, for a batch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `acquire` calls served from the free lists.
    pub hits: u64,
    /// `acquire` calls that had to allocate.
    pub misses: u64,
    /// High-water mark of simultaneously acquired workspace bytes. Merged
    /// stats sum the per-pool peaks — an upper bound on the batch-wide
    /// simultaneous peak (exact when workers peak together, which a
    /// uniform-shape batch does on its first problems).
    pub peak_live_bytes: u64,
}

impl PoolStats {
    /// `hits / (hits + misses)`, or 0 before the first acquire.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another pool's counts (used to merge per-worker stats).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.peak_live_bytes += other.peak_live_bytes;
    }
}

/// The recycling pool: released buffers park in free lists keyed by
/// length and are zero-scrubbed on reuse, upholding the bitwise contract
/// while making a repeated same-shape workload allocation-free after its
/// first run.
///
/// Every acquire records [`Counter::ArenaHit`] or [`Counter::ArenaMiss`]
/// and feeds the [`Counter::ArenaLiveBytes`] gauge; [`CachingPool::stats`]
/// holds exactly the same counts without a trace session. The cache keeps
/// whatever it is given — dropping it when the workload changes shape is
/// the owner's policy, via [`CachingPool::scrub`].
///
/// In debug builds, released buffers are poisoned with NaN before they
/// reach the free lists, so a kernel that reads scratch it never wrote
/// (or keeps using a buffer after releasing it) surfaces as NaN in its
/// results instead of as silent stale-data reuse.
#[derive(Debug, Default)]
pub struct CachingPool {
    /// Free lists: buffer length → stack of retired buffers of that length.
    free: BTreeMap<usize, Vec<Vec<f64>>>,
    stats: PoolStats,
    /// Bytes currently acquired (checked out and not yet released).
    live_bytes: u64,
}

impl CachingPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Hit/miss counts and the live-byte high-water mark so far — exactly
    /// what this pool has added to the trace.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Acquires served from the free lists since construction.
    pub fn hits(&self) -> u64 {
        self.stats.hits
    }

    /// Acquires that had to allocate.
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Drops every cached buffer. The free lists rebuild on the next
    /// workload (all misses); nothing the previous tenant touched
    /// survives. `tg-serve` scrubs a worker's pool after any failed job
    /// attempt so a buffer corrupted by an injected fault (e.g. a skipped
    /// zero-fill) can never leak into a later job.
    pub fn scrub(&mut self) {
        self.free.clear();
    }

    /// Leases the pool to one job and returns a guard that restores it to
    /// a rentable state however the job ends. If the job unwinds
    /// mid-attempt, its acquired buffers are dropped by the panic instead
    /// of released back — the guard detects the unbalanced live-byte
    /// count, repairs the accounting (including the `ArenaLiveBytes` trace
    /// gauge), and scrubs the cache so the next tenant starts clean.
    pub fn lease(&mut self) -> PoolLease<'_> {
        let entry_live = self.live_bytes;
        PoolLease {
            pool: self,
            entry_live,
        }
    }
}

/// Per-job pool lease from [`CachingPool::lease`]. Derefs to the pool, so
/// it can be passed anywhere a [`WorkspacePool`] is expected.
#[derive(Debug)]
pub struct PoolLease<'a> {
    pool: &'a mut CachingPool,
    entry_live: u64,
}

impl std::ops::Deref for PoolLease<'_> {
    type Target = CachingPool;
    fn deref(&self) -> &CachingPool {
        self.pool
    }
}

impl std::ops::DerefMut for PoolLease<'_> {
    fn deref_mut(&mut self) -> &mut CachingPool {
        self.pool
    }
}

impl Drop for PoolLease<'_> {
    fn drop(&mut self) {
        if self.pool.live_bytes != self.entry_live {
            // The tenant unwound with buffers checked out: those Mats were
            // dropped by the panic, not released, so the bytes can never
            // come back. Repair the book-keeping and drop the cache.
            let leaked = self.pool.live_bytes.saturating_sub(self.entry_live);
            self.pool.live_bytes = self.entry_live;
            tg_trace::gauge_sub(Counter::ArenaLiveBytes, leaked);
            self.pool.scrub();
        }
    }
}

impl WorkspacePool for CachingPool {
    fn acquire(&mut self, rows: usize, cols: usize) -> Mat {
        let len = rows * cols;
        let bytes = 8 * len as u64;
        self.live_bytes += bytes;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes);
        tg_trace::gauge_add(Counter::ArenaLiveBytes, bytes);
        if let Some(mut buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            self.stats.hits += 1;
            tg_trace::add(Counter::ArenaHit, 1);
            // Zeroing (not just clearing the debug poison) is what upholds
            // the bitwise contract: a recycled buffer must be
            // indistinguishable from Mat::zeros. The `arena.acquire` fault
            // site skips exactly this scrub, leaking the previous tenant's
            // data (NaN poison in debug) for the checker to catch. The
            // fault only claims buffers that actually hold stale bits —
            // skipping the scrub of an already-zero buffer would be
            // undetectable because it violates nothing.
            let skip = tg_check::enabled()
                && buf.iter().any(|&x| x.to_bits() != 0)
                && tg_check::fault::skip_zero("arena.acquire");
            if !skip {
                buf.fill(0.0);
            }
            tg_check::workspace_clean(&buf);
            Mat::from_col_major(rows, cols, buf)
        } else {
            self.stats.misses += 1;
            tg_trace::add(Counter::ArenaMiss, 1);
            Mat::zeros(rows, cols)
        }
    }

    fn release(&mut self, m: Mat) {
        let mut buf = m.into_col_major();
        let bytes = 8 * buf.len() as u64;
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
        tg_trace::gauge_sub(Counter::ArenaLiveBytes, bytes);
        if cfg!(debug_assertions) {
            buf.fill(f64::NAN);
        }
        self.free.entry(buf.len()).or_default().push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached_buffers(pool: &CachingPool) -> usize {
        pool.free.values().map(Vec::len).sum()
    }

    #[test]
    fn alloc_pool_returns_zeros() {
        let mut pool = AllocPool;
        let m = pool.acquire(3, 5);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 5);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        pool.release(m);
    }

    #[test]
    fn caching_pool_recycles_and_zeroes() {
        let mut pool = CachingPool::new();
        let mut m = pool.acquire(4, 4);
        m.fill(7.0);
        pool.release(m);
        assert_eq!(cached_buffers(&pool), 1);
        // Same length ⇒ hit, and the buffer must come back bitwise-zero.
        let m2 = pool.acquire(2, 8);
        assert!(m2.as_slice().iter().all(|&x| x.to_bits() == 0));
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-15);
        // Different length ⇒ miss.
        let m3 = pool.acquire(3, 3);
        assert_eq!((pool.hits(), pool.misses()), (1, 2));
        pool.release(m2);
        pool.release(m3);
        assert_eq!(cached_buffers(&pool), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn released_buffers_are_poisoned() {
        let mut pool = CachingPool::new();
        let mut m = pool.acquire(3, 3);
        m.fill(1.5);
        pool.release(m);
        let parked = pool.free.get(&9).and_then(|v| v.last()).unwrap();
        assert!(
            parked.iter().all(|x| x.is_nan()),
            "debug release must NaN-poison: {parked:?}"
        );
    }

    #[test]
    fn scrub_drops_cache() {
        let mut pool = CachingPool::new();
        let m = pool.acquire(4, 4);
        pool.release(m);
        assert_eq!(cached_buffers(&pool), 1);
        pool.scrub();
        assert_eq!(cached_buffers(&pool), 0);
        let _ = pool.acquire(4, 4);
        assert_eq!((pool.hits(), pool.misses()), (0, 2));
    }

    #[test]
    fn live_bytes_track_high_water() {
        let mut pool = CachingPool::new();
        let a = pool.acquire(4, 4); // 128 B live
        let b = pool.acquire(2, 4); // 192 B live — peak
        assert_eq!(pool.live_bytes, 192);
        pool.release(a); // 64 B live
        assert_eq!(pool.live_bytes, 64);
        let c = pool.acquire(4, 4); // 192 B again (cache hit)
        assert_eq!(pool.stats().peak_live_bytes, 192);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.live_bytes, 0);

        // merged stats sum per-pool peaks
        let mut merged = PoolStats::default();
        merged.merge(&pool.stats());
        merged.merge(&PoolStats {
            hits: 0,
            misses: 1,
            peak_live_bytes: 1000,
        });
        assert_eq!(merged.peak_live_bytes, 1192);
        assert_eq!((merged.hits, merged.misses), (1, 3));
    }

    #[test]
    fn zero_length_buffers_recycle() {
        let mut pool = CachingPool::new();
        let m = pool.acquire(5, 0);
        assert_eq!((m.nrows(), m.ncols()), (5, 0));
        pool.release(m);
        let m2 = pool.acquire(0, 3);
        assert_eq!((m2.nrows(), m2.ncols()), (0, 3));
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
    }

    #[test]
    fn balanced_lease_keeps_cache_warm() {
        let mut pool = CachingPool::new();
        {
            let mut lease = pool.lease();
            let m = lease.acquire(4, 4);
            assert_eq!(lease.live_bytes, 128);
            lease.release(m);
            assert_eq!(lease.live_bytes, 0);
        }
        // a balanced lease leaves the cache warm
        assert_eq!(cached_buffers(&pool), 1);
    }

    #[test]
    fn lease_repairs_pool_after_unwind() {
        let mut pool = CachingPool::new();
        // park one clean buffer so there is a cache to scrub
        let m = pool.acquire(4, 4);
        pool.release(m);
        assert_eq!(cached_buffers(&pool), 1);

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = pool.lease();
            let _held = lease.acquire(4, 4);
            panic!("tenant died mid-attempt");
        }));
        assert!(result.is_err());
        // the lease guard ran during unwind: live bytes repaired, cache
        // scrubbed, pool immediately rentable again
        assert_eq!(pool.live_bytes, 0);
        assert_eq!(cached_buffers(&pool), 0);
        let m = pool.acquire(4, 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        pool.release(m);
    }
}
