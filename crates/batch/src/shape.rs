//! Problem shape classes: when a worker's workspace pool stays warm, and
//! the serving layer's result-cache key.
//!
//! Problems of one [`ShapeClass`] `(n, b, k)` request the same sequence of
//! workspace-buffer sizes, so a worker's [`CachingPool`] warmed by one of
//! them serves every later one from cache. When the class changes between
//! consecutive problems, [`ClassPool`] scrubs the pool instead: mixed-shape
//! batches degrade to allocation, they never hoard buffers no later
//! problem will ask for. Batch and serve workers both hold one.

use tridiag_core::{CachingPool, Method};

/// Workspace-shape key: problems with equal `ShapeClass` request identical
/// buffer-size sequences from the reduction, so their workspaces are
/// interchangeable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeClass {
    /// Matrix dimension.
    pub n: usize,
    /// Bandwidth (panel width `nb` for the direct method).
    pub b: usize,
    /// `syr2k` accumulation width (0 for single-blocking methods).
    pub k: usize,
}

impl ShapeClass {
    /// Shape class of an `n × n` problem reduced with `method`.
    pub fn for_method(n: usize, method: &Method) -> ShapeClass {
        match method {
            Method::Direct { nb } => ShapeClass { n, b: *nb, k: 0 },
            Method::Sbr { b, .. } => ShapeClass { n, b: *b, k: 0 },
            Method::Dbbr { cfg, .. } | Method::DbbrGrouped { cfg, .. } => ShapeClass {
                n,
                b: cfg.b,
                k: cfg.k,
            },
        }
    }

    /// Shape class of an `n × n` problem solved with an EVD `method`.
    pub fn for_evd(n: usize, method: &tg_eigen::EvdMethod) -> ShapeClass {
        use tg_eigen::EvdMethod;
        match method {
            EvdMethod::CusolverLike { nb } => ShapeClass { n, b: *nb, k: 0 },
            EvdMethod::MagmaLike { b } => ShapeClass { n, b: *b, k: 0 },
            EvdMethod::Proposed { b, k, .. } => ShapeClass { n, b: *b, k: *k },
        }
    }
}

/// A worker's [`CachingPool`] plus the shape class of its previous
/// problem — the one place the cache-drop-on-class-change policy lives.
#[derive(Debug, Default)]
pub struct ClassPool {
    pool: CachingPool,
    class: Option<ShapeClass>,
}

impl ClassPool {
    /// The pool, ready for a problem of `class`: scrubbed if `class`
    /// differs from the previous problem's, warm otherwise.
    pub fn for_class(&mut self, class: ShapeClass) -> &mut CachingPool {
        if self.class.replace(class) != Some(class) {
            self.pool.scrub();
        }
        &mut self.pool
    }

    /// The pool's counts so far (see [`CachingPool::stats`]).
    pub fn stats(&self) -> tridiag_core::PoolStats {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::DbbrConfig;

    #[test]
    fn shape_class_mapping() {
        let m = Method::Dbbr {
            cfg: DbbrConfig::new(4, 16),
            parallel_sweeps: 2,
        };
        assert_eq!(
            ShapeClass::for_method(32, &m),
            ShapeClass { n: 32, b: 4, k: 16 }
        );
        let e = tg_eigen::EvdMethod::proposed_default(256);
        let c = ShapeClass::for_evd(256, &e);
        assert_eq!(c.n, 256);
        assert!(c.b > 0 && c.k.is_multiple_of(c.b));
    }
}
