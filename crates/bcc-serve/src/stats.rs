//! Serving counters, as a view of the [`bcc_num::obs`] registry.
//!
//! The server drains batches across worker threads whose private
//! [`SolveCtx`](bcc_core::SolveCtx)s live only inside the parallel
//! region, so per-context counters cannot tell the operator how the
//! *service* is doing. Instead every serve records its outcome into the
//! calling thread's [`obs`] counters, and diagnostics (the load
//! generator, `bench-report`, the CI gate) read deltas around a
//! workload:
//!
//! ```
//! use bcc_channel::{ChannelState, PowerSplit};
//! use bcc_num::obs;
//! use bcc_serve::{Engine, Query, ServeConfig, ServeStats};
//!
//! let mut engine = Engine::new(&ServeConfig::default());
//! let q = Query::new(ChannelState::new(0.2, 1.0, 3.16), PowerSplit::symmetric(10.0));
//! let (_, delta) = obs::scoped(|| {
//!     engine.serve(&q).unwrap();
//!     engine.serve(&q).unwrap()
//! });
//! let delta = ServeStats::from(&delta);
//! assert_eq!(delta.queries, 2);
//! assert_eq!(delta.cache_hits, 1);
//! ```
//!
//! The counters are per thread (see [`bcc_num::obs`]). Batch drains
//! record their whole batch on the *draining* thread, so a delta around
//! a drain is exact even though the solves themselves ran on workers.

use bcc_num::obs::{self, Counter, Counters};

/// The calling thread's serving counters: a view of ten [`obs`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Queries answered (hit or miss; rejected queries are not counted).
    pub queries: u64,
    /// Queries answered from the decision cache, including within-batch
    /// duplicates that shared one solve.
    pub cache_hits: u64,
    /// Queries that required a fresh solve at the quantized key.
    pub cache_misses: u64,
    /// Cache entries displaced to make room for new ones.
    pub evictions: u64,
    /// Submissions refused because the queue was full (backpressure).
    pub rejects: u64,
    /// Closed-form kernel solves performed on behalf of misses
    /// (the [`SolveCtx`](bcc_core::SolveCtx) fast path).
    pub kernel_solves: u64,
    /// Simplex LP solves performed on behalf of misses.
    pub simplex_solves: u64,
    /// Queries answered from the conservative closed-form fallback
    /// because the primary solve was exhausted or faulted
    /// ([`ServedFrom::Degraded`](crate::ServedFrom::Degraded)).
    pub degraded: u64,
    /// Queued normal-priority queries displaced by high-priority
    /// submissions under overload (distinct from `rejects`, which count
    /// submissions that never entered the queue).
    pub shed: u64,
    /// Queries refused by [`Query::validate`](crate::Query::validate)
    /// before reaching the solver (non-finite or negative inputs).
    pub validated_rejects: u64,
}

impl ServeStats {
    /// Counter increments since `earlier` (wrapping, so stale snapshots
    /// cannot panic).
    pub fn delta_since(&self, earlier: &ServeStats) -> ServeStats {
        ServeStats {
            queries: self.queries.wrapping_sub(earlier.queries),
            cache_hits: self.cache_hits.wrapping_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.wrapping_sub(earlier.cache_misses),
            evictions: self.evictions.wrapping_sub(earlier.evictions),
            rejects: self.rejects.wrapping_sub(earlier.rejects),
            kernel_solves: self.kernel_solves.wrapping_sub(earlier.kernel_solves),
            simplex_solves: self.simplex_solves.wrapping_sub(earlier.simplex_solves),
            degraded: self.degraded.wrapping_sub(earlier.degraded),
            shed: self.shed.wrapping_sub(earlier.shed),
            validated_rejects: self
                .validated_rejects
                .wrapping_sub(earlier.validated_rejects),
        }
    }

    /// Fraction of answered queries served from the cache, in `[0, 1]`
    /// (`0` when no queries were answered).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

impl From<&Counters> for ServeStats {
    fn from(c: &Counters) -> ServeStats {
        ServeStats {
            queries: c[Counter::ServeQueries],
            cache_hits: c[Counter::ServeCacheHits],
            cache_misses: c[Counter::ServeCacheMisses],
            evictions: c[Counter::ServeEvictions],
            rejects: c[Counter::ServeRejects],
            kernel_solves: c[Counter::ServeKernelSolves],
            simplex_solves: c[Counter::ServeSimplexSolves],
            degraded: c[Counter::ServeDegraded],
            shed: c[Counter::ServeShed],
            validated_rejects: c[Counter::ServeValidatedRejects],
        }
    }
}

/// The calling thread's serving counters: a view of [`obs::local`].
pub fn local_snapshot() -> ServeStats {
    ServeStats::from(&obs::local())
}

/// Adds each field of `delta` to its [`obs`] counter. Called once per
/// serve or per drained batch, never per solve.
pub(crate) fn record(delta: &ServeStats) {
    obs::add(Counter::ServeQueries, delta.queries);
    obs::add(Counter::ServeCacheHits, delta.cache_hits);
    obs::add(Counter::ServeCacheMisses, delta.cache_misses);
    obs::add(Counter::ServeEvictions, delta.evictions);
    obs::add(Counter::ServeRejects, delta.rejects);
    obs::add(Counter::ServeKernelSolves, delta.kernel_solves);
    obs::add(Counter::ServeSimplexSolves, delta.simplex_solves);
    obs::add(Counter::ServeDegraded, delta.degraded);
    obs::add(Counter::ServeShed, delta.shed);
    obs::add(Counter::ServeValidatedRejects, delta.validated_rejects);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_wrapping_and_componentwise() {
        let a = ServeStats {
            queries: 10,
            cache_hits: 4,
            cache_misses: 6,
            evictions: 1,
            rejects: 0,
            kernel_solves: 5,
            simplex_solves: 1,
            ..ServeStats::default()
        };
        let mut b = a;
        b.queries += 7;
        b.cache_hits += 3;
        b.cache_misses += 4;
        b.rejects += 2;
        b.degraded += 1;
        b.shed += 2;
        b.validated_rejects += 3;
        let d = b.delta_since(&a);
        assert_eq!(d.queries, 7);
        assert_eq!(d.cache_hits, 3);
        assert_eq!(d.cache_misses, 4);
        assert_eq!(d.rejects, 2);
        assert_eq!(d.evictions, 0);
        assert_eq!(d.degraded, 1);
        assert_eq!(d.shed, 2);
        assert_eq!(d.validated_rejects, 3);
        // Wrapping: a stale "later" snapshot must not panic.
        let _ = a.delta_since(&b);
    }

    #[test]
    fn hit_rate_handles_the_empty_snapshot() {
        assert_eq!(ServeStats::default().hit_rate(), 0.0);
        let s = ServeStats {
            queries: 8,
            cache_hits: 6,
            ..ServeStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn record_moves_the_registry_counters() {
        let delta = ServeStats {
            queries: 3,
            cache_hits: 1,
            cache_misses: 2,
            evictions: 0,
            rejects: 1,
            kernel_solves: 2,
            simplex_solves: 0,
            degraded: 1,
            shed: 1,
            validated_rejects: 2,
        };
        let ((), d) = obs::scoped(|| record(&delta));
        assert_eq!(ServeStats::from(&d), delta);
        assert_eq!(
            d[Counter::KernelHits],
            0,
            "serve records only serve counters"
        );
    }

    #[test]
    fn local_snapshot_ignores_other_threads() {
        let ((), d) = obs::scoped(|| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        record(&ServeStats {
                            queries: 5,
                            ..ServeStats::default()
                        })
                    })
                    .join()
                    .unwrap();
            });
        });
        assert_eq!(
            d,
            Counters::default(),
            "peer-thread serves must not leak into this thread's counters"
        );
    }
}
