//! Simplex solver counters, as a view of the [`bcc_num::obs`] registry.
//!
//! The batch drivers in this workspace fan LP solves across worker
//! threads whose private [`Workspace`](crate::Workspace)s are created and
//! dropped inside the parallel region, so per-workspace counters would be
//! invisible to the caller. Instead every solve records into the calling
//! thread's [`obs`] counters — **once per solve**, not per pivot, so the
//! cost is a few nanoseconds against a microsecond-scale solve — and
//! diagnostics like `bench-report` read deltas around a workload:
//!
//! ```
//! use bcc_lp::{Problem, Relation};
//!
//! let before = bcc_lp::stats::local_snapshot();
//! let mut p = Problem::maximize(&[1.0]);
//! p.subject_to(&[1.0], Relation::Le, 2.0);
//! p.solve().unwrap();
//! let delta = bcc_lp::stats::local_snapshot().delta_since(&before);
//! assert_eq!(delta.solves, 1);
//! ```
//!
//! The counters are per thread (see [`bcc_num::obs`] for the capture
//! rules): a delta counts exactly the solves that ran on the calling
//! thread, whatever other threads do meanwhile.

use bcc_num::obs::{self, Counter, Counters};

/// The calling thread's LP counters: a view of four [`obs`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LpStats {
    /// Completed solves (successful or not), warm and cold.
    pub solves: u64,
    /// Total simplex pivots across all solves (warm hits contribute 0).
    pub pivots: u64,
    /// Warm-start candidates evaluated (a matching basis existed).
    pub warm_attempts: u64,
    /// Warm-start candidates accepted — the solve skipped the simplex
    /// entirely and priced the previous optimal basis instead.
    pub warm_hits: u64,
}

impl LpStats {
    /// Counter increments since `earlier` (wrapping, so stale snapshots
    /// cannot panic).
    pub fn delta_since(&self, earlier: &LpStats) -> LpStats {
        LpStats {
            solves: self.solves.wrapping_sub(earlier.solves),
            pivots: self.pivots.wrapping_sub(earlier.pivots),
            warm_attempts: self.warm_attempts.wrapping_sub(earlier.warm_attempts),
            warm_hits: self.warm_hits.wrapping_sub(earlier.warm_hits),
        }
    }
}

impl From<&Counters> for LpStats {
    fn from(c: &Counters) -> LpStats {
        LpStats {
            solves: c[Counter::LpSolves],
            pivots: c[Counter::LpPivots],
            warm_attempts: c[Counter::LpWarmAttempts],
            warm_hits: c[Counter::LpWarmHits],
        }
    }
}

/// The calling thread's LP counters: a view of [`obs::local`].
pub fn local_snapshot() -> LpStats {
    LpStats::from(&obs::local())
}

/// Records one completed solve (called once per solve by the simplex).
pub(crate) fn record_solve(pivots: usize, warm_attempted: bool, warm_hit: bool) {
    obs::add(Counter::LpSolves, 1);
    obs::add(Counter::LpPivots, pivots as u64);
    obs::add(Counter::LpWarmAttempts, u64::from(warm_attempted));
    obs::add(Counter::LpWarmHits, u64::from(warm_hit));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_wrapping_and_componentwise() {
        let a = LpStats {
            solves: 5,
            pivots: 100,
            warm_attempts: 2,
            warm_hits: 1,
        };
        let b = LpStats {
            solves: 9,
            pivots: 130,
            warm_attempts: 6,
            warm_hits: 2,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.solves, 4);
        assert_eq!(d.pivots, 30);
        assert_eq!(d.warm_attempts, 4);
        assert_eq!(d.warm_hits, 1);
        // Wrapping: a stale "later" snapshot must not panic.
        let _ = a.delta_since(&b);
    }

    #[test]
    fn counters_move_on_solves() {
        use crate::{Problem, Relation};
        let ((), d) = obs::scoped(|| {
            let mut p = Problem::maximize(&[1.0, 1.0]);
            p.subject_to(&[1.0, 1.0], Relation::Le, 1.0);
            p.solve().unwrap();
        });
        assert_eq!(d[Counter::LpSolves], 1);
        assert!(d[Counter::LpPivots] >= 1);
    }

    fn one_solve() {
        use crate::{Problem, Relation};
        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.subject_to(&[1.0, 1.0], Relation::Le, 1.0);
        p.solve().unwrap();
    }

    #[test]
    fn scoped_delta_is_exact_despite_concurrent_solves() {
        // A noisy peer thread hammers the solver while the scoped
        // measurement runs; the thread-local delta must still count
        // exactly the calling thread's own solves.
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Relaxed) {
                    one_solve();
                }
            });
            let ((), d) = obs::scoped(|| {
                for _ in 0..7 {
                    one_solve();
                }
            });
            stop.store(true, Relaxed);
            let d = LpStats::from(&d);
            assert_eq!(d.solves, 7, "scoped counts exactly this thread's solves");
            assert!(d.pivots >= 7);
            assert_eq!(d.warm_attempts, 0, "plain Problem::solve never warm-starts");
        });
    }

    #[test]
    fn local_snapshot_ignores_other_threads() {
        let ((), d) = obs::scoped(|| {
            std::thread::scope(|scope| {
                scope.spawn(one_solve).join().unwrap();
            });
        });
        assert_eq!(
            d,
            Counters::default(),
            "peer-thread solves must not leak into this thread's counters"
        );
    }
}
