//! The workspace's one counter registry.
//!
//! Every diagnostic counter — LP solves and pivots, warm starts,
//! closed-form kernel hits, batched lanes, the serving layer's query
//! outcomes — is one [`Counter`] slot of a single thread-local array. A
//! record site calls [`add`], which bumps one `Cell<u64>` and copies
//! nothing; readers take a [`local`] snapshot or wrap a workload in
//! [`scoped`] and index the delta by [`Counter`]:
//!
//! ```
//! use bcc_num::obs::{self, Counter};
//!
//! let ((), delta) = obs::scoped(|| obs::add(Counter::KernelHits, 3));
//! assert_eq!(delta[Counter::KernelHits], 3);
//! assert_eq!(delta[Counter::LpSolves], 0);
//! ```
//!
//! There are no process-wide totals: a thread's counters move only for
//! work done on that thread, so a delta is exact while other threads
//! (sibling tests, say) solve concurrently. Work fanned out to spawned
//! workers counts on the workers, so pin a measured workload to one
//! worker (`Scenario::threads(1)` runs inline on the caller). The
//! serving layer records a drain's query outcomes on the draining
//! thread. Counters never reset; deltas wrap.

use std::cell::Cell;
use std::ops::Index;

/// One slot of the registry. The crate that records each counter owns
/// its meaning; the per-crate views (`bcc_lp::stats::LpStats`,
/// `bcc_serve::stats::ServeStats`, …) document the fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Completed simplex solves, warm and cold.
    LpSolves,
    /// Simplex pivots across all solves.
    LpPivots,
    /// Warm-start candidates evaluated.
    LpWarmAttempts,
    /// Warm-start candidates accepted.
    LpWarmHits,
    /// Solves served by the closed-form kernels.
    KernelHits,
    /// Points solved through a batched lane kernel.
    BatchedPoints,
    /// Batched points that ran in a full-width lane chunk.
    LanesFilled,
    /// Queries answered by the serving layer.
    ServeQueries,
    /// Serve answers taken from the decision cache.
    ServeCacheHits,
    /// Serve queries that needed a fresh solve.
    ServeCacheMisses,
    /// Decision-cache entries displaced.
    ServeEvictions,
    /// Submissions refused by a full queue.
    ServeRejects,
    /// Kernel solves performed on behalf of serve misses.
    ServeKernelSolves,
    /// Simplex solves performed on behalf of serve misses.
    ServeSimplexSolves,
    /// Serve answers from the degraded fallback.
    ServeDegraded,
    /// Queued queries displaced by high-priority submissions.
    ServeShed,
    /// Queries refused by validation before any solve.
    ServeValidatedRejects,
}

const COUNT: usize = Counter::ServeValidatedRejects as usize + 1;

thread_local! {
    static LOCAL: [Cell<u64>; COUNT] = const { [const { Cell::new(0) }; COUNT] };
}

/// A snapshot (or delta) of every counter, indexed by [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters([u64; COUNT]);

impl Counters {
    /// Counter increments since `earlier` (wrapping).
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| {
            self.0[i].wrapping_sub(earlier.0[i])
        }))
    }
}

impl Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

/// Adds `n` to `counter` on the calling thread.
#[inline]
pub fn add(counter: Counter, n: u64) {
    LOCAL.with(|cells| {
        let cell = &cells[counter as usize];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// The calling thread's counter values.
pub fn local() -> Counters {
    LOCAL.with(|cells| Counters(std::array::from_fn(|i| cells[i].get())))
}

/// Runs `f` and returns its result with the calling thread's counter
/// delta across the call.
///
/// ```
/// use bcc_num::obs::{self, Counter};
///
/// let (x, delta) = obs::scoped(|| {
///     obs::add(Counter::ServeQueries, 2);
///     7
/// });
/// assert_eq!((x, delta[Counter::ServeQueries]), (7, 2));
/// ```
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Counters) {
    let before = local();
    let result = f();
    (result, local().delta_since(&before))
}
