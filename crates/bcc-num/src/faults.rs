//! Deterministic, seed-driven fault injection.
//!
//! Production serving stacks earn their robustness claims by *injecting*
//! the failures they promise to survive — solver iteration limits, cache
//! corruption, worker panics — and proving the degraded behaviour. Most
//! chaos harnesses pay for that with irreproducibility; this workspace
//! does not have to, because every result is already a pure function of
//! its inputs and a seed. This module extends the same discipline to the
//! faults themselves.
//!
//! # Model
//!
//! A [`FaultPlan`] assigns each [`FaultSite`] a probability and a
//! per-scope trigger budget. Drivers wrap each *work item* (a serve
//! query, a sweep grid point) in a [`FaultScope`] keyed by a stable token
//! — a quantized-query hash, a grid index — and the hooks compiled into
//! the lower layers ask [`should_inject`] / [`site_fated`] whether to
//! fire. Every decision is a pure function of
//! `(plan seed, site, token, draw index)`, mixed SplitMix64-style exactly
//! like the workspace's `mix_seed` trial streams, so an injection
//! schedule is **bit-reproducible across thread counts, batch sizes and
//! replays**: the same plan over the same query stream poisons the same
//! items, every time, on any machine.
//!
//! Two query styles exist because they answer different questions:
//!
//! * [`should_inject`] draws a fresh decision each call (the scope keeps a
//!   per-site draw counter), for sites that model *transient* faults — a
//!   solver call that hits its iteration limit once and succeeds on
//!   retry.
//! * [`site_fated`] evaluates draw 0 once per scope and caches it, for
//!   sites that model *item-bound* faults — a grid point whose lane is
//!   poisoned, a cache key whose entries always corrupt. Fated sites are
//!   what keep chaos runs invariant under batching: whichever code path
//!   re-examines the item reaches the same verdict.
//!
//! When no scope is active (or the plan is empty) every hook answers
//! "no" after a single thread-local read, so fault-free runs execute the
//! exact pre-existing instruction stream.
//!
//! ```
//! use bcc_num::faults::{self, FaultPlan, FaultSite, FaultScope};
//!
//! let plan = FaultPlan::new(7).with(FaultSite::LpIterationLimit, 0.5, 1);
//! let fired: Vec<bool> = (0..8u64)
//!     .map(|item| {
//!         let _scope = FaultScope::enter(&plan, item);
//!         faults::should_inject(FaultSite::LpIterationLimit)
//!     })
//!     .collect();
//! // Same plan, same tokens -> same schedule, bit-for-bit.
//! let again: Vec<bool> = (0..8u64)
//!     .map(|item| {
//!         let _scope = FaultScope::enter(&plan, item);
//!         faults::should_inject(FaultSite::LpIterationLimit)
//!     })
//!     .collect();
//! assert_eq!(fired, again);
//! ```

use std::cell::RefCell;

/// Where a fault can be injected. Each site is compiled into exactly one
/// seam of the stack; the table below is the contract the chaos suites
/// test against.
///
/// | Site | Hook | Observable effect |
/// |---|---|---|
/// | `LpIterationLimit` | simplex solve entry | solve returns `LpError::IterationLimit` |
/// | `LpWarmReject` | warm-start gate | warm attempt skipped (cold solve; results unchanged) |
/// | `KernelPoison` | closed-form kernel entry (fated) | solve fails with an injected error; batch drivers fall back per point |
/// | `CacheEvict` | decision-cache admission (fated) | key behaves as perpetually evicted: never served from cache, never admitted |
/// | `CacheCorrupt` | decision-cache admission (fated) | entries stored with a bad checksum; reads detect and invalidate instead of serving |
/// | `WorkerPanic` | serve/solve worker item entry | the worker panics; `catch_unwind` isolation contains it to the item |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Force the flat-tableau simplex to report `IterationLimit`.
    LpIterationLimit,
    /// Force the warm-start acceptance gate to reject (cold solve).
    LpWarmReject,
    /// Poison a closed-form kernel evaluation (item-fated).
    KernelPoison,
    /// Force a decision-cache key to behave as evicted (item-fated).
    CacheEvict,
    /// Corrupt decision-cache entries for a key (item-fated; detected by
    /// the stored checksum and invalidated instead of served).
    CacheCorrupt,
    /// Panic inside a worker while processing the item.
    WorkerPanic,
}

/// Number of distinct [`FaultSite`]s.
pub const SITE_COUNT: usize = 6;

impl FaultSite {
    /// All sites, in a fixed order (the order of the per-site arrays).
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::LpIterationLimit,
        FaultSite::LpWarmReject,
        FaultSite::KernelPoison,
        FaultSite::CacheEvict,
        FaultSite::CacheCorrupt,
        FaultSite::WorkerPanic,
    ];

    fn idx(self) -> usize {
        match self {
            FaultSite::LpIterationLimit => 0,
            FaultSite::LpWarmReject => 1,
            FaultSite::KernelPoison => 2,
            FaultSite::CacheEvict => 3,
            FaultSite::CacheCorrupt => 4,
            FaultSite::WorkerPanic => 5,
        }
    }

    /// Per-site stream salt, so the draw streams of different sites under
    /// one token are decorrelated.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; fixed forever so plans replay across
        // versions.
        const SALTS: [u64; SITE_COUNT] = [
            0x9E37_79B9_7F4A_7C15,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            0xD6E8_FEB8_6659_FD93,
            0xA5A3_564D_5F87_C0E7,
            0xC2B2_AE3D_27D4_EB4F,
        ];
        SALTS[self.idx()]
    }
}

/// One site's slice of a [`FaultPlan`]: fire with `probability` on each
/// draw, at most `triggers` times per scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Per-draw firing probability in `[0, 1]`. `0.0` disables the site.
    pub probability: f64,
    /// Maximum fires per [`FaultScope`]; further draws answer `false`.
    pub triggers: u32,
}

impl SiteSpec {
    const OFF: SiteSpec = SiteSpec {
        probability: 0.0,
        triggers: 0,
    };

    fn enabled(&self) -> bool {
        self.probability > 0.0 && self.triggers > 0
    }
}

/// A seed-driven fault-injection schedule: per-[`FaultSite`] probability
/// and trigger budget, deterministic given `(seed, site, scope token,
/// draw index)`.
///
/// The empty plan ([`FaultPlan::none`], also `Default`) injects nothing
/// and is free to carry around; hooks short-circuit on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sites: [SiteSpec; SITE_COUNT],
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: every site disabled.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            sites: [SiteSpec::OFF; SITE_COUNT],
        }
    }

    /// A plan with the given seed and every site disabled; enable sites
    /// with [`FaultPlan::with`].
    pub const fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: [SiteSpec::OFF; SITE_COUNT],
        }
    }

    /// Enables `site` with the given per-draw `probability` and per-scope
    /// trigger budget.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not finite or outside `[0, 1]`.
    pub fn with(mut self, site: FaultSite, probability: f64, triggers: u32) -> Self {
        assert!(
            probability.is_finite() && (0.0..=1.0).contains(&probability),
            "fault probability must be finite and in [0, 1], got {probability}"
        );
        self.sites[site.idx()] = SiteSpec {
            probability,
            triggers,
        };
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec for `site`.
    pub fn site(&self, site: FaultSite) -> SiteSpec {
        self.sites[site.idx()]
    }

    /// `true` if no site can ever fire.
    pub fn is_empty(&self) -> bool {
        self.sites.iter().all(|s| !s.enabled())
    }
}

/// SplitMix64 finalizer — the same mixing discipline as the workspace's
/// per-trial `mix_seed` streams, duplicated here because `bcc-num` sits
/// below the crate that exports it.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a stable per-item scope token from a stream seed and an item
/// index — the standard way for drivers whose items are indices (grid
/// points, trial numbers) to key their [`FaultScope`]s.
pub fn scope_token(stream_seed: u64, index: u64) -> u64 {
    mix(stream_seed ^ mix(index))
}

/// The uniform deviate for `(plan, site, token, draw)`, in `[0, 1)`.
fn deviate(plan: &FaultPlan, site: FaultSite, token: u64, draw: u32) -> f64 {
    let x = mix(plan.seed ^ site.salt() ^ mix(token).wrapping_add(u64::from(draw)));
    // 53 high bits -> [0, 1), the usual f64 construction.
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

struct ScopeState {
    plan: FaultPlan,
    token: u64,
    /// Per-site draw cursor for [`should_inject`].
    draws: [u32; SITE_COUNT],
    /// Per-site fire count (enforces the trigger budget).
    fires: [u32; SITE_COUNT],
    /// Cached draw-0 verdicts for [`site_fated`].
    fated: [Option<bool>; SITE_COUNT],
}

thread_local! {
    static ACTIVE: RefCell<Vec<ScopeState>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard that makes `plan` the active fault context of the current
/// thread for one work item. Scopes nest (the innermost wins) and restore
/// the previous context on drop.
///
/// Entering a scope with an empty plan is cheap and makes every hook
/// answer `false`, so drivers can enter unconditionally.
#[derive(Debug)]
pub struct FaultScope {
    entered: bool,
}

impl FaultScope {
    /// Activates `plan` for the current thread, keyed by `token` (a
    /// stable identity of the work item — see [`scope_token`]).
    #[must_use = "the scope deactivates when dropped"]
    pub fn enter(plan: &FaultPlan, token: u64) -> FaultScope {
        if plan.is_empty() {
            return FaultScope { entered: false };
        }
        ACTIVE.with(|stack| {
            stack.borrow_mut().push(ScopeState {
                plan: *plan,
                token,
                draws: [0; SITE_COUNT],
                fires: [0; SITE_COUNT],
                fated: [None; SITE_COUNT],
            });
        });
        FaultScope { entered: true }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        if self.entered {
            ACTIVE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// `true` if a non-empty fault scope is active on this thread.
pub fn active() -> bool {
    ACTIVE.with(|stack| !stack.borrow().is_empty())
}

fn with_scope<R>(f: impl FnOnce(&mut ScopeState) -> R) -> Option<R> {
    ACTIVE.with(|stack| stack.borrow_mut().last_mut().map(f))
}

/// Draws the next transient-fault decision for `site` in the active
/// scope. Each call advances the site's draw cursor, so a retry after an
/// injected failure re-rolls rather than re-failing by construction.
/// Answers `false` when no scope is active, the site is disabled, or its
/// trigger budget for this scope is spent.
pub fn should_inject(site: FaultSite) -> bool {
    with_scope(|s| {
        let spec = s.plan.site(site);
        if !spec.enabled() || s.fires[site.idx()] >= spec.triggers {
            // Still advance the cursor so enabling another site never
            // shifts this one's stream.
            s.draws[site.idx()] = s.draws[site.idx()].wrapping_add(1);
            return false;
        }
        let draw = s.draws[site.idx()];
        s.draws[site.idx()] = draw.wrapping_add(1);
        if deviate(&s.plan, site, s.token, draw) < spec.probability {
            s.fires[site.idx()] += 1;
            true
        } else {
            false
        }
    })
    .unwrap_or(false)
}

/// The item-bound verdict for `site` in the active scope: draw 0,
/// evaluated once per scope and cached, independent of how many times or
/// from which code path it is asked. This is the query item-fated sites
/// (kernel poison, cache evict/corrupt) use, and what keeps chaos runs
/// bit-identical across batch sizes: re-examining an item cannot change
/// its fate.
pub fn site_fated(site: FaultSite) -> bool {
    with_scope(|s| {
        let spec = s.plan.site(site);
        if !spec.enabled() {
            return false;
        }
        let verdict = *s.fated[site.idx()]
            .get_or_insert_with(|| deviate(&s.plan, site, s.token, 0) < spec.probability);
        if verdict && s.fires[site.idx()] == 0 {
            s.fires[site.idx()] = 1;
        }
        verdict
    })
    .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(plan: &FaultPlan, site: FaultSite, items: u64, draws: u32) -> Vec<bool> {
        let mut out = Vec::new();
        for item in 0..items {
            let _scope = FaultScope::enter(plan, item);
            for _ in 0..draws {
                out.push(should_inject(site));
            }
        }
        out
    }

    #[test]
    fn empty_plan_never_fires_and_enters_cheaply() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let _scope = FaultScope::enter(&plan, 42);
        assert!(!active());
        assert!(!should_inject(FaultSite::WorkerPanic));
        assert!(!site_fated(FaultSite::KernelPoison));
    }

    #[test]
    fn schedules_replay_bit_identically() {
        let plan = FaultPlan::new(0xBCC).with(FaultSite::LpIterationLimit, 0.3, 2);
        let a = schedule(&plan, FaultSite::LpIterationLimit, 64, 3);
        let b = schedule(&plan, FaultSite::LpIterationLimit, 64, 3);
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f), "p=0.3 over 192 draws should fire");
        assert!(!a.iter().all(|&f| f));
    }

    #[test]
    fn seeds_and_sites_decorrelate() {
        let p1 = FaultPlan::new(1).with(FaultSite::KernelPoison, 0.5, 8);
        let p2 = FaultPlan::new(2).with(FaultSite::KernelPoison, 0.5, 8);
        assert_ne!(
            schedule(&p1, FaultSite::KernelPoison, 128, 1),
            schedule(&p2, FaultSite::KernelPoison, 128, 1),
        );
        let both = FaultPlan::new(9).with(FaultSite::CacheEvict, 0.5, 8).with(
            FaultSite::CacheCorrupt,
            0.5,
            8,
        );
        assert_ne!(
            schedule(&both, FaultSite::CacheEvict, 128, 1),
            schedule(&both, FaultSite::CacheCorrupt, 128, 1),
        );
    }

    #[test]
    fn trigger_budget_caps_fires_per_scope() {
        let plan = FaultPlan::new(3).with(FaultSite::WorkerPanic, 1.0, 2);
        let _scope = FaultScope::enter(&plan, 0);
        assert!(should_inject(FaultSite::WorkerPanic));
        assert!(should_inject(FaultSite::WorkerPanic));
        assert!(!should_inject(FaultSite::WorkerPanic), "budget spent");
    }

    #[test]
    fn fated_verdict_is_stable_within_scope_and_across_rescopes() {
        let plan = FaultPlan::new(11).with(FaultSite::CacheCorrupt, 0.5, 1);
        let mut verdicts = Vec::new();
        for token in 0..64u64 {
            let _scope = FaultScope::enter(&plan, token);
            let first = site_fated(FaultSite::CacheCorrupt);
            // Asking again (any number of times) cannot flip the fate.
            assert_eq!(first, site_fated(FaultSite::CacheCorrupt));
            verdicts.push(first);
        }
        // Fresh scopes over the same tokens reach identical verdicts.
        for (token, &expect) in verdicts.iter().enumerate() {
            let _scope = FaultScope::enter(&plan, token as u64);
            assert_eq!(site_fated(FaultSite::CacheCorrupt), expect);
        }
        assert!(verdicts.iter().any(|&f| f));
        assert!(!verdicts.iter().all(|&f| f));
    }

    #[test]
    fn enabling_one_site_does_not_shift_anothers_stream() {
        let lone = FaultPlan::new(5).with(FaultSite::LpIterationLimit, 0.4, 8);
        let mixed = FaultPlan::new(5)
            .with(FaultSite::LpIterationLimit, 0.4, 8)
            .with(FaultSite::LpWarmReject, 1.0, 8);
        let a = schedule(&lone, FaultSite::LpIterationLimit, 64, 2);
        let b = schedule(&mixed, FaultSite::LpIterationLimit, 64, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = FaultPlan::new(1).with(FaultSite::WorkerPanic, 1.0, 8);
        let inner = FaultPlan::new(2).with(FaultSite::WorkerPanic, 0.0, 0);
        let _o = FaultScope::enter(&outer, 0);
        assert!(should_inject(FaultSite::WorkerPanic));
        {
            // `inner` has no enabled site, so it does not even push.
            let _i = FaultScope::enter(&inner, 0);
            assert!(should_inject(FaultSite::WorkerPanic), "outer still active");
        }
        assert!(should_inject(FaultSite::WorkerPanic));
    }

    #[test]
    fn probability_validation() {
        let r =
            std::panic::catch_unwind(|| FaultPlan::new(0).with(FaultSite::CacheEvict, f64::NAN, 1));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| FaultPlan::new(0).with(FaultSite::CacheEvict, 1.5, 1));
        assert!(r.is_err());
    }

    #[test]
    fn scope_token_spreads_low_entropy_indices() {
        let a = scope_token(7, 0);
        let b = scope_token(7, 1);
        assert_ne!(a, b);
        assert_ne!(a ^ b, 1, "finalized tokens differ in more than the low bit");
    }
}
