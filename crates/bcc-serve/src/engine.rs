//! The single-threaded serve path: snap → probe the cache → solve on a
//! miss → cache the outcome.
//!
//! [`Engine`] owns one [`SolveCtx`] and one [`DecisionCache`] and
//! answers queries one at a time — the closed-loop path a latency bench
//! measures. The batched, parallel path lives in
//! [`Server`](crate::Server), which shares the same cache discipline but
//! fans misses across workers.

use crate::cache::{DecisionCache, Outcome};
use crate::quant::QuantSpec;
use crate::query::{Decision, DecisionCore, DegradeReason, Query, ServeError, ServedFrom};
use crate::stats::ServeStats;
use bcc_core::kernel::SolveRequest;
use bcc_core::protocol::Protocol;
use bcc_core::{CoreError, Objective, SolveCtx};
use bcc_num::faults::{self, FaultPlan, FaultScope, FaultSite};
use bcc_num::obs::{self, Counter, Counters};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tunables for an [`Engine`] or [`Server`](crate::Server).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// How channel states are snapped to cache keys.
    pub quant: QuantSpec,
    /// Decision-cache capacity in entries.
    pub cache_capacity: usize,
    /// Submission-queue bound (batched path only); a full queue rejects.
    pub queue_capacity: usize,
    /// Worker threads for batch drains; `None` follows `BCC_THREADS`.
    pub threads: Option<usize>,
    /// Deterministic fault-injection schedule (chaos testing). The empty
    /// plan — the default — leaves every serve bit-identical to a build
    /// without the hooks.
    pub faults: FaultPlan,
    /// Per-query simplex-solve budget. A miss whose full protocol
    /// selection needs more LP solves than this degrades to the
    /// conservative direct-transmission fallback
    /// ([`ServedFrom::Degraded`] with [`DegradeReason::Budget`]).
    /// `None` — the default — never degrades on cost.
    pub solve_budget: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            quant: QuantSpec::default(),
            cache_capacity: 65_536,
            queue_capacity: 8_192,
            threads: None,
            faults: FaultPlan::none(),
            solve_budget: None,
        }
    }
}

impl ServeConfig {
    /// Replaces the quantization spec.
    pub fn quant(mut self, quant: QuantSpec) -> Self {
        self.quant = quant;
        self
    }

    /// Replaces the cache capacity.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Replaces the submission-queue bound.
    pub fn queue_capacity(mut self, entries: usize) -> Self {
        self.queue_capacity = entries;
        self
    }

    /// Pins batch drains to `threads` workers instead of `BCC_THREADS`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Arms a deterministic fault-injection plan (see
    /// [`bcc_num::faults`]). Serving under a non-empty plan exercises
    /// the degradation paths; the schedule is bit-reproducible across
    /// thread counts, batch sizes and replays.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Caps each miss at `solves` simplex LP solves before degrading to
    /// the conservative direct-transmission fallback. The LP-solve count
    /// of a query is a pure function of the query (never of warm-start
    /// state or scheduling), so budget verdicts are deterministic.
    pub fn solve_budget(mut self, solves: u64) -> Self {
        self.solve_budget = Some(solves);
        self
    }
}

/// The payload of the deliberate worker panic that
/// [`FaultSite::WorkerPanic`] injects. Panic hooks and audits compare
/// payloads against it to tell injected panics from genuine ones.
pub const INJECTED_PANIC: &str = "injected worker panic (deterministic chaos)";

/// What one fresh solve cost, alongside its outcome.
pub(crate) struct SolvedMiss {
    pub outcome: Result<Outcome, ServeError>,
    pub kernel_solves: u64,
    pub simplex_solves: u64,
    pub warm_hits: u64,
    pub pivots: u64,
}

impl SolvedMiss {
    /// `outcome` with the solver counters of `cost`, an [`obs`] delta.
    fn counted(outcome: Result<Outcome, ServeError>, cost: &Counters) -> SolvedMiss {
        SolvedMiss {
            outcome,
            kernel_solves: cost[Counter::KernelHits],
            simplex_solves: cost[Counter::LpSolves],
            warm_hits: cost[Counter::LpWarmHits],
            pivots: cost[Counter::LpPivots],
        }
    }
}

/// Solves one already-snapped query on `ctx`, counting what the solve
/// cost (kernel vs simplex, warm hits, pivots) on the [`obs`] registry.
/// Shared by the serial engine and the batch workers.
pub(crate) fn solve_counted(ctx: &mut SolveCtx, snapped: &Query) -> SolvedMiss {
    let net = snapped.network();
    let (best, cost) = obs::scoped(|| {
        ctx.solve_best(
            &net,
            &Protocol::ALL,
            Objective::SumRate,
            snapped.bound,
            snapped.floor,
        )
    });
    let outcome = match best {
        Ok(Some(out)) => Ok(Outcome::Decided(DecisionCore::from_solution(
            &out.sum_rate_solution(),
        ))),
        Ok(None) => Ok(Outcome::Infeasible),
        Err(e) => Err(ServeError::Solver(e)),
    };
    SolvedMiss::counted(outcome, &cost)
}

/// A [`SolvedMiss`] plus degradation provenance: `degraded` is `Some`
/// when the outcome came from the conservative fallback rather than the
/// full protocol selection. Degraded outcomes are never cached.
pub(crate) struct GuardedMiss {
    pub miss: SolvedMiss,
    pub degraded: Option<DegradeReason>,
}

impl GuardedMiss {
    pub(crate) fn clean(miss: SolvedMiss) -> GuardedMiss {
        GuardedMiss {
            miss,
            degraded: None,
        }
    }
}

/// Solves one snapped query under an armed fault plan and/or solve
/// budget, degrading gracefully instead of propagating chaos:
///
/// 1. With an empty plan and no budget this is exactly [`solve_counted`]
///    — the fault-free instruction stream is untouched.
/// 2. Otherwise the solve runs inside a [`FaultScope`] keyed by `token`
///    (the quantized-key hash), wrapped in `catch_unwind`, with up to
///    **two attempts**: an injected/organic iteration limit, an injected
///    solver fault, or a (caught) panic triggers one retry, which
///    re-rolls the transient fault draws.
/// 3. If both attempts fail — or the successful solve exceeded the
///    simplex budget — the query degrades to the closed-form
///    direct-transmission fallback, computed **outside** the fault scope
///    so item-fated poison cannot reach it. The fallback answer is
///    always feasible when returned (DT is one of the candidates the
///    full selection maximises over, so it is provably ≤ the true
///    optimum); if DT cannot meet the query's QoS floor the honest
///    answer is [`ServeError::DegradedUnavailable`].
///
/// The returned cost counts every attempt and the fallback.
pub(crate) fn solve_guarded(
    ctx: &mut SolveCtx,
    snapped: &Query,
    token: u64,
    plan: &FaultPlan,
    budget: Option<u64>,
) -> GuardedMiss {
    if plan.is_empty() && budget.is_none() {
        return GuardedMiss::clean(solve_counted(ctx, snapped));
    }
    let ((outcome, degraded), cost) =
        obs::scoped(|| attempt_or_degrade(ctx, snapped, token, plan, budget));
    GuardedMiss {
        miss: SolvedMiss::counted(outcome, &cost),
        degraded,
    }
}

/// The body of [`solve_guarded`]: the outcome, and the reason when the
/// fallback produced it.
fn attempt_or_degrade(
    ctx: &mut SolveCtx,
    snapped: &Query,
    token: u64,
    plan: &FaultPlan,
    budget: Option<u64>,
) -> (Result<Outcome, ServeError>, Option<DegradeReason>) {
    let mut fall = None;
    {
        let _scope = FaultScope::enter(plan, token);
        for _attempt in 0..2u32 {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                // The injected panic fires before the solve touches the
                // context, so an unwound attempt leaves `ctx` coherent.
                if faults::should_inject(FaultSite::WorkerPanic) {
                    std::panic::panic_any(INJECTED_PANIC);
                }
                solve_counted(ctx, snapped)
            }));
            match attempt {
                Ok(solved) => {
                    match solved.outcome {
                        Ok(outcome) => {
                            if budget.is_some_and(|b| solved.simplex_solves > b) {
                                // The LP-solve count of a query is a pure
                                // function of the query, so a retry would
                                // exceed the budget identically: degrade now.
                                fall = Some(DegradeReason::Budget);
                                break;
                            }
                            return (Ok(outcome), None);
                        }
                        Err(ServeError::Solver(e)) if e.is_resource_limit() => {
                            fall = Some(DegradeReason::Budget);
                        }
                        Err(ServeError::Solver(e)) if e.is_injected() => {
                            fall = Some(DegradeReason::Fault);
                        }
                        Err(e) => {
                            // A genuine solver failure is a bug report,
                            // not a degradation trigger.
                            return (Err(e), None);
                        }
                    }
                }
                Err(_payload) => {
                    fall = Some(DegradeReason::Panic);
                }
            }
        }
    }
    let reason = fall.expect("both attempts failed with a recorded reason");
    let net = snapped.network();
    let req = SolveRequest::sum_rate(Protocol::DirectTransmission)
        .with_bound(snapped.bound)
        .with_floor(snapped.floor);
    let outcome = match ctx.solve_one(&net, req) {
        Ok(out) => Ok(Outcome::Decided(DecisionCore::from_solution(
            &out.sum_rate_solution(),
        ))),
        Err(e) if e.is_infeasible() || matches!(e, CoreError::RateUnachievable { .. }) => {
            Err(ServeError::DegradedUnavailable { reason })
        }
        Err(e) => Err(ServeError::Solver(e)),
    };
    (outcome, Some(reason))
}

/// The per-key cache fates under `plan`: `(evict_fated, corrupt_fated)`.
/// Evaluated in a scope of their own so any code path — serial serve,
/// batch probe, batch commit — reaches the same verdict for a key.
pub(crate) fn cache_fates(plan: &FaultPlan, token: u64) -> (bool, bool) {
    if plan.is_empty() {
        return (false, false);
    }
    let _scope = FaultScope::enter(plan, token);
    (
        faults::site_fated(FaultSite::CacheEvict),
        faults::site_fated(FaultSite::CacheCorrupt),
    )
}

/// The cache-oracle solve: what a fresh context computes for `query`
/// under `spec`'s quantization, with no cache involved. The
/// cache-correctness property test compares every cache hit against
/// this.
pub fn cold_solve(
    ctx: &mut SolveCtx,
    query: &Query,
    spec: &QuantSpec,
) -> Result<Option<DecisionCore>, ServeError> {
    let (_, snapped) = spec.snap_query(query);
    let net = snapped.network();
    match ctx.solve_best(
        &net,
        &Protocol::ALL,
        Objective::SumRate,
        snapped.bound,
        snapped.floor,
    ) {
        Ok(Some(out)) => Ok(Some(DecisionCore::from_solution(&out.sum_rate_solution()))),
        Ok(None) => Ok(None),
        Err(e) => Err(ServeError::Solver(e)),
    }
}

/// A serial protocol-selection engine with a quantized decision cache.
#[derive(Debug)]
pub struct Engine {
    ctx: SolveCtx,
    cache: DecisionCache,
    spec: QuantSpec,
    faults: FaultPlan,
    solve_budget: Option<u64>,
}

impl Engine {
    /// Creates an engine per `config` (the queue/thread fields are
    /// ignored here; they configure the batched [`Server`](crate::Server)).
    pub fn new(config: &ServeConfig) -> Self {
        Engine {
            ctx: SolveCtx::new(),
            cache: DecisionCache::with_capacity(config.cache_capacity),
            spec: config.quant,
            faults: config.faults,
            solve_budget: config.solve_budget,
        }
    }

    /// The engine's quantization spec.
    pub fn spec(&self) -> &QuantSpec {
        &self.spec
    }

    /// The decision cache (for occupancy/eviction introspection).
    pub fn cache(&self) -> &DecisionCache {
        &self.cache
    }

    /// Mutable cache access for the batched server's probe/commit phases.
    pub(crate) fn cache_mut(&mut self) -> &mut DecisionCache {
        &mut self.cache
    }

    /// The armed fault plan (empty unless chaos testing).
    pub(crate) fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The per-query simplex budget, if any.
    pub(crate) fn solve_budget(&self) -> Option<u64> {
        self.solve_budget
    }

    /// Answers one query.
    ///
    /// The query is [validated](Query::validate) (malformed queries are
    /// refused with [`ServeError::InvalidQuery`] before touching the
    /// solver) and snapped to its quantized key; a cache hit returns the
    /// stored decision bit-for-bit (tagged [`ServedFrom::Cache`]), a miss
    /// solves the snapped query on the engine's context, caches the
    /// outcome — including proven infeasibility — and tags the answer
    /// [`ServedFrom::Kernel`]. Solver *errors* are returned but never
    /// cached.
    ///
    /// Under an armed [`ServeConfig::faults`] plan or
    /// [`ServeConfig::solve_budget`], a miss whose full solve cannot
    /// complete degrades to the conservative direct-transmission
    /// fallback, tagged [`ServedFrom::Degraded`] and **never cached** —
    /// see [`ServedFrom::Degraded`] for the guarantees.
    pub fn serve(&mut self, query: &Query) -> Result<Decision, ServeError> {
        let mut delta = ServeStats {
            queries: 1,
            ..ServeStats::default()
        };
        if let Err(e) = query.validate() {
            delta.validated_rejects = 1;
            crate::stats::record(&delta);
            return Err(e);
        }
        let (key, snapped) = self.spec.snap_query(query);
        let token = key.hash64();
        let (evict_fated, corrupt_fated) = cache_fates(&self.faults, token);
        let cached = if evict_fated {
            None
        } else {
            self.cache.get(&key)
        };
        let result = match cached {
            Some(outcome) => {
                delta.cache_hits = 1;
                match outcome {
                    Outcome::Decided(core) => Ok(core.tagged(ServedFrom::Cache)),
                    Outcome::Infeasible => Err(ServeError::Infeasible),
                }
            }
            None => {
                delta.cache_misses = 1;
                let evictions_before = self.cache.evictions();
                let guarded = solve_guarded(
                    &mut self.ctx,
                    &snapped,
                    token,
                    &self.faults,
                    self.solve_budget,
                );
                delta.kernel_solves = guarded.miss.kernel_solves;
                delta.simplex_solves = guarded.miss.simplex_solves;
                let result = match (guarded.degraded, guarded.miss.outcome) {
                    (Some(reason), Ok(Outcome::Decided(core))) => {
                        delta.degraded = 1;
                        Ok(core.tagged(ServedFrom::Degraded { reason }))
                    }
                    (Some(_), Ok(Outcome::Infeasible)) => {
                        unreachable!("the fallback maps infeasibility to DegradedUnavailable")
                    }
                    (Some(_), Err(e)) => {
                        delta.degraded = 1;
                        Err(e)
                    }
                    (None, Ok(outcome)) => {
                        if !evict_fated {
                            if corrupt_fated {
                                self.cache.insert_corrupted(key, outcome);
                            } else {
                                self.cache.insert(key, outcome);
                            }
                        }
                        match outcome {
                            Outcome::Decided(core) => Ok(core.tagged(ServedFrom::Kernel)),
                            Outcome::Infeasible => Err(ServeError::Infeasible),
                        }
                    }
                    (None, Err(e)) => Err(e),
                };
                delta.evictions = self.cache.evictions().wrapping_sub(evictions_before);
                result
            }
        };
        crate::stats::record(&delta);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_channel::{ChannelState, PowerSplit};

    fn q(gab: f64) -> Query {
        Query::new(
            ChannelState::new(gab, 1.0, 3.16),
            PowerSplit::symmetric(10.0),
        )
    }

    #[test]
    fn second_serve_of_the_same_state_hits_and_is_bit_identical() {
        let mut engine = Engine::new(&ServeConfig::default());
        let d1 = engine.serve(&q(0.2)).unwrap();
        let d2 = engine.serve(&q(0.2)).unwrap();
        assert_eq!(d1.served_from, ServedFrom::Kernel);
        assert_eq!(d2.served_from, ServedFrom::Cache);
        assert_eq!(d1.sum_rate.to_bits(), d2.sum_rate.to_bits());
        assert_eq!(d1.ra.to_bits(), d2.ra.to_bits());
        assert_eq!(d1.rb.to_bits(), d2.rb.to_bits());
        assert_eq!(d1.protocol, d2.protocol);
        assert_eq!(d1.durations, d2.durations);
    }

    #[test]
    fn nearby_states_share_a_cache_cell_and_thus_an_answer() {
        let mut engine = Engine::new(&ServeConfig::default());
        let d1 = engine.serve(&q(0.2)).unwrap();
        // 0.01 dB away on a 0.25 dB grid: same cell, served from cache.
        let d2 = engine.serve(&q(0.2 * 1.0023)).unwrap();
        assert_eq!(d2.served_from, ServedFrom::Cache);
        assert_eq!(d1.sum_rate.to_bits(), d2.sum_rate.to_bits());
    }

    #[test]
    fn strict_mode_never_shares_across_distinct_bits() {
        let config = ServeConfig::default().quant(QuantSpec::strict());
        let mut engine = Engine::new(&config);
        engine.serve(&q(0.2)).unwrap();
        let d2 = engine.serve(&q(0.2 * 1.0023)).unwrap();
        assert_eq!(d2.served_from, ServedFrom::Kernel);
        let d3 = engine.serve(&q(0.2)).unwrap();
        assert_eq!(d3.served_from, ServedFrom::Cache);
    }

    #[test]
    fn infeasible_floors_are_cached_as_infeasible() {
        let mut engine = Engine::new(&ServeConfig::default());
        let hopeless = q(0.2).with_floor(50.0, 50.0);
        assert_eq!(engine.serve(&hopeless), Err(ServeError::Infeasible));
        let misses_before = engine.cache().len();
        assert_eq!(engine.serve(&hopeless), Err(ServeError::Infeasible));
        assert_eq!(
            engine.cache().len(),
            misses_before,
            "the second infeasible serve must not re-solve or re-insert"
        );
    }

    #[test]
    fn serve_moves_the_stats_counters() {
        let mut engine = Engine::new(&ServeConfig::default());
        let ((), delta) = obs::scoped(|| {
            engine.serve(&q(0.3)).unwrap();
            engine.serve(&q(0.3)).unwrap();
            engine.serve(&q(0.7)).unwrap();
        });
        let delta = ServeStats::from(&delta);
        assert_eq!(delta.queries, 3);
        assert_eq!(delta.cache_hits, 1);
        assert_eq!(delta.cache_misses, 2);
        // A floor-free inner-bound miss sweeps all four protocols:
        // closed-form kernel where available, LP for the rest.
        assert!(delta.kernel_solves > 0);
    }

    /// Installs a panic hook (once) that swallows the *injected* chaos
    /// panics so they do not spray backtraces over the test output, while
    /// still reporting genuine panics.
    fn silence_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| *m == INJECTED_PANIC);
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn invalid_queries_are_refused_before_the_solver() {
        let mut engine = Engine::new(&ServeConfig::default());
        let bad = q(0.2).with_floor(f64::NAN, 0.1);
        let (result, delta) = obs::scoped(|| engine.serve(&bad));
        let delta = ServeStats::from(&delta);
        assert!(matches!(result, Err(ServeError::InvalidQuery { .. })));
        assert_eq!(delta.validated_rejects, 1);
        assert_eq!(delta.cache_misses, 0, "no solve was attempted");
        assert_eq!(engine.cache().len(), 0, "nothing was cached");
    }

    #[test]
    fn guarded_path_without_firing_faults_is_bit_identical() {
        // A solve budget arms the guarded path (scope, catch_unwind,
        // counting) without ever degrading; the answers must be bitwise
        // what the plain path computes.
        let mut plain = Engine::new(&ServeConfig::default());
        let mut guarded = Engine::new(&ServeConfig::default().solve_budget(u64::MAX));
        for gab in [0.2, 0.7, 1.4] {
            let a = plain.serve(&q(gab).with_floor(0.05, 0.05)).unwrap();
            let b = guarded.serve(&q(gab).with_floor(0.05, 0.05)).unwrap();
            assert_eq!(a.sum_rate.to_bits(), b.sum_rate.to_bits());
            assert_eq!(a.ra.to_bits(), b.ra.to_bits());
            assert_eq!(a.rb.to_bits(), b.rb.to_bits());
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.served_from, b.served_from);
        }
    }

    #[test]
    fn zero_budget_degrades_floored_queries_and_never_caches_them() {
        let mut engine = Engine::new(&ServeConfig::default().solve_budget(0));
        let mut oracle = Engine::new(&ServeConfig::default());
        // A modest floor forces the LP path, whose solve count exceeds 0.
        let floored = q(0.5).with_floor(0.05, 0.05);
        let (d, delta) = obs::scoped(|| engine.serve(&floored).unwrap());
        let delta = ServeStats::from(&delta);
        assert_eq!(
            d.served_from,
            ServedFrom::Degraded {
                reason: crate::DegradeReason::Budget
            }
        );
        assert_eq!(d.protocol, Protocol::DirectTransmission);
        assert_eq!(delta.degraded, 1);
        assert_eq!(engine.cache().len(), 0, "degraded answers are never cached");
        // Conservative: feasible (to LP tolerance), and no better than
        // the full optimum.
        let full = oracle.serve(&floored).unwrap();
        assert!(
            d.ra >= 0.05 - 1e-9 && d.rb >= 0.05 - 1e-9,
            "degraded answer meets floor: ra={}, rb={}",
            d.ra,
            d.rb
        );
        assert!(d.sum_rate <= full.sum_rate + 1e-12);
        // The next serve retries (still a miss) instead of hitting a
        // cached degraded answer.
        let (_, delta2) = obs::scoped(|| engine.serve(&floored).unwrap());
        let delta2 = ServeStats::from(&delta2);
        assert_eq!(delta2.cache_misses, 1);
        // Floor-free queries stay on the closed-form path and do not
        // degrade even under a zero budget.
        let clean = engine.serve(&q(0.5)).unwrap();
        assert_eq!(clean.served_from, ServedFrom::Kernel);
    }

    #[test]
    fn degraded_unavailable_when_dt_cannot_meet_the_floor() {
        // Pick a floor DT cannot meet but a relay protocol can: the full
        // solve decides it, the zero-budget engine must answer honestly
        // that its fallback cannot.
        let mut oracle = Engine::new(&ServeConfig::default());
        let mut probe = None;
        for floor in [0.2, 0.35, 0.5, 0.8] {
            let cand = q(0.05).with_floor(floor, floor);
            if let Ok(full) = oracle.serve(&cand) {
                let mut dt = Engine::new(&ServeConfig::default().solve_budget(0));
                if let Err(ServeError::DegradedUnavailable { .. }) = dt.serve(&cand) {
                    probe = Some((cand, full));
                    break;
                }
            }
        }
        let (cand, _full) = probe.expect("some floor separates DT from the best relay protocol");
        let mut engine = Engine::new(&ServeConfig::default().solve_budget(0));
        let (result, delta) = obs::scoped(|| engine.serve(&cand));
        let delta = ServeStats::from(&delta);
        assert!(matches!(
            result,
            Err(ServeError::DegradedUnavailable {
                reason: crate::DegradeReason::Budget
            })
        ));
        assert_eq!(delta.degraded, 1);
        assert_eq!(engine.cache().len(), 0);
    }

    #[test]
    fn evict_fated_keys_are_never_served_from_cache() {
        let plan = FaultPlan::new(0xE71C).with(FaultSite::CacheEvict, 1.0, 1);
        let mut engine = Engine::new(&ServeConfig::default().faults(plan));
        let mut clean = Engine::new(&ServeConfig::default());
        let want = clean.serve(&q(0.3)).unwrap();
        let (_, delta) = obs::scoped(|| {
            for _ in 0..3 {
                let d = engine.serve(&q(0.3)).unwrap();
                assert_eq!(d.sum_rate.to_bits(), want.sum_rate.to_bits());
                assert_eq!(d.served_from, ServedFrom::Kernel, "never from cache");
            }
        });
        let delta = ServeStats::from(&delta);
        assert_eq!(delta.cache_hits, 0);
        assert_eq!(delta.cache_misses, 3);
        assert_eq!(engine.cache().len(), 0, "fated keys are never admitted");
    }

    #[test]
    fn corrupt_fated_keys_are_detected_and_resolved() {
        let plan = FaultPlan::new(0xC0FF).with(FaultSite::CacheCorrupt, 1.0, 1);
        let mut engine = Engine::new(&ServeConfig::default().faults(plan));
        let mut clean = Engine::new(&ServeConfig::default());
        let d1 = engine.serve(&q(0.3)).unwrap();
        assert_eq!(engine.cache().len(), 1, "the corrupt entry is stored");
        // The second serve detects the bad checksum, re-solves, and still
        // answers bit-identically to a clean engine.
        let d2 = engine.serve(&q(0.3)).unwrap();
        let want = clean.serve(&q(0.3)).unwrap();
        assert_eq!(d2.served_from, ServedFrom::Kernel);
        assert_eq!(d2.sum_rate.to_bits(), d1.sum_rate.to_bits());
        assert_eq!(d2.sum_rate.to_bits(), want.sum_rate.to_bits());
        assert!(engine.cache().corruptions_detected() >= 1);
    }

    #[test]
    fn injected_panics_degrade_after_the_retry() {
        silence_panics();
        // p = 1 with budget 2: both attempts panic, the query degrades.
        let plan = FaultPlan::new(0xBAD).with(FaultSite::WorkerPanic, 1.0, 2);
        let mut engine = Engine::new(&ServeConfig::default().faults(plan));
        let d = engine.serve(&q(0.4)).unwrap();
        assert_eq!(
            d.served_from,
            ServedFrom::Degraded {
                reason: crate::DegradeReason::Panic
            }
        );
        assert_eq!(d.protocol, Protocol::DirectTransmission);
        assert_eq!(engine.cache().len(), 0);
        // p = 1 with budget 1: the first attempt panics, the retry's
        // draw finds the budget spent and completes the full solve.
        let plan = FaultPlan::new(0xBAD).with(FaultSite::WorkerPanic, 1.0, 1);
        let mut engine = Engine::new(&ServeConfig::default().faults(plan));
        let mut clean = Engine::new(&ServeConfig::default());
        let d = engine.serve(&q(0.4)).unwrap();
        let want = clean.serve(&q(0.4)).unwrap();
        assert_eq!(d.served_from, ServedFrom::Kernel);
        assert_eq!(d.sum_rate.to_bits(), want.sum_rate.to_bits());
    }
}
