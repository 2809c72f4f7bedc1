//! Batched admission: a bounded submission queue drained in parallel.
//!
//! [`Server`] wraps an [`Engine`] with the throughput-oriented front
//! end: callers [`submit`](Server::submit) queries into a bounded queue
//! (a full queue pushes back with [`Rejected`] instead of growing
//! without bound), and [`drain`](Server::drain) answers everything
//! queued in one batch — probing the cache serially, deduplicating
//! misses by quantized key, fanning the unique misses across the
//! deterministic parallel engine of [`bcc_num::par`], and committing the
//! results back into the cache.
//!
//! # Determinism
//!
//! Drained decision streams are **bit-identical at any worker count**:
//! the cache probe and commit phases are serial, miss deduplication is
//! first-seen order, and each solve is a pure function of its snapped
//! query (contexts accept warm starts only under provable uniqueness,
//! so solve results are history-independent). Only the *cost* counters
//! in [`BatchStats`] (`warm_hits`, `pivots`) depend on how misses land
//! on workers, and those are reported as diagnostics, never used in
//! answers.

use crate::cache::Outcome;
use crate::engine::{
    cache_fates, solve_counted, solve_guarded, Engine, GuardedMiss, ServeConfig, SolvedMiss,
};
use crate::quant::QuantKey;
use crate::query::{Decision, DecisionCore, Priority, Query, Rejected, ServeError, ServedFrom};
use crate::stats::ServeStats;
use bcc_core::batch::{self, DEFAULT_BLOCK};
use bcc_core::protocol::Protocol;
use bcc_core::{SolveCtx, SolveOutcome, SolveRequest};
use bcc_num::faults::FaultPlan;
use bcc_num::obs::{self, Counter};
use bcc_num::par::par_map_indexed_with;
use std::collections::HashMap;

/// What one drained batch cost — the serving-path counterpart of
/// [`bcc_lp::stats::LpStats`], exposed per batch so bench gates can
/// assert on kernel/warm behaviour of the serving path itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Queries answered by the drain.
    pub queries: u64,
    /// Answers served from the cache, including within-batch duplicates
    /// of one solved miss.
    pub cache_hits: u64,
    /// Unique quantized keys solved fresh.
    pub solved: u64,
    /// Answers that reported QoS infeasibility.
    pub infeasible: u64,
    /// Closed-form kernel solves across the batch's workers.
    pub kernel_solves: u64,
    /// Simplex LP solves across the batch's workers.
    pub simplex_solves: u64,
    /// Warm-started simplex solves (scheduling-dependent: which worker
    /// solves which miss varies with the thread count, so this is a
    /// diagnostic, not a deterministic quantity).
    pub warm_hits: u64,
    /// Simplex pivots (scheduling-dependent, like `warm_hits`).
    pub pivots: u64,
    /// Answers served from the conservative degraded fallback (counted
    /// per answered query, like `cache_hits`).
    pub degraded: u64,
    /// Queries refused by [`Query::validate`] before any solve.
    pub validated_rejects: u64,
}

/// How one submitted query will be answered, planned during the serial
/// cache-probe pass.
enum Plan {
    /// Already cached: answer directly.
    Hit(Outcome),
    /// Miss `miss_idx` in the deduplicated solve list; `first` marks the
    /// batch's first occurrence of the key (tagged `Kernel`; later
    /// duplicates are cache hits on the shared solve).
    Solve { miss_idx: usize, first: bool },
    /// Refused by [`Query::validate`] before snapping; answered with the
    /// stored error, no solve.
    Invalid(ServeError),
}

/// A batched protocol-selection server over a bounded submission queue.
#[derive(Debug)]
pub struct Server {
    engine: Engine,
    queue: Vec<Query>,
    queue_cap: usize,
    threads: Option<usize>,
    last_batch: BatchStats,
}

impl Server {
    /// Creates a server per `config`.
    pub fn new(config: &ServeConfig) -> Self {
        Server {
            engine: Engine::new(config),
            queue: Vec::with_capacity(config.queue_capacity.min(8_192)),
            queue_cap: config.queue_capacity,
            threads: config.threads,
            last_batch: BatchStats::default(),
        }
    }

    /// The underlying serial engine (also the closed-loop serve path).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Answers one query immediately, bypassing the queue — the
    /// closed-loop path. Equivalent to [`Engine::serve`].
    pub fn serve(&mut self, query: &Query) -> Result<Decision, ServeError> {
        self.engine.serve(query)
    }

    /// Queries currently queued for the next drain.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Stats of the most recent [`drain`](Server::drain) (zeros before
    /// the first).
    pub fn last_batch(&self) -> &BatchStats {
        &self.last_batch
    }

    /// Enqueues a query for the next drain, or pushes back with
    /// [`Rejected`] if the queue is at capacity (the query is handed
    /// back untouched; retry after a drain or shed it).
    ///
    /// At capacity, a [`Priority::High`] query displaces the most
    /// recently queued [`Priority::Normal`] one instead of being
    /// rejected: the displaced query is *shed* (dropped, counted in
    /// [`ServeStats::shed`]) and the high-priority query takes its
    /// place. A full queue of high-priority queries still rejects.
    pub fn submit(&mut self, query: Query) -> Result<(), Rejected> {
        if self.queue.len() >= self.queue_cap {
            if query.priority == Priority::High {
                if let Some(pos) = self
                    .queue
                    .iter()
                    .rposition(|q| q.priority == Priority::Normal)
                {
                    self.queue.remove(pos);
                    self.queue.push(query);
                    obs::add(Counter::ServeShed, 1);
                    return Ok(());
                }
            }
            obs::add(Counter::ServeRejects, 1);
            return Err(Rejected(query));
        }
        self.queue.push(query);
        Ok(())
    }

    /// Answers every queued query, in submission order.
    ///
    /// Misses are deduplicated by quantized key and fanned across
    /// workers; see the module docs for the determinism contract. The
    /// batch's cost is recorded in [`last_batch`](Server::last_batch)
    /// and, on the calling thread, in the [`stats`](crate::stats)
    /// counters.
    pub fn drain(&mut self) -> Vec<Result<Decision, ServeError>> {
        let batch: Vec<Query> = std::mem::take(&mut self.queue);
        if batch.is_empty() {
            self.last_batch = BatchStats::default();
            return Vec::new();
        }

        // Phase 1 (serial): validate, probe the cache, dedup misses by
        // key. Under an armed fault plan, evict- or corrupt-fated keys
        // bypass dedup (every occurrence solves fresh, exactly as the
        // serial engine would), and evict-fated keys also bypass the
        // probe — so chaos runs stay invariant under batch size.
        let spec = *self.engine.spec();
        let plan = *self.engine.faults();
        let budget = self.engine.solve_budget();
        let chaos = !plan.is_empty() || budget.is_some();
        let mut validated_rejects = 0u64;
        let mut plans = Vec::with_capacity(batch.len());
        let mut miss_of_key: HashMap<QuantKey, usize> = HashMap::new();
        let mut miss_keys: Vec<QuantKey> = Vec::new();
        let mut miss_queries: Vec<Query> = Vec::new();
        let mut miss_fates: Vec<(bool, bool)> = Vec::new();
        for query in &batch {
            if let Err(e) = query.validate() {
                validated_rejects += 1;
                plans.push(Plan::Invalid(e));
                continue;
            }
            let (key, snapped) = spec.snap_query(query);
            let (evict_fated, corrupt_fated) = cache_fates(&plan, key.hash64());
            if !evict_fated {
                if let Some(outcome) = self.engine.cache_mut().get(&key) {
                    plans.push(Plan::Hit(outcome));
                    continue;
                }
            }
            let bypass_dedup = evict_fated || corrupt_fated;
            if !bypass_dedup {
                if let Some(&miss_idx) = miss_of_key.get(&key) {
                    plans.push(Plan::Solve {
                        miss_idx,
                        first: false,
                    });
                    continue;
                }
            }
            let miss_idx = miss_queries.len();
            if !bypass_dedup {
                miss_of_key.insert(key, miss_idx);
            }
            miss_keys.push(key);
            miss_queries.push(snapped);
            miss_fates.push((evict_fated, corrupt_fated));
            plans.push(Plan::Solve {
                miss_idx,
                first: true,
            });
        }

        // Phase 2 (parallel): solve the unique misses. Results come back
        // in miss order regardless of scheduling. Chaos batches take the
        // guarded scalar path for every miss (its answers are bitwise
        // equal to the lane kernels when no fault fires, by the
        // serial-vs-batched differential invariant); fault-free batches
        // keep the SoA lane kernels.
        let threads = self.threads.unwrap_or_else(bcc_num::par::thread_count);
        let solved: Vec<GuardedMiss> = if chaos {
            let tokens: Vec<u64> = miss_keys.iter().map(QuantKey::hash64).collect();
            par_map_indexed_with(threads, &miss_queries, SolveCtx::new, |ctx, i, snapped| {
                solve_guarded(ctx, snapped, tokens[i], &plan, budget)
            })
        } else {
            solve_misses(threads, &miss_queries)
                .into_iter()
                .map(GuardedMiss::clean)
                .collect()
        };

        // Phase 3 (serial): commit solved outcomes into the cache in miss
        // order. Solver errors and degraded fallback answers are never
        // cached (a degraded answer is not the decision at the key, and
        // caching it would poison every later query there); corrupt-fated
        // keys are admitted with a bad checksum, evict-fated keys are not
        // admitted at all.
        let evictions_before = self.engine.cache().evictions();
        let mut stats = BatchStats {
            queries: batch.len() as u64,
            solved: miss_queries.len() as u64,
            validated_rejects,
            ..BatchStats::default()
        };
        for ((key, guarded), &(evict_fated, corrupt_fated)) in
            miss_keys.iter().zip(&solved).zip(&miss_fates)
        {
            let miss = &guarded.miss;
            stats.kernel_solves += miss.kernel_solves;
            stats.simplex_solves += miss.simplex_solves;
            stats.warm_hits += miss.warm_hits;
            stats.pivots += miss.pivots;
            if guarded.degraded.is_some() || evict_fated {
                continue;
            }
            if let Ok(outcome) = miss.outcome {
                if corrupt_fated {
                    self.engine.cache_mut().insert_corrupted(*key, outcome);
                } else {
                    self.engine.cache_mut().insert(*key, outcome);
                }
            }
        }

        // Phase 4 (serial): assemble answers in submission order. Every
        // occurrence of a degraded miss is tagged `Degraded` — degraded
        // answers are never cached, so a duplicate is *not* a cache hit
        // and must not claim to be one.
        let responses: Vec<Result<Decision, ServeError>> = plans
            .into_iter()
            .map(|plan| {
                let (outcome, from) = match plan {
                    Plan::Hit(outcome) => {
                        stats.cache_hits += 1;
                        (Ok(outcome), ServedFrom::Cache)
                    }
                    Plan::Solve { miss_idx, first } => {
                        let guarded = &solved[miss_idx];
                        let from = if let Some(reason) = guarded.degraded {
                            stats.degraded += 1;
                            ServedFrom::Degraded { reason }
                        } else if first {
                            ServedFrom::Kernel
                        } else {
                            stats.cache_hits += 1;
                            ServedFrom::Cache
                        };
                        (guarded.miss.outcome.clone(), from)
                    }
                    Plan::Invalid(e) => (Err(e), ServedFrom::Kernel),
                };
                match outcome {
                    Ok(Outcome::Decided(core)) => Ok(core.tagged(from)),
                    Ok(Outcome::Infeasible) => {
                        stats.infeasible += 1;
                        Err(ServeError::Infeasible)
                    }
                    Err(e) => Err(e),
                }
            })
            .collect();

        self.last_batch = stats;
        crate::stats::record(&ServeStats {
            queries: stats.queries,
            cache_hits: stats.cache_hits,
            cache_misses: stats.solved,
            evictions: self
                .engine
                .cache()
                .evictions()
                .wrapping_sub(evictions_before),
            kernel_solves: stats.kernel_solves,
            simplex_solves: stats.simplex_solves,
            degraded: stats.degraded,
            validated_rejects: stats.validated_rejects,
            ..ServeStats::default()
        });
        responses
    }
}

/// Solves a batch's deduplicated misses, in miss order.
///
/// Inner-bound floor-free misses — the overwhelmingly common shape — go
/// through [`batch::solve_jobs`], all four protocols per miss, with the
/// argmax of [`SolveCtx::solve_best`] (strict `>`, earliest protocol wins
/// ties) and its cost accounting; floored or outer-bound misses keep the
/// per-miss simplex path.
fn solve_misses(threads: usize, misses: &[Query]) -> Vec<SolvedMiss> {
    let (batchable, scalar): (Vec<usize>, Vec<usize>) = (0..misses.len()).partition(|&i| {
        SolveRequest::sum_rate(Protocol::Hbc)
            .with_bound(misses[i].bound)
            .with_floor(misses[i].floor)
            .is_batchable()
    });

    let mut solved: Vec<Option<SolvedMiss>> = (0..misses.len()).map(|_| None).collect();

    let requests = Protocol::ALL.map(SolveRequest::sum_rate);
    let blocks = batch::solve_jobs(
        threads,
        DEFAULT_BLOCK,
        &requests,
        &FaultPlan::none(),
        batchable.len().div_ceil(DEFAULT_BLOCK),
        |j| {
            let items = batch::block_range(j, DEFAULT_BLOCK, batchable.len());
            let out = Vec::with_capacity(items.len());
            (items, (out, None::<SolveOutcome>))
        },
        |_, b| Ok(misses[batchable[b]].network()),
        |(out, best), _, r, outcome| {
            let outcome = outcome?;
            if best.is_none_or(|b| outcome.value > b.value) {
                *best = Some(*outcome);
            }
            if r + 1 == requests.len() {
                let best = best.take().expect("Protocol::ALL is non-empty");
                out.push(SolvedMiss {
                    outcome: Ok(Outcome::Decided(DecisionCore::from_solution(
                        &best.sum_rate_solution(),
                    ))),
                    kernel_solves: requests.len() as u64,
                    simplex_solves: 0,
                    warm_hits: 0,
                    pivots: 0,
                });
            }
            Ok(())
        },
    )
    .expect("closed-form batch solve is infallible");
    for (&mi, miss) in batchable
        .iter()
        .zip(blocks.into_iter().flat_map(|(out, _)| out))
    {
        solved[mi] = Some(miss);
    }

    let scalar_solved = par_map_indexed_with(threads, &scalar, SolveCtx::new, |ctx, _, &mi| {
        solve_counted(ctx, &misses[mi])
    });
    for (&mi, miss) in scalar.iter().zip(scalar_solved) {
        solved[mi] = Some(miss);
    }

    solved
        .into_iter()
        .map(|m| m.expect("every miss solved exactly once"))
        .collect()
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

    fn decision_bits(d: &Result<Decision, ServeError>) -> Option<(u64, u64, u64, ServedFrom)> {
        d.as_ref().ok().map(|d| {
            (
                d.sum_rate.to_bits(),
                d.ra.to_bits(),
                d.rb.to_bits(),
                d.served_from,
            )
        })
    }

    #[test]
    fn backpressure_rejects_when_the_queue_is_full() {
        let config = ServeConfig::default().queue_capacity(2);
        let mut server = Server::new(&config);
        server.submit(q(0.1)).unwrap();
        server.submit(q(0.2)).unwrap();
        let rejected = server.submit(q(0.3)).unwrap_err();
        assert_eq!(rejected.0, q(0.3), "the query comes back untouched");
        assert_eq!(server.queued(), 2);
        // Draining frees the queue for the retry.
        let answers = server.drain();
        assert_eq!(answers.len(), 2);
        server.submit(rejected.0).unwrap();
    }

    #[test]
    fn within_batch_duplicates_share_one_solve() {
        let mut server = Server::new(&ServeConfig::default());
        for _ in 0..5 {
            server.submit(q(0.2)).unwrap();
        }
        let answers = server.drain();
        assert_eq!(answers.len(), 5);
        let stats = *server.last_batch();
        assert_eq!(stats.solved, 1, "one unique key, one solve");
        assert_eq!(stats.cache_hits, 4, "the other four ride along");
        assert_eq!(answers[0].as_ref().unwrap().served_from, ServedFrom::Kernel);
        for a in &answers[1..] {
            assert_eq!(a.as_ref().unwrap().served_from, ServedFrom::Cache);
            assert_eq!(
                a.as_ref().unwrap().sum_rate.to_bits(),
                answers[0].as_ref().unwrap().sum_rate.to_bits()
            );
        }
    }

    #[test]
    fn drain_matches_the_serial_engine_bit_for_bit() {
        let queries: Vec<Query> = (0..40).map(|i| q(0.05 + 0.11 * f64::from(i))).collect();
        let mut server = Server::new(&ServeConfig::default().threads(4));
        for &query in &queries {
            server.submit(query).unwrap();
        }
        let batched = server.drain();

        let mut engine = Engine::new(&ServeConfig::default());
        let serial: Vec<_> = queries.iter().map(|query| engine.serve(query)).collect();
        for (b, s) in batched.iter().zip(&serial) {
            assert_eq!(decision_bits(b), decision_bits(s));
        }
    }

    #[test]
    fn drain_is_thread_count_invariant() {
        let queries: Vec<Query> = (0..64).map(|i| q(0.05 + 0.07 * f64::from(i))).collect();
        let run = |threads: usize| {
            let mut server = Server::new(&ServeConfig::default().threads(threads));
            for &query in &queries {
                server.submit(query).unwrap();
            }
            server.drain()
        };
        let one = run(1);
        let four = run(4);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(decision_bits(a), decision_bits(b));
        }
    }

    #[test]
    fn second_drain_of_the_same_states_is_all_hits() {
        let mut server = Server::new(&ServeConfig::default());
        for i in 0..8 {
            server.submit(q(0.1 + 0.2 * f64::from(i))).unwrap();
        }
        server.drain();
        for i in 0..8 {
            server.submit(q(0.1 + 0.2 * f64::from(i))).unwrap();
        }
        let answers = server.drain();
        let stats = *server.last_batch();
        assert_eq!(stats.solved, 0);
        assert_eq!(stats.cache_hits, 8);
        for a in &answers {
            assert_eq!(a.as_ref().unwrap().served_from, ServedFrom::Cache);
        }
    }

    #[test]
    fn batch_stats_expose_kernel_solves_through_the_snapshot() {
        // A drain records its whole batch on the draining thread, even
        // when (at 4 threads) the floored misses solve on workers.
        for threads in [1, 4] {
            let mut server = Server::new(&ServeConfig::default().threads(threads));
            for i in 0..6 {
                let query = q(0.3 + 0.25 * f64::from(i));
                let floored = query.with_floor(0.05, 0.05);
                server
                    .submit(if i % 2 == 1 { floored } else { query })
                    .unwrap();
            }
            let (_, delta) = obs::scoped(|| server.drain());
            let delta = ServeStats::from(&delta);
            assert_eq!(delta.queries, 6, "threads = {threads}");
            assert_eq!(delta.cache_misses, 6);
            assert!(
                delta.kernel_solves > 0,
                "inner/no-floor misses hit the kernel"
            );
            assert!(delta.simplex_solves > 0, "floors force LP solves");
            assert_eq!(server.last_batch().kernel_solves, delta.kernel_solves);
            assert_eq!(server.last_batch().simplex_solves, delta.simplex_solves);
        }
    }

    #[test]
    fn floored_batches_exercise_the_simplex_and_stay_deterministic() {
        let queries: Vec<Query> = (0..24)
            .map(|i| q(0.2 + 0.13 * f64::from(i)).with_floor(0.05, 0.05))
            .collect();
        let run = |threads: usize| {
            let mut server = Server::new(&ServeConfig::default().threads(threads));
            for &query in &queries {
                server.submit(query).unwrap();
            }
            let answers = server.drain();
            let stats = *server.last_batch();
            (answers, stats)
        };
        let (one, s1) = run(1);
        let (four, _) = run(4);
        assert!(s1.simplex_solves > 0, "floors force LP solves");
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(decision_bits(a), decision_bits(b));
        }
    }

    #[test]
    fn high_priority_sheds_the_newest_normal_query_at_capacity() {
        use crate::query::Priority;
        let mut server = Server::new(&ServeConfig::default().queue_capacity(2));
        server.submit(q(0.1)).unwrap();
        server.submit(q(0.2)).unwrap();
        // A high-priority submission displaces the newest normal one.
        let high = q(0.9).with_priority(Priority::High);
        let ((), delta) = obs::scoped(|| server.submit(high).unwrap());
        let delta = ServeStats::from(&delta);
        assert_eq!(delta.shed, 1);
        assert_eq!(delta.rejects, 0);
        assert_eq!(server.queued(), 2, "queue stays at capacity");
        // A second high-priority submission sheds the remaining normal.
        server.submit(q(0.8).with_priority(Priority::High)).unwrap();
        // With only high-priority queries queued, even High is rejected.
        let ((), delta) = obs::scoped(|| {
            assert!(server.submit(q(0.7).with_priority(Priority::High)).is_err());
        });
        let delta = ServeStats::from(&delta);
        assert_eq!(delta.rejects, 1);
        assert_eq!(delta.shed, 0);
        // The drain answers the admitted high-priority queries.
        let answers = server.drain();
        assert_eq!(answers.len(), 2);
        let kept: Vec<u64> = answers
            .iter()
            .map(|a| a.as_ref().unwrap().sum_rate.to_bits())
            .collect();
        let mut engine = Engine::new(&ServeConfig::default());
        assert_eq!(kept[0], engine.serve(&q(0.9)).unwrap().sum_rate.to_bits());
        assert_eq!(kept[1], engine.serve(&q(0.8)).unwrap().sum_rate.to_bits());
    }

    #[test]
    fn invalid_queries_are_answered_in_place_without_solving() {
        let mut server = Server::new(&ServeConfig::default());
        server.submit(q(0.2)).unwrap();
        server.submit(q(0.3).with_floor(f64::NAN, 0.1)).unwrap();
        server.submit(q(0.4)).unwrap();
        let (answers, delta) = obs::scoped(|| server.drain());
        let delta = ServeStats::from(&delta);
        assert_eq!(answers.len(), 3);
        assert!(answers[0].is_ok());
        assert!(matches!(answers[1], Err(ServeError::InvalidQuery { .. })));
        assert!(answers[2].is_ok());
        assert_eq!(delta.validated_rejects, 1);
        assert_eq!(server.last_batch().validated_rejects, 1);
        assert_eq!(
            server.last_batch().solved,
            2,
            "the invalid query never reached the solver"
        );
    }

    #[test]
    fn zero_budget_drains_tag_every_degraded_occurrence_and_cache_nothing() {
        let config = ServeConfig::default().solve_budget(0);
        let mut server = Server::new(&config);
        // Two occurrences of the same floored key plus one healthy query.
        server.submit(q(0.5).with_floor(0.05, 0.05)).unwrap();
        server.submit(q(0.5).with_floor(0.05, 0.05)).unwrap();
        server.submit(q(0.9)).unwrap();
        let answers = server.drain();
        for a in &answers[..2] {
            let d = a.as_ref().unwrap();
            assert!(
                matches!(d.served_from, ServedFrom::Degraded { .. }),
                "every occurrence of a degraded miss is tagged Degraded, got {:?}",
                d.served_from
            );
            assert_eq!(d.protocol, Protocol::DirectTransmission);
        }
        assert_eq!(answers[2].as_ref().unwrap().served_from, ServedFrom::Kernel);
        assert_eq!(server.last_batch().degraded, 2);
        assert_eq!(
            server.engine_mut().cache().len(),
            1,
            "only the healthy decision was cached"
        );
        // Serial and batched chaos answers agree bitwise.
        let mut engine = Engine::new(&config);
        let serial = engine.serve(&q(0.5).with_floor(0.05, 0.05)).unwrap();
        let batched = answers[0].as_ref().unwrap();
        assert_eq!(serial.sum_rate.to_bits(), batched.sum_rate.to_bits());
        assert_eq!(serial.served_from, batched.served_from);
    }
}
