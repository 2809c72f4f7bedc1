//! `serve_mixed`: the `bcc-serve` batched server under a closed loop.
//!
//! One client submits a 1,024-query batch, drains it and waits for the
//! answers before it sends the next. The server quantizes on a 0.25 dB grid
//! into a 4,096-entry cache at one thread. The seeded stream around the
//! Fig. 4 network at 10 dB is 90% hot set (64 Rayleigh-faded states) and
//! 10% fresh fades; every 16th query carries the QoS floor (0.05, 0.05).
//! Hot queries hit the cache; fresh ones miss, insert and, once the cache
//! is full, evict; floored misses reach the simplex.

use super::{unit, Tally, Traced, Workload};
use crate::trace::Recorder;
use bcc_core::prelude::*;
use bcc_serve::{
    cold_solve, Decision, DecisionCache, DecisionCore, LoadSpec, Outcome, QuantKey, QuantSpec,
    Query, ServeConfig, ServeError, ServedFrom, Server, StreamKind,
};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

const BATCH: usize = 1_024;
const HOT_STATES: usize = 64;
const CACHE_ENTRIES: usize = 4_096;
const STEP_DB: f64 = 0.25;
const POWER_DB: f64 = 10.0;
/// Share of queries that are fresh fades rather than hot-set states.
const FRESH_SHARE: f64 = 0.1;
const FLOOR_EVERY: u64 = 16;
const FLOOR: (f64, f64) = (0.05, 0.05);
/// Batches the set-up drains before the first timed batch.
const WARM_BATCHES: u64 = 8;
/// Bound on the checker's memo of oracle answers, so checking does not
/// grow the process's memory.
const MEMO_ENTRIES: usize = 2_048;

/// The seeded query stream.
struct Stream {
    seed: u64,
    hot: LoadSpec,
    fresh: LoadSpec,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let net =
            GaussianNetwork::from_db(Db::new(POWER_DB), Db::new(-7.0), Db::new(0.0), Db::new(5.0));
        let spec = |kind, seed| {
            LoadSpec::new(kind, seed, net.state(), net.powers()).floor_every(
                FLOOR_EVERY,
                FLOOR.0,
                FLOOR.1,
            )
        };
        Stream {
            seed,
            hot: spec(StreamKind::HotSet { pool: HOT_STATES }, seed),
            fresh: spec(StreamKind::Fresh, seed ^ 0xF5E5),
        }
    }

    fn batch(&self, b: u64, out: &mut Vec<Query>) {
        out.clear();
        out.extend((b * BATCH as u64..(b + 1) * BATCH as u64).map(|k| {
            if unit(self.seed ^ 0x0F2E_5B00, k) < FRESH_SHARE {
                self.fresh.query(k)
            } else {
                self.hot.query(k)
            }
        }));
    }
}

fn config(threads: usize) -> ServeConfig {
    ServeConfig::default()
        .quant(QuantSpec::db_grid(STEP_DB))
        .cache_capacity(CACHE_ENTRIES)
        .queue_capacity(BATCH)
        .threads(threads)
}

/// A server after the set-up's warm pass.
fn warm_server(threads: usize, warm: &[Vec<Query>]) -> Server {
    let mut server = Server::new(&config(threads));
    for batch in warm {
        for &q in batch {
            server.submit(q).expect("queue sized to the batch");
        }
        server.drain();
    }
    server
}

/// How the decomposition answers one query.
#[derive(Clone, Copy)]
enum Plan {
    Hit(Outcome),
    /// Miss `m` of the batch; `first` is its first occurrence.
    Miss(usize, bool),
}

/// The per-layer replay of `Server::drain` on a shadow cache.
struct Shadow {
    cache: DecisionCache,
    ctx: SolveCtx,
    /// Queries of the last batch that failed validation.
    invalid: usize,
    snaps: Vec<(QuantKey, Query)>,
    probes: Vec<Option<Outcome>>,
    plans: Vec<Plan>,
    miss_of_key: HashMap<QuantKey, usize>,
    misses: Vec<usize>,
    solved: Vec<Result<Option<DecisionCore>, ServeError>>,
    batches: u64,
    miss_total: u64,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            cache: DecisionCache::with_capacity(CACHE_ENTRIES),
            ctx: SolveCtx::new(),
            invalid: 0,
            snaps: Vec::with_capacity(BATCH),
            probes: Vec::with_capacity(BATCH),
            plans: Vec::with_capacity(BATCH),
            miss_of_key: HashMap::new(),
            misses: Vec::new(),
            solved: Vec::new(),
            batches: 0,
            miss_total: 0,
        }
    }

    /// Answers `batch` layer by layer, in the order `Server::drain` does:
    /// validate, snap, probe, deduplicate, solve the unique misses, insert.
    fn run(&mut self, batch: &[Query], rec: &mut Recorder) {
        let spec = QuantSpec::db_grid(STEP_DB);
        let Shadow {
            cache,
            ctx,
            invalid,
            snaps,
            probes,
            plans,
            miss_of_key,
            misses,
            solved,
            ..
        } = self;
        *invalid = rec.time("serve.validate", || {
            batch.iter().filter(|q| q.validate().is_err()).count()
        });
        rec.time("serve.quant", || {
            snaps.clear();
            snaps.extend(batch.iter().map(|q| spec.snap_query(q)));
        });
        rec.time("serve.cache_get", || {
            probes.clear();
            probes.extend(snaps.iter().map(|(key, _)| cache.get(key)));
        });
        miss_of_key.clear();
        misses.clear();
        plans.clear();
        for (i, ((key, _), probe)) in snaps.iter().zip(probes.iter()).enumerate() {
            plans.push(match probe {
                Some(outcome) => Plan::Hit(*outcome),
                None => match miss_of_key.get(key) {
                    Some(&m) => Plan::Miss(m, false),
                    None => {
                        miss_of_key.insert(*key, misses.len());
                        misses.push(i);
                        Plan::Miss(misses.len() - 1, true)
                    }
                },
            });
        }
        rec.time("serve.solve", || {
            solved.clear();
            solved.extend(misses.iter().map(|&i| cold_solve(ctx, &batch[i], &spec)));
        });
        rec.time("serve.cache_insert", || {
            for (&i, s) in misses.iter().zip(solved.iter()) {
                if let Ok(decided) = s {
                    cache.insert(snaps[i].0, outcome_of(*decided));
                }
            }
        });
        self.batches += 1;
        self.miss_total += self.misses.len() as u64;
    }

    /// The decomposition's answer to query `i` of the last batch.
    fn answer(&self, i: usize) -> Result<(Outcome, ServedFrom), ServeError> {
        match self.plans[i] {
            Plan::Hit(outcome) => Ok((outcome, ServedFrom::Cache)),
            Plan::Miss(m, first) => {
                let from = if first {
                    ServedFrom::Kernel
                } else {
                    ServedFrom::Cache
                };
                self.solved[m].clone().map(|d| (outcome_of(d), from))
            }
        }
    }
}

fn outcome_of(decided: Option<DecisionCore>) -> Outcome {
    decided.map_or(Outcome::Infeasible, Outcome::Decided)
}

/// Bitwise equality of a served answer with an expected outcome.
fn answer_matches(answer: &Result<Decision, ServeError>, expected: &Outcome) -> bool {
    match (answer, expected) {
        (Ok(d), Outcome::Decided(c)) => {
            d.protocol == c.protocol
                && d.sum_rate.to_bits() == c.sum_rate.to_bits()
                && d.ra.to_bits() == c.ra.to_bits()
                && d.rb.to_bits() == c.rb.to_bits()
                && d.durations.len() == c.durations.len()
                && d.durations
                    .iter()
                    .zip(c.durations.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }
        (Err(ServeError::Infeasible), Outcome::Infeasible) => true,
        _ => false,
    }
}

pub struct Serve {
    stream: Stream,
    warm: Vec<Vec<Query>>,
    server: Server,
    next_batch: u64,
    batch: Vec<Query>,
    answers: Vec<Result<Decision, ServeError>>,
    infeasible_total: u64,
    ops: u64,
    oracle: SolveCtx,
    memo: HashMap<QuantKey, Result<Option<DecisionCore>, ServeError>>,
    shadow: Option<Shadow>,
    par: Option<(Server, Server)>,
}

impl Serve {
    pub fn setup(seed: u64, rec: &mut Recorder) -> (Self, f64) {
        let stream = Stream::new(seed);
        let warm: Vec<Vec<Query>> = (0..WARM_BATCHES)
            .map(|b| {
                let mut batch = Vec::new();
                stream.batch(b, &mut batch);
                batch
            })
            .collect();
        let t = Instant::now();
        let server = rec.time("serve.setup", || warm_server(1, &warm));
        let secs = t.elapsed().as_secs_f64();
        let w = Serve {
            stream,
            warm,
            server,
            next_batch: WARM_BATCHES,
            batch: Vec::with_capacity(BATCH),
            answers: Vec::new(),
            infeasible_total: 0,
            ops: 0,
            oracle: SolveCtx::new(),
            memo: HashMap::new(),
            shadow: None,
            par: None,
        };
        (w, secs)
    }

    /// Submits the prepared batch to `server` and drains it.
    fn round_trip(server: &mut Server, batch: &[Query]) -> Vec<Result<Decision, ServeError>> {
        for &q in batch {
            // The queue holds exactly one batch, so a submission can only
            // be refused if a previous drain left queries behind.
            server.submit(q).expect("queue sized to the batch");
        }
        server.drain()
    }

    fn tally(answers: &[Result<Decision, ServeError>]) -> Tally {
        let mut t = Tally::attempted(BATCH as u64);
        if answers.len() != BATCH {
            t.failed = t.attempted;
            t.first_failure = Some(format!("drain answered {} of {BATCH}", answers.len()));
        }
        for a in answers {
            match a {
                Ok(d) if matches!(d.served_from, ServedFrom::Degraded { .. }) => {
                    t.fail(|| format!("degraded answer: {d:?}"));
                }
                Ok(_) | Err(ServeError::Infeasible) => {}
                Err(e) => t.fail(|| format!("serve error: {e}")),
            }
        }
        t
    }
}

impl Workload for Serve {
    fn op_name(&self) -> &'static str {
        "batch"
    }

    fn work_unit(&self) -> &'static str {
        "queries"
    }

    fn work_per_op(&self) -> u64 {
        BATCH as u64
    }

    fn prepare(&mut self) {
        self.stream.batch(self.next_batch, &mut self.batch);
        self.next_batch += 1;
    }

    fn op(&mut self) -> Tally {
        self.answers = Self::round_trip(&mut self.server, &self.batch);
        self.infeasible_total += self.server.last_batch().infeasible;
        self.ops += 1;
        Self::tally(&self.answers)
    }

    /// Checks every answer of the batch against `cold_solve` at its query.
    fn check(&mut self, _round: u64) -> Tally {
        let spec = QuantSpec::db_grid(STEP_DB);
        let mut t = Tally::default();
        if self.memo.len() > MEMO_ENTRIES {
            self.memo.clear();
        }
        for (q, answer) in self.batch.iter().zip(&self.answers) {
            let (key, _) = spec.snap_query(q);
            let expected = self
                .memo
                .entry(key)
                .or_insert_with(|| cold_solve(&mut self.oracle, q, &spec));
            match expected {
                Ok(decided) => {
                    let degraded = answer
                        .as_ref()
                        .is_ok_and(|d| matches!(d.served_from, ServedFrom::Degraded { .. }));
                    // Degraded answers already failed in `op`.
                    if !degraded && !answer_matches(answer, &outcome_of(*decided)) {
                        t.fail(|| format!("answer {answer:?} differs from cold_solve {decided:?}"));
                    }
                }
                Err(e) => t.fail(|| format!("cold_solve failed: {e}")),
            }
        }
        t
    }

    fn decomposed(&mut self, rec: &mut Recorder) -> Tally {
        let shadow = self.shadow.get_or_insert_with(|| {
            // Bring the shadow cache to the server's post-set-up state.
            let mut shadow = Shadow::new();
            let mut off = Recorder::new(false);
            for batch in &self.warm {
                shadow.run(batch, &mut off);
            }
            shadow.batches = 0;
            shadow.miss_total = 0;
            shadow
        });
        shadow.run(&self.batch, rec);
        let mut t = Tally::default();
        // The stream holds only well-formed queries.
        if shadow.invalid > 0 {
            t.fail(|| format!("{} queries failed validation", shadow.invalid));
        }
        for (i, answer) in self.answers.iter().enumerate() {
            let ok = match shadow.answer(i) {
                Ok((outcome, from)) => {
                    answer_matches(answer, &outcome)
                        && answer.as_ref().map_or(true, |d| d.served_from == from)
                }
                Err(e) => answer.as_ref().err() == Some(&e),
            };
            if !ok {
                t.fail(|| format!("decomposed drain differs at query {i}: {answer:?}"));
            }
        }
        t
    }

    fn parallel_pair(&mut self) -> (f64, f64, Tally) {
        let (one, two) = self
            .par
            .get_or_insert_with(|| (warm_server(1, &self.warm), warm_server(2, &self.warm)));
        self.stream.batch(self.next_batch, &mut self.batch);
        self.next_batch += 1;
        let t0 = Instant::now();
        let a1 = Self::round_trip(one, &self.batch);
        let t1 = Instant::now();
        let a2 = Self::round_trip(two, &self.batch);
        let t2 = Instant::now();
        let mut t = Self::tally(&a1);
        if a1 != a2 {
            t.fail(|| "two-thread drain differs from one-thread drain".into());
        }
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        (secs(t0, t1), secs(t1, t2), t)
    }

    fn per_layer(&self, traced: &Traced, out: &mut BTreeMap<&'static str, f64>) {
        let per_query_ns = |layer: &str| traced.layer(layer) * 1e6 / BATCH as f64;
        out.insert("serve.validate_ns", per_query_ns("serve.validate"));
        out.insert("serve.quant_ns", per_query_ns("serve.quant"));
        out.insert("serve.cache_get_ns", per_query_ns("serve.cache_get"));
        if let Some(shadow) = &self.shadow {
            let misses = shadow.miss_total as f64 / shadow.batches.max(1) as f64;
            if misses > 0.0 {
                out.insert(
                    "serve.cache_insert_ns",
                    traced.layer("serve.cache_insert") * 1e6 / misses,
                );
                out.insert("serve.solve_us", traced.layer("serve.solve") * 1e3 / misses);
            }
        }
        out.insert("serve.unattributed_ms", traced.residual_ms);
        out.insert(
            "serve.infeasible",
            self.infeasible_total as f64 / self.ops.max(1) as f64,
        );
        out.insert("serve.batch_p99_ms", traced.real_p99_ms);
    }
}
