//! `city_assign`: the city-scale relay-assignment study.
//!
//! `Topology::random` places 5,000 pairs and 100 relays on a disc of
//! radius 12 (path-loss exponent 3, 10 dB per node); each sweep solves the
//! MABC and TDBC sum rates of all 500,000 `(pair, relay)` edges (1M
//! solves) in per-pair blocks of 100 points, reduces each pair to its
//! candidates, and assigns relays (greedy, random, refined). The pair count
//! keeps one sweep short enough that a run holds the ~100 sweeps its 90th
//! latency percentile needs.

use super::{check_sum, kernel_metric, kernel_span, sample, Tally, Traced, Workload};
use crate::trace::Recorder;
use bcc_channel::{ChannelState, PowerSplit, Topology};
use bcc_core::batch::PointBlock;
use bcc_core::city::{AssignmentKind, CityEvaluator, CityResult, Schedule};
use bcc_core::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

const PAIRS: usize = 5_000;
const RELAYS: usize = 100;
const RADIUS: f64 = 12.0;
const GAMMA: f64 = 3.0;
const POWER_DB: f64 = 10.0;
const PROTOCOLS: [Protocol; 2] = [Protocol::Mabc, Protocol::Tdbc];
/// Pairs whose every edge is re-solved by the oracles after each sweep.
const CHECKED_PAIRS: usize = 8;
/// Pairs the decomposition handles per span group: few enough that the
/// group's blocks stay cache-resident like the production call's one block.
const GROUP: usize = 8;

pub struct City {
    seed: u64,
    topology: Topology,
    ev: CityEvaluator,
    ev2: Option<CityEvaluator>,
    last: Option<CityResult>,
    oracle: SolveCtx,
    // Decomposition state, reused across operations.
    ctx: SolveCtx,
    states: Vec<ChannelState>,
    blocks: Vec<PointBlock>,
    outs: Vec<[Vec<SolveOutcome>; 2]>,
}

fn evaluator(topology: Topology, threads: usize) -> CityEvaluator {
    Scenario::city(topology, POWER_DB)
        .protocols(PROTOCOLS)
        .threads(threads)
        .build()
}

fn powers() -> PowerSplit {
    PowerSplit::symmetric(Db::new(POWER_DB).to_linear())
}

impl City {
    pub fn setup(seed: u64, rec: &mut Recorder) -> (Self, f64) {
        let t = Instant::now();
        let topology = rec.time("topology.build", || {
            Topology::random(seed, PAIRS, RELAYS, RADIUS, GAMMA).expect("valid city extents")
        });
        let ev = rec.time("scenario.build", || evaluator(topology.clone(), 1));
        let secs = t.elapsed().as_secs_f64();
        let w = City {
            seed,
            topology,
            ev,
            ev2: None,
            last: None,
            oracle: SolveCtx::new(),
            ctx: SolveCtx::new(),
            states: Vec::with_capacity(GROUP * RELAYS),
            blocks: (0..GROUP).map(|_| PointBlock::new()).collect(),
            outs: (0..GROUP).map(|_| [Vec::new(), Vec::new()]).collect(),
        };
        (w, secs)
    }

    fn tally(result: &Result<CityResult, CoreError>) -> Tally {
        let mut t = Tally::attempted((PAIRS * RELAYS * PROTOCOLS.len()) as u64);
        if let Err(e) = result {
            t.failed = t.attempted;
            t.first_failure = Some(format!("city sweep failed: {e}"));
        }
        t
    }

    /// The best rate over the protocols of one edge, as the production
    /// reduction computes it (first strictly greater wins).
    fn best_rate(values: impl Iterator<Item = f64>) -> f64 {
        values.fold(f64::NEG_INFINITY, |best, v| if v > best { v } else { best })
    }
}

impl Workload for City {
    fn op_name(&self) -> &'static str {
        "sweep"
    }

    fn work_unit(&self) -> &'static str {
        "solves"
    }

    fn work_per_op(&self) -> u64 {
        (PAIRS * RELAYS * PROTOCOLS.len()) as u64
    }

    fn op(&mut self) -> Tally {
        let result = self.ev.sweep();
        let t = Self::tally(&result);
        self.last = result.ok();
        t
    }

    fn check(&mut self, round: u64) -> Tally {
        let mut t = Tally::default();
        let Some(last) = &self.last else {
            return t;
        };
        // Assignment dominance: greedy takes each pair's best edge, and
        // refinement only ever improves the time-shared rate.
        let greedy = last.best_edge_rate(AssignmentKind::Greedy);
        let random = last.best_edge_rate(AssignmentKind::Random);
        if greedy < random {
            t.fail(|| format!("greedy {greedy} < random {random}"));
        }
        let ts = |kind| last.scheduled_rate(kind, Schedule::TimeShare);
        let refined = ts(AssignmentKind::Refined);
        for kind in [AssignmentKind::Greedy, AssignmentKind::Random] {
            if refined < ts(kind) {
                t.fail(|| format!("refined {refined} < {kind} {} on TimeShare", ts(kind)));
            }
        }
        // Every pair on the warm-up, sampled pairs after it: every edge
        // re-solved, the candidate reduction recomputed from those rates and
        // compared bit for bit (sampled pairs also against all oracles).
        let all = if round == 0 { 0..PAIRS } else { 0..0 };
        let sampled = sample(self.seed, round, PAIRS, CHECKED_PAIRS);
        for (k, oracle) in all
            .map(|k| (k, false))
            .chain(sampled.into_iter().map(|k| (k, true)))
        {
            let mut rates = Vec::with_capacity(RELAYS);
            for j in 0..RELAYS {
                let state = self.topology.try_edge_state(k, j).expect("finite edge");
                let net = GaussianNetwork::with_powers(powers(), state);
                let mut values = Vec::with_capacity(PROTOCOLS.len());
                for p in PROTOCOLS {
                    match self.oracle.solve_one(&net, SolveRequest::sum_rate(p)) {
                        Ok(o) => {
                            if oracle {
                                check_sum(
                                    &mut self.oracle,
                                    &net,
                                    &o.sum_rate_solution(),
                                    true,
                                    &mut t,
                                );
                            }
                            values.push(o.value);
                        }
                        Err(e) => t.fail(|| format!("edge ({k}, {j}) {p}: {e}")),
                    }
                }
                rates.push(Self::best_rate(values.into_iter()));
            }
            let pair = last.pair(k);
            // Top candidates: descending rate, lower relay first on ties.
            let mut order: Vec<usize> = (0..RELAYS).collect();
            order.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]).then(a.cmp(&b)));
            for (c, &j) in pair.candidates().iter().zip(&order) {
                if c.relay != j || c.rate.to_bits() != rates[j].to_bits() {
                    t.fail(|| format!("pair {k}: candidate {c:?}, expected relay {j}"));
                }
            }
            let r = pair.random();
            if r.rate.to_bits() != rates[r.relay].to_bits() {
                t.fail(|| format!("pair {k}: random edge {r:?} vs {}", rates[r.relay]));
            }
        }
        t
    }

    fn decomposed(&mut self, rec: &mut Recorder) -> Tally {
        let City {
            topology,
            ctx,
            states,
            blocks,
            outs,
            last,
            ..
        } = self;
        let powers = powers();
        let mut t = Tally::default();
        for lo in (0..PAIRS).step_by(GROUP) {
            let hi = (lo + GROUP).min(PAIRS);
            rec.time("topology.edge_state", || {
                states.clear();
                for k in lo..hi {
                    for j in 0..RELAYS {
                        match topology.try_edge_state(k, j) {
                            Ok(s) => states.push(s),
                            Err(e) => t.fail(|| format!("edge ({k}, {j}): {e}")),
                        }
                    }
                }
            });
            if states.len() != (hi - lo) * RELAYS {
                continue;
            }
            rec.time("batch.caps", || {
                for (block, edges) in blocks.iter_mut().zip(states.chunks(RELAYS)) {
                    block.clear();
                    for s in edges {
                        block.push(&powers, s);
                    }
                    block.compute_caps();
                }
            });
            for (pi, p) in PROTOCOLS.into_iter().enumerate() {
                let open = rec.enter(kernel_span(p));
                for (block, out) in blocks.iter().zip(outs.iter_mut()).take(hi - lo) {
                    out[pi].clear();
                    if let Err(e) = ctx.solve_block(block, SolveRequest::sum_rate(p), &mut out[pi])
                    {
                        t.fail(|| format!("{p} block solve: {e}"));
                    }
                }
                rec.exit(open);
            }
            // The layers must reproduce each pair's best edge bit for bit.
            if let Some(last) = last {
                for (k, out) in (lo..hi).zip(outs.iter()) {
                    let best = (0..RELAYS)
                        .map(|j| Self::best_rate(out.iter().map(|o| o[j].value)))
                        .fold(f64::NEG_INFINITY, f64::max);
                    if best.to_bits() != last.pair(k).best().rate.to_bits() {
                        t.fail(|| format!("decomposed city sweep differs at pair {k}"));
                    }
                }
            }
        }
        t
    }

    fn parallel_pair(&mut self) -> (f64, f64, Tally) {
        let ev2 = self
            .ev2
            .get_or_insert_with(|| evaluator(self.topology.clone(), 2));
        let t0 = Instant::now();
        let one = self.ev.sweep();
        let t1 = Instant::now();
        let two = ev2.sweep();
        let t2 = Instant::now();
        let mut t = Self::tally(&one);
        if one.as_ref().ok() != two.as_ref().ok() {
            t.fail(|| "two-thread city sweep differs from one-thread sweep".into());
        }
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        (secs(t0, t1), secs(t1, t2), t)
    }

    fn per_layer(&self, traced: &Traced, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("topology.build_ms", traced.setup_ms["topology.build"]);
        out.insert("scenario.build_ms", traced.setup_ms["scenario.build"]);
        out.insert(
            "topology.edge_state_ms",
            traced.layer("topology.edge_state"),
        );
        out.insert("batch.caps_ms", traced.layer("batch.caps"));
        for p in PROTOCOLS {
            out.insert(kernel_metric(p), traced.layer(kernel_span(p)));
        }
        out.insert("city.reduce_assign_ms", traced.residual_ms);
    }
}
