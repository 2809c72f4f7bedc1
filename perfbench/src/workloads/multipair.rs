//! `multipair_maxmin`: the K = 3 shared-relay sweep (max–min per pair,
//! Kim/Smida/Devroye) — the one evaluator workload where the simplex
//! carries most of the time.
//!
//! 4,001 common-power points on `[0, 20] dB` (0.005 dB grid, jittered by
//! the seed within ±¼ step) × the study's three heterogeneous pairs
//! (relay-advantaged, symmetric, direct-advantaged) × four protocols ×
//! {sum rate, max–min}: 96,024 solves per sweep. HBC max–min has no closed form and runs one warm simplex per
//! point; everything else runs in the lane kernels.

use super::{
    check_max_min, check_sum, same_point, same_sum, sample, unit, Tally, Traced, Workload,
};
use crate::trace::Recorder;
use bcc_channel::ChannelState;
use bcc_core::batch::{PointBlock, DEFAULT_BLOCK};
use bcc_core::multipair::{MultiPairEvaluator, MultiPairResult, MultiPairScenario, PairSet};
use bcc_core::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

const POINTS: usize = 4_001;
const PAIRS: usize = 3;
const STEP_DB: f64 = 0.005;
/// Points checked against the oracles after each sweep (every pair and
/// protocol of each).
const CHECKED_POINTS: usize = 4;

pub struct MultiPair {
    seed: u64,
    pairs: PairSet,
    powers_db: Vec<f64>,
    ev: MultiPairEvaluator,
    ev2: Option<MultiPairEvaluator>,
    last: Option<MultiPairResult>,
    oracle: SolveCtx,
    // Decomposition state, reused across operations.
    ctx: SolveCtx,
    block: PointBlock,
    sums: Vec<Vec<SolveOutcome>>,
    mms: Vec<Vec<SolveOutcome>>,
    sols: Vec<PairSolution>,
}

fn scenario(pairs: &PairSet, powers_db: &[f64], threads: usize) -> MultiPairScenario {
    MultiPairScenario::power_sweep_db(pairs, powers_db.iter().copied()).threads(threads)
}

/// The multi-pair study's three pairs at unit power: relay-advantaged
/// (the Fig. 4 gains), symmetric, and direct-advantaged (a weak relay).
fn pair_set() -> PairSet {
    let pair = |gab: f64, gar: f64, gbr: f64| {
        let state = ChannelState::new(
            Db::new(gab).to_linear(),
            Db::new(gar).to_linear(),
            Db::new(gbr).to_linear(),
        );
        GaussianNetwork::new(1.0, state)
    };
    PairSet::new(vec![
        pair(-7.0, 0.0, 5.0),
        pair(0.0, 0.0, 0.0),
        pair(0.0, -10.0, -10.0),
    ])
}

impl MultiPair {
    pub fn setup(seed: u64, rec: &mut Recorder) -> (Self, f64) {
        let pairs = pair_set();
        let powers_db: Vec<f64> = (0..POINTS as u64)
            .map(|k| {
                let jitter = (unit(seed, k) - 0.5) * 0.5 * STEP_DB;
                (k as f64 * STEP_DB + jitter).clamp(0.0, 20.0)
            })
            .collect();
        let t = Instant::now();
        let ev = rec.time("multipair.build", || {
            scenario(&pairs, &powers_db, 1).build()
        });
        let secs = t.elapsed().as_secs_f64();
        let nproto = Protocol::ALL.len();
        let w = MultiPair {
            seed,
            pairs,
            powers_db,
            ev,
            ev2: None,
            last: None,
            oracle: SolveCtx::new(),
            ctx: SolveCtx::new(),
            block: PointBlock::new(),
            sums: vec![Vec::new(); nproto],
            mms: vec![Vec::new(); nproto],
            sols: Vec::new(),
        };
        (w, secs)
    }

    fn tally(result: &Result<MultiPairResult, CoreError>) -> Tally {
        let mut t = Tally::attempted((POINTS * PAIRS * Protocol::ALL.len() * 2) as u64);
        if let Err(e) = result {
            t.failed = t.attempted;
            t.first_failure = Some(format!("multi-pair sweep failed: {e}"));
        }
        t
    }
}

impl Workload for MultiPair {
    fn op_name(&self) -> &'static str {
        "sweep"
    }

    fn work_unit(&self) -> &'static str {
        "solves"
    }

    fn work_per_op(&self) -> u64 {
        (POINTS * PAIRS * Protocol::ALL.len() * 2) as u64
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
        let all = if round == 0 { 0..POINTS } else { 0..0 };
        let sampled = sample(self.seed, round, POINTS, CHECKED_POINTS);
        for (point, oracle) in all
            .map(|i| (i, false))
            .chain(sampled.into_iter().map(|i| (i, true)))
        {
            for pair in 0..PAIRS {
                let net = *self.ev.points()[point].1.get(pair);
                for p in Protocol::ALL {
                    let got = last.solution(p, point, pair);
                    check_sum(&mut self.oracle, &net, &got.sum, oracle, &mut t);
                    check_max_min(&mut self.oracle, &net, p, &got.fair, oracle, &mut t);
                }
            }
        }
        t
    }

    fn decomposed(&mut self, rec: &mut Recorder) -> Tally {
        let MultiPair {
            ev,
            ctx,
            block,
            sums,
            mms,
            sols,
            ..
        } = self;
        let points = ev.points();
        let nets = points.len() * PAIRS;
        sols.clear();
        let mut t = Tally::default();
        for lo in (0..nets).step_by(DEFAULT_BLOCK) {
            let hi = (lo + DEFAULT_BLOCK).min(nets);
            rec.time("batch.caps", || {
                block.clear();
                for idx in lo..hi {
                    block.push_net(points[idx / PAIRS].1.get(idx % PAIRS));
                }
                block.compute_caps();
            });
            for ((sum, mm), p) in sums.iter_mut().zip(mms.iter_mut()).zip(Protocol::ALL) {
                let open = rec.enter("kernel.sum");
                sum.clear();
                let r_sum = ctx.solve_block(block, SolveRequest::sum_rate(p), sum);
                rec.exit(open);
                // HBC max–min has no closed form: it is the simplex layer.
                let open = rec.enter(if p == Protocol::Hbc {
                    "lp.hbc_maxmin"
                } else {
                    "kernel.maxmin"
                });
                mm.clear();
                let r_mm = ctx.solve_block(block, SolveRequest::max_min(p), mm);
                rec.exit(open);
                if let Err(e) = r_sum.and(r_mm) {
                    t.fail(|| format!("{p} block solve: {e}"));
                }
            }
            rec.time("kernel.convert", || {
                for i in 0..hi - lo {
                    sols.extend(sums.iter().zip(mms.iter()).map(|(s, m)| PairSolution {
                        sum: s[i].sum_rate_solution(),
                        fair: m[i].schedule_point(),
                    }));
                }
            });
        }
        // The layers must reproduce the production sweep bit for bit.
        if let Some(last) = &self.last {
            let nproto = Protocol::ALL.len();
            for (k, sol) in self.sols.iter().enumerate() {
                let (net, p) = (k / nproto, Protocol::ALL[k % nproto]);
                let real = last.solution(p, net / PAIRS, net % PAIRS);
                if !same_sum(&sol.sum, &real.sum) || !same_point(&sol.fair, &real.fair) {
                    t.fail(|| format!("decomposed multi-pair sweep differs at net {net}"));
                }
            }
        }
        t
    }

    fn parallel_pair(&mut self) -> (f64, f64, Tally) {
        let ev2 = self
            .ev2
            .get_or_insert_with(|| scenario(&self.pairs, &self.powers_db, 2).build());
        let t0 = Instant::now();
        let one = self.ev.sweep();
        let t1 = Instant::now();
        let two = ev2.sweep();
        let t2 = Instant::now();
        let mut t = Self::tally(&one);
        if one.as_ref().ok() != two.as_ref().ok() {
            t.fail(|| "two-thread multi-pair sweep differs from one-thread sweep".into());
        }
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        (secs(t0, t1), secs(t1, t2), t)
    }

    fn per_layer(&self, traced: &Traced, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("multipair.build_ms", traced.setup_ms["multipair.build"]);
        out.insert("multipair.unattributed_ms", traced.residual_ms);
        out.insert("batch.caps_ms", traced.layer("batch.caps"));
        out.insert("kernel.sum_ms", traced.layer("kernel.sum"));
        out.insert("kernel.maxmin_ms", traced.layer("kernel.maxmin"));
        out.insert("lp.hbc_maxmin_ms", traced.layer("lp.hbc_maxmin"));
        out.insert("kernel.convert_ms", traced.layer("kernel.convert"));
    }
}
