//! `sweep_closed_form`: the paper's Fig. 3 symmetric-gain sweep on the
//! production batched path.
//!
//! 60,001 points with `P = 15 dB`, `G_ab = 0 dB` and `G_ar = G_br = g` on
//! `g ∈ [0, 30] dB` (a 0.0005 dB grid, each gain jittered by the seed within
//! ±¼ step), all four protocols, inner bound, no floor. Every solve is
//! closed-form, so the lane kernels, `PointBlock` caps and result assembly
//! do all the work and the simplex none.

use super::{
    check_sum, kernel_metric, kernel_span, same_sum, sample, unit, Tally, Traced, Workload,
};
use crate::trace::Recorder;
use bcc_core::batch::{PointBlock, DEFAULT_BLOCK};
use bcc_core::gaussian::SumRateSolution;
use bcc_core::prelude::*;
use bcc_core::scenario::SweepResult;
use std::collections::BTreeMap;
use std::time::Instant;

const POINTS: usize = 60_001;
const STEP_DB: f64 = 0.0005;
const POWER_DB: f64 = 15.0;
const GAB_DB: f64 = 0.0;
/// Points checked against the oracles after each sweep.
const CHECKED_POINTS: usize = 16;

pub struct Sweep {
    seed: u64,
    gains_db: Vec<f64>,
    ev: Evaluator,
    ev2: Option<Evaluator>,
    last: Option<SweepResult>,
    oracle: SolveCtx,
    // Decomposition state, reused across operations.
    ctx: SolveCtx,
    block: PointBlock,
    outs: Vec<Vec<SolveOutcome>>,
    sols: Vec<SumRateSolution>,
}

fn scenario(gains_db: &[f64], threads: usize) -> Scenario {
    Scenario::symmetric_gain_sweep_db(POWER_DB, GAB_DB, gains_db.iter().copied()).threads(threads)
}

impl Sweep {
    pub fn setup(seed: u64, rec: &mut Recorder) -> (Self, f64) {
        let gains_db: Vec<f64> = (0..POINTS as u64)
            .map(|k| {
                let jitter = (unit(seed, k) - 0.5) * 0.5 * STEP_DB;
                (k as f64 * STEP_DB + jitter).clamp(0.0, 30.0)
            })
            .collect();
        let t = Instant::now();
        let ev = rec.time("scenario.build", || scenario(&gains_db, 1).build());
        let secs = t.elapsed().as_secs_f64();
        let w = Sweep {
            seed,
            gains_db,
            ev,
            ev2: None,
            last: None,
            oracle: SolveCtx::new(),
            ctx: SolveCtx::new(),
            block: PointBlock::new(),
            outs: vec![Vec::new(); Protocol::ALL.len()],
            sols: Vec::new(),
        };
        (w, secs)
    }

    fn tally(result: &Result<SweepResult, CoreError>) -> Tally {
        let mut t = Tally::attempted((POINTS * Protocol::ALL.len()) as u64);
        match result {
            Ok(r) => {
                for s in r.skipped() {
                    t.fail(|| format!("skipped solve: {s:?}"));
                }
            }
            Err(e) => {
                t.failed = t.attempted;
                t.first_failure = Some(format!("sweep failed: {e}"));
            }
        }
        t
    }
}

impl Workload for Sweep {
    fn op_name(&self) -> &'static str {
        "sweep"
    }

    fn work_unit(&self) -> &'static str {
        "solves"
    }

    fn work_per_op(&self) -> u64 {
        (POINTS * Protocol::ALL.len()) as u64
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
        for (i, oracle) in all
            .map(|i| (i, false))
            .chain(sampled.into_iter().map(|i| (i, true)))
        {
            let net = self.ev.points()[i].net;
            for p in Protocol::ALL {
                let got = &last.series(p).expect("all protocols swept").solutions[i];
                check_sum(&mut self.oracle, &net, got, oracle, &mut t);
            }
        }
        t
    }

    fn decomposed(&mut self, rec: &mut Recorder) -> Tally {
        let Sweep {
            ev,
            ctx,
            block,
            outs,
            sols,
            ..
        } = self;
        let points = ev.points();
        sols.clear();
        let mut t = Tally::default();
        for lo in (0..points.len()).step_by(DEFAULT_BLOCK) {
            let hi = (lo + DEFAULT_BLOCK).min(points.len());
            rec.time("batch.caps", || {
                block.clear();
                for pt in &points[lo..hi] {
                    block.push_net(&pt.net);
                }
                block.compute_caps();
            });
            for (out, p) in outs.iter_mut().zip(Protocol::ALL) {
                let open = rec.enter(kernel_span(p));
                out.clear();
                let r = ctx.solve_block(block, SolveRequest::sum_rate(p), out);
                rec.exit(open);
                if let Err(e) = r {
                    t.fail(|| format!("{p} block solve: {e}"));
                }
            }
            rec.time("kernel.convert", || {
                for i in 0..hi - lo {
                    sols.extend(outs.iter().map(|o| o[i].sum_rate_solution()));
                }
            });
        }
        // The layers must reproduce the production sweep bit for bit.
        if let Some(last) = &self.last {
            let nproto = Protocol::ALL.len();
            for (k, sol) in self.sols.iter().enumerate() {
                let real = &last.series(sol.protocol).expect("swept").solutions[k / nproto];
                if !same_sum(sol, real) {
                    t.fail(|| format!("decomposed sweep differs at point {}", k / nproto));
                }
            }
        }
        t
    }

    fn parallel_pair(&mut self) -> (f64, f64, Tally) {
        let ev2 = self
            .ev2
            .get_or_insert_with(|| scenario(&self.gains_db, 2).build());
        let t0 = Instant::now();
        let one = self.ev.sweep();
        let t1 = Instant::now();
        let two = ev2.sweep();
        let t2 = Instant::now();
        let mut t = Self::tally(&one);
        if one.as_ref().ok() != two.as_ref().ok() {
            t.fail(|| "two-thread sweep differs from one-thread sweep".into());
        }
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        (secs(t0, t1), secs(t1, t2), t)
    }

    fn per_layer(&self, traced: &Traced, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("scenario.build_ms", traced.setup_ms["scenario.build"]);
        out.insert("scenario.unattributed_ms", traced.residual_ms);
        out.insert("batch.caps_ms", traced.layer("batch.caps"));
        for p in Protocol::ALL {
            out.insert(kernel_metric(p), traced.layer(kernel_span(p)));
        }
        out.insert("kernel.convert_ms", traced.layer("kernel.convert"));
    }
}
