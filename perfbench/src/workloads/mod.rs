//! The four workloads and the output checks they share.
//!
//! Every workload drives the program through its public API only. Its
//! timed operation is the production call a user makes (`Evaluator::sweep`,
//! `MultiPairEvaluator::sweep`, `Server::submit` + `Server::drain`,
//! `CityEvaluator::sweep`); its decomposed operation redoes the same work
//! through the public per-layer calls beneath it, each wrapped in a span,
//! so the traced run can attribute the production call's wall time.

use crate::trace::Recorder;
use bcc_core::gaussian::SumRateSolution;
use bcc_core::optimizer::SchedulePoint;
use bcc_core::prelude::*;
use std::collections::BTreeMap;

pub mod city;
pub mod multipair;
pub mod serve;
pub mod sweep;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "sweep_closed_form",
    "multipair_maxmin",
    "serve_mixed",
    "city_assign",
];

/// Builds workload `name` from `seed`, returning it with the seconds spent
/// in the program's set-up calls (input generation excluded).
pub fn setup(name: &str, seed: u64, rec: &mut Recorder) -> Option<(Box<dyn Workload>, f64)> {
    Some(match name {
        "sweep_closed_form" => boxed(sweep::Sweep::setup(seed, rec)),
        "multipair_maxmin" => boxed(multipair::MultiPair::setup(seed, rec)),
        "serve_mixed" => boxed(serve::Serve::setup(seed, rec)),
        "city_assign" => boxed(city::City::setup(seed, rec)),
        _ => return None,
    })
}

fn boxed<W: Workload + 'static>((w, secs): (W, f64)) -> (Box<dyn Workload>, f64) {
    (Box::new(w), secs)
}

/// Operations attempted and failed, with the first failure's description.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations attempted (solves or queries).
    pub attempted: u64,
    /// Operations that failed: skipped solves, degraded answers, serve
    /// errors other than proven infeasibility, and oracle mismatches.
    pub failed: u64,
    /// What went wrong first, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// A tally of `attempted` operations, none failed yet.
    pub fn attempted(attempted: u64) -> Self {
        Tally {
            attempted,
            ..Tally::default()
        }
    }

    /// Records one failure described by `what`.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// What the traced run measured, handed to a workload to name its metrics.
#[derive(Debug)]
pub struct Traced {
    /// Median self time per operation of each layer span, ms.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Median wall time of the untraced production call, ms, minus the
    /// layers: the time no named layer accounts for.
    pub residual_ms: f64,
    /// Median set-up span durations, ms.
    pub setup_ms: BTreeMap<&'static str, f64>,
    /// 99th percentile of the production call's wall time, ms.
    pub real_p99_ms: f64,
}

impl Traced {
    /// A layer's median self time per operation (0 if it never ran).
    pub fn layer(&self, name: &str) -> f64 {
        self.layer_ms.get(name).copied().unwrap_or(0.0)
    }
}

/// One benchmark workload.
pub trait Workload {
    /// What one timed operation is ("sweep" or "batch").
    fn op_name(&self) -> &'static str;
    /// What the work counts ("solves" or "queries").
    fn work_unit(&self) -> &'static str;
    /// Work one timed operation performs.
    fn work_per_op(&self) -> u64;
    /// Generates the next operation's inputs (not timed).
    fn prepare(&mut self) {}
    /// The timed operation: the production call at one thread.
    fn op(&mut self) -> Tally;
    /// Checks the last operation's outputs (not timed); counts mismatches as
    /// failures. Round 0, the warm-up, checks every output against the
    /// scalar path; every round checks a sample seeded by `round` against
    /// all oracles.
    fn check(&mut self, round: u64) -> Tally;
    /// The last operation's work again, through the per-layer public calls,
    /// each inside a span; checks the result equals the production call's.
    fn decomposed(&mut self, rec: &mut Recorder) -> Tally;
    /// One operation at one thread and at two, on the same inputs: their
    /// wall times in seconds, and a tally that fails unless the two
    /// results are identical.
    fn parallel_pair(&mut self) -> (f64, f64, Tally);
    /// This workload's named per-layer metrics from the traced run.
    fn per_layer(&self, traced: &Traced, out: &mut BTreeMap<&'static str, f64>);
}

/// Relative tolerance of the feasibility and simplex-oracle checks.
pub const ORACLE_RTOL: f64 = 1e-9;

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn durations_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits_eq(*x, *y))
}

/// Bitwise equality of two sum-rate solutions.
pub fn same_sum(a: &SumRateSolution, b: &SumRateSolution) -> bool {
    a.protocol == b.protocol
        && bits_eq(a.sum_rate, b.sum_rate)
        && bits_eq(a.ra, b.ra)
        && bits_eq(a.rb, b.rb)
        && durations_eq(&a.durations, &b.durations)
}

/// Bitwise equality of two schedule points.
pub fn same_point(a: &SchedulePoint, b: &SchedulePoint) -> bool {
    bits_eq(a.objective, b.objective)
        && bits_eq(a.ra, b.ra)
        && bits_eq(a.rb, b.rb)
        && durations_eq(&a.durations, &b.durations)
}

/// The simplex oracle's instance for `protocol` at `net`: the inner-bound
/// constraint set with every capacity divided by the largest one, and that
/// scale.
///
/// `bcc-lp` works with absolute tolerances (1e-9 on pivots, 1e-7 on warm
/// starts), so on deep-fade networks, whose capacities are ~1e-3, the
/// unscaled simplex can return a point that violates a constraint by
/// ~1e-7. The oracle therefore solves the equivalent unit-scale program,
/// whose optimum is the original one divided by the scale.
fn oracle_set(net: &GaussianNetwork, protocol: Protocol) -> (ConstraintSet, f64) {
    let set = bcc_core::bounds::constraint_sets_split(
        protocol,
        Bound::Inner,
        &net.powers(),
        &net.state(),
    )
    .swap_remove(0);
    let scale = set
        .constraints()
        .iter()
        .flat_map(|c| c.phase_coefs.iter())
        .fold(0.0f64, |m, v| m.max(v.abs()));
    let mut scaled = ConstraintSet::new(set.num_phases(), "unit-scale oracle");
    for c in set.constraints() {
        let mut c = c.clone();
        for v in c.phase_coefs.iter_mut() {
            *v /= scale;
        }
        scaled.push(c);
    }
    (scaled, scale)
}

/// Checks that `(ra, rb)` with phase `durations` satisfies every constraint
/// of the unit-scale `set` (and the durations form a schedule) within
/// [`ORACLE_RTOL`]; `scale` converts the rates to the set's units.
fn feasible(set: &ConstraintSet, scale: f64, ra: f64, rb: f64, durations: &[f64]) -> bool {
    let schedule = durations.len() == set.num_phases()
        && durations.iter().all(|&d| d >= -ORACLE_RTOL)
        && (durations.iter().sum::<f64>() - 1.0).abs() <= ORACLE_RTOL;
    schedule
        && set.constraints().iter().all(|c| {
            let used = (c.ra * ra + c.rb * rb) / scale;
            let offered: f64 = c
                .phase_coefs
                .iter()
                .zip(durations)
                .map(|(k, d)| k * d)
                .sum();
            used - offered <= ORACLE_RTOL
        })
}

/// `true` if the simplex's point `lp` on the unit-scale `set` refutes an
/// answer with objective `got`: the point satisfies the set within
/// [`ORACLE_RTOL`] and beats `got` by more than [`ORACLE_RTOL`] of the larger
/// of `got` and the set's scale. A simplex point that violates the set
/// proves nothing: on near-degenerate sets the simplex returns points that
/// break a constraint by ~1e-8 even at unit scale, so there the answer
/// stands on its own feasibility.
fn refutes(set: &ConstraintSet, scale: f64, lp: &SchedulePoint, got: f64) -> bool {
    lp.objective * scale - got > ORACLE_RTOL * got.abs().max(scale)
        && feasible(set, 1.0, lp.ra, lp.rb, &lp.durations)
}

/// Checks a sum-rate answer at `net` bitwise against the scalar
/// `solve_one` path and, with `oracle`, also that it is feasible for its
/// constraint set and that the simplex finds no feasible better point.
pub fn check_sum(
    ctx: &mut SolveCtx,
    net: &GaussianNetwork,
    got: &SumRateSolution,
    oracle: bool,
    t: &mut Tally,
) {
    let p = got.protocol;
    match ctx.solve_one(net, SolveRequest::sum_rate(p)) {
        Ok(o) if same_sum(&o.sum_rate_solution(), got) => {}
        other => t.fail(|| format!("{p} sum rate at {net:?}: scalar path {other:?}, got {got:?}")),
    }
    if !oracle {
        return;
    }
    let (set, scale) = oracle_set(net, p);
    if !feasible(&set, scale, got.ra, got.rb, &got.durations) {
        t.fail(|| format!("{p} sum rate at {net:?}: infeasible answer {got:?}"));
    }
    match ctx.lp_sum_rate(&set, None) {
        Ok(lp) if !refutes(&set, scale, &lp, got.sum_rate) => {}
        other => t.fail(|| {
            format!("{p} sum rate at {net:?}: simplex {other:?} (scale {scale}), got {got:?}")
        }),
    }
}

/// Checks a max–min answer of `protocol` at `net` the same ways.
pub fn check_max_min(
    ctx: &mut SolveCtx,
    net: &GaussianNetwork,
    protocol: Protocol,
    got: &SchedulePoint,
    oracle: bool,
    t: &mut Tally,
) {
    match ctx.solve_one(net, SolveRequest::max_min(protocol)) {
        Ok(o) if same_point(&o.schedule_point(), got) => {}
        other => t.fail(|| format!("{protocol} max-min at {net:?}: scalar {other:?}, got {got:?}")),
    }
    if !oracle {
        return;
    }
    let (set, scale) = oracle_set(net, protocol);
    if !feasible(&set, scale, got.ra, got.rb, &got.durations) {
        t.fail(|| format!("{protocol} max-min at {net:?}: infeasible answer {got:?}"));
    }
    match ctx.lp_max_min(&set) {
        Ok(lp) if !refutes(&set, scale, &lp, got.objective) => {}
        other => t.fail(|| {
            format!("{protocol} max-min at {net:?}: simplex {other:?} (scale {scale}), got {got:?}")
        }),
    }
}

/// A uniform draw in `[0, 1)` from `(seed, k)`.
pub fn unit(seed: u64, k: u64) -> f64 {
    (bcc_num::seed::mix_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64
}

/// `count` indices in `0..n` drawn from `(seed, round)`.
pub fn sample(seed: u64, round: u64, n: usize, count: usize) -> Vec<usize> {
    let base = bcc_num::seed::mix_seed(seed ^ 0x5A3F_1E00_C4EC_0000, round);
    (0..count as u64)
        .map(|i| (bcc_num::seed::mix_seed(base, i) % n as u64) as usize)
        .collect()
}

/// The span name of the sum-rate lane kernel of `protocol`.
pub fn kernel_span(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::DirectTransmission => "kernel.dt",
        Protocol::Mabc => "kernel.mabc",
        Protocol::Tdbc => "kernel.tdbc",
        Protocol::Hbc => "kernel.hbc",
    }
}

/// The per-layer metric of the sum-rate lane kernel of `protocol`.
pub fn kernel_metric(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::DirectTransmission => "kernel.dt_ms",
        Protocol::Mabc => "kernel.mabc_ms",
        Protocol::Tdbc => "kernel.tdbc_ms",
        Protocol::Hbc => "kernel.hbc_ms",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::constraint::PhaseVec;

    /// `R_a ≤ 2·Δ1`, `R_b ≤ 2·Δ2`, `R_a + R_b ≤ 1.5` over two phases.
    fn set() -> ConstraintSet {
        let row = |ra, rb, c: [f64; 2]| RateConstraint::new(ra, rb, PhaseVec::from_slice(&c), "t");
        let mut set = ConstraintSet::new(2, "test");
        set.push(row(1.0, 0.0, [2.0, 0.0]));
        set.push(row(0.0, 1.0, [0.0, 2.0]));
        set.push(row(1.0, 1.0, [1.5, 1.5]));
        set
    }

    fn point(ra: f64, rb: f64, d1: f64) -> SchedulePoint {
        let durations = PhaseVec::from_slice(&[d1, 1.0 - d1]);
        SchedulePoint {
            ra,
            rb,
            durations,
            objective: ra + rb,
        }
    }

    #[test]
    fn feasibility_is_checked_per_row_and_schedule() {
        let set = set();
        assert!(feasible(&set, 1.0, 0.75, 0.75, &[0.5, 0.5]));
        // Rates in units of a scale of 2 are halved first.
        assert!(feasible(&set, 2.0, 1.5, 1.5, &[0.5, 0.5]));
        assert!(!feasible(&set, 1.0, 0.8, 0.75, &[0.5, 0.5]), "sum row");
        assert!(!feasible(&set, 1.0, 1.1, 0.0, &[0.5, 0.5]), "phase row");
        assert!(
            !feasible(&set, 1.0, 0.1, 0.1, &[0.6, 0.6]),
            "not a schedule"
        );
        assert!(!feasible(&set, 1.0, 0.1, 0.1, &[1.0]), "wrong arity");
    }

    #[test]
    fn only_a_feasible_better_simplex_point_refutes() {
        let set = set();
        let best = point(0.75, 0.75, 0.5);
        // The optimum is 1.5: an answer of 1.5 stands, 1.4 is refuted.
        assert!(!refutes(&set, 1.0, &best, 1.5));
        assert!(refutes(&set, 1.0, &best, 1.4));
        // A better-looking but infeasible simplex point refutes nothing.
        let broken = point(0.8, 0.8, 0.5);
        assert!(!refutes(&set, 1.0, &broken, 1.5));
        // Differences within the tolerance of the scale do not count.
        assert!(!refutes(&set, 1.0, &best, 1.5 - 0.5 * ORACLE_RTOL));
    }
}
