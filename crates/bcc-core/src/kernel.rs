//! Closed-form fast paths and the zero-allocation batch solve context.
//!
//! # Closed forms
//!
//! For the **two-phase protocols** — direct transmission and MABC — the
//! workspace's dominant queries collapse analytically. With phase split
//! `Δ ∈ [0, 1]` (phase 2 lasts `1 − Δ`), every Theorem-2/DT rate bound is
//! a line `p·Δ + q·(1 − Δ)`, so
//!
//! * `max_sum_rate` maximises a **concave piecewise-linear** function of
//!   `Δ` — `min(mA(Δ) + mB(Δ), Δ·C_MAC)` for MABC, linear for DT — whose
//!   maximum sits at a kink or at an analytic crossing point;
//! * `max_min_rate` maximises `min` of at most five lines, whose maximum
//!   sits at a pairwise line crossing or an endpoint.
//!
//! Both are solved exactly by evaluating a handful of candidate `Δ`s —
//! tens of flops instead of a simplex run. The **multi-phase protocols**
//! follow the same geometry one dimension up: TDBC (sum and max–min) and
//! HBC (sum) are concave piecewise-linear programs over a 2- or
//! 3-simplex, solved exactly by enumerating the vertices of the linearity
//! subdivision (facets × kink planes — a few dozen cross products). The
//! kernel is dispatched automatically by [`SolveCtx`] (and
//! `GaussianNetwork::max_sum_rate`) whenever no QoS rate floor and no
//! outer-bound ρ-family is in play; the simplex remains the fallback for
//! the HBC max–min, floors and outer families, and serves as the proptest
//! oracle for every closed form (`bcc-core/tests/kernel_oracle.rs`).
//!
//! The closed forms themselves are implemented **once**, as width-generic
//! lane kernels in [`crate::batch`]; the scalar entry points here are the
//! width-1 instantiations of those lane bodies, so scalar and batched
//! answers are bit-identical by construction.
//!
//! # The solve API
//!
//! The per-worker entry points are consolidated behind one typed request:
//! a [`SolveRequest`] names the objective ([`Objective::SumRate`] or
//! [`Objective::MaxMin`]), the protocol, the bound side and an optional
//! QoS floor, and resolves to a [`SolveOutcome`] through
//! [`SolveCtx::solve_one`] (scalar), [`SolveCtx::solve_block`] (batched
//! over a [`crate::batch::PointBlock`]) or [`SolveCtx::solve_best`]
//! (argmax over protocols).
//!
//! # The solve context
//!
//! [`SolveCtx`] bundles everything a batch worker needs to evaluate
//! operating points with **zero heap allocations per point** after
//! warm-up: a [`bcc_lp::Workspace`] (flat tableau + warm-start bases), a
//! [`ConstraintBuf`] arena the `*_into` bound builders rebuild in place,
//! a pooled-row [`Problem`], and a reusable [`Solution`]. The `Scenario`
//! evaluator, the fading Monte-Carlo fan-outs and the allocation search
//! all hold one `SolveCtx` per worker thread.

use crate::bounds::{self, LinkCaps};
use crate::constraint::{ConstraintBuf, ConstraintSet, PhaseVec};
use crate::error::CoreError;
use crate::gaussian::{GaussianNetwork, SumRateSolution};
use crate::optimizer::SchedulePoint;
use crate::protocol::{Bound, Protocol};
use bcc_lp::{Problem, Relation, Sense, Solution, Workspace};
use bcc_num::obs::{self, Counter};

/// The calling thread's closed-form kernel solves: a view of [`obs`]'s [`Counter::KernelHits`].
pub fn kernel_hits_local() -> u64 {
    obs::local()[Counter::KernelHits]
}

/// Closed-form `max_sum_rate` — covers **all four** protocols (DT and
/// MABC by 1-D line crossing, TDBC by 2-simplex vertex enumeration, HBC
/// by 3-simplex vertex enumeration). Always `Some` for valid inputs.
pub fn max_sum_rate(net: &GaussianNetwork, protocol: Protocol) -> Option<SumRateSolution> {
    max_sum_rate_from_caps(&LinkCaps::compute(&net.powers(), &net.state()), protocol)
}

/// [`max_sum_rate`] from precomputed [`LinkCaps`] (the batch hot path —
/// one capacity evaluation per point serves every protocol). Covers all
/// four protocols; the `Option` return is kept for API stability (and
/// for forward-compat with caps whose structure defeats a closed form).
pub fn max_sum_rate_from_caps(caps: &LinkCaps, protocol: Protocol) -> Option<SumRateSolution> {
    let sol = crate::batch::sum_rate_one(caps, protocol);
    obs::add(Counter::KernelHits, 1);
    Some(sol)
}

/// Closed-form `max_min_rate` (largest symmetric rate) for DT, MABC and
/// TDBC; `None` for HBC (its four-phase max–min stays on the simplex —
/// the query is off the sweep hot path and the 3-simplex tie structure
/// buys little over a warm-started solve).
pub fn max_min_rate(net: &GaussianNetwork, protocol: Protocol) -> Option<SchedulePoint> {
    match protocol {
        Protocol::DirectTransmission | Protocol::Mabc | Protocol::Tdbc => {
            max_min_rate_from_caps(&LinkCaps::compute(&net.powers(), &net.state()), protocol)
        }
        Protocol::Hbc => None,
    }
}

/// [`max_min_rate`] from precomputed [`LinkCaps`].
pub fn max_min_rate_from_caps(caps: &LinkCaps, protocol: Protocol) -> Option<SchedulePoint> {
    let pt = crate::batch::max_min_one(caps, protocol)?;
    obs::add(Counter::KernelHits, 1);
    Some(pt)
}

/// The objective a [`SolveRequest`] optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Maximise the sum rate `R_a + R_b`.
    SumRate,
    /// Maximise the symmetric rate `min(R_a, R_b)`.
    MaxMin,
}

/// A typed solve request: one value naming everything a per-point query
/// needs — objective, protocol, bound side and optional QoS floor — in
/// place of the historical family of per-query [`SolveCtx`] methods.
///
/// Build one with [`SolveRequest::sum_rate`] or [`SolveRequest::max_min`]
/// and refine it builder-style:
///
/// ```
/// use bcc_core::kernel::SolveRequest;
/// use bcc_core::prelude::*;
///
/// let req = SolveRequest::sum_rate(Protocol::Hbc)
///     .with_bound(Bound::Outer)
///     .with_floor(Some((0.5, 0.5)));
/// # assert_eq!(req.protocol, Protocol::Hbc);
/// ```
///
/// The floor applies to the [`Objective::SumRate`] objective only (the
/// max–min objective has no floored form) and is ignored otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRequest {
    /// What to optimise.
    pub objective: Objective,
    /// The protocol whose rate region is being queried.
    pub protocol: Protocol,
    /// Inner (achievable) or outer (converse) bound side.
    pub bound: Bound,
    /// Optional QoS floor `(ra_min, rb_min)` for the sum-rate objective.
    pub floor: Option<(f64, f64)>,
}

impl SolveRequest {
    /// A sum-rate request over the inner bound with no floor.
    pub fn sum_rate(protocol: Protocol) -> Self {
        SolveRequest {
            objective: Objective::SumRate,
            protocol,
            bound: Bound::Inner,
            floor: None,
        }
    }

    /// A max–min (symmetric-rate) request over the inner bound.
    pub fn max_min(protocol: Protocol) -> Self {
        SolveRequest {
            objective: Objective::MaxMin,
            protocol,
            bound: Bound::Inner,
            floor: None,
        }
    }

    /// Replaces the bound side.
    pub fn with_bound(mut self, bound: Bound) -> Self {
        self.bound = bound;
        self
    }

    /// Replaces the QoS floor (sum-rate objective only).
    pub fn with_floor(mut self, floor: Option<(f64, f64)>) -> Self {
        self.floor = floor;
        self
    }

    /// Whether this request is served by the closed-form batch kernels:
    /// inner bound, no floor for the sum-rate objective (floors go
    /// through the LP), and — for max–min — not HBC (whose four-phase
    /// max–min stays on the simplex).
    pub fn is_batchable(&self) -> bool {
        self.bound == Bound::Inner
            && match self.objective {
                Objective::SumRate => self.floor.is_none(),
                Objective::MaxMin => self.protocol != Protocol::Hbc,
            }
    }
}

/// The resolved operating point of one [`SolveRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOutcome {
    /// The protocol that was solved.
    pub protocol: Protocol,
    /// The objective that was optimised.
    pub objective: Objective,
    /// Rate a → b at the optimum.
    pub ra: f64,
    /// Rate b → a at the optimum.
    pub rb: f64,
    /// Optimal phase durations.
    pub durations: PhaseVec,
    /// Optimal objective value (`ra + rb` for sum rate, the symmetric
    /// rate `t` for max–min).
    pub value: f64,
}

impl SolveOutcome {
    fn from_sum(sol: SumRateSolution) -> Self {
        SolveOutcome {
            protocol: sol.protocol,
            objective: Objective::SumRate,
            ra: sol.ra,
            rb: sol.rb,
            durations: sol.durations,
            value: sol.sum_rate,
        }
    }

    fn from_mm(protocol: Protocol, pt: SchedulePoint) -> Self {
        SolveOutcome {
            protocol,
            objective: Objective::MaxMin,
            ra: pt.ra,
            rb: pt.rb,
            durations: pt.durations,
            value: pt.objective,
        }
    }

    /// This outcome as the legacy [`SumRateSolution`] record.
    pub fn sum_rate_solution(&self) -> SumRateSolution {
        SumRateSolution {
            protocol: self.protocol,
            sum_rate: self.value,
            ra: self.ra,
            rb: self.rb,
            durations: self.durations,
        }
    }

    /// This outcome as the legacy [`SchedulePoint`] record.
    pub fn schedule_point(&self) -> SchedulePoint {
        SchedulePoint {
            ra: self.ra,
            rb: self.rb,
            durations: self.durations,
            objective: self.value,
        }
    }
}

/// A per-worker batch solve context: LP workspace (flat tableau +
/// warm-start bases), constraint arena, pooled problem builder and
/// reusable solution — everything needed to evaluate grid points and fade
/// draws with zero heap allocations per point after warm-up (see the
/// module docs).
#[derive(Debug)]
pub struct SolveCtx {
    ws: Workspace,
    buf: ConstraintBuf,
    prob: Problem,
    sol: Solution,
    row: Vec<f64>,
    obj: Vec<f64>,
    /// Per-point capacity memo: the four protocols of one grid point share
    /// one [`LinkCaps`] evaluation (pure function of the key, so caching
    /// never changes results).
    caps: Option<(bcc_channel::PowerSplit, bcc_channel::ChannelState, LinkCaps)>,
    /// Batched-solve scratch, reused across [`SolveCtx::solve_block`]
    /// calls (amortised to zero allocations per point).
    scratch_sum: Vec<SumRateSolution>,
    scratch_pts: Vec<SchedulePoint>,
}

impl Default for SolveCtx {
    fn default() -> Self {
        SolveCtx {
            ws: Workspace::new(),
            // Placeholder shape; every solve `reset`s the problem first.
            prob: Problem::maximize(&[0.0]),
            buf: ConstraintBuf::new(),
            sol: Solution::default(),
            row: Vec::new(),
            obj: Vec::new(),
            caps: None,
            scratch_sum: Vec::new(),
            scratch_pts: Vec::new(),
        }
    }
}

/// Builds the **phase-substituted** LP rows of `set` into `prob`.
///
/// The textbook formulation carries all `L` durations plus the simplex-
/// share equality `Σ Δ_ℓ = 1`, whose artificial variable forces a phase-1
/// pass on every solve. The hot path instead substitutes
/// `Δ_L = 1 − Σ_{ℓ<L} Δ_ℓ`, turning every rate bound
/// `lhs ≤ Σ c_ℓ Δ_ℓ` into `lhs + Σ_{ℓ<L} (c_L − c_ℓ)·Δ_ℓ ≤ c_L` — all
/// `≤` rows with non-negative right-hand sides, so the all-slack basis is
/// feasible and the simplex starts **directly in phase 2** (and the warm
/// path prices one fewer dimension). Variables are
/// `(R_a, R_b, Δ_1..Δ_{L−1}, [extras])`; `n` is the total count.
fn push_constraint_rows(prob: &mut Problem, row: &mut Vec<f64>, set: &ConstraintSet, n: usize) {
    let l = set.num_phases();
    for c in set.constraints() {
        row.clear();
        row.resize(n, 0.0);
        row[0] = c.ra;
        row[1] = c.rb;
        let c_last = c.phase_coefs[l - 1];
        for (idx, coef) in c.phase_coefs.iter().take(l - 1).enumerate() {
            row[2 + idx] = c_last - coef;
        }
        prob.subject_to(row, Relation::Le, c_last);
    }
    if l > 1 {
        // Δ_L ≥ 0 ⇔ Σ_{ℓ<L} Δ_ℓ ≤ 1.
        row.clear();
        row.resize(n, 0.0);
        for v in row.iter_mut().skip(2).take(l - 1) {
            *v = 1.0;
        }
        prob.subject_to(row, Relation::Le, 1.0);
    }
}

/// Reconstructs the full duration vector from the substituted variables
/// (`Δ_L = 1 − Σ`, clamped against float dust).
fn durations_from(x: &[f64], l: usize) -> PhaseVec {
    let mut d = PhaseVec::from_slice(&x[2..2 + l - 1]);
    let used: f64 = d.iter().sum();
    d.push((1.0 - used).max(0.0));
    d
}

/// The warm-started sum-rate LP over `set` with optional QoS floors,
/// operating on explicitly split context parts (so callers can keep the
/// constraint arena borrowed alongside).
#[allow(clippy::too_many_arguments)]
pub(crate) fn lp_sum_rate_parts(
    prob: &mut Problem,
    ws: &mut Workspace,
    sol: &mut Solution,
    row: &mut Vec<f64>,
    obj: &mut Vec<f64>,
    set: &ConstraintSet,
    floor: Option<(f64, f64)>,
) -> Result<SchedulePoint, CoreError> {
    let l = set.num_phases();
    let n = 2 + (l - 1);
    obj.clear();
    obj.resize(n, 0.0);
    obj[0] = 1.0;
    obj[1] = 1.0;
    prob.reset(Sense::Maximize, obj);
    push_constraint_rows(prob, row, set, n);
    if let Some((ra_min, rb_min)) = floor {
        row.clear();
        row.resize(n, 0.0);
        row[0] = 1.0;
        prob.subject_to(row, Relation::Ge, ra_min);
        row[0] = 0.0;
        row[1] = 1.0;
        prob.subject_to(row, Relation::Ge, rb_min);
    }
    prob.solve_warm_into(ws, sol).map_err(|e| {
        let what = if floor.is_some() {
            "sum-rate with QoS floor"
        } else {
            "sum-rate"
        };
        CoreError::lp(format!("{} {what}", set.name), e)
    })?;
    Ok(SchedulePoint {
        ra: sol.x[0],
        rb: sol.x[1],
        durations: durations_from(&sol.x, l),
        objective: sol.objective,
    })
}

/// The warm-started max–min LP over `set` on split context parts.
pub(crate) fn lp_max_min_parts(
    prob: &mut Problem,
    ws: &mut Workspace,
    sol: &mut Solution,
    row: &mut Vec<f64>,
    obj: &mut Vec<f64>,
    set: &ConstraintSet,
) -> Result<SchedulePoint, CoreError> {
    let l = set.num_phases();
    let n = 2 + (l - 1) + 1;
    obj.clear();
    obj.resize(n, 0.0);
    obj[n - 1] = 1.0;
    prob.reset(Sense::Maximize, obj);
    push_constraint_rows(prob, row, set, n);
    // t − R_a ≤ 0, t − R_b ≤ 0 (kept as `≤` rows so the all-slack basis
    // stays feasible and no phase-1 pass is needed).
    row.clear();
    row.resize(n, 0.0);
    row[0] = -1.0;
    row[n - 1] = 1.0;
    prob.subject_to(row, Relation::Le, 0.0);
    row[0] = 0.0;
    row[1] = -1.0;
    prob.subject_to(row, Relation::Le, 0.0);
    prob.solve_warm_into(ws, sol)
        .map_err(|e| CoreError::lp(format!("{} max-min", set.name), e))?;
    Ok(SchedulePoint {
        ra: sol.x[0],
        rb: sol.x[1],
        durations: durations_from(&sol.x, l),
        objective: sol.objective,
    })
}

impl SolveCtx {
    /// Creates an empty context (buffers grow to fit on first use).
    pub fn new() -> Self {
        SolveCtx::default()
    }

    /// The context's LP workspace (for callers that mix direct
    /// [`bcc_lp`] use with context solves).
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Solves `max R_a + R_b` over `set` by warm-started simplex, with
    /// optional QoS floors `R_a ≥ ra_min`, `R_b ≥ rb_min`.
    ///
    /// # Errors
    ///
    /// Propagates LP failures (infeasibility when a floor is
    /// unachievable).
    pub fn lp_sum_rate(
        &mut self,
        set: &ConstraintSet,
        floor: Option<(f64, f64)>,
    ) -> Result<SchedulePoint, CoreError> {
        let SolveCtx {
            ws,
            prob,
            sol,
            row,
            obj,
            ..
        } = self;
        lp_sum_rate_parts(prob, ws, sol, row, obj, set, floor)
    }

    /// Solves the max–min (symmetric-rate) LP over `set` by warm-started
    /// simplex.
    ///
    /// # Errors
    ///
    /// Propagates LP failures.
    pub fn lp_max_min(&mut self, set: &ConstraintSet) -> Result<SchedulePoint, CoreError> {
        let SolveCtx {
            ws,
            prob,
            sol,
            row,
            obj,
            ..
        } = self;
        lp_max_min_parts(prob, ws, sol, row, obj, set)
    }

    /// The memoised per-point capacity bundle (see [`LinkCaps`]).
    fn link_caps(&mut self, net: &GaussianNetwork) -> LinkCaps {
        let powers = net.powers();
        let state = net.state();
        if let Some((p, st, caps)) = &self.caps {
            if *p == powers && *st == state {
                return *caps;
            }
        }
        let caps = LinkCaps::compute(&powers, &state);
        self.caps = Some((powers, state, caps));
        caps
    }

    /// The max–min LP over the inner constraint set built from `caps` —
    /// the HBC max–min, which has no closed form.
    fn lp_max_min_caps(
        &mut self,
        protocol: Protocol,
        caps: &LinkCaps,
    ) -> Result<SchedulePoint, CoreError> {
        let SolveCtx {
            ws,
            buf,
            prob,
            sol,
            row,
            obj,
            ..
        } = self;
        buf.begin();
        bounds::inner_constraints_from_caps_into(protocol, caps, buf.next_set());
        lp_max_min_parts(prob, ws, sol, row, obj, &buf.sets()[0])
    }

    /// The simplex over `req`'s constraint family at `net`: outer bounds
    /// can be set *families* (HBC's ρ-family), maximised over members,
    /// and floors can make members — or the whole family — infeasible
    /// (the family is infeasible only if every member is).
    fn lp_family(
        &mut self,
        net: &GaussianNetwork,
        req: SolveRequest,
    ) -> Result<SchedulePoint, CoreError> {
        let SolveCtx {
            ws,
            buf,
            prob,
            sol,
            row,
            obj,
            ..
        } = self;
        let sets = bounds::constraint_sets_split_into(
            req.protocol,
            req.bound,
            &net.powers(),
            &net.state(),
            buf,
        );
        let mut best: Option<SchedulePoint> = None;
        let mut infeasible: Option<CoreError> = None;
        for set in sets {
            let pt = match req.objective {
                Objective::SumRate => lp_sum_rate_parts(prob, ws, sol, row, obj, set, req.floor),
                Objective::MaxMin => lp_max_min_parts(prob, ws, sol, row, obj, set),
            };
            match pt {
                Ok(pt) if best.as_ref().is_none_or(|b| pt.objective > b.objective) => {
                    best = Some(pt)
                }
                Ok(_) => {}
                Err(e) if e.is_infeasible() => infeasible = Some(e),
                Err(e) => return Err(e),
            }
        }
        best.ok_or_else(|| infeasible.expect("constraint families are non-empty"))
    }

    /// Resolves one [`SolveRequest`] at `net`: closed-form kernel where
    /// the request [is batchable](SolveRequest::is_batchable),
    /// warm-started simplex otherwise (outer-bound families are
    /// maximised over members; a floor is honoured for the sum-rate
    /// objective and ignored for max–min).
    ///
    /// # Errors
    ///
    /// Propagates LP failures; with a floor, an infeasibility error
    /// means the floor is unachievable at this operating point.
    pub fn solve_one(
        &mut self,
        net: &GaussianNetwork,
        req: SolveRequest,
    ) -> Result<SolveOutcome, CoreError> {
        // Deterministic chaos hook: an item fated to kernel poison (a pure
        // function of the active fault scope's token — see
        // `bcc_num::faults::site_fated`) fails here, before any
        // computation, and keeps failing on every re-examination, so batch
        // drivers fall back per point and serving layers degrade to a
        // conservative answer. One thread-local read when no scope is
        // active.
        if bcc_num::faults::site_fated(bcc_num::faults::FaultSite::KernelPoison) {
            return Err(CoreError::Injected {
                site: "kernel poison",
            });
        }
        match req.objective {
            Objective::SumRate if req.bound == Bound::Inner && req.floor.is_none() => {
                let caps = self.link_caps(net);
                if let Some(sol) = max_sum_rate_from_caps(&caps, req.protocol) {
                    return Ok(SolveOutcome::from_sum(sol));
                }
            }
            Objective::MaxMin if req.bound == Bound::Inner => {
                let caps = self.link_caps(net);
                let pt = match max_min_rate_from_caps(&caps, req.protocol) {
                    Some(pt) => pt,
                    None => self.lp_max_min_caps(req.protocol, &caps)?,
                };
                return Ok(SolveOutcome::from_mm(req.protocol, pt));
            }
            _ => {}
        }
        let pt = self.lp_family(net, req)?;
        Ok(SolveOutcome {
            objective: req.objective,
            ..SolveOutcome::from_mm(req.protocol, pt)
        })
    }

    /// Resolves one [`SolveRequest`] for **every point of a block**,
    /// appending outcomes to `out` in block order.
    ///
    /// [Batchable](SolveRequest::is_batchable) requests run through the
    /// SIMD-ready lane kernels of [`crate::batch`] (bit-identical to the
    /// scalar path); the HBC max–min over the inner bound reuses the
    /// block's capacity lanes and warm-starts the simplex per point.
    /// Floored and outer-bound requests have no block form: solve them
    /// per point with [`SolveCtx::solve_one`] (as
    /// [`crate::batch::solve_jobs`] does).
    ///
    /// # Errors
    ///
    /// Propagates LP failures from the HBC max–min; on error `out` may
    /// hold outcomes for a prefix of the block.
    ///
    /// # Panics
    ///
    /// Panics if the request is neither batchable nor an inner-bound
    /// max–min, or if [`crate::batch::PointBlock::compute_caps`] has not
    /// run since the block's last push.
    pub fn solve_block(
        &mut self,
        block: &crate::batch::PointBlock,
        req: SolveRequest,
        out: &mut Vec<SolveOutcome>,
    ) -> Result<(), CoreError> {
        out.reserve(block.len());
        if req.is_batchable() {
            match req.objective {
                Objective::SumRate => {
                    self.scratch_sum.clear();
                    crate::batch::max_sum_rate_block(block, req.protocol, &mut self.scratch_sum);
                    out.extend(self.scratch_sum.drain(..).map(SolveOutcome::from_sum));
                }
                Objective::MaxMin => {
                    self.scratch_pts.clear();
                    let covered = crate::batch::max_min_rate_block(
                        block,
                        req.protocol,
                        &mut self.scratch_pts,
                    );
                    debug_assert!(covered, "is_batchable excludes HBC max-min");
                    let protocol = req.protocol;
                    out.extend(
                        self.scratch_pts
                            .drain(..)
                            .map(|pt| SolveOutcome::from_mm(protocol, pt)),
                    );
                }
            }
            return Ok(());
        }
        assert!(
            req.objective == Objective::MaxMin && req.bound == Bound::Inner,
            "solve_block has no block form for floored or outer-bound requests"
        );
        // HBC max–min: share the block's capacity lanes, one warm-started
        // LP per point.
        for i in 0..block.len() {
            let pt = self.lp_max_min_caps(req.protocol, &block.caps(i))?;
            out.push(SolveOutcome::from_mm(req.protocol, pt));
        }
        Ok(())
    }

    /// Selects the best protocol at `net` by optimal objective value —
    /// the protocol-selection primitive behind the `bcc-serve` query
    /// engine.
    ///
    /// Every protocol in `protocols` is resolved through
    /// [`SolveCtx::solve_one`] and the winner is the one with the
    /// strictly greatest value; ties resolve to the **earliest** protocol
    /// in `protocols`, so the answer is deterministic. Protocols whose LP
    /// is infeasible under `floor` are skipped; `Ok(None)` means *every*
    /// protocol was infeasible (the floor is unachievable at this
    /// operating point by any strategy).
    ///
    /// # Errors
    ///
    /// Propagates non-infeasibility LP failures (not expected for valid
    /// inputs).
    pub fn solve_best(
        &mut self,
        net: &GaussianNetwork,
        protocols: &[Protocol],
        objective: Objective,
        bound: Bound,
        floor: Option<(f64, f64)>,
    ) -> Result<Option<SolveOutcome>, CoreError> {
        let mut best: Option<SolveOutcome> = None;
        for &protocol in protocols {
            let req = SolveRequest {
                objective,
                protocol,
                bound,
                floor,
            };
            let outcome = match self.solve_one(net, req) {
                Ok(o) => o,
                Err(e) if e.is_infeasible() => continue,
                Err(e) => return Err(e),
            };
            if best.as_ref().is_none_or(|b| outcome.value > b.value) {
                best = Some(outcome);
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer;
    use bcc_channel::{ChannelState, PowerSplit};

    use bcc_num::approx_eq;

    fn net(p: f64, gab: f64, gar: f64, gbr: f64) -> GaussianNetwork {
        GaussianNetwork::new(p, ChannelState::new(gab, gar, gbr))
    }

    fn fig4(p: f64) -> GaussianNetwork {
        net(p, 0.19952623149688797, 1.0, 3.1622776601683795)
    }

    #[test]
    fn dt_sum_rate_matches_simplex() {
        for p in [0.0, 0.5, 10.0, 31.6] {
            let n = fig4(p);
            let kernel = max_sum_rate(&n, Protocol::DirectTransmission).unwrap();
            let sets = n.constraint_sets(Protocol::DirectTransmission, Bound::Inner);
            let lp = optimizer::max_sum_rate(&sets[0]).unwrap();
            assert!(
                approx_eq(kernel.sum_rate, lp.objective, 1e-9),
                "P={p}: {} vs {}",
                kernel.sum_rate,
                lp.objective
            );
            assert!(sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9));
        }
    }

    #[test]
    fn mabc_sum_rate_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0] {
            for (gar, gbr) in [(1.0, 1.0), (0.2, 5.0), (10.0, 0.01), (3.0, 3.0)] {
                let n = net(p, 1.0, gar, gbr);
                let kernel = max_sum_rate(&n, Protocol::Mabc).unwrap();
                let sets = n.constraint_sets(Protocol::Mabc, Bound::Inner);
                let lp = optimizer::max_sum_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.sum_rate, lp.objective, 1e-9),
                    "P={p} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.sum_rate,
                    lp.objective
                );
                assert!(
                    sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9),
                    "kernel point infeasible at P={p} gar={gar} gbr={gbr}"
                );
                let total: f64 = kernel.durations.iter().sum();
                assert!(approx_eq(total, 1.0, 1e-12));
            }
        }
    }

    #[test]
    fn mabc_max_min_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0] {
            for (gar, gbr) in [(1.0, 1.0), (0.2, 5.0), (4.0, 0.5)] {
                let n = net(p, 0.5, gar, gbr);
                let kernel = max_min_rate(&n, Protocol::Mabc).unwrap();
                let sets = n.constraint_sets(Protocol::Mabc, Bound::Inner);
                let lp = optimizer::max_min_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.objective, lp.objective, 1e-9),
                    "P={p} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.objective,
                    lp.objective
                );
                assert!(sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9));
            }
        }
    }

    #[test]
    fn dt_max_min_closed_form() {
        let n = net(10.0, 1.0, 1.0, 1.0);
        let kernel = max_min_rate(&n, Protocol::DirectTransmission).unwrap();
        let sets = n.constraint_sets(Protocol::DirectTransmission, Bound::Inner);
        let lp = optimizer::max_min_rate(&sets[0]).unwrap();
        assert!(approx_eq(kernel.objective, lp.objective, 1e-9));
        // Symmetric caps: split is even, t = C/2.
        assert!(approx_eq(kernel.durations[0], 0.5, 1e-12));
    }

    #[test]
    fn kernel_coverage_matches_dispatch_rules() {
        let n = fig4(10.0);
        // Sum rate: every protocol has a closed form.
        assert!(max_sum_rate(&n, Protocol::Tdbc).is_some());
        assert!(max_sum_rate(&n, Protocol::Hbc).is_some());
        // Max–min: everything but HBC.
        assert!(max_min_rate(&n, Protocol::Tdbc).is_some());
        assert!(max_min_rate(&n, Protocol::Hbc).is_none());
    }

    #[test]
    fn hbc_sum_rate_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0, 31.6] {
            for (gab, gar, gbr) in [
                (0.2, 1.0, 3.16),
                (1.0, 1.0, 1.0),
                (1.0, 0.01, 10.0),
                (0.0, 2.0, 2.0),
                (5.0, 0.5, 0.5),
                (1.0, 0.0, 1.0),
                (0.5, 10.0, 0.1),
            ] {
                let n = net(p, gab, gar, gbr);
                let kernel = max_sum_rate(&n, Protocol::Hbc).unwrap();
                let sets = n.constraint_sets(Protocol::Hbc, Bound::Inner);
                let lp = optimizer::max_sum_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.sum_rate, lp.objective, 1e-9),
                    "P={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.sum_rate,
                    lp.objective
                );
                assert!(
                    sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9),
                    "kernel point infeasible at P={p} gab={gab} gar={gar} gbr={gbr}"
                );
                assert!(approx_eq(kernel.ra + kernel.rb, kernel.sum_rate, 1e-9));
                let total: f64 = kernel.durations.iter().sum();
                assert!(approx_eq(total, 1.0, 1e-8));
            }
        }
    }

    #[test]
    fn tdbc_max_min_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0, 31.6] {
            for (gab, gar, gbr) in [
                (0.2, 1.0, 3.16),
                (1.0, 1.0, 1.0),
                (1.0, 0.01, 10.0),
                (0.0, 2.0, 2.0),
                (5.0, 0.5, 0.5),
                (1.0, 0.0, 1.0),
            ] {
                let n = net(p, gab, gar, gbr);
                let kernel = max_min_rate(&n, Protocol::Tdbc).unwrap();
                let sets = n.constraint_sets(Protocol::Tdbc, Bound::Inner);
                let lp = optimizer::max_min_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.objective, lp.objective, 1e-9),
                    "P={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.objective,
                    lp.objective
                );
                assert!(
                    sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9),
                    "kernel point infeasible at P={p} gab={gab} gar={gar} gbr={gbr}"
                );
            }
        }
    }

    #[test]
    fn tdbc_sum_rate_matches_simplex_on_grid() {
        for p in [0.5, 2.0, 10.0, 31.6] {
            for (gab, gar, gbr) in [
                (0.2, 1.0, 3.16),
                (1.0, 1.0, 1.0),
                (1.0, 0.01, 10.0),
                (0.0, 2.0, 2.0),
                (5.0, 0.5, 0.5),
                (1.0, 0.0, 1.0),
            ] {
                let n = net(p, gab, gar, gbr);
                let kernel = max_sum_rate(&n, Protocol::Tdbc).unwrap();
                let sets = n.constraint_sets(Protocol::Tdbc, Bound::Inner);
                let lp = optimizer::max_sum_rate(&sets[0]).unwrap();
                assert!(
                    approx_eq(kernel.sum_rate, lp.objective, 1e-9),
                    "P={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                    kernel.sum_rate,
                    lp.objective
                );
                assert!(
                    sets[0].all_satisfied(kernel.ra, kernel.rb, &kernel.durations, 1e-9),
                    "kernel point infeasible at P={p} gab={gab} gar={gar} gbr={gbr}"
                );
                let total: f64 = kernel.durations.iter().sum();
                assert!(approx_eq(total, 1.0, 1e-8));
            }
        }
    }

    #[test]
    fn zero_power_edge_cases() {
        let dead = GaussianNetwork::with_powers(
            PowerSplit::new(0.0, 0.0, 0.0),
            ChannelState::new(1.0, 1.0, 1.0),
        );
        for proto in [Protocol::DirectTransmission, Protocol::Mabc] {
            let s = max_sum_rate(&dead, proto).unwrap();
            assert!(approx_eq(s.sum_rate, 0.0, 1e-12), "{proto}");
            let t = max_min_rate(&dead, proto).unwrap();
            assert!(approx_eq(t.objective, 0.0, 1e-12), "{proto}");
        }
        // Silent relay starves MABC broadcast but not DT.
        let silent_relay = GaussianNetwork::with_powers(
            PowerSplit::new(10.0, 10.0, 0.0),
            ChannelState::new(1.0, 1.0, 1.0),
        );
        let s = max_sum_rate(&silent_relay, Protocol::Mabc).unwrap();
        assert!(approx_eq(s.sum_rate, 0.0, 1e-9), "no broadcast, no rate");
    }

    #[test]
    fn ctx_sum_rate_agrees_with_network_queries() {
        let mut ctx = SolveCtx::new();
        for p in [1.0, 10.0] {
            let n = fig4(p);
            for proto in Protocol::ALL {
                let a = ctx
                    .solve_one(&n, SolveRequest::sum_rate(proto))
                    .unwrap()
                    .sum_rate_solution();
                let b = n.max_sum_rate(proto).unwrap();
                assert_eq!(a, b, "{proto} at P={p}");
            }
        }
    }

    #[test]
    fn best_sum_rate_picks_the_argmax_protocol() {
        let mut ctx = SolveCtx::new();
        for p in [0.5, 10.0, 31.6] {
            let n = fig4(p);
            let best = ctx
                .solve_best(&n, &Protocol::ALL, Objective::SumRate, Bound::Inner, None)
                .unwrap()
                .expect("no floor, always feasible")
                .sum_rate_solution();
            for proto in Protocol::ALL {
                let sol = ctx
                    .solve_one(&n, SolveRequest::sum_rate(proto))
                    .unwrap()
                    .sum_rate_solution();
                assert!(
                    best.sum_rate >= sol.sum_rate,
                    "P={p}: winner {} lost to {proto}",
                    best.protocol
                );
                if proto == best.protocol {
                    assert_eq!(best, sol, "winner must carry its own solution");
                }
            }
        }
    }

    #[test]
    fn best_sum_rate_ties_resolve_to_earliest_protocol() {
        // A dead network scores 0 for every protocol: the first listed wins.
        let dead = GaussianNetwork::with_powers(
            PowerSplit::new(0.0, 0.0, 0.0),
            ChannelState::new(1.0, 1.0, 1.0),
        );
        let mut ctx = SolveCtx::new();
        let best = ctx
            .solve_best(
                &dead,
                &Protocol::ALL,
                Objective::SumRate,
                Bound::Inner,
                None,
            )
            .unwrap()
            .unwrap();
        assert_eq!(best.protocol, Protocol::DirectTransmission);
        let best = ctx
            .solve_best(
                &dead,
                &Protocol::RELAYED,
                Objective::SumRate,
                Bound::Inner,
                None,
            )
            .unwrap()
            .unwrap();
        assert_eq!(best.protocol, Protocol::Mabc);
    }

    #[test]
    fn best_sum_rate_skips_infeasible_and_reports_total_infeasibility() {
        let n = fig4(10.0);
        let mut ctx = SolveCtx::new();
        // A floor no protocol can reach at P = 10 dB.
        let none = ctx
            .solve_best(
                &n,
                &Protocol::ALL,
                Objective::SumRate,
                Bound::Inner,
                Some((50.0, 50.0)),
            )
            .unwrap();
        assert!(none.is_none(), "absurd floor must be infeasible everywhere");
        // A floor only the relay-aided protocols can reach: DT is skipped,
        // the winner still appears.
        let dt_cap = ctx
            .solve_one(&n, SolveRequest::sum_rate(Protocol::DirectTransmission))
            .unwrap()
            .value;
        let floor = (dt_cap * 0.75, dt_cap * 0.75);
        let best = ctx
            .solve_best(
                &n,
                &Protocol::ALL,
                Objective::SumRate,
                Bound::Inner,
                Some(floor),
            )
            .unwrap()
            .expect("relay-aided protocols satisfy the floor");
        assert_ne!(best.protocol, Protocol::DirectTransmission);
        assert!(best.ra >= floor.0 - 1e-9 && best.rb >= floor.1 - 1e-9);
    }

    #[test]
    fn ctx_family_maximum_matches_per_member_solves() {
        let mut ctx = SolveCtx::new();
        let n = fig4(10.0);
        let fam = ctx
            .solve_one(
                &n,
                SolveRequest::sum_rate(Protocol::Hbc).with_bound(Bound::Outer),
            )
            .unwrap()
            .sum_rate_solution();
        let direct: f64 = n
            .constraint_sets(Protocol::Hbc, Bound::Outer)
            .iter()
            .map(|s| optimizer::max_sum_rate(s).unwrap().objective)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(approx_eq(fam.sum_rate, direct, 1e-9));
    }
}
