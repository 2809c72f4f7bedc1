//! The one blocked-solve driver, [`solve_jobs`]: every evaluator fan-out
//! (sweeps, fading and deep-outage samplers, multi-pair, city, serve
//! misses) runs its block loop here.

use super::PointBlock;
use crate::error::CoreError;
use crate::gaussian::GaussianNetwork;
use crate::kernel::{SolveCtx, SolveOutcome, SolveRequest};
use bcc_num::faults::{self, FaultPlan, FaultScope, FaultSite};
use bcc_num::par;
use std::ops::Range;

/// Items `j·size .. min((j+1)·size, n)`: job `j` of a fan-out that cuts
/// `0..n` into uniform blocks.
pub fn block_range(j: usize, size: usize, n: usize) -> Range<usize> {
    let lo = j * size;
    lo..(lo + size).min(n)
}

/// Solves `requests` at every item of every job on `threads` workers and
/// folds each outcome into its job's accumulator.
///
/// `job(j)` returns job `j`'s contiguous item range and a fresh
/// accumulator; `stage(acc, item)` builds the item's network;
/// `fold(acc, item, request_index, outcome)` consumes one outcome. A
/// worker solves a whole job, in blocks of at most `block` items, on one
/// reused [`SolveCtx`] and [`PointBlock`].
///
/// # Contract
///
/// * **Bits.** Every outcome equals [`SolveCtx::solve_one`] on the staged
///   network inside the item's fault scope, so results do not depend on
///   the block size or the thread count.
/// * **Fault scope.** With a non-empty `plan`, item `i` is solved under
///   `FaultScope::enter(plan, scope_token(plan.seed(), i))`, a fresh
///   scope per request. A block holding a kernel-poisoned item solves
///   every item on the scalar path, so the poison stays with its own
///   item; requests that reach the simplex always run per item in scope.
///   The empty plan changes nothing.
/// * **Delivery.** `fold` sees a job's items in ascending order and each
///   item's requests in list order.
/// * **Serial reduction.** Accumulators come back in job order, and a
///   failed run reports the lowest failing job's error, as a serial loop
///   would; reducing them serially is scheduling-independent.
///
/// # Errors
///
/// The first error, in job order, that `stage`, `fold` or a lane block
/// solve returned; it stops its job.
///
/// # Panics
///
/// Panics if `block == 0`. A panic inside a job is resumed on the caller
/// after every worker stops.
#[allow(clippy::too_many_arguments)]
pub fn solve_jobs<A, J, S, F>(
    threads: usize,
    block: usize,
    requests: &[SolveRequest],
    plan: &FaultPlan,
    jobs: usize,
    job: J,
    stage: S,
    fold: F,
) -> Result<Vec<A>, CoreError>
where
    A: Send,
    J: Fn(usize) -> (Range<usize>, A) + Sync,
    S: Fn(&mut A, usize) -> Result<GaussianNetwork, CoreError> + Sync,
    F: Fn(&mut A, usize, usize, Result<&SolveOutcome, CoreError>) -> Result<(), CoreError> + Sync,
{
    assert!(block >= 1, "need at least one point per block");
    let lanes: Vec<bool> = requests.iter().map(SolveRequest::is_batchable).collect();
    let scope = |i: usize| FaultScope::enter(plan, faults::scope_token(plan.seed(), i as u64));
    // Per-worker scratch, reused across every job the worker drains: the
    // staged networks of the block's scalar-path items, and the lane
    // outcomes per request.
    let worker = || {
        let outs = vec![Vec::new(); requests.len()];
        (SolveCtx::new(), PointBlock::new(), Vec::new(), outs)
    };
    par::try_par_map_range(threads, jobs, worker, |(ctx, pts, nets, outs), j| {
        let (items, mut acc) = job(j);
        for lo in items.clone().step_by(block) {
            let items = lo..(lo + block).min(items.end);
            // Item `i`'s fate is a pure function of `(plan, i)`, never of
            // the block it shares.
            let poisoned = !plan.is_empty()
                && items.clone().any(|i| {
                    let _scope = scope(i);
                    faults::site_fated(FaultSite::KernelPoison)
                });
            let lane = |r: usize| !poisoned && lanes[r];
            let any_lane = (0..requests.len()).any(lane);
            let any_scalar = !(0..requests.len()).all(lane);
            pts.clear();
            nets.clear();
            for i in items.clone() {
                let net = stage(&mut acc, i)?;
                if any_lane {
                    pts.push_net(&net);
                }
                if any_scalar {
                    nets.push(net);
                }
            }
            if any_lane {
                pts.compute_caps();
                for (r, &req) in requests.iter().enumerate() {
                    outs[r].clear();
                    if lane(r) {
                        ctx.solve_block(pts, req, &mut outs[r])?;
                    }
                }
            }
            for (n, i) in items.enumerate() {
                for (r, &req) in requests.iter().enumerate() {
                    if lane(r) {
                        fold(&mut acc, i, r, Ok(&outs[r][n]))?;
                    } else {
                        // The fold runs in the scope too, so it sees the
                        // same `faults::active()` as the solve.
                        let _scope = scope(i);
                        match ctx.solve_one(&nets[n], req) {
                            Ok(outcome) => fold(&mut acc, i, r, Ok(&outcome))?,
                            Err(e) => fold(&mut acc, i, r, Err(e))?,
                        }
                    }
                }
            }
        }
        Ok(acc)
    })
}
