//! The blocked-solve driver against per-point scalar solves.
//!
//! [`batch::solve_jobs`] promises that every outcome it delivers equals
//! [`SolveCtx::solve_one`] on that item inside the item's fault scope, at
//! any block size and thread count; that a job's outcomes arrive in item
//! order and, per item, in request order; and that accumulators come
//! back in job order. This suite pins all of it bitwise over random
//! networks and a request list that mixes the driver's two paths: lane
//! kernels (a TDBC sum rate and an HBC max-min) and a floored sum rate
//! (per-point simplex, sometimes infeasible). Each list runs with an
//! empty plan, a kernel-poison plan (poisoned blocks send the lane
//! requests down the scalar path too) and a plan that also forces
//! simplex iteration limits.

use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::batch;
use bcc_core::prelude::*;
use bcc_num::faults::{self, FaultPlan, FaultScope, FaultSite};
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 3];
const BLOCKS: [usize; 3] = [1, 7, 1024];

fn requests(floor: f64) -> [SolveRequest; 3] {
    [
        SolveRequest::sum_rate(Protocol::Tdbc),
        SolveRequest::max_min(Protocol::Hbc),
        SolveRequest::sum_rate(Protocol::Hbc).with_floor(Some((floor, floor))),
    ]
}

fn plans() -> [FaultPlan; 3] {
    let poison = FaultPlan::new(0xD21E).with(FaultSite::KernelPoison, 0.15, 1);
    [
        FaultPlan::none(),
        poison,
        poison.with(FaultSite::LpIterationLimit, 0.3, 1),
    ]
}

/// Every observable field of one outcome, rates as exact bits.
fn bits(outcome: Result<&SolveOutcome, &CoreError>) -> String {
    match outcome {
        Ok(o) => format!(
            "{:?}|{:?}|{:016x}|{:016x}|{:016x}|{:?}",
            o.protocol,
            o.objective,
            o.ra.to_bits(),
            o.rb.to_bits(),
            o.value.to_bits(),
            o.durations.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        ),
        Err(e) => format!("err|{e}"),
    }
}

/// The reference: `solve_one` per item and request, each inside the
/// item's fault scope.
fn scalar(nets: &[GaussianNetwork], reqs: &[SolveRequest], plan: &FaultPlan) -> Vec<String> {
    let mut ctx = SolveCtx::new();
    let mut out = Vec::new();
    for (i, net) in nets.iter().enumerate() {
        for &req in reqs {
            let _scope = FaultScope::enter(plan, faults::scope_token(plan.seed(), i as u64));
            out.push(bits(ctx.solve_one(net, req).as_ref()));
        }
    }
    out
}

/// The driver over `job_len`-item jobs, checking the delivery order on
/// the way.
fn driven(
    nets: &[GaussianNetwork],
    reqs: &[SolveRequest],
    plan: &FaultPlan,
    threads: usize,
    block: usize,
    job_len: usize,
) -> Vec<String> {
    let n = nets.len();
    let jobs = batch::solve_jobs(
        threads,
        block,
        reqs,
        plan,
        n.div_ceil(job_len),
        |j| (batch::block_range(j, job_len, n), Vec::new()),
        |_, i| Ok(nets[i]),
        |got: &mut Vec<(usize, usize, String)>, i, r, outcome| {
            got.push((i, r, bits(outcome.as_ref().map(|o| *o))));
            Ok(())
        },
    )
    .expect("no stage or fold fails");
    let flat: Vec<(usize, usize, String)> = jobs.into_iter().flatten().collect();
    assert_eq!(flat.len(), n * reqs.len());
    for (k, (i, r, _)) in flat.iter().enumerate() {
        assert_eq!((*i, *r), (k / reqs.len(), k % reqs.len()), "delivery order");
    }
    flat.into_iter().map(|(_, _, b)| b).collect()
}

fn check(nets: &[GaussianNetwork], floor: f64, job_len: usize) {
    let reqs = requests(floor);
    for plan in plans() {
        let want = scalar(nets, &reqs, &plan);
        for threads in THREADS {
            for block in BLOCKS {
                let got = driven(nets, &reqs, &plan, threads, block, job_len);
                assert_eq!(got, want, "threads {threads} block {block} plan {plan:?}");
            }
        }
    }
}

fn grid() -> Vec<GaussianNetwork> {
    (0..150)
        .map(|i| {
            let x = i as f64;
            GaussianNetwork::with_powers(
                PowerSplit::new(1.0 + (x * 0.37) % 20.0, 2.0 + (x * 0.53) % 15.0, 10.0),
                ChannelState::new(
                    (x * 0.11) % 1.5,
                    0.2 + (x * 0.29) % 3.0,
                    0.1 + (x * 0.17) % 4.0,
                ),
            )
        })
        .collect()
}

#[test]
fn fixed_grid_reaches_every_path_and_matches_scalar_solves() {
    let nets = grid();
    let reqs = requests(0.9);
    // The grid is only a useful pin if it exercises healthy outcomes,
    // infeasible floors, poisoned items and injected simplex failures.
    let clean = scalar(&nets, &reqs, &plans()[0]);
    let chaos = scalar(&nets, &reqs, &plans()[1]);
    let lp_chaos = scalar(&nets, &reqs, &plans()[2]);
    assert!(lp_chaos.iter().any(|b| b.contains("iteration limit")));
    assert!(clean
        .iter()
        .any(|b| b.starts_with("err|") && b.contains("infeasible")));
    assert!(clean.iter().any(|b| b.starts_with("Hbc|MaxMin")));
    assert!(chaos.iter().any(|b| b.contains("injected fault")));
    assert!(
        chaos
            .iter()
            .filter(|b| b.contains("injected fault"))
            .count()
            < nets.len()
    );
    for job_len in [1, 13, 150] {
        check(&nets, 0.9, job_len);
    }
}

#[test]
fn failures_surface_from_the_lowest_failing_job() {
    let nets = grid();
    let reqs = [SolveRequest::sum_rate(Protocol::Mabc)];
    for threads in THREADS {
        for block in BLOCKS {
            let err = batch::solve_jobs(
                threads,
                block,
                &reqs,
                &FaultPlan::none(),
                nets.len().div_ceil(10),
                |j| (batch::block_range(j, 10, nets.len()), ()),
                |_, i| {
                    if i == 120 {
                        return Err(CoreError::InvalidInput {
                            context: "stage 120".into(),
                        });
                    }
                    Ok(nets[i])
                },
                |_, i, _, _| {
                    if i == 47 || i == 48 {
                        return Err(CoreError::InvalidInput {
                            context: format!("fold {i}"),
                        });
                    }
                    Ok(())
                },
            )
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid input: fold 47",
                "threads {threads} block {block}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn driver_matches_scalar_solves_in_fault_scope(
        raw in prop::collection::vec(
            (0.0f64..30.0, 0.0f64..30.0, 0.0f64..2.0, 0.0f64..4.0, 0.0f64..4.0),
            1..80,
        ),
        floor in 0.05f64..1.5,
        job_len in 1usize..60,
    ) {
        let nets: Vec<GaussianNetwork> = raw
            .iter()
            .map(|&(p, pr, gab, gar, gbr)| {
                GaussianNetwork::with_powers(
                    PowerSplit::new(p, p, pr),
                    ChannelState::new(gab, gar, gbr),
                )
            })
            .collect();
        check(&nets, floor, job_len);
    }
}
