//! Property tests pinning the closed-form solve kernel against the
//! simplex oracle.
//!
//! The kernel (`bcc_core::kernel`) answers the hot-loop queries —
//! `max_sum_rate` and `max_min_rate` for all four protocols —
//! analytically, while `bcc_core::optimizer` keeps solving the same
//! programs through the general cold two-phase simplex. Over random
//! channel states and per-node power splits the two must agree (a
//! protocol the kernel does not cover fails the check):
//!
//! * objectives within 1e-9;
//! * the kernel's operating point is feasible and its durations form a
//!   probability vector;
//! * the kernel's point *binds* at least one constraint whenever its
//!   optimum is positive (an LP optimum always sits on the boundary);
//! * when both solvers land on the same vertex (unique optimum), their
//!   binding-constraint sets agree exactly.

use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::bounds;
use bcc_core::kernel;
use bcc_core::optimizer::{self, SchedulePoint};
use bcc_core::prelude::*;
use proptest::prelude::*;

/// Binding labels of `point` in `set` at tolerance `tol`.
fn binding<'a>(set: &'a ConstraintSet, pt: &SchedulePoint, tol: f64) -> Vec<&'a str> {
    optimizer::binding_constraints(set, pt, tol)
}

fn as_point(sol: &bcc_core::gaussian::SumRateSolution) -> SchedulePoint {
    SchedulePoint {
        ra: sol.ra,
        rb: sol.rb,
        durations: sol.durations,
        objective: sol.sum_rate,
    }
}

/// Shared oracle check for one `(protocol, network)` sum-rate query.
fn check_sum_rate(net: &GaussianNetwork, protocol: Protocol) {
    let kernel_sol = kernel::max_sum_rate(net, protocol)
        .unwrap_or_else(|| panic!("{protocol}: sum rate not covered by the kernel"));
    let sets = bounds::constraint_sets_split(protocol, Bound::Inner, &net.powers(), &net.state());
    let set = &sets[0];
    let lp = optimizer::max_sum_rate(set).expect("oracle solvable");

    // Objective agreement.
    prop_assert!(
        (kernel_sol.sum_rate - lp.objective).abs() <= 1e-9 * (1.0 + lp.objective.abs()),
        "{protocol}: kernel {} vs simplex {}",
        kernel_sol.sum_rate,
        lp.objective
    );
    // Feasibility of the kernel's operating point.
    prop_assert!(
        set.all_satisfied(kernel_sol.ra, kernel_sol.rb, &kernel_sol.durations, 1e-8),
        "{protocol}: kernel point infeasible"
    );
    let total: f64 = kernel_sol.durations.iter().sum();
    prop_assert!((total - 1.0).abs() <= 1e-8, "durations sum {total}");
    prop_assert!(kernel_sol.durations.iter().all(|&d| d >= -1e-12));

    // A positive optimum must sit on the boundary: something binds.
    let kpt = as_point(&kernel_sol);
    if kernel_sol.sum_rate > 1e-6 {
        prop_assert!(
            !binding(set, &kpt, 1e-7).is_empty(),
            "{protocol}: positive optimum with no binding constraint"
        );
    }
    // Unique-vertex case: binding sets must agree exactly.
    let same_vertex = (kernel_sol.ra - lp.ra).abs() < 1e-7
        && (kernel_sol.rb - lp.rb).abs() < 1e-7
        && kernel_sol
            .durations
            .iter()
            .zip(lp.durations.iter())
            .all(|(a, b)| (a - b).abs() < 1e-7);
    if same_vertex {
        prop_assert_eq!(
            binding(set, &kpt, 1e-7),
            binding(set, &lp, 1e-7),
            "{} binding sets diverge at a shared vertex",
            protocol
        );
    }
}

/// Shared oracle check for one `(protocol, network)` max–min query.
fn check_max_min(net: &GaussianNetwork, protocol: Protocol) {
    let kpt = kernel::max_min_rate(net, protocol)
        .unwrap_or_else(|| panic!("{protocol}: max-min not covered by the kernel"));
    let sets = bounds::constraint_sets_split(protocol, Bound::Inner, &net.powers(), &net.state());
    let set = &sets[0];
    let lp = optimizer::max_min_rate(set).expect("oracle solvable");
    prop_assert!(
        (kpt.objective - lp.objective).abs() <= 1e-9 * (1.0 + lp.objective.abs()),
        "{protocol}: kernel max-min {} vs simplex {}",
        kpt.objective,
        lp.objective
    );
    prop_assert!(
        set.all_satisfied(kpt.ra, kpt.rb, &kpt.durations, 1e-8),
        "{protocol}: kernel max-min point infeasible"
    );
    let total: f64 = kpt.durations.iter().sum();
    prop_assert!((total - 1.0).abs() <= 1e-8);
    // The symmetric point must itself be achievable.
    prop_assert!(optimizer::is_achievable(
        set,
        (kpt.objective - 1e-9).max(0.0),
        (kpt.objective - 1e-9).max(0.0)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn kernel_sum_rate_matches_simplex_oracle(
        p_a in 0.0f64..40.0,
        p_b in 0.0f64..40.0,
        p_r in 0.0f64..40.0,
        gab in 0.0f64..10.0,
        gar in 0.0f64..10.0,
        gbr in 0.0f64..10.0,
    ) {
        let net = GaussianNetwork::with_powers(
            PowerSplit::new(p_a, p_b, p_r),
            ChannelState::new(gab, gar, gbr),
        );
        for proto in Protocol::ALL {
            check_sum_rate(&net, proto);
        }
    }

    #[test]
    fn kernel_max_min_matches_simplex_oracle(
        p_a in 0.0f64..40.0,
        p_b in 0.0f64..40.0,
        p_r in 0.0f64..40.0,
        gab in 0.0f64..10.0,
        gar in 0.0f64..10.0,
        gbr in 0.0f64..10.0,
    ) {
        let net = GaussianNetwork::with_powers(
            PowerSplit::new(p_a, p_b, p_r),
            ChannelState::new(gab, gar, gbr),
        );
        for proto in Protocol::ALL {
            check_max_min(&net, proto);
        }
    }

    #[test]
    fn kernel_symmetric_networks(
        p in 0.0f64..60.0,
        g in 0.0f64..20.0,
        gab in 0.0f64..5.0,
    ) {
        // The fig3 shape: symmetric relay gains, where degenerate optima
        // (whole optimal faces) are the norm rather than the exception.
        let net = GaussianNetwork::new(p, ChannelState::new(gab, g, g));
        for proto in Protocol::ALL {
            check_sum_rate(&net, proto);
            check_max_min(&net, proto);
        }
    }
}

#[test]
fn kernel_handles_extreme_scales() {
    // Deterministic edge sweep outside proptest: huge/tiny capacities and
    // dead links must not break candidate enumeration.
    let cases = [
        (1e6, 1e-6, 1e6, 1e-6),
        (1e-9, 1e-9, 1e-9, 1e-9),
        (0.0, 1.0, 1.0, 0.0),
        (1e4, 1e4, 1e4, 1e4),
    ];
    for (p, gab, gar, gbr) in cases {
        let net = GaussianNetwork::new(p, ChannelState::new(gab, gar, gbr));
        for proto in Protocol::ALL {
            let k = kernel::max_sum_rate(&net, proto).expect("covered");
            let sets = net.constraint_sets(proto, Bound::Inner);
            let lp = optimizer::max_sum_rate(&sets[0]).expect("solvable");
            assert!(
                (k.sum_rate - lp.objective).abs() <= 1e-9 * (1.0 + lp.objective.abs()),
                "{proto} at p={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                k.sum_rate,
                lp.objective
            );
            let k = kernel::max_min_rate(&net, proto).expect("covered");
            let lp = optimizer::max_min_rate(&sets[0]).expect("solvable");
            assert!(
                (k.objective - lp.objective).abs() <= 1e-9 * (1.0 + lp.objective.abs()),
                "{proto} max-min at p={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                k.objective,
                lp.objective
            );
            assert!(
                sets[0].all_satisfied(k.ra, k.rb, &k.durations, 1e-8),
                "{proto} max-min point infeasible at p={p} gab={gab} gar={gar} gbr={gbr}"
            );
        }
    }
}

/// `set` with every phase coefficient divided by its largest magnitude,
/// and that magnitude (the set's largest capacity).
fn unit_scaled(set: &ConstraintSet) -> (ConstraintSet, f64) {
    let scale = set
        .constraints()
        .iter()
        .flat_map(|c| c.phase_coefs.iter())
        .fold(0.0f64, |m, v| m.max(v.abs()));
    let mut unit = ConstraintSet::new(set.num_phases(), "unit-scale oracle");
    for c in set.constraints() {
        let mut c = c.clone();
        for v in c.phase_coefs.iter_mut() {
            *v /= scale;
        }
        unit.push(c);
    }
    (unit, scale)
}

#[test]
fn hbc_max_min_is_exact_at_deep_fades_and_near_ties() {
    // The first three are gain triples at P = 10 where `bcc-lp`'s
    // absolute tolerances return simplex optima that break a row (by
    // 2.85e-7 on the first) or miss an improvement. The last three are
    // near-tie geometries whose winning ray carries a component just
    // below zero, which the screen admits and the clamp removes. At each,
    // the kernel point must be an exact schedule, satisfy its set to
    // 1e-12 of the largest capacity, and be no worse than the simplex on
    // the unit-scaled set.
    for (p, gab, gar, gbr) in [
        (10.0, 4.29e-4, 1.75e-4, 1.75e-4),
        (10.0, 6.76e-4, 1.342e-4, 1.341e-4),
        (10.0, 1.13e-4, 43.5, 1.13e-4),
        (
            2.4669442662288735e-1,
            2.904732322008658e-5,
            2.9037874354427412e-5,
            2.4721231924564716e1,
        ),
        (
            1.5757765054186482e-1,
            2.0182379588955104e1,
            2.0205012554232624e1,
            1.370860955547033e-5,
        ),
        (
            4.244234756386846e-1,
            5.411729937534587e0,
            1.3386523516292075e-5,
            5.412690013483102e0,
        ),
    ] {
        let net = GaussianNetwork::new(p, ChannelState::new(gab, gar, gbr));
        let k = kernel::max_min_rate(&net, Protocol::Hbc).expect("covered");
        let sets = net.constraint_sets(Protocol::Hbc, Bound::Inner);
        let (unit, scale) = unit_scaled(&sets[0]);
        let total: f64 = k.durations.iter().sum();
        assert!(
            (total - 1.0).abs() <= 1e-12 && k.durations.iter().all(|&d| d >= 0.0),
            "P={p} gains ({gab}, {gar}, {gbr}): durations {:?} are no schedule",
            k.durations
        );
        assert!(
            sets[0].all_satisfied(k.ra, k.rb, &k.durations, 1e-12 * scale),
            "P={p} gains ({gab}, {gar}, {gbr}): kernel point {k:?} infeasible"
        );
        let lp = SolveCtx::new().lp_max_min(&unit).expect("solvable");
        assert!(
            k.objective / scale >= lp.objective - 1e-9,
            "P={p} gains ({gab}, {gar}, {gbr}): kernel {} below unit-scale simplex {}",
            k.objective / scale,
            lp.objective
        );
    }
}
