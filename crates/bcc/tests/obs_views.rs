//! The counter views the benchmark harness reads (`bcc_lp::stats`,
//! `bcc_serve::stats`, the kernel and batch counters) own no storage:
//! each projects one slot of the `bcc_num::obs` registry.

use bcc::prelude::*;
use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::batch::stats::{batched_points_local, lanes_filled_local};
use bcc_num::obs::{self, Counter::*};
use bcc_serve::{Query, ServeConfig, Server};

/// Every view, paired with the registry slot it must project.
fn views() -> [(obs::Counter, u64); 17] {
    let lp = bcc_lp::stats::local_snapshot();
    let serve = bcc_serve::stats::local_snapshot();
    [
        (LpSolves, lp.solves),
        (LpPivots, lp.pivots),
        (LpWarmAttempts, lp.warm_attempts),
        (LpWarmHits, lp.warm_hits),
        (KernelHits, bcc_core::kernel::kernel_hits_local()),
        (BatchedPoints, batched_points_local()),
        (LanesFilled, lanes_filled_local()),
        (ServeQueries, serve.queries),
        (ServeCacheHits, serve.cache_hits),
        (ServeCacheMisses, serve.cache_misses),
        (ServeEvictions, serve.evictions),
        (ServeRejects, serve.rejects),
        (ServeKernelSolves, serve.kernel_solves),
        (ServeSimplexSolves, serve.simplex_solves),
        (ServeDegraded, serve.degraded),
        (ServeShed, serve.shed),
        (ServeValidatedRejects, serve.validated_rejects),
    ]
}

#[test]
fn every_view_reads_its_registry_counter() {
    let before = views();
    let ((), delta) = obs::scoped(|| {
        let sweep = Scenario::symmetric_gain_sweep_db(15.0, 0.0, (0..=20).map(f64::from));
        sweep.threads(1).build().sweep().unwrap();
        let mut server = Server::new(&ServeConfig::default().threads(1));
        for i in 0..8 {
            let state = ChannelState::new(0.2 + 0.1 * f64::from(i), 1.0, 3.16);
            let q = Query::new(state, PowerSplit::symmetric(10.0));
            server
                .submit(if i % 2 == 0 {
                    q.with_floor(0.05, 0.05)
                } else {
                    q
                })
                .unwrap();
        }
        server.drain();
    });
    for counter in [
        KernelHits,
        BatchedPoints,
        LpSolves,
        ServeQueries,
        ServeSimplexSolves,
    ] {
        assert!(delta[counter] > 0, "the workload never moved {counter:?}");
    }
    for ((counter, was), (_, now)) in before.into_iter().zip(views()) {
        assert_eq!(now - was, delta[counter], "{counter:?} delta");
    }
    // Distinct values in every slot, so a view that reads the wrong
    // slot cannot match by coincidence.
    for (i, (counter, _)) in views().into_iter().enumerate() {
        obs::add(counter, (i as u64 + 1) << 40);
    }
    let registry = obs::local();
    for (counter, view) in views() {
        assert_eq!(view, registry[counter], "{counter:?}");
    }
}
