//! Mutation tests: re-introduce deliberate bugs behind test-only hooks
//! and prove the oracles catch them inside the CI seed budget. An
//! oracle set that cannot re-find a real or representative bug is
//! decoration.
//!
//! Two mutants are proved here, each through the one sweep: the
//! historical saturated-tail ring-wrap bug (`Mutant::RingWrap`, behind
//! `SendRing::inject_legacy_wrap_bug`) against the transfer sweep, and
//! the accept-data-after-FIN bug (`Mutant::AcceptAfterFin`, behind
//! `Connection::inject_accept_after_fin_bug`) against the lifecycle
//! teardown sweep.

use sim::lifecycle::stale_data_after_fin;
use sim::{caught, sweep, Mutant, Scenario, ScenarioKind, Spec, SweepOpts, TeardownSpec, PINNED_WORLDS};

#[test]
fn sweep_catches_the_legacy_ring_wrap_bug() {
    // Same base seed block CI sweeps, mutant armed.
    let opts =
        SweepOpts { base_seed: 0x11F9_5000, seeds: 200, mutant: Mutant::RingWrap, ..Default::default() };
    let rep = sweep::<Scenario>(&opts);
    let f = rep.failure.expect("the sweep must catch the injected ring bug within 200 seeds");
    assert!(
        f.message.contains("ring") || f.message.contains("extent"),
        "failure should implicate the ring: {}",
        f.message
    );

    // The shrunk reproducer still fails — deterministically, with the
    // mutation on — and the rendered test case pins the seed.
    // Killed at the block's first seed (a ring-fuzz world), shrunk to one
    // quiet 128-byte ring.
    assert_eq!(rep.seeds_run, 1, "{}", f.message);
    let shrunk = f.shrunk.expect("a seeded scenario failed");
    assert_eq!((shrunk.kind, shrunk.ring_capacity), (ScenarioKind::Ring, 128), "{shrunk:?}");
    assert_eq!((shrunk.n_conns, shrunk.file_len, shrunk.probs), (1, 128, Default::default()), "{shrunk:?}");
    let replay = caught(|| shrunk.run(Mutant::RingWrap)).expect_err("shrunk scenario must still fail");
    let again = caught(|| shrunk.run(Mutant::RingWrap)).expect_err("and fail identically on replay");
    assert_eq!(replay, again, "reproducer is not deterministic");
    assert!(f.test_case.contains("#[test]"));
    assert!(f.test_case.contains(&format!("seed: {:#x}", shrunk.seed)), "{}", f.test_case);

    // Without the mutation the same scenario is clean: the failure is
    // the bug's, not the scenario's.
    caught(|| shrunk.run(Mutant::None)).expect("clean code passes the reproducer");
}

#[test]
fn teardown_sweep_catches_the_accept_after_fin_bug() {
    // Same base seed block CI sweeps, mutation switched on: the
    // receiver silently accepts a data segment that lands after the
    // FIN it already processed. The post-FIN freeze oracle (rcv_nxt
    // pinned at fin + 1) must fail the sweep.
    let mut opts = SweepOpts {
        base_seed: 0x7EAF_0000,
        seeds: 50,
        mutant: Mutant::AcceptAfterFin,
        prelude: &PINNED_WORLDS,
    };
    let rep = sweep::<TeardownSpec>(&opts);
    let message = rep.failure.expect("the sweep must catch the accept-after-FIN mutation").message;
    // Killed in the prelude, by the world built for it, before any seed.
    assert_eq!(rep.seeds_run, 0, "{message}");
    assert!(
        message.starts_with("pinned world stale_data_after_fin: stale data: rx side: rcv_nxt")
            && message.contains("moved past the accepted FIN"),
        "failure should implicate the post-FIN gate: {message}"
    );

    // The dedicated stale-data world fails deterministically with the
    // bug on, and passes with it off: the failure is the mutation's.
    let with_bug =
        stale_data_after_fin(Mutant::AcceptAfterFin).expect_err("mutant must fail the stale-data world");
    let again = stale_data_after_fin(Mutant::AcceptAfterFin).expect_err("and fail identically on replay");
    assert_eq!(with_bug, again, "mutation reproducer is not deterministic");
    stale_data_after_fin(Mutant::None).expect("clean code passes the same world");

    // And the clean sweep over the same block stays green.
    opts.mutant = Mutant::None;
    let clean = sweep::<TeardownSpec>(&opts);
    assert!(clean.failure.is_none(), "{:?}", clean.failure);
}
