//! The deterministic-simulation smoke sweep: a fixed block of seeds
//! must satisfy every oracle, and the sweep itself must be a pure
//! function of its options.

use sim::{sweep, Mutant, Scenario, ScenarioKind, Spec, SweepOpts, TeardownSpec, PINNED_WORLDS};

/// Fixed smoke block: same seeds CI runs (see `scripts/ci.sh`).
const SMOKE: SweepOpts = SweepOpts {
    base_seed: 0x11F9_5000,
    seeds: 120,
    mutant: Mutant::None,
    prelude: &[],
};

#[test]
fn smoke_sweep_is_all_green() {
    let rep = sweep::<Scenario>(&SMOKE);
    if let Some(f) = &rep.failure {
        panic!(
            "seed sweep failed: {}\nscenario: {:?}\nshrunk reproducer:\n{}",
            f.message, f.spec, f.test_case
        );
    }
    assert_eq!(rep.passed, SMOKE.seeds);
    // A sweep that exercised nothing would be vacuously green — require
    // every scenario kind, real oracle traffic, and a live fault mix.
    let kinds = ScenarioKind::mix(SMOKE.base_seed, rep.seeds_run);
    assert!(kinds.iter().all(|&k| k > 0), "kind mix {kinds:?}");
    let t = rep.totals;
    assert!(t.oracle_checks > 10_000, "only {} oracle checks", t.oracle_checks);
    assert!(t.faults.dropped > 0, "no drops injected across the sweep");
    assert!(t.faults.duplicated > 0, "no duplicates injected");
    assert!(t.faults.corrupted > 0, "no corruption injected");
    assert!(t.faults.delayed > 0, "no delays injected");
    assert!(t.retransmits > 0, "faults at this rate must force retransmissions");
}

#[test]
fn teardown_sweep_is_all_green() {
    // The lifecycle block: six pinned teardown worlds, then 200 seeded
    // teardown-under-fault worlds, each under the legal-transition,
    // post-FIN-freeze, flight-accounting and liveness oracles.
    let opts =
        SweepOpts { base_seed: 0x7EAF_0000, seeds: 200, prelude: &PINNED_WORLDS, ..Default::default() };
    let rep = sweep::<TeardownSpec>(&opts);
    if let Some(f) = &rep.failure {
        panic!("teardown sweep failed: {}\nspec: {:?}\nreproducer:\n{}", f.message, f.shrunk, f.test_case);
    }
    assert_eq!(rep.seeds_run, 200);
    assert_eq!(rep.passed, 206, "200 seeded + 6 pinned worlds");
    assert!(rep.totals.oracle_checks > 10_000, "only {} oracle checks", rep.totals.oracle_checks);
}

#[test]
fn sweep_is_deterministic() {
    let opts = SweepOpts { base_seed: 7, seeds: 12, ..Default::default() };
    let a = sweep::<Scenario>(&opts);
    let b = sweep::<Scenario>(&opts);
    assert_eq!(a.passed, b.passed);
    assert_eq!(a.totals.faults, b.totals.faults);
    assert_eq!(a.totals.oracle_checks, b.totals.oracle_checks);
    assert_eq!(a.totals.rounds, b.totals.rounds);
    assert_eq!(a.totals.payload_bytes, b.totals.payload_bytes);
}

#[test]
fn single_scenario_replays_identically() {
    // The contract a printed reproducer relies on: a run is a pure
    // function of (fields, seed).
    for seed in [3u64, 0x5EED, 0xFFFF_FFFF] {
        let sc = Scenario::from_seed(seed);
        let a = sc.run(Mutant::None).expect("clean scenario");
        let b = sc.run(Mutant::None).expect("clean scenario");
        assert_eq!(a.faults, b.faults, "seed {seed:#x}");
        assert_eq!(a.rounds, b.rounds, "seed {seed:#x}");
        assert_eq!(a.oracle_checks, b.oracle_checks, "seed {seed:#x}");
    }
}

#[test]
fn transfer_scenarios_actually_inject_faults() {
    // Take the first few Transfer scenarios with all four classic fault
    // kinds armed and check the runs both injected and survived them
    // (aggregated — a single short run can legitimately roll zero of a
    // low-probability fault).
    let armed: Vec<Scenario> = (0..4000u64)
        .map(Scenario::from_seed)
        .filter(|s| {
            s.kind == ScenarioKind::Transfer
                && s.probs.drop > 1024
                && s.probs.dup > 1024
                && s.probs.reorder > 1024
                && s.probs.corrupt > 1024
        })
        .take(6)
        .collect();
    assert_eq!(armed.len(), 6, "the generator arms each fault kind with p=1/2");
    let mut faults = sim::FaultTotals::default();
    let mut retransmits = 0;
    for sc in &armed {
        let stats = sc.run(Mutant::None).expect("scenario survives its faults");
        assert_eq!(stats.payload_bytes, (sc.n_conns * sc.file_len) as u64, "{sc:?}");
        faults.absorb(stats.faults);
        retransmits += stats.retransmits;
    }
    assert!(faults.dropped > 0, "{faults:?}");
    assert!(faults.duplicated > 0, "{faults:?}");
    assert!(faults.reordered > 0, "{faults:?}");
    assert!(faults.corrupted > 0, "{faults:?}");
    assert!(retransmits > 0, "{faults:?}");
}
