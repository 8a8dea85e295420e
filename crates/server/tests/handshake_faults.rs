//! Handshake robustness under kernel-part faults.
//!
//! The multi-connection tests exercise faults on an established data
//! stream; these target the connection *setup* datagrams specifically.
//! With one connection the kernel part's send order is deterministic —
//! datagram #1 is the client's SYN, #2 the server's SYN-ACK, #3 the
//! first data segment — so every-Nth knobs (and a one-tick total-drop
//! window) can aim a fault at an exact handshake step.

use memsim::layout::AddressSpace;
use memsim::NativeMem;
use obs::NoopObserver;
use server::{Path, RoundRobin, ScaleHarness, Scheduler, ServerConfig};
use utcp::{FaultPlan, FaultProbs};

fn one_conn_config(faults: FaultPlan) -> ServerConfig {
    ServerConfig { n_conns: 1, file_len: 2 * 1024, chunk: 512, faults, ..Default::default() }
}

#[test]
fn lost_syn_is_recovered_by_the_retry_timer() {
    // Drop *everything* during the first tick — which holds exactly the
    // client's first SYN — then lift the fault and let the retry timer
    // re-establish.
    let all = FaultProbs { drop: u16::MAX, ..Default::default() };
    let cfg = one_conn_config(FaultPlan::seeded(11, all));
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let mut obs = NoopObserver;
    let mut run = h.begin_run::<NoopObserver>();
    assert!(h.step(&mut m, &mut sched, Path::Ilp, &mut obs, &mut run));
    assert_eq!(h.lb.dropped, 1, "the first tick sends (and drops) only the SYN");
    assert!(!h.client_established(0), "the SYN never arrived");
    h.lb.set_faults(FaultPlan::default());
    while h.step(&mut m, &mut sched, Path::Ilp, &mut obs, &mut run) {}
    let report = h.finish_run(&mut NoopObserver, sched.name());
    assert_eq!(h.verify_outputs(&mut m), None);
    assert_eq!(report.payload_bytes, 2 * 1024);
    // Establishment had to wait for the SYN retry timer, not the
    // (lost) original.
    assert!(
        report.per_conn[0].established_at > 8,
        "established at tick {} — before the first SYN retry was even due",
        report.per_conn[0].established_at
    );
}

#[test]
fn duplicated_syn_ack_is_idempotent() {
    // Datagram #2 is the server's SYN-ACK; dup_every=2 delivers it
    // twice (and keeps duplicating even datagrams for the rest of the
    // run). The client must treat the repeat as a no-op, not restart or
    // desynchronise the connection.
    let established_at = |faults: FaultPlan| {
        let cfg = one_conn_config(faults);
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, cfg);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        h.init_world(&mut m);
        let mut sched = RoundRobin::new();
        let report = h.run(&mut m, &mut sched, Path::Ilp);
        assert_eq!(h.verify_outputs(&mut m), None);
        assert_eq!(report.payload_bytes, 2 * 1024);
        if faults.dup_every == 2 {
            assert!(h.lb.duplicated > 0, "the dup plan must have fired on the SYN-ACK");
        }
        report.per_conn[0].established_at
    };
    let clean = established_at(FaultPlan::default());
    let dup = established_at(FaultPlan { dup_every: 2, ..Default::default() });
    assert_eq!(dup, clean, "duplicate SYN-ACK must not delay setup");
}

#[test]
fn corrupted_first_data_segment_is_rejected_then_repaired() {
    // Datagram #3 is the first data segment (the handshake datagrams
    // precede it; corruption exempts payload-free segments anyway).
    // The client's checksum must reject the flip and the retransmission
    // must deliver the pristine bytes.
    for path in [Path::Ilp, Path::NonIlp] {
        let cfg = one_conn_config(FaultPlan { corrupt_every: 3, ..Default::default() });
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, cfg);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        h.init_world(&mut m);
        let mut sched = RoundRobin::new();
        let report = h.run(&mut m, &mut sched, path);
        assert_eq!(h.verify_outputs(&mut m), None, "{path:?}");
        assert_eq!(report.payload_bytes, 2 * 1024, "{path:?}");
        assert!(h.lb.corrupted > 0, "corruption must have fired ({path:?})");
        assert!(report.rejected > 0, "the flipped segment must be rejected ({path:?})");
        assert!(report.retransmits > 0, "rejection must force a retransmission ({path:?})");
    }
}
