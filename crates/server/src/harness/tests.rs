//! `harness::tests`: one module over all five parts (it reads their
//! private state), so test names do not move when a body does.

use super::*;
use crate::conn_table::{ConnId, SessionState};
use crate::sched::{DeficitRoundRobin, RoundRobin};
use cipher::CipherKernel;
use memsim::layout::AddressSpace;
use memsim::NativeMem;
use obs::{NoopObserver, Recorder};
use utcp::FaultPlan;

fn run(cfg: ServerConfig, path: Path) -> (AggregateReport, Option<usize>) {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let report = h.run(&mut m, &mut sched, path);
    let corrupted = h.verify_outputs(&mut m);
    (report, corrupted)
}

#[test]
fn four_connections_complete_on_both_paths() {
    for path in [Path::Ilp, Path::NonIlp] {
        let (report, corrupted) = run(ServerConfig::default(), path);
        assert_eq!(report.payload_bytes, 4 * 4096, "{path:?}");
        assert_eq!(corrupted, None, "{path:?}");
        assert_eq!(report.rejected, 0, "clean loop-back rejects nothing ({path:?})");
        assert!(report.fairness > 0.99, "fairness {} ({path:?})", report.fairness);
        for p in &report.per_conn {
            assert!(p.completed_at > 0);
            assert!(p.established_at > 0);
        }
    }
}

#[test]
fn single_connection_degenerates_to_the_paper_setup() {
    let cfg = ServerConfig { n_conns: 1, file_len: 15 * 1024, ..Default::default() };
    let (report, corrupted) = run(cfg, Path::Ilp);
    assert_eq!(report.payload_bytes, 15 * 1024);
    assert_eq!(corrupted, None);
    assert!((report.fairness - 1.0).abs() < 1e-9);
}

#[test]
fn the_largest_chunk_the_send_path_takes_is_served() {
    // 1 508 bytes pad to exactly one MTU with the header words; 1 509 would not fit.
    for path in [Path::Ilp, Path::NonIlp] {
        let cfg = ServerConfig { n_conns: 1, file_len: 3 * 1508, chunk: 1508, ..Default::default() };
        let (report, corrupted) = run(cfg, path);
        assert_eq!((report.payload_bytes, corrupted), (3 * 1508, None), "{path:?}");
    }
    let too_big = ServerConfig { chunk: 1509, ..Default::default() };
    assert!(std::panic::catch_unwind(|| run(too_big, Path::Ilp)).is_err());
}

#[test]
fn weighted_scheduler_skews_early_shares() {
    let cfg = ServerConfig {
        n_conns: 3,
        file_len: 12 * 1024,
        chunk: 512,
        weights: vec![2, 1, 1],
        ..Default::default()
    };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg.clone());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = DeficitRoundRobin::for_config(&cfg, cfg.chunk as u32);
    let report = h.run(&mut m, &mut sched, Path::Ilp);
    assert_eq!(h.verify_outputs(&mut m), None);
    // Everyone eventually gets the whole file; weight-normalised
    // shares at first completion should still be near-fair.
    assert_eq!(report.payload_bytes, 3 * 12 * 1024);
    assert!(report.fairness > 0.9, "weighted fairness {}", report.fairness);
}

#[test]
fn clean_run_raises_no_health_verdicts() {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, ServerConfig::default());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let mut rec = Recorder::new(256);
    h.run(&mut m, &mut sched, (Path::Ilp, &mut rec));
    let verdicts = h.health(&rec);
    assert!(verdicts.is_empty(), "clean loop-back run must be healthy: {verdicts:?}");
    // Flight recorders exist for every connection (harness indices) and
    // the diagnostic bundle is well-formed even with no verdicts.
    for i in 0..4 {
        assert!(rec.flights().contains_key(&(i as u32)), "flight ring for conn {i}");
    }
    let bundle = h.diagnostics(&rec);
    let text = bundle.render();
    assert!(text.contains("\"verdicts\":[]"), "no verdicts in bundle: {text}");
}

#[test]
fn survives_fault_injection() {
    let cfg = ServerConfig {
        n_conns: 3,
        file_len: 6 * 1024,
        faults: FaultPlan { drop_every: 11, corrupt_every: 13, ..Default::default() },
        ..Default::default()
    };
    let (report, corrupted) = run(cfg, Path::Ilp);
    assert_eq!(report.payload_bytes, 3 * 6 * 1024);
    assert_eq!(corrupted, None, "faults must never corrupt delivered data");
    assert!(report.retransmits > 0, "drops must force retransmission");
    assert!(report.corrupted > 0, "corruption plan must have fired");
}

#[test]
fn completed_run_tears_down_and_drains_every_connection_to_closed() {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, ServerConfig::default());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    h.run(&mut m, &mut sched, Path::Ilp);
    assert_eq!(h.verify_outputs(&mut m), None);
    // The run loop ends with every session torn down to at least
    // TIME_WAIT on the server side and CLOSED on the client side.
    for sess in h.table.iter() {
        assert_eq!(sess.xfer.state, SessionState::Done);
        assert!(
            matches!(sess.tx.state(), utcp::State::TimeWait | utcp::State::Closed),
            "server side still {:?}",
            sess.tx.state()
        );
        assert_eq!(sess.tx.stats.fins_sent, 1);
        assert_eq!(sess.tx.stats.fins_received, 1);
    }
    let extra = h.drain_to_closed(&mut m, Path::Ilp, &mut NoopObserver);
    assert!(h.fully_closed(), "drain must finish every TIME_WAIT");
    assert!(extra > 0, "run ends before TIME_WAIT expires; drain must do work");
    // Every active closer sat out its full quiet time.
    assert!(h.time_wait_residency() >= 4 * 2 * u64::from(utcp::MSL_TICKS));
}

#[test]
fn reopen_wave_reruns_the_transfer_over_recycled_ports() {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, ServerConfig::default());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let first = h.run(&mut m, &mut sched, Path::Ilp);
    assert_eq!(h.verify_outputs(&mut m), None);
    h.drain_to_closed(&mut m, Path::Ilp, &mut NoopObserver);
    h.reopen_wave(&mut m);
    let second = h.run(&mut m, &mut sched, Path::Ilp);
    assert_eq!(h.verify_outputs(&mut m), None, "second wave must redeliver every byte");
    assert_eq!(second.payload_bytes, first.payload_bytes);
    h.drain_to_closed(&mut m, Path::Ilp, &mut NoopObserver);
    assert!(h.fully_closed());
    // Stats are cumulative across waves: two handshakes' worth of FINs.
    for sess in h.table.iter() {
        assert_eq!(sess.tx.stats.fins_sent, 2);
    }
}

/// `ilpbench fanin`'s shape: 1 024 connections of 4 KiB, two waves. The
/// slot pool never runs dry, so nothing is dropped, retransmitted or
/// rejected, and the queues peak at two datagrams per connection.
#[test]
fn a_fault_free_1024_connection_wave_never_exhausts_the_kernel_slot_pool() {
    let cfg = ServerConfig { n_conns: 1024, file_len: 4096, chunk: 1024, ..Default::default() };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    for wave in 0..2 {
        let report = h.run(&mut m, &mut sched, Path::Ilp);
        assert_eq!(h.verify_outputs(&mut m), None, "wave {wave}");
        assert_eq!((report.retransmits, report.rejected), (0, 0), "wave {wave}");
        h.drain_to_closed(&mut m, Path::Ilp, &mut NoopObserver);
        h.reopen_wave(&mut m);
    }
    let k = h.lb.counters();
    assert_eq!((k.dropped, k.corrupted, k.unroutable), (0, 0, 0));
    assert_eq!((k.queue_peak, k.queue_capacity), (2 * 1024, 16 * 1024 + 64));
}

#[test]
fn aborted_session_resets_its_client_and_the_rest_complete() {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, ServerConfig::default());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let mut obs = NoopObserver;
    let mut run = h.begin_run::<NoopObserver>();
    // Step until client 0 has accepted at least one chunk, then pull
    // the plug on its session mid-transfer.
    while h.client_rx(0).stats.accepted == 0 {
        assert!(h.step(&mut m, &mut sched, Path::Ilp, &mut obs, &mut run));
    }
    h.abort_session(&mut m, 0);
    assert_eq!(h.table.get(ConnId(0)).tx.state(), utcp::State::Closed);
    while h.step(&mut m, &mut sched, Path::Ilp, &mut obs, &mut run) {}
    // The RST tore the client down; its file is incomplete while the
    // other three transfers still verify.
    assert_eq!(h.verify_outputs(&mut m), Some(0));
    assert!(h.client_rx(0).stats.resets_received >= 1);
    assert_eq!(h.client_rx(0).state(), utcp::State::Closed);
    h.drain_to_closed(&mut m, Path::Ilp, &mut obs);
    assert!(h.fully_closed());
}

#[test]
fn reopen_wave_leaves_every_part_as_construction_builds_it() {
    let cfg = ServerConfig {
        n_conns: 3,
        file_len: 6 * 1024,
        ring_capacity: 4 * 1024,
        weights: vec![2, 1, 1],
        faults: FaultPlan { drop_every: 7, dup_every: 13, ..Default::default() },
        ..Default::default()
    };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg.clone());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let report = h.run(&mut m, &mut sched, Path::Ilp);
    assert!(report.retransmits > 0, "the wave must have left marks to wipe");
    assert!(h.rounds.snapshot.is_some());
    h.drain_to_closed(&mut m, Path::Ilp, &mut NoopObserver);
    h.reopen_wave(&mut m);

    // A part that gains a field gains it in its constructor; these
    // comparisons are what make its reset unable to forget it.
    let fresh = ScaleHarness::simplified(&mut AddressSpace::new(), cfg);
    assert_eq!(h.accept, fresh.accept);
    assert_eq!(h.rounds, fresh.rounds);
    for (was, new) in h.table.iter().zip(fresh.table.iter()) {
        assert_eq!(was.xfer, new.xfer);
        assert_eq!(was.tx.state(), new.tx.state());
    }
    for (was, new) in h.clients.iter().zip(&fresh.clients) {
        assert_eq!((was.app_out, was.rx.state()), (new.app_out, new.rx.state()));
    }
    assert_eq!(h.verify_outputs(&mut m), Some(0), "outputs are zeroed for the next wave");
}

#[test]
fn des_and_full_safer_worlds_initialise_and_transfer_on_both_paths() {
    fn transfer<C: CipherKernel + Copy>(alloc: impl Fn(&mut AddressSpace) -> C) {
        for path in [Path::Ilp, Path::NonIlp] {
            let cfg = ServerConfig { n_conns: 2, file_len: 3000, ..Default::default() };
            let mut space = AddressSpace::new();
            let cipher = alloc(&mut space);
            let mut h = ScaleHarness::with_cipher(&mut space, cipher, cfg);
            let mut arena = space.native_arena();
            let mut m = NativeMem::new(&mut arena);
            h.init_world(&mut m);
            let report = h.run(&mut m, &mut RoundRobin::new(), path);
            assert_eq!(report.payload_bytes, 2 * 3000, "{} {path:?}", C::NAME);
            assert_eq!(h.verify_outputs(&mut m), None, "{} {path:?}", C::NAME);
        }
    }
    transfer(cipher::Des::alloc);
    transfer(|space| cipher::SaferK64::alloc(space, 6));
}
