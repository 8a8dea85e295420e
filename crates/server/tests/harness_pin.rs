//! The harness is the program too: the state every connection is in
//! after every round decides every simulated baseline downstream. These
//! digests (FNV-1a) were recorded on the commit *before* `harness.rs`
//! was cut into parts; a change to the harness that moves one has
//! changed the protocol or the round order — find out why, do not
//! re-record.
//!
//! The faulted churn digest was re-recorded once since, on purpose: a
//! receiver now ACKs a drained burst once instead of once per segment,
//! so the loop-back carries fewer datagrams and `drop_every` /
//! `dup_every`, which count datagrams, meet different segments. The
//! clean churn digest beside it is the control — the same on the commit
//! before that change and after it: with no faults to re-aim, fewer
//! ACKs move no connection's state in any round.
//!
//! Both were re-recorded when connections began to open with utcp's own
//! three-way handshake (EXPERIMENTS E38): after `reopen_wave` each sender
//! now listens, and the faults meet a three-datagram open.

use cipher::SimplifiedSafer;
use memsim::layout::AddressSpace;
use memsim::NativeMem;
use obs::NoopObserver;
use server::{Path, RoundRobin, ScaleHarness, Scheduler, ServerConfig};
use utcp::{FaultPlan, KernelPart};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| (d ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Fold every connection's externally visible state into `digest`.
fn fold_world(digest: u64, tick: u64, h: &ScaleHarness<SimplifiedSafer>) -> u64 {
    let mut d = fnv(digest, &tick.to_le_bytes());
    for (i, sess) in h.table.iter().enumerate() {
        let rx = h.client_rx(i);
        let (_, chunks, _) = h.client_progress(i);
        for word in [
            sess.xfer.next_chunk as u64,
            chunks,
            sess.xfer.state as u64,
            sess.tx.state() as u64,
            rx.state() as u64,
            sess.tx.stats.retransmits,
        ] {
            d = fnv(d, &word.to_le_bytes());
        }
    }
    d
}

/// Two churn waves of 8 connections × 8 KiB through a 4 KiB ring under
/// `faults`; returns (digest, rounds of wave 1, drain 1,
/// rounds at the end of wave 2, drain 2).
fn churn_digest(path: Path, faults: FaultPlan) -> (u64, u64, u64, u64, u64) {
    let cfg = ServerConfig {
        n_conns: 8,
        file_len: 8 * 1024,
        ring_capacity: 4 * 1024,
        faults,
        ..Default::default()
    };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let mut obs = NoopObserver;
    let mut digest = FNV_OFFSET;
    let mut tick = 0u64;
    let mut marks = [0u64; 4];
    for wave in 0..2 {
        let mut run = h.begin_run::<NoopObserver>();
        loop {
            let more = h.step(&mut m, &mut sched, path, &mut obs, &mut run);
            tick += 1;
            digest = fold_world(digest, tick, &h);
            if !more {
                break;
            }
        }
        let report = h.finish_run(&mut obs, sched.name());
        assert_eq!(h.verify_outputs(&mut m), None, "wave {wave} ({path:?})");
        assert_eq!(report.payload_bytes, 8 * 8 * 1024);
        marks[2 * wave] = report.rounds;
        let drained = h.drain_to_closed(&mut m, path, &mut obs);
        marks[2 * wave + 1] = drained;
        tick += drained;
        digest = fold_world(digest, tick, &h);
        h.reopen_wave(&mut m);
        digest = fold_world(digest, tick, &h);
    }
    let k = h.lb.counters();
    for word in [k.dropped, k.corrupted, k.unroutable, k.queue_peak] {
        digest = fnv(digest, &word.to_le_bytes());
    }
    (digest, marks[0], marks[1], marks[2], marks[3])
}

#[test]
fn per_round_state_through_two_churn_waves_is_the_recorded_one() {
    // One digest for both paths: they put the same bytes on the wire, so
    // the same faults meet the same segments.
    for path in [Path::Ilp, Path::NonIlp] {
        let faults = FaultPlan { drop_every: 7, dup_every: 13, ..Default::default() };
        assert_eq!(churn_digest(path, faults), (0x5053_55D7_6480_47FA, 132, 30, 228, 10), "{path:?}");
    }
}

#[test]
fn per_round_state_of_a_clean_churn_is_the_recorded_one() {
    for path in [Path::Ilp, Path::NonIlp] {
        assert_eq!(churn_digest(path, FaultPlan::default()), (0xA2A8_1CBF_B60E_65B5, 6, 30, 42, 30), "{path:?}");
    }
}
