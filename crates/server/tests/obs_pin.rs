//! What `obs` reports is the program too: every JSON key, Prometheus
//! line and sort order below is read by a gate, a test or a person.
//! These digests (FNV-1a over the rendered text) were recorded on the
//! commit *before* `obs` was folded onto one ring, one tally and one
//! declaration per label set (`58db63b`), for the world
//! `examples/observe.rs` runs — eight connections, every 11th datagram
//! dropped, every 13th corrupted, every chunk traced — and for its
//! two-shard twin. A change to `obs` that moves one has changed what a
//! report says — find out why, do not re-record.
//!
//! Two keys of the recorder's `segtrace` object are left out of the
//! digest on purpose: `pending` (the promotion ledger's size, which the
//! same PR bounded — a chunk's entry is forgotten once its trace
//! exists) and `refused_pending` (the count that bound added).

use memsim::layout::AddressSpace;
use memsim::{HostModel, SimMem};
use obs::{prometheus_text_with_health, Json, Recorder, SeriesConfig, Verdict};
use server::shard::{run_sharded, SchedPolicy};
use server::{Path, RoundRobin, ScaleHarness, ServerConfig};
use utcp::FaultPlan;

const TRACE_CAP: usize = 2048;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |d, b| (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

fn observe_cfg() -> ServerConfig {
    ServerConfig {
        n_conns: 8,
        file_len: 4 * 1024,
        chunk: 1024,
        faults: FaultPlan { drop_every: 11, corrupt_every: 13, ..Default::default() },
        trace_every: 1,
        ..Default::default()
    }
}

/// Digests of (the recorder's report without the two ledger-size keys
/// of the module docs, the diagnostic bundle, the Prometheus text with
/// verdicts).
fn digests(rec: &Recorder, bundle: &Json, verdicts: &[Verdict]) -> [u64; 3] {
    let mut j = rec.to_json();
    if let Json::Obj(top) = &mut j {
        if let Some(Json::Obj(seg)) = top.get_mut("segtrace") {
            seg.remove("pending");
            seg.remove("refused_pending");
        }
    }
    [fnv(&j.render()), fnv(&bundle.render()), fnv(&prometheus_text_with_health(rec, verdicts))]
}

fn observe_world(path: Path) -> [u64; 3] {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, observe_cfg());
    let host = HostModel::ss10_30();
    let mut m = SimMem::new(&space, &host);
    h.init_world(&mut m);
    let mut rec = Recorder::new(TRACE_CAP);
    let mut sched = RoundRobin::new();
    h.run(&mut m, &mut sched, (path, &mut rec));
    assert_eq!(h.verify_outputs(&mut m), None);
    digests(&rec, &h.diagnostics(&rec), &h.health(&rec))
}

fn sharded_twin(path: Path) -> [u64; 3] {
    let report = run_sharded(&observe_cfg(), 2, path, SchedPolicy::RoundRobin, TRACE_CAP);
    assert_eq!(report.corrupted_conn(), None);
    digests(&report.merged, &report.diagnostics(), &report.health())
}

/// A clean start, then the network goes dark (`sim::health`'s blackout
/// shape): both connections spiral and stall, so the bundle carries
/// verdicts, their sort order and the offenders' flight dumps.
fn blackout_world() -> [u64; 3] {
    let cfg = ServerConfig { n_conns: 2, file_len: 64 * 1024, chunk: 512, ..Default::default() };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let host = HostModel::ss10_30();
    let mut m = SimMem::new(&space, &host);
    h.init_world(&mut m);
    let mut rec = Recorder::with_series(128, SeriesConfig { window_ticks: 16, ring: 4 });
    let mut sched = RoundRobin::new();
    let mut run = h.begin_run::<Recorder>();
    for tick in 0..630 {
        if tick == 10 {
            h.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
        }
        assert!(h.step(&mut m, &mut sched, Path::Ilp, &mut rec, &mut run), "finished at {tick}");
    }
    let verdicts = h.health(&rec);
    assert_eq!(verdicts.len(), 4, "a spiral and a stall per connection: {verdicts:?}");
    digests(&rec, &h.diagnostics(&rec), &verdicts)
}

#[test]
fn the_observe_world_reports_what_it_did_on_the_parent() {
    assert_eq!(
        observe_world(Path::Ilp),
        [0x1BB1_BCC9_C6E1_C1BE, 0xD9D0_567F_5611_C3B5, 0xF3D4_E4A3_EBAB_E844],
        "ILP"
    );
    assert_eq!(
        observe_world(Path::NonIlp),
        [0x2CBB_0258_6B03_AC1A, 0xD9D0_567F_5611_C3B5, 0x1DF8_0D05_D2F1_3B75],
        "non-ILP"
    );
}

/// On `NativeMem` no work is counted and the two paths put the same
/// bytes on the wire, so both report the same thing.
#[test]
fn its_two_shard_twin_reports_what_it_did_on_the_parent() {
    for path in [Path::Ilp, Path::NonIlp] {
        assert_eq!(
            sharded_twin(path),
            [0xCDB3_6922_582F_E92C, 0xF1D8_3368_8395_399B, 0x8C8A_01A1_312B_3B1A],
            "{path:?}"
        );
    }
}

#[test]
fn a_blackout_is_diagnosed_as_it_was_on_the_parent() {
    assert_eq!(
        blackout_world(),
        [0xDDAF_587B_DCE0_C9DD, 0xD0FC_D167_8C36_B1E5, 0xC491_0E45_A30B_D6E0]
    );
}
