//! What `obs` reports is the program too: every JSON key, Prometheus
//! line and sort order below is read by a gate, a test or a person.
//! These digests (FNV-1a over the rendered text) were recorded on the
//! commit *before* `obs` was folded onto one ring, one tally and one
//! declaration per label set (`58db63b`), for the world
//! `bench observe` runs — eight connections, every 11th datagram
//! dropped, every 13th corrupted, every chunk traced — and for a
//! blackout. A change to `obs` that moves one has changed what a report
//! says — find out why, do not re-record.
//!
//! Two keys of the recorder's `segtrace` object are left out of the
//! digest on purpose: `pending` (the promotion ledger's size, which the
//! same PR bounded — a chunk's entry is forgotten once its trace
//! exists) and `refused_pending` (the count that bound added).
//!
//! All nine were re-recorded when connections began to open with utcp's
//! own three-way handshake (EXPERIMENTS E38): each SYN takes a sequence
//! number, the layout lost the old handshake's scratch region, and the
//! faults meet a three-datagram open.
//!
//! The six `SimMem` digests (the observe world on both paths and the
//! blackout; not the bundles, not the two-shard twin of the time) were
//! re-recorded when the loop-back began to take kernel slots from a free
//! pool (EXPERIMENTS E39): a datagram now reuses the slot its
//! predecessor freed, so the slot lines evict other cache lines and the
//! simulated work the spans carry moved (`BENCH_observe`
//! `ilp.work.ilp.total` −0.4 %); every count, verdict and key is as it
//! was.
//!
//! The ILP observe-world digests (the recorder report and the Prometheus
//! text; not the bundle) were re-recorded when the ILP receive stopped
//! decrypting segments it will not deliver (EXPERIMENTS E40): that world
//! drops every 11th datagram, and a segment that cannot be the next
//! in-order one now gets the checksum pass alone, as on the non-ILP path,
//! instead of the fused checksum+decrypt+unmarshal pass into staging. The
//! simulated work its fused span carries fell (`BENCH_observe`
//! `ilp.work.ilp.integrated.by_layer.fused` 830 823 → 789 355); every
//! count, verdict and key is as it was, and the non-ILP digests did not
//! move.
//!
//! The six `SimMem` digests' recorder and Prometheus parts (the observe
//! world on both paths and the blackout; no bundle) were re-recorded
//! when every pure ACK began to be checksum-verified before it is
//! honoured (EXPERIMENTS E42): a bare ACK used to be taken on trust, and
//! now costs one header sum, so the simulated work the spans carry
//! moved (`BENCH_observe` `ilp.work.ilp.total` 989 806 → 990 606,
//! `non_ilp.work.non_ilp.total` 1 098 513 → 1 099 313); every count,
//! verdict and key is as it was.

use memsim::layout::AddressSpace;
use memsim::{HostModel, SimMem};
use obs::{prometheus_text_with_health, Json, Recorder, SeriesConfig, Verdict};
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
        [0x9BA2_00A0_22CF_B100, 0xD424_D64C_0374_C5A6, 0x252D_9359_6072_EE37],
        "ILP"
    );
    assert_eq!(
        observe_world(Path::NonIlp),
        [0x2254_3E55_1BE9_DF9F, 0xD424_D64C_0374_C5A6, 0x8BFF_9326_681C_E03F],
        "non-ILP"
    );
}

#[test]
fn a_blackout_is_diagnosed_as_it_was_on_the_parent() {
    assert_eq!(
        blackout_world(),
        [0x5520_4A81_C01D_4D5A, 0x53DB_903F_9200_662D, 0x3709_6BA8_DC07_8D67]
    );
}
