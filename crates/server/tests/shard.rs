//! Integration tests for the sharded server: the S=1 identity, cross-
//! shard determinism, fault survival, and thread confinement of the
//! simulated memory world.

use memsim::layout::AddressSpace;
use memsim::{HostModel, NativeMem, SimMem};
use obs::Recorder;
use server::harness::{Path, ScaleHarness, ServerConfig};
use server::sched::RoundRobin;
use server::shard::{run_sharded, SchedPolicy};
use utcp::FaultPlan;

const TRACE_CAP: usize = 256;

#[test]
fn s1_sharded_run_is_byte_identical_to_unsharded() {
    // 64 KB per connection in 128-byte chunks runs ~128 scheduling
    // rounds — well past one series window (64 virtual ticks) — so the
    // series equality below compares real multi-window structure, not a
    // single half-open window.
    // trace_every = 3 also exercises the segment-trace store across the
    // seam: the merged S=1 store must reproduce the unsharded one byte
    // for byte (it is part of the recorder render compared below).
    let cfg = ServerConfig {
        n_conns: 6,
        file_len: 64 * 1024,
        chunk: 128,
        trace_every: 3,
        ..Default::default()
    };

    // The existing unsharded harness, observed.
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg.clone());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let mut rec = Recorder::new(TRACE_CAP);
    let plain = h.run(&mut m, &mut sched, (Path::Ilp, &mut rec));
    assert_eq!(h.verify_outputs(&mut m), None);

    // The same workload through the sharded front end with S = 1.
    let sharded = run_sharded(&cfg, 1, Path::Ilp, SchedPolicy::RoundRobin, TRACE_CAP);

    // Counters match exactly...
    assert_eq!(sharded.payload_bytes(), plain.payload_bytes);
    assert_eq!(sharded.max_rounds(), plain.rounds);
    assert_eq!(sharded.retransmits(), plain.retransmits);
    assert_eq!(sharded.rejected(), plain.rejected);
    assert_eq!(sharded.corrupted_conn(), None);
    let s0 = &sharded.shards[0].report;
    assert_eq!(s0.per_conn, plain.per_conn, "per-connection stats identical");
    assert_eq!(s0.fairness.to_bits(), plain.fairness.to_bits());
    assert_eq!(s0.scheduler, plain.scheduler);

    // ...and so does the merged observability stream, byte for byte.
    assert_eq!(
        sharded.merged.to_json().render(),
        rec.to_json().render(),
        "merged S=1 recorder must reproduce the unsharded recorder"
    );

    // The segment-trace store specifically: sampled traces survive the
    // merge as a clean union with identical span chains.
    assert!(!rec.segtrace().is_empty(), "trace_every = 3 must sample some chunks");
    assert_eq!(
        sharded.merged.segtrace().to_json().render(),
        rec.segtrace().to_json().render(),
        "merged S=1 segment traces must reproduce the unsharded store"
    );

    // The windowed series specifically: merging one shard's series into
    // the fresh merge target must clone it wholesale, so every window
    // boundary, coarsening level, and per-window histogram survives —
    // not just the aggregate totals the render equality above implies.
    let merged_series = sharded.merged.series();
    let plain_series = rec.series();
    assert_eq!(
        merged_series.to_json().render(),
        plain_series.to_json().render(),
        "merged S=1 series must reproduce the unsharded series window-for-window"
    );
    assert_eq!(merged_series.len(), plain_series.len());
    assert!(plain_series.len() > 1, "run must span several windows for this to mean anything");
    let wt = plain_series.config().window_ticks;
    for (a, b) in merged_series.iter().zip(plain_series.iter()) {
        assert_eq!(a.start_tick(wt), b.start_tick(wt));
        assert_eq!(a.ticks(wt), b.ticks(wt));
    }

    // Health layer: views, verdicts, and the diagnostic bundle are all
    // byte-identical across the S=1 seam.
    assert_eq!(sharded.health_views(), h.health_views());
    assert_eq!(sharded.queue_stat(), h.queue_stat());
    assert_eq!(sharded.health(), h.health(&rec));
    assert_eq!(
        sharded.diagnostics().render(),
        h.diagnostics(&rec).render(),
        "S=1 diagnostic bundle must reproduce the unsharded bundle byte-for-byte"
    );
}

#[test]
fn sharded_runs_are_deterministic() {
    let cfg = ServerConfig {
        n_conns: 9,
        file_len: 6 * 1024,
        chunk: 512,
        weights: vec![3, 1, 2, 1, 1, 2, 1, 1, 1],
        ..Default::default()
    };
    let a = run_sharded(&cfg, 3, Path::Ilp, SchedPolicy::Deficit { quantum: 512 }, TRACE_CAP);
    let b = run_sharded(&cfg, 3, Path::Ilp, SchedPolicy::Deficit { quantum: 512 }, TRACE_CAP);
    // Wall-clock fields aside, the runs must be indistinguishable; the
    // recorders capture everything else down to per-packet events.
    assert_eq!(
        a.merged.to_json().render(),
        b.merged.to_json().render(),
        "same seed, same slices => same merged trace"
    );
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(sa.report.per_conn, sb.report.per_conn, "shard {}", sa.shard);
        assert_eq!(
            sa.recorder.to_json().render(),
            sb.recorder.to_json().render(),
            "shard {}",
            sa.shard
        );
    }
}

#[test]
fn shards_survive_faults_and_deliver_every_byte() {
    let cfg = ServerConfig {
        n_conns: 8,
        file_len: 4 * 1024,
        faults: FaultPlan { drop_every: 11, corrupt_every: 13, ..Default::default() },
        ..Default::default()
    };
    for shards in [2usize, 4] {
        let r = run_sharded(&cfg, shards, Path::Ilp, SchedPolicy::RoundRobin, TRACE_CAP);
        assert_eq!(r.shards.len(), shards);
        assert_eq!(r.payload_bytes(), 8 * 4 * 1024, "{shards} shards");
        assert_eq!(r.corrupted_conn(), None, "faults must never corrupt delivered data");
        assert!(r.retransmits() > 0, "drops must force retransmission");
        assert!(r.corrupted_datagrams() > 0, "corruption plan must fire on some shard");
        // The merged recorder is exactly the sum of the shard recorders.
        let delivered: u64 = r
            .shards
            .iter()
            .map(|s| s.recorder.counter(obs::Counter::ChunksDelivered))
            .sum();
        assert_eq!(r.merged.counter(obs::Counter::ChunksDelivered), delivered);
        let pushed: u64 = r.shards.iter().map(|s| s.recorder.trace().total_pushed()).sum();
        assert_eq!(r.merged.trace().total_pushed(), pushed, "trace drop accounting");
        // Non-ILP path work never ran.
        assert_eq!(r.merged.path_total(obs::PathLabel::NonIlp), 0);
    }
}

#[test]
fn shard_json_report_has_labelled_sections() {
    let cfg = ServerConfig { n_conns: 4, file_len: 2048, ..Default::default() };
    let r = run_sharded(&cfg, 2, Path::Ilp, SchedPolicy::RoundRobin, TRACE_CAP);
    let j = r.to_json();
    let shards = j.get("shards").and_then(|s| s.as_arr()).expect("shards array");
    assert_eq!(shards.len(), 2);
    assert_eq!(shards[0].get("conn_base").and_then(|v| v.as_f64()), Some(0.0));
    assert_eq!(shards[1].get("conn_base").and_then(|v| v.as_f64()), Some(2.0));
    for s in shards {
        assert_eq!(s.get("clean"), Some(&obs::Json::Bool(true)));
        assert!(s.get("recorder").and_then(|r| r.get("counters")).is_some());
    }
    let totals = j.get("totals").expect("totals section");
    assert_eq!(totals.get("payload_bytes").and_then(|v| v.as_f64()), Some(4.0 * 2048.0));
    assert!(j.get("merged").and_then(|m| m.get("trace")).is_some());
}

#[test]
fn sim_worlds_are_thread_confined() {
    // The tentpole's memsim contract, exercised end-to-end: a complete
    // cache-simulated world (AddressSpace + SimMem + its work counters)
    // is built inside each worker, never shared, and its stats move
    // back out by value. Identical slices on different threads must
    // produce identical simulated access counts.
    let run_one = |conn_base: usize| {
        let cfg = ServerConfig { n_conns: 2, conn_base, file_len: 2048, ..Default::default() };
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, cfg);
        let host = HostModel::ss10_30();
        let mut m = SimMem::new(&space, &host);
        h.init_world(&mut m);
        let mut sched = RoundRobin::new();
        let report = h.run(&mut m, &mut sched, Path::Ilp);
        assert_eq!(h.verify_outputs(&mut m), None);
        (report.payload_bytes, m.stats().clone())
    };
    let (a, b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| run_one(0));
        let tb = scope.spawn(|| run_one(0));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(a.0, 2 * 2048);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1.reads.total(), b.1.reads.total(), "identical simulated read streams");
    assert_eq!(a.1.writes.total(), b.1.writes.total());
}
