//! Workspace integration tests: the complete stack — application,
//! marshalling, encryption, user-level TCP, loop-back kernel — driven
//! end to end through both implementations, on both memory worlds.

use ilp_repro::memsim::{AddressSpace, HostModel, Mem, NativeMem, SimMem};
use ilp_repro::rpcapp::app::{FileTransfer, Path};
use ilp_repro::rpcapp::suite::Suite;
use ilp_repro::utcp::FaultPlan;

fn native_transfer(path: Path, chunk: usize, file_len: usize, faults: FaultPlan) -> (usize, u64) {
    let mut space = AddressSpace::new();
    let mut suite = Suite::simplified(&mut space);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    suite.init_world(&mut m);
    suite.lb.set_faults(faults);
    let xfer = FileTransfer { file_len, chunk, copies: 1 };
    xfer.fill_file(&suite, &mut m);
    let report = xfer.run(&mut suite, &mut m, path);
    assert!(xfer.verify_output(&suite, &mut m), "corrupted transfer");
    (report.payload_bytes, suite.tx.stats.retransmits)
}

#[test]
fn paper_workload_both_paths_all_sizes() {
    for path in [Path::NonIlp, Path::Ilp] {
        for chunk in [256, 512, 768, 1024, 1280] {
            let (bytes, _) = native_transfer(path, chunk, 15 * 1024, FaultPlan::default());
            assert_eq!(bytes, 15 * 1024, "{path:?}/{chunk}");
        }
    }
}

#[test]
fn transfer_survives_drops_duplicates_and_reorders() {
    for path in [Path::NonIlp, Path::Ilp] {
        let faults =
            FaultPlan { drop_every: 5, dup_every: 7, reorder_every: 11, ..Default::default() };
        let (bytes, retransmits) = native_transfer(path, 512, 8 * 1024, faults);
        assert_eq!(bytes, 8 * 1024, "{path:?}");
        assert!(retransmits > 0, "{path:?} must have retransmitted");
    }
}

#[test]
fn simulated_world_delivers_identical_file() {
    // The instrumented run must produce byte-identical results to the
    // native run — the measurements describe the code users actually run.
    let file_len = 6 * 1024;
    let chunk = 768;

    let mut native_out = Vec::new();
    {
        let mut space = AddressSpace::new();
        let mut suite = Suite::simplified(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        suite.init_world(&mut m);
        let xfer = FileTransfer { file_len, chunk, copies: 1 };
        xfer.fill_file(&suite, &mut m);
        xfer.run(&mut suite, &mut m, Path::Ilp);
        native_out.extend_from_slice(m.bytes(suite.app_out.base, file_len));
    }

    let mut space = AddressSpace::new();
    let mut suite = Suite::simplified(&mut space);
    let mut m = SimMem::new(&space, &HostModel::axp3000_500());
    suite.init_world(&mut m);
    let xfer = FileTransfer { file_len, chunk, copies: 1 };
    xfer.fill_file(&suite, &mut m);
    xfer.run(&mut suite, &mut m, Path::Ilp);
    assert_eq!(m.peek(suite.app_out.base, file_len), &native_out[..]);
}

#[test]
fn ilp_sender_talks_to_non_ilp_receiver_and_back() {
    use ilp_repro::rpcapp::msg::ReplyMeta;
    use ilp_repro::rpcapp::paths::{pump_acks, recv_reply, send_reply};
    let mut space = AddressSpace::new();
    let mut suite = Suite::simplified(&mut space);
    let file = suite.file;
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    suite.init_world(&mut m);
    for i in 0..2048 {
        m.write_u8(file.at(i), (i % 241) as u8);
    }
    // Alternate all four combinations over a sequence of chunks.
    for (i, (send_path, recv_path)) in [
        (Path::Ilp, Path::Ilp),
        (Path::Ilp, Path::NonIlp),
        (Path::NonIlp, Path::Ilp),
        (Path::NonIlp, Path::NonIlp),
    ]
    .into_iter()
    .enumerate()
    {
        let meta = ReplyMeta {
            request_id: 9,
            seq: i as u32,
            offset: (i * 512) as u32,
            last: 0,
            data_len: 512,
        };
        send_reply(send_path, &mut suite, &mut m, &meta, file.at(i * 512)).unwrap();
        let got = recv_reply(recv_path, &mut suite, &mut m);
        assert_eq!(got.unwrap().unwrap(), meta);
        pump_acks(&mut suite, &mut m);
    }
    for i in 0..2048 {
        assert_eq!(m.bytes(suite.app_out.at(i), 1)[0], (i % 241) as u8);
    }
}

#[test]
fn very_simple_cipher_end_to_end_on_simulated_alpha() {
    let mut space = AddressSpace::new();
    let mut suite = Suite::very_simple(&mut space);
    let mut m = SimMem::new(&space, &HostModel::axp3000_800());
    suite.init_world(&mut m);
    let xfer = FileTransfer { file_len: 5 * 1024, chunk: 1024, copies: 2 };
    xfer.fill_file(&suite, &mut m);
    let report = xfer.run(&mut suite, &mut m, Path::Ilp);
    assert_eq!(report.payload_bytes, 2 * 5 * 1024);
    assert!(xfer.verify_output(&suite, &mut m));
}

#[test]
fn ilp_moves_fewer_bytes_through_memory_end_to_end() {
    // Figure 13's claim at workload scale, as a regression test.
    let run = |path| {
        let mut space = AddressSpace::new();
        let mut suite = Suite::simplified(&mut space);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        suite.init_world(&mut m);
        let xfer = FileTransfer::paper_default(1024);
        xfer.fill_file(&suite, &mut m);
        let _ = m.take_phase_stats();
        xfer.run(&mut suite, &mut m, path);
        let (user, _) = m.take_phase_stats();
        (user.reads.total(), user.writes.total())
    };
    let (ilp_r, ilp_w) = run(Path::Ilp);
    let (non_r, non_w) = run(Path::NonIlp);
    assert!(ilp_r < non_r, "reads: {ilp_r} !< {non_r}");
    assert!(ilp_w < non_w, "writes: {ilp_w} !< {non_w}");
    // The paper reports roughly 30% fewer accesses; require at least 10%.
    assert!((ilp_r + ilp_w) as f64 <= 0.9 * (non_r + non_w) as f64);
}
