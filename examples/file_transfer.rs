//! The paper's workload end to end: a 15 kbyte file transferred over
//! the full stack — RPC marshalling, simplified-SAFER encryption,
//! user-level TCP with ring buffer and ACKs, loop-back kernel part —
//! through both the ILP and the non-ILP implementation, on a simulated
//! SPARCstation 10-30.
//!
//! ```bash
//! cargo run --release --example file_transfer
//! ```

use ilp_repro::memsim::{AddressSpace, HostModel, SimMem};
use ilp_repro::rpcapp::app::{FileTransfer, Path};
use ilp_repro::rpcapp::msg::FileRequest;
use ilp_repro::rpcapp::suite::Suite;
use ilp_repro::xdr::stubgen::Opaque;

fn run(path: Path) {
    let mut space = AddressSpace::new();
    let mut suite = Suite::simplified(&mut space);
    let host = HostModel::ss10_30();
    let mut m = SimMem::new(&space, &host);
    suite.init_world(&mut m);

    let xfer = FileTransfer::paper_default(1024);
    xfer.fill_file(&suite, &mut m);
    let _ = m.take_phase_stats();

    // The RPC flow of the paper: the client asks for the file (name, copy
    // count, reply size); the server segments and streams it back.
    let request = FileRequest {
        file_id: 1,
        copies: 1,
        max_reply_len: 1024,
        name: Opaque(b"paper.ps".to_vec()),
    };
    let report = FileTransfer::run_rpc(&mut suite, &mut m, path, &request, xfer.file_len);
    let (user, system) = m.take_phase_stats();

    assert!(xfer.verify_output(&suite, &mut m), "file must arrive intact");
    let user_us = host.cost(&user).total_us;
    let system_us = host.cost(&system).total_us;
    println!("{path:?}:");
    println!("  {} replies, {} payload bytes, {} rejected", report.replies, report.payload_bytes, report.rejected);
    println!("  TCP: {} data segments, {} ACKs, {} retransmits",
        suite.tx.stats.data_sent, suite.rx.stats.acks_sent, suite.tx.stats.retransmits);
    println!("  simulated user time {user_us:.0} µs, system-copy time {system_us:.0} µs");
    println!("  user memory traffic: {} reads, {} writes\n", user.reads.total(), user.writes.total());
}

fn main() {
    println!("15 kbyte file, 1 kbyte messages, loop-back on a simulated SS10-30\n");
    run(Path::NonIlp);
    run(Path::Ilp);
    println!("(the ILP run moves the same file with fewer memory accesses —");
    println!(" the paper's Figure 13 in miniature)");
}
