//! §4.2 deep-dive — where the accesses and conflicts actually are.
//!
//! Records a Shade-style access trace of one 1 KB packet through each
//! implementation and answers the paper's analysis questions directly:
//! which regions dominate the traffic, how the byte-store share differs
//! (the 1-byte write signature of the SAFER cipher), and how temporal
//! locality (reuse distance) changes when passes are fused — the ILP
//! loop touches each payload line once, the layered stack several times
//! with short distances in between.

use crate::report::banner;
use memsim::{AddressSpace, HostModel, SimMem};
use obs::Json;
use rpcapp::app::Path;
use rpcapp::msg::ReplyMeta;
use rpcapp::paths::{recv_reply, send_reply};
use rpcapp::suite::Suite;

fn trace_one(path: Path) {
    let mut space = AddressSpace::new();
    let mut suite = Suite::simplified(&mut space);
    let file = suite.file;
    let mut m = SimMem::new(&space, &HostModel::ss10_30());
    suite.init_world(&mut m);
    // Warm one packet, then trace the second.
    let meta = |seq| ReplyMeta { request_id: 1, seq, offset: 0, last: 0, data_len: 1024 };
    send_reply(path, &mut suite, &mut m, &meta(0), file.base).unwrap();
    assert!(matches!(recv_reply(path, &mut suite, &mut m), Some(Ok(_))));
    m.start_trace(2_000_000);
    send_reply(path, &mut suite, &mut m, &meta(1), file.base).unwrap();
    assert!(matches!(recv_reply(path, &mut suite, &mut m), Some(Ok(_))));
    let trace = m.take_trace().expect("trace enabled");

    println!("--- {} ---", if path == Path::Ilp { "ILP" } else { "non-ILP" });
    println!("accesses traced: {} (dropped {})", trace.events().len(), trace.dropped);
    println!("1-byte-store share: {:.1}%", trace.byte_store_fraction() * 100.0);
    println!("top regions by traffic:");
    for (name, count) in trace.accesses_by_region(&space).into_iter().take(7) {
        println!("  {name:<18} {count:>7}");
    }
    // Reuse distance under the SS10-30's 512-set × 32 B geometry.
    let hist = trace.reuse_distance_histogram(32, 12);
    let total: u64 = hist.iter().sum();
    let within_l1: u64 = hist.iter().take(10).sum(); // 2^10 lines ≈ 16 KB/32 B + slack
    println!(
        "line reuses: {total}; fraction within an L1-sized window: {:.1}%",
        100.0 * within_l1 as f64 / total.max(1) as f64
    );
    let sets = trace.set_pressure(512, 32);
    let max_set = sets.iter().enumerate().max_by_key(|(_, &v)| v).unwrap();
    println!("hottest cache set: #{} with {} touches\n", max_set.0, max_set.1);
}

/// Run the analysis.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    banner("§4.2 trace", "access-trace analysis of one 1 KB packet (SS10-30)");
    trace_one(Path::NonIlp);
    trace_one(Path::Ilp);
    println!("(non-ILP shows more total traffic with short reuse distances — the");
    println!(" intermediate buffers; ILP shows less traffic but a higher byte-store");
    println!(" share, the §4.2 signature of fusing a byte-grain cipher)");
    Ok(None)
}
