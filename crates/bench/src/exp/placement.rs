//! Two ablations over the same single-pair loop on the simplified-SAFER
//! suite, 1 kbyte messages, differing only in which send and receive
//! routines run.
//!
//! **§3.2.2 placement policies.** *Receive*: manipulating the data
//! "very close to the read system call" (the default — errors known
//! before TCP control actions) versus "very close to the application
//! operations" (TCP verifies and ACKs first, the fused decrypt+unmarshal
//! runs later). The paper measured the two within ≈5 µs; the late
//! variant pays one extra checksum read pass here. *Send*: when the ring
//! is full, manipulating early into a staging buffer costs an extra copy
//! later; the paper chose to delay the whole loop instead. We measure
//! what that extra copy costs.
//!
//! **§5 trailers.** "Trailer fields for protocol information dependent
//! on user data could simplify ILP processing, although trailers make
//! parsing of protocol information more complex" (§3.1) — and §5
//! recommends them for future protocol designs. We implemented the
//! trailer wire format (`rpcapp::trailer`) and compare it against the
//! paper's header-with-length format that forces the B→C→A part
//! schedule: identical payloads, identical stages, only the position of
//! the length field differs.

use crate::report::{banner, us, Table};
use memsim::{AddressSpace, HostModel, RunStats, SimMem};
use obs::Json;
use rpcapp::app::Path;
use rpcapp::msg::ReplyMeta;
use rpcapp::paths::{
    pump_acks, recv_reply, recv_reply_ilp_late, send_reply, send_reply_ilp_staged,
};
use rpcapp::suite::Suite;
use rpcapp::trailer::{recv_reply_ilp_trailer, send_reply_ilp_trailer};

const CHUNK: usize = 1024;
const WARM: usize = 8;
const PACKETS: usize = 60;

type SendFn = fn(
    &mut Suite<cipher::SimplifiedSafer>,
    &mut SimMem,
    &ReplyMeta,
    usize,
) -> Result<usize, utcp::SendError>;
type RecvFn = fn(&mut Suite<cipher::SimplifiedSafer>, &mut SimMem) -> rpcapp::paths::RecvOutcome;

/// The default ILP send: the whole loop delayed until the ring has room.
const SEND_ILP: SendFn = |s, m, meta, data_addr| send_reply(Path::Ilp, s, m, meta, data_addr);
/// The default ILP receive: manipulation at the read system call.
const RECV_ILP: RecvFn = |s, m| recv_reply(Path::Ilp, s, m);

/// One side's user-phase result: µs per packet and the access totals.
struct Side {
    us: f64,
    stats: RunStats,
}

/// Measure (send, receive) for a given pair of send/recv drivers.
fn run(host: &HostModel, send: SendFn, recv: RecvFn) -> (Side, Side) {
    let mut space = AddressSpace::new();
    let mut suite = Suite::simplified(&mut space);
    let file = suite.file;
    let mut m = SimMem::new(&space, host);
    m.set_region_attribution(false);
    suite.init_world(&mut m);
    let mut send_total = RunStats::default();
    let mut recv_total = RunStats::default();
    let _ = m.take_phase_stats();
    for i in 0..WARM + PACKETS {
        let meta = ReplyMeta {
            request_id: 1,
            seq: i as u32,
            offset: ((i * CHUNK) % (8 * 1024)) as u32,
            last: 0,
            data_len: CHUNK as u32,
        };
        send(&mut suite, &mut m, &meta, file.at(meta.offset as usize)).unwrap();
        let (send_user, _) = m.take_phase_stats();
        assert!(matches!(recv(&mut suite, &mut m), Some(Ok(_))));
        let (recv_user, _) = m.take_phase_stats();
        pump_acks(&mut suite, &mut m);
        let (ack_user, _) = m.take_phase_stats();
        if i >= WARM {
            send_total.absorb(&send_user);
            send_total.absorb(&ack_user);
            recv_total.absorb(&recv_user);
        }
    }
    let side = |stats: RunStats| Side {
        us: host.cost(&stats).total_us / PACKETS as f64 + host.per_packet_user_us,
        stats,
    };
    (side(send_total), side(recv_total))
}

/// §3.2.2 — early vs late receive manipulation, delayed vs staged send.
pub fn placement(_: &[String]) -> Result<Option<Json>, String> {
    banner("§3.2.2", "data-manipulation placement policies (SS10-30, 1 kbyte)");
    let host = HostModel::ss10_30();

    let (send_base, recv_early) = run(&host, SEND_ILP, RECV_ILP);
    let (_, recv_late) = run(&host, SEND_ILP, recv_reply_ilp_late);
    let (send_staged, _) = run(&host, send_reply_ilp_staged, RECV_ILP);

    println!("receive placement (paper: within ≈5 µs of each other):");
    println!("  early (at the read syscall, fused checksum): {} µs", us(recv_early.us));
    println!("  late  (at the application, checksum first):  {} µs", us(recv_late.us));
    println!("  difference: {:+.0} µs\n", recv_late.us - recv_early.us);

    println!("send pre-manipulation when the ring is full (paper: delaying preferred;");
    println!("early manipulation would save ≈100 µs of latency but costs an extra copy):");
    println!("  delay whole loop (default): {} µs", us(send_base.us));
    println!("  manipulate early + copy:    {} µs", us(send_staged.us));
    println!("  extra copy cost: {:+.0} µs", send_staged.us - send_base.us);
    Ok(None)
}

/// §5 — header format (B→C→A schedule) vs trailer format (linear pass).
pub fn trailer(_: &[String]) -> Result<Option<Json>, String> {
    banner("§5 trailers", "header-format (B→C→A schedule) vs trailer-format (linear pass)");
    println!("1 kbyte messages, simplified SAFER, ILP both ways\n");
    for host in [HostModel::ss10_30(), HostModel::axp3000_800()] {
        println!("--- {} ---", host.name);
        let mut t = Table::new(vec!["format", "send µs", "recv µs", "send accesses", "recv accesses"]);
        let formats: [(&str, SendFn, RecvFn); 2] = [
            ("header (B→C→A)", SEND_ILP, RECV_ILP),
            ("trailer (linear)", send_reply_ilp_trailer, recv_reply_ilp_trailer),
        ];
        for (format, send, recv) in formats {
            let (s, r) = run(&host, send, recv);
            t.row(vec![
                format.to_string(),
                us(s.us),
                us(r.us),
                (s.stats.data_accesses() / PACKETS as u64).to_string(),
                (r.stats.data_accesses() / PACKETS as u64).to_string(),
            ]);
        }
        t.print();
        println!();
    }
    println!("(the trailer format removes the part-reordering machinery — same");
    println!(" traffic, slightly less loop overhead — at the price of parsing");
    println!(" the length only after the whole message arrived, as §5 predicts)");
    Ok(None)
}
