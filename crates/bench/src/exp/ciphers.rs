//! Figures 11–14 — the cipher contrast on the SS10-30, 1 kbyte
//! messages: {simplified SAFER K-64, very simple cipher} × {ILP,
//! non-ILP}, read out as processing time (Fig. 11), throughput against
//! the in-kernel TCP (Fig. 12), memory accesses (Fig. 13) and
//! first-level data-cache misses (Fig. 14).
//!
//! Figs. 13/14 move the paper's 10.7 MB unless `ILP_VOLUME_MB` trades
//! accuracy for runtime; counts are reported at the paper's volume.

use crate::measure::{measure, measure_simple_cipher, volume_mb, MeasureCfg, Measurement};
use crate::paper::{fig11 as p11, fig12 as p12, fig13 as p13, fig14 as p14};
use crate::report::{banner, gain_pct, mbps, millions, pct, us, Table};
use memsim::{HostModel, RunStats, SizeClass};
use obs::Json;
use rpcapp::app::Path;
use utcp::kernel_model::KernelTcpModel;

/// The four runs every figure here reads.
struct Quad {
    safer_ilp: Measurement,
    safer_non: Measurement,
    simple_ilp: Measurement,
    simple_non: Measurement,
}

fn quad(host: &HostModel, cfg: MeasureCfg) -> Quad {
    Quad {
        safer_ilp: measure(host, cfg, Path::Ilp),
        safer_non: measure(host, cfg, Path::NonIlp),
        simple_ilp: measure_simple_cipher(host, cfg, Path::Ilp),
        simple_non: measure_simple_cipher(host, cfg, Path::NonIlp),
    }
}

/// The Fig. 13/14 runs, the volume they moved, and the factor that
/// scales a count to the paper's 10.7 MB.
fn volume_quad(id: &str, title: &str) -> (Quad, f64) {
    let mb = volume_mb();
    banner(id, title);
    println!("volume: {mb} MB in 1 kbyte messages (SS10-30 cache model)\n");
    (quad(&HostModel::ss10_30(), MeasureCfg::volume(1024, mb)), 10.7 / mb)
}

fn side(m: &Measurement, send: bool) -> &RunStats {
    if send {
        &m.send_stats
    } else {
        &m.recv_stats
    }
}

/// Figure 11 — packet processing with the two encryption functions.
/// The paper's point: the simpler cipher's ILP gain is *relatively*
/// much larger (32%/40% vs 14%/16%) because the data manipulations no
/// longer drown in table and byte traffic.
pub fn fig11(_: &[String]) -> Result<Option<Json>, String> {
    banner("Figure 11", "packet processing with different encryption functions (SS10-30, 1 kbyte)");
    let q = quad(&HostModel::ss10_30(), MeasureCfg::timing(1024));
    let mut table = Table::new(vec![
        "cipher/direction", "paper nonILP", "meas nonILP", "paper ILP", "meas ILP", "paper gain", "meas gain",
    ]);
    let rows: [(&str, (f64, f64), f64, f64); 4] = [
        ("SAFER  send", p11::SAFER_SEND, q.safer_non.send_us, q.safer_ilp.send_us),
        ("SAFER  recv", p11::SAFER_RECV, q.safer_non.recv_us, q.safer_ilp.recv_us),
        ("simple send", p11::SIMPLE_SEND, q.simple_non.send_us, q.simple_ilp.send_us),
        ("simple recv", p11::SIMPLE_RECV, q.simple_non.recv_us, q.simple_ilp.recv_us),
    ];
    for (label, (p_non, p_ilp), m_non, m_ilp) in rows {
        table.row(vec![
            label.to_string(),
            us(p_non),
            us(m_non),
            us(p_ilp),
            us(m_ilp),
            pct(gain_pct(p_non, p_ilp)),
            pct(gain_pct(m_non, m_ilp)),
        ]);
    }
    table.print();
    println!("\n(µs; the simple cipher's relative ILP gain must be the larger one)");
    Ok(None)
}

/// Assemble the kernel-TCP throughput from a non-ILP measurement: same
/// simulated manipulation and copy costs, kernel placement discounts.
fn kernel_tput(host: &HostModel, non: &Measurement) -> f64 {
    let total = non.total_us()
        - (1.0 - KernelTcpModel::CONTROL_FACTOR) * 2.0 * host.per_packet_user_us
        - (1.0 - KernelTcpModel::DRIVER_FACTOR) * host.driver_us;
    (non.cfg.chunk as f64 * 8.0) / total
}

/// Figure 12 — throughput of the user-level ILP and non-ILP
/// implementations against the in-kernel BSD TCP configuration, with
/// both ciphers.
///
/// The kernel configuration keeps the same data-manipulation costs (run
/// as separate user-space passes — fusion across the user/kernel
/// boundary is impossible) but enjoys the two advantages the paper
/// names: ACKs never cross into user space, and the control path is the
/// mature BSD one ([`utcp::kernel_model::KernelTcpModel`]).
pub fn fig12(_: &[String]) -> Result<Option<Json>, String> {
    banner("Figure 12", "throughput with different encryption functions vs kernel TCP (SS10-30, 1 kbyte)");
    let host = HostModel::ss10_30();
    let q = quad(&host, MeasureCfg::timing(1024));
    let mut table = Table::new(vec!["cipher", "config", "paper Mbps", "measured Mbps"]);
    let rows = [
        ("SAFER", "non-ILP", p12::SAFER.0, q.safer_non.throughput_mbps),
        ("SAFER", "ILP", p12::SAFER.1, q.safer_ilp.throughput_mbps),
        ("SAFER", "kernel TCP", p12::SAFER.2, kernel_tput(&host, &q.safer_non)),
        ("simple", "non-ILP", p12::SIMPLE.0, q.simple_non.throughput_mbps),
        ("simple", "ILP", p12::SIMPLE.1, q.simple_ilp.throughput_mbps),
        ("simple", "kernel TCP", p12::SIMPLE.2, kernel_tput(&host, &q.simple_non)),
    ];
    for (cipher, config, p, m) in rows {
        table.row(vec![cipher.to_string(), config.to_string(), mbps(p), mbps(m)]);
    }
    table.print();
    println!("\n(ordering to preserve: kernel TCP > ILP > non-ILP for each cipher,");
    println!(" with the kernel advantage larger under the cheap cipher)");
    Ok(None)
}

/// Figure 13 — memory accesses for transferring 10.7 Mbyte of data:
/// read and write access counts (user-space protocol work) for both
/// ciphers × {send, receive} × {ILP, non-ILP}.
pub fn fig13(_: &[String]) -> Result<Option<Json>, String> {
    let (q, scale) = volume_quad("Figure 13", "memory accesses (user space) for transferring data");
    let reads = |m: &Measurement, send: bool| (side(m, send).reads.total() as f64 * scale) as u64;
    let writes = |m: &Measurement, send: bool| (side(m, send).writes.total() as f64 * scale) as u64;

    let mut table = Table::new(vec![
        "series", "paper ILP", "meas ILP", "paper nonILP", "meas nonILP",
    ]);
    let rows = [
        ("SAFER send reads", p13::SAFER_SEND_READS, reads(&q.safer_ilp, true), reads(&q.safer_non, true)),
        ("SAFER recv reads", p13::SAFER_RECV_READS, reads(&q.safer_ilp, false), reads(&q.safer_non, false)),
        ("simple send reads", p13::SIMPLE_SEND_READS, reads(&q.simple_ilp, true), reads(&q.simple_non, true)),
        ("simple recv reads", p13::SIMPLE_RECV_READS, reads(&q.simple_ilp, false), reads(&q.simple_non, false)),
        ("SAFER send writes", p13::SAFER_SEND_WRITES, writes(&q.safer_ilp, true), writes(&q.safer_non, true)),
        ("SAFER recv writes", p13::SAFER_RECV_WRITES, writes(&q.safer_ilp, false), writes(&q.safer_non, false)),
        ("simple send writes", p13::SIMPLE_SEND_WRITES, writes(&q.simple_ilp, true), writes(&q.simple_non, true)),
        ("simple recv writes", p13::SIMPLE_RECV_WRITES, writes(&q.simple_ilp, false), writes(&q.simple_non, false)),
    ];
    for (label, (p_ilp, p_non), m_ilp, m_non) in rows {
        table.row(vec![
            label.to_string(),
            format!("{p_ilp:.1}"),
            millions(m_ilp),
            format!("{p_non:.1}"),
            millions(m_non),
        ]);
    }
    table.print();

    let (saved_r, saved_w) = q.safer_ilp.user_stats().savings_vs(&q.safer_non.user_stats());
    println!("\n(counts ×10⁶, normalised to 10.7 MB)");
    println!(
        "SAFER total savings: {:.1}M reads, {:.1}M writes (paper: 13.7M reads, 12M writes on send; \
         8.4M/8.3M on receive)",
        saved_r as f64 * scale / 1e6,
        saved_w as f64 * scale / 1e6
    );
    Ok(None)
}

/// Figure 14 — first-level data-cache misses for the Figure 13 runs,
/// plus the paper's §4.2 miss-ratio observation: ILP *raises* the
/// receive-side miss ratio (4.7% → 18.7% in the paper) because the
/// byte-grain cipher writes miss in the streamed destination while the
/// total access count shrinks.
pub fn fig14(_: &[String]) -> Result<Option<Json>, String> {
    let (q, scale) = volume_quad("Figure 14", "first-level data-cache misses");
    let rm = |m: &Measurement, send: bool| side(m, send).total_read_misses() as f64 * scale / 1e6;
    let wm = |m: &Measurement, send: bool| side(m, send).total_write_misses() as f64 * scale / 1e6;

    let mut table = Table::new(vec![
        "series", "paper ILP", "meas ILP", "paper nonILP", "meas nonILP",
    ]);
    let rows = [
        ("SAFER send read misses", p14::SAFER_SEND_READ_MISSES, rm(&q.safer_ilp, true), rm(&q.safer_non, true)),
        ("SAFER recv read misses", p14::SAFER_RECV_READ_MISSES, rm(&q.safer_ilp, false), rm(&q.safer_non, false)),
        ("SAFER send write misses", p14::SAFER_SEND_WRITE_MISSES, wm(&q.safer_ilp, true), wm(&q.safer_non, true)),
        ("SAFER recv write misses", p14::SAFER_RECV_WRITE_MISSES, wm(&q.safer_ilp, false), wm(&q.safer_non, false)),
    ];
    for (label, (p_ilp, p_non), m_ilp, m_non) in rows {
        table.row(vec![
            label.to_string(),
            format!("{p_ilp:.1}"),
            format!("{m_ilp:.1}"),
            format!("{p_non:.1}"),
            format!("{m_non:.1}"),
        ]);
    }
    table.print();
    println!("(misses ×10⁶, normalised to 10.7 MB)\n");

    // Simple-cipher contrast: ILP should now *reduce* misses.
    println!("very simple cipher (paper: ILP halves send misses, receive slightly down):");
    println!(
        "  send misses  ILP {:.1}M vs non-ILP {:.1}M",
        rm(&q.simple_ilp, true) + wm(&q.simple_ilp, true),
        rm(&q.simple_non, true) + wm(&q.simple_non, true),
    );
    println!(
        "  recv misses  ILP {:.1}M vs non-ILP {:.1}M",
        rm(&q.simple_ilp, false) + wm(&q.simple_ilp, false),
        rm(&q.simple_non, false) + wm(&q.simple_non, false),
    );

    // Miss ratios and the 1-byte pathology.
    println!("\nreceive-side miss ratio (paper: ILP {:.1}% vs non-ILP {:.1}%):",
        p14::RECV_MISS_RATIO.0 * 100.0, p14::RECV_MISS_RATIO.1 * 100.0);
    println!(
        "  measured: ILP {:.1}% vs non-ILP {:.1}%",
        q.safer_ilp.recv_stats.data_miss_ratio() * 100.0,
        q.safer_non.recv_stats.data_miss_ratio() * 100.0
    );
    println!("\n1-byte write misses on send (paper: 0.03M non-ILP → 2M ILP):");
    println!(
        "  measured: non-ILP {:.2}M → ILP {:.2}M",
        q.safer_non.send_stats.write_misses(SizeClass::B1) as f64 * scale / 1e6,
        q.safer_ilp.send_stats.write_misses(SizeClass::B1) as f64 * scale / 1e6
    );
    Ok(None)
}
