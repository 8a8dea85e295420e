//! §4.2 ATOM accounting — whole-run execution and memory-system time on
//! the DEC AXP 3000/500 model, ILP vs non-ILP, plus the I-cache share.
//!
//! The paper (using DEC's ATOM): send execution 2.725 s → 2.466 s,
//! memory-system time 0.539 s → 0.494 s; receive memory-system time
//! nearly unchanged (0.295 s vs 0.292 s); and "in the ILP case, the
//! number of instruction cache misses is higher than in the non-ILP
//! case and it consumes 24–28% of the memory system time".
//!
//! Absolute seconds depend on the (unpublished) run length; the claims
//! under test are the *ratios* and the I-cache share.

use crate::measure::{measure, volume_mb, MeasureCfg, Measurement};
use crate::paper::atom;
use crate::report::{banner, Table};
use memsim::{HostModel, RunStats};
use obs::Json;
use rpcapp::app::Path;

/// Memory-system time of a phase in seconds: everything spent below the
/// registers/pipeline (cache and memory service).
fn memsys_s(host: &HostModel, stats: &RunStats) -> f64 {
    let c = host.cost(stats);
    (c.l1_cyc / host.clock_mhz + c.l2_us + c.mem_us) / 1e6
}

/// Execution time of a phase in seconds (compute + memory system).
fn exec_s(host: &HostModel, stats: &RunStats, fixed_us_per_packet: f64, packets: usize) -> f64 {
    host.cost(stats).total_us / 1e6 + fixed_us_per_packet * packets as f64 / 1e6
}

/// I-cache share of memory-system time.
fn icache_share(host: &HostModel, stats: &RunStats) -> f64 {
    let icache_us = stats.fetch_l2_accesses as f64 * host.l2_hit_ns / 1000.0
        + stats.fetch_memory_accesses as f64 * host.mem_ns / 1000.0;
    icache_us / (memsys_s(host, stats) * 1e6)
}

/// Run the experiment.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    let mb = volume_mb();
    banner("§4.2 ATOM", "whole-run accounting on the AXP 3000/500");
    println!("volume: {mb} MB in 1 kbyte messages\n");
    let host = HostModel::axp3000_500();
    let cfg = MeasureCfg::volume(1024, mb);
    let ilp = measure(&host, cfg, Path::Ilp);
    let non = measure(&host, cfg, Path::NonIlp);

    let report = |label: &str,
                  pick: fn(&Measurement) -> &RunStats,
                  paper_exec: (f64, f64),
                  paper_mem: (f64, f64)| {
        let mut t = Table::new(vec!["quantity", "paper ILP", "meas ILP", "paper nonILP", "meas nonILP"]);
        let (i_stats, n_stats) = (pick(&ilp), pick(&non));
        t.row(vec![
            format!("{label} exec (s)"),
            format!("{:.3}", paper_exec.0),
            format!("{:.3}", exec_s(&host, i_stats, host.per_packet_user_us, ilp.packets)),
            format!("{:.3}", paper_exec.1),
            format!("{:.3}", exec_s(&host, n_stats, host.per_packet_user_us, non.packets)),
        ]);
        t.row(vec![
            format!("{label} memsys (s)"),
            format!("{:.3}", paper_mem.0),
            format!("{:.3}", memsys_s(&host, i_stats)),
            format!("{:.3}", paper_mem.1),
            format!("{:.3}", memsys_s(&host, n_stats)),
        ]);
        t.print();
        println!();
    };

    report("send", |m| &m.send_stats, atom::SEND_EXEC_S, atom::SEND_MEMSYS_S);
    report("receive", |m| &m.recv_stats, atom::RECV_EXEC_S, atom::RECV_MEMSYS_S);

    println!(
        "exec ratio ILP/non-ILP: send {:.3} (paper {:.3}), recv {:.3} (paper {:.3})",
        exec_s(&host, &ilp.send_stats, host.per_packet_user_us, ilp.packets)
            / exec_s(&host, &non.send_stats, host.per_packet_user_us, non.packets),
        atom::SEND_EXEC_S.0 / atom::SEND_EXEC_S.1,
        exec_s(&host, &ilp.recv_stats, host.per_packet_user_us, ilp.packets)
            / exec_s(&host, &non.recv_stats, host.per_packet_user_us, non.packets),
        atom::RECV_EXEC_S.0 / atom::RECV_EXEC_S.1,
    );

    let (user_ilp, user_non) = (ilp.user_stats(), non.user_stats());
    println!(
        "\nI-cache share of memory-system time: ILP {:.0}% vs non-ILP {:.0}%  \
         (paper: ILP 24–28%, and higher than non-ILP)",
        icache_share(&host, &user_ilp) * 100.0,
        icache_share(&host, &user_non) * 100.0
    );
    Ok(None)
}
