//! The measurement driver: run the file-transfer workload over a
//! simulated host and derive the paper's quantities.
//!
//! One [`measure`] call reproduces one data point: it builds a fresh
//! protocol suite, runs the paper's workload (15 KB file, repeated, in
//! `chunk`-byte messages over loop-back) on a [`SimMem`] configured with
//! the host's cache hierarchy, splits the access stream into
//! send-processing / receive-processing / system phases, and prices the
//! phases with the host cost model:
//!
//! * **send/receive packet processing** — user-phase simulated cost per
//!   packet plus the host's fixed per-packet user overhead (the paper's
//!   Figures 6/7/10 quantity);
//! * **system time** — system-phase cost (the system copies) plus two
//!   user/kernel crossings plus the loop-back IP/driver/task-switch
//!   charge;
//! * **throughput** — payload bits over the per-packet total (Figures
//!   8/9).

use cipher::CipherKernel;
use memsim::{AddressSpace, HostModel, RunStats, SimMem};
use rpcapp::app::Path;
use rpcapp::msg::ReplyMeta;
use rpcapp::paths::{pump_acks, recv_reply, send_reply};
use rpcapp::suite::Suite;

/// Re-export of the application path selector.
pub type PathKind = Path;

/// Measurement parameters.
#[derive(Debug, Clone, Copy)]
pub struct MeasureCfg {
    /// Message (file chunk) size in bytes — the paper's "packet size".
    pub chunk: usize,
    /// Measured packets (after warm-up).
    pub packets: usize,
    /// Warm-up packets excluded from the counters.
    pub warmup: usize,
}

impl MeasureCfg {
    /// Default timing configuration (enough packets to amortise cold
    /// state, honouring `ILP_PACKETS` if set).
    pub fn timing(chunk: usize) -> Self {
        let packets = std::env::var("ILP_PACKETS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60);
        MeasureCfg { chunk, packets, warmup: 8 }
    }

    /// Volume configuration for the Fig. 13/14 access-count experiments:
    /// enough packets to carry `mb` megabytes of payload.
    pub fn volume(chunk: usize, mb: f64) -> Self {
        let packets = ((mb * 1e6) / chunk as f64).ceil() as usize;
        MeasureCfg { chunk, packets, warmup: 4 }
    }
}

/// Transfer volume of the access-count experiments (Figs. 13/14, the
/// §4.2 ATOM accounting) in megabytes: the paper's 10.7 unless
/// `ILP_VOLUME_MB` overrides it.
pub fn volume_mb() -> f64 {
    std::env::var("ILP_VOLUME_MB").ok().and_then(|v| v.parse().ok()).unwrap_or(10.7)
}

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Host that was simulated.
    pub host: HostModel,
    /// Configuration used.
    pub cfg: MeasureCfg,
    /// Which implementation ran.
    pub path: Path,
    /// Send packet-processing time (µs).
    pub send_us: f64,
    /// Receive packet-processing time (µs).
    pub recv_us: f64,
    /// System time per packet (µs).
    pub system_us: f64,
    /// Loop-back throughput (Mbps of application payload).
    pub throughput_mbps: f64,
    /// Send-side user-phase totals over all measured packets.
    pub send_stats: RunStats,
    /// Receive-side user-phase totals.
    pub recv_stats: RunStats,
    /// System-phase totals (both directions).
    pub system_stats: RunStats,
    /// Packets measured.
    pub packets: usize,
}

impl Measurement {
    /// Per-packet total time (µs).
    pub fn total_us(&self) -> f64 {
        self.send_us + self.recv_us + self.system_us
    }

    /// Combined user-phase stats (send + receive), e.g. for Fig. 13/14
    /// whole-run counts.
    pub fn user_stats(&self) -> RunStats {
        let mut s = self.send_stats.clone();
        s.absorb(&self.recv_stats);
        s
    }
}

/// Run one data point with the simplified SAFER K-64 suite.
pub fn measure(host: &HostModel, cfg: MeasureCfg, path: Path) -> Measurement {
    let mut space = AddressSpace::new();
    let suite = Suite::simplified(&mut space);
    run(host, cfg, path, space, suite)
}

/// Run one data point with the very simple cipher suite.
pub fn measure_simple_cipher(host: &HostModel, cfg: MeasureCfg, path: Path) -> Measurement {
    let mut space = AddressSpace::new();
    let suite = Suite::very_simple(&mut space);
    run(host, cfg, path, space, suite)
}

/// Run one data point over a caller-built suite (any cipher) — used by
/// the cipher-complexity ablation.
pub fn measure_custom<C: CipherKernel + Copy>(
    host: &HostModel,
    cfg: MeasureCfg,
    path: Path,
    build: impl FnOnce(&mut AddressSpace) -> Suite<C>,
) -> Measurement {
    let mut space = AddressSpace::new();
    let suite = build(&mut space);
    run(host, cfg, path, space, suite)
}

fn run<C: CipherKernel + Copy>(
    host: &HostModel,
    cfg: MeasureCfg,
    path: Path,
    space: AddressSpace,
    mut suite: Suite<C>,
) -> Measurement {
    let mut m = SimMem::new(&space, host);
    m.set_region_attribution(false);
    suite.init_world(&mut m);
    let file = suite.file;

    // Deterministic file contents (test-pattern; contents do not affect
    // costs, only correctness checks).
    let file_len = rpcapp::suite::MAX_FILE.min(16 * 1024);
    for i in 0..file_len {
        m.poke(file.at(i), &[(i % 251) as u8]);
    }

    let mut send_total = RunStats::default();
    let mut recv_total = RunStats::default();
    let mut system_total = RunStats::default();
    let max_offset = file_len - cfg.chunk.min(file_len);

    let _ = m.take_phase_stats(); // drop setup traffic
    for i in 0..cfg.warmup + cfg.packets {
        let measured = i >= cfg.warmup;
        let offset = if max_offset == 0 { 0 } else { (i * cfg.chunk) % max_offset };
        let meta = ReplyMeta {
            request_id: 1,
            seq: i as u32,
            offset: offset as u32,
            last: 0,
            data_len: cfg.chunk as u32,
        };

        // --- send phase ---
        send_reply(path, &mut suite, &mut m, &meta, file.at(offset))
            .expect("loop-back send never blocks at this rate");
        let (send_user, send_sys) = m.take_phase_stats();

        // --- receive phase ---
        let outcome = recv_reply(path, &mut suite, &mut m);
        assert!(matches!(outcome, Some(Ok(_))), "clean loop-back must accept");
        let (recv_user, recv_sys) = m.take_phase_stats();

        // --- ACK handling back at the sender (part of send processing) ---
        pump_acks(&mut suite, &mut m);
        suite.tx.tick(&mut m, &mut suite.lb);
        let (ack_user, ack_sys) = m.take_phase_stats();

        if measured {
            send_total.absorb(&send_user);
            send_total.absorb(&ack_user);
            recv_total.absorb(&recv_user);
            system_total.absorb(&send_sys);
            system_total.absorb(&recv_sys);
            system_total.absorb(&ack_sys);
        }
    }

    let n = cfg.packets as f64;
    let send_us = host.cost(&send_total).total_us / n + host.per_packet_user_us;
    let recv_us = host.cost(&recv_total).total_us / n + host.per_packet_user_us;
    let system_us =
        host.cost(&system_total).total_us / n + 2.0 * host.syscall_us + host.driver_us;
    let total_us = send_us + recv_us + system_us;
    let throughput_mbps = (cfg.chunk as f64 * 8.0) / total_us;

    Measurement {
        host: host.clone(),
        cfg,
        path,
        send_us,
        recv_us,
        system_us,
        throughput_mbps,
        send_stats: send_total,
        recv_stats: recv_total,
        system_stats: system_total,
        packets: cfg.packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(chunk: usize) -> MeasureCfg {
        MeasureCfg { chunk, packets: 12, warmup: 3 }
    }

    #[test]
    fn ilp_beats_non_ilp_on_every_sparc() {
        for host in [HostModel::ss10_30(), HostModel::ss20_60()] {
            let ilp = measure(&host, quick(1024), Path::Ilp);
            let non = measure(&host, quick(1024), Path::NonIlp);
            assert!(
                ilp.send_us < non.send_us,
                "{}: ILP send {:.0} vs non-ILP {:.0}",
                host.name,
                ilp.send_us,
                non.send_us
            );
            assert!(ilp.recv_us < non.recv_us, "{}", host.name);
            assert!(ilp.throughput_mbps > non.throughput_mbps, "{}", host.name);
        }
    }

    #[test]
    fn processing_grows_with_packet_size() {
        let host = HostModel::ss10_30();
        let small = measure(&host, quick(256), Path::Ilp);
        let large = measure(&host, quick(1280), Path::Ilp);
        assert!(large.send_us > small.send_us * 2.0);
        assert!(large.throughput_mbps > small.throughput_mbps, "amortised overhead");
    }

    #[test]
    fn ilp_saves_memory_accesses() {
        let host = HostModel::ss10_30();
        let ilp = measure(&host, quick(1024), Path::Ilp);
        let non = measure(&host, quick(1024), Path::NonIlp);
        let (saved_reads, saved_writes) = ilp.user_stats().savings_vs(&non.user_stats());
        assert!(saved_reads > 0, "ILP must read less ({saved_reads})");
        assert!(saved_writes > 0, "ILP must write less ({saved_writes})");
    }

    #[test]
    fn faster_hosts_process_faster() {
        let slow = measure(&HostModel::ss10_30(), quick(1024), Path::Ilp);
        let fast = measure(&HostModel::axp3000_800(), quick(1024), Path::Ilp);
        assert!(fast.send_us < slow.send_us);
        assert!(fast.recv_us < slow.recv_us);
    }

    #[test]
    fn system_time_is_significant() {
        // Paper: "data manipulations of the ILP implementation consume
        // approximately the same time as the system operations".
        let host = HostModel::ss10_30();
        let ilp = measure(&host, quick(1024), Path::Ilp);
        assert!(ilp.system_us > 0.3 * (ilp.send_us + ilp.recv_us));
    }
}
