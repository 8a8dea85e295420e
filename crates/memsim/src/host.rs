//! Cost models for the paper's seven 1995 workstations.
//!
//! The paper measured wall-clock packet-processing times and throughput on
//! four SUN SPARCstations (10-30, 10-41, 10-51, 20-60) and three DEC AXP
//! 3000 models (/500, /600, /800). We cannot run on that hardware, so a
//! [`HostModel`] converts the *simulated* event counts of a run
//! ([`crate::RunStats`]) into microseconds:
//!
//! ```text
//! µs =   (compute_ops · cpi  +  L1_hits · l1_hit_cyc
//!         + writes · write_through_extra_cyc) / clock_mhz
//!      + L2_served · l2_hit_ns / 1000
//!      + memory_served · mem_ns / 1000
//! ```
//!
//! plus fixed per-packet charges for the machinery that is not simulated
//! instruction-by-instruction (user-level TCP bookkeeping, system-call
//! crossings, IP + driver + task-switch time on the loop-back path).
//!
//! Cache geometries follow the paper and processor manuals:
//!
//! * **SuperSPARC** (SS10/SS20): 16 KB L1 data cache, 20 KB instruction
//!   cache (§1 of the paper). We simulate the data cache direct-mapped with
//!   32-byte lines, matching the behaviour of Shade's `cachesim`
//!   configuration the paper's conflict-eviction observations imply; the
//!   instruction cache is 5-way with 64-byte lines as in the SuperSPARC
//!   manual. SS10-30 has **no** second-level cache (the paper's
//!   1280-byte-packet throughput dip); the others carry a 1 MB board cache.
//! * **Alpha 21064** (AXP 3000): 8 KB direct-mapped write-through
//!   no-write-allocate data cache, 8 KB instruction cache (§1), and a
//!   512 KB board-level cache for the /500 (§4.2, the ATOM configuration).
//!
//! The fixed overhead constants are *calibrated* so that the simulated 1 KB
//! results land near the paper's Table 1 (see `crates/bench`), and the
//! calibration is asserted by tests — but all ILP-vs-non-ILP *differences*
//! come from the simulated access streams, never from these constants: the
//! same constants are charged to both implementations.

use crate::cache::{CacheSpec, WritePolicy};
use crate::stats::RunStats;

/// A modelled 1995 workstation.
#[derive(Debug, Clone)]
pub struct HostModel {
    /// Marketing name, e.g. "SS10-30".
    pub name: &'static str,
    /// Operating system the paper ran, e.g. "SunOS 4.1.3".
    pub os: &'static str,
    /// CPU clock in MHz.
    pub clock_mhz: f64,
    /// Average cycles per register-only ALU operation (accounts for issue
    /// width and pipeline quality).
    pub cpi: f64,
    /// First-level data cache.
    pub l1d: CacheSpec,
    /// First-level instruction cache.
    pub l1i: CacheSpec,
    /// Optional unified second-level cache.
    pub l2: Option<CacheSpec>,
    /// Cycles for an L1 hit (load-use).
    pub l1_hit_cyc: f64,
    /// Nanoseconds to service an access from the L2 cache.
    pub l2_hit_ns: f64,
    /// Nanoseconds to service an access from main memory.
    pub mem_ns: f64,
    /// Extra cycles per store on write-through L1s (write-buffer pressure;
    /// 0 for write-back caches).
    pub write_through_extra_cyc: f64,
    /// Extra cycles per 1-byte access. The Alpha 21064 has no byte
    /// load/store instructions — byte traffic costs extract/insert/mask
    /// sequences — which is part of why the byte-oriented cipher hurts
    /// more there (§4.2).
    pub byte_op_extra_cyc: f64,
    /// Fixed per-packet user-space protocol overhead in µs (timers,
    /// signal handling, bookkeeping not simulated per-access).
    pub per_packet_user_us: f64,
    /// Cost of one user/kernel crossing in µs.
    pub syscall_us: f64,
    /// Per-packet IP + driver + task-switch time on the loop-back path in
    /// µs (throughput only; not part of packet-processing time).
    pub driver_us: f64,
}

/// Cost of one simulated phase, derived from its [`RunStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCost {
    /// Cycles spent on register computation.
    pub compute_cyc: f64,
    /// Cycles spent on L1 hits (plus write-through overhead).
    pub l1_cyc: f64,
    /// Microseconds spent in the L2 cache.
    pub l2_us: f64,
    /// Microseconds spent in main memory.
    pub mem_us: f64,
    /// Total microseconds.
    pub total_us: f64,
}

/// Send/receive/system breakdown for one packet, in µs, plus the derived
/// loop-back throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketCost {
    /// Send-side packet-processing time (user-space data manipulations +
    /// user-level TCP), the paper's Figure 7 quantity.
    pub send_us: f64,
    /// Receive-side packet-processing time, the paper's Figure 6 quantity.
    pub recv_us: f64,
    /// System time per packet: system copies, crossings, IP/driver/task
    /// switch.
    pub system_us: f64,
    /// Payload bytes carried by the packet.
    pub payload_bytes: usize,
}

impl PacketCost {
    /// Total loop-back time for one packet in µs.
    pub fn total_us(&self) -> f64 {
        self.send_us + self.recv_us + self.system_us
    }

    /// Application-level throughput in Mbps (payload bits per µs), the
    /// paper's Figures 8/9 quantity.
    pub fn throughput_mbps(&self) -> f64 {
        (self.payload_bytes as f64 * 8.0) / self.total_us()
    }
}

impl HostModel {
    /// Convert the event counts of one phase into time.
    pub fn cost(&self, stats: &RunStats) -> RunCost {
        let compute_cyc = stats.compute_ops as f64 * self.cpi;
        let l1_served = stats.l1_accesses as f64;
        let wt_extra = stats.writes.total() as f64 * self.write_through_extra_cyc;
        let byte_accesses = (stats.reads.by_size(crate::stats::SizeClass::B1)
            + stats.writes.by_size(crate::stats::SizeClass::B1)) as f64;
        let l1_cyc =
            l1_served * self.l1_hit_cyc + wt_extra + byte_accesses * self.byte_op_extra_cyc;
        let l2_us = stats.l2_accesses as f64 * self.l2_hit_ns / 1000.0;
        let mem_us = stats.memory_accesses as f64 * self.mem_ns / 1000.0;
        let cyc_us = (compute_cyc + l1_cyc) / self.clock_mhz;
        RunCost { compute_cyc, l1_cyc, l2_us, mem_us, total_us: cyc_us + l2_us + mem_us }
    }

    // --- the seven hosts of the paper ---

    /// All seven hosts in the paper's Table 1 order.
    pub fn all() -> Vec<HostModel> {
        vec![
            Self::ss10_30(),
            Self::ss10_41(),
            Self::ss10_51(),
            Self::ss20_60(),
            Self::axp3000_500(),
            Self::axp3000_600(),
            Self::axp3000_800(),
        ]
    }

    /// The four hosts shown in the paper's Figures 9 and 10.
    pub fn figure_hosts() -> Vec<HostModel> {
        vec![Self::ss10_30(), Self::ss10_41(), Self::ss20_60(), Self::axp3000_800()]
    }

    fn supersparc_l1d() -> CacheSpec {
        CacheSpec {
            size: 16 * 1024,
            line: 32,
            assoc: 1,
            write: WritePolicy::WriteBack,
            write_allocate: true,
        }
    }

    fn supersparc_l1i() -> CacheSpec {
        CacheSpec {
            size: 20 * 1024,
            line: 64,
            assoc: 5,
            write: WritePolicy::WriteBack,
            write_allocate: true,
        }
    }

    fn sparc_l2(size_kb: usize) -> CacheSpec {
        CacheSpec {
            size: size_kb * 1024,
            line: 64,
            assoc: 1,
            write: WritePolicy::WriteBack,
            write_allocate: true,
        }
    }

    fn alpha_l1d() -> CacheSpec {
        CacheSpec {
            size: 8 * 1024,
            line: 32,
            assoc: 1,
            write: WritePolicy::WriteThrough,
            write_allocate: false,
        }
    }

    fn alpha_l1i() -> CacheSpec {
        CacheSpec {
            size: 8 * 1024,
            line: 32,
            assoc: 1,
            write: WritePolicy::WriteBack,
            write_allocate: true,
        }
    }

    fn alpha_l2(size_kb: usize) -> CacheSpec {
        CacheSpec {
            size: size_kb * 1024,
            line: 32,
            assoc: 1,
            write: WritePolicy::WriteBack,
            write_allocate: true,
        }
    }

    /// SPARCstation 10 model 30: 36 MHz SuperSPARC, **no** second-level
    /// cache, SunOS 4.1.3.
    pub fn ss10_30() -> HostModel {
        HostModel {
            name: "SS10-30",
            os: "SunOS 4.1.3",
            clock_mhz: 36.0,
            cpi: 0.78,
            l1d: Self::supersparc_l1d(),
            l1i: Self::supersparc_l1i(),
            l2: None,
            l1_hit_cyc: 1.0,
            l2_hit_ns: 0.0,
            mem_ns: 420.0,
            write_through_extra_cyc: 0.0,
            byte_op_extra_cyc: 0.0,
            per_packet_user_us: 26.0,
            syscall_us: 45.0,
            driver_us: 760.0,
        }
    }

    /// SPARCstation 10 model 41: 40 MHz SuperSPARC, 1 MB board cache,
    /// SunOS 4.1.3.
    pub fn ss10_41() -> HostModel {
        HostModel {
            name: "SS10-41",
            os: "SunOS 4.1.3",
            clock_mhz: 40.3,
            cpi: 0.76,
            l1d: Self::supersparc_l1d(),
            l1i: Self::supersparc_l1i(),
            l2: Some(Self::sparc_l2(1024)),
            l1_hit_cyc: 1.0,
            l2_hit_ns: 180.0,
            mem_ns: 460.0,
            write_through_extra_cyc: 0.0,
            byte_op_extra_cyc: 0.0,
            per_packet_user_us: 23.0,
            syscall_us: 40.0,
            driver_us: 600.0,
        }
    }

    /// SPARCstation 10 model 51: 50 MHz SuperSPARC, 1 MB board cache,
    /// SunOS 4.1.3.
    pub fn ss10_51() -> HostModel {
        HostModel {
            name: "SS10-51",
            os: "SunOS 4.1.3",
            clock_mhz: 50.0,
            cpi: 0.74,
            l1d: Self::supersparc_l1d(),
            l1i: Self::supersparc_l1i(),
            l2: Some(Self::sparc_l2(1024)),
            l1_hit_cyc: 1.0,
            l2_hit_ns: 160.0,
            mem_ns: 440.0,
            write_through_extra_cyc: 0.0,
            byte_op_extra_cyc: 0.0,
            per_packet_user_us: 18.0,
            syscall_us: 32.0,
            driver_us: 420.0,
        }
    }

    /// SPARCstation 20 model 60: 60 MHz SuperSPARC+, 1 MB board cache,
    /// Solaris 2.3 (the paper notes lower system overhead than OSF/1).
    pub fn ss20_60() -> HostModel {
        HostModel {
            name: "SS20-60",
            os: "Solaris 2.3",
            clock_mhz: 60.0,
            cpi: 0.72,
            l1d: Self::supersparc_l1d(),
            l1i: Self::supersparc_l1i(),
            l2: Some(Self::sparc_l2(1024)),
            l1_hit_cyc: 1.0,
            l2_hit_ns: 140.0,
            mem_ns: 400.0,
            write_through_extra_cyc: 0.0,
            byte_op_extra_cyc: 0.0,
            per_packet_user_us: 15.0,
            syscall_us: 28.0,
            driver_us: 330.0,
        }
    }

    /// DEC AXP 3000/500: 150 MHz Alpha 21064, 512 KB board cache, OSF/1
    /// 1.3 (the paper: "very high overhead").
    pub fn axp3000_500() -> HostModel {
        HostModel {
            name: "AXP3000/500",
            os: "OSF/1 1.3",
            clock_mhz: 150.0,
            cpi: 0.7,
            l1d: Self::alpha_l1d(),
            l1i: Self::alpha_l1i(),
            l2: Some(Self::alpha_l2(512)),
            l1_hit_cyc: 1.0,
            l2_hit_ns: 90.0,
            mem_ns: 340.0,
            write_through_extra_cyc: 1.3,
            byte_op_extra_cyc: 2.5,
            per_packet_user_us: 40.0,
            syscall_us: 55.0,
            driver_us: 420.0,
        }
    }

    /// DEC AXP 3000/600: 175 MHz Alpha 21064, 512 KB board cache, OSF/1 2.1.
    pub fn axp3000_600() -> HostModel {
        HostModel {
            name: "AXP3000/600",
            os: "OSF/1 2.1",
            clock_mhz: 175.0,
            cpi: 0.7,
            l1d: Self::alpha_l1d(),
            l1i: Self::alpha_l1i(),
            l2: Some(Self::alpha_l2(512)),
            l1_hit_cyc: 1.0,
            l2_hit_ns: 85.0,
            mem_ns: 330.0,
            write_through_extra_cyc: 1.3,
            byte_op_extra_cyc: 2.5,
            per_packet_user_us: 36.0,
            syscall_us: 50.0,
            driver_us: 390.0,
        }
    }

    /// DEC AXP 3000/800: 200 MHz Alpha 21064, 2 MB board cache, OSF/1 2.1.
    pub fn axp3000_800() -> HostModel {
        HostModel {
            name: "AXP3000/800",
            os: "OSF/1 2.1",
            clock_mhz: 200.0,
            cpi: 0.7,
            l1d: Self::alpha_l1d(),
            l1i: Self::alpha_l1i(),
            l2: Some(Self::alpha_l2(2048)),
            l1_hit_cyc: 1.0,
            l2_hit_ns: 80.0,
            mem_ns: 320.0,
            write_through_extra_cyc: 1.3,
            byte_op_extra_cyc: 2.5,
            per_packet_user_us: 30.0,
            syscall_us: 42.0,
            driver_us: 330.0,
        }
    }

    /// Look a host up by its Table 1 name.
    pub fn by_name(name: &str) -> Option<HostModel> {
        Self::all().into_iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_hosts_with_unique_names() {
        let hosts = HostModel::all();
        assert_eq!(hosts.len(), 7);
        let mut names: Vec<_> = hosts.iter().map(|h| h.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn only_ss10_30_lacks_l2() {
        for h in HostModel::all() {
            assert_eq!(h.l2.is_none(), h.name == "SS10-30", "{}", h.name);
        }
    }

    #[test]
    fn cache_geometries_are_consistent() {
        for h in HostModel::all() {
            let _ = h.l1d.sets();
            let _ = h.l1i.sets();
            if let Some(l2) = h.l2 {
                let _ = l2.sets();
            }
        }
    }

    #[test]
    fn alpha_is_write_through_no_allocate() {
        let h = HostModel::axp3000_500();
        assert_eq!(h.l1d.write, WritePolicy::WriteThrough);
        assert!(!h.l1d.write_allocate);
        assert!(h.write_through_extra_cyc > 0.0);
    }

    #[test]
    fn sparc_l1_sizes_match_paper() {
        let h = HostModel::ss10_30();
        assert_eq!(h.l1d.size, 16 * 1024);
        assert_eq!(h.l1i.size, 20 * 1024);
        let a = HostModel::axp3000_800();
        assert_eq!(a.l1d.size, 8 * 1024);
        assert_eq!(a.l1i.size, 8 * 1024);
    }

    #[test]
    fn cost_scales_with_compute_ops() {
        let h = HostModel::ss10_30();
        let s = RunStats { compute_ops: 36_000, ..Default::default() };
        // At 36 MHz: 36_000 × cpi / 36 µs of ALU work.
        let c = h.cost(&s);
        assert!((c.total_us - 1000.0 * h.cpi).abs() < 1e-9);
    }

    #[test]
    fn memory_accesses_cost_mem_ns() {
        let h = HostModel::ss10_30();
        let s = RunStats { memory_accesses: 1000, ..Default::default() };
        let c = h.cost(&s);
        assert!((c.total_us - 420.0).abs() < 1e-9);
    }

    #[test]
    fn faster_clock_cheaper_compute() {
        let slow = HostModel::ss10_30();
        let fast = HostModel::axp3000_800();
        let s = RunStats { compute_ops: 10_000, ..Default::default() };
        assert!(fast.cost(&s).total_us < slow.cost(&s).total_us);
    }

    #[test]
    fn packet_cost_throughput() {
        let pc = PacketCost { send_us: 300.0, recv_us: 300.0, system_us: 900.0, payload_bytes: 1024 };
        // 8192 bits / 1500 µs = 5.46 Mbps — the paper's SS10-30 ballpark.
        let t = pc.throughput_mbps();
        assert!((t - 8192.0 / 1500.0).abs() < 1e-9);
    }

    #[test]
    fn by_name_finds_hosts() {
        assert!(HostModel::by_name("SS20-60").is_some());
        assert!(HostModel::by_name("VAX").is_none());
    }
}
