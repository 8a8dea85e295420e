//! The paper's published numbers, embedded for side-by-side reporting.
//!
//! Source: Braun & Diot, SIGCOMM 1995 — Annex Table 1 (the complete
//! packet-size sweep backing Figures 6–10), Figures 11/12 (cipher
//! ablation), Figures 13/14 (memory accesses and cache misses), the §1
//! inline microbenchmark, and the §4.2 ATOM numbers.

/// One Table 1 row: per (host, packet size) results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Host name as in the Annex.
    pub host: &'static str,
    /// Packet size in bytes.
    pub size: usize,
    /// ILP throughput (Mbps).
    pub ilp_tput: f64,
    /// non-ILP throughput (Mbps).
    pub non_tput: f64,
    /// ILP send packet processing (µs).
    pub ilp_send: f64,
    /// ILP receive packet processing (µs).
    pub ilp_recv: f64,
    /// non-ILP send packet processing (µs).
    pub non_send: f64,
    /// non-ILP receive packet processing (µs).
    pub non_recv: f64,
}

/// The complete Annex Table 1.
pub const TABLE1: &[Table1Row] = &[
    row("SS10-30", 256, 1.74, 1.58, 128.0, 118.0, 124.0, 141.0),
    row("SS10-30", 512, 3.22, 2.58, 187.0, 176.0, 201.0, 228.0),
    row("SS10-30", 768, 4.35, 4.15, 260.0, 263.0, 289.0, 280.0),
    row("SS10-30", 1024, 5.43, 4.95, 311.0, 300.0, 369.0, 356.0),
    row("SS10-30", 1280, 6.02, 4.3, 374.0, 363.0, 468.0, 456.0),
    row("SS10-41", 256, 2.34, 2.19, 103.0, 90.0, 101.0, 123.0),
    row("SS10-41", 512, 4.35, 3.67, 149.0, 144.0, 169.0, 182.0),
    row("SS10-41", 768, 5.53, 5.27, 192.0, 194.0, 248.0, 241.0),
    row("SS10-41", 1024, 6.68, 5.95, 248.0, 249.0, 315.0, 312.0),
    row("SS10-41", 1280, 8.39, 6.88, 304.0, 300.0, 379.0, 379.0),
    row("SS10-51", 256, 3.02, 2.64, 77.0, 72.0, 91.0, 88.0),
    row("SS10-51", 512, 5.41, 4.69, 124.0, 116.0, 147.0, 147.0),
    row("SS10-51", 768, 7.78, 7.01, 158.0, 158.0, 202.0, 195.0),
    row("SS10-51", 1024, 9.23, 8.35, 194.0, 206.0, 241.0, 240.0),
    row("SS10-51", 1280, 9.48, 8.65, 239.0, 248.0, 301.0, 310.0),
    row("SS20-60", 256, 3.45, 3.26, 65.0, 61.0, 82.0, 79.0),
    row("SS20-60", 512, 7.17, 6.52, 98.0, 96.0, 112.0, 110.0),
    row("SS20-60", 768, 9.05, 8.09, 130.0, 141.0, 159.0, 155.0),
    row("SS20-60", 1024, 10.44, 8.86, 162.0, 163.0, 212.0, 204.0),
    row("SS20-60", 1280, 11.66, 9.61, 199.0, 199.0, 253.0, 256.0),
    row("AXP3000/500", 256, 2.52, 2.53, 100.0, 73.0, 103.0, 73.0),
    row("AXP3000/500", 512, 4.43, 4.30, 135.0, 109.0, 149.0, 120.0),
    row("AXP3000/500", 768, 6.07, 5.72, 174.0, 156.0, 195.0, 163.0),
    row("AXP3000/500", 1024, 7.40, 6.95, 214.0, 195.0, 252.0, 195.0),
    row("AXP3000/500", 1280, 8.59, 8.07, 252.0, 227.0, 302.0, 237.0),
    row("AXP3000/600", 256, 2.57, 2.59, 85.0, 74.0, 86.0, 73.0),
    row("AXP3000/600", 512, 4.36, 4.39, 122.0, 93.0, 137.0, 109.0),
    row("AXP3000/600", 768, 6.36, 6.12, 146.0, 127.0, 162.0, 140.0),
    row("AXP3000/600", 1024, 7.83, 7.52, 187.0, 160.0, 214.0, 167.0),
    row("AXP3000/600", 1280, 8.98, 8.56, 227.0, 191.0, 256.0, 201.0),
    row("AXP3000/800", 256, 3.51, 3.46, 69.0, 55.0, 70.0, 54.0),
    row("AXP3000/800", 512, 5.98, 5.90, 100.0, 85.0, 107.0, 80.0),
    row("AXP3000/800", 768, 8.02, 7.46, 127.0, 110.0, 150.0, 114.0),
    row("AXP3000/800", 1024, 9.78, 9.30, 164.0, 139.0, 189.0, 151.0),
    row("AXP3000/800", 1280, 11.44, 10.72, 193.0, 165.0, 244.0, 183.0),
];

#[allow(clippy::too_many_arguments)]
const fn row(
    host: &'static str,
    size: usize,
    ilp_tput: f64,
    non_tput: f64,
    ilp_send: f64,
    ilp_recv: f64,
    non_send: f64,
    non_recv: f64,
) -> Table1Row {
    Table1Row { host, size, ilp_tput, non_tput, ilp_send, ilp_recv, non_send, non_recv }
}

/// Look up a Table 1 row.
pub fn table1(host: &str, size: usize) -> Option<Table1Row> {
    TABLE1.iter().copied().find(|r| r.host == host && r.size == size)
}

/// §1 microbenchmark: XDR marshal of a 20-int array + TCP checksum.
pub mod micro {
    /// Sequential execution throughput (Mbps).
    pub const SEQUENTIAL_MBPS: f64 = 70.0;
    /// Fused (single-loop) throughput (Mbps).
    pub const FUSED_MBPS: f64 = 100.0;
}

/// Figure 11 — packet processing (1 KB, SS10-30) with the two ciphers.
pub mod fig11 {
    /// (non-ILP, ILP) send µs with the simplified SAFER K-64.
    pub const SAFER_SEND: (f64, f64) = (366.0, 313.0);
    /// (non-ILP, ILP) receive µs with the simplified SAFER K-64.
    pub const SAFER_RECV: (f64, f64) = (355.0, 299.0);
    /// (non-ILP, ILP) send µs with the very simple cipher.
    pub const SIMPLE_SEND: (f64, f64) = (220.0, 150.0);
    /// (non-ILP, ILP) receive µs with the very simple cipher.
    pub const SIMPLE_RECV: (f64, f64) = (158.0, 94.0);
}

/// Figure 12 — throughput (1 KB messages) for user-level non-ILP / ILP /
/// kernel TCP, per cipher.
pub mod fig12 {
    /// Simplified SAFER K-64: (non-ILP, ILP, kernel TCP) Mbps.
    pub const SAFER: (f64, f64, f64) = (5.1, 6.8, 7.5);
    /// Very simple cipher: (non-ILP, ILP, kernel TCP) Mbps.
    pub const SIMPLE: (f64, f64, f64) = (5.5, 6.7, 9.7);
}

/// Figure 13 — memory accesses (×10⁶) for transferring 10.7 MB.
/// Layout: (ILP, non-ILP) per (cipher, direction, kind).
pub mod fig13 {
    /// Simplified SAFER, send: (ILP, non-ILP) read accesses ×10⁶.
    pub const SAFER_SEND_READS: (f64, f64) = (44.2, 58.0);
    /// Simplified SAFER, receive: (ILP, non-ILP) read accesses ×10⁶.
    pub const SAFER_RECV_READS: (f64, f64) = (44.3, 53.5);
    /// Very simple cipher, send: (ILP, non-ILP) read accesses ×10⁶.
    pub const SIMPLE_SEND_READS: (f64, f64) = (13.0, 26.0);
    /// Very simple cipher, receive: (ILP, non-ILP) read accesses ×10⁶.
    pub const SIMPLE_RECV_READS: (f64, f64) = (14.9, 23.3);
    /// Simplified SAFER, send: (ILP, non-ILP) write accesses ×10⁶.
    pub const SAFER_SEND_WRITES: (f64, f64) = (17.7, 29.7);
    /// Simplified SAFER, receive: (ILP, non-ILP) write accesses ×10⁶.
    pub const SAFER_RECV_WRITES: (f64, f64) = (22.7, 19.5);
    /// Very simple cipher, send: (ILP, non-ILP) write accesses ×10⁶.
    pub const SIMPLE_SEND_WRITES: (f64, f64) = (8.2, 12.8);
    /// Very simple cipher, receive: (ILP, non-ILP) write accesses ×10⁶.
    pub const SIMPLE_RECV_WRITES: (f64, f64) = (5.3, 13.7);
}

/// Figure 14 — L1 data-cache misses (×10⁶) for the same runs.
pub mod fig14 {
    /// Simplified SAFER, send: (ILP, non-ILP) read misses ×10⁶.
    pub const SAFER_SEND_READ_MISSES: (f64, f64) = (2.6, 5.4);
    /// Simplified SAFER, receive: (ILP, non-ILP) read misses ×10⁶.
    pub const SAFER_RECV_READ_MISSES: (f64, f64) = (2.8, 3.2);
    /// Simplified SAFER, send: (ILP, non-ILP) write misses ×10⁶.
    pub const SAFER_SEND_WRITE_MISSES: (f64, f64) = (4.4, 5.8);
    /// Simplified SAFER, receive: (ILP, non-ILP) write misses ×10⁶.
    pub const SAFER_RECV_WRITE_MISSES: (f64, f64) = (11.0, 3.6);
    /// Receive-side L1 miss ratio: (ILP, non-ILP) — the 18.7% vs 4.7%
    /// result.
    pub const RECV_MISS_RATIO: (f64, f64) = (0.187, 0.047);
}

/// §4.2 ATOM whole-run accounting on the AXP 3000/500.
pub mod atom {
    /// Send: (ILP, non-ILP) memory-system seconds.
    pub const SEND_MEMSYS_S: (f64, f64) = (0.494, 0.539);
    /// Send: (ILP, non-ILP) total execution seconds.
    pub const SEND_EXEC_S: (f64, f64) = (2.466, 2.725);
    /// Receive: (ILP, non-ILP) memory-system seconds.
    pub const RECV_MEMSYS_S: (f64, f64) = (0.292, 0.295);
    /// Receive: (ILP, non-ILP) total execution seconds.
    pub const RECV_EXEC_S: (f64, f64) = (2.335, 2.427);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_complete() {
        assert_eq!(TABLE1.len(), 7 * 5);
        for host in ["SS10-30", "SS10-41", "SS10-51", "SS20-60", "AXP3000/500", "AXP3000/600", "AXP3000/800"] {
            for size in [256, 512, 768, 1024, 1280] {
                assert!(table1(host, size).is_some(), "{host}/{size}");
            }
        }
    }

    #[test]
    fn ilp_wins_in_table1_throughput_except_axp_256() {
        // In the paper ILP throughput ≥ non-ILP everywhere except the
        // smallest packets on the Alphas.
        for r in TABLE1 {
            if r.host.starts_with("AXP") && r.size <= 512 {
                continue;
            }
            assert!(r.ilp_tput >= r.non_tput, "{}/{}", r.host, r.size);
        }
    }

    #[test]
    fn paper_gain_at_1k_matches_prose() {
        // §4.1: SS10-30 send −58 µs (16%), receive −56 µs (16%).
        let r = table1("SS10-30", 1024).unwrap();
        assert_eq!(r.non_send - r.ilp_send, 58.0);
        assert_eq!(r.non_recv - r.ilp_recv, 56.0);
    }
}
