//! The assembled protocol environment.
//!
//! [`Suite`] owns everything one sender/receiver pair needs: the cipher
//! (with its tables, key and scratch in simulated memory), the loop-back
//! kernel part, the two uni-directional connections (data and ACKs are
//! carried by the same connection pair; the request direction uses a
//! second pair in [`crate::app`]), the application buffers, the non-ILP
//! intermediate buffers, and the instruction footprints of every loop —
//! laid out in a single [`AddressSpace`] that can back either a
//! [`memsim::NativeMem`] or a [`memsim::SimMem`].
//!
//! The address space is laid out the way the paper's C process image
//! would be: tables and static buffers first, connection state and ring
//! buffers next, application data last. Cache conflicts between the
//! streamed buffers and the cipher tables arise from this natural layout
//! and the simulated cache geometry, not from contrived placement.

use cipher::{CipherKernel, Des, SaferK64, SimplifiedSafer, VerySimple};
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::Mem;
use utcp::{Connection, Loopback, UtcpConfig};

use crate::paths::{footprint, Scratch};

/// The protocol environment, generic over the cipher kernel.
#[derive(Debug)]
pub struct Suite<C> {
    /// The encryption layer's kernel.
    pub cipher: C,
    /// Loop-back network + kernel buffers.
    pub lb: Loopback,
    /// Data sender (the file server side).
    pub tx: Connection,
    /// Data receiver (the client side).
    pub rx: Connection,
    /// Request sender (client → server; requests are small and always
    /// travel the non-ILP path, as in the paper's experiment which
    /// measures the bulk reply direction).
    pub req_tx: Connection,
    /// Request receiver (server side).
    pub req_rx: Connection,
    /// The server's file (application data to transmit).
    pub file: Region,
    /// The client's reassembled output file.
    pub app_out: Region,
    /// The non-ILP intermediate buffers, the ILP staging buffer and the
    /// instruction footprint of every loop — what [`crate::paths`] runs
    /// over.
    pub scratch: Scratch,
}

/// Maximum file size the suite's buffers accommodate.
pub const MAX_FILE: usize = 64 * 1024;
/// Maximum single message (plaintext, padded) size.
pub const MAX_MSG: usize = 2048;

impl Suite<SimplifiedSafer> {
    /// Build a suite running the paper's simplified SAFER K-64.
    pub fn simplified(space: &mut AddressSpace) -> Self {
        let cipher = SimplifiedSafer::alloc(space);
        Self::with_cipher(space, cipher)
    }
}

impl Suite<VerySimple> {
    /// Build a suite running the very simple cipher.
    pub fn very_simple(space: &mut AddressSpace) -> Self {
        let cipher = VerySimple::alloc(space);
        Self::with_cipher(space, cipher)
    }
}

impl Suite<SaferK64> {
    /// Build a suite running the *full* SAFER K-64 — the cipher the
    /// paper deemed "still too time consuming" (ablation only).
    pub fn full_safer(space: &mut AddressSpace, rounds: usize) -> Self {
        let cipher = SaferK64::alloc(space, rounds);
        Self::with_cipher(space, cipher)
    }
}

impl Suite<Des> {
    /// Build a suite running DES — the cipher that "can hide totally the
    /// ILP performance gain" (ablation only).
    pub fn des(space: &mut AddressSpace) -> Self {
        let cipher = Des::alloc(space);
        Self::with_cipher(space, cipher)
    }
}

impl<C: CipherKernel> Suite<C> {
    /// Assemble the environment around an already-allocated cipher.
    pub fn with_cipher(space: &mut AddressSpace, cipher: C) -> Self {
        let mut lb = Loopback::new(space);
        let tx_cfg = UtcpConfig { local_port: 4000, peer_port: 5000, ..Default::default() };
        let (tx, rx) = Connection::pair(space, &mut lb, tx_cfg, 0x1000, 0x9000);
        // Second uni-directional pair for the request direction.
        let req_tx_cfg = UtcpConfig { local_port: 6000, peer_port: 7000, ..Default::default() };
        let (req_tx, req_rx) = Connection::pair(space, &mut lb, req_tx_cfg, 0x4000, 0xC000);

        let marshal_buf = space.alloc_kind("marshal_buf", MAX_MSG, 8, RegionKind::Buffer);
        let encrypt_buf = space.alloc_kind("encrypt_buf", MAX_MSG, 8, RegionKind::Buffer);
        let decrypt_buf = space.alloc_kind("decrypt_buf", MAX_MSG, 8, RegionKind::Buffer);
        let staging = space.alloc_kind("ilp_staging", MAX_MSG, 8, RegionKind::Buffer);
        let file = space.alloc_kind("app_file", MAX_FILE, 64, RegionKind::AppData);
        let app_out = space.alloc_kind("app_out", MAX_FILE, 64, RegionKind::AppData);

        // Instruction footprints ([`footprint`]). The scratch is assembled
        // field by field (not through `Scratch::alloc`) because every
        // calibrated figure depends on this allocation order: buffers,
        // then the application files, then code.
        let code_marshal = space.alloc_code("marshal_loop", footprint::MARSHAL);
        let code_unmarshal = space.alloc_code("unmarshal_loop", footprint::UNMARSHAL);
        let code_checksum = space.alloc_code("checksum_loop", footprint::CHECKSUM);
        let code_copy = space.alloc_code("tcp_send_copy", footprint::COPY);
        let code_ilp_send = space.alloc_code("ilp_send_loop", footprint::ILP_SEND);
        let code_ilp_recv = space.alloc_code("ilp_recv_loop", footprint::ILP_RECV);

        Suite {
            cipher,
            lb,
            tx,
            rx,
            req_tx,
            req_rx,
            file,
            app_out,
            scratch: Scratch {
                marshal_buf,
                encrypt_buf,
                decrypt_buf,
                staging,
                code_ilp_send,
                code_ilp_recv,
                code_marshal,
                code_unmarshal,
                code_checksum,
                code_copy,
            },
        }
    }

    /// Cipher block / processing-unit size.
    pub fn block(&self) -> usize {
        C::UNIT
    }

    /// Write the cipher's tables and key into a memory world. Separate
    /// from construction because each world (native arena, per-host
    /// simulations) needs its own pass; run before taking measurement
    /// phases.
    pub fn init_world<M: Mem>(&self, m: &mut M) {
        self.cipher.init_world(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_builds_with_both_ciphers() {
        let mut space = AddressSpace::new();
        let s = Suite::simplified(&mut space);
        assert_eq!(s.block(), 8);
        let mut space2 = AddressSpace::new();
        let s2 = Suite::very_simple(&mut space2);
        assert_eq!(s2.block(), 4);
    }

    #[test]
    fn regions_are_distinct() {
        let mut space = AddressSpace::new();
        let s = Suite::simplified(&mut space);
        let b = s.scratch;
        let regions = [s.file, s.app_out, b.marshal_buf, b.encrypt_buf, b.decrypt_buf, b.staging];
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                assert!(a.end() <= b.base || b.end() <= a.base, "{} overlaps {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn fused_code_is_larger_than_parts_but_modest() {
        let mut space = AddressSpace::new();
        let s = Suite::simplified(&mut space);
        let parts = s.scratch.code_marshal.len + 480 + s.scratch.code_checksum.len;
        assert!(s.scratch.code_ilp_send.len > parts);
        assert!(s.scratch.code_ilp_send.len < parts + parts / 4, "glue should stay small");
    }

    /// Every calibrated figure (Table 1, Figs. 6–14) is a function of
    /// this layout: which buffers share cache sets with the cipher
    /// tables is decided here. A reordering must be a deliberate,
    /// re-calibrated change — never a side effect.
    #[test]
    fn simplified_suite_layout_is_pinned() {
        const GOLDEN: &[(&str, usize, usize)] = &[
            ("safer_exp", 0x10000, 256),
            ("safer_log", 0x10100, 256),
            ("safer_key", 0x10200, 8),
            ("safer_scratch", 0x10208, 16),
            ("simplified_safer_enc", 0x1000000, 480),
            ("simplified_safer_dec", 0x1000200, 560),
            ("kernel_slots", 0x10240, 131072),
            ("os_ip_driver", 0x1000440, 6144),
            ("os_working_set", 0x30240, 16384),
            ("tcp_ring", 0x34240, 16384),
            ("tcp_hdr", 0x38240, 48),
            ("tcp_recv", 0x38280, 1588),
            ("tcb", 0x388b8, 64),
            ("tcp_ooo", 0x38900, 4608),
            ("utcp_control", 0x1001c40, 3072),
            ("tcp_ring", 0x39b00, 16384),
            ("tcp_hdr", 0x3db00, 48),
            ("tcp_recv", 0x3db40, 1588),
            ("tcb", 0x3e178, 64),
            ("tcp_ooo", 0x3e1c0, 4608),
            ("utcp_control", 0x1002840, 3072),
            ("tcp_ring", 0x3f3c0, 16384),
            ("tcp_hdr", 0x433c0, 48),
            ("tcp_recv", 0x43400, 1588),
            ("tcb", 0x43a38, 64),
            ("tcp_ooo", 0x43a80, 4608),
            ("utcp_control", 0x1003440, 3072),
            ("tcp_ring", 0x44c80, 16384),
            ("tcp_hdr", 0x48c80, 48),
            ("tcp_recv", 0x48cc0, 1588),
            ("tcb", 0x492f8, 64),
            ("tcp_ooo", 0x49340, 4608),
            ("utcp_control", 0x1004040, 3072),
            ("marshal_buf", 0x4a540, 2048),
            ("encrypt_buf", 0x4ad40, 2048),
            ("decrypt_buf", 0x4b540, 2048),
            ("ilp_staging", 0x4bd40, 2048),
            ("app_file", 0x4c540, 65536),
            ("app_out", 0x5c540, 65536),
            ("marshal_loop", 0x1004c40, 240),
            ("unmarshal_loop", 0x1004d40, 280),
            ("checksum_loop", 0x1004e80, 96),
            ("tcp_send_copy", 0x1004f00, 64),
            ("ilp_send_loop", 0x1004f40, 936),
            ("ilp_recv_loop", 0x1005300, 1056),
        ];
        let mut space = AddressSpace::new();
        let _suite = Suite::simplified(&mut space);
        let table: Vec<_> = space.regions().iter().map(|r| (r.name, r.base, r.len)).collect();
        assert_eq!(table, GOLDEN);
    }
}
