//! TCP segment wire format — fixed 20-byte headers on the data path,
//! one option (SACK) on the pure-ACK reverse channel.
//!
//! A [`TcpHeader`] is a typed window over 20 bytes of (instrumented)
//! memory, in the style of smoltcp's packet wrappers: field accessors
//! perform exactly the loads/stores a C implementation would, so header
//! processing shows up in the measured access stream at its true cost.
//! The paper fixes the header size by avoiding options — that constant
//! size is what lets the ILP loop know its alignment in advance (§2.2).
//!
//! **Documented deviation for loss recovery:** data segments keep the
//! fixed 20-byte header (the ILP alignment argument is untouched), but
//! pure ACKs may carry an RFC 2018 SACK option so the sender can see
//! which out-of-order ranges the receiver already holds. The option
//! area is `NOP NOP kind=5 len=2+8n` followed by `n ≤ 3` blocks of
//! `(start, end)` sequence numbers in network order — 4-byte aligned,
//! so `data_off` is always a whole word count (8, 10 or 12 words on a
//! SACK ACK, 5 everywhere else). The option bytes are covered by the
//! TCP checksum like any other segment bytes.

use checksum::{InetChecksum, PseudoHeader};
use memsim::Mem;

/// Fixed TCP header length: 20 bytes, no options (paper §3.1). Data
/// TPDUs always use exactly this; pure ACKs may append a SACK option
/// (see [`TcpHeader::build_sack_option`]).
pub const TCP_HEADER_LEN: usize = 20;

/// Maximum SACK blocks a pure ACK carries. Three blocks keep the whole
/// header ≤ 48 bytes; real stacks stop at 3–4 once timestamps eat the
/// rest of the 40-byte option budget.
pub const MAX_SACK_BLOCKS: usize = 3;

/// TCP option kinds this profile understands.
const OPT_NOP: u8 = 1;
const OPT_SACK: u8 = 5;

/// Option-area length in bytes for `n` SACK blocks: `NOP NOP kind len`
/// padding/envelope plus 8 bytes per block — always a multiple of 4.
pub const fn sack_option_len(n: usize) -> usize {
    4 + 8 * n
}

/// Parsed SACK blocks from a received ACK: up to [`MAX_SACK_BLOCKS`]
/// `(start, end)` half-open sequence ranges, most recently seen first
/// (RFC 2018 ordering).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SackBlocks {
    blocks: [(u32, u32); MAX_SACK_BLOCKS],
    n: usize,
}

impl SackBlocks {
    /// Append a block; silently ignored beyond [`MAX_SACK_BLOCKS`].
    pub fn push(&mut self, start: u32, end: u32) {
        if self.n < MAX_SACK_BLOCKS {
            self.blocks[self.n] = (start, end);
            self.n += 1;
        }
    }

    /// The blocks as a slice.
    pub fn as_slice(&self) -> &[(u32, u32)] {
        &self.blocks[..self.n]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// TCP flag bits (subset the uni-directional profile uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// Acknowledgment field significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// Push function.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// Synchronise sequence numbers (connection setup; carried by the
    /// server subsystem's accept handshake).
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// Data segment: PSH|ACK.
    pub const DATA: TcpFlags = TcpFlags(0x18);
    /// Handshake reply: SYN|ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// No more data from sender (consumes one sequence number).
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// Reset the connection (consumes no sequence number).
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// Teardown segment: FIN|ACK — a zero-payload fixed-header TPDU,
    /// so FIN stays inside the paper's fixed data-TPDU header
    /// discipline.
    pub const FIN_ACK: TcpFlags = TcpFlags(0x11);

    /// Whether all bits of `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Byte offsets of the header fields.
mod field {
    pub const SRC_PORT: usize = 0;
    pub const DST_PORT: usize = 2;
    pub const SEQ: usize = 4;
    pub const ACK: usize = 8;
    pub const DATA_OFF: usize = 12;
    pub const FLAGS: usize = 13;
    pub const WINDOW: usize = 14;
    pub const CHECKSUM: usize = 16;
    pub const URGENT: usize = 18;
}

/// A TCP header at a fixed address in memory.
#[derive(Debug, Clone, Copy)]
pub struct TcpHeader {
    addr: usize,
}

impl TcpHeader {
    /// View the 20 bytes at `addr` as a TCP header. The field accessors
    /// read and write fixed offsets below [`TCP_HEADER_LEN`] without
    /// looking at any length: the caller must hold those 20 bytes, as
    /// `Connection::poll_input` does by parsing the staged copy of a
    /// datagram only after the IP admission test and by rejecting a
    /// `tcp_total` shorter than the header.
    pub fn at(addr: usize) -> Self {
        TcpHeader { addr }
    }

    /// The header's base address.
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// Source port.
    pub fn src_port<M: Mem>(&self, m: &mut M) -> u16 {
        m.read_u16_be(self.addr + field::SRC_PORT)
    }

    /// Destination port.
    pub fn dst_port<M: Mem>(&self, m: &mut M) -> u16 {
        m.read_u16_be(self.addr + field::DST_PORT)
    }

    /// Sequence number.
    pub fn seq<M: Mem>(&self, m: &mut M) -> u32 {
        m.read_u32_be(self.addr + field::SEQ)
    }

    /// Acknowledgment number.
    pub fn ack<M: Mem>(&self, m: &mut M) -> u32 {
        m.read_u32_be(self.addr + field::ACK)
    }

    /// Flag bits.
    pub fn flags<M: Mem>(&self, m: &mut M) -> TcpFlags {
        TcpFlags(m.read_u8(self.addr + field::FLAGS))
    }

    /// Advertised receive window.
    pub fn window<M: Mem>(&self, m: &mut M) -> u16 {
        m.read_u16_be(self.addr + field::WINDOW)
    }

    /// Checksum field.
    pub fn checksum<M: Mem>(&self, m: &mut M) -> u16 {
        m.read_u16_be(self.addr + field::CHECKSUM)
    }

    /// Data offset in 32-bit words (5 for an option-free header).
    pub fn data_off_words<M: Mem>(&self, m: &mut M) -> usize {
        usize::from(m.read_u8(self.addr + field::DATA_OFF) >> 4)
    }

    /// Total header length in bytes (`data_off * 4`): 20 without
    /// options, up to 48 with a full SACK option.
    pub fn header_len<M: Mem>(&self, m: &mut M) -> usize {
        self.data_off_words(m) * 4
    }

    /// Append a SACK option after the fixed header and patch `data_off`
    /// accordingly. Layout: `NOP NOP kind=5 len=2+8n` then `n` blocks of
    /// `(start, end)` in network order, most recent first. At most
    /// [`MAX_SACK_BLOCKS`] blocks are written. Returns the option-area
    /// length in bytes (include it in the pseudo-header `tcp_len` and in
    /// the checksum via [`TcpHeader::add_options_to_checksum`]).
    pub fn build_sack_option<M: Mem>(&self, m: &mut M, blocks: &[(u32, u32)]) -> usize {
        let n = blocks.len().min(MAX_SACK_BLOCKS);
        debug_assert!(n > 0, "a SACK option needs at least one block");
        let base = self.addr + TCP_HEADER_LEN;
        m.write_u8(base, OPT_NOP);
        m.write_u8(base + 1, OPT_NOP);
        m.write_u8(base + 2, OPT_SACK);
        m.write_u8(base + 3, (2 + 8 * n) as u8);
        for (i, &(start, end)) in blocks.iter().take(n).enumerate() {
            m.write_u32_be(base + 4 + 8 * i, start);
            m.write_u32_be(base + 8 + 8 * i, end);
        }
        let opt_len = sack_option_len(n);
        m.write_u8(
            self.addr + field::DATA_OFF,
            (((TCP_HEADER_LEN + opt_len) / 4) as u8) << 4,
        );
        m.compute(4);
        opt_len
    }

    /// Parse the SACK option out of a received header, if present and
    /// well-formed. A header without options, or with an option area
    /// that does not match the strict `NOP NOP SACK` profile this stack
    /// emits, yields an empty set — callers treat a malformed option as
    /// "no SACK information", never as an error (the cumulative ACK
    /// field still means what it means).
    ///
    /// Reads up to [`TcpHeader::header_len`] bytes from the header's
    /// address on `data_off`'s word alone: the caller must already have
    /// bounded that length by the bytes it holds, as
    /// `Connection::poll_input` does before it looks at any option.
    pub fn sack_blocks<M: Mem>(&self, m: &mut M) -> SackBlocks {
        let mut out = SackBlocks::default();
        let hdr_len = self.header_len(m);
        if hdr_len <= TCP_HEADER_LEN {
            return out;
        }
        let opt_len = hdr_len - TCP_HEADER_LEN;
        let base = self.addr + TCP_HEADER_LEN;
        if opt_len < sack_option_len(1) {
            return out;
        }
        let nop0 = m.read_u8(base);
        let nop1 = m.read_u8(base + 1);
        let kind = m.read_u8(base + 2);
        let len = usize::from(m.read_u8(base + 3));
        m.compute(4);
        if nop0 != OPT_NOP || nop1 != OPT_NOP || kind != OPT_SACK {
            return out;
        }
        if len < 2 + 8 || (len - 2) % 8 != 0 || len + 2 != opt_len {
            return out;
        }
        let n = ((len - 2) / 8).min(MAX_SACK_BLOCKS);
        for i in 0..n {
            let start = m.read_u32_be(base + 4 + 8 * i);
            let end = m.read_u32_be(base + 8 + 8 * i);
            out.push(start, end);
        }
        out
    }

    /// Sum `opt_len` option bytes (starting right after the fixed
    /// header) into `sum` — the option area is segment payload as far as
    /// the checksum is concerned. `opt_len` is the caller's, bounded like
    /// [`TcpHeader::sack_blocks`]' header length.
    pub fn add_options_to_checksum<M: Mem>(
        &self,
        m: &mut M,
        opt_len: usize,
        sum: &mut InetChecksum,
    ) {
        debug_assert!(opt_len.is_multiple_of(4), "option area is word-aligned");
        for i in 0..opt_len / 4 {
            sum.add_u32(m.read_u32_be(self.addr + TCP_HEADER_LEN + 4 * i));
            m.compute(InetChecksum::OPS_PER_U32);
        }
    }

    /// Write every field of a data/ACK segment header. The checksum field
    /// is written as zero; patch it afterwards with
    /// [`TcpHeader::set_checksum`] once the payload sum is known — the
    /// paper's "a TCP header can only be completed after calculating the
    /// checksum over the TCP data".
    #[allow(clippy::too_many_arguments)]
    pub fn build<M: Mem>(
        &self,
        m: &mut M,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        window: u16,
    ) {
        m.write_u16_be(self.addr + field::SRC_PORT, src_port);
        m.write_u16_be(self.addr + field::DST_PORT, dst_port);
        m.write_u32_be(self.addr + field::SEQ, seq);
        m.write_u32_be(self.addr + field::ACK, ack);
        // Data offset: 5 words, upper nibble.
        m.write_u8(self.addr + field::DATA_OFF, 5 << 4);
        m.write_u8(self.addr + field::FLAGS, flags.0);
        m.write_u16_be(self.addr + field::WINDOW, window);
        m.write_u16_be(self.addr + field::CHECKSUM, 0);
        m.write_u16_be(self.addr + field::URGENT, 0);
        m.compute(10);
    }

    /// Patch the checksum field.
    pub fn set_checksum<M: Mem>(&self, m: &mut M, sum: u16) {
        m.write_u16_be(self.addr + field::CHECKSUM, sum);
    }

    /// Sum the 20 header bytes into `sum` (checksum field included — call
    /// before patching it, or after zeroing, per RFC 793 convention).
    pub fn add_to_checksum<M: Mem>(&self, m: &mut M, sum: &mut InetChecksum) {
        for i in 0..TCP_HEADER_LEN / 4 {
            sum.add_u32(m.read_u32_be(self.addr + 4 * i));
            m.compute(InetChecksum::OPS_PER_U32);
        }
    }

    /// Compute the complete segment checksum: pseudo-header + header +
    /// a pre-computed payload partial sum.
    pub fn segment_checksum<M: Mem>(
        &self,
        m: &mut M,
        pseudo: PseudoHeader,
        payload_sum: InetChecksum,
    ) -> u16 {
        let mut sum = InetChecksum::new();
        pseudo.add_to(&mut sum);
        self.add_to_checksum(m, &mut sum);
        sum.combine(payload_sum);
        sum.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;
    use checksum::internet::checksum_buf;
    use memsim::{AddressSpace, NativeMem};

    fn with_header(f: impl FnOnce(&mut NativeMem<'_>, TcpHeader)) {
        let mut space = AddressSpace::new();
        let h = space.alloc("hdr", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        f(&mut m, TcpHeader::at(h.base));
    }

    #[test]
    fn build_then_read_back() {
        with_header(|m, h| {
            h.build(m, 5000, 6000, 0x01020304, 0x0A0B0C0D, TcpFlags::DATA, 8192);
            assert_eq!(h.src_port(m), 5000);
            assert_eq!(h.dst_port(m), 6000);
            assert_eq!(h.seq(m), 0x01020304);
            assert_eq!(h.ack(m), 0x0A0B0C0D);
            assert!(h.flags(m).contains(TcpFlags::ACK));
            assert!(h.flags(m).contains(TcpFlags::PSH));
            assert_eq!(h.window(m), 8192);
            assert_eq!(h.checksum(m), 0);
        });
    }

    #[test]
    fn wire_layout_is_network_order() {
        with_header(|m, h| {
            h.build(m, 0x1234, 0x5678, 0xAABBCCDD, 0, TcpFlags::ACK, 1);
            let bytes = m.bytes(h.addr(), 8);
            assert_eq!(bytes, &[0x12, 0x34, 0x56, 0x78, 0xAA, 0xBB, 0xCC, 0xDD]);
        });
    }

    /// RFC 793 Figure 3, encoded by hand from the figure — source port,
    /// destination port, sequence, acknowledgment, data offset in the
    /// high nibble of byte 12, `URG ACK PSH RST SYN FIN` in the low six
    /// bits of byte 13, window, checksum, urgent pointer — and not by
    /// any code of ours. Every accessor reads it, and `build` writes it.
    #[test]
    fn rfc793_figure_3_header_byte_for_byte() {
        const GOLDEN: [u8; TCP_HEADER_LEN] = [
            0x12, 0x34, 0x56, 0x78, // source port 0x1234, destination port 0x5678
            0xAA, 0xBB, 0xCC, 0xDD, // sequence number
            0x01, 0x02, 0x03, 0x04, // acknowledgment number
            0x50, 0x18, 0x20, 0x00, // data offset 5 | ACK PSH | window 0x2000
            0xBE, 0xEF, 0x00, 0x00, // checksum | urgent pointer
        ];
        with_header(|m, h| {
            for (i, &b) in GOLDEN.iter().enumerate() {
                m.write_u8(h.addr() + i, b);
            }
            assert_eq!((h.src_port(m), h.dst_port(m)), (0x1234, 0x5678));
            assert_eq!((h.seq(m), h.ack(m)), (0xAABB_CCDD, 0x0102_0304));
            assert_eq!((h.data_off_words(m), h.header_len(m)), (5, 20));
            assert_eq!(h.flags(m), TcpFlags::DATA);
            assert_eq!((h.window(m), h.checksum(m)), (0x2000, 0xBEEF));
            assert!(h.sack_blocks(m).is_empty(), "five words: no option area");

            let ours = TcpHeader::at(h.addr() + 32);
            ours.build(m, 0x1234, 0x5678, 0xAABB_CCDD, 0x0102_0304, TcpFlags::DATA, 0x2000);
            ours.set_checksum(m, 0xBEEF);
            assert_eq!(m.bytes(ours.addr(), TCP_HEADER_LEN), &GOLDEN);
        });
        // The figure's control bits, right to left.
        let figure = [TcpFlags::FIN, TcpFlags::SYN, TcpFlags::RST, TcpFlags::PSH, TcpFlags::ACK];
        for (bit, flag) in figure.into_iter().enumerate() {
            assert_eq!(flag.0, 1 << bit);
        }
    }

    /// RFC 2018 §3's option layout — `kind 5, length 8n + 2`, each block
    /// a left and a right edge in network order, padded to a word with
    /// two NOPs (`01 01 05 12 …`) — carrying the second-to-last row of the
    /// RFC's last example table (segments 6000 and 7000 held, ACK 5500,
    /// most recent block first), encoded by hand.
    #[test]
    fn rfc2018_two_block_sack_option_byte_for_byte() {
        const GOLDEN: [u8; 20] = [
            0x01, 0x01, 0x05, 0x12, // NOP NOP SACK, length 18
            0x00, 0x00, 0x1B, 0x58, 0x00, 0x00, 0x1D, 0x4C, // 7000 .. 7500
            0x00, 0x00, 0x17, 0x70, 0x00, 0x00, 0x19, 0x64, // 6000 .. 6500
        ];
        with_header(|m, h| {
            h.build(m, 1, 2, 0, 5500, TcpFlags::ACK, 4096);
            m.write_u8(h.addr() + 12, 10 << 4); // data offset: 5 + 5 words
            for (i, &b) in GOLDEN.iter().enumerate() {
                m.write_u8(h.addr() + TCP_HEADER_LEN + i, b);
            }
            assert_eq!(h.sack_blocks(m).as_slice(), &[(7000, 7500), (6000, 6500)]);
            // 0101 + 0512 + 1B58 + 1D4C + 1770 + 1964, added by hand.
            let mut sum = InetChecksum::new();
            h.add_options_to_checksum(m, GOLDEN.len(), &mut sum);
            assert_eq!(sum.fold(), 0x6F8B);

            let ours = TcpHeader::at(h.addr());
            ours.build(m, 1, 2, 0, 5500, TcpFlags::ACK, 4096);
            assert_eq!(ours.build_sack_option(m, &[(7000, 7500), (6000, 6500)]), GOLDEN.len());
            assert_eq!(m.bytes(h.addr() + TCP_HEADER_LEN, GOLDEN.len()), &GOLDEN);
            assert_eq!(m.read_u8(h.addr() + 12), 10 << 4);
        });
    }

    #[test]
    fn header_sum_matches_buffer_checksum() {
        with_header(|m, h| {
            h.build(m, 1, 2, 3, 4, TcpFlags::DATA, 5);
            let mut sum = InetChecksum::new();
            h.add_to_checksum(m, &mut sum);
            let reference = checksum_buf(m, h.addr(), TCP_HEADER_LEN);
            assert_eq!(sum.fold(), reference.fold());
        });
    }

    #[test]
    fn verified_segment_checksum_is_zero() {
        // Build header + payload, checksum it, patch, and verify that the
        // receiver-style full pass yields zero.
        let mut space = AddressSpace::new();
        let seg = space.alloc("seg", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let h = TcpHeader::at(seg.base);
        h.build(&mut m, 9, 9, 100, 0, TcpFlags::DATA, 512);
        let payload = seg.base + TCP_HEADER_LEN;
        for i in 0..16 {
            m.write_u8(payload + i, (i * 3) as u8);
        }
        let pseudo = PseudoHeader { src: 1, dst: 2, protocol: 6, tcp_len: 36 };
        let payload_sum = checksum_buf(&mut m, payload, 16);
        let csum = h.segment_checksum(&mut m, pseudo, payload_sum);
        h.set_checksum(&mut m, csum);

        // Receiver: sum pseudo + header (checksum now in place) + payload.
        let mut verify = InetChecksum::new();
        pseudo.add_to(&mut verify);
        h.add_to_checksum(&mut m, &mut verify);
        verify.combine(checksum_buf(&mut m, payload, 16));
        assert_eq!(verify.finish(), 0);
    }

    #[test]
    fn flags_contains() {
        assert!(TcpFlags::DATA.contains(TcpFlags::ACK));
        assert!(TcpFlags::DATA.contains(TcpFlags::PSH));
        assert!(!TcpFlags::ACK.contains(TcpFlags::PSH));
    }

    #[test]
    fn sack_option_roundtrips_and_sets_data_off() {
        with_header(|m, h| {
            h.build(m, 1, 2, 100, 200, TcpFlags::ACK, 4096);
            assert_eq!(h.header_len(m), TCP_HEADER_LEN);
            assert!(h.sack_blocks(m).is_empty(), "no options, no blocks");
            let opt_len = h.build_sack_option(m, &[(300, 400), (500, 612)]);
            assert_eq!(opt_len, sack_option_len(2));
            assert_eq!(h.data_off_words(m), (TCP_HEADER_LEN + opt_len) / 4);
            assert_eq!(h.header_len(m), 40);
            let parsed = h.sack_blocks(m);
            assert_eq!(parsed.as_slice(), &[(300, 400), (500, 612)]);
            // Fixed fields are untouched by the option build.
            assert_eq!(h.seq(m), 100);
            assert_eq!(h.ack(m), 200);
            assert_eq!(h.window(m), 4096);
        });
    }

    #[test]
    fn sack_option_wire_bytes_are_rfc2018_layout() {
        with_header(|m, h| {
            h.build(m, 1, 2, 0, 0, TcpFlags::ACK, 1);
            h.build_sack_option(m, &[(0x01020304, 0x0506_0708)]);
            let opt = m.bytes(h.addr() + TCP_HEADER_LEN, 12);
            assert_eq!(
                opt,
                &[1, 1, 5, 10, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08],
                "NOP NOP kind=5 len=10, block big-endian"
            );
            assert_eq!(m.read_u8(h.addr() + 12) >> 4, 8, "data_off = 8 words");
        });
    }

    #[test]
    fn sack_option_caps_at_max_blocks() {
        with_header(|m, h| {
            h.build(m, 1, 2, 0, 0, TcpFlags::ACK, 1);
            let blocks = [(10, 20), (30, 40), (50, 60), (70, 80)];
            let opt_len = h.build_sack_option(m, &blocks);
            assert_eq!(opt_len, sack_option_len(MAX_SACK_BLOCKS));
            let parsed = h.sack_blocks(m);
            assert_eq!(parsed.len(), MAX_SACK_BLOCKS);
            assert_eq!(parsed.as_slice(), &blocks[..MAX_SACK_BLOCKS]);
        });
    }

    #[test]
    fn malformed_option_area_parses_as_empty() {
        with_header(|m, h| {
            h.build(m, 1, 2, 0, 0, TcpFlags::ACK, 1);
            h.build_sack_option(m, &[(10, 20)]);
            // Damage the kind byte: strict parse must yield no blocks.
            m.write_u8(h.addr() + TCP_HEADER_LEN + 2, 8);
            assert!(h.sack_blocks(m).is_empty());
            // Damage the length byte instead.
            m.write_u8(h.addr() + TCP_HEADER_LEN + 2, 5);
            m.write_u8(h.addr() + TCP_HEADER_LEN + 3, 7);
            assert!(h.sack_blocks(m).is_empty());
        });
    }

    #[test]
    fn segment_checksum_covers_option_bytes() {
        // Build a SACK ACK, checksum it with the option area folded in,
        // and verify the receiver-style full pass yields zero — then
        // flip one option bit and watch it fail.
        let mut space = AddressSpace::new();
        let seg = space.alloc("seg", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let h = TcpHeader::at(seg.base);
        h.build(&mut m, 9, 9, 100, 555, TcpFlags::ACK, 512);
        let opt_len = h.build_sack_option(&mut m, &[(700, 828)]);
        let pseudo =
            PseudoHeader { src: 1, dst: 2, protocol: 6, tcp_len: (TCP_HEADER_LEN + opt_len) as u16 };
        let mut opt_sum = InetChecksum::new();
        h.add_options_to_checksum(&mut m, opt_len, &mut opt_sum);
        let csum = h.segment_checksum(&mut m, pseudo, opt_sum);
        h.set_checksum(&mut m, csum);

        let verify = |m: &mut NativeMem<'_>| {
            let mut v = InetChecksum::new();
            pseudo.add_to(&mut v);
            h.add_to_checksum(m, &mut v);
            let mut opts = InetChecksum::new();
            h.add_options_to_checksum(m, opt_len, &mut opts);
            v.combine(opts);
            v.finish()
        };
        assert_eq!(verify(&mut m), 0);
        let damaged = m.read_u8(seg.base + TCP_HEADER_LEN + 5) ^ 0x04;
        m.write_u8(seg.base + TCP_HEADER_LEN + 5, damaged);
        assert_ne!(verify(&mut m), 0, "option corruption must break the checksum");
    }
    /// A random header with `data_off` forced to `nibble`, in a segment
    /// of `TCP_HEADER_LEN + tail` bytes that ends where the arena ends —
    /// one byte further is a panic on `NativeMem`. Odd rounds carry the
    /// `NOP NOP SACK` preamble so the block loop is reached.
    fn fuzz_segment(
        rng: &mut XorShift64,
        nibble: u8,
        tail: usize,
        f: impl FnOnce(&mut NativeMem<'_>, TcpHeader),
    ) {
        let mut space = AddressSpace::new();
        let seg = space.alloc("seg", TCP_HEADER_LEN + tail, 4);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for i in 0..seg.len {
            m.write_u8(seg.at(i), rng.next_u64() as u8);
        }
        m.write_u8(seg.at(field::DATA_OFF), nibble << 4 | rng.below(16) as u8);
        if tail >= 4 && rng.below(2) == 1 {
            for (i, b) in [OPT_NOP, OPT_NOP, OPT_SACK, rng.below(48) as u8].into_iter().enumerate() {
                m.write_u8(seg.at(TCP_HEADER_LEN + i), b);
            }
        }
        f(&mut m, TcpHeader::at(seg.base));
    }

    /// Fuzz: behind the one length check the receive path makes, the
    /// option-area parsers never panic and never read past the segment —
    /// for every `data_off` nibble, over random header and option bytes
    /// and every tail length a header can claim.
    #[test]
    fn fuzz_option_parsers_never_panic() {
        let mut rng = XorShift64::new(0x5AC_F022);
        for round in 0..32_000usize {
            let (nibble, tail) = ((round % 16) as u8, rng.index(49));
            fuzz_segment(&mut rng, nibble, tail, |m, h| {
                let hdr_len = h.header_len(m);
                assert_eq!(hdr_len, usize::from(nibble) * 4);
                // `Connection::poll_input`'s check, the parsers' precondition.
                if hdr_len < TCP_HEADER_LEN || hdr_len > TCP_HEADER_LEN + tail {
                    return;
                }
                let opt_len = hdr_len - TCP_HEADER_LEN;
                let blocks = h.sack_blocks(m);
                if !blocks.is_empty() {
                    assert!(blocks.len() <= MAX_SACK_BLOCKS && sack_option_len(blocks.len()) <= opt_len);
                    assert_eq!(m.read_u8(h.addr() + TCP_HEADER_LEN + 2), OPT_SACK);
                }
                h.add_options_to_checksum(m, opt_len, &mut InetChecksum::new());
            });
        }
    }

    /// Fuzz: every fixed-header accessor, and `build` / `set_checksum`
    /// writing over what was read, on random segments of every length
    /// from a bare header up that end where the arena ends. None looks
    /// past byte 19, whatever `data_off` and the rest of the header say.
    #[test]
    fn fuzz_fixed_header_accessors_never_panic() {
        let mut rng = XorShift64::new(0xF1_0ED);
        for round in 0..16_000usize {
            let (nibble, tail) = ((round % 16) as u8, rng.index(49));
            fuzz_segment(&mut rng, nibble, tail, |m, h| {
                let before = m.bytes(h.addr(), TCP_HEADER_LEN).to_vec();
                let (src, dst, seq, ack) = (h.src_port(m), h.dst_port(m), h.seq(m), h.ack(m));
                let (flags, window, csum) = (h.flags(m), h.window(m), h.checksum(m));
                assert_eq!(h.data_off_words(m), usize::from(nibble));
                let pseudo = PseudoHeader { src: 1, dst: 2, protocol: 6, tcp_len: 20 };
                h.segment_checksum(m, pseudo, InetChecksum::new());
                // Writing the fields back rebuilds the header bit for
                // bit, up to what `build` fixes: `data_off` 5, no
                // reserved bits, no urgent pointer.
                h.build(m, src, dst, seq, ack, flags, window);
                h.set_checksum(m, csum);
                let after = m.bytes(h.addr(), TCP_HEADER_LEN);
                assert_eq!(after[..12], before[..12]);
                assert_eq!(after[12], 5 << 4);
                assert_eq!(after[13..18], before[13..18]);
            });
        }
    }

    /// Fuzz: `build_sack_option` over any block list a sender could hand
    /// it — one block to twice what a header can carry, any edges — in a
    /// header staging of exactly the size `Connection::new` allocates,
    /// ending where the arena ends. It writes at most a full option,
    /// claims exactly what it wrote, and `sack_blocks` reads the same
    /// blocks back. (An empty list is the caller's bug, `debug_assert`ed:
    /// a bare ACK carries no option at all.)
    #[test]
    fn fuzz_build_sack_option_never_panics() {
        let mut rng = XorShift64::new(0x5AC_B01D);
        for _ in 0..8_000 {
            let mut space = AddressSpace::new();
            let hdr = space.alloc("hdr", TCP_HEADER_LEN + sack_option_len(MAX_SACK_BLOCKS), 4);
            let mut arena = space.native_arena();
            let mut m = NativeMem::new(&mut arena);
            let h = TcpHeader::at(hdr.base);
            h.build(&mut m, 1, 2, rng.next_u32(), rng.next_u32(), TcpFlags::ACK, 8192);
            let blocks: Vec<(u32, u32)> =
                (0..1 + rng.index(2 * MAX_SACK_BLOCKS)).map(|_| (rng.next_u32(), rng.next_u32())).collect();
            let carried = blocks.len().min(MAX_SACK_BLOCKS);
            assert_eq!(h.build_sack_option(&mut m, &blocks), sack_option_len(carried));
            assert_eq!(h.header_len(&mut m), TCP_HEADER_LEN + sack_option_len(carried));
            assert_eq!(h.sack_blocks(&mut m).as_slice(), &blocks[..carried]);
        }
    }

    /// The accessors' precondition, pinned like the option parsers'
    /// below: they trust that 20 bytes are there. On a 19-byte segment
    /// at the end of the arena the header sum walks off it.
    #[test]
    fn fixed_header_accessors_rely_on_twenty_readable_bytes() {
        let mut space = AddressSpace::new();
        let seg = space.alloc("seg", TCP_HEADER_LEN + 3, 4);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let short = TcpHeader::at(seg.base + 4);
        assert_eq!(short.checksum(&mut m), 0, "bytes 16..18 of the 19 are there");
        let walked_off = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            short.add_to_checksum(&mut m, &mut InetChecksum::new())
        }));
        assert!(walked_off.is_err());
    }

    /// What the fuzz loop found, pinned: without that check a header that
    /// claims more option bytes than the segment holds walks the parsers
    /// off the segment (here off the arena, which `NativeMem` turns into a
    /// panic; mid-arena it would read a neighbour's bytes). `poll_input`
    /// rejects such a header before any option is parsed.
    #[test]
    fn option_parsers_rely_on_the_callers_length_check() {
        let mut rng = XorShift64::new(7);
        fuzz_segment(&mut rng, 15, 4, |m, h| {
            let claimed = h.header_len(m) - TCP_HEADER_LEN;
            let walked_off = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                h.add_options_to_checksum(m, claimed, &mut InetChecksum::new())
            }));
            assert!(walked_off.is_err());
        });
    }
}
