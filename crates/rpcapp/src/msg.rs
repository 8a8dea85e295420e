//! Message formats (paper Figure 2) and their word-level views.
//!
//! * [`FileRequest`] — the client's request, stub-generated via
//!   [`xdr::ilp_messages!`].
//! * [`ReplyMeta`] — the RPC header of one reply message; its marshalled
//!   form is six XDR words followed by the file chunk.
//! * [`ReplyWords`] — random-access view of a complete marshalled reply
//!   (encryption header + RPC header + data + alignment) as a sequence
//!   of 4-byte words. The part B→C→A schedule needs *ranges* of the
//!   message, not a single forward stream; [`ReplyWords::range_source`]
//!   produces a word source for any word range, synthesising header
//!   words in registers, reading data words from application memory, and
//!   emitting alignment zeros past the end.
//! * [`ReplyUnmarshalSink`] — the receive-side dual: consumes decrypted
//!   units, captures the encryption + RPC header words into registers,
//!   and writes the file chunk into application memory at the cipher's
//!   output granularity (the integrated "unmarshalling and copying" of
//!   Figure 5).

use ilp_core::{StoreGrain, UnitBuf, UnitSink};
use memsim::Mem;
use xdr::ilp_messages;
use xdr::stream::{opaque_word, WordSource};
use xdr::stubgen::Opaque;

/// Length of the encryption header: one 4-byte length field (Figure 2).
pub const ENC_HDR_LEN: usize = 4;

/// Marshalled RPC reply-header size in words: request id, sequence,
/// offset, last-flag, total length, and the XDR opaque length of the
/// data that follows.
pub const RPC_HDR_WORDS: usize = 6;

/// Bytes before the file data in a marshalled reply: encryption header +
/// RPC header.
pub const PREFIX_BYTES: usize = ENC_HDR_LEN + 4 * RPC_HDR_WORDS;

ilp_messages! {
    /// The client's file request: which file, how many copies of it, and
    /// the maximum reply payload ("the maximum length of bytes to
    /// receive within a single reply message", §3.1).
    pub struct FileRequest {
        file_id: u32,
        copies: u32,
        max_reply_len: u32,
        name: Opaque<64>,
    }
}

/// The RPC header of one reply message (register-resident form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplyMeta {
    /// Echo of the request id.
    pub request_id: u32,
    /// Reply sequence number within the transfer.
    pub seq: u32,
    /// Byte offset of this chunk within the file.
    pub offset: u32,
    /// 1 when this is the final reply of the transfer.
    pub last: u32,
    /// Chunk length in bytes.
    pub data_len: u32,
}

impl ReplyMeta {
    /// Marshalled message length: RPC header words + XDR-padded data
    /// (excludes the encryption header).
    pub fn marshalled_len(&self) -> usize {
        4 * RPC_HDR_WORDS + xdr::runtime::pad4(self.data_len as usize)
    }

    /// Total on-the-wire plaintext length: encryption header +
    /// marshalled message + alignment to the cipher block.
    pub fn padded_len(&self, block: usize) -> usize {
        (ENC_HDR_LEN + self.marshalled_len()).div_ceil(block) * block
    }

    /// The prefix words (encryption header + RPC header), ready to be
    /// emitted from registers. Word 0 is the encryption header's length
    /// field — "the length of the message before encryption".
    pub fn prefix_words(&self) -> [u32; 1 + RPC_HDR_WORDS] {
        [
            (ENC_HDR_LEN + self.marshalled_len()) as u32,
            self.request_id,
            self.seq,
            self.offset,
            self.last,
            self.data_len, // total-length field (mirrors data_len: one chunk per TSDU)
            self.data_len, // XDR opaque length
        ]
    }

    /// Parse the prefix words captured on the receive side.
    ///
    /// Returns `None` when the encryption-header length field is
    /// inconsistent with an RPC reply (corruption that survived the
    /// checksum would be caught here, and decryption with a wrong key
    /// lands here too).
    pub fn parse_prefix(words: &[u32]) -> Option<(usize, ReplyMeta)> {
        if words.len() != 1 + RPC_HDR_WORDS {
            return None;
        }
        let msg_len = words[0] as usize;
        let meta = ReplyMeta {
            request_id: words[1],
            seq: words[2],
            offset: words[3],
            last: words[4],
            data_len: words[6],
        };
        if words[5] != meta.data_len {
            return None;
        }
        if msg_len != ENC_HDR_LEN + meta.marshalled_len() {
            return None;
        }
        Some((msg_len, meta))
    }
}

/// Random-access word view of one complete marshalled reply.
#[derive(Debug, Clone, Copy)]
pub struct ReplyWords {
    prefix: [u32; 1 + RPC_HDR_WORDS],
    data_addr: usize,
    data_len: usize,
    total_words: usize,
}

impl ReplyWords {
    /// Build the view for `meta`, with the chunk at `data_addr`, padded
    /// to `block` alignment.
    pub fn new(meta: &ReplyMeta, data_addr: usize, block: usize) -> Self {
        ReplyWords {
            prefix: meta.prefix_words(),
            data_addr,
            data_len: meta.data_len as usize,
            total_words: meta.padded_len(block) / 4,
        }
    }

    /// Total message length in words (including alignment).
    pub fn total_words(&self) -> usize {
        self.total_words
    }

    /// A word source over `[start, end)` words of the message.
    pub fn range_source(&self, start: usize, end: usize) -> ReplyRangeSource {
        assert!(start <= end && end <= self.total_words, "bad range {start}..{end}");
        ReplyRangeSource { msg: *self, next: start, end }
    }

    /// A source over the whole message (the linear, non-segmented order;
    /// used by the equality tests).
    pub fn full_source(&self) -> ReplyRangeSource {
        self.range_source(0, self.total_words)
    }

    /// Produce word `i` of the message: a prefix word from registers, or
    /// a word of the XDR opaque body (data, then padding / alignment).
    #[inline(always)]
    fn word<M: Mem>(&self, m: &mut M, i: usize) -> u32 {
        match i.checked_sub(self.prefix.len()) {
            Some(k) => opaque_word(m, self.data_addr, self.data_len, 4 * k),
            None => {
                m.compute(1);
                self.prefix[i]
            }
        }
    }
}

/// Word source over a range of a [`ReplyWords`] view.
#[derive(Debug, Clone, Copy)]
pub struct ReplyRangeSource {
    msg: ReplyWords,
    next: usize,
    end: usize,
}

impl<M: Mem> WordSource<M> for ReplyRangeSource {
    #[inline(always)]
    fn next_word(&mut self, m: &mut M) -> Option<u32> {
        if self.next >= self.end {
            return None;
        }
        let w = self.msg.word(m, self.next);
        self.next += 1;
        Some(w)
    }

    fn total_words(&self) -> usize {
        self.end - self.next
    }
}

/// Where the rest of a chunk goes. Resolved **once**, when the header
/// words that place the chunk have been decrypted — which in the fused
/// receive loop is before the checksum verdict, so they are untrusted: a
/// chunk they put outside the buffer is not placed at all, and the final
/// stage rejects the segment like any other bad one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    dst: usize,
    left: usize,
}

impl Placement {
    /// `declared` bytes at `offset` into the `cap`-byte buffer at `addr`,
    /// or `None` when they do not fit there.
    pub(crate) fn resolve(addr: usize, cap: usize, offset: usize, declared: usize) -> Option<Self> {
        let end = offset.checked_add(declared)?;
        (end <= cap).then_some(Placement { dst: addr + offset, left: declared })
    }

    /// Chunk bytes still to be placed.
    pub(crate) fn left(&self) -> usize {
        self.left
    }

    /// Place one decrypted payload word at the cipher's output
    /// granularity.
    #[inline(always)]
    pub(crate) fn place<M: Mem>(&mut self, m: &mut M, w: u32, grain: StoreGrain) {
        if self.left < 4 {
            return self.place_tail(m, w, grain);
        }
        match grain {
            StoreGrain::Byte => m.write_bytes(self.dst, w.to_be_bytes()),
            StoreGrain::Word => m.write_u32_be(self.dst, w),
        }
        self.dst += 4;
        self.left -= 4;
    }

    /// The chunk's last, partial word; words past the declared length
    /// are XDR padding / cipher alignment and go nowhere.
    #[cold]
    fn place_tail<M: Mem>(&mut self, m: &mut M, w: u32, grain: StoreGrain) {
        for (k, b) in w.to_be_bytes().into_iter().enumerate().take(self.left) {
            m.write_u8(self.dst + k, b);
        }
        if grain == StoreGrain::Word && self.left > 0 {
            m.compute(self.left as u32);
        }
        self.left = 0;
    }
}

/// Receive-side unmarshal-and-copy sink (paper Figure 5, fused form):
/// captures the decrypted prefix words, then writes the file chunk into
/// application memory — at `file_base + offset`, where `offset` comes
/// from the RPC header it just decrypted — at the cipher's output
/// granularity.
#[derive(Debug, Clone, Copy)]
pub struct ReplyUnmarshalSink {
    app_addr: usize,
    app_cap: usize,
    prefix: [u32; 1 + RPC_HDR_WORDS],
    words_seen: usize,
    place: Option<Placement>,
    anchored: bool,
}

impl ReplyUnmarshalSink {
    /// Deliver the chunk into the reassembled file of `app_cap` bytes at
    /// `app_addr` (placement within it is taken from the reply header's
    /// offset field).
    pub fn new(app_addr: usize, app_cap: usize) -> Self {
        ReplyUnmarshalSink {
            app_addr,
            app_cap,
            prefix: [0; 1 + RPC_HDR_WORDS],
            words_seen: 0,
            place: None,
            anchored: false,
        }
    }

    /// Deliver into a linear staging buffer at `addr`, ignoring the
    /// header's placement offset. Receive-side pre-manipulation
    /// (paper §3.2.2): when a segment's verdict is not yet known and it
    /// cannot be the next in-order one, the fused pass must still run
    /// (the checksum feeds the ACK decision) but must not place bytes
    /// into application memory a reject would then have to roll back.
    pub fn staging(addr: usize, cap: usize) -> Self {
        ReplyUnmarshalSink { anchored: true, ..ReplyUnmarshalSink::new(addr, cap) }
    }

    /// The captured prefix words (valid once at least
    /// `1 + RPC_HDR_WORDS` words have been consumed).
    pub fn prefix(&self) -> &[u32] {
        &self.prefix[..self.words_seen]
    }

    /// Parse the captured prefix into a [`ReplyMeta`]; `None` also when
    /// the chunk it describes does not fit the buffer (nothing was
    /// written then).
    pub fn meta(&self) -> Option<(usize, ReplyMeta)> {
        ReplyMeta::parse_prefix(self.prefix()).filter(|_| self.place.is_some())
    }

    /// Chunk bytes delivered so far.
    pub fn data_written(&self) -> usize {
        match (self.meta(), self.place) {
            (Some((_, meta)), Some(place)) => meta.data_len as usize - place.left(),
            _ => 0,
        }
    }
}

impl<M: Mem> UnitSink<M> for ReplyUnmarshalSink {
    #[inline(always)]
    fn store(&mut self, m: &mut M, unit: &UnitBuf, grain: StoreGrain) {
        // Steady state: the whole unit is chunk data.
        if let Some(place) = self.place.as_mut().filter(|p| p.left() >= unit.len()) {
            for wi in 0..unit.words() {
                place.place(m, unit.word(wi), grain);
            }
            return;
        }
        for wi in 0..unit.words() {
            let w = unit.word(wi);
            if self.words_seen < self.prefix.len() {
                self.prefix[self.words_seen] = w;
                m.compute(1);
                self.words_seen += 1;
                if self.words_seen == self.prefix.len() {
                    // File offset and XDR opaque length from the RPC
                    // header; a staging sink writes linearly instead (the
                    // header offset points into a file this buffer does
                    // not hold).
                    let offset = if self.anchored { 0 } else { self.prefix[3] as usize };
                    let declared = self.prefix[self.prefix.len() - 1] as usize;
                    self.place = Placement::resolve(self.app_addr, self.app_cap, offset, declared);
                }
            } else if let Some(place) = &mut self.place {
                place.place(m, w, grain);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};
    use xdr::stream::WordSource;

    fn meta(data_len: u32) -> ReplyMeta {
        ReplyMeta { request_id: 0xAB, seq: 3, offset: 64, last: 0, data_len }
    }

    #[test]
    fn lengths_follow_figure_2() {
        let m = meta(100);
        assert_eq!(m.marshalled_len(), 24 + 100);
        // 4 + 124 = 128, already 8-aligned.
        assert_eq!(m.padded_len(8), 128);
        let m2 = meta(99);
        // marshalled 24 + 100 (XDR pad) = 124; +4 = 128.
        assert_eq!(m2.padded_len(8), 128);
        let m3 = meta(97);
        // marshalled 24 + 100; +4 = 128 → aligned.
        assert_eq!(m3.padded_len(8), 128);
        let m4 = meta(101);
        // 24 + 104 + 4 = 132 → pad to 136.
        assert_eq!(m4.padded_len(8), 136);
    }

    #[test]
    fn prefix_roundtrip() {
        let m = meta(777);
        let words = m.prefix_words();
        let (msg_len, parsed) = ReplyMeta::parse_prefix(&words).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(msg_len, ENC_HDR_LEN + m.marshalled_len());
    }

    #[test]
    fn prefix_rejects_inconsistency() {
        let m = meta(777);
        let mut words = m.prefix_words();
        words[0] += 4; // corrupt the length field
        assert!(ReplyMeta::parse_prefix(&words).is_none());
        let mut words2 = m.prefix_words();
        words2[6] = 778; // opaque length disagrees with total-length field
        assert!(ReplyMeta::parse_prefix(&words2).is_none());
        assert!(ReplyMeta::parse_prefix(&words[..3]).is_none());
    }

    fn with_data(len: usize, f: impl FnOnce(&mut NativeMem<'_>, usize, usize)) {
        let mut space = AddressSpace::new();
        let data = space.alloc("data", len.max(1), 8);
        let app = space.alloc("app", 2048, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for i in 0..len {
            m.write_u8(data.at(i), (i % 251) as u8);
        }
        f(&mut m, data.base, app.base);
    }

    #[test]
    fn full_source_emits_prefix_then_data_then_zeros() {
        with_data(10, |m, addr, _app| {
            let meta = meta(10);
            let words = ReplyWords::new(&meta, addr, 8);
            // 4 + 24 + 12 = 40 bytes → 10 words.
            assert_eq!(words.total_words(), 10);
            let mut src = words.full_source();
            let mut out = Vec::new();
            while let Some(w) = src.next_word(m) {
                out.push(w);
            }
            assert_eq!(out.len(), 10);
            assert_eq!(out[0], 40); // 4 + 24 + pad4(10): XDR-padded length
            assert_eq!(out[6], 10); // opaque length
            assert_eq!(out[7], 0x00010203);
            assert_eq!(out[8], 0x04050607);
            assert_eq!(out[9], 0x08090000); // 2 data bytes + padding
        });
    }

    #[test]
    fn range_sources_tile_to_the_full_stream() {
        with_data(100, |m, addr, _app| {
            let meta = meta(100);
            let words = ReplyWords::new(&meta, addr, 8);
            let n = words.total_words();
            let mut full = Vec::new();
            let mut src = words.full_source();
            while let Some(w) = src.next_word(m) {
                full.push(w);
            }
            // Any split must reproduce the same words.
            for split in [1usize, 2, 7, n / 2, n - 1] {
                let mut parts = Vec::new();
                let mut a = words.range_source(0, split);
                while let Some(w) = a.next_word(m) {
                    parts.push(w);
                }
                let mut b = words.range_source(split, n);
                while let Some(w) = b.next_word(m) {
                    parts.push(w);
                }
                assert_eq!(parts, full, "split at {split}");
            }
        });
    }

    #[test]
    fn unmarshal_sink_reconstructs_the_chunk() {
        with_data(53, |m, data_addr, app_addr| {
            let meta = meta(53);
            let words = ReplyWords::new(&meta, data_addr, 8);
            let mut sink = ReplyUnmarshalSink::new(app_addr, 2048);
            let mut src = words.full_source();
            // Feed through 8-byte units like the fused loop does.
            loop {
                let mut unit = UnitBuf::new(8);
                match WordSource::<NativeMem>::next_word(&mut src, m) {
                    Some(w) => unit.set_word(0, w),
                    None => break,
                }
                if let Some(w) = WordSource::<NativeMem>::next_word(&mut src, m) { unit.set_word(1, w) }
                UnitSink::<NativeMem>::store(&mut sink, m, &unit, StoreGrain::Byte);
            }
            let (msg_len, parsed) = sink.meta().expect("valid prefix");
            assert_eq!(parsed, meta);
            assert_eq!(msg_len, ENC_HDR_LEN + meta.marshalled_len());
            assert_eq!(sink.data_written(), 53);
            // The sink placed the chunk at the header's offset (64).
            for i in 0..53 {
                assert_eq!(m.read_u8(app_addr + 64 + i), (i % 251) as u8, "byte {i}");
            }
        });
    }

    #[test]
    fn request_message_roundtrip() {
        let mut space = AddressSpace::new();
        let wire = space.alloc("wire", 256, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let req = FileRequest {
            file_id: 7,
            copies: 2,
            max_reply_len: 1024,
            name: Opaque(b"kernel.tar".to_vec()),
        };
        let mut enc = xdr::XdrEncoder::new(&mut m, wire.base);
        req.marshal(&mut enc);
        let len = enc.written();
        assert_eq!(len, req.wire_len());
        let mut dec = xdr::XdrDecoder::new(&mut m, wire.base, len);
        assert_eq!(FileRequest::unmarshal(&mut dec).unwrap(), req);
    }

    /// The generated stub over a request we did not write: every
    /// truncation of a marshalled [`FileRequest`], each under every
    /// single-bit flip, in a window that ends where the arena ends.
    /// `unmarshal` never panics; it yields the request only from the
    /// untouched bytes, and otherwise an error or — where the flip
    /// landed in a field the codec cannot judge — a different request.
    #[test]
    fn request_unmarshal_never_panics_on_truncated_or_bit_flipped_input() {
        let mut space = AddressSpace::new();
        let wire = space.alloc("wire", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let req = FileRequest {
            file_id: 7,
            copies: 2,
            max_reply_len: 1024,
            name: Opaque(b"kernel.tar".to_vec()),
        };
        let mut enc = xdr::XdrEncoder::new(&mut m, wire.base);
        req.marshal(&mut enc);
        let valid = m.bytes(wire.base, req.wire_len()).to_vec();

        let mut unmarshal = |bytes: &[u8]| {
            let at = wire.end() - bytes.len();
            for (i, &b) in bytes.iter().enumerate() {
                m.write_u8(at + i, b);
            }
            let mut dec = xdr::XdrDecoder::new(&mut m, at, bytes.len());
            let got = FileRequest::unmarshal(&mut dec);
            assert!(dec.consumed() <= bytes.len());
            got
        };
        assert_eq!(unmarshal(&valid), Ok(req.clone()));
        for cut in 0..valid.len() {
            assert!(unmarshal(&valid[..cut]).is_err(), "cut at {cut}");
            for bit in 0..8 * cut {
                let mut flipped = valid[..cut].to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = unmarshal(&flipped);
            }
        }
        for bit in 0..8 * valid.len() {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(unmarshal(&flipped), Ok(req.clone()), "bit {bit}");
        }
    }
}
