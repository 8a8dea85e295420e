//! What a reply is — stated once, for both wire formats and both paths.
//!
//! * [`FileRequest`] — the client's request, stub-generated via
//!   [`xdr::ilp_messages!`].
//! * [`ReplyMeta`] — the RPC header of one reply message; its marshalled
//!   form is six XDR words followed by the file chunk.
//! * [`LENGTH_FIRST`] (paper Figure 2) / [`LENGTH_LAST`] (§5) — where
//!   the length field sits, a `const` parameter of everything below.
//! * [`WordView`] ([`ReplyWords`]) — random-access view of a complete
//!   marshalled reply as a sequence of 4-byte words. The part B→C→A
//!   schedule needs *ranges* of the message, not a single forward
//!   stream; [`WordView::range_source`] produces a word source for any
//!   word range, synthesising header words in registers, reading data
//!   words from application memory, and emitting alignment zeros past
//!   the end.
//! * [`UnmarshalSink`] ([`ReplyUnmarshalSink`]) — the receive-side dual:
//!   consumes decrypted units, captures the header words into registers,
//!   and writes the file chunk into application memory at the cipher's
//!   output granularity (the integrated "unmarshalling and copying" of
//!   Figure 5).
//! * The **admission rule** — what makes a payload a reply. (1) It is a
//!   whole number of cipher units: [`crate::paths`] tests that before
//!   any pass runs and before TCP state moves (the `assert_eq!`s in
//!   `ilp_core::pipeline` and `cipher::decrypt_buf` are caller-bug
//!   checks behind it). (2) Its decrypted length field is consistent
//!   with its header ([`ReplyMeta::parse_prefix`]) and the message is no
//!   longer than the transport payload (`fits_payload`), and (3) the
//!   chunk lies inside the buffer (`Placement::resolve`, which refuses
//!   to place anything otherwise). (2) and (3) are decrypted fields, so
//!   their verdict is [`UnmarshalSink::finish`], read in the final
//!   stage — by the fused receivers after their loop, by the non-ILP
//!   receiver, which feeds the same sink its header words, before its
//!   copy.

use ilp_core::{store_unit, store_words, Reject, StoreGrain, UnitBuf, UnitSink};
use memsim::Mem;
use xdr::ilp_messages;
use xdr::stream::{opaque_word, unit_by_words, WordSource};
use xdr::stubgen::Opaque;

/// Length of the encryption header: one 4-byte length field (Figure 2).
pub const ENC_HDR_LEN: usize = 4;

/// Marshalled RPC reply-header size in words: request id, sequence,
/// offset, last-flag, total length, and the XDR opaque length of the
/// data that follows.
pub const RPC_HDR_WORDS: usize = 6;

/// Words of the canonical prefix: the length field + the RPC header.
const PREFIX_WORDS: usize = 1 + RPC_HDR_WORDS;

/// Bytes before the file data in a marshalled reply: encryption header +
/// RPC header.
pub const PREFIX_BYTES: usize = 4 * PREFIX_WORDS;

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

    /// Total on-the-wire plaintext length: length field (leading or
    /// trailing) + marshalled message + alignment to the cipher block.
    pub fn padded_len(&self, block: usize) -> usize {
        (ENC_HDR_LEN + self.marshalled_len()).div_ceil(block) * block
    }

    /// The prefix words (encryption header + RPC header), ready to be
    /// emitted from registers. Word 0 is the encryption header's length
    /// field — "the length of the message before encryption".
    pub fn prefix_words(&self) -> [u32; PREFIX_WORDS] {
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
        if words.len() != PREFIX_WORDS {
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

/// Where a reply's length field sits — the one thing the paper's two
/// wire formats differ in, and a `const` parameter (`LAST`) of everything
/// below, so each format monomorphises to its own loop body and nothing
/// tests it at run time. Both formats carry the same canonical prefix
/// words (`[length, request id, sequence, offset, last, total length,
/// opaque length]`, [`ReplyMeta::prefix_words`]), the same length value
/// and the same padded size; a format's header word `i` is canonical
/// word `i + LAST as usize`, and the length-last format's final word is
/// canonical word 0. This one is Figure 2: the length field leads.
pub const LENGTH_FIRST: bool = false;

/// §5, "trailers for data dependent fields": the length field is the
/// message's last word ([`crate::trailer`]).
pub const LENGTH_LAST: bool = true;

/// Words in front of the chunk: the RPC header, behind the length field
/// when that leads.
const fn hdr_words(length_last: bool) -> usize {
    PREFIX_WORDS - length_last as usize
}

/// Random-access word view of one complete marshalled reply.
#[derive(Debug, Clone, Copy)]
pub struct WordView<const LAST: bool> {
    prefix: [u32; PREFIX_WORDS],
    data_addr: usize,
    data_len: usize,
    total_words: usize,
}

/// The Figure 2 view: length field, RPC header, data, alignment.
pub type ReplyWords = WordView<LENGTH_FIRST>;

impl<const LAST: bool> WordView<LAST> {
    /// Build the view for `meta`, with the chunk at `data_addr`, padded
    /// to `block` alignment.
    pub fn new(meta: &ReplyMeta, data_addr: usize, block: usize) -> Self {
        WordView {
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
    pub fn range_source(&self, start: usize, end: usize) -> RangeSource<LAST> {
        assert!(start <= end && end <= self.total_words, "bad range {start}..{end}");
        let data_end = hdr_words(LAST) + self.data_len / 4;
        RangeSource { msg: *self, next: start, end, burst_end: end.min(data_end) }
    }

    /// A source over the whole message, in wire order.
    pub fn full_source(&self) -> RangeSource<LAST> {
        self.range_source(0, self.total_words)
    }

    /// Produce word `i` of the message: a header word or the trailing
    /// length field from registers, or a word of the XDR opaque body
    /// (data, then padding / alignment).
    #[inline(always)]
    fn word<M: Mem>(&self, m: &mut M, i: usize) -> u32 {
        let from_registers = match i.checked_sub(hdr_words(LAST)) {
            None => i + LAST as usize,
            Some(_) if LAST && i + 1 == self.total_words => 0,
            Some(k) => return opaque_word(m, self.data_addr, self.data_len, 4 * k),
        };
        m.compute(1);
        self.prefix[from_registers]
    }
}

/// Word source over a range of a [`WordView`] — a part of the B→C→A
/// schedule, or the whole message.
#[derive(Debug, Clone, Copy)]
pub struct RangeSource<const LAST: bool> {
    msg: WordView<LAST>,
    next: usize,
    end: usize,
    /// One past the last word of the range that is a whole data word.
    burst_end: usize,
}

impl<M: Mem, const LAST: bool> WordSource<M> for RangeSource<LAST> {
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

    /// A unit of whole data words is one burst; a unit holding a header
    /// word, the tail word, padding or the trailing length field goes word
    /// by word.
    #[inline(always)]
    fn next_unit<const W: usize>(&mut self, m: &mut M) -> [u32; W] {
        match self.next.checked_sub(hdr_words(LAST)) {
            Some(k) if self.next + W <= self.burst_end => {
                let unit = m.read_words_be(self.msg.data_addr + 4 * k);
                self.next += W;
                unit
            }
            _ => unit_by_words(self, m),
        }
    }
}

/// The admission rule's transport clause, spelled once for replies and
/// requests: a message whose (decrypted, untrusted) length says `msg_len`
/// bytes must fit the `payload_len` bytes the transport delivered. The
/// TCP checksum is unkeyed, so a reply cut at a cipher-block boundary
/// arrives well-formed at every layer below this comparison.
pub(crate) fn fits_payload(msg_len: usize, payload_len: usize) -> Result<(), Reject> {
    if msg_len > payload_len {
        return Err(Reject::BadFormat("length field exceeds payload"));
    }
    Ok(())
}

/// Where the rest of a chunk goes. Resolved **once**, when the header
/// words that place the chunk have been decrypted — which in the fused
/// receive loop is before the checksum verdict, so they are untrusted: a
/// chunk they put outside the payload or outside the buffer is not
/// placed at all, and the final stage rejects the segment like any other
/// bad one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    /// Where the next chunk byte goes.
    dst: usize,
    /// One past where the last one goes. (An end, not a count: the loop
    /// then advances one field per unit, not two.)
    end: usize,
}

impl Placement {
    /// The admission rule's last two clauses for `declared` chunk bytes
    /// at `offset`: the message carrying them fits the transport payload
    /// (`fits_payload`), and they lie inside the `cap`-byte buffer at
    /// `addr`.
    fn resolve(
        addr: usize,
        cap: usize,
        offset: usize,
        declared: usize,
        payload_len: usize,
    ) -> Result<Self, Reject> {
        fits_payload(PREFIX_BYTES.saturating_add(declared.saturating_add(3) & !3), payload_len)?;
        match offset.checked_add(declared) {
            Some(end) if end <= cap => Ok(Placement { dst: addr + offset, end: addr + end }),
            _ => Err(Reject::BadFormat("chunk beyond file bounds")),
        }
    }

    /// Chunk bytes not yet placed.
    #[inline(always)]
    fn left(&self) -> usize {
        self.end - self.dst
    }

    /// Place a unit that is all chunk data — the steady state — as one
    /// burst at the cipher's output granularity.
    #[inline(always)]
    fn place_unit<M: Mem>(&mut self, m: &mut M, unit: &UnitBuf, grain: StoreGrain) {
        store_unit(m, self.dst, unit, grain);
        self.dst += unit.len();
    }

    /// Place one decrypted payload word at the cipher's output
    /// granularity.
    #[inline(always)]
    fn place<M: Mem>(&mut self, m: &mut M, w: u32, grain: StoreGrain) {
        if self.left() < 4 {
            return self.place_tail(m, w, grain);
        }
        store_words(m, self.dst, [w], grain);
        self.dst += 4;
    }

    /// The chunk's last, partial word; words past the declared length
    /// are XDR padding / cipher alignment and go nowhere.
    #[cold]
    fn place_tail<M: Mem>(&mut self, m: &mut M, w: u32, grain: StoreGrain) {
        let left = self.left();
        for (k, b) in w.to_be_bytes().into_iter().enumerate().take(left) {
            m.write_u8(self.dst + k, b);
        }
        if grain == StoreGrain::Word && left > 0 {
            m.compute(left as u32);
        }
        self.dst = self.end;
    }
}

/// Receive-side unmarshal-and-copy sink (paper Figure 5, fused form):
/// captures the decrypted header words into the canonical
/// prefix, then writes the file chunk into application memory — at
/// `file_base + offset`, where `offset` comes from the RPC header it just
/// decrypted — at the cipher's output granularity. [`Self::finish`] is
/// the admission rule's verdict on what it saw.
#[derive(Debug, Clone, Copy)]
pub struct UnmarshalSink<const LAST: bool> {
    app_addr: usize,
    app_cap: usize,
    payload_len: usize,
    prefix: [u32; PREFIX_WORDS],
    hdr_seen: usize,
    /// Where the chunk goes: nowhere (an empty placement) until the header
    /// places it. The loop tests only this, once per unit.
    place: Placement,
    /// Why nothing is placed — `None` once the header has placed the chunk.
    refused: Option<Reject>,
    anchored: bool,
}

/// The sink of the Figure 2 format.
pub type ReplyUnmarshalSink = UnmarshalSink<LENGTH_FIRST>;

impl<const LAST: bool> UnmarshalSink<LAST> {
    /// Deliver the chunk into the reassembled file of `app_cap` bytes at
    /// `app_addr` (placement within it is taken from the reply header's
    /// offset field).
    pub fn new(app_addr: usize, app_cap: usize) -> Self {
        UnmarshalSink {
            app_addr,
            app_cap,
            payload_len: usize::MAX,
            prefix: [0; PREFIX_WORDS],
            hdr_seen: 0,
            place: Placement { dst: 0, end: 0 },
            refused: Some(Reject::BadFormat("reply prefix")),
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
        UnmarshalSink { anchored: true, ..Self::new(addr, cap) }
    }

    /// Bound the message by the `payload_len` bytes the transport
    /// delivered — the only length a receiver can trust (without it, no
    /// transport clause applies).
    pub fn within(self, payload_len: usize) -> Self {
        UnmarshalSink { payload_len, ..self }
    }

    /// Take the next decrypted header word; the one that completes the
    /// header resolves where the chunk goes.
    #[inline(always)]
    pub(crate) fn capture<M: Mem>(&mut self, m: &mut M, w: u32) {
        self.prefix[self.hdr_seen + LAST as usize] = w;
        m.compute(1);
        self.hdr_seen += 1;
        if self.hdr_seen == hdr_words(LAST) {
            self.place_chunk();
        }
    }

    /// File offset and XDR opaque length from the RPC header; a staging
    /// sink writes linearly instead (the header offset points into a
    /// file this buffer does not hold). Once per message: out of the
    /// loop body.
    #[cold]
    fn place_chunk(&mut self) {
        let offset = if self.anchored { 0 } else { self.prefix[3] as usize };
        let declared = self.prefix[PREFIX_WORDS - 1] as usize;
        match Placement::resolve(self.app_addr, self.app_cap, offset, declared, self.payload_len) {
            Ok(place) => (self.place, self.refused) = (place, None),
            Err(why) => self.refused = Some(why),
        }
    }

    /// Parse the captured prefix into a [`ReplyMeta`]; `None` also when
    /// the chunk it describes was not placed (nothing was written then).
    pub fn meta(&self) -> Option<(usize, ReplyMeta)> {
        ReplyMeta::parse_prefix(&self.prefix).filter(|_| self.refused.is_none())
    }

    /// The admission rule's verdict on the decrypted fields: the length
    /// field consistent with the header ([`ReplyMeta::parse_prefix`]),
    /// the message inside the transport payload and the chunk inside the
    /// buffer (resolved when the header completed — never, for a payload
    /// shorter than a header).
    ///
    /// # Errors
    /// [`Reject::BadFormat`] naming the first clause that failed.
    pub fn finish(&self) -> Result<ReplyMeta, Reject> {
        let (_, meta) =
            ReplyMeta::parse_prefix(&self.prefix).ok_or(Reject::BadFormat("reply prefix"))?;
        self.refused.map_or(Ok(meta), Err)
    }

    /// Chunk bytes delivered so far.
    pub fn data_written(&self) -> usize {
        match self.refused {
            Some(_) => 0,
            None => self.prefix[PREFIX_WORDS - 1] as usize - self.place.left(),
        }
    }
}

impl<M: Mem, const LAST: bool> UnitSink<M> for UnmarshalSink<LAST> {
    #[inline(always)]
    fn store(&mut self, m: &mut M, unit: &UnitBuf, grain: StoreGrain) {
        // Steady state: the whole unit is chunk data.
        if self.place.left() >= unit.len() {
            return self.place.place_unit(m, unit, grain);
        }
        for wi in 0..unit.words() {
            let w = unit.word(wi);
            if self.hdr_seen < hdr_words(LAST) {
                self.capture(m, w);
                continue;
            }
            if LAST {
                self.prefix[0] = w; // the final assignment holds the length field
            }
            self.place.place(m, w, grain);
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

    /// The sink under a peer we did not write, in either format: every
    /// whole-unit truncation of a decrypted reply, each under every
    /// single-bit flip, through both constructors, into a buffer that
    /// ends where the arena ends. No panic and no store past the buffer
    /// (`NativeMem` would catch it); what `finish` admits lies inside the
    /// buffer and inside the payload; and only the whole message is
    /// admitted as the chunk that was sent.
    fn sink_never_panics_and_admits_only_what_fits<const LAST: bool>() {
        const CAP: usize = 128;
        let sent = ReplyMeta { request_id: 0xAB, seq: 3, offset: 64, last: 1, data_len: 21 };
        let mut space = AddressSpace::new();
        let data = space.alloc("data", 24, 8);
        let app = space.alloc("app", CAP, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut valid = Vec::new();
        let mut src = WordView::<LAST>::new(&sent, data.base, 8).full_source();
        while let Some(w) = src.next_word(&mut m) {
            valid.push(w);
        }
        let mut run = |words: &[u32], staged: bool| {
            let sink = if staged { UnmarshalSink::<LAST>::staging } else { UnmarshalSink::<LAST>::new };
            let mut sink = sink(app.base, CAP).within(4 * words.len());
            for pair in words.chunks(2) {
                let mut unit = UnitBuf::new(8);
                unit.set_word(0, pair[0]);
                unit.set_word(1, pair[1]);
                sink.store(&mut m, &unit, StoreGrain::Byte);
            }
            assert_eq!(sink.finish().ok(), sink.meta().map(|(_, meta)| meta));
            if let Ok(meta) = sink.finish() {
                let at = if staged { 0 } else { meta.offset as usize };
                assert!(at + meta.data_len as usize <= CAP, "{meta:?} admitted outside the buffer");
                assert!(4 + meta.marshalled_len() <= 4 * words.len(), "{meta:?} admitted outside the payload");
                assert_eq!(sink.data_written(), meta.data_len as usize);
            }
            sink.finish()
        };
        for staged in [false, true] {
            assert_eq!(run(&valid, staged), Ok(sent));
            for cut in (0..valid.len()).step_by(2) {
                assert!(run(&valid[..cut], staged).is_err(), "cut at word {cut}");
                for bit in 0..32 * cut {
                    let mut flipped = valid[..cut].to_vec();
                    flipped[bit / 32] ^= 1 << (bit % 32);
                    assert!(run(&flipped, staged).is_err(), "cut at word {cut}, bit {bit}");
                }
            }
            for bit in 0..32 * valid.len() {
                let mut flipped = valid.clone();
                flipped[bit / 32] ^= 1 << (bit % 32);
                let _ = run(&flipped, staged);
            }
        }
    }

    #[test]
    fn unmarshal_sink_never_panics_on_truncated_or_bit_flipped_replies() {
        sink_never_panics_and_admits_only_what_fits::<LENGTH_FIRST>();
        sink_never_panics_and_admits_only_what_fits::<LENGTH_LAST>();
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
