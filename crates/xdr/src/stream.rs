//! Word-granular streaming marshal/unmarshal — the ILP-fusible form.
//!
//! The paper's word filters (§2.1, after Abbott & Peterson) pass data
//! between integrated functions one word at a time "as soon as it is
//! ready". Here a [`WordSource`] produces one 4-byte big-endian wire word
//! per call — header words synthesised in registers, payload words read
//! from application memory — and a [`WordSink`] consumes words on the
//! receive side. The fused loops in `ilp-core` pull words from a source,
//! push them through cipher/checksum stages *in registers*, and store the
//! result once; marshalling output never becomes memory traffic. They
//! pull a whole exchange unit at a time ([`WordSource::next_unit`]): the
//! same words and the same `Mem` accesses as one `next_word` per word, but
//! a source whose unit is all data reads it as one burst.
//!
//! The ILP applicability rule (§2.2) — *the header size must be known
//! before entering the ILP loop* — shows up here as
//! [`WordSource::total_words`]: every stream declares its exact length up
//! front, and composition ([`Chain`]) adds lengths.

use memsim::Mem;

/// A source of 4-byte big-endian wire words.
pub trait WordSource<M: Mem> {
    /// Produce the next wire word, or `None` when the stream is done.
    fn next_word(&mut self, m: &mut M) -> Option<u32>;

    /// Exact number of words this stream emits in total (the "header size
    /// known in advance" requirement).
    fn total_words(&self) -> usize;

    /// The next `W` words — one exchange unit of a fused loop — exactly
    /// as `W` calls of [`Self::next_word`] produce them, with the same
    /// `Mem` accesses in the same order. A source overrides this to read
    /// a unit that is all data as one [`Mem::read_words_be`] burst.
    ///
    /// # Panics
    /// Panics when fewer than `W` words are left.
    #[inline(always)]
    fn next_unit<const W: usize>(&mut self, m: &mut M) -> [u32; W]
    where
        Self: Sized,
    {
        unit_by_words(self, m)
    }
}

/// `W` calls of [`WordSource::next_word`] — what a unit *is*: the default
/// [`WordSource::next_unit`], and an override's path for the few units per
/// message it cannot read as one burst (header words, the tail word,
/// padding, a trailer). In line on purpose: as a call it would take the
/// memory out of the loop, which then re-derives the memory's bounds and
/// every table-window check every unit (DESIGN.md §18, row 13).
#[inline(always)]
pub fn unit_by_words<M: Mem, S: WordSource<M>, const W: usize>(source: &mut S, m: &mut M) -> [u32; W] {
    core::array::from_fn(|_| source.next_word(m).expect("source violated its declared word count"))
}

/// A consumer of 4-byte big-endian wire words.
pub trait WordSink<M: Mem> {
    /// Consume one wire word. Returns `false` once the sink is full (the
    /// word is still consumed if the sink had any capacity left).
    fn push_word(&mut self, m: &mut M, word: u32) -> bool;

    /// Exact number of words this sink accepts.
    fn total_words(&self) -> usize;
}

/// Up to 16 header words emitted from registers — the marshalled RPC
/// header, already packed by the stub code.
#[derive(Debug, Clone, Copy)]
pub struct HeaderWords {
    words: [u32; 16],
    len: usize,
    next: usize,
}

impl HeaderWords {
    /// A stream over the given words.
    ///
    /// # Panics
    /// Panics if more than 16 words are supplied.
    pub fn new(words: &[u32]) -> Self {
        assert!(words.len() <= 16, "header too large for HeaderWords");
        let mut buf = [0u32; 16];
        buf[..words.len()].copy_from_slice(words);
        HeaderWords { words: buf, len: words.len(), next: 0 }
    }
}

impl<M: Mem> WordSource<M> for HeaderWords {
    #[inline(always)]
    fn next_word(&mut self, m: &mut M) -> Option<u32> {
        if self.next >= self.len {
            return None;
        }
        let w = self.words[self.next];
        self.next += 1;
        m.compute(1); // register move / immediate synthesis
        Some(w)
    }

    fn total_words(&self) -> usize {
        self.len
    }
}

/// Payload words read from application memory: `len` bytes at `addr`,
/// zero-padded to a whole word (RFC 1014 opaque body, without the length
/// word — emit that via [`HeaderWords`] or [`Chain`]).
#[derive(Debug, Clone, Copy)]
pub struct OpaqueSource {
    addr: usize,
    len: usize,
    off: usize,
}

impl OpaqueSource {
    /// Stream over `len` bytes at `addr`.
    pub fn new(addr: usize, len: usize) -> Self {
        OpaqueSource { addr, len, off: 0 }
    }
}

impl<M: Mem> WordSource<M> for OpaqueSource {
    #[inline(always)]
    fn next_word(&mut self, m: &mut M) -> Option<u32> {
        if self.off >= self.len {
            return None;
        }
        let w = opaque_word(m, self.addr, self.len, self.off);
        self.off += 4;
        Some(w)
    }

    fn total_words(&self) -> usize {
        crate::runtime::pad4(self.len) / 4
    }

    /// A unit of whole data words is one burst; the tail word and the
    /// padding go word by word.
    #[inline(always)]
    fn next_unit<const W: usize>(&mut self, m: &mut M) -> [u32; W] {
        if self.off + 4 * W > self.len {
            return unit_by_words(self, m);
        }
        let unit = m.read_words_be(self.addr + self.off);
        self.off += 4 * W;
        unit
    }
}

/// The word at byte offset `off` (a multiple of 4) of an RFC 1014 opaque
/// body of `len` bytes at `addr`. The steady state — a whole data word —
/// is one compare and one read, so a fused loop that inlines this
/// carries nothing else per word.
#[inline(always)]
pub fn opaque_word<M: Mem>(m: &mut M, addr: usize, len: usize, off: usize) -> u32 {
    if off + 4 <= len {
        m.read_u32_be(addr + off)
    } else {
        opaque_edge_word(m, addr, len, off)
    }
}

/// The words at the end of an opaque body: the partial tail word, its
/// bytes gathered and zero-padded in registers, or a zero word past the
/// end (XDR padding / cipher alignment).
#[cold]
fn opaque_edge_word<M: Mem>(m: &mut M, addr: usize, len: usize, off: usize) -> u32 {
    let remaining = len.saturating_sub(off);
    if remaining == 0 {
        m.compute(1);
        return 0;
    }
    let mut w = 0u32;
    for i in 0..remaining {
        w |= u32::from(m.read_u8(addr + off + i)) << (24 - 8 * i);
    }
    m.compute(remaining as u32);
    w
}

/// Two word sources in sequence.
#[derive(Debug, Clone, Copy)]
pub struct Chain<A, B> {
    a: A,
    b: B,
}

impl<A, B> Chain<A, B> {
    /// `a` then `b`.
    pub fn new(a: A, b: B) -> Self {
        Chain { a, b }
    }
}

impl<M: Mem, A: WordSource<M>, B: WordSource<M>> WordSource<M> for Chain<A, B> {
    #[inline(always)]
    fn next_word(&mut self, m: &mut M) -> Option<u32> {
        self.a.next_word(m).or_else(|| self.b.next_word(m))
    }

    fn total_words(&self) -> usize {
        self.a.total_words() + self.b.total_words()
    }
}

/// Receive-side sink writing payload words into application memory.
///
/// The first `skip_words` words are captured into a register-resident
/// header buffer (readable afterwards via [`OpaqueSink::header`]) — the
/// unmarshalling side of the RPC header — and the rest land word-wise at
/// `addr`. A partial final word writes only the in-bounds bytes.
#[derive(Debug, Clone, Copy)]
pub struct OpaqueSink {
    addr: usize,
    len: usize,
    skip_words: usize,
    header: [u32; 16],
    seen: usize,
}

impl OpaqueSink {
    /// Capture `skip_words` header words, then write `len` payload bytes
    /// to `addr`.
    ///
    /// # Panics
    /// Panics if `skip_words > 16`.
    pub fn new(skip_words: usize, addr: usize, len: usize) -> Self {
        assert!(skip_words <= 16);
        OpaqueSink { addr, len, skip_words, header: [0; 16], seen: 0 }
    }

    /// The captured header words (valid after the sink has consumed at
    /// least `skip_words` words).
    pub fn header(&self) -> &[u32] {
        &self.header[..self.skip_words.min(self.seen)]
    }

    /// Payload bytes written so far.
    pub fn payload_written(&self) -> usize {
        let payload_words = self.seen.saturating_sub(self.skip_words);
        (payload_words * 4).min(self.len)
    }
}

impl<M: Mem> WordSink<M> for OpaqueSink {
    fn push_word(&mut self, m: &mut M, word: u32) -> bool {
        let total = <Self as WordSink<M>>::total_words(self);
        if self.seen >= total {
            return false;
        }
        if self.seen < self.skip_words {
            self.header[self.seen] = word;
            m.compute(1);
        } else {
            let off = (self.seen - self.skip_words) * 4;
            let remaining = self.len - off;
            if remaining >= 4 {
                m.write_u32_be(self.addr + off, word);
            } else {
                for i in 0..remaining {
                    m.write_u8(self.addr + off + i, (word >> (24 - 8 * i)) as u8);
                }
                m.compute(remaining as u32);
            }
        }
        self.seen += 1;
        self.seen < total
    }

    fn total_words(&self) -> usize {
        self.skip_words + crate::runtime::pad4(self.len) / 4
    }
}

/// Drain a source into a sink (no transformation) — the degenerate
/// one-stage "integration"; useful for tests and as the copy stage.
pub fn pump<M: Mem>(m: &mut M, src: &mut impl WordSource<M>, dst: &mut impl WordSink<M>) -> usize {
    let mut n = 0;
    while let Some(w) = src.next_word(m) {
        dst.push_word(m, w);
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, HostModel, NativeMem, SimMem};

    fn fixture() -> (AddressSpace, memsim::Region, memsim::Region) {
        let mut space = AddressSpace::new();
        let src = space.alloc_kind("app_src", 256, 8, memsim::RegionKind::AppData);
        let dst = space.alloc_kind("app_dst", 256, 8, memsim::RegionKind::AppData);
        (space, src, dst)
    }

    #[test]
    fn header_words_emit_in_order() {
        let (space, _, _) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut h = HeaderWords::new(&[10, 20, 30]);
        assert_eq!(WordSource::<NativeMem>::total_words(&h), 3);
        assert_eq!(h.next_word(&mut m), Some(10));
        assert_eq!(h.next_word(&mut m), Some(20));
        assert_eq!(h.next_word(&mut m), Some(30));
        assert_eq!(h.next_word(&mut m), None);
    }

    #[test]
    fn opaque_source_pads_tail_with_zeros() {
        let (space, src, _) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.bytes_mut(src.base, 6).copy_from_slice(&[1, 2, 3, 4, 5, 6]);
        let mut s = OpaqueSource::new(src.base, 6);
        assert_eq!(WordSource::<NativeMem>::total_words(&s), 2);
        assert_eq!(s.next_word(&mut m), Some(0x01020304));
        assert_eq!(s.next_word(&mut m), Some(0x05060000));
        assert_eq!(s.next_word(&mut m), None);
    }

    #[test]
    fn chain_concatenates_and_sums_length() {
        let (space, src, _) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.bytes_mut(src.base, 4).copy_from_slice(&[9, 9, 9, 9]);
        let mut c = Chain::new(HeaderWords::new(&[0xAAAA_AAAA]), OpaqueSource::new(src.base, 4));
        assert_eq!(WordSource::<NativeMem>::total_words(&c), 2);
        assert_eq!(c.next_word(&mut m), Some(0xAAAA_AAAA));
        assert_eq!(c.next_word(&mut m), Some(0x09090909));
        assert_eq!(c.next_word(&mut m), None);
    }

    #[test]
    fn sink_captures_header_then_writes_payload() {
        let (space, src, dst) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let payload: Vec<u8> = (1..=10).collect();
        m.bytes_mut(src.base, 10).copy_from_slice(&payload);
        let mut source = Chain::new(HeaderWords::new(&[0xDEAD, 0xBEEF]), OpaqueSource::new(src.base, 10));
        let mut sink = OpaqueSink::new(2, dst.base, 10);
        assert_eq!(
            WordSource::<NativeMem>::total_words(&source),
            WordSink::<NativeMem>::total_words(&sink)
        );
        pump(&mut m, &mut source, &mut sink);
        assert_eq!(sink.header(), &[0xDEAD, 0xBEEF]);
        assert_eq!(m.bytes(dst.base, 10), &payload[..]);
        assert_eq!(sink.payload_written(), 10);
    }

    #[test]
    fn partial_tail_does_not_overwrite_neighbours() {
        let (space, src, dst) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.bytes_mut(dst.base, 8).copy_from_slice(&[0xEE; 8]);
        m.bytes_mut(src.base, 5).copy_from_slice(&[1, 2, 3, 4, 5]);
        let mut source = OpaqueSource::new(src.base, 5);
        let mut sink = OpaqueSink::new(0, dst.base, 5);
        pump(&mut m, &mut source, &mut sink);
        assert_eq!(m.bytes(dst.base, 5), &[1, 2, 3, 4, 5]);
        // Bytes 5..8 untouched: a 5-byte sink must not write byte 5.
        assert_eq!(m.bytes(dst.base + 5, 3), &[0xEE, 0xEE, 0xEE]);
    }

    #[test]
    fn streaming_marshal_reads_but_never_writes() {
        // The ILP promise: marshalling output stays in registers.
        let (space, src, _) = fixture();
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        m.poke(src.base, &[5u8; 64]);
        let _ = m.take_stats();
        let mut s = Chain::new(HeaderWords::new(&[1, 2, 3]), OpaqueSource::new(src.base, 64));
        let mut total = 0u64;
        while let Some(w) = s.next_word(&mut m) {
            total = total.wrapping_add(u64::from(w));
        }
        assert_ne!(total, 0);
        let stats = m.stats();
        assert_eq!(stats.reads.total(), 16);
        assert_eq!(stats.writes.total(), 0, "streaming marshal must not write");
    }
}
