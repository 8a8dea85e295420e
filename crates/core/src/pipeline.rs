//! The ILP loop drivers.
//!
//! [`ilp_run`] is the integrated processing loop of the paper's Figure 1:
//! it pulls 4-byte words from a [`WordSource`] (marshalling output or a
//! received buffer), gathers them into an exchange unit sized by the LCM
//! rule, pushes the unit through the fused stages *in registers*, and
//! hands the transformed unit to a [`UnitSink`] — the only write. One
//! read and one write per unit; everything else is register traffic plus
//! whatever table/key/scratch accesses the stages themselves make.
//!
//! Each (source, stages, sink) instantiation compiles to one loop body:
//! the `next_word` / `next_unit` / `process` / `store` implementations of
//! this workspace and [`store_unit`] are `#[inline(always)]`, and so are
//! the unit kernels of the experiment cipher (`SimplifiedSafer`, ≈ 75
//! instructions a unit once it touches memory in bursts — the paper's
//! macro; the full SAFER K-64 and DES bodies stay out of line, a loop
//! with one of those inlined spills). Rare cases (tail word, padding,
//! header capture) sit in `#[cold]` helpers, and `scripts/ci.sh` fails
//! when the native benchmark binary carries a source, stage, sink, unit
//! store, `Mem` word burst or `SimplifiedSafer` unit kernel as an
//! out-of-line symbol. DESIGN.md §18 has the measurements.
//!
//! Memory traffic is per unit, not per word: the loop pulls a unit with
//! [`WordSource::next_unit`] and every sink stores one with
//! [`store_unit`] — each one bounds check natively, and to an
//! instrumented memory exactly the per-word accesses they replace.
//!
//! The sink stores at a [`StoreGrain`] derived from the stages' output
//! granularity: the byte-oriented SAFER family stores single bytes (the
//! paper's observed behaviour and the source of its 1-byte cache-miss
//! pathology), word ciphers store 4-byte words. [`StoreGrain::Word`] can
//! be forced to reproduce the §2.2 "writing n bytes 1-byte-wise costs n
//! cache misses instead of n/m" ablation.

use memsim::{CodeRegion, Mem};
use xdr::stream::WordSource;

use crate::stage::UnitStage;
use crate::unitbuf::UnitBuf;
use crate::units::{exchange_unit, UnitError};

/// Granularity of the sink store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreGrain {
    /// One write per byte (byte-oriented ciphers).
    Byte,
    /// One write per 4-byte word.
    Word,
}

impl StoreGrain {
    /// Derive from a stage's declared output granularity.
    pub fn from_output_grain(grain: Option<usize>) -> StoreGrain {
        match grain {
            Some(1) => StoreGrain::Byte,
            _ => StoreGrain::Word,
        }
    }
}

/// Receives transformed exchange units — the single write of the ILP
/// loop. Implemented by linear buffers here and by the TCP ring buffer
/// in `utcp`.
pub trait UnitSink<M: Mem> {
    /// Store `unit` at the given granularity.
    fn store(&mut self, m: &mut M, unit: &UnitBuf, grain: StoreGrain);
}

/// Store a whole exchange unit at `addr` as one burst: the `words()`
/// four-byte writes of [`StoreGrain::Word`], or the one-byte writes of
/// [`StoreGrain::Byte`], at ascending addresses — what every sink's
/// steady state is.
#[inline(always)]
pub fn store_unit<M: Mem>(m: &mut M, addr: usize, unit: &UnitBuf, grain: StoreGrain) {
    match unit.words() {
        1 => store_words::<1, M>(m, addr, core::array::from_fn(|i| unit.word(i)), grain),
        2 => store_words::<2, M>(m, addr, core::array::from_fn(|i| unit.word(i)), grain),
        3 => store_words::<3, M>(m, addr, core::array::from_fn(|i| unit.word(i)), grain),
        _ => store_words::<4, M>(m, addr, core::array::from_fn(|i| unit.word(i)), grain),
    }
}

/// Store `W` words at `addr` as one burst at `grain` — the one place a
/// store grain becomes `Mem` accesses.
#[inline(always)]
pub fn store_words<const W: usize, M: Mem>(m: &mut M, addr: usize, words: [u32; W], grain: StoreGrain) {
    match grain {
        StoreGrain::Byte => m.write_words_as_bytes(addr, words),
        StoreGrain::Word => m.write_words_be(addr, words),
    }
}

/// Sink writing sequentially into a flat memory region.
#[derive(Debug, Clone, Copy)]
pub struct LinearSink {
    addr: usize,
    written: usize,
}

impl LinearSink {
    /// Store starting at `addr`.
    pub fn new(addr: usize) -> Self {
        LinearSink { addr, written: 0 }
    }

    /// Bytes stored so far.
    pub fn written(&self) -> usize {
        self.written
    }
}

impl<M: Mem> UnitSink<M> for LinearSink {
    #[inline(always)]
    fn store(&mut self, m: &mut M, unit: &UnitBuf, grain: StoreGrain) {
        store_unit(m, self.addr + self.written, unit, grain);
        self.written += unit.len();
    }
}

/// Outcome of one [`ilp_run`] invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IlpRun {
    /// Bytes pulled from the source and pushed to the sink.
    pub bytes: usize,
    /// Exchange-unit size that was negotiated.
    pub exchange_unit: usize,
}

/// The integrated loop: `source → stages → sink`.
///
/// * `system_len` is the `Ls` hardware term of the LCM rule (pass 1 to
///   let the stages alone decide);
/// * `code` is the fused loop's instruction footprint, fetched once per
///   iteration when given (the I-cache cost of the bigger integrated
///   body — `None` for native benchmarking).
///
/// The source must deliver a whole number of exchange units
/// (`total_words × 4 ≡ 0 mod Le`) — the alignment the encryption layer's
/// padding guarantees on the way out and a receiver establishes before
/// it calls (`rpcapp::paths` refuses an unaligned payload ahead of every
/// pass, as it does for `cipher::decrypt_buf`). Violations panic: they
/// are a caller bug, never something a peer can send.
///
/// # Errors
/// Returns a [`UnitError`] when the stages' units cannot be negotiated
/// into a register-sized exchange unit.
pub fn ilp_run<M: Mem>(
    m: &mut M,
    source: &mut impl WordSource<M>,
    stages: &mut impl UnitStage<M>,
    sink: &mut impl UnitSink<M>,
    system_len: usize,
    code: Option<CodeRegion>,
) -> Result<IlpRun, UnitError> {
    // Word filters deal in words: the exchange unit is at least 4.
    let le = exchange_unit(&[4, stages.natural_unit()], system_len)?;
    let grain = StoreGrain::from_output_grain(stages.output_grain());
    let total_words = source.total_words();
    // One loop per unit width (`exchange_unit` caps `le` at 16 bytes): the
    // width is a constant of the loop body, so the unit lives in registers
    // and the stages' per-word loops unroll.
    let units = match le / 4 {
        1 => run_units::<1, M>(m, source, stages, sink, grain, code, total_words),
        2 => run_units::<2, M>(m, source, stages, sink, grain, code, total_words),
        3 => run_units::<3, M>(m, source, stages, sink, grain, code, total_words),
        _ => run_units::<4, M>(m, source, stages, sink, grain, code, total_words),
    };
    Ok(IlpRun { bytes: units * le, exchange_unit: le })
}

/// The loop of [`ilp_run`] over `W`-word exchange units; returns how many
/// it moved.
fn run_units<const W: usize, M: Mem>(
    m: &mut M,
    source: &mut impl WordSource<M>,
    stages: &mut impl UnitStage<M>,
    sink: &mut impl UnitSink<M>,
    grain: StoreGrain,
    code: Option<CodeRegion>,
    total_words: usize,
) -> usize {
    assert_eq!(
        total_words % W,
        0,
        "source length {total_words} words is not a whole number of {}-byte exchange units",
        4 * W
    );
    let units = total_words / W;
    let mut unit = UnitBuf::new(4 * W);
    for _ in 0..units {
        for (i, w) in source.next_unit::<W>(m).into_iter().enumerate() {
            unit.set_word(i, w);
        }
        if let Some(code) = code {
            m.fetch(code);
        }
        stages.process(m, &mut unit);
        sink.store(m, &unit, grain);
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{ChecksumTap, DecryptStage, EncryptStage, Fused, Identity};
    use checksum::internet::checksum_buf;
    use cipher::{SimplifiedSafer, VerySimple};
    use memsim::{AddressSpace, HostModel, NativeMem, SimMem, SizeClass};
    use xdr::stream::{HeaderWords, OpaqueSource};

    #[test]
    fn identity_pipeline_copies_exactly() {
        let mut space = AddressSpace::new();
        let src = space.alloc("src", 64, 8);
        let dst = space.alloc("dst", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let data: Vec<u8> = (0..64).collect();
        m.bytes_mut(src.base, 64).copy_from_slice(&data);
        let mut source = OpaqueSource::new(src.base, 64);
        let mut sink = LinearSink::new(dst.base);
        let run = ilp_run(&mut m, &mut source, &mut Identity, &mut sink, 1, None).unwrap();
        assert_eq!(run.bytes, 64);
        assert_eq!(run.exchange_unit, 4);
        assert_eq!(m.bytes(dst.base, 64), &data[..]);
    }

    #[test]
    fn fused_encrypt_checksum_equals_layered_result() {
        // The correctness core of the whole reproduction: the ILP loop and
        // the layered implementation must produce identical bytes and
        // identical checksums.
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let src = space.alloc("src", 64, 8);
        let ilp_dst = space.alloc("ilp_dst", 64, 8);
        let lay_mid = space.alloc("lay_mid", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        cipher.init(&mut m, [0x42; 8]);
        let data: Vec<u8> = (0..64).map(|i| (i * 7 + 1) as u8).collect();
        m.bytes_mut(src.base, 64).copy_from_slice(&data);

        // ILP path.
        let mut source = OpaqueSource::new(src.base, 64);
        let mut stages = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
        let mut sink = LinearSink::new(ilp_dst.base);
        let run = ilp_run(&mut m, &mut source, &mut stages, &mut sink, 1, None).unwrap();
        assert_eq!(run.exchange_unit, 8);

        // Layered path: encrypt_buf then checksum_buf.
        cipher::encrypt_buf(&cipher, &mut m, src.base, lay_mid.base, 64);
        let layered_sum = checksum_buf(&mut m, lay_mid.base, 64);

        assert_eq!(m.bytes(ilp_dst.base, 64), m.bytes(lay_mid.base, 64));
        assert_eq!(stages.b.sum().fold(), layered_sum.fold());
    }

    #[test]
    fn ilp_roundtrip_decrypts_back() {
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let src = space.alloc("src", 32, 8);
        let enc = space.alloc("enc", 32, 8);
        let dec = space.alloc("dec", 32, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        cipher.init(&mut m, [1; 8]);
        let data: Vec<u8> = (50..82).collect();
        m.bytes_mut(src.base, 32).copy_from_slice(&data);

        let mut fwd = OpaqueSource::new(src.base, 32);
        let mut enc_stage = EncryptStage::new(cipher);
        let mut enc_sink = LinearSink::new(enc.base);
        ilp_run(&mut m, &mut fwd, &mut enc_stage, &mut enc_sink, 1, None).unwrap();

        let mut back = OpaqueSource::new(enc.base, 32);
        let mut dec_stage = DecryptStage::new(cipher);
        let mut dec_sink = LinearSink::new(dec.base);
        ilp_run(&mut m, &mut back, &mut dec_stage, &mut dec_sink, 1, None).unwrap();
        assert_eq!(m.bytes(dec.base, 32), &data[..]);
    }

    #[test]
    fn word_cipher_negotiates_4_byte_exchange_unit() {
        let mut space = AddressSpace::new();
        let cipher = VerySimple::alloc(&mut space);
        let src = space.alloc("src", 32, 8);
        let dst = space.alloc("dst", 32, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut source = OpaqueSource::new(src.base, 32);
        let mut stages = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
        let mut sink = LinearSink::new(dst.base);
        let run = ilp_run(&mut m, &mut source, &mut stages, &mut sink, 1, None).unwrap();
        assert_eq!(run.exchange_unit, 4);
    }

    #[test]
    fn system_len_widens_exchange_unit() {
        let mut space = AddressSpace::new();
        let cipher = VerySimple::alloc(&mut space);
        let src = space.alloc("src", 32, 8);
        let dst = space.alloc("dst", 32, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut source = OpaqueSource::new(src.base, 32);
        let mut stage = EncryptStage::new(cipher);
        let mut sink = LinearSink::new(dst.base);
        let run = ilp_run(&mut m, &mut source, &mut stage, &mut sink, 8, None).unwrap();
        assert_eq!(run.exchange_unit, 8);
    }

    #[test]
    fn store_grain_follows_cipher() {
        let mut space = AddressSpace::new();
        let safer = SimplifiedSafer::alloc(&mut space);
        let src = space.alloc("src", 32, 8);
        let dst = space.alloc_kind("dst", 32, 8, memsim::RegionKind::Ring);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        safer.init(&mut m, [5; 8]);
        let _ = m.take_stats();
        let mut source = OpaqueSource::new(src.base, 32);
        let mut stage = EncryptStage::new(safer);
        let mut sink = LinearSink::new(dst.base);
        ilp_run(&mut m, &mut source, &mut stage, &mut sink, 1, None).unwrap();
        let stats = m.stats();
        // Byte-oriented cipher → 32 single-byte stores to the ring.
        assert_eq!(stats.writes_for(memsim::RegionKind::Ring).by_size(SizeClass::B1), 32);
    }

    #[test]
    fn header_plus_payload_source_through_sink_adapter() {
        let mut space = AddressSpace::new();
        let src = space.alloc("src", 32, 8);
        let dst = space.alloc("dst", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let payload: Vec<u8> = (0..28).collect();
        m.bytes_mut(src.base, 28).copy_from_slice(&payload);
        let mut source = xdr::stream::Chain::new(
            HeaderWords::new(&[0xAA00_0001]),
            OpaqueSource::new(src.base, 28),
        );
        let mut sink = LinearSink::new(dst.base);
        ilp_run(&mut m, &mut source, &mut Identity, &mut sink, 1, None).unwrap();
        assert_eq!(sink.written(), 32);
        assert_eq!(m.bytes(dst.base, 4), &0xAA00_0001u32.to_be_bytes());
        assert_eq!(m.bytes(dst.base + 4, 28), &payload[..]);
    }

    #[test]
    #[should_panic(expected = "exchange units")]
    fn unaligned_source_panics() {
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let src = space.alloc("src", 32, 8);
        let dst = space.alloc("dst", 32, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        cipher.init(&mut m, [5; 8]);
        // 12 bytes = 3 words: not a multiple of the 8-byte exchange unit.
        let mut source = OpaqueSource::new(src.base, 12);
        let mut stage = EncryptStage::new(cipher);
        let _ = ilp_run(&mut m, &mut source, &mut stage, &mut LinearSink::new(dst.base), 1, None);
    }

    #[test]
    fn the_single_read_single_write_property() {
        // The defining ILP property (Figure 1): per unit of payload, the
        // loop reads the source once and writes the sink once; all other
        // traffic is the stages' own tables/keys/scratch.
        let mut space = AddressSpace::new();
        let src = space.alloc_kind("src", 64, 8, memsim::RegionKind::AppData);
        let dst = space.alloc_kind("dst", 64, 8, memsim::RegionKind::Ring);
        let mut m = SimMem::new(&space, &HostModel::ss20_60());
        let mut source = OpaqueSource::new(src.base, 64);
        let mut tap = ChecksumTap::new();
        let mut sink = LinearSink::new(dst.base);
        ilp_run(&mut m, &mut source, &mut tap, &mut sink, 1, None).unwrap();
        let stats = m.stats();
        assert_eq!(stats.reads_for(memsim::RegionKind::AppData).total(), 16);
        assert_eq!(stats.writes_for(memsim::RegionKind::Ring).total(), 16);
        assert_eq!(stats.reads.total(), 16);
        assert_eq!(stats.writes.total(), 16);
    }
}
