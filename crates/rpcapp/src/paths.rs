//! The four data paths: {send, receive} × {non-ILP, ILP}, plus the
//! placement-policy variants of §3.2.2.
//!
//! **Non-ILP** (paper Figures 3 and 5, left): five passes out — marshal
//! into a buffer, encrypt into a second, `tcp_send` copies into the
//! ring, `tcp_output` re-reads it for the checksum, the system copy —
//! and four in: system copy, checksum, decrypt, unmarshal+copy.
//!
//! **ILP** (right): `fused_send` reads the application data once,
//! marshals/encrypts/checksums in registers and stores straight into the
//! ring, one loop per message part in the B→C→A order of Figure 4 (one
//! linear part in the trailer format); `fused_recv` is one
//! checksum+decrypt+unmarshal loop straight into the application buffer,
//! with the accept/reject verdict in the final stage (the three-stage
//! split of §2.1: `poll_input`, the loop, `finish_recv`, shaped by
//! [`ilp_core::three_stage()`]). A segment that is not the next in-order
//! one is only checksummed, on both paths: its verdict is a reject, and
//! what it carries is manipulated when it is delivered. Every receiver starts in
//! `recv_whole_units` and ends in [`UnmarshalSink::finish`]: the
//! admission rule of [`crate::msg`].
//!
//! There is one implementation of each path, and it names the
//! connection it operates on and the [`Scratch`] it may use: the
//! single-pair [`Suite`] (every paper figure), the multi-connection
//! server harness, the two-process UDP demo and the native benchmark
//! all run these functions. What is *shared* across connections
//! ([`Scratch`]: the non-ILP intermediate buffers and every loop's
//! instruction footprint) versus *private* (ring, TCB, staging, file,
//! output — inside [`utcp::Connection`] and the caller's session)
//! mirrors a real server process: one code image and one set of static
//! buffers, N connection states. The `send_reply_*`/`recv_reply_*`
//! forms are the same calls with a [`Suite`]'s own pair filled in.
//!
//! Observation rides in on the kernel-part handle ([`utcp::KernelCtx`]):
//! pass a bare `&mut` kernel part and every span and trace mark
//! compiles away; pass [`utcp::observed`] and each separate pass
//! reports under its own layer (the fused loops as one inseparable
//! [`Layer::Fused`] span), in the stage it ran in.

use checksum::internet::checksum_buf;
use checksum::InetChecksum;
use cipher::CipherKernel;
use ilp_core::segment::Part;
use ilp_core::{
    ilp_run, three_stage, ChecksumTap, DecryptStage, EncryptStage, Fused, LinearSink, Ordering,
    PartKind, Reject, SegmentPlan, UnitSink, UnitStage,
};
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};
use obs::{Layer, SegEv, Stage};
use utcp::{observed, Connection, Delivered, KernelCtx, SendError};
use xdr::stream::OpaqueSource;
use xdr::XdrEncoder;

use crate::app::Path;
use crate::msg::{
    ReplyMeta, ReplyUnmarshalSink, UnmarshalSink, WordView, ENC_HDR_LEN, LENGTH_FIRST, PREFIX_BYTES,
    RPC_HDR_WORDS,
};
use crate::suite::{Suite, MAX_MSG};

/// Outcome of a receive poll.
pub type RecvOutcome = Option<Result<ReplyMeta, Reject>>;

/// Buffers and instruction footprints shared by every connection of one
/// process.
#[derive(Debug, Clone, Copy)]
pub struct Scratch {
    /// Non-ILP: marshalling output buffer.
    pub marshal_buf: Region,
    /// Non-ILP: encryption output buffer.
    pub encrypt_buf: Region,
    /// Non-ILP: decryption output buffer.
    pub decrypt_buf: Region,
    /// ILP staging (§3.2.2 pre-manipulation): the early-manipulation send
    /// experiment's holding buffer. No receive writes it.
    pub staging: Region,
    /// Fused send loop footprint (marshal + encrypt + checksum + store
    /// — the paper's ~3% code-size cost of inlining).
    pub code_ilp_send: CodeRegion,
    /// Fused receive loop footprint.
    pub code_ilp_recv: CodeRegion,
    /// Non-ILP marshalling loop footprint.
    pub code_marshal: CodeRegion,
    /// Non-ILP unmarshal+copy loop footprint.
    pub code_unmarshal: CodeRegion,
    /// Non-ILP checksum pass footprint.
    pub code_checksum: CodeRegion,
    /// `tcp_send` copy loop footprint.
    pub code_copy: CodeRegion,
}

/// Instruction footprints of the loop bodies, in bytes; a fused loop
/// carries the sum of its constituents plus glue (the paper's ≈ 3 %
/// code growth from inlining).
pub(crate) mod footprint {
    pub const MARSHAL: usize = 240;
    pub const UNMARSHAL: usize = 280;
    pub const CHECKSUM: usize = 96;
    pub const COPY: usize = 64;
    const ENCRYPT: usize = 480;
    const DECRYPT: usize = 560;
    const GLUE: usize = 120;
    pub const ILP_SEND: usize = MARSHAL + ENCRYPT + CHECKSUM + GLUE;
    pub const ILP_RECV: usize = UNMARSHAL + DECRYPT + CHECKSUM + GLUE;
}

impl Scratch {
    /// Allocate the shared buffers and code footprints, contiguously —
    /// the server layout. ([`Suite`] places the same regions around its
    /// application buffers instead.)
    pub fn alloc(space: &mut AddressSpace) -> Self {
        Scratch {
            marshal_buf: space.alloc_kind("marshal_buf", MAX_MSG, 8, RegionKind::Buffer),
            encrypt_buf: space.alloc_kind("encrypt_buf", MAX_MSG, 8, RegionKind::Buffer),
            decrypt_buf: space.alloc_kind("decrypt_buf", MAX_MSG, 8, RegionKind::Buffer),
            staging: space.alloc_kind("recv_staging", MAX_MSG, 8, RegionKind::Buffer),
            code_ilp_send: space.alloc_code("ilp_send_loop", footprint::ILP_SEND),
            code_ilp_recv: space.alloc_code("ilp_recv_loop", footprint::ILP_RECV),
            code_marshal: space.alloc_code("marshal_loop", footprint::MARSHAL),
            code_unmarshal: space.alloc_code("unmarshal_loop", footprint::UNMARSHAL),
            code_checksum: space.alloc_code("checksum_loop", footprint::CHECKSUM),
            code_copy: space.alloc_code("tcp_send_copy", footprint::COPY),
        }
    }
}

// ----------------------------------------------------------------------
// Send
// ----------------------------------------------------------------------

/// Non-ILP marshalling pass: build the complete plaintext message
/// (encryption header + RPC header + XDR data + alignment) in
/// `marshal_buf` with the XDR runtime's encoder. One read of the
/// application data, one write of the message.
fn marshal_pass<C: CipherKernel, M: Mem>(
    s: &Scratch,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> usize {
    m.fetch(s.code_marshal);
    let padded = meta.padded_len(C::UNIT);
    let mut enc = XdrEncoder::new(m, s.marshal_buf.base);
    // The prefix's last word is the opaque length `put_opaque_from` writes.
    for w in &meta.prefix_words()[..RPC_HDR_WORDS] {
        enc.put_u32(*w);
    }
    enc.put_opaque_from(data_addr, meta.data_len as usize);
    // Alignment bytes to the cipher block.
    while enc.written() < padded {
        enc.put_u32(0);
    }
    padded
}

/// **Non-ILP send** of one chunk on `tx`: marshal → encrypt →
/// `tcp_send`/`tcp_output` (copy + checksum + header + system copy),
/// each pass under its own layer in the integrated-stage position.
///
/// # Errors
/// Propagates transport back-pressure ([`SendError`]).
pub fn send_chunk_non_ilp<C: CipherKernel, M: Mem>(
    s: &Scratch,
    cipher: &C,
    m: &mut M,
    tx: &mut Connection,
    k: &mut impl KernelCtx,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    let seg = tx.seg_begin(meta.seq);
    k.seg(seg, SegEv::SendStage(Stage::Initial));
    let t = k.mark(m);
    let padded = marshal_pass::<C, M>(s, m, meta, data_addr); // step 1
    k.span(m, Stage::Integrated, Layer::Marshal, t);
    let t = k.mark(m);
    cipher::encrypt_buf(cipher, m, s.marshal_buf.base, s.encrypt_buf.base, padded); // step 2
    k.span(m, Stage::Integrated, Layer::Cipher, t);
    k.seg(seg, SegEv::SendStage(Stage::Integrated));
    let t = k.mark(m);
    m.fetch(s.code_copy);
    k.span(m, Stage::Integrated, Layer::Tcp, t);
    let t = k.mark(m);
    m.fetch(s.code_checksum);
    k.span(m, Stage::Integrated, Layer::Checksum, t);
    k.seg(seg, SegEv::SendStage(Stage::Final));
    tx.send_buf(m, k, s.encrypt_buf.base, padded)?; // steps 3–5
    Ok(padded)
}

/// The fused marshal+encrypt+checksum loop over a reply in either format,
/// one run per message part: the B→C→A order of §3.2.2 when the length
/// field leads, one linear part when it trails (nothing then precedes
/// the data it depends on). `sink_at(offset)` yields the sink for the
/// part that starts `offset` bytes into the message. Returns the
/// register-resident payload checksum.
fn fused_send<const LAST: bool, C: CipherKernel + Copy, M: Mem, S: UnitSink<M>>(
    code: CodeRegion,
    cipher: C,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
    mut sink_at: impl FnMut(usize) -> S,
) -> InetChecksum {
    let padded = meta.padded_len(C::UNIT);
    let (plan, linear);
    let parts: &[Part] = if LAST {
        linear = [Part { kind: PartKind::B, start: 0, end: padded }];
        &linear
    } else {
        plan = SegmentPlan::for_message(
            ENC_HDR_LEN,
            meta.marshalled_len(),
            C::UNIT,
            Ordering::Unconstrained,
        )
        .expect("block cipher stack is fusible");
        debug_assert_eq!(plan.padded_len, padded);
        plan.processing_order()
    };
    let words = WordView::<LAST>::new(meta, data_addr, C::UNIT);
    let mut stages = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
    for part in parts {
        if part.is_empty() {
            continue;
        }
        // The per-part checksum taps are merged with InetChecksum::combine,
        // which only reassociates over even byte counts at even offsets
        // (an odd part would pad mid-message per RFC 1071 and silently
        // corrupt the patched header checksum). SegmentPlan aligns parts
        // to the cipher block (a multiple of 4), so this always holds.
        debug_assert!(
            part.start % 2 == 0 && part.len() % 2 == 0,
            "combine precondition: part [{}, {}) must be even-aligned",
            part.start,
            part.end
        );
        let mut source = words.range_source(part.start / 4, part.end / 4);
        let mut sink = sink_at(part.start);
        ilp_run(m, &mut source, &mut stages, &mut sink, 1, Some(code))
            .expect("negotiated unit fits registers");
    }
    stages.b.sum()
}

/// **ILP send** of one chunk in either format on `tx`: one fused
/// marshal+encrypt+checksum loop per message part, stored straight into
/// the connection's ring; the header checksum is patched from the
/// register-resident sum. Ring reservation reports as initial-stage
/// work, the fused loop as the integrated stage (one span — the layers
/// are inseparable by construction), the commit as the final stage.
pub(crate) fn send_chunk_fused<const LAST: bool, C: CipherKernel + Copy, M: Mem>(
    s: &Scratch,
    cipher: C,
    m: &mut M,
    tx: &mut Connection,
    k: &mut impl KernelCtx,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    let seg = tx.seg_begin(meta.seq);
    let t = k.mark(m);
    let padded = meta.padded_len(C::UNIT);
    let (extent, _writer0) = tx.begin_ilp_send(padded)?;
    k.span(m, Stage::Initial, Layer::Tcp, t);
    k.seg(seg, SegEv::SendStage(Stage::Initial));
    let t = k.mark(m);
    let sum = fused_send::<LAST, C, M, _>(s.code_ilp_send, cipher, m, meta, data_addr, |off| {
        tx.ring_writer_at(extent, off)
    });
    k.span(m, Stage::Integrated, Layer::Fused, t);
    k.seg(seg, SegEv::SendStage(Stage::Integrated));
    k.seg(seg, SegEv::SendStage(Stage::Final));
    tx.commit_send(m, k, extent, sum);
    Ok(padded)
}

/// `send_chunk_fused` in the Figure 2 format — **the** ILP send.
///
/// # Errors
/// Propagates transport back-pressure ([`SendError`]).
pub fn send_chunk_ilp<C: CipherKernel + Copy, M: Mem>(
    s: &Scratch,
    cipher: C,
    m: &mut M,
    tx: &mut Connection,
    k: &mut impl KernelCtx,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    send_chunk_fused::<LENGTH_FIRST, C, M>(s, cipher, m, tx, k, meta, data_addr)
}

/// Send one chunk on `tx` over `path` — the one place a [`Path`] turns
/// into [`send_chunk_ilp`] or [`send_chunk_non_ilp`]. Inlined, so a
/// caller that passes a constant path keeps only that arm.
///
/// # Errors
/// Propagates transport back-pressure ([`SendError`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn send_chunk<C: CipherKernel + Copy, M: Mem>(
    path: Path,
    s: &Scratch,
    cipher: &C,
    m: &mut M,
    tx: &mut Connection,
    k: &mut impl KernelCtx,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    match path {
        Path::Ilp => send_chunk_ilp(s, *cipher, m, tx, k, meta, data_addr),
        Path::NonIlp => send_chunk_non_ilp(s, cipher, m, tx, k, meta, data_addr),
    }
}

/// [`send_chunk`] on the suite's own pair.
///
/// # Errors
/// Propagates transport back-pressure ([`SendError`]).
pub fn send_reply<C: CipherKernel + Copy, M: Mem>(
    path: Path,
    s: &mut Suite<C>,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    send_chunk(path, &s.scratch, &s.cipher, m, &mut s.tx, &mut s.lb, meta, data_addr)
}

/// **ILP send with early manipulation** (§3.2.2's alternative policy):
/// when the ring is full, data manipulations can run "as early as
/// possible" into a staging buffer; once space frees up, only a copy and
/// the header remain. This costs an extra read+write pass over the
/// message, which is why the paper (and this default) prefer delaying
/// the whole loop — the variant exists for the placement experiment.
///
/// # Errors
/// Propagates transport back-pressure ([`SendError`]).
pub fn send_reply_ilp_staged<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    let padded = meta.padded_len(C::UNIT);
    // Manipulate early, into the staging buffer.
    let staging = s.scratch.staging.base;
    let code = s.scratch.code_ilp_send;
    let sum = fused_send::<LENGTH_FIRST, C, M, _>(code, s.cipher, m, meta, data_addr, |off| {
        LinearSink::new(staging + off)
    });
    // Later (here: immediately), when buffer space is available: copy
    // staging → ring and ship with the precomputed checksum.
    let (extent, _) = s.tx.begin_ilp_send(padded)?;
    m.fetch(s.scratch.code_copy);
    m.copy(staging, s.tx.ring_writer_at(extent, 0).base_addr(), padded);
    s.tx.commit_send(m, &mut s.lb, extent, sum);
    Ok(padded)
}

// ----------------------------------------------------------------------
// Receive
// ----------------------------------------------------------------------

/// The initial stage of every receiver: poll `rx`, hold the payload to
/// the admission rule's first clause — a whole number of `C`'s cipher
/// units — and hand the segment to `rest` for its verdict. An unaligned
/// segment is refused here, before any pass runs (the loops and
/// `decrypt_buf` assert this alignment) and before TCP state moves:
/// `rcv_nxt` stays and nothing is ACKed, so an injected segment consumes
/// no sequence space the genuine one needs. (Always inlined: `rest` is
/// the receiver's whole body, and a call boundary here cost `udp_small`
/// 2–3 % — EXPERIMENTS.md E32.)
#[inline(always)]
pub(crate) fn recv_whole_units<C: CipherKernel, M: Mem, K: KernelCtx, T>(
    m: &mut M,
    rx: &mut Connection,
    k: &mut K,
    rest: impl FnOnce(&mut M, &mut Connection, &mut K, Delivered) -> Result<T, Reject>,
) -> Option<Result<T, Reject>> {
    let d = rx.poll_input(m, k)?;
    if d.payload_len % C::UNIT != 0 {
        rx.stats.rejected += 1;
        return Some(Err(Reject::BadFormat("payload is not a whole number of cipher units")));
    }
    Some(rest(m, rx, k, d))
}

/// Non-ILP unmarshal+copy pass: read the decrypted header words in
/// `decrypt_buf` into the reply sink — the admission rule's one
/// evaluator — and, admitted, copy the chunk into `app_out` at the
/// header's offset.
fn unmarshal_pass<M: Mem>(
    s: &Scratch,
    m: &mut M,
    payload_len: usize,
    app_out: Region,
) -> Result<ReplyMeta, Reject> {
    m.fetch(s.code_unmarshal);
    let buf = s.decrypt_buf.base;
    let mut header = ReplyUnmarshalSink::new(app_out.base, app_out.len).within(payload_len);
    for off in (0..payload_len.min(PREFIX_BYTES)).step_by(4) {
        let w = m.read_u32_be(buf + off);
        header.capture(m, w);
    }
    let meta = header.finish()?;
    let data_len = meta.data_len as usize;
    let dst = app_out.base + meta.offset as usize;
    let words = data_len / 4;
    for i in 0..words {
        let w = m.read_u32_be(buf + PREFIX_BYTES + 4 * i);
        m.write_u32_be(dst + 4 * i, w);
        m.compute(1);
    }
    for k in words * 4..data_len {
        let b = m.read_u8(buf + PREFIX_BYTES + k);
        m.write_u8(dst + k, b);
        m.compute(1);
    }
    Ok(meta)
}

/// **Non-ILP receive** of one chunk on `rx` into `app_out`: checksum
/// pass (in `tcp_input`), accept/reject, then decrypt pass, then
/// unmarshal+copy pass — each over the whole message, each under its
/// own layer, with the verdict as the final stage.
pub fn recv_chunk_non_ilp<C: CipherKernel, M: Mem>(
    s: &Scratch,
    cipher: &C,
    m: &mut M,
    rx: &mut Connection,
    k: &mut impl KernelCtx,
    app_out: Region,
) -> RecvOutcome {
    recv_whole_units::<C, _, _, _>(m, rx, k, |m, rx, k, d| {
        k.seg(d.ctx, SegEv::RecvStage(Stage::Initial));
        let t = k.mark(m);
        m.fetch(s.code_checksum);
        let payload_sum = checksum_buf(m, d.payload_addr, d.payload_len); // step 2
        k.span(m, Stage::Integrated, Layer::Checksum, t);
        k.seg(d.ctx, SegEv::RecvStage(Stage::Integrated));
        let t = k.mark(m);
        let verdict = rx.finish_recv(m, k, &d, payload_sum);
        k.span(m, Stage::Final, Layer::Tcp, t);
        verdict?;
        let t = k.mark(m);
        cipher::decrypt_buf(cipher, m, d.payload_addr, s.decrypt_buf.base, d.payload_len); // step 3
        k.span(m, Stage::Integrated, Layer::Cipher, t);
        let t = k.mark(m);
        let out = unmarshal_pass(s, m, d.payload_len, app_out); // step 4
        k.span(m, Stage::Integrated, Layer::Marshal, t);
        k.seg(d.ctx, SegEv::RecvStage(Stage::Final));
        out
    })
}

/// The fused receive loop over the staged payload of `d`, the next
/// in-order segment, a reply in either format: `stages` (decrypt, with or
/// without the checksum tap), then unmarshal into `app_out`. Returns the
/// sink's verdict on the decrypted fields ([`UnmarshalSink::finish`]), for
/// the final stage to render.
fn fused_recv<const LAST: bool, M: Mem>(
    code: CodeRegion,
    m: &mut M,
    stages: &mut impl UnitStage<M>,
    d: &Delivered,
    app_out: Region,
) -> Result<ReplyMeta, Reject> {
    let mut sink = UnmarshalSink::<LAST>::new(app_out.base, app_out.len).within(d.payload_len);
    let mut source = OpaqueSource::new(d.payload_addr, d.payload_len);
    ilp_run(m, &mut source, stages, &mut sink, 1, Some(code)).expect("negotiated unit fits registers");
    sink.finish()
}

/// **ILP receive** of one chunk in either format on `rx` into `app_out`,
/// shaped by the [`three_stage()`] combinator: the initial stage staged
/// the segment ([`Connection::poll_input`]), the integrated stage runs
/// the fused checksum+decrypt+unmarshal loop straight off the staging
/// buffer (and cannot reject), and the final stage renders the
/// accept/reject verdict — checksum and unmarshalling errors are both
/// known there, before any TCP state was touched. A segment that is not
/// the next in-order one is certain to be rejected there: its integrated
/// stage is the checksum pass alone, as on the non-ILP path (its sum
/// still drives the hold and repeat-ACK decision), so nothing is
/// decrypted that will not be delivered.
pub(crate) fn recv_chunk_fused<const LAST: bool, C: CipherKernel + Copy, M: Mem>(
    s: &Scratch,
    cipher: C,
    m: &mut M,
    rx: &mut Connection,
    k: &mut impl KernelCtx,
    app_out: Region,
) -> RecvOutcome {
    recv_whole_units::<C, _, _, _>(m, rx, k, |m, rx, k, d| {
        let seg = d.ctx;
        k.seg(seg, SegEv::RecvStage(Stage::Initial));
        let (kernel, obs, path) = k.parts();
        let (_, admitted) = three_stage(
            m,
            obs,
            path,
            |_m| Ok(d),
            |m, d| {
                if !d.in_order {
                    m.fetch(s.code_checksum);
                    let sum = checksum_buf(m, d.payload_addr, d.payload_len);
                    return (sum, Err(Reject::Malformed("out-of-order segment")));
                }
                let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(cipher));
                let admitted = fused_recv::<LAST, M>(s.code_ilp_recv, m, &mut stages, d, app_out);
                (stages.a.sum(), admitted)
            },
            |m, obs, d, (sum, admitted)| {
                let mut k = observed(kernel, obs, path);
                k.seg(seg, SegEv::RecvStage(Stage::Integrated));
                rx.finish_recv(m, &mut k, d, *sum)?;
                admitted.map(drop)
            },
        )?;
        k.seg(seg, SegEv::RecvStage(Stage::Final));
        admitted
    })
}

/// `recv_chunk_fused` in the Figure 2 format — **the** ILP receive.
pub fn recv_chunk_ilp<C: CipherKernel + Copy, M: Mem>(
    s: &Scratch,
    cipher: C,
    m: &mut M,
    rx: &mut Connection,
    k: &mut impl KernelCtx,
    app_out: Region,
) -> RecvOutcome {
    recv_chunk_fused::<LENGTH_FIRST, C, M>(s, cipher, m, rx, k, app_out)
}

/// Receive one chunk on `rx` into `app_out` over `path` — the one place
/// a [`Path`] turns into [`recv_chunk_ilp`] or [`recv_chunk_non_ilp`].
#[inline(always)]
pub fn recv_chunk<C: CipherKernel + Copy, M: Mem>(
    path: Path,
    s: &Scratch,
    cipher: &C,
    m: &mut M,
    rx: &mut Connection,
    k: &mut impl KernelCtx,
    app_out: Region,
) -> RecvOutcome {
    match path {
        Path::Ilp => recv_chunk_ilp(s, *cipher, m, rx, k, app_out),
        Path::NonIlp => recv_chunk_non_ilp(s, cipher, m, rx, k, app_out),
    }
}

/// [`recv_chunk`] on the suite's own pair.
pub fn recv_reply<C: CipherKernel + Copy, M: Mem>(
    path: Path,
    s: &mut Suite<C>,
    m: &mut M,
) -> RecvOutcome {
    recv_chunk(path, &s.scratch, &s.cipher, m, &mut s.rx, &mut s.lb, s.app_out)
}

/// **ILP receive, late-manipulation variant** (§3.2.2): TCP verifies the
/// checksum and acknowledges immediately (its own read pass), and the
/// fused decrypt+unmarshal loop runs later, "very close to the
/// application operations". Costs one extra pass over the data; the
/// paper measured the two placements within ~5 µs of each other.
pub fn recv_reply_ilp_late<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
) -> RecvOutcome {
    let (scratch, cipher, app_out) = (s.scratch, s.cipher, s.app_out);
    recv_whole_units::<C, _, _, _>(m, &mut s.rx, &mut s.lb, |m, rx, lb, d| {
        m.fetch(scratch.code_checksum);
        let payload_sum = checksum_buf(m, d.payload_addr, d.payload_len);
        rx.finish_recv(m, lb, &d, payload_sum)?;
        // Later, at application level: fused decrypt+unmarshal (no
        // checksum tap — already verified, hence accepted, hence in order).
        let mut decrypt = DecryptStage::new(cipher);
        fused_recv::<LENGTH_FIRST, M>(scratch.code_ilp_recv, m, &mut decrypt, &d, app_out)
    })
}

/// Drain and process any pending ACKs on the sender side.
pub fn pump_acks<C: CipherKernel, M: Mem>(s: &mut Suite<C>, m: &mut M) {
    while s.tx.poll_input(m, &mut s.lb).is_some() {
        // Data segments never arrive on the sender's connection in the
        // uni-directional profile; poll_input consumed pure ACKs.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ReplyWords;
    use memsim::{AddressSpace, NativeMem};

    fn fill_file<M: Mem>(s: &Suite<cipher::SimplifiedSafer>, m: &mut M, len: usize) {
        for i in 0..len {
            m.write_u8(s.file.at(i), ((i * 31 + 7) % 256) as u8);
        }
    }

    fn meta(seq: u32, offset: u32, data_len: u32) -> ReplyMeta {
        ReplyMeta { request_id: 1, seq, offset, last: 0, data_len }
    }

    #[test]
    fn non_ilp_roundtrip_delivers_the_chunk() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 1024);
        let meta0 = meta(0, 0, 1000);
        send_reply(Path::NonIlp, &mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply(Path::NonIlp, &mut s, &mut m).expect("delivered").expect("accepted");
        assert_eq!(got, meta0);
        for i in 0..1000 {
            assert_eq!(
                m.bytes(s.app_out.at(i), 1)[0],
                ((i * 31 + 7) % 256) as u8,
                "byte {i}"
            );
        }
        pump_acks(&mut s, &mut m);
        assert_eq!(s.tx.in_flight(), 0);
    }

    #[test]
    fn ilp_roundtrip_delivers_the_chunk() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 1024);
        let meta0 = meta(0, 0, 1000);
        send_reply(Path::Ilp, &mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply(Path::Ilp, &mut s, &mut m).expect("delivered").expect("accepted");
        assert_eq!(got, meta0);
        for i in 0..1000 {
            assert_eq!(m.bytes(s.app_out.at(i), 1)[0], ((i * 31 + 7) % 256) as u8);
        }
    }

    #[test]
    fn ilp_and_non_ilp_produce_identical_wire_bytes() {
        // The central correctness claim: the two implementations are the
        // same protocol. Send the same message through both paths and
        // compare the kernel-buffer bytes.
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 512);
        let meta0 = meta(0, 0, 500);

        send_reply(Path::NonIlp, &mut s, &mut m, &meta0, file.base).unwrap();
        let d1 = s.rx.poll_input(&mut m, &mut s.lb).unwrap();
        let wire1: Vec<u8> = m.bytes(d1.payload_addr, d1.payload_len).to_vec();
        let sum1 = checksum_buf(&mut m, d1.payload_addr, d1.payload_len);
        s.rx.finish_recv(&mut m, &mut s.lb, &d1, sum1).unwrap();
        pump_acks(&mut s, &mut m);

        send_reply(Path::Ilp, &mut s, &mut m, &meta0, file.base).unwrap();
        let d2 = s.rx.poll_input(&mut m, &mut s.lb).unwrap();
        let wire2: Vec<u8> = m.bytes(d2.payload_addr, d2.payload_len).to_vec();
        assert_eq!(wire1, wire2, "ILP and non-ILP wire bytes must be identical");
        let sum2 = checksum_buf(&mut m, d2.payload_addr, d2.payload_len);
        s.rx.finish_recv(&mut m, &mut s.lb, &d2, sum2).unwrap();
    }

    #[test]
    fn cross_paths_interoperate() {
        // ILP sender → non-ILP receiver and vice versa.
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 600);
        let a = meta(0, 0, 300);
        send_reply(Path::Ilp, &mut s, &mut m, &a, file.base).unwrap();
        assert_eq!(recv_reply(Path::NonIlp, &mut s, &mut m).unwrap().unwrap(), a);
        pump_acks(&mut s, &mut m);
        let b = meta(1, 300, 300);
        send_reply(Path::NonIlp, &mut s, &mut m, &b, file.at(300)).unwrap();
        assert_eq!(recv_reply(Path::Ilp, &mut s, &mut m).unwrap().unwrap(), b);
    }

    #[test]
    fn very_simple_cipher_paths_roundtrip() {
        let mut space = AddressSpace::new();
        let mut s = Suite::very_simple(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for i in 0..256 {
            m.write_u8(file.at(i), i as u8);
        }
        let meta0 = meta(0, 0, 250);
        send_reply(Path::Ilp, &mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply(Path::Ilp, &mut s, &mut m).expect("delivered").expect("accepted");
        assert_eq!(got, meta0);
        for i in 0..250 {
            assert_eq!(m.bytes(s.app_out.at(i), 1)[0], i as u8);
        }
    }

    #[test]
    fn late_placement_variant_delivers_identically() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 512);
        let meta0 = meta(0, 0, 512);
        send_reply(Path::Ilp, &mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply_ilp_late(&mut s, &mut m).unwrap().unwrap();
        assert_eq!(got, meta0);
        for i in 0..512 {
            assert_eq!(m.bytes(s.app_out.at(i), 1)[0], ((i * 31 + 7) % 256) as u8);
        }
    }

    #[test]
    fn staged_send_variant_interoperates() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 512);
        let meta0 = meta(0, 0, 480);
        send_reply_ilp_staged(&mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply(Path::Ilp, &mut s, &mut m).unwrap().unwrap();
        assert_eq!(got, meta0);
    }

    #[test]
    fn corrupted_ciphertext_rejected_by_both_receivers() {
        for ilp in [false, true] {
            let mut space = AddressSpace::new();
            let mut s = Suite::simplified(&mut space);
            let file = s.file;
            let mut arena = space.native_arena();
            let mut m = NativeMem::new(&mut arena);
            s.init_world(&mut m);
            fill_file(&s, &mut m, 256);
            let meta0 = meta(0, 0, 200);
            send_reply(Path::Ilp, &mut s, &mut m, &meta0, file.base).unwrap();
            // Corrupt the datagram in the kernel buffer before delivery.
            let d_peek = s.rx.poll_input(&mut m, &mut s.lb).unwrap();
            let b = m.bytes(d_peek.payload_addr, 1)[0];
            m.bytes_mut(d_peek.payload_addr, 1)[0] = b ^ 0x80;
            // The segment is already staged; run the integrated+final
            // stages of the chosen receiver on the corrupted staging.
            let outcome = if ilp {
                let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(s.cipher));
                let mut sink = ReplyUnmarshalSink::new(s.app_out.base, s.app_out.len);
                let mut source = OpaqueSource::new(d_peek.payload_addr, d_peek.payload_len);
                ilp_run(&mut m, &mut source, &mut stages, &mut sink, 1, None).unwrap();
                s.rx.finish_recv(&mut m, &mut s.lb, &d_peek, stages.a.sum())
            } else {
                let sum = checksum_buf(&mut m, d_peek.payload_addr, d_peek.payload_len);
                s.rx.finish_recv(&mut m, &mut s.lb, &d_peek, sum)
            };
            assert!(matches!(outcome, Err(Reject::BadChecksum { .. })), "ilp={ilp}");
        }
    }

    #[test]
    fn backpressure_surfaces_from_both_send_paths() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 2048);
        let chunk = meta(0, 0, 1000);
        // Fill the 16 KB ring without draining ACKs.
        let mut sent = 0;
        loop {
            match send_reply(Path::Ilp, &mut s, &mut m, &chunk, file.base) {
                Ok(_) => sent += 1,
                Err(SendError::WindowClosed) | Err(SendError::BufferFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(sent < 100, "backpressure never engaged");
        }
        assert!(sent >= 2);
        assert!(matches!(
            send_reply(Path::NonIlp, &mut s, &mut m, &chunk, file.base),
            Err(SendError::WindowClosed) | Err(SendError::BufferFull)
        ));
    }

    /// A native world: tables, key, 4 KiB of file pattern.
    fn with_world(f: impl FnOnce(&mut Suite<cipher::SimplifiedSafer>, &mut NativeMem<'_>)) {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 4096);
        f(&mut s, &mut m);
    }

    /// Send 1 000-byte chunks on the fused path (`trailer`: in the trailer
    /// format), flip payload bit `bit` of the last one in its kernel slot,
    /// and require a checksum reject followed by recovery through the
    /// sender's timer with the file intact. With `lose_first` the kernel
    /// drops chunk 0, so the damaged chunk 1 arrives out of order and is
    /// only checksummed. Returns the reassembled file as it stood right
    /// after the reject.
    fn flipped_bit_is_rejected_then_recovered(trailer: bool, lose_first: bool, bit: usize) -> Vec<u8> {
        use crate::trailer::{recv_reply_ilp_trailer, send_reply_ilp_trailer};
        let mut after_reject = Vec::new();
        with_world(|s, m| {
            let file = s.file;
            let recv = |s: &mut Suite<_>, m: &mut NativeMem<'_>| {
                if trailer { recv_reply_ilp_trailer(s, m) } else { recv_reply(Path::Ilp, s, m) }
            };
            let chunks = if lose_first { 2 } else { 1 };
            if lose_first {
                s.lb.set_faults(utcp::FaultPlan { drop_at: 1, ..Default::default() });
            }
            for seq in 0..chunks {
                let (chunk, addr) = (meta(seq, 1000 + seq * 1000, 1000), file.at(seq as usize * 1000));
                if trailer {
                    send_reply_ilp_trailer(s, m, &chunk, addr).unwrap();
                } else {
                    send_reply(Path::Ilp, s, m, &chunk, addr).unwrap();
                }
            }
            // The receiver's queue holds the last chunk alone (`lose_first` drops chunk 0).
            let slot = s.lb.peek(s.rx.endpoint()).expect("the last chunk is queued").addr;
            m.bytes_mut(slot + utcp::IP_HEADER_LEN + utcp::TCP_HEADER_LEN + bit / 8, 1)[0] ^= 0x80 >> (bit % 8);
            let verdict = recv(s, m).expect("the damaged segment is delivered");
            assert!(matches!(verdict, Err(Reject::BadChecksum { .. })), "bit {bit}: {verdict:?}");
            after_reject = m.bytes(s.app_out.base, s.app_out.len).to_vec();
            let mut accepted = 0;
            for _ in 0..200 {
                s.tx.tick(m, &mut s.lb);
                while let Some(outcome) = recv(s, m) {
                    accepted += u32::from(outcome.is_ok());
                }
                pump_acks(s, m);
            }
            assert_eq!(accepted, chunks, "bit {bit}: retransmission never repaired the transfer");
            let n = chunks as usize * 1000;
            assert_eq!(m.bytes(s.app_out.at(1000), n), m.bytes(file.base, n), "bit {bit}");
        });
        after_reject
    }

    #[test]
    fn corrupted_offset_word_is_a_checksum_reject_not_a_panic() {
        // Ciphertext byte 12 decrypts into the high half of the RPC
        // header's offset word, and the fused receive loop places the
        // chunk by that word before the checksum verdict exists. The
        // offset this flip produces is far outside the file: the sink
        // must place nothing and leave the reject to the final stage
        // (it used to assert, and a remote peer could crash the receiver).
        flipped_bit_is_rejected_then_recovered(false, false, 8 * 12);
    }

    #[test]
    fn any_flipped_bit_of_the_first_32_payload_bytes_is_rejected_then_recovered() {
        // Both formats (length / header words before the data, then the
        // first data words), in order and out of order. A damaged segment
        // that is not the next in-order one is only checksummed in either
        // format: the reassembled file is untouched when the reject is
        // rendered (the trailer receive used to write it straight into
        // application memory).
        for bit in 0..256 {
            for trailer in [false, true] {
                flipped_bit_is_rejected_then_recovered(trailer, false, bit);
                let file = flipped_bit_is_rejected_then_recovered(trailer, true, bit);
                assert!(file.iter().all(|&b| b == 0), "trailer={trailer} bit {bit}: placed before the verdict");
            }
        }
    }

    #[test]
    #[ignore = "known hole: an in-range corrupted offset is honoured before the checksum verdict"]
    fn in_range_corrupted_offset_must_not_overwrite_delivered_bytes() {
        // Ciphertext bytes 14–15 decrypt into the low half of the offset
        // word. Flipping payload bit 112 (top bit of byte 14) turns the
        // chunk's offset 1000 into 13331 — inside the file, so the
        // in-order fused pass writes the chunk there, over bytes the
        // application may already own, and only then does the final
        // stage reject the segment (bits 112–127 all behave so). Segments
        // that are not the next in-order one are safe (they are only
        // checksummed); for the in-order one it is open — see ROADMAP,
        // zero-copy receive.
        let file = flipped_bit_is_rejected_then_recovered(false, false, 8 * 14);
        let stray = file.iter().enumerate().filter(|&(i, &b)| b != 0 && !(1000..2000).contains(&i));
        assert_eq!(stray.count(), 0, "the rejected chunk was written outside its own range");
    }

    /// What a receiver on `path` does with the segments of `case`, each of
    /// which it must reject: every verdict; then its `rcv_nxt`, ACK count
    /// and whole state (held segments included), and the sender's state
    /// once it has read every ACK. A rejected segment writes neither the
    /// application buffer nor the shared staging buffer.
    fn rejects_on(path: Path, case: &str) -> (Vec<Result<ReplyMeta, Reject>>, u32, u64, String, String) {
        let mut out = None;
        with_world(|s, m| {
            let file = s.file;
            let faults = match case {
                "duplicate" => utcp::FaultPlan { dup_every: 1, ..Default::default() },
                _ => utcp::FaultPlan { drop_at: 1, ..Default::default() },
            };
            s.lb.set_faults(faults);
            for seq in 0..2 {
                send_reply(Path::Ilp, s, m, &meta(seq, 1000 * seq, 1000), file.at(1000 * seq as usize)).unwrap();
            }
            if case == "corrupted out of order" {
                let slot = s.lb.peek(s.rx.endpoint()).expect("chunk 1 is queued").addr;
                m.bytes_mut(slot + utcp::IP_HEADER_LEN + utcp::TCP_HEADER_LEN + 100, 1)[0] ^= 0x10;
            }
            let mut verdicts = Vec::new();
            let snapshot = |s: &Suite<_>, m: &NativeMem<'_>| {
                [s.app_out, s.scratch.staging].map(|r| m.bytes(r.base, r.len).to_vec())
            };
            loop {
                let before = snapshot(s, m);
                let Some(verdict) = recv_reply(path, s, m) else { break };
                if verdict.is_err() {
                    assert!(before == snapshot(s, m), "{path:?} {case}: a rejected segment wrote memory");
                }
                verdicts.push(verdict);
            }
            pump_acks(s, m);
            out = Some((verdicts, s.rx.rcv_nxt(), s.rx.stats.acks_sent, format!("{:?}", s.rx), format!("{:?}", s.tx)));
        });
        out.expect("the world ran")
    }

    #[test]
    fn a_segment_that_will_not_be_delivered_is_rejected_alike_and_writes_nothing() {
        // An out-of-order segment, a duplicate and a corrupted out-of-order
        // segment: the ILP receive only checksums them, as the non-ILP one
        // does, so both render the same verdict from the same state.
        let malformed = Err(Reject::Malformed("out-of-order segment"));
        for (case, want) in [
            ("out of order", vec![malformed]),
            ("duplicate", vec![Ok(meta(0, 0, 1000)), malformed, Ok(meta(1, 1000, 1000)), malformed]),
            ("corrupted out of order", vec![]),
        ] {
            let [ilp, non_ilp] = [Path::Ilp, Path::NonIlp].map(|path| rejects_on(path, case));
            assert_eq!(ilp, non_ilp, "{case}");
            if want.is_empty() {
                assert!(matches!(ilp.0[..], [Err(Reject::BadChecksum { .. })]), "{case}: {:?}", ilp.0);
            } else {
                assert_eq!(ilp.0, want, "{case}");
            }
        }
    }

    #[test]
    fn fused_loops_equal_the_layered_passes_for_every_length() {
        use cipher::{SimplifiedSafer, VerySimple};
        use xdr::stream::{pump, OpaqueSink};
        fn check<C: CipherKernel + Copy>(
            alloc: fn(&mut AddressSpace) -> C,
            init: impl Fn(&C, &mut NativeMem<'_>),
        ) {
            for data_len in (1..=64).chain([1000, 1024]) {
                let mut space = AddressSpace::new();
                let cipher = alloc(&mut space);
                let data = space.alloc("data", 1024, 8);
                let [plain, layered, linear, out] =
                    ["plain", "layered", "linear", "out"].map(|n| space.alloc(n, MAX_MSG, 8));
                let mut ring =
                    utcp::SendRing::new(space.alloc_kind("ring", MAX_MSG, 64, RegionKind::Ring));
                let mut arena = space.native_arena();
                let mut m = NativeMem::new(&mut arena);
                init(&cipher, &mut m);
                for i in 0..data_len {
                    m.write_u8(data.at(i), (i * 31 + 7) as u8);
                }
                let chunk = meta(3, 64, data_len as u32);
                let words = ReplyWords::new(&chunk, data.base, C::UNIT);
                let padded = chunk.padded_len(C::UNIT);

                // Layered send: marshal, encrypt, checksum — three passes.
                pump(&mut m, &mut words.full_source(), &mut OpaqueSink::new(0, plain.base, padded));
                cipher::encrypt_buf(&cipher, &mut m, plain.base, layered.base, padded);
                let want = checksum_buf(&mut m, layered.base, padded).fold();

                // Fused send, into a flat buffer and into a ring extent.
                let mut stages = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
                let mut flat = LinearSink::new(linear.base);
                ilp_run(&mut m, &mut words.full_source(), &mut stages, &mut flat, 1, None).unwrap();
                assert_eq!(stages.b.sum().fold(), want, "{} len {data_len}", C::NAME);
                assert_eq!(m.bytes(linear.base, padded), m.bytes(layered.base, padded));
                let extent = ring.alloc(padded, 0).unwrap();
                let mut stages = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
                let mut writer = ring.writer(extent);
                ilp_run(&mut m, &mut words.full_source(), &mut stages, &mut writer, 1, None).unwrap();
                assert_eq!(stages.b.sum().fold(), want, "{} len {data_len}", C::NAME);
                assert_eq!(m.bytes(ring.addr(extent.off), padded), m.bytes(layered.base, padded));

                // Fused receive of that ciphertext: same sum, same chunk.
                let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(cipher));
                let mut sink = ReplyUnmarshalSink::new(out.base, MAX_MSG);
                let mut source = OpaqueSource::new(layered.base, padded);
                ilp_run(&mut m, &mut source, &mut stages, &mut sink, 1, None).unwrap();
                assert_eq!(stages.a.sum().fold(), want, "{} len {data_len}", C::NAME);
                assert_eq!(sink.meta().map(|(_, meta)| meta), Some(chunk));
                assert_eq!(sink.data_written(), data_len);
                assert_eq!(m.bytes(out.at(64), data_len), m.bytes(data.base, data_len));
                assert_eq!(m.bytes(out.at(64 + data_len), 8), &[0; 8], "wrote past the chunk");
            }
        }
        check(SimplifiedSafer::alloc, |c, m| c.init(m, *b"ILP95key"));
        check(VerySimple::alloc, |_, _| {});
    }

    /// `label:r|w:B1/B2/B4/B8` per region kind that saw traffic, then the
    /// ALU-op total, instruction bytes fetched and I-cache line fetches.
    fn access_stream(st: &memsim::RunStats) -> String {
        use memsim::SizeClass;
        let row = |dir: &str, (kind, c): &(RegionKind, memsim::AccessCounts)| {
            let by = SizeClass::all().map(|s| c.by_size(s).to_string()).join("/");
            format!("{}:{dir}:{by}", kind.label())
        };
        let mut rows: Vec<String> = st.reads_by_kind.iter().map(|e| row("r", e)).collect();
        rows.extend(st.writes_by_kind.iter().map(|e| row("w", e)));
        rows.retain(|r| !r.ends_with(":0/0/0/0"));
        rows.sort();
        rows.push(format!("compute:{}", st.compute_ops));
        rows.push(format!("fetch:{}B/{}", st.fetch_bytes, st.l1i.fetch_hits + st.l1i.fetch_misses));
        rows.join(" ")
    }

    #[test]
    fn ilp_access_stream_of_one_chunk_is_pinned() {
        // What `SimMem` counts for one 1 000-byte chunk through the fused
        // send and receive paths (system copy and TCP control included).
        // Every simulated figure is a function of this stream, so a change
        // to the loops, sources, stages or sinks must leave it alone.
        use memsim::{HostModel, SimMem};
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut m = SimMem::new(&space, &HostModel::ss20_60());
        s.init_world(&mut m);
        fill_file(&s, &mut m, 1000);
        let _ = m.take_stats();
        let chunk = meta(0, 0, 1000);
        send_reply(Path::Ilp, &mut s, &mut m, &chunk, file.base).unwrap();
        let send = m.take_stats();
        assert_eq!(recv_reply(Path::Ilp, &mut s, &mut m).unwrap().unwrap(), chunk);
        let recv = m.take_stats();
        assert_eq!(
            access_stream(&send),
            "app:r:0/0/250/0 kernel:r:0/0/261/0 kernel:w:4/5/265/0 ring:r:0/0/258/0 \
             ring:w:1032/0/0/0 scratch:r:1032/0/0/0 scratch:w:1032/0/0/0 state:r:0/0/14/0 \
             state:w:2/6/5/0 table:r:2064/0/0/0 compute:5836 fetch:191880B/3111"
        );
        assert_eq!(
            access_stream(&recv),
            "app:w:1000/0/0/0 buf:r:2/1/265/0 buf:w:0/0/268/0 kernel:r:1/1/535/0 \
             kernel:w:4/5/7/0 scratch:r:1032/0/0/0 scratch:w:1032/0/0/0 state:r:0/0/14/0 \
             state:w:2/6/5/0 table:r:2064/0/0/0 compute:5915 fetch:217680B/3498"
        );
    }

    #[test]
    fn trailer_wire_bytes_and_access_stream_of_one_chunk_are_pinned() {
        // The same pin for the §5 length-last format, recorded on
        // `e981af3` (before the two formats shared one view, one sink and
        // one fused send/receive): the staged datagram (IP + TCP headers
        // and ciphertext) as an FNV-1a digest, the two access streams
        // verbatim.
        use crate::trailer::{recv_reply_ilp_trailer, send_reply_ilp_trailer};
        use memsim::{HostModel, SimMem};
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut m = SimMem::new(&space, &HostModel::ss20_60());
        s.init_world(&mut m);
        fill_file(&s, &mut m, 1000);
        let _ = m.take_stats();
        let chunk = meta(0, 0, 1000);
        send_reply_ilp_trailer(&mut s, &mut m, &chunk, file.base).unwrap();
        let send = m.take_stats();
        assert_eq!(recv_reply_ilp_trailer(&mut s, &mut m).unwrap().unwrap(), chunk);
        let recv = m.take_stats();
        let staged = s.rx.recv_region();
        let wire = m.peek(staged.base, utcp::IP_HEADER_LEN + utcp::TCP_HEADER_LEN + 1032);
        let digest = wire.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        assert_eq!(digest, 0x81cf_2350_26a6_4b6c_u64, "wire bytes");
        assert_eq!(
            access_stream(&send),
            "app:r:0/0/250/0 kernel:r:0/0/261/0 kernel:w:4/5/265/0 ring:r:0/0/258/0 \
             ring:w:1032/0/0/0 scratch:r:1032/0/0/0 scratch:w:1032/0/0/0 state:r:0/0/14/0 \
             state:w:2/6/5/0 table:r:2064/0/0/0 compute:5836 fetch:191880B/3111"
        );
        assert_eq!(
            access_stream(&recv),
            "app:w:1000/0/0/0 buf:r:2/1/265/0 buf:w:0/0/268/0 kernel:r:1/1/535/0 \
             kernel:w:4/5/7/0 scratch:r:1032/0/0/0 scratch:w:1032/0/0/0 state:r:0/0/14/0 \
             state:w:2/6/5/0 table:r:2064/0/0/0 compute:5914 fetch:217680B/3498"
        );
        // Order shows in the miss counts (read, write) where totals cannot.
        let misses = |st: &memsim::RunStats| (st.total_read_misses(), st.total_write_misses());
        assert_eq!((misses(&send), misses(&recv)), ((295, 71), (100, 70)));
    }

    /// Four chunks through the explicit-connection paths; returns the
    /// receiver's staged datagram (headers + ciphertext) after each.
    fn drive<K: KernelCtx>(
        s: &Scratch,
        cipher: cipher::SimplifiedSafer,
        m: &mut memsim::SimMem,
        (tx, rx): (&mut Connection, &mut Connection),
        k: &mut K,
        (file, app_out): (Region, Region),
        ilp: bool,
    ) -> Vec<Vec<u8>> {
        let mut wire = Vec::new();
        for seq in 0..4u32 {
            let chunk = meta(seq, seq * 1000, 1000);
            let addr = file.at(seq as usize * 1000);
            let got = if ilp {
                send_chunk_ilp(s, cipher, m, tx, k, &chunk, addr).unwrap();
                recv_chunk_ilp(s, cipher, m, rx, k, app_out)
            } else {
                send_chunk_non_ilp(s, &cipher, m, tx, k, &chunk, addr).unwrap();
                recv_chunk_non_ilp(s, &cipher, m, rx, k, app_out)
            };
            assert_eq!(got.expect("delivered").expect("accepted"), chunk);
            let staged = rx.recv_region();
            wire.push(m.peek(staged.base, staged.len).to_vec());
            while tx.poll_input(m, k).is_some() {}
        }
        wire
    }

    #[test]
    fn observing_the_suite_paths_moves_neither_wire_bytes_nor_memory_traffic() {
        use memsim::{HostModel, SimMem};
        use obs::{PathLabel, Recorder};
        for (ilp, label) in [(false, PathLabel::NonIlp), (true, PathLabel::Ilp)] {
            let run = |rec: Option<&mut Recorder>| {
                let mut space = AddressSpace::new();
                let mut s = Suite::simplified(&mut space);
                let mut m = SimMem::new(&space, &HostModel::ss20_60());
                s.init_world(&mut m);
                fill_file(&s, &mut m, 4096);
                let _ = m.take_stats();
                let Suite { scratch, cipher, tx, rx, lb, file, app_out, .. } = &mut s;
                let (pair, bufs) = ((tx, rx), (*file, *app_out));
                let wire = match rec {
                    None => drive(scratch, *cipher, &mut m, pair, lb, bufs, ilp),
                    Some(rec) => {
                        drive(scratch, *cipher, &mut m, pair, &mut observed(lb, rec, label), bufs, ilp)
                    }
                };
                let st = m.stats();
                (wire, st.data_accesses(), st.total_read_misses(), st.total_write_misses())
            };
            let mut rec = Recorder::new(16);
            assert_eq!(run(None), run(Some(&mut rec)), "ilp={ilp}");
            assert!(rec.path_total(label) > 0, "the observer saw the {label:?} spans");
        }
    }
}
