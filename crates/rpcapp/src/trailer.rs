//! Trailer-format messages — the paper's §5 future-work proposal,
//! implemented.
//!
//! The B→C→A dance of §3.2.2 exists only because the encryption header's
//! length field sits *in front of* the data it describes. The paper
//! notes that "a length field at the end of the encrypted message as
//! done in other security protocols would simplify an ILP
//! implementation" and recommends "trailers for data dependent fields"
//! for future protocol designs (§5) — at the cost of more complex
//! parsing.
//!
//! This module is that design: the reply's wire format becomes
//!
//! ```text
//! ┌────────────┬──────────┬───────────┬──────────────┐
//! │ RPC header │ XDR data │ alignment │ length field │   ← encrypted
//! └────────────┴──────────┴───────────┴──────────────┘
//! ```
//!
//! and the ILP send loop degenerates to a **single linear pass** — no
//! part reordering, one loop start-up instead of three, and no
//! positioned ring writers. The receive side pays the predicted price:
//! the length field arrives *last*, so the unmarshal sink must run
//! bounded by the TCP payload length and validate the trailer at the
//! end. The `exp_trailer` experiment measures both effects.

use ilp_core::{
    ilp_run, ChecksumTap, DecryptStage, EncryptStage, Fused, Reject, StoreGrain, UnitBuf,
    UnitSink,
};
use memsim::Mem;

use crate::msg::{Placement, ReplyMeta, RPC_HDR_WORDS};
use crate::paths::RecvOutcome;
use crate::suite::Suite;
use cipher::CipherKernel;
use utcp::SendError;
use xdr::stream::{opaque_word, WordSource};

/// Trailer length: one 4-byte length field at the end of the message.
pub const TRAILER_LEN: usize = 4;

/// Total plaintext length of a trailer-format reply: RPC header +
/// XDR-padded data + alignment + trailing length field, rounded up to
/// the cipher block.
pub fn padded_len_trailer(meta: &ReplyMeta, block: usize) -> usize {
    (meta.marshalled_len() + TRAILER_LEN).div_ceil(block) * block
}

/// Random-access word view of a trailer-format reply (compare
/// [`crate::msg::ReplyWords`], which leads with the encryption header).
#[derive(Debug, Clone, Copy)]
pub struct TrailerReplyWords {
    rpc: [u32; RPC_HDR_WORDS],
    data_addr: usize,
    data_len: usize,
    total_words: usize,
}

impl TrailerReplyWords {
    /// Build the view for `meta` with the chunk at `data_addr`.
    pub fn new(meta: &ReplyMeta, data_addr: usize, block: usize) -> Self {
        let prefix = meta.prefix_words();
        let mut rpc = [0u32; RPC_HDR_WORDS];
        rpc.copy_from_slice(&prefix[1..]); // drop the leading length field
        TrailerReplyWords {
            rpc,
            data_addr,
            data_len: meta.data_len as usize,
            total_words: padded_len_trailer(meta, block) / 4,
        }
    }

    /// Total message length in words.
    pub fn total_words(&self) -> usize {
        self.total_words
    }

    /// The trailing length field's value: the pre-padding message length
    /// (header + XDR data + trailer itself).
    fn length_field(&self) -> u32 {
        (4 * RPC_HDR_WORDS + xdr::runtime::pad4(self.data_len) + TRAILER_LEN) as u32
    }
}

impl<M: Mem> WordSource<M> for TrailerReplyWords {
    fn next_word(&mut self, _m: &mut M) -> Option<u32> {
        unreachable!("use linear_source()")
    }

    fn total_words(&self) -> usize {
        self.total_words
    }
}

/// Sequential source over a [`TrailerReplyWords`] — the whole message in
/// natural order, which is the entire point of the trailer format.
#[derive(Debug, Clone, Copy)]
pub struct TrailerSource {
    msg: TrailerReplyWords,
    next: usize,
}

impl TrailerSource {
    /// Stream the message from word 0.
    pub fn new(msg: TrailerReplyWords) -> Self {
        TrailerSource { msg, next: 0 }
    }
}

impl<M: Mem> WordSource<M> for TrailerSource {
    #[inline(always)]
    fn next_word(&mut self, m: &mut M) -> Option<u32> {
        if self.next >= self.msg.total_words {
            return None;
        }
        let i = self.next;
        self.next += 1;
        if i < RPC_HDR_WORDS {
            m.compute(1);
            return Some(self.msg.rpc[i]);
        }
        if i == self.msg.total_words - 1 {
            m.compute(1);
            return Some(self.msg.length_field()); // the trailer
        }
        Some(opaque_word(m, self.msg.data_addr, self.msg.data_len, 4 * (i - RPC_HDR_WORDS)))
    }

    fn total_words(&self) -> usize {
        self.msg.total_words - self.next
    }
}

/// Receive-side sink for trailer-format replies: captures the RPC
/// header, writes the chunk, remembers the final word as the candidate
/// trailer.
#[derive(Debug, Clone, Copy)]
pub struct TrailerUnmarshalSink {
    app_addr: usize,
    app_cap: usize,
    total_words: usize,
    rpc: [u32; RPC_HDR_WORDS],
    words_seen: usize,
    place: Option<Placement>,
    last_word: u32,
}

impl TrailerUnmarshalSink {
    /// Deliver into `app_cap` bytes at `app_addr`; `payload_len` is the
    /// TCP payload length (known from the transport — the *only* length
    /// available before the trailer arrives).
    pub fn new(app_addr: usize, app_cap: usize, payload_len: usize) -> Self {
        TrailerUnmarshalSink {
            app_addr,
            app_cap,
            total_words: payload_len / 4,
            rpc: [0; RPC_HDR_WORDS],
            words_seen: 0,
            place: None,
            last_word: 0,
        }
    }

    /// Parse the result after the loop: validates the trailer against
    /// the header's data length and returns the reconstructed metadata.
    pub fn finish(&self) -> Result<ReplyMeta, Reject> {
        if self.words_seen != self.total_words {
            return Err(Reject::BadFormat("short trailer message"));
        }
        let meta = ReplyMeta {
            request_id: self.rpc[0],
            seq: self.rpc[1],
            offset: self.rpc[2],
            last: self.rpc[3],
            data_len: self.rpc[5],
        };
        if self.rpc[4] != meta.data_len {
            return Err(Reject::BadFormat("length fields disagree"));
        }
        let expected =
            (4 * RPC_HDR_WORDS + xdr::runtime::pad4(meta.data_len as usize) + TRAILER_LEN) as u32;
        if self.last_word != expected {
            return Err(Reject::BadFormat("trailer mismatch"));
        }
        if self.place.is_none() {
            return Err(Reject::BadFormat("chunk beyond file bounds"));
        }
        Ok(meta)
    }
}

impl<M: Mem> UnitSink<M> for TrailerUnmarshalSink {
    #[inline(always)]
    fn store(&mut self, m: &mut M, unit: &UnitBuf, grain: StoreGrain) {
        for wi in 0..unit.words() {
            let w = unit.word(wi);
            let i = self.words_seen;
            self.words_seen += 1;
            if i < RPC_HDR_WORDS {
                self.rpc[i] = w;
                m.compute(1);
                if self.words_seen == RPC_HDR_WORDS {
                    let (offset, declared) = (self.rpc[2] as usize, self.rpc[5] as usize);
                    self.place = Placement::resolve(self.app_addr, self.app_cap, offset, declared);
                }
                continue;
            }
            self.last_word = w; // the final assignment holds the trailer
            if let Some(place) = &mut self.place {
                place.place(m, w, grain);
            }
        }
    }
}

/// **ILP send, trailer format**: one linear fused pass — no segment
/// plan, no positioned writers, no deferred header.
///
/// # Errors
/// Propagates transport back-pressure.
pub fn send_reply_ilp_trailer<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    let padded = padded_len_trailer(meta, C::UNIT);
    let (extent, mut writer) = s.tx.begin_ilp_send(padded)?;
    let mut source = TrailerSource::new(TrailerReplyWords::new(meta, data_addr, C::UNIT));
    let mut stages = Fused::new(EncryptStage::new(s.cipher), ChecksumTap::new());
    ilp_run(m, &mut source, &mut stages, &mut writer, 1, Some(s.scratch.code_ilp_send))
        .expect("negotiated unit fits registers");
    s.tx.commit_send(m, &mut s.lb, extent, stages.b.sum());
    Ok(padded)
}

/// **ILP receive, trailer format**: fused checksum+decrypt+unmarshal,
/// bounded by the transport length, trailer validated in the final
/// stage.
pub fn recv_reply_ilp_trailer<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
) -> RecvOutcome {
    let d = s.rx.poll_input(m, &mut s.lb)?;
    let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(s.cipher));
    let mut sink = TrailerUnmarshalSink::new(s.app_out.base, s.app_out.len, d.payload_len);
    let mut source = xdr::stream::OpaqueSource::new(d.payload_addr, d.payload_len);
    ilp_run(m, &mut source, &mut stages, &mut sink, 1, Some(s.scratch.code_ilp_recv))
        .expect("negotiated unit fits registers");
    if let Err(e) = s.rx.finish_recv(m, &mut s.lb, &d, stages.a.sum()) {
        return Some(Err(e));
    }
    Some(sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::pump_acks;
    use memsim::{AddressSpace, HostModel, NativeMem, SimMem};

    fn meta(data_len: u32, offset: u32) -> ReplyMeta {
        ReplyMeta { request_id: 3, seq: 0, offset, last: 1, data_len }
    }

    #[test]
    fn trailer_roundtrip_delivers_the_chunk() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        for i in 0..1024 {
            m.bytes_mut(file.at(i), 1)[0] = (i % 253) as u8;
        }
        let meta0 = meta(1000, 0);
        send_reply_ilp_trailer(&mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply_ilp_trailer(&mut s, &mut m).expect("delivered").expect("accepted");
        assert_eq!(got, meta0);
        for i in 0..1000 {
            assert_eq!(m.bytes(s.app_out.at(i), 1)[0], (i % 253) as u8, "byte {i}");
        }
        pump_acks(&mut s, &mut m);
        assert_eq!(s.tx.in_flight(), 0);
    }

    #[test]
    fn trailer_lengths_for_assorted_chunks() {
        for data_len in [1u32, 4, 7, 100, 1000, 1280] {
            let m = meta(data_len, 0);
            let padded = padded_len_trailer(&m, 8);
            assert_eq!(padded % 8, 0);
            assert!(padded >= m.marshalled_len() + TRAILER_LEN);
            assert!(padded < m.marshalled_len() + TRAILER_LEN + 8);
        }
    }

    #[test]
    fn corrupted_trailer_rejected() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        let meta0 = meta(96, 0);
        send_reply_ilp_trailer(&mut s, &mut m, &meta0, file.base).unwrap();
        // Tamper with the length fields *before* encryption cannot be
        // done post hoc; instead decrypt-validate path: feed a message
        // whose trailer disagrees by constructing a sink over a short
        // payload.
        let d = s.rx.poll_input(&mut m, &mut s.lb).unwrap();
        let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(s.cipher));
        // Deliberately lie about the payload length (drop the last block).
        let short = d.payload_len - 8;
        let mut sink = TrailerUnmarshalSink::new(s.app_out.base, s.app_out.len, short);
        let mut source = xdr::stream::OpaqueSource::new(d.payload_addr, short);
        ilp_run(&mut m, &mut source, &mut stages, &mut sink, 1, None).unwrap();
        assert!(matches!(sink.finish(), Err(Reject::BadFormat(_))));
    }

    #[test]
    fn trailer_send_is_single_linear_pass() {
        // The structural claim: same traffic as the B→C→A send (one read
        // + one write per word) but with no out-of-order stores.
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut m = SimMem::new(&space, &HostModel::ss20_60());
        s.init_world(&mut m);
        let _ = m.take_phase_stats();
        let meta0 = meta(1024, 0);
        send_reply_ilp_trailer(&mut s, &mut m, &meta0, file.base).unwrap();
        let (user, _) = m.take_phase_stats();

        let mut space2 = AddressSpace::new();
        let mut s2 = Suite::simplified(&mut space2);
        let file2 = s2.file;
        let mut m2 = SimMem::new(&space2, &HostModel::ss20_60());
        s2.init_world(&mut m2);
        let _ = m2.take_phase_stats();
        crate::paths::send_reply_ilp(&mut s2, &mut m2, &meta0, file2.base).unwrap();
        let (user2, _) = m2.take_phase_stats();

        // Within one block of each other in traffic (formats differ by
        // the trailer word vs the leading length word).
        let diff = user.data_accesses() as i64 - user2.data_accesses() as i64;
        assert!(diff.abs() < 64, "trailer {} vs header {}", user.data_accesses(), user2.data_accesses());
    }

    #[test]
    fn trailer_interoperates_with_offsets() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        for i in 0..4096 {
            m.bytes_mut(file.at(i), 1)[0] = (i % 199) as u8;
        }
        for seq in 0..4u32 {
            let meta0 = ReplyMeta {
                request_id: 1,
                seq,
                offset: seq * 1024,
                last: u32::from(seq == 3),
                data_len: 1024,
            };
            send_reply_ilp_trailer(&mut s, &mut m, &meta0, file.at((seq * 1024) as usize)).unwrap();
            let got = recv_reply_ilp_trailer(&mut s, &mut m).unwrap().unwrap();
            assert_eq!(got, meta0);
            pump_acks(&mut s, &mut m);
        }
        for i in 0..4096 {
            assert_eq!(m.bytes(s.app_out.at(i), 1)[0], (i % 199) as u8);
        }
    }
}
