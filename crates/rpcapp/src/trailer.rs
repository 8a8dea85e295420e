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
//! This module is that design — [`LENGTH_LAST`], the second format of
//! [`crate::msg`]: the reply's wire format becomes
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
//! the length field arrives *last*, so the unmarshal sink runs bounded
//! by the TCP payload length and validates the trailer at the end. The
//! `exp_trailer` experiment measures both effects. Everything else —
//! the word view, the sink, the fused send and receive, the admission
//! rule and the rule that a segment which cannot be the next in-order one
//! is only checksummed — is the header format's code, instantiated for
//! this format.

use cipher::CipherKernel;
use memsim::Mem;
use utcp::SendError;

use crate::msg::{ReplyMeta, UnmarshalSink, WordView, LENGTH_LAST};
use crate::paths::{recv_chunk_fused, send_chunk_fused, RecvOutcome};
use crate::suite::Suite;

/// Random-access word view of a trailer-format reply (compare
/// [`crate::msg::ReplyWords`], which leads with the encryption header);
/// its [`full_source`](WordView::full_source) is the whole message in
/// natural order, which is the entire point of the trailer format.
pub type TrailerReplyWords = WordView<LENGTH_LAST>;

/// Receive-side sink for trailer-format replies: captures the RPC
/// header, writes the chunk, keeps the final word as the length field.
pub type TrailerUnmarshalSink = UnmarshalSink<LENGTH_LAST>;

/// **ILP send, trailer format**: one linear fused pass — no part
/// reordering, no deferred header.
///
/// # Errors
/// Propagates transport back-pressure.
pub fn send_reply_ilp_trailer<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    send_chunk_fused::<LENGTH_LAST, C, M>(&s.scratch, s.cipher, m, &mut s.tx, &mut s.lb, meta, data_addr)
}

/// **ILP receive, trailer format**: fused checksum+decrypt+unmarshal,
/// bounded by the transport length, trailer validated in the final
/// stage.
pub fn recv_reply_ilp_trailer<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
) -> RecvOutcome {
    recv_chunk_fused::<LENGTH_LAST, C, M>(&s.scratch, s.cipher, m, &mut s.rx, &mut s.lb, s.app_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ENC_HDR_LEN;
    use crate::paths::pump_acks;
    use ilp_core::{ilp_run, ChecksumTap, DecryptStage, Fused, Reject};
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
            // The trailing length field is as long as the leading one.
            let padded = m.padded_len(8);
            assert_eq!(padded % 8, 0);
            assert!(padded >= m.marshalled_len() + ENC_HDR_LEN);
            assert!(padded < m.marshalled_len() + ENC_HDR_LEN + 8);
            assert_eq!(TrailerReplyWords::new(&m, 0, 8).total_words(), padded / 4);
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
        let mut sink = TrailerUnmarshalSink::new(s.app_out.base, s.app_out.len).within(short);
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
        crate::paths::send_reply(crate::app::Path::Ilp, &mut s2, &mut m2, &meta0, file2.base).unwrap();
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
