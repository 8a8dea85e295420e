//! End-to-end file transfer — the paper's experiment workload.
//!
//! "A 15 kbyte file with varying message sizes has been transmitted
//! several times from a server (sender) to a client (receiver) on the
//! same machine using UDP in loop back mode" (§4.1). [`FileTransfer`]
//! drives exactly that: the client issues a [`crate::msg::FileRequest`],
//! the server segments the file into chunks of at most the requested
//! reply size, and each reply flows through either the ILP or the
//! non-ILP path. The transfer completes when every copy of the file has
//! been delivered and acknowledged.

use checksum::internet::checksum_buf;
use cipher::CipherKernel;
use ilp_core::Reject;
use memsim::Mem;
use utcp::SendError;
use xdr::{XdrDecoder, XdrEncoder};

use crate::msg::{fits_payload, FileRequest, ReplyMeta, ENC_HDR_LEN};
use crate::paths::{pump_acks, recv_reply, recv_whole_units, send_reply};
use crate::suite::Suite;

/// Which implementation a transfer runs: layered (Figures 3/5 left) or
/// integrated (right). The one path enum of the workspace — spans are
/// labelled with the same value that selected the code.
pub use obs::PathLabel as Path;

/// What a finished transfer did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferReport {
    /// Reply messages delivered (copies × chunks).
    pub replies: usize,
    /// Application payload bytes delivered.
    pub payload_bytes: usize,
    /// Messages the receiver rejected (should be 0 on a clean loop-back).
    pub rejected: usize,
}

/// Send a [`FileRequest`] from the client to the server over the request
/// connection: marshal, encrypt (whole message, length field in front as
/// in Figure 2), ship. Requests are small; they take the plain layered
/// path, as in the paper, whose measurements cover the bulk replies.
///
/// # Errors
/// Propagates transport back-pressure.
pub fn send_request<C: CipherKernel, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
    req: &FileRequest,
) -> Result<(), SendError> {
    let buf = s.scratch.marshal_buf.base;
    let mut enc = XdrEncoder::new(m, buf + ENC_HDR_LEN);
    req.marshal(&mut enc);
    let msg_len = ENC_HDR_LEN + enc.written();
    m.write_u32_be(buf, msg_len as u32);
    let padded = msg_len.div_ceil(C::UNIT) * C::UNIT;
    for off in msg_len..padded {
        m.write_u8(buf + off, 0);
    }
    cipher::encrypt_buf(&s.cipher, m, buf, s.scratch.encrypt_buf.base, padded);
    s.req_tx.send_buf(m, &mut s.lb, s.scratch.encrypt_buf.base, padded)
}

/// Server side: poll for, verify, decrypt and unmarshal a request —
/// under the replies' admission rule ([`crate::msg`]): whole cipher
/// units before TCP state moves, the decrypted length field inside the
/// transport payload before anything is parsed by it.
pub fn recv_request<C: CipherKernel, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
) -> Option<Result<FileRequest, Reject>> {
    let (cipher, buf) = (&s.cipher, s.scratch.decrypt_buf.base);
    recv_whole_units::<C, _, _, _>(m, &mut s.req_rx, &mut s.lb, |m, rx, lb, d| {
        let sum = checksum_buf(m, d.payload_addr, d.payload_len);
        rx.finish_recv(m, lb, &d, sum)?;
        cipher::decrypt_buf(cipher, m, d.payload_addr, buf, d.payload_len);
        // (An empty payload decrypts nothing: the word read is stale.)
        let msg_len = m.read_u32_be(buf) as usize;
        let body_len =
            msg_len.checked_sub(ENC_HDR_LEN).ok_or(Reject::BadFormat("request length field"))?;
        fits_payload(msg_len, d.payload_len)?;
        FileRequest::unmarshal(&mut XdrDecoder::new(m, buf + ENC_HDR_LEN, body_len))
            .map_err(|_| Reject::BadFormat("request body"))
    })
}

/// Driver for repeated file transfers over a [`Suite`].
#[derive(Debug)]
pub struct FileTransfer {
    /// File length (≤ [`crate::suite::MAX_FILE`]).
    pub file_len: usize,
    /// Maximum payload bytes per reply (the request's `max_reply_len`).
    pub chunk: usize,
    /// How many copies of the file to send (the request's `copies`).
    pub copies: usize,
}

impl FileTransfer {
    /// The paper's default workload: 15 kbyte file, one copy.
    pub fn paper_default(chunk: usize) -> Self {
        FileTransfer { file_len: 15 * 1024, chunk, copies: 1 }
    }

    /// Chunks per copy.
    pub fn chunks_per_copy(&self) -> usize {
        self.file_len.div_ceil(self.chunk)
    }

    /// Write a deterministic test pattern as the server's file.
    pub fn fill_file<C, M: Mem>(&self, s: &Suite<C>, m: &mut M) {
        for i in 0..self.file_len {
            m.write_u8(s.file.at(i), (i % 251) as u8 ^ (i / 997) as u8);
        }
    }

    /// Run the whole transfer over the chosen path. Sends as many
    /// replies as flow control allows, receives and acknowledges, and
    /// repeats until done.
    pub fn run<C: CipherKernel + Copy, M: Mem>(
        &self,
        s: &mut Suite<C>,
        m: &mut M,
        path: Path,
    ) -> TransferReport {
        let mut report = TransferReport { replies: 0, payload_bytes: 0, rejected: 0 };
        for copy in 0..self.copies {
            let chunks = self.chunks_per_copy();
            let mut next_chunk = 0usize;
            let mut delivered = 0usize;
            let mut stall_guard = 0u32;
            while delivered < chunks {
                // Send while flow control allows.
                while next_chunk < chunks {
                    let offset = next_chunk * self.chunk;
                    let len = self.chunk.min(self.file_len - offset);
                    let meta = ReplyMeta {
                        request_id: 0x52455121,
                        seq: (copy * chunks + next_chunk) as u32,
                        offset: offset as u32,
                        last: u32::from(copy + 1 == self.copies && next_chunk + 1 == chunks),
                        data_len: len as u32,
                    };
                    match send_reply(path, s, m, &meta, s.file.at(offset)) {
                        Ok(_) => next_chunk += 1,
                        Err(SendError::BufferFull | SendError::WindowClosed) => break,
                        Err(e) => panic!("transfer failed: {e}"),
                    }
                }
                // Receive everything pending.
                loop {
                    match recv_reply(path, s, m) {
                        None => break,
                        Some(Ok(meta)) => {
                            report.replies += 1;
                            report.payload_bytes += meta.data_len as usize;
                            delivered += 1;
                        }
                        Some(Err(_)) => report.rejected += 1,
                    }
                }
                pump_acks(s, m);
                s.tx.tick(m, &mut s.lb);
                stall_guard += 1;
                assert!(stall_guard < 10_000, "transfer stalled (flow-control deadlock?)");
            }
        }
        report
    }

    /// The full RPC flow: the client sends a [`FileRequest`] over the
    /// request connection; the server receives it, derives the transfer
    /// parameters from it (chunk size = `max_reply_len`, copy count =
    /// `copies`), and streams the replies back over the data connection.
    pub fn run_rpc<C: CipherKernel + Copy, M: Mem>(
        suite: &mut Suite<C>,
        m: &mut M,
        path: Path,
        request: &FileRequest,
        file_len: usize,
    ) -> TransferReport {
        send_request(suite, m, request).expect("request fits the ring");
        // Sender consumes the request ACK eventually; server acts now.
        let served = recv_request(suite, m)
            .expect("request delivered on clean loop-back")
            .expect("request verifies");
        while suite.req_tx.poll_input(m, &mut suite.lb).is_some() {}
        let xfer = FileTransfer {
            file_len,
            chunk: served.max_reply_len as usize,
            copies: served.copies as usize,
        };
        xfer.run(suite, m, path)
    }

    /// Check the client's reassembled file against the server's.
    pub fn verify_output<C, M: Mem>(&self, s: &Suite<C>, m: &mut M) -> bool {
        for i in 0..self.file_len {
            let want = (i % 251) as u8 ^ (i / 997) as u8;
            if m.read_u8(s.app_out.at(i)) != want {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};

    fn run_transfer(path: Path, chunk: usize) {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        let xfer = FileTransfer::paper_default(chunk);
        xfer.fill_file(&s, &mut m);
        let report = xfer.run(&mut s, &mut m, path);
        assert_eq!(report.replies, xfer.chunks_per_copy());
        assert_eq!(report.payload_bytes, 15 * 1024);
        assert_eq!(report.rejected, 0);
        assert!(xfer.verify_output(&s, &mut m), "file corrupted in transit ({path:?})");
    }

    #[test]
    fn paper_workload_non_ilp_1024() {
        run_transfer(Path::NonIlp, 1024);
    }

    #[test]
    fn paper_workload_ilp_1024() {
        run_transfer(Path::Ilp, 1024);
    }

    #[test]
    fn all_paper_packet_sizes_both_paths() {
        for chunk in [256usize, 512, 768, 1024, 1280] {
            run_transfer(Path::NonIlp, chunk);
            run_transfer(Path::Ilp, chunk);
        }
    }

    #[test]
    fn odd_chunk_sizes_exercise_padding() {
        for chunk in [255usize, 257, 1001] {
            run_transfer(Path::Ilp, chunk);
        }
    }

    #[test]
    fn multiple_copies() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        let xfer = FileTransfer { file_len: 4096, chunk: 512, copies: 3 };
        xfer.fill_file(&s, &mut m);
        let report = xfer.run(&mut s, &mut m, Path::Ilp);
        assert_eq!(report.replies, 3 * 8);
        assert_eq!(report.payload_bytes, 3 * 4096);
        assert!(xfer.verify_output(&s, &mut m));
    }

    #[test]
    fn transfer_survives_loss_with_retransmission() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        s.lb.set_faults(utcp::FaultPlan { drop_every: 7, ..Default::default() });
        let xfer = FileTransfer { file_len: 8 * 1024, chunk: 1024, copies: 1 };
        xfer.fill_file(&s, &mut m);
        let report = xfer.run(&mut s, &mut m, Path::Ilp);
        assert_eq!(report.payload_bytes, 8 * 1024);
        assert!(xfer.verify_output(&s, &mut m));
        assert!(s.tx.stats.retransmits > 0);
    }

    #[test]
    fn request_roundtrips_through_the_stack() {
        use xdr::stubgen::Opaque;
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        let req = FileRequest {
            file_id: 42,
            copies: 2,
            max_reply_len: 768,
            name: Opaque(b"results.dat".to_vec()),
        };
        send_request(&mut s, &mut m, &req).unwrap();
        let got = recv_request(&mut s, &mut m).expect("delivered").expect("verified");
        assert_eq!(got, req);
    }

    #[test]
    fn full_rpc_flow_request_then_replies() {
        use xdr::stubgen::Opaque;
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        let file_len = 6 * 1024;
        let seed_xfer = FileTransfer { file_len, chunk: 512, copies: 1 };
        seed_xfer.fill_file(&s, &mut m);
        let req = FileRequest {
            file_id: 1,
            copies: 2,
            max_reply_len: 512,
            name: Opaque(b"f".to_vec()),
        };
        let report = FileTransfer::run_rpc(&mut s, &mut m, Path::Ilp, &req, file_len);
        assert_eq!(report.payload_bytes, 2 * file_len, "copies honoured");
        assert!(seed_xfer.verify_output(&s, &mut m));
    }

    #[test]
    fn corrupted_request_rejected() {
        use xdr::stubgen::Opaque;
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        let req = FileRequest {
            file_id: 9,
            copies: 1,
            max_reply_len: 256,
            name: Opaque(vec![]),
        };
        send_request(&mut s, &mut m, &req).unwrap();
        // Flip a ciphertext bit in the staged datagram.
        let d = s.req_rx.poll_input(&mut m, &mut s.lb).unwrap();
        let b = m.bytes(d.payload_addr + 5, 1)[0];
        m.bytes_mut(d.payload_addr + 5, 1)[0] = b ^ 1;
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        assert!(s.req_rx.finish_recv(&mut m, &mut s.lb, &d, sum).is_err());
    }

    /// `recv_request` over a peer we did not write: every truncation and
    /// every single-bit flip of a valid encrypted request, delivered as
    /// the payload of a well-checksummed in-order segment. Never a
    /// panic; the request only from the untouched bytes (or from a flip
    /// the cipher confines to the alignment); a truncation always a
    /// reject (an unaligned one — which used to reach
    /// `decrypt_buf`'s assert after the ACK had gone out — before TCP
    /// state moves).
    #[test]
    fn recv_request_never_panics_on_truncated_or_bit_flipped_requests() {
        use xdr::stubgen::Opaque;
        let req = FileRequest { file_id: 9, copies: 1, max_reply_len: 256, name: Opaque(b"f.dat".to_vec()) };
        fn world<T>(f: impl FnOnce(&mut Suite<cipher::SimplifiedSafer>, &mut NativeMem<'_>) -> T) -> T {
            let mut space = AddressSpace::new();
            let mut s = Suite::simplified(&mut space);
            let mut arena = space.native_arena();
            let mut m = NativeMem::new(&mut arena);
            s.init_world(&mut m);
            f(&mut s, &mut m)
        }
        let valid = world(|s, m| {
            send_request(s, m, &req).unwrap();
            let d = s.req_rx.poll_input(m, &mut s.lb).unwrap();
            m.bytes(d.payload_addr, d.payload_len).to_vec()
        });
        // The verdict on `payload`, and how many ACKs it drew.
        let deliver = |payload: &[u8]| {
            world(|s, m| {
                let buf = s.scratch.encrypt_buf.base;
                m.bytes_mut(buf, payload.len()).copy_from_slice(payload);
                s.req_tx.send_buf(m, &mut s.lb, buf, payload.len()).unwrap();
                (recv_request(s, m).expect("delivered"), s.req_rx.stats.acks_sent)
            })
        };
        assert_eq!(valid.len() % 8, 0);
        assert_eq!(deliver(&valid).0, Ok(req.clone()));
        for cut in 1..valid.len() {
            let (got, acks) = deliver(&valid[..cut]);
            assert!(matches!(got, Err(Reject::BadFormat(_))), "cut at {cut}: {got:?}");
            assert_eq!(acks, u64::from(cut % 8 == 0), "cut at {cut}: only a whole-unit segment is ACKed");
        }
        for bit in 0..8 * valid.len() {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // The final block ends in cipher alignment the length field
            // excludes: only a flip there can decrypt to the same request.
            let in_alignment_block = bit / 64 == valid.len() / 8 - 1;
            assert!(deliver(&flipped).0 != Ok(req.clone()) || in_alignment_block, "bit {bit}");
        }
    }

    #[test]
    fn very_simple_cipher_full_transfer() {
        let mut space = AddressSpace::new();
        let mut s = Suite::very_simple(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        let xfer = FileTransfer::paper_default(1024);
        xfer.fill_file(&s, &mut m);
        let report = xfer.run(&mut s, &mut m, Path::Ilp);
        assert_eq!(report.payload_bytes, 15 * 1024);
        assert!(xfer.verify_output(&s, &mut m));
    }
}
