//! Isolated per-layer costs: each layer's public function timed alone,
//! over one chunk of the workload's size, on `NativeMem`.
//!
//! Data-touching layers are timed in batches (the calls are independent,
//! so a batch has no timer inside it). The `utcp` operations depend on
//! each other — a send needs the previous ACK — so they are timed one by
//! one over [`NullKernel`] and the measured cost of the timer pair is
//! subtracted.

use crate::kernel::{NullKernel, Shared};
use crate::p2p::connection_pair;
use crate::stats::fast;
use crate::workload::RING;
use checksum::internet::checksum_buf;
use cipher::{decrypt_buf, encrypt_buf, CipherKernel, SimplifiedSafer};
use ilp_core::{ilp_run, ChecksumTap, DecryptStage, EncryptStage, Fused, Identity, LinearSink};
use memsim::layout::AddressSpace;
use memsim::{Mem, NativeMem};
use rpcapp::msg::{ReplyUnmarshalSink, ReplyWords};
use rpcapp::ReplyMeta;
use std::hint::black_box;
use std::time::{Duration, Instant};
use utcp::ip::IP_HEADER_LEN;
use utcp::wire::TCP_HEADER_LEN;
use xdr::stream::{pump, OpaqueSink, OpaqueSource};

/// Batches per timing; reduced with [`fast`] like every other timing.
const SAMPLES: usize = 25;
/// Target length of one batch.
const BATCH: Duration = Duration::from_millis(1);
/// Round trips in the `utcp` replay.
const UTCP_CHUNKS: usize = 2048;

/// Every isolated number for one chunk size.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// Bytes of one marshalled, cipher-padded message (the denominator
    /// of every ns/byte below).
    pub padded: usize,
    /// `pump(ReplyWords → OpaqueSink)`.
    pub marshal: f64,
    /// `ilp_run(OpaqueSource, Identity, ReplyUnmarshalSink)`.
    pub unmarshal: f64,
    /// `cipher::encrypt_buf`.
    pub encrypt: f64,
    /// `cipher::decrypt_buf`.
    pub decrypt: f64,
    /// `checksum_buf`.
    pub checksum: f64,
    /// `Mem::copy`.
    pub copy: f64,
    /// `copy_from_slice` — the machine's floor.
    pub memcpy: f64,
    /// `ilp_run(ReplyWords, Fused(EncryptStage, ChecksumTap), LinearSink)`.
    pub fused_send: f64,
    /// `ilp_run(OpaqueSource, Fused(ChecksumTap, DecryptStage), ReplyUnmarshalSink)`.
    pub fused_recv: f64,
    /// `netback::codec::encode`, ns per datagram.
    pub codec_encode_ns: f64,
    /// `netback::codec::decode_frame`, ns per datagram.
    pub codec_decode_ns: f64,
    /// `Connection::send_buf`, ns per chunk (ring copy + checksum pass inside).
    pub send_buf_ns: f64,
    /// `begin_ilp_send` + `commit_send`, ns per chunk.
    pub ilp_commit_ns: f64,
    /// Receiver `poll_input` (system copy + header parse), ns per chunk.
    pub poll_input_ns: f64,
    /// `finish_recv` (verdict + ACK emission), ns per chunk.
    pub finish_recv_ns: f64,
    /// Sender `poll_input` consuming one ACK, ns.
    pub ack_ns: f64,
}

impl LayerCosts {
    /// The separate passes of a non-ILP send ÷ the fused send loop.
    pub fn fusion_gain_send(&self) -> f64 {
        (self.marshal + self.encrypt + self.copy + self.checksum) / self.fused_send
    }

    /// The separate passes of a non-ILP receive ÷ the fused receive loop.
    pub fn fusion_gain_recv(&self) -> f64 {
        (self.checksum + self.decrypt + self.unmarshal) / self.fused_recv
    }

    /// Data-manipulation ns per chunk (send + receive side) on a path.
    pub fn data_ns_per_chunk(&self, ilp: bool) -> f64 {
        let per_byte = if ilp {
            self.fused_send + self.fused_recv
        } else {
            self.marshal
                + self.encrypt
                + self.copy
                + self.checksum
                + self.checksum
                + self.decrypt
                + self.unmarshal
        };
        per_byte * self.padded as f64
    }

    /// Everything the ledger can attribute inside one `send_chunk_*` +
    /// one `recv_chunk_*` call: the data manipulations plus the `utcp`
    /// control path (`send_buf` already contains the non-ILP ring copy
    /// and checksum pass, so those are not added twice).
    pub fn explained_ns_per_chunk(&self, ilp: bool) -> f64 {
        let p = self.padded as f64;
        let recv_control = self.poll_input_ns + self.finish_recv_ns;
        if ilp {
            (self.fused_send + self.fused_recv) * p + self.ilp_commit_ns + recv_control
        } else {
            (self.marshal + self.encrypt + self.checksum + self.decrypt + self.unmarshal) * p
                + self.send_buf_ns
                + recv_control
        }
    }
}

/// One timed operation on the layer world.
type Kernel<'a> = Box<dyn FnMut(&mut NativeMem<'_>) + 'a>;

/// Ns per call of each kernel: [`fast`] over [`SAMPLES`] batches of about
/// [`BATCH`]. The batches are taken round-robin, so every kernel's
/// samples span the whole measurement rather than one 25 ms stretch of
/// it that the host may have disturbed.
fn time_calls<const N: usize>(m: &mut NativeMem<'_>, mut kernels: [Kernel<'_>; N]) -> [f64; N] {
    let per_batch = kernels.each_mut().map(|f| {
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f(m);
            }
            let took = start.elapsed();
            if took >= BATCH / 4 || iters >= 1 << 24 {
                let scale = BATCH.as_secs_f64() / took.as_secs_f64().max(1e-9);
                break ((iters as f64 * scale) as u64).max(1);
            }
            iters *= 4;
        }
    });
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(SAMPLES));
    for _ in 0..SAMPLES {
        for ((f, &iters), samples) in kernels.iter_mut().zip(&per_batch).zip(&mut samples) {
            let start = Instant::now();
            for _ in 0..iters {
                f(m);
            }
            samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    samples.map(|s| fast(&s))
}

/// Cost of one `Instant::now()` pair, ns.
fn timer_pair_ns() -> f64 {
    let samples: Vec<f64> = (0..4096)
        .map(|_| {
            let start = Instant::now();
            black_box(start).elapsed().as_nanos() as f64
        })
        .collect();
    fast(&samples)
}

fn fast_minus(samples: &[f64], overhead: f64) -> f64 {
    (fast(samples) - overhead).max(0.0)
}

/// Time every layer for chunks of `chunk` payload bytes.
pub fn measure(chunk: usize) -> LayerCosts {
    const UNIT: usize = <SimplifiedSafer as CipherKernel>::UNIT;
    let meta = ReplyMeta {
        request_id: 0x3177,
        seq: 0,
        offset: 0,
        last: 0,
        data_len: chunk as u32,
    };
    let padded = meta.padded_len(UNIT);

    let mut space = AddressSpace::new();
    let cipher = SimplifiedSafer::alloc(&mut space);
    let app = space.alloc("layer_app", padded, 64);
    let plain = space.alloc("layer_plain", padded, 64);
    let crypt = space.alloc("layer_crypt", padded, 64);
    let out = space.alloc("layer_out", padded, 64);
    let mut arena = space.native_arena();
    let mut m = NativeMem::with_base(&mut arena, space.data_base());
    cipher.init(&mut m, *b"ILP95key");
    for i in 0..chunk {
        m.write_u8(app.at(i), (i * 31 + 7) as u8);
    }

    let words = ReplyWords::new(&meta, app.base, UNIT);
    let host_src = vec![0xA5u8; padded];
    let mut host_dst = vec![0u8; padded];
    let inner = vec![0x5Au8; IP_HEADER_LEN + TCP_HEADER_LEN + padded];
    let frame = netback::codec::encode(&inner).expect("within codec bounds");
    let [marshal, encrypt, checksum, copy, memcpy, decrypt, unmarshal, fused_send, fused_recv, codec_encode, codec_decode] =
        time_calls(
            &mut m,
            [
                Box::new(|m| {
                    let mut sink = OpaqueSink::new(0, plain.base, padded);
                    black_box(pump(m, &mut words.full_source(), &mut sink));
                }),
                Box::new(|m| encrypt_buf(&cipher, m, plain.base, crypt.base, padded)),
                Box::new(|m| {
                    black_box(checksum_buf(m, crypt.base, padded));
                }),
                Box::new(|m| m.copy(black_box(crypt.base), out.base, padded)),
                Box::new(|_| {
                    host_dst.copy_from_slice(black_box(&host_src));
                    black_box(&host_dst);
                }),
                Box::new(|m| decrypt_buf(&cipher, m, crypt.base, plain.base, padded)),
                Box::new(|m| {
                    let mut sink = ReplyUnmarshalSink::new(out.base, padded);
                    let mut source = OpaqueSource::new(plain.base, padded);
                    ilp_run(m, &mut source, &mut Identity, &mut sink, 1, None).expect("word unit");
                    black_box(sink.data_written());
                }),
                Box::new(|m| {
                    let mut stages = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
                    let mut sink = LinearSink::new(crypt.base);
                    ilp_run(m, &mut words.full_source(), &mut stages, &mut sink, 1, None)
                        .expect("negotiated unit fits registers");
                    black_box(stages.b.sum());
                }),
                Box::new(|m| {
                    let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(cipher));
                    let mut sink = ReplyUnmarshalSink::new(out.base, padded);
                    let mut source = OpaqueSource::new(crypt.base, padded);
                    ilp_run(m, &mut source, &mut stages, &mut sink, 1, None)
                        .expect("negotiated unit fits registers");
                    black_box((stages.a.sum(), sink.data_written()));
                }),
                Box::new(|_| {
                    black_box(
                        netback::codec::encode(black_box(&inner)).expect("within codec bounds"),
                    );
                }),
                Box::new(|_| {
                    black_box(
                        netback::codec::decode_frame(black_box(&frame)).expect("well-formed"),
                    );
                }),
            ],
        );
    let per_byte = |ns: f64| ns / padded as f64;
    let mut c = LayerCosts {
        padded,
        marshal: per_byte(marshal),
        encrypt: per_byte(encrypt),
        checksum: per_byte(checksum),
        copy: per_byte(copy),
        memcpy: per_byte(memcpy),
        decrypt: per_byte(decrypt),
        unmarshal: per_byte(unmarshal),
        fused_send: per_byte(fused_send),
        fused_recv: per_byte(fused_recv),
        codec_encode_ns: codec_encode,
        codec_decode_ns: codec_decode,
        ..LayerCosts::default()
    };

    utcp_costs(chunk, &mut c);
    c
}

/// The `utcp` control path per chunk with the kernel part excluded:
/// record [`UTCP_CHUNKS`] stop-and-wait round trips over a recording
/// [`NullKernel`], then replay them into fresh connections while `send`
/// is a no-op, timing each call.
fn utcp_costs(chunk: usize, c: &mut LayerCosts) {
    let len = c.padded;
    let mut space = AddressSpace::new();
    let mut wire = Shared(NullKernel::alloc(&mut space, 2 * UTCP_CHUNKS));
    let (mut tx_rec, mut rx_rec) = connection_pair(&mut space, &mut wire, RING);
    let (mut tx, mut rx) = connection_pair(&mut space, &mut wire, RING);
    let (mut tx_ilp, mut rx_ilp) = connection_pair(&mut space, &mut wire, RING);
    let mut k = wire.0;
    let src = space.alloc("utcp_src", len, 64);
    let mut arena = space.native_arena();
    let mut m = NativeMem::with_base(&mut arena, space.data_base());
    for i in 0..len {
        m.write_u8(src.at(i), (i * 13 + chunk) as u8);
    }
    let payload_sum = checksum_buf(&mut m, src.base, len);

    for _ in 0..UTCP_CHUNKS {
        tx_rec
            .send_buf(&mut m, &mut k, src.base, len)
            .expect("one chunk in flight");
        let d = rx_rec.poll_input(&mut m, &mut k).expect("recorded segment");
        rx_rec
            .finish_recv(&mut m, &mut k, &d, payload_sum)
            .expect("accepted");
        while tx_rec.poll_input(&mut m, &mut k).is_some() {}
    }

    let timer = timer_pair_ns();
    let ns = |start: Instant| start.elapsed().as_nanos() as f64;
    let mut send = Vec::with_capacity(UTCP_CHUNKS);
    let mut poll = Vec::with_capacity(UTCP_CHUNKS);
    let mut finish = Vec::with_capacity(UTCP_CHUNKS);
    let mut ack = Vec::with_capacity(UTCP_CHUNKS);
    k.replay();
    for _ in 0..UTCP_CHUNKS {
        let t = Instant::now();
        tx.send_buf(&mut m, &mut k, src.base, len)
            .expect("one chunk in flight");
        send.push(ns(t));
        let t = Instant::now();
        let d = rx.poll_input(&mut m, &mut k).expect("replayed segment");
        poll.push(ns(t));
        let t = Instant::now();
        rx.finish_recv(&mut m, &mut k, &d, payload_sum)
            .expect("accepted");
        finish.push(ns(t));
        let t = Instant::now();
        while tx.poll_input(&mut m, &mut k).is_some() {}
        ack.push(ns(t));
    }
    assert_eq!(tx.in_flight(), 0, "replayed ACKs cover every replayed send");

    let mut commit = Vec::with_capacity(UTCP_CHUNKS);
    k.replay();
    for _ in 0..UTCP_CHUNKS {
        let t = Instant::now();
        let (extent, _) = tx_ilp.begin_ilp_send(len).expect("one chunk in flight");
        let begin = ns(t);
        // Stands in for the fused loop's stores (timed as `core.fused_send`).
        m.copy(src.base, tx_ilp.ring().addr(extent.off), len);
        let t = Instant::now();
        tx_ilp.commit_send(&mut m, &mut k, extent, payload_sum);
        commit.push(begin + ns(t));
        let d = rx_ilp.poll_input(&mut m, &mut k).expect("replayed segment");
        rx_ilp
            .finish_recv(&mut m, &mut k, &d, payload_sum)
            .expect("accepted");
        while tx_ilp.poll_input(&mut m, &mut k).is_some() {}
    }

    c.send_buf_ns = fast_minus(&send, timer);
    c.poll_input_ns = fast_minus(&poll, timer);
    c.finish_recv_ns = fast_minus(&finish, timer);
    c.ack_ns = fast_minus(&ack, timer);
    c.ilp_commit_ns = fast_minus(&commit, 2.0 * timer); // two timer pairs per sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_reports_a_positive_cost_and_fusion_gains_are_finite() {
        let c = measure(64);
        for (name, v) in [
            ("marshal", c.marshal),
            ("unmarshal", c.unmarshal),
            ("encrypt", c.encrypt),
            ("decrypt", c.decrypt),
            ("checksum", c.checksum),
            ("copy", c.copy),
            ("memcpy", c.memcpy),
            ("fused_send", c.fused_send),
            ("fused_recv", c.fused_recv),
            ("codec_encode", c.codec_encode_ns),
            ("codec_decode", c.codec_decode_ns),
            ("send_buf", c.send_buf_ns),
            ("poll_input", c.poll_input_ns),
            ("finish_recv", c.finish_recv_ns),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
        assert!(c.fusion_gain_send().is_finite() && c.fusion_gain_recv().is_finite());
        assert!(c.explained_ns_per_chunk(false) > c.data_ns_per_chunk(false) * 0.5);
        assert_eq!(c.padded, 96, "4 + 24 prefix bytes + 64 data, padded to 8");
    }
}
