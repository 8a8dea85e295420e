//! Seeded property tests: each property runs over [`CASES`] inputs
//! drawn from `utcp::rng::XorShift64`, one generator per case, and a
//! failure names the case's seed so it replays as
//! `XorShift64::new(seed)`.
//!
//! Three groups: the reproduction's central invariant (the ILP and
//! non-ILP implementations are *the same protocol* — identical wire
//! bytes, checksums and delivered data for all contents, sizes and
//! offsets); the data-manipulation kernels (every cipher is a bijection
//! under its key, the checksum is order-insensitive and
//! incremental-safe, XDR round-trips, the segment planner always
//! tiles); and hostile input (arbitrary headers and prefixes parse
//! consistently or not at all, any flipped byte is rejected, and the
//! transport delivers the exact byte stream under periodic loss,
//! duplication and reordering).

use ilp_repro::checksum::internet::{add_buf, checksum_buf, InetChecksum};
use ilp_repro::cipher::{
    decrypt_buf, encrypt_buf, CipherKernel, Des, SaferK64, SimplifiedSafer, VerySimple,
};
use ilp_repro::ilp::{Ordering, PartKind, SegmentPlan};
use ilp_repro::memsim::{AddressSpace, Mem, NativeMem};
use ilp_repro::rpcapp::app::{FileTransfer, Path};
use ilp_repro::rpcapp::msg::ReplyMeta;
use ilp_repro::rpcapp::paths::{
    pump_acks, recv_reply_ilp, recv_reply_non_ilp, send_reply_ilp, send_reply_non_ilp,
};
use ilp_repro::rpcapp::suite::Suite;
use ilp_repro::rpcapp::trailer::{recv_reply_ilp_trailer, send_reply_ilp_trailer};
use ilp_repro::utcp::rng::XorShift64;
use ilp_repro::utcp::{Delivered, FaultPlan, Ipv4Header};
use ilp_repro::xdr::{XdrDecoder, XdrEncoder};

const CASES: u64 = 256;

/// Run `property` once per seed; any panic inside it is re-raised with
/// the seed that produced it.
fn for_each_seed(property: impl Fn(&mut XorShift64)) {
    for seed in 1..=CASES {
        let case = || {
            property(&mut XorShift64::new(seed));
            Ok(())
        };
        if let Err(why) = sim::caught(case) {
            panic!("property failed for seed {seed:#x}: {why}");
        }
    }
}

/// Random bytes, `len.start..len.end` of them.
fn bytes(rng: &mut XorShift64, len: std::ops::Range<usize>) -> Vec<u8> {
    let n = len.start + rng.index(len.end - len.start);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// A non-zero XOR mask.
fn flip(rng: &mut XorShift64) -> u8 {
    1 + rng.below(255) as u8
}

/// `run` over a fresh simplified-suite world with `payload` at the head
/// of the file.
fn with_world(payload: &[u8], run: impl FnOnce(&mut Suite<SimplifiedSafer>, &mut NativeMem<'_>)) {
    let mut space = AddressSpace::new();
    let mut suite = Suite::simplified(&mut space);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    suite.init_world(&mut m);
    m.bytes_mut(suite.file.base, payload.len()).copy_from_slice(payload);
    run(&mut suite, &mut m);
}

#[test]
fn ilp_and_non_ilp_wire_bytes_identical() {
    for_each_seed(|rng| {
        let payload = bytes(rng, 1..1200);
        let seq = rng.below(1000) as u32;
        with_world(&payload, |suite, m| {
            let file = suite.file;
            let meta = ReplyMeta {
                request_id: 7,
                seq,
                offset: 0,
                last: 1,
                data_len: payload.len() as u32,
            };
            send_reply_non_ilp(suite, m, &meta, file.base).unwrap();
            let d1 = suite.rx.poll_input(m, &mut suite.lb).unwrap();
            let wire_non = m.bytes(d1.payload_addr, d1.payload_len).to_vec();
            let sum1 = checksum_buf(m, d1.payload_addr, d1.payload_len);
            suite.rx.finish_recv(m, &mut suite.lb, &d1, sum1).unwrap();
            pump_acks(suite, m);

            send_reply_ilp(suite, m, &meta, file.base).unwrap();
            let d2 = suite.rx.poll_input(m, &mut suite.lb).unwrap();
            assert_eq!(wire_non, m.bytes(d2.payload_addr, d2.payload_len), "wire bytes differ");
            assert!(suite.rx.verify_checksum(m, &d2));
            let sum2 = checksum_buf(m, d2.payload_addr, d2.payload_len);
            suite.rx.finish_recv(m, &mut suite.lb, &d2, sum2).unwrap();
        });
    });
}

#[test]
fn delivered_data_equals_sent_data() {
    for_each_seed(|rng| {
        let payload = bytes(rng, 1..1200);
        let offset = rng.index(8) * 1536;
        let (ilp_send, ilp_recv) = (rng.below(2) == 1, rng.below(2) == 1);
        with_world(&[], |suite, m| {
            let src = suite.file.at(offset);
            m.bytes_mut(src, payload.len()).copy_from_slice(&payload);
            let meta = ReplyMeta {
                request_id: 1,
                seq: 0,
                offset: offset as u32,
                last: 1,
                data_len: payload.len() as u32,
            };
            if ilp_send {
                send_reply_ilp(suite, m, &meta, src).unwrap();
            } else {
                send_reply_non_ilp(suite, m, &meta, src).unwrap();
            }
            let got = if ilp_recv { recv_reply_ilp(suite, m) } else { recv_reply_non_ilp(suite, m) };
            assert_eq!(got.unwrap().unwrap(), meta);
            assert_eq!(m.bytes(suite.app_out.at(offset), payload.len()), payload);
        });
    });
}

/// An authentic reply cut at a cipher-block boundary is well-formed at
/// every layer below the RPC message: whole cipher units, and a TCP
/// checksum anyone can recompute (it is unkeyed). Only the decrypted
/// length field says the message is longer than what arrived. The two
/// implementations are the same protocol, so for every such cut of a
/// 1 000-byte reply they give the same verdict and leave the same bytes
/// in the reassembled file — a reject and nothing, short of the whole
/// message. (The ILP receiver used to accept the 64-byte cut as
/// `data_len: 1000` with 36 bytes written.) The §5 trailer format has
/// only a fused receiver; it is held to the same outcome.
#[test]
fn truncated_authentic_reply_gets_one_verdict_from_both_receivers() {
    #[derive(Clone, Copy)]
    enum Receiver {
        NonIlp,
        Ilp,
        IlpTrailer,
    }
    let recv = |by: Receiver, suite: &mut Suite<SimplifiedSafer>, m: &mut NativeMem<'_>| match by {
        Receiver::NonIlp => recv_reply_non_ilp(suite, m),
        Receiver::Ilp => recv_reply_ilp(suite, m),
        Receiver::IlpTrailer => recv_reply_ilp_trailer(suite, m),
    };
    let payload: Vec<u8> = (0..1000).map(|i| (i * 31 + 7) as u8).collect();
    let meta = ReplyMeta { request_id: 7, seq: 0, offset: 2048, last: 1, data_len: 1000 };
    for trailer in [false, true] {
        // The authentic ciphertext, as the sender put it on the wire.
        let mut wire = Vec::new();
        with_world(&payload, |suite, m| {
            let file = suite.file;
            if trailer {
                send_reply_ilp_trailer(suite, m, &meta, file.base).unwrap();
            } else {
                send_reply_ilp(suite, m, &meta, file.base).unwrap();
            }
            let d = suite.rx.poll_input(m, &mut suite.lb).unwrap();
            wire = m.bytes(d.payload_addr, d.payload_len).to_vec();
        });
        assert_eq!(wire.len(), 1032);
        let receivers: &[Receiver] =
            if trailer { &[Receiver::IlpTrailer] } else { &[Receiver::NonIlp, Receiver::Ilp] };
        // Every cut through one world per receiver: a truncated reply is
        // an in-order TCP segment, so the connection carries on.
        let outcomes: Vec<_> = receivers
            .iter()
            .map(|&by| {
                let mut seen = Vec::new();
                with_world(&[], |suite, m| {
                    let buf = suite.scratch.marshal_buf.base;
                    m.bytes_mut(buf, wire.len()).copy_from_slice(&wire);
                    for cut in (8..=wire.len()).step_by(8) {
                        suite.tx.send_buf(m, &mut suite.lb, buf, cut).unwrap();
                        let verdict = recv(by, suite, m).expect("delivered");
                        pump_acks(suite, m);
                        seen.push((cut, verdict, m.bytes(suite.app_out.base, suite.app_out.len).to_vec()));
                    }
                });
                seen
            })
            .collect();
        for other in &outcomes[1..] {
            assert_eq!(&outcomes[0], other, "trailer={trailer}: the receivers disagree");
        }
        for (cut, verdict, app_out) in &outcomes[0] {
            if *cut < wire.len() {
                assert!(verdict.is_err(), "trailer={trailer} cut {cut}: accepted {verdict:?}");
                assert!(app_out.iter().all(|&b| b == 0), "trailer={trailer} cut {cut}: bytes placed");
            } else {
                assert_eq!(*verdict, Ok(meta));
                assert_eq!(app_out[2048..3048], payload[..]);
            }
        }
    }
}

/// One ILP-sent message polled at the receiver with one payload byte
/// XORed by a non-zero mask.
fn with_flipped_datagram(
    rng: &mut XorShift64,
    payload: &[u8],
    check: impl FnOnce(&mut Suite<SimplifiedSafer>, &mut NativeMem<'_>, Delivered),
) {
    let (pos_roll, mask) = (rng.next_u64(), flip(rng));
    with_world(payload, |suite, m| {
        let meta = ReplyMeta {
            request_id: 1,
            seq: 0,
            offset: 0,
            last: 1,
            data_len: payload.len() as u32,
        };
        send_reply_ilp(suite, m, &meta, suite.file.base).unwrap();
        let d = suite.rx.poll_input(m, &mut suite.lb).unwrap();
        let at = d.payload_addr + (pos_roll % d.payload_len as u64) as usize;
        let b = m.read_u8(at);
        m.write_u8(at, b ^ mask);
        check(suite, m, d);
    });
}

#[test]
fn corruption_anywhere_is_rejected() {
    for_each_seed(|rng| {
        let payload = bytes(rng, 8..512);
        with_flipped_datagram(rng, &payload, |suite, m, d| {
            assert!(!suite.rx.verify_checksum(m, &d), "corruption must not verify");
        });
    });
}

#[test]
fn non_ilp_receiver_rejects_any_flip() {
    for_each_seed(|rng| {
        with_flipped_datagram(rng, &[0; 256], |suite, m, d| {
            let sum = checksum_buf(m, d.payload_addr, d.payload_len);
            assert!(suite.rx.finish_recv(m, &mut suite.lb, &d, sum).is_err());
            // Nothing else is queued, and asking must not disturb the
            // connection.
            assert!(recv_reply_non_ilp(suite, m).is_none());
        });
    });
}

fn buf_roundtrip<C: CipherKernel>(
    c: &C,
    init: impl FnOnce(&mut NativeMem<'_>),
    data: &[u8],
    space: AddressSpace,
    [src, enc, dec]: [usize; 3],
) {
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    init(&mut m);
    m.bytes_mut(src, data.len()).copy_from_slice(data);
    encrypt_buf(c, &mut m, src, enc, data.len());
    decrypt_buf(c, &mut m, enc, dec, data.len());
    assert_eq!(m.bytes(dec, data.len()), data);
}

#[test]
fn simplified_safer_roundtrips() {
    for_each_seed(|rng| {
        let key = rng.next_u64().to_be_bytes();
        let mut data = bytes(rng, 8..256);
        data.truncate(data.len() & !7);
        let mut space = AddressSpace::new();
        let c = SimplifiedSafer::alloc(&mut space);
        let bufs = ["src", "enc", "dec"].map(|name| space.alloc(name, 256, 8).base);
        buf_roundtrip(&c, |m| c.init(m, key), &data, space, bufs);
    });
}

/// `decrypt_unit(encrypt_unit(block)) == block` for a unit cipher.
fn unit_roundtrip<C: CipherKernel>(
    space: AddressSpace,
    c: &C,
    init: impl FnOnce(&mut NativeMem<'_>),
    block: u64,
) {
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    init(&mut m);
    let e = c.encrypt_unit(&mut m, block);
    assert_eq!(c.decrypt_unit(&mut m, e), block);
}

#[test]
fn full_safer_roundtrips() {
    for_each_seed(|rng| {
        let key = rng.next_u64().to_be_bytes();
        let mut space = AddressSpace::new();
        let c = SaferK64::alloc(&mut space, 1 + rng.index(8));
        unit_roundtrip(space, &c, |m| c.init(m, key), rng.next_u64());
    });
}

#[test]
fn des_roundtrips() {
    for_each_seed(|rng| {
        let key = rng.next_u64();
        let mut space = AddressSpace::new();
        let c = Des::alloc(&mut space);
        unit_roundtrip(space, &c, |m| c.init(m, key), rng.next_u64());
    });
}

#[test]
fn very_simple_roundtrips() {
    for_each_seed(|rng| {
        for _ in 0..1 + rng.index(63) {
            let w = rng.next_u32();
            assert_eq!(VerySimple::decrypt_word(VerySimple::encrypt_word(w)), w);
        }
    });
}

/// `data` in a fresh native world, handed to `check(m, base)`.
fn with_buf(data: &[u8], check: impl FnOnce(&mut NativeMem<'_>, usize)) {
    let mut space = AddressSpace::new();
    let buf = space.alloc("buf", data.len().max(8), 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    m.bytes_mut(buf.base, data.len()).copy_from_slice(data);
    check(&mut m, buf.base);
}

/// Any even split produces the same folded sum when combined, in either
/// order — the property behind the B→C→A schedule.
#[test]
fn checksum_is_split_invariant() {
    for_each_seed(|rng| {
        let mut data = bytes(rng, 2..600);
        data.truncate(data.len() & !1);
        let split = 2 * rng.index(data.len() / 2 + 1);
        with_buf(&data, |m, base| {
            let whole = checksum_buf(m, base, data.len()).finish();
            let a = checksum_buf(m, base, split);
            let b = checksum_buf(m, base + split, data.len() - split);
            for (first, second) in [(a, b), (b, a)] {
                let mut s = InetChecksum::new();
                s.combine(first);
                s.combine(second);
                assert_eq!(s.finish(), whole, "split at {split} of {}", data.len());
            }
        });
    });
}

/// Feeding the buffer in 8-byte pieces (the last one may be shorter and
/// odd) equals the one-shot sum.
#[test]
fn checksum_incremental_equals_one_shot() {
    for_each_seed(|rng| {
        let data = bytes(rng, 0..600);
        with_buf(&data, |m, base| {
            let one = checksum_buf(m, base, data.len()).finish();
            let mut s = InetChecksum::new();
            for off in (0..data.len()).step_by(8) {
                add_buf(m, base + off, (data.len() - off).min(8), &mut s);
            }
            assert_eq!(s.finish(), one, "{} bytes", data.len());
        });
    });
}

#[test]
fn xdr_scalars_roundtrip() {
    for_each_seed(|rng| {
        let values: Vec<u32> = (0..1 + rng.index(59)).map(|_| rng.next_u32()).collect();
        with_buf(&[0; 256], |m, base| {
            let mut enc = XdrEncoder::new(m, base);
            for &v in &values {
                enc.put_u32(v);
            }
            let len = enc.written();
            let mut dec = XdrDecoder::new(m, base, len);
            for &v in &values {
                assert_eq!(dec.get_u32().unwrap(), v);
            }
        });
    });
}

#[test]
fn segment_plans_always_tile() {
    for_each_seed(|rng| {
        let block = [4usize, 8][rng.index(2)];
        let header = rng.index(block + 1);
        let marshalled = 1 + rng.index(4095);
        let plan =
            SegmentPlan::for_message(header, marshalled, block, Ordering::Unconstrained).unwrap();
        assert!(plan.is_tiling());
        assert_eq!(plan.padded_len % block, 0);
        assert!(plan.padded_len >= header + marshalled);
        assert!(plan.pad_bytes < block);
        let kinds: Vec<_> = plan.processing_order().iter().map(|p| p.kind).collect();
        assert_eq!(kinds, [PartKind::B, PartKind::C, PartKind::A]);
    });
}

/// Under periodic loss, duplication and reordering the user-level TCP
/// still delivers exactly the sent byte stream, in order, through the
/// full protocol suite. `drop_every == 1` drops everything and
/// `drop_every == 2` phase-locks with the RTO cycle (each RTO round
/// emits exactly two datagrams, so a mod-2 drop removes the
/// retransmission forever) — `tests/regressions.rs` pins that plan, the
/// one counterexample ever recorded against this property, and its
/// neighbours; real loss is not phase-locked, so both are left out here.
#[test]
fn file_always_arrives_intact() {
    for_each_seed(|rng| {
        let drop_every = [0, 3, 4, 5, 6, 7, 8][rng.index(7)];
        let faults = FaultPlan {
            drop_every,
            dup_every: rng.index(9),
            reorder_every: rng.index(9),
            ..Default::default()
        };
        let chunk = [256, 512, 768, 1024][rng.index(4)];
        let path = if rng.below(2) == 1 { Path::Ilp } else { Path::NonIlp };
        with_world(&[], |suite, m| {
            suite.lb.set_faults(faults);
            let xfer = FileTransfer { file_len: 4 * 1024, chunk, copies: 1 };
            xfer.fill_file(suite, m);
            let report = xfer.run(suite, m, path);
            assert_eq!(report.payload_bytes, 4 * 1024, "{faults:?} chunk {chunk} {path:?}");
            assert!(xfer.verify_output(suite, m), "file corrupted");
            // Conservation: every accepted segment was sent at least once.
            assert!(suite.tx.stats.data_sent >= suite.rx.stats.accepted);
        });
    });
}

/// Arbitrary bytes presented as an IP header never verify unless the
/// checksum actually holds, and never panic the accessors.
#[test]
fn arbitrary_ip_headers_are_safe() {
    for_each_seed(|rng| {
        with_buf(&bytes(rng, 20..21), |m, base| {
            let h = Ipv4Header::at(base);
            let _ = h.total_len(m);
            let _ = h.ttl(m);
            let _ = h.protocol(m);
            let _ = (h.src(m), h.dst(m));
            if h.verify(m) {
                assert_eq!(checksum_buf(m, base, 20).finish(), 0);
            }
            assert!(!h.admits(m, 20, None) || h.verify(m), "admission implies a valid checksum");
        });
    });
}

/// Arbitrary decrypted garbage never parses as a valid reply prefix
/// unless its internal length fields are consistent.
#[test]
fn arbitrary_prefixes_never_inconsistently_parse() {
    for_each_seed(|rng| {
        // Random words almost never parse; half the cases perturb one
        // word of a well-formed prefix so the accepting branch is
        // reached too.
        let mut words: Vec<u32> = (0..7).map(|_| rng.next_u32()).collect();
        if rng.below(2) == 1 {
            let data_len = rng.below(1200) as u32;
            let meta = ReplyMeta { request_id: 9, seq: 1, offset: 512, last: 0, data_len };
            words = meta.prefix_words().to_vec();
            assert_eq!(ReplyMeta::parse_prefix(&words), Some((words[0] as usize, meta)));
            words[rng.index(7)] = rng.next_u32();
        }
        if let Some((msg_len, meta)) = ReplyMeta::parse_prefix(&words) {
            assert_eq!(msg_len, 4 + meta.marshalled_len());
            assert_eq!(words[5], meta.data_len);
        }
    });
}
