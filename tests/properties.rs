//! Seeded property tests: each property runs over [`CASES`] inputs
//! drawn from `utcp::rng::XorShift64`, one generator per case, and a
//! failure names the case's seed so it replays as
//! `XorShift64::new(seed)`.
//!
//! Four groups: the reproduction's central invariant (the ILP and
//! non-ILP implementations are *the same protocol* — identical wire
//! bytes, checksums and delivered data for all contents, sizes and
//! offsets); the fused loops' unit-wide memory traffic (a source's unit
//! and a sink's unit store are exactly the per-word accesses they stand
//! for); the data-manipulation kernels (every cipher is a bijection
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
use ilp_repro::ilp::{LinearSink, Ordering, PartKind, SegmentPlan, StoreGrain, UnitBuf, UnitSink};
use ilp_repro::memsim::{AddressSpace, HostModel, Mem, NativeMem, Region, RegionKind, SimMem};
use ilp_repro::rpcapp::app::{FileTransfer, Path};
use ilp_repro::rpcapp::msg::{
    ReplyMeta, UnmarshalSink, WordView, ENC_HDR_LEN, LENGTH_FIRST, LENGTH_LAST, RPC_HDR_WORDS,
};
use ilp_repro::rpcapp::paths::{
    pump_acks, recv_reply_ilp, recv_reply_non_ilp, send_reply_ilp, send_reply_non_ilp,
};
use ilp_repro::rpcapp::suite::Suite;
use ilp_repro::rpcapp::trailer::{recv_reply_ilp_trailer, send_reply_ilp_trailer};
use ilp_repro::utcp::rng::XorShift64;
use ilp_repro::utcp::{Delivered, FaultPlan, Ipv4Header, SendRing};
use ilp_repro::xdr::stream::{OpaqueSource, WordSource};
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

/// Two instrumented memories over `space`, each holding `bytes` at
/// `addr` — twins that a unit-wide and a word-by-word run are compared on.
fn sim_twins(space: &AddressSpace, addr: usize, bytes: &[u8]) -> [SimMem; 2] {
    let host = HostModel::ss10_30();
    [(); 2].map(|()| {
        let mut m = SimMem::new(space, &host);
        m.poke(addr, bytes);
        m
    })
}

/// Run `by_units` on one twin and `by_words` on the other: they must
/// return the same and ask their memory for the same — every access, in
/// order, and the counts per size class, region kind, cache level and
/// ALU operation.
fn same_work<T: PartialEq + std::fmt::Debug>(
    twins: &mut [SimMem; 2],
    what: &str,
    by_units: impl FnOnce(&mut SimMem) -> T,
    by_words: impl FnOnce(&mut SimMem) -> T,
) {
    let [units, words] = twins;
    for m in [&mut *units, &mut *words] {
        let _ = m.take_stats();
        m.start_trace(1 << 12);
    }
    assert_eq!(by_units(units), by_words(words), "{what}: values");
    let (tu, tw) = (units.take_trace().expect("tracing"), words.take_trace().expect("tracing"));
    assert_eq!(tu.dropped, 0, "{what}: trace window too small");
    assert_eq!(tu.events(), tw.events(), "{what}: access stream");
    assert_eq!(format!("{:?}", units.stats()), format!("{:?}", words.stats()), "{what}: counts");
}

/// `source` drained by `W`-word units, then by words for a remainder
/// short of a unit.
fn drain_by_units<const W: usize, S: WordSource<SimMem>>(mut source: S, m: &mut SimMem) -> Vec<u32> {
    let mut out = Vec::new();
    for _ in 0..source.total_words() / W {
        out.extend(source.next_unit::<W>(m));
    }
    out.extend(std::iter::from_fn(|| source.next_word(m)));
    out
}

/// `source` drained word by word.
fn drain_by_words<S: WordSource<SimMem>>(mut source: S, m: &mut SimMem) -> Vec<u32> {
    std::iter::from_fn(|| source.next_word(m)).collect()
}

/// For every unit width of the fused loops, `next_unit::<W>` is `W`
/// calls of `next_word`: the same words and the same `Mem` stream.
fn units_are_words<S: WordSource<SimMem> + Copy>(twins: &mut [SimMem; 2], what: &str, source: S) {
    let words = |m: &mut SimMem| drain_by_words(source, m);
    same_work(twins, &format!("{what}, W = 1"), |m| drain_by_units::<1, S>(source, m), words);
    same_work(twins, &format!("{what}, W = 2"), |m| drain_by_units::<2, S>(source, m), words);
    same_work(twins, &format!("{what}, W = 3"), |m| drain_by_units::<3, S>(source, m), words);
    same_work(twins, &format!("{what}, W = 4"), |m| drain_by_units::<4, S>(source, m), words);
}

/// A reply of `data_len` file bytes at the start of a data region, and
/// twin memories holding them.
fn reply_world(data_len: usize) -> (AddressSpace, Region, [SimMem; 2]) {
    let mut space = AddressSpace::new();
    let data = space.alloc_kind("data", 1280, 8, RegionKind::AppData);
    let bytes: Vec<u8> = (0..data_len).map(|i| (i * 37 + 11) as u8).collect();
    let twins = sim_twins(&space, data.base, &bytes);
    (space, data, twins)
}

/// The header of a reply carrying `data_len` chunk bytes for file offset 512.
fn reply_meta(data_len: usize) -> ReplyMeta {
    ReplyMeta { request_id: 0x51, seq: 2, offset: 512, last: 0, data_len: data_len as u32 }
}

/// The word ranges a fused send runs over, in format `LAST` with a
/// `block`-byte cipher: the B→C→A parts of the header format, the one
/// linear part of the trailer format.
fn send_ranges<const LAST: bool>(meta: &ReplyMeta, block: usize) -> Vec<(usize, usize)> {
    let padded = meta.padded_len(block);
    if LAST {
        return vec![(0, padded / 4)];
    }
    let plan = SegmentPlan::for_message(ENC_HDR_LEN, meta.marshalled_len(), block, Ordering::Unconstrained)
        .expect("fusible");
    assert_eq!(plan.padded_len, padded);
    plan.processing_order().iter().filter(|p| !p.is_empty()).map(|p| (p.start / 4, p.end / 4)).collect()
}

/// Every range a fused send runs, for chunks of 0–72 bytes and a few
/// larger ones, with a 4- and an 8-byte cipher block.
fn plan_ranges_are_words<const LAST: bool>() {
    for data_len in (0..=72).chain([100, 1000, 1024, 1200]) {
        let meta = reply_meta(data_len);
        let (_space, data, mut twins) = reply_world(data_len);
        for block in [4, 8] {
            let view = WordView::<LAST>::new(&meta, data.base, block);
            for (start, end) in send_ranges::<LAST>(&meta, block) {
                let what = format!("LAST={LAST} data_len={data_len} block={block} range {start}..{end}");
                units_are_words(&mut twins, &what, view.range_source(start, end));
            }
        }
    }
}

/// A reply source hands out a unit of data words as one burst and
/// everything else — header words, the tail word, padding, the trailing
/// length field — word by word; either way `next_unit::<W>` is `W` calls
/// of `next_word`, in both formats and over every range the B→C→A plan
/// and the trailer format's linear pass run.
#[test]
fn reply_source_unit_is_its_words_over_every_planned_range() {
    plan_ranges_are_words::<LENGTH_FIRST>();
    plan_ranges_are_words::<LENGTH_LAST>();
}

/// The same over random ranges of random replies.
#[test]
fn reply_source_unit_is_its_words_over_random_ranges() {
    for_each_seed(|rng| {
        let data_len = rng.index(1200);
        let meta = reply_meta(data_len);
        let (_space, data, mut twins) = reply_world(data_len);
        let block = [4, 8][rng.index(2)];
        let first = WordView::<LENGTH_FIRST>::new(&meta, data.base, block);
        let last = WordView::<LENGTH_LAST>::new(&meta, data.base, block);
        let total = first.total_words();
        assert_eq!(total, last.total_words());
        let start = rng.index(total + 1);
        let end = start + rng.index(total - start + 1);
        let what = format!("data_len={data_len} block={block} range {start}..{end}");
        units_are_words(&mut twins, &format!("{what} LAST=false"), first.range_source(start, end));
        units_are_words(&mut twins, &format!("{what} LAST=true"), last.range_source(start, end));
    });
}

/// An opaque body of every length up to 64 bytes — whole units, a tail
/// word, zero padding: `next_unit::<W>` is `W` calls of `next_word`.
#[test]
fn opaque_source_unit_is_its_words_at_every_length() {
    for len in 0..=64 {
        let (_space, data, mut twins) = reply_world(len);
        units_are_words(&mut twins, &format!("opaque len={len}"), OpaqueSource::new(data.base, len));
    }
}

/// The per-word stores `store_unit` replaced: a `write_bytes::<4>` per
/// word at byte grain, a `write_u32_be` at word grain.
fn store_word_by_word(m: &mut SimMem, addr: usize, words: &[u32], grain: StoreGrain) {
    for (i, &w) in words.iter().enumerate() {
        match grain {
            StoreGrain::Byte => m.write_bytes(addr + 4 * i, w.to_be_bytes()),
            StoreGrain::Word => m.write_u32_be(addr + 4 * i, w),
        }
    }
}

/// `words` as units of `width` words.
fn units_of(words: &[u32], width: usize) -> Vec<UnitBuf> {
    words
        .chunks_exact(width)
        .map(|chunk| {
            let mut unit = UnitBuf::new(4 * width);
            for (i, &w) in chunk.iter().enumerate() {
                unit.set_word(i, w);
            }
            unit
        })
        .collect()
}

/// The linear sink and the ring writer store a unit at either grain as
/// exactly the per-word stores they used to make, for every unit width.
#[test]
fn linear_and_ring_sinks_store_a_unit_as_its_words() {
    for_each_seed(|rng| {
        let width = 1 + rng.index(4);
        let words: Vec<u32> = (0..width * (1 + rng.index(16))).map(|_| rng.next_u32()).collect();
        let grain = [StoreGrain::Byte, StoreGrain::Word][rng.index(2)];
        let skip = 4 * rng.index(4);
        let mut space = AddressSpace::new();
        let out = space.alloc("out", 320, 8);
        let mut ring = SendRing::new(space.alloc_kind("ring", 320, 64, RegionKind::Ring));
        let mut twins = sim_twins(&space, out.base, &[]);
        let units = units_of(&words, width);
        let what = format!("width {width}, {} units, {grain:?}", units.len());
        let bytes = |m: &mut SimMem, at: usize| m.peek(at, 4 * words.len()).to_vec();
        same_work(
            &mut twins,
            &format!("LinearSink, {what}"),
            |m| {
                let mut sink = LinearSink::new(out.base + skip);
                for unit in &units {
                    sink.store(m, unit, grain);
                }
                (sink.written(), bytes(m, out.base + skip))
            },
            |m| {
                store_word_by_word(m, out.base + skip, &words, grain);
                (4 * words.len(), bytes(m, out.base + skip))
            },
        );
        let extent = ring.alloc(skip + 4 * words.len(), 0).expect("fits");
        let at = ring.addr(extent.off + skip);
        same_work(
            &mut twins,
            &format!("RingWriter, {what}"),
            |m| {
                let mut sink = ring.writer_at(extent, skip);
                for unit in &units {
                    sink.store(m, unit, grain);
                }
                (sink.written(), bytes(m, at))
            },
            |m| {
                store_word_by_word(m, at, &words, grain);
                (4 * words.len(), bytes(m, at))
            },
        );
    });
}

/// The unmarshal sink's per-word loop, as it stood, over a reply whose
/// `header_words` lead `data_len` chunk bytes (`chunk`, in words): capture
/// the header words in registers, store each whole chunk word at `grain`
/// and the last partial one byte by byte; padding and a trailing length
/// field go nowhere.
fn unmarshal_word_by_word(
    m: &mut SimMem,
    header_words: usize,
    chunk: &[u32],
    data_len: usize,
    dst: usize,
    grain: StoreGrain,
) {
    for _ in 0..header_words {
        m.compute(1);
    }
    let whole = data_len / 4;
    store_word_by_word(m, dst, &chunk[..whole], grain);
    let tail = data_len - 4 * whole;
    if tail > 0 {
        for (k, b) in chunk[whole].to_be_bytes().into_iter().take(tail).enumerate() {
            m.write_u8(dst + 4 * whole + k, b);
        }
        if grain == StoreGrain::Word {
            m.compute(tail as u32);
        }
    }
}

/// The two sinks of the fused receive — in place at the header's offset
/// (`new`) and linear into staging (`staging`) — store a unit of chunk
/// data at either grain as exactly the per-word stores they used to make,
/// for every unit width, and capture, place the tail and drop padding as
/// before.
#[test]
fn unmarshal_sinks_store_a_unit_as_its_words() {
    for data_len in (0..=40).chain([1000]) {
        for width in 1..=4 {
            unmarshal_sink_units_are_words::<LENGTH_FIRST>(data_len, width);
            unmarshal_sink_units_are_words::<LENGTH_LAST>(data_len, width);
        }
    }
}

/// One decrypted reply of `data_len` chunk bytes fed to both sinks in
/// `width`-word units, at both grains, against the per-word model.
fn unmarshal_sink_units_are_words<const LAST: bool>(data_len: usize, width: usize) {
    let meta = reply_meta(data_len);
    let mut space = AddressSpace::new();
    let data = space.alloc("data", 1024, 8);
    let app = space.alloc_kind("app", 2048, 8, RegionKind::AppData);
    let staging = space.alloc_kind("staging", 1280, 8, RegionKind::Buffer);
    let file: Vec<u8> = (0..data_len).map(|i| (i * 29 + 3) as u8).collect();
    // The decrypted reply, as the fused receive loop hands it to the sink.
    let source = WordView::<LAST>::new(&meta, data.base, 4 * width).full_source();
    let reply = drain_by_words(source, &mut sim_twins(&space, data.base, &file)[0]);
    let mut twins = sim_twins(&space, data.base, &file);
    // The length field and the RPC header, less the length field when it trails.
    let header_words = 1 + RPC_HDR_WORDS - usize::from(LAST);
    let chunk = &reply[header_words..header_words + data_len.div_ceil(4)];
    for grain in [StoreGrain::Byte, StoreGrain::Word] {
        for staged in [false, true] {
            let (base, cap, dst) = match staged {
                true => (staging.base, staging.len, staging.base),
                false => (app.base, app.len, app.at(meta.offset as usize)),
            };
            let what = format!("LAST={LAST} data_len={data_len} width {width} {grain:?} staged={staged}");
            same_work(
                &mut twins,
                &what,
                |m| {
                    let sink = if staged { UnmarshalSink::<LAST>::staging } else { UnmarshalSink::<LAST>::new };
                    let mut sink = sink(base, cap).within(4 * reply.len());
                    for unit in units_of(&reply, width) {
                        sink.store(m, &unit, grain);
                    }
                    (sink.finish(), sink.data_written(), m.peek(dst, data_len).to_vec())
                },
                |m| {
                    unmarshal_word_by_word(m, header_words, chunk, data_len, dst, grain);
                    (Ok(meta), data_len, m.peek(dst, data_len).to_vec())
                },
            );
        }
    }
}

/// `NativeMem::copy` (one range check and `copy_within`) leaves exactly
/// what the default word copy with its byte tail leaves on an
/// instrumented twin, for disjoint ranges of 0..=2048 bytes at any
/// alignment, in either order, with every tail length mod 4.
#[test]
fn native_copy_is_the_word_copy_on_disjoint_ranges() {
    let mut space = AddressSpace::new();
    let buf = space.alloc("buf", 8192, 8);
    let before: Vec<u8> = (0..buf.len).map(|i| (i * 131 + 7) as u8).collect();
    let tails = std::cell::Cell::new([false; 4]);
    for_each_seed(|rng| {
        let len = rng.index(2049);
        let first = buf.base + rng.index(buf.len - 2 * len + 1);
        let second = first + len + rng.index(buf.end() - first - 2 * len + 1);
        let (src, dst) = if rng.below(2) == 0 { (first, second) } else { (second, first) };
        let mut arena = space.native_arena();
        let mut native = NativeMem::new(&mut arena);
        native.bytes_mut(buf.base, buf.len).copy_from_slice(&before);
        let [mut sim, _] = sim_twins(&space, buf.base, &before);
        native.copy(src, dst, len);
        sim.copy(src, dst, len);
        assert_eq!(native.bytes(buf.base, buf.len), sim.peek(buf.base, buf.len), "{len} bytes {src:#x} → {dst:#x}");
        let mut seen = tails.get();
        seen[len % 4] = true;
        tails.set(seen);
    });
    assert_eq!(tails.get(), [true; 4], "every tail length drawn");
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
