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
use ilp_repro::ilp::{
    ilp_run, ChecksumTap, DecryptStage, EncryptStage, Fused, Identity, LinearSink, Ordering, PartKind, Reject,
    SegmentPlan, StaticStage, StoreGrain, UnitBuf, UnitSink, UnitStage,
};
use ilp_repro::memsim::{AddressSpace, CodeRegion, HostModel, Mem, NativeMem, Region, RegionKind, SimMem};
use ilp_repro::rpcapp::app::{FileTransfer, Path};
use ilp_repro::rpcapp::msg::{
    ReplyMeta, UnmarshalSink, WordView, ENC_HDR_LEN, LENGTH_FIRST, LENGTH_LAST, RPC_HDR_WORDS,
};
use ilp_repro::rpcapp::paths::{pump_acks, recv_reply, send_reply};
use ilp_repro::rpcapp::suite::Suite;
use ilp_repro::rpcapp::trailer::{recv_reply_ilp_trailer, send_reply_ilp_trailer};
use ilp_repro::utcp::rng::XorShift64;
use ilp_repro::utcp::{Delivered, FaultPlan, Ipv4Header, SendRing};
use ilp_repro::xdr::stream::{Chain, HeaderWords, OpaqueSource, WordSource};
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
            send_reply(Path::NonIlp, suite, m, &meta, file.base).unwrap();
            let d1 = suite.rx.poll_input(m, &mut suite.lb).unwrap();
            let wire_non = m.bytes(d1.payload_addr, d1.payload_len).to_vec();
            let sum1 = checksum_buf(m, d1.payload_addr, d1.payload_len);
            suite.rx.finish_recv(m, &mut suite.lb, &d1, sum1).unwrap();
            pump_acks(suite, m);

            send_reply(Path::Ilp, suite, m, &meta, file.base).unwrap();
            let d2 = suite.rx.poll_input(m, &mut suite.lb).unwrap();
            assert_eq!(wire_non, m.bytes(d2.payload_addr, d2.payload_len), "wire bytes differ");
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
        let path = |ilp: bool| if ilp { Path::Ilp } else { Path::NonIlp };
        let (send_path, recv_path) = (path(rng.below(2) == 1), path(rng.below(2) == 1));
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
            send_reply(send_path, suite, m, &meta, src).unwrap();
            assert_eq!(recv_reply(recv_path, suite, m).unwrap().unwrap(), meta);
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
        Receiver::NonIlp => recv_reply(Path::NonIlp, suite, m),
        Receiver::Ilp => recv_reply(Path::Ilp, suite, m),
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
                send_reply(Path::Ilp, suite, m, &meta, file.base).unwrap();
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

/// The sink of the fused receive, in place at the header's offset, stores
/// a unit of chunk data at either grain as exactly the per-word stores it
/// used to make, for every unit width, and captures, places the tail and
/// drops padding as before.
#[test]
fn unmarshal_sinks_store_a_unit_as_its_words() {
    for data_len in (0..=40).chain([1000]) {
        for width in 1..=4 {
            unmarshal_sink_units_are_words::<LENGTH_FIRST>(data_len, width);
            unmarshal_sink_units_are_words::<LENGTH_LAST>(data_len, width);
        }
    }
}

/// One decrypted reply of `data_len` chunk bytes fed to the sink in
/// `width`-word units, at both grains, against the per-word model.
fn unmarshal_sink_units_are_words<const LAST: bool>(data_len: usize, width: usize) {
    let meta = reply_meta(data_len);
    let mut space = AddressSpace::new();
    let data = space.alloc("data", 1024, 8);
    let app = space.alloc_kind("app", 2048, 8, RegionKind::AppData);
    let file: Vec<u8> = (0..data_len).map(|i| (i * 29 + 3) as u8).collect();
    // The decrypted reply, as the fused receive loop hands it to the sink.
    let source = WordView::<LAST>::new(&meta, data.base, 4 * width).full_source();
    let reply = drain_by_words(source, &mut sim_twins(&space, data.base, &file)[0]);
    let mut twins = sim_twins(&space, data.base, &file);
    // The length field and the RPC header, less the length field when it trails.
    let header_words = 1 + RPC_HDR_WORDS - usize::from(LAST);
    let chunk = &reply[header_words..header_words + data_len.div_ceil(4)];
    let dst = app.at(meta.offset as usize);
    for grain in [StoreGrain::Byte, StoreGrain::Word] {
        let what = format!("LAST={LAST} data_len={data_len} width {width} {grain:?}");
        same_work(
            &mut twins,
            &what,
            |m| {
                let mut sink = UnmarshalSink::<LAST>::new(app.base, app.len).within(4 * reply.len());
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

/// Which loop drives a (source, stages, sink) combination: `ilp_run`,
/// whose steady state is one `Mem::window` per run of whole data units,
/// or the per-unit loop it replaced.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Windowed,
    PerUnit,
}

/// Drive `source → stages → sink` in `W`-word units, fetching `code` once
/// a unit.
fn drive<const W: usize, M: Mem>(
    how: Driver,
    m: &mut M,
    code: CodeRegion,
    source: &mut impl WordSource<M>,
    stages: &mut impl UnitStage<M>,
    sink: &mut impl UnitSink<M>,
) {
    match how {
        Driver::Windowed => {
            let run = ilp_run(m, source, stages, sink, 4 * W, Some(code)).expect("a unit of at most four words");
            assert_eq!(run.exchange_unit, 4 * W);
        }
        Driver::PerUnit => {
            let grain = StoreGrain::from_output_grain(stages.output_grain());
            let mut unit = UnitBuf::new(4 * W);
            for _ in 0..source.total_words() / W {
                for (i, w) in source.next_unit::<W>(m).into_iter().enumerate() {
                    unit.set_word(i, w);
                }
                m.fetch(code);
                stages.process(m, &mut unit);
                sink.store(m, &unit, grain);
            }
        }
    }
}

/// A world for every combination: a cipher, the file chunk, the send
/// ring, a flat buffer for ciphertext and one for plaintext, and three
/// receive buffers.
struct WindowWorld<C> {
    space: AddressSpace,
    cipher: C,
    data: Region,
    ring: Region,
    cipher_out: Region,
    plain_out: Region,
    apps: [Region; 3],
    code: CodeRegion,
}

impl<C: CipherKernel> WindowWorld<C> {
    fn new(alloc: fn(&mut AddressSpace) -> C) -> Self {
        let mut space = AddressSpace::new();
        let cipher = alloc(&mut space);
        let data = space.alloc_kind("data", 1280, 8, RegionKind::AppData);
        let ring = space.alloc_kind("ring", 2048, 64, RegionKind::Ring);
        let [cipher_out, plain_out] = ["cipher_out", "plain_out"].map(|n| space.alloc(n, 2048, 8));
        let apps = ["app0", "app1", "app2"].map(|n| space.alloc_kind(n, 2048, 8, RegionKind::AppData));
        let code = space.alloc_code("fused_loop", 1024);
        WindowWorld { space, cipher, data, ring, cipher_out, plain_out, apps, code }
    }

    /// The chunk bytes every world starts with.
    fn file(&self) -> Vec<u8> {
        (0..self.data.len).map(|i| (i * 53 + 17) as u8).collect()
    }
}

/// Every (source, stages, sink) combination the paths run, over a reply
/// of `data_len` chunk bytes in format `LAST`, in `W`-word units: the
/// fused send part by part into a ring extent and whole into a flat
/// buffer, the marshalling alone, the fused receive of that ciphertext
/// in place, the late receive (decrypt and unmarshal alone), the
/// unmarshalling alone, and header words chained before an opaque body.
/// Returns the checksums, the verdicts and every byte written.
fn every_combination<C: CipherKernel, const W: usize, const LAST: bool, M: Mem>(
    how: Driver,
    m: &mut M,
    w: &WindowWorld<C>,
    data_len: usize,
    peek: impl Fn(&M, Region) -> Vec<u8>,
) -> (Vec<u16>, Vec<Result<ReplyMeta, Reject>>, Vec<u8>) {
    let (meta, code, c) = (reply_meta(data_len), w.code, w.cipher);
    let view = WordView::<LAST>::new(&meta, w.data.base, 4 * W);
    let padded = meta.padded_len(4 * W);
    let (mut sums, mut verdicts) = (Vec::new(), Vec::new());
    let mut ring = SendRing::new(w.ring);
    let extent = ring.alloc(padded, 0).expect("fits");
    let mut send = Fused::new(EncryptStage::new(c), ChecksumTap::new());
    for (start, end) in send_ranges::<LAST>(&meta, 4 * W) {
        let mut sink = ring.writer_at(extent, 4 * start);
        drive::<W, M>(how, m, code, &mut view.range_source(start, end), &mut send, &mut sink);
    }
    sums.push(send.b.sum().fold());
    let mut send = Fused::new(EncryptStage::new(c), ChecksumTap::new());
    drive::<W, M>(how, m, code, &mut view.full_source(), &mut send, &mut LinearSink::new(w.cipher_out.base));
    sums.push(send.b.sum().fold());
    drive::<W, M>(how, m, code, &mut view.full_source(), &mut Identity, &mut LinearSink::new(w.plain_out.base));
    let [fused, late, unmarshal] = w.apps.map(|app| UnmarshalSink::<LAST>::new(app.base, app.len).within(padded));
    let mut recv = Fused::new(ChecksumTap::new(), DecryptStage::new(c));
    let mut sink = fused;
    drive::<W, M>(how, m, code, &mut OpaqueSource::new(w.cipher_out.base, padded), &mut recv, &mut sink);
    sums.push(recv.a.sum().fold());
    verdicts.push(sink.finish());
    let mut sink = late;
    drive::<W, M>(how, m, code, &mut OpaqueSource::new(w.cipher_out.base, padded), &mut DecryptStage::new(c), &mut sink);
    verdicts.push(sink.finish());
    let mut sink = unmarshal;
    drive::<W, M>(how, m, code, &mut OpaqueSource::new(w.plain_out.base, padded), &mut Identity, &mut sink);
    verdicts.push(sink.finish());
    // As many header words as make the chained stream whole units.
    let header: Vec<u32> = (0..W - data_len.div_ceil(4) % W).map(|i| 0xAB00 + i as u32).collect();
    let mut chained = Chain::new(HeaderWords::new(&header), OpaqueSource::new(w.data.base, data_len));
    let mut send = Fused::new(EncryptStage::new(c), ChecksumTap::new());
    drive::<W, M>(how, m, code, &mut chained, &mut send, &mut LinearSink::new(w.plain_out.base));
    sums.push(send.b.sum().fold());
    let written = [w.ring, w.cipher_out, w.plain_out, w.apps[0], w.apps[1], w.apps[2]];
    (sums, verdicts, written.iter().flat_map(|&r| peek(m, r)).collect())
}

/// `every_combination` windowed and per unit: on twin `SimMem`s the same
/// result and the same accesses, event by event, with the same counts; on
/// two `NativeMem` arenas the same result, checksums and bytes.
fn windowed_equals_per_unit<C: CipherKernel, const W: usize, const LAST: bool>(w: &WindowWorld<C>) {
    for data_len in [0, 1, 5, 37, 100, 1000] {
        let what = format!("{} W={W} LAST={LAST} data_len={data_len}", C::NAME);
        let host = HostModel::ss10_30();
        let [mut windowed, mut per_unit] = [(); 2].map(|()| {
            let mut m = SimMem::new(&w.space, &host);
            w.cipher.init_world(&mut m);
            m.poke(w.data.base, &w.file());
            let _ = m.take_stats();
            m.start_trace(1 << 18);
            m
        });
        let peek = |m: &SimMem, r: Region| m.peek(r.base, r.len).to_vec();
        let got = every_combination::<C, W, LAST, _>(Driver::Windowed, &mut windowed, w, data_len, peek);
        let want = every_combination::<C, W, LAST, _>(Driver::PerUnit, &mut per_unit, w, data_len, peek);
        assert_eq!(got, want, "{what}: SimMem results");
        assert!(got.1.iter().filter(|v| v.is_ok()).count() >= 2, "{what}: the replies were admitted");
        let (tw, tp) = (windowed.take_trace().expect("tracing"), per_unit.take_trace().expect("tracing"));
        assert_eq!(tw.dropped, 0, "{what}: trace window too small");
        assert!(tw.events() == tp.events(), "{what}: access stream");
        assert_eq!(format!("{:?}", windowed.stats()), format!("{:?}", per_unit.stats()), "{what}: counts");
        let [mut a, mut b] = [(); 2].map(|()| w.space.native_arena());
        let [mut windowed, mut per_unit] = [&mut a, &mut b].map(|arena| {
            let mut m = NativeMem::new(arena);
            w.cipher.init_world(&mut m);
            m.bytes_mut(w.data.base, w.data.len).copy_from_slice(&w.file());
            m
        });
        let peek = |m: &NativeMem<'_>, r: Region| m.bytes(r.base, r.len).to_vec();
        let got = every_combination::<C, W, LAST, _>(Driver::Windowed, &mut windowed, w, data_len, peek);
        let want = every_combination::<C, W, LAST, _>(Driver::PerUnit, &mut per_unit, w, data_len, peek);
        assert_eq!(got, want, "{what}: NativeMem results");
    }
}

/// The fused loops' steady state is a window: for every (source,
/// stages, sink) combination the paths use, in both formats, at every
/// unit width a cipher allows (1–4 words for the word cipher, 2 and 4 for
/// the experiment's 8-byte one), `ilp_run` does what the per-unit loop
/// did — on `SimMem` every access in order, natively every byte and
/// checksum.
#[test]
fn windowed_loops_equal_the_per_unit_loop() {
    let word = WindowWorld::new(VerySimple::alloc);
    windowed_equals_per_unit::<_, 1, LENGTH_FIRST>(&word);
    windowed_equals_per_unit::<_, 2, LENGTH_LAST>(&word);
    windowed_equals_per_unit::<_, 3, LENGTH_FIRST>(&word);
    windowed_equals_per_unit::<_, 3, LENGTH_LAST>(&word);
    windowed_equals_per_unit::<_, 4, LENGTH_FIRST>(&word);
    let safer = WindowWorld::new(SimplifiedSafer::alloc);
    windowed_equals_per_unit::<_, 2, LENGTH_FIRST>(&safer);
    windowed_equals_per_unit::<_, 2, LENGTH_LAST>(&safer);
    windowed_equals_per_unit::<_, 4, LENGTH_FIRST>(&safer);
    windowed_equals_per_unit::<_, 4, LENGTH_LAST>(&safer);
}

/// One kernel's world for the decrypt emission: the kernel, a source of
/// ciphertext-like bytes, three destinations and a loop body.
struct EmitWorld<C> {
    space: AddressSpace,
    cipher: C,
    src: Region,
    dst: [Region; 3],
    code: CodeRegion,
}

/// Bytes in an [`EmitWorld`]'s source and destinations: a whole number of
/// units at every width.
const EMIT_LEN: usize = 240;

impl<C: CipherKernel> EmitWorld<C> {
    fn new(alloc: impl FnOnce(&mut AddressSpace) -> C) -> Self {
        let mut space = AddressSpace::new();
        let cipher = alloc(&mut space);
        let src = space.alloc_kind("ciphertext", EMIT_LEN, 8, RegionKind::Buffer);
        let dst = ["fused", "late", "layered"].map(|n| space.alloc_kind(n, EMIT_LEN, 8, RegionKind::AppData));
        let code = space.alloc_code("recv_loop", 1024);
        EmitWorld { space, cipher, src, dst, code }
    }

    /// The source bytes every memory starts with.
    fn ciphertext(&self) -> Vec<u8> {
        (0..EMIT_LEN).map(|i| (i * 151 + 29) as u8 ^ (i >> 3) as u8).collect()
    }
}

/// The three decrypting passes, in `W`-word units: the fused receive's
/// stages (a checksum tap, then the decrypt stage) and the decrypt stage
/// alone, each driven `how`; and the layered `decrypt_buf` — windowed — or
/// the per-unit loop it stands for, which decrypts each cipher unit into a
/// local array and stores it at the cipher's grain. Returns the tap's sum
/// and every byte written.
fn decrypt_passes<C: CipherKernel, const W: usize, M: Mem>(
    how: Driver,
    m: &mut M,
    w: &EmitWorld<C>,
    peek: impl Fn(&M, Region) -> Vec<u8>,
) -> (u16, Vec<u8>) {
    let (c, src, [fused, late, layered]) = (w.cipher, w.src.base, w.dst);
    let mut recv = Fused::new(ChecksumTap::new(), DecryptStage::new(c));
    drive::<W, M>(how, m, w.code, &mut OpaqueSource::new(src, EMIT_LEN), &mut recv, &mut LinearSink::new(fused.base));
    let (source, sink) = (&mut OpaqueSource::new(src, EMIT_LEN), &mut LinearSink::new(late.base));
    drive::<W, M>(how, m, w.code, source, &mut DecryptStage::new(c), sink);
    match how {
        Driver::Windowed => decrypt_buf(&c, m, src, layered.base, EMIT_LEN),
        Driver::PerUnit => {
            for off in (0..EMIT_LEN).step_by(C::UNIT) {
                let words: Vec<u32> = (0..C::UNIT / 4).map(|i| m.read_u32_be(src + off + 4 * i)).collect();
                let packed = words.iter().fold(0u64, |x, &w| x << 32 | u64::from(w)) << (64 - 8 * C::UNIT);
                let mut out = [0u8; 8];
                c.decrypt_unit(m, packed, &mut out[..C::UNIT]);
                for (i, word) in out[..C::UNIT].chunks_exact(4).enumerate() {
                    let (addr, word) = (layered.base + off + 4 * i, <[u8; 4]>::try_from(word).expect("a word"));
                    match C::OUTPUT_GRAIN {
                        1 => m.write_bytes(addr, word),
                        _ => m.write_u32_be(addr, u32::from_be_bytes(word)),
                    }
                }
            }
        }
    }
    (recv.a.sum().fold(), [fused, late, layered].iter().flat_map(|&r| peek(m, r)).collect())
}

/// For one kernel at width `W`: each stage's emission into a destination
/// equals its packed result (`apply`, then the unit's big-endian words);
/// and the decrypting passes, whose steady state emits straight into the
/// window's destination, leave on two `NativeMem` arenas the bytes the
/// per-unit loop leaves, and ask twin `SimMem`s for the same accesses,
/// event by event, with the same counts.
fn emitting_equals_the_packed_result<C: CipherKernel, const W: usize>(w: &EmitWorld<C>) {
    let what = format!("{} W={W}", C::NAME);
    let [mut a, mut b] = [(); 2].map(|()| w.space.native_arena());
    let [mut windowed, mut per_unit] = [&mut a, &mut b].map(|arena| {
        let mut m = NativeMem::new(arena);
        w.cipher.init_world(&mut m);
        m.bytes_mut(w.src.base, EMIT_LEN).copy_from_slice(&w.ciphertext());
        m
    });
    let mut rng = XorShift64::new(0x5EED ^ (W as u64) << 8 ^ C::UNIT as u64);
    for _ in 0..64 {
        let mut unit = UnitBuf::new(4 * W);
        for i in 0..W {
            unit.set_word(i, rng.next_u32());
        }
        let recv = Fused::new(ChecksumTap::new(), DecryptStage::new(w.cipher));
        let (mut emitting, mut packing) = (recv, recv);
        let mut emitted = [[0u8; 16]; 3];
        DecryptStage::new(w.cipher).emit(&mut windowed, unit, &mut emitted[0][..4 * W]);
        emitting.emit(&mut windowed, unit, &mut emitted[1][..4 * W]);
        EncryptStage::new(w.cipher).emit(&mut windowed, unit, &mut emitted[2][..4 * W]);
        let mut packed = [[0u8; 16]; 3];
        let stages: [&mut dyn UnitStage<NativeMem>; 3] =
            [&mut DecryptStage::new(w.cipher), &mut packing, &mut EncryptStage::new(w.cipher)];
        for (stage, packed) in stages.into_iter().zip(&mut packed) {
            let mut u = unit;
            stage.process(&mut per_unit, &mut u);
            u.write_be(&mut packed[..4 * W]);
        }
        assert_eq!(emitted, packed, "{what}: emitted vs packed, unit {unit:?}");
        assert_eq!(emitting.a.sum().fold(), packing.a.sum().fold(), "{what}: the tap ahead of the emitting stage");
    }
    let peek = |m: &NativeMem<'_>, r: Region| m.bytes(r.base, r.len).to_vec();
    let got = decrypt_passes::<C, W, _>(Driver::Windowed, &mut windowed, w, peek);
    let want = decrypt_passes::<C, W, _>(Driver::PerUnit, &mut per_unit, w, peek);
    assert_eq!(got, want, "{what}: NativeMem bytes");
    let host = HostModel::ss10_30();
    let [mut windowed, mut per_unit] = [(); 2].map(|()| {
        let mut m = SimMem::new(&w.space, &host);
        w.cipher.init_world(&mut m);
        m.poke(w.src.base, &w.ciphertext());
        let _ = m.take_stats();
        m.start_trace(1 << 17);
        m
    });
    let peek = |m: &SimMem, r: Region| m.peek(r.base, r.len).to_vec();
    let got = decrypt_passes::<C, W, _>(Driver::Windowed, &mut windowed, w, peek);
    let want = decrypt_passes::<C, W, _>(Driver::PerUnit, &mut per_unit, w, peek);
    assert_eq!(got, want, "{what}: SimMem bytes");
    let (tw, tp) = (windowed.take_trace().expect("tracing"), per_unit.take_trace().expect("tracing"));
    assert_eq!(tw.dropped, 0, "{what}: trace window too small");
    assert!(tw.events() == tp.events(), "{what}: access stream");
    assert_eq!(format!("{:?}", windowed.stats()), format!("{:?}", per_unit.stats()), "{what}: counts");
}

/// Decryption stores each plaintext byte where it goes — for every kernel
/// (the experiment's simplified SAFER, SAFER K-64 at one, the default and
/// eight rounds, DES and the word cipher) and every unit width of 1, 2
/// and 4 words the kernel allows (an 8-byte cipher unit needs two words),
/// emitting into a destination equals the packed result, natively and
/// instrumented.
#[test]
fn decrypt_emission_equals_the_packed_result_for_every_kernel() {
    let safer = EmitWorld::new(SimplifiedSafer::alloc);
    emitting_equals_the_packed_result::<_, 2>(&safer);
    emitting_equals_the_packed_result::<_, 4>(&safer);
    for rounds in [1, ilp_repro::cipher::safer::DEFAULT_ROUNDS, 8] {
        let full = EmitWorld::new(|space| SaferK64::alloc(space, rounds));
        emitting_equals_the_packed_result::<_, 2>(&full);
        emitting_equals_the_packed_result::<_, 4>(&full);
    }
    let des = EmitWorld::new(Des::alloc);
    emitting_equals_the_packed_result::<_, 2>(&des);
    emitting_equals_the_packed_result::<_, 4>(&des);
    let word = EmitWorld::new(VerySimple::alloc);
    emitting_equals_the_packed_result::<_, 1>(&word);
    emitting_equals_the_packed_result::<_, 2>(&word);
    emitting_equals_the_packed_result::<_, 4>(&word);
}

/// Whether `f` panics.
fn panics(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

/// On `m`, a decrypt destination of each wrong length panics, and so does
/// each stage's emission into a destination a word short or long of its
/// unit; destinations of the right length do not.
fn wrong_destinations_panic<C: CipherKernel, M: Mem>(c: C, m: &mut M, what: &str) {
    for len in [0, C::UNIT - 1, C::UNIT + 1, 2 * C::UNIT] {
        assert!(panics(|| c.decrypt_unit(m, 7, &mut vec![0u8; len])), "{what}: {len}-byte decrypt_unit");
    }
    assert!(!panics(|| c.decrypt_unit(m, 7, &mut vec![0u8; C::UNIT])), "{what}: a unit's destination");
    let unit = UnitBuf::new(8);
    for len in [4, 8, 12] {
        let emits = [
            panics(|| DecryptStage::new(c).emit(m, unit, &mut vec![0u8; len])),
            panics(|| Fused::new(ChecksumTap::new(), DecryptStage::new(c)).emit(m, unit, &mut vec![0u8; len])),
            panics(|| EncryptStage::new(c).emit(m, unit, &mut vec![0u8; len])),
        ];
        assert_eq!(emits, [len != 8; 3], "{what}: emitting an 8-byte unit into {len} bytes");
    }
}

/// A destination slice of the wrong length panics on both memories, for
/// every kernel and every emitting stage.
#[test]
fn a_destination_of_the_wrong_length_panics_on_both_memories() {
    fn on_both<C: CipherKernel>(alloc: impl FnOnce(&mut AddressSpace) -> C) {
        let mut space = AddressSpace::new();
        let c = alloc(&mut space);
        let mut arena = space.native_arena();
        let mut native = NativeMem::new(&mut arena);
        c.init_world(&mut native);
        wrong_destinations_panic(c, &mut native, &format!("{} on NativeMem", C::NAME));
        let mut sim = SimMem::new(&space, &HostModel::ss10_30());
        c.init_world(&mut sim);
        wrong_destinations_panic(c, &mut sim, &format!("{} on SimMem", C::NAME));
    }
    on_both(SimplifiedSafer::alloc);
    on_both(|space| SaferK64::alloc(space, 2));
    on_both(Des::alloc);
    on_both(VerySimple::alloc);
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
        send_reply(Path::Ilp, suite, m, &meta, suite.file.base).unwrap();
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
            let sum = checksum_buf(m, d.payload_addr, d.payload_len);
            let verdict = suite.rx.finish_recv(m, &mut suite.lb, &d, sum);
            assert!(matches!(verdict, Err(Reject::BadChecksum { .. })), "corruption must not verify");
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
            assert!(recv_reply(Path::NonIlp, suite, m).is_none());
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
    let mut out = [0u8; 8];
    c.decrypt_unit(&mut m, e, &mut out[..C::UNIT]);
    assert_eq!(u64::from_be_bytes(out), block);
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
