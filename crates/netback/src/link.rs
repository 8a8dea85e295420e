//! [`Backend`]: the kernel part over a real descriptor, written once for
//! every device. A [`Link`] is the per-device half — the descriptor, how
//! a datagram is framed on it, its read and its write — and everything
//! else is here: the kernel slots, the staging region, the send train,
//! the [`PortDemux`], the IPv4 ident, the counters and the trace context.
//!
//! Memory discipline: arriving datagrams are deposited into kernel
//! buffer slots *inside the instrumented address space* (one
//! [`Mem::write_slice`] per datagram, charged to the System phase), and
//! outgoing datagrams are assembled there by the same
//! [`utcp::kernelpart::system_copy`] the loop-back runs, before being
//! read out into the train ([`Mem::read_slice`]) — so both system copies
//! remain visible to the memory model even though a real kernel is
//! doing the actual I/O underneath.
//!
//! The descriptor is non-blocking and touched only when it has to be.
//! Four rules, one policy, no knob: *queue first* — a receive serves
//! the endpoint's queue and goes to the descriptor only when that queue
//! is empty; *bounded drain* — a drain takes no more datagrams than
//! there are free kernel slots in the [`SlotPool`] the loop-back uses
//! too, and the rest wait in the link or the kernel's buffer, which is
//! the back-pressure a slot pool alone cannot give; *one train buffer*
//! — a send builds its frame in place, behind the frames still waiting,
//! in a buffer the backend owns, so it allocates nothing once the
//! buffer has grown; *trains* — a burst of sends leaves as one write.
//! A send leaves at once when it is the first since the last
//! [`recv_into`](KernelPart::recv_into) or carries no payload (SYN,
//! SYN-ACK, bare ACK, FIN, RST), behind any train that waits; every
//! other send joins the train. The train leaves at the next
//! `recv_into`, when the connection above calls
//! [`flush`](KernelPart::flush) because its send closed the window or
//! filled the ring, before a frame of another size or one that would
//! take it past [`TRAIN_FRAMES`] frames or [`TRAIN_BYTES`] bytes, and
//! when the backend is dropped — always through that `flush`. So a lone
//! stop-and-wait chunk and every control segment cross as one datagram,
//! and nothing deferred is lost. A receive never waits, so a lost
//! datagram can never hang a poll loop — timeouts and retransmission are
//! the [`utcp::Connection`]'s job, exactly as over the loop-back.

use crate::{codec, ipv4};
use memsim::layout::AddressSpace;
use memsim::mem::PhaseTag;
use memsim::region::{Region, RegionKind};
use memsim::Mem;
use obs::SegTag;
use std::io;
use utcp::backend::{KernelCounters, KernelPart};
use utcp::kernelpart::{system_copy, Datagram, EndpointId};
use utcp::{PortDemux, SlotPool, SLOT_LEN};

/// Number of receive slots.
const SLOTS: usize = 64;
/// Most frames in one train (the kernel's segment limit allows more).
pub const TRAIN_FRAMES: usize = 64;
/// Most bytes in one train: the largest UDP payload over IPv4.
pub const TRAIN_BYTES: usize = 65_507;

/// The per-device half of a [`Backend`]: a non-blocking descriptor, how
/// one datagram is framed on it, and its two system calls.
pub trait Link {
    /// Bytes the frame of a `len`-byte datagram takes on the device,
    /// with `tag` if the device carries it.
    fn frame_len(&self, len: usize, tag: Option<SegTag>) -> usize;

    /// Append the frame of `len` datagram bytes to `train` (its
    /// capacity reused): the device's envelope and `tag`, if it carries
    /// either, then the bytes `fill` writes in place.
    fn frame(&self, train: &mut Vec<u8>, len: usize, tag: Option<SegTag>, fill: impl FnOnce(&mut [u8]));

    /// Write `train`, frames of `frame_len` bytes back to back, to the
    /// descriptor and return how many of its frames the device took: 0
    /// on a refused write, or when the device has no peer yet.
    fn send(&mut self, train: &[u8], frame_len: usize) -> usize;

    /// Hand out the next frame the descriptor holds — from the last
    /// read while it lasts, else from a new read — as the datagram it
    /// carries with its tag, or `None` for a frame the device's envelope
    /// rejects.
    ///
    /// # Errors
    /// The read's error: `WouldBlock` once the descriptor is empty.
    fn recv(&mut self) -> io::Result<Option<(&[u8], Option<SegTag>)>>;
}

/// A [`KernelPart`] over one [`Link`].
#[derive(Debug)]
pub struct Backend<L: Link> {
    pub(crate) link: L,
    /// Kernel buffer slots arriving datagrams are deposited into.
    slots: SlotPool,
    /// Staging area outgoing datagrams are assembled in.
    staging: Region,
    /// The waiting train: `frames` frames of `frame_len` bytes each,
    /// built in place by every send.
    train: Vec<u8>,
    frames: usize,
    frame_len: usize,
    /// No send since the last `recv_into`: the next one leaves at once.
    fresh: bool,
    /// Per-port receive queues, with the tags that rode beside them.
    pub(crate) demux: PortDemux,
    next_ident: u16,
    /// What the descriptor did; `counters` adds the queue geometry.
    counts: KernelCounters,
    /// Trace context armed for the next send.
    send_ctx: Option<SegTag>,
    /// Trace context of the last datagram `recv_into` handed out.
    last_ctx: Option<SegTag>,
}

impl<L: Link> Backend<L> {
    /// Wrap `link`, allocating the kernel-slot and staging regions in
    /// `space`.
    pub(crate) fn new(space: &mut AddressSpace, link: L) -> Self {
        Backend {
            link,
            slots: SlotPool::alloc(space, "link_slots", SLOTS),
            staging: space.alloc_kind("link_staging", SLOT_LEN, 64, RegionKind::Kernel),
            train: Vec::with_capacity(codec::HEADER_LEN + codec::TAG_LEN + SLOT_LEN),
            frames: 0,
            frame_len: 0,
            fresh: true,
            demux: PortDemux::default(),
            next_ident: 1,
            counts: KernelCounters::default(),
            send_ctx: None,
            last_ctx: None,
        }
    }

    /// Move datagrams from the descriptor into the per-port queues,
    /// depositing each into a free kernel slot via `m`, until the
    /// descriptor is empty or no slot is free.
    fn drain<M: Mem>(&mut self, m: &mut M) {
        while self.slots.n_free() > 0 {
            let (inner, tag) = match self.link.recv() {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    self.counts.corrupted += 1;
                    continue;
                }
                Err(e) => {
                    // Anything else (e.g. ECONNREFUSED bounced back on
                    // Linux) reads like an empty descriptor; TCP retransmits.
                    self.counts.would_block += u64::from(e.kind() == io::ErrorKind::WouldBlock);
                    return;
                }
            };
            let Some(dst_port) = ipv4::admit(inner) else {
                self.counts.corrupted += 1;
                continue;
            };
            let Some(id) = self.demux.route(dst_port) else {
                self.counts.unroutable += 1;
                continue;
            };
            self.counts.received += 1;
            // Receive-side system copy into a free kernel slot.
            let slot = self.slots.take().expect("the loop runs while a slot is free");
            m.phase_push(PhaseTag::System);
            m.write_slice(slot, inner);
            m.compute(30);
            m.phase_pop();
            self.demux.push(id, Datagram { addr: slot, len: inner.len() }, tag);
        }
    }
}

impl<L: Link> Drop for Backend<L> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<L: Link> KernelPart for Backend<L> {
    fn register(&mut self, port: u16) -> EndpointId {
        self.demux.register(port, &mut self.slots)
    }

    fn unregister(&mut self, port: u16) {
        self.demux.unregister(port);
    }

    fn send<M: Mem>(
        &mut self,
        m: &mut M,
        src_ip: u32,
        dst_ip: u32,
        _dst_port: u16,
        hdr_addr: usize,
        payload_addr: usize,
        payload_len: usize,
    ) {
        m.phase_push(PhaseTag::System);
        let ident = &mut self.next_ident;
        let len = system_copy(m, self.staging.base, src_ip, dst_ip, ident, hdr_addr, payload_addr, payload_len);
        let tag = self.send_ctx.take();
        let frame_len = self.link.frame_len(len, tag);
        let alone = self.fresh || payload_len == 0;
        self.fresh = false;
        if alone
            || frame_len != self.frame_len
            || self.frames == TRAIN_FRAMES
            || self.train.len() + frame_len > TRAIN_BYTES
        {
            self.flush();
        }
        // Read the assembled datagram out of instrumented memory into
        // the train, straight behind its envelope.
        let staging = self.staging.base;
        self.link.frame(&mut self.train, len, tag, |inner| m.read_slice(staging, inner));
        (self.frames, self.frame_len) = (self.frames + 1, frame_len);
        m.phase_pop();
        if alone {
            self.flush();
        }
    }

    /// Write the waiting train, if any, to the link: the one place a
    /// train leaves. Each of its frames counts as sent, or as dropped
    /// when the link refuses it (TCP retransmits those).
    fn flush(&mut self) {
        if self.frames == 0 {
            return;
        }
        let took = self.link.send(&self.train, self.frame_len);
        self.counts.sent += took as u64;
        self.counts.dropped += (self.frames - took) as u64;
        self.train.clear();
        self.frames = 0;
    }

    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<Datagram> {
        self.flush();
        self.fresh = true;
        self.slots.end_loan();
        if self.demux.pending(id) == 0 {
            self.drain(m);
        }
        let (datagram, tag) = self.demux.pop(id)?;
        self.last_ctx = tag;
        Some(self.slots.lend(datagram))
    }

    fn set_send_ctx(&mut self, ctx: Option<SegTag>) {
        self.send_ctx = ctx;
    }

    fn take_recv_ctx(&mut self) -> Option<SegTag> {
        self.last_ctx.take()
    }

    fn pending(&self, id: EndpointId) -> usize {
        self.demux.pending(id)
    }

    fn counters(&self) -> KernelCounters {
        KernelCounters {
            queue_peak: self.demux.peak_queued() as u64,
            queue_capacity: SLOTS as u64,
            ..self.counts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NativeMem;
    use std::collections::VecDeque;
    use utcp::wire::{TcpFlags, TcpHeader};
    use utcp::{Ipv4Header, IP_HEADER_LEN, TCP_HEADER_LEN};

    /// A link in memory: each train the backend writes lands in `sent`
    /// with its frame length, the frames it reads come from `inbox`, and
    /// `reads` counts its reads. With `envelope` a frame is a codec frame
    /// (as on a socket), without it the bare datagram (as on a TUN
    /// device).
    #[derive(Debug, Default)]
    struct Wire {
        envelope: bool,
        sent: VecDeque<(Vec<u8>, usize)>,
        inbox: VecDeque<Vec<u8>>,
        last: Vec<u8>,
        reads: usize,
    }

    impl Link for Wire {
        fn frame_len(&self, len: usize, tag: Option<SegTag>) -> usize {
            if self.envelope { codec::frame_len(len, tag) } else { len }
        }

        fn frame(&self, train: &mut Vec<u8>, len: usize, tag: Option<SegTag>, fill: impl FnOnce(&mut [u8])) {
            if self.envelope {
                codec::encode_into(train, len, tag, fill).unwrap();
            } else {
                let at = train.len();
                train.resize(at + len, 0);
                fill(&mut train[at..]);
            }
        }

        fn send(&mut self, train: &[u8], frame_len: usize) -> usize {
            self.sent.push_back((train.to_vec(), frame_len));
            train.len() / frame_len
        }

        fn recv(&mut self) -> io::Result<Option<(&[u8], Option<SegTag>)>> {
            self.reads += 1;
            self.last = self.inbox.pop_front().ok_or(io::ErrorKind::WouldBlock)?;
            let frame = &self.last[..];
            Ok(if self.envelope { codec::decode_frame(frame).ok() } else { Some((frame, None)) })
        }
    }

    /// A sender and a receiver over in-memory links of one framing, the
    /// user region segments are sent from, and the arena behind them.
    fn pair(envelope: bool) -> (Backend<Wire>, Backend<Wire>, Region, Vec<u8>) {
        let mut space = AddressSpace::new();
        let tx = Backend::new(&mut space, Wire { envelope, ..Wire::default() });
        let rx = Backend::new(&mut space, Wire { envelope, ..Wire::default() });
        let user = space.alloc("user", 4096, 8);
        (tx, rx, user, space.native_arena())
    }

    /// Send segments `seqs` to `port` from `tx` (each carrying its
    /// sequence number as its one payload byte), flush the train they
    /// wait in, and put their frames on `rx`'s link.
    fn carry<M: Mem>(tx: &mut Backend<Wire>, rx: &mut Backend<Wire>, m: &mut M, user: Region, port: u16,
        seqs: std::ops::Range<u32>) {
        for seq in seqs {
            TcpHeader::at(user.base).build(m, 1000, port, seq, 0, TcpFlags::DATA, 512);
            m.write_u8(user.at(64), seq as u8);
            tx.send(m, 0x0A00_0001, 0x0A00_0002, port, user.base, user.at(64), 1);
        }
        tx.flush();
        for (train, frame_len) in tx.link.sent.drain(..) {
            rx.link.inbox.extend(train.chunks(frame_len).map(<[u8]>::to_vec));
        }
    }

    /// A delivered datagram's sequence number, after checking that its
    /// bytes are the segment that number was sent as.
    fn seq_of(m: &mut NativeMem<'_>, d: Datagram) -> u32 {
        assert_eq!(d.len, IP_HEADER_LEN + TCP_HEADER_LEN + 1);
        assert!(Ipv4Header::at(d.addr).verify(m));
        let seq = TcpHeader::at(d.addr + IP_HEADER_LEN).seq(m);
        assert_eq!(m.read_u8(d.addr + IP_HEADER_LEN + TCP_HEADER_LEN), seq as u8);
        seq
    }

    #[test]
    fn a_non_empty_queue_is_served_without_touching_the_link() {
        for envelope in [true, false] {
            let (mut tx, mut rx, user, mut arena) = pair(envelope);
            let ep = rx.register(80);
            let mut m = NativeMem::new(&mut arena);
            let tag = SegTag { conn: 3, chunk: 41, xmit: 2 };
            tx.set_send_ctx(Some(tag));
            carry(&mut tx, &mut rx, &mut m, user, 80, 0..3);
            // The first receive drains all three frames and one empty read.
            assert_eq!(rx.recv_into(&mut m, ep).map(|d| seq_of(&mut m, d)), Some(0));
            assert_eq!((rx.link.reads, rx.pending(ep)), (4, 2));
            // Only an envelope carries the trace context.
            assert_eq!(rx.take_recv_ctx(), envelope.then_some(tag));
            for seq in 1..3 {
                assert_eq!(rx.recv_into(&mut m, ep).map(|d| seq_of(&mut m, d)), Some(seq));
                assert_eq!(rx.take_recv_ctx(), None);
            }
            assert_eq!(rx.link.reads, 4, "queued datagrams are served without a read");
            assert_eq!(rx.recv_into(&mut m, ep), None);
            assert_eq!(rx.link.reads, 5, "an empty queue reads the link");
            let c = rx.counters();
            assert_eq!((c.received, c.would_block, c.queue_peak, c.queue_capacity), (3, 2, 3, 64));
            assert_eq!(tx.counters().sent, 3);
        }
    }

    #[test]
    fn a_drain_fills_free_slots_only_and_leaves_the_rest_on_the_link() {
        for envelope in [true, false] {
            let (mut tx, mut rx, user, mut arena) = pair(envelope);
            let (idle, busy) = (rx.register(80), rx.register(81));
            let mut m = NativeMem::new(&mut arena);
            carry(&mut tx, &mut rx, &mut m, user, 81, 0..100);
            // A receive on an empty endpoint drains: 64 slots, 64 reads.
            assert_eq!(rx.recv_into(&mut m, idle), None);
            assert_eq!((rx.link.reads, rx.pending(busy), rx.link.inbox.len()), (64, 64, 36));
            let queued = |rx: &Backend<Wire>, m: &NativeMem<'_>| -> Vec<(usize, Vec<u8>)> {
                rx.demux.queued_datagrams().map(|d| (d.addr, m.bytes(d.addr, d.len).to_vec())).collect()
            };
            let waiting = queued(&rx, &m);
            // A full pool drains nothing.
            assert_eq!(rx.recv_into(&mut m, idle), None);
            assert_eq!(rx.link.reads, 64);
            // Ten handed out free ten slots; the next drain fills exactly those.
            for seq in 0..10 {
                assert_eq!(rx.recv_into(&mut m, busy).map(|d| seq_of(&mut m, d)), Some(seq));
            }
            assert_eq!(rx.recv_into(&mut m, idle), None);
            assert_eq!((rx.link.reads, rx.pending(busy), rx.link.inbox.len()), (74, 64, 26));
            let still = queued(&rx, &m);
            for (addr, bytes) in waiting.iter().skip(10) {
                assert!(still.contains(&(*addr, bytes.clone())), "queued datagram at {addr:#x} changed");
            }
            // Everything arrives, in order, and the peak never passed the pool.
            for seq in 10..100 {
                assert_eq!(rx.recv_into(&mut m, busy).map(|d| seq_of(&mut m, d)), Some(seq));
            }
            let c = rx.counters();
            assert_eq!((c.received, c.corrupted, c.queue_peak, c.queue_capacity), (100, 0, 64, 64));
        }
    }

    #[test]
    fn a_garbage_an_unroutable_and_a_delivered_frame_each_bump_one_counter() {
        for envelope in [true, false] {
            let (mut tx, mut rx, user, mut arena) = pair(envelope);
            let ep = rx.register(80);
            let mut m = NativeMem::new(&mut arena);
            let no_ip = if envelope { codec::encode(&[0; 40]).unwrap() } else { vec![0; 40] };
            let counts = |rx: &Backend<Wire>| {
                let c = rx.counters();
                [c.received, c.corrupted, c.unroutable, c.dropped, c.sent]
            };
            for (n, frame) in [b"not a frame".to_vec(), no_ip].into_iter().enumerate() {
                rx.link.inbox.push_back(frame);
                assert_eq!(rx.recv_into(&mut m, ep), None);
                assert_eq!(counts(&rx), [0, n as u64 + 1, 0, 0, 0], "garbage");
            }
            carry(&mut tx, &mut rx, &mut m, user, 9999, 0..1);
            assert_eq!(rx.recv_into(&mut m, ep), None);
            assert_eq!(counts(&rx), [0, 2, 1, 0, 0], "unroutable");
            carry(&mut tx, &mut rx, &mut m, user, 80, 1..2);
            assert_eq!(rx.recv_into(&mut m, ep).map(|d| seq_of(&mut m, d)), Some(1));
            assert_eq!(counts(&rx), [1, 2, 1, 0, 0], "delivered");
        }
    }
}
