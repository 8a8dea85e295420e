//! [`Backend`]: the kernel part over a real descriptor, written once for
//! every device. A [`Link`] is the per-device half — the descriptor, how
//! a datagram is framed on it, its read and its write — and everything
//! else is here: the kernel slots, the staging region, the frame buffer,
//! the [`PortDemux`], the IPv4 ident, the counters and the trace context.
//!
//! Memory discipline: arriving datagrams are deposited into kernel
//! buffer slots *inside the instrumented address space* (one
//! `write_u8` per byte, charged to the System phase), and outgoing
//! datagrams are assembled there by the same
//! [`utcp::kernelpart::system_copy`] the loop-back runs, before being
//! read out into the frame — so both system copies remain visible to the
//! memory model even though a real kernel is doing the actual I/O
//! underneath.
//!
//! The descriptor is non-blocking and touched only when it has to be.
//! Three rules, one policy, no knob: *queue first* — a receive serves
//! the endpoint's queue and goes to the descriptor only when that queue
//! is empty; *bounded drain* — a drain takes no more datagrams than
//! there are free kernel slots, and the rest wait in the kernel's buffer,
//! which is the back-pressure a slot pool alone cannot give; *one frame
//! buffer* — a send builds its frame in place in a buffer the backend
//! owns, so it allocates nothing. A receive never waits, so a lost
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
use utcp::{PortDemux, SLOT_LEN};

/// Number of receive slots — one bit each in `drain`'s map of the pool.
const SLOTS: usize = u64::BITS as usize;

/// The per-device half of a [`Backend`]: a non-blocking descriptor, how
/// one datagram is framed on it, and its two system calls.
pub trait Link {
    /// Frame `len` datagram bytes in `frame` (cleared first, its
    /// capacity reused): the device's envelope and `tag`, if it carries
    /// either, then the bytes `fill` writes in place. Then write the
    /// frame to the descriptor.
    ///
    /// # Errors
    /// The write's error, or the device's reason not to write (a socket
    /// with no peer yet).
    fn send(&mut self, frame: &mut Vec<u8>, len: usize, tag: Option<SegTag>, fill: impl FnOnce(&mut [u8]))
        -> io::Result<()>;

    /// Read one frame into `buf` and return the datagram it carries with
    /// its tag, or `None` for a frame the device's envelope rejects.
    ///
    /// # Errors
    /// The read's error: `WouldBlock` once the descriptor is empty.
    fn recv<'b>(&mut self, buf: &'b mut [u8]) -> io::Result<Option<(&'b [u8], Option<SegTag>)>>;
}

/// A [`KernelPart`] over one [`Link`].
#[derive(Debug)]
pub struct Backend<L> {
    pub(crate) link: L,
    /// Kernel buffer slots arriving datagrams are deposited into.
    slots: Region,
    /// Staging area outgoing datagrams are assembled in.
    staging: Region,
    /// The outgoing frame, built in place for every send.
    frame: Vec<u8>,
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
            slots: space.alloc_kind("link_slots", SLOT_LEN * SLOTS, 64, RegionKind::Kernel),
            staging: space.alloc_kind("link_staging", SLOT_LEN, 64, RegionKind::Kernel),
            frame: Vec::with_capacity(codec::HEADER_LEN + codec::TAG_LEN + SLOT_LEN),
            demux: PortDemux::default(),
            next_ident: 1,
            counts: KernelCounters::default(),
            send_ctx: None,
            last_ctx: None,
        }
    }

    /// Move datagrams from the descriptor into the per-port queues,
    /// depositing each into a free kernel slot via `m`, until the
    /// descriptor is empty or every slot holds a queued datagram. A slot
    /// is free once its datagram has been handed out: those bytes are the
    /// caller's until its next `recv_into`, and only `recv_into` gets
    /// here.
    fn drain<M: Mem>(&mut self, m: &mut M) {
        let mut buf = [0u8; codec::HEADER_LEN + codec::TAG_LEN + SLOT_LEN];
        // Bit `i` is set while a queued datagram lives in slot `i`.
        let mut busy = self
            .demux
            .queued_datagrams()
            .fold(0u64, |busy, d| busy | 1 << ((d.addr - self.slots.base) / SLOT_LEN));
        while busy != u64::MAX {
            let (inner, tag) = match self.link.recv(&mut buf) {
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
            let free = busy.trailing_ones() as usize;
            busy |= 1 << free;
            let slot = self.slots.at(free * SLOT_LEN);
            m.phase_push(PhaseTag::System);
            for (i, &b) in inner.iter().enumerate() {
                m.write_u8(slot + i, b);
            }
            m.compute(30);
            m.phase_pop();
            self.demux.push(id, Datagram { addr: slot, len: inner.len() }, tag);
        }
    }
}

impl<L: Link> KernelPart for Backend<L> {
    fn register(&mut self, port: u16) -> EndpointId {
        self.demux.register(port)
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
        // Read the assembled datagram out of instrumented memory into
        // the frame, straight behind its envelope.
        let staging = self.staging;
        let sent = self.link.send(&mut self.frame, len, self.send_ctx.take(), |inner| {
            for (i, b) in inner.iter_mut().enumerate() {
                *b = m.read_u8(staging.at(i));
            }
        });
        m.phase_pop();
        match sent {
            Ok(()) => self.counts.sent += 1,
            Err(_) => self.counts.dropped += 1,
        }
    }

    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<Datagram> {
        if self.demux.pending(id) == 0 {
            self.drain(m);
        }
        let (datagram, tag) = self.demux.pop(id)?;
        self.last_ctx = tag;
        Some(datagram)
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

    /// A link in memory: what the backend writes lands in `sent`, what
    /// it reads comes from `inbox`, and `reads` counts its reads. With
    /// `envelope` a frame is a codec frame (as on a socket), without it
    /// the bare datagram (as on a TUN device).
    #[derive(Debug, Default)]
    struct Wire {
        envelope: bool,
        sent: VecDeque<Vec<u8>>,
        inbox: VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Link for Wire {
        fn send(&mut self, frame: &mut Vec<u8>, len: usize, tag: Option<SegTag>, fill: impl FnOnce(&mut [u8]))
            -> io::Result<()> {
            if self.envelope {
                codec::encode_into(frame, len, tag, fill).unwrap();
            } else {
                frame.clear();
                frame.resize(len, 0);
                fill(frame);
            }
            self.sent.push_back(frame.clone());
            Ok(())
        }

        fn recv<'b>(&mut self, buf: &'b mut [u8]) -> io::Result<Option<(&'b [u8], Option<SegTag>)>> {
            self.reads += 1;
            let frame = self.inbox.pop_front().ok_or(io::ErrorKind::WouldBlock)?;
            buf[..frame.len()].copy_from_slice(&frame);
            let frame = &buf[..frame.len()];
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
    /// sequence number as its one payload byte) and put their frames on
    /// `rx`'s link.
    fn carry<M: Mem>(tx: &mut Backend<Wire>, rx: &mut Backend<Wire>, m: &mut M, user: Region, port: u16,
        seqs: std::ops::Range<u32>) {
        for seq in seqs {
            TcpHeader::at(user.base).build(m, 1000, port, seq, 0, TcpFlags::DATA, 512);
            m.write_u8(user.at(64), seq as u8);
            tx.send(m, 0x0A00_0001, 0x0A00_0002, port, user.base, user.at(64), 1);
        }
        rx.link.inbox.extend(tx.link.sent.drain(..));
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
