//! [`UdpBackend`]: the kernel part over a real `std::net::UdpSocket`.
//!
//! Functionally this is exactly what the paper asks of its kernel
//! component — "similar functionality as UDP without checksum" — except
//! the UDP is real: every [`KernelPart::send`] becomes one `sendto(2)`
//! and a receive that finds its queue empty drains `recvfrom(2)`. The
//! inner bytes are the
//! same IPv4 + TCP + payload datagram the loop-back carries, framed by
//! the length-checked codec in [`crate::codec`]; the connection state
//! machine above cannot tell the backends apart (the equivalence test
//! in `tests/equivalence.rs` holds it to byte-identical delivery).
//!
//! Memory discipline: arriving datagrams are deposited into kernel
//! buffer slots *inside the instrumented address space* (one
//! `write_u8` per byte, charged to the System phase), and outgoing
//! datagrams are assembled there before being read out to the socket —
//! so both system copies remain visible to the memory model even
//! though a real kernel is doing the actual I/O underneath.
//!
//! The socket is non-blocking and touched only when it has to be: a
//! receive serves the endpoint's queue first and goes to the socket
//! only when that queue is empty, and then takes no more datagrams than
//! there are free kernel slots — the rest wait in the kernel's socket
//! buffer, which is the back-pressure a slot pool alone cannot give. A
//! receive never waits, so a lost datagram can never hang a poll loop —
//! timeouts and retransmission are the [`utcp::Connection`]'s job,
//! exactly as over the loop-back.

use crate::{codec, ipv4};
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::Mem;
use obs::SegTag;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use utcp::backend::{KernelCounters, KernelPart};
use utcp::ip::IP_HEADER_LEN;
use utcp::kernelpart::{Datagram, EndpointId};
use utcp::wire::TCP_HEADER_LEN;
use utcp::PortDemux;

/// Kernel slot size: header room + the largest TPDU (the loop-back's
/// geometry, kept identical so the same configs run over both).
const SLOT: usize = 2048;
/// Number of receive slots — one bit each in `drain_socket`'s map of
/// the pool.
const SLOTS: usize = u64::BITS as usize;

/// A [`KernelPart`] backend over one UDP socket.
#[derive(Debug)]
pub struct UdpBackend {
    socket: UdpSocket,
    /// Kernel buffer slots arriving datagrams are deposited into.
    slots: Region,
    /// Staging area outgoing datagrams are assembled in.
    staging: Region,
    /// The outgoing wire frame (envelope + datagram), built in place
    /// for every send so a send allocates nothing.
    frame: Vec<u8>,
    /// Per-port receive queues (tags are the out-of-band context from
    /// [`codec::KIND_TRACED`] envelopes).
    demux: PortDemux,
    /// Destination for outgoing datagrams.
    peer: Option<SocketAddr>,
    /// Adopt the source address of the first well-formed incoming
    /// frame as `peer` (server mode: the client dials first).
    learn_peer: bool,
    next_ident: u16,
    /// Datagrams accepted for transmission.
    pub sent: u64,
    /// Well-formed datagrams received.
    pub received: u64,
    /// Incoming UDP datagrams the wire codec or [`ipv4::admit`]
    /// rejected.
    pub decode_errors: u64,
    /// Well-formed datagrams for a port nobody listens on.
    pub unroutable: u64,
    /// Local send failures (no peer yet, or the OS refused).
    pub send_errors: u64,
    /// Receive polls that found the socket empty (`EWOULDBLOCK`).
    pub would_block: u64,
    /// Trace context armed for the next send (rides the envelope as a
    /// [`codec::KIND_TRACED`] frame; inner bytes stay untouched).
    send_ctx: Option<SegTag>,
    /// Trace context of the last datagram `recv_into` handed out.
    last_ctx: Option<SegTag>,
}

impl UdpBackend {
    /// Bind a socket on `addr` (e.g. `"127.0.0.1:0"`) and allocate the
    /// backend's kernel-slot and staging regions in `space`.
    ///
    /// # Errors
    /// Whatever the OS returns for `bind` — notably `EPERM` in
    /// sandboxes that deny socket creation; callers are expected to
    /// skip gracefully in that case.
    pub fn bind(space: &mut AddressSpace, addr: &str) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let slots = space.alloc_kind("udp_slots", SLOT * SLOTS, 64, RegionKind::Kernel);
        let staging = space.alloc_kind("udp_staging", SLOT, 64, RegionKind::Kernel);
        Ok(UdpBackend {
            socket,
            slots,
            staging,
            frame: Vec::with_capacity(codec::HEADER_LEN + codec::TAG_LEN + codec::MAX_INNER),
            demux: PortDemux::default(),
            peer: None,
            learn_peer: false,
            next_ident: 1,
            sent: 0,
            received: 0,
            decode_errors: 0,
            unroutable: 0,
            send_errors: 0,
            would_block: 0,
            send_ctx: None,
            last_ctx: None,
        })
    }

    /// The socket's local address (port resolved after a `:0` bind).
    ///
    /// # Errors
    /// Propagates the OS error from `getsockname`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Set the destination for outgoing datagrams.
    ///
    /// # Errors
    /// `InvalidInput` when `addr` resolves to nothing.
    pub fn set_peer<A: ToSocketAddrs>(&mut self, addr: A) -> io::Result<()> {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        self.peer = Some(resolved);
        Ok(())
    }

    /// Learn the default peer from the first well-formed incoming
    /// frame (server mode).
    pub fn set_learn_peer(&mut self, on: bool) {
        self.learn_peer = on;
    }

    /// The current default peer, if any.
    pub fn peer(&self) -> Option<SocketAddr> {
        self.peer
    }

    /// Move datagrams from the socket into the per-port queues,
    /// depositing each into a free kernel slot via `m`, until the
    /// socket is empty or every slot holds a queued datagram. A slot is
    /// free once its datagram has been handed out: those bytes are the
    /// caller's until its next `recv_into`, and only `recv_into` gets
    /// here.
    fn drain_socket<M: Mem>(&mut self, m: &mut M) {
        let mut buf = [0u8; codec::HEADER_LEN + codec::TAG_LEN + codec::MAX_INNER];
        // Bit `i` is set while a queued datagram lives in slot `i`.
        let mut busy = self
            .demux
            .queued_datagrams()
            .fold(0u64, |busy, d| busy | 1 << ((d.addr - self.slots.base) / SLOT));
        while busy != u64::MAX {
            let (n, from) = match self.socket.recv_from(&mut buf) {
                Ok(ok) => ok,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.would_block += 1;
                    return;
                }
                // Treat transient errors (e.g. ECONNREFUSED bounced back
                // on Linux) like an empty socket; TCP retransmits.
                Err(_) => return,
            };
            let Ok((inner, tag)) = codec::decode_frame(&buf[..n]) else {
                self.decode_errors += 1;
                continue;
            };
            let Some(dst_port) = ipv4::admit(inner) else {
                self.decode_errors += 1;
                continue;
            };
            if self.learn_peer && self.peer.is_none() {
                self.peer = Some(from);
            }
            self.received += 1;
            let Some(id) = self.demux.route(dst_port) else {
                self.unroutable += 1;
                continue;
            };
            // Receive-side system copy into a free kernel slot.
            let free = busy.trailing_ones() as usize;
            busy |= 1 << free;
            let slot = self.slots.at(free * SLOT);
            m.phase_push(memsim::mem::PhaseTag::System);
            for (i, &b) in inner.iter().enumerate() {
                m.write_u8(slot + i, b);
            }
            m.compute(30);
            m.phase_pop();
            self.demux.push(id, Datagram { addr: slot, len: inner.len() }, tag);
        }
    }
}

impl KernelPart for UdpBackend {
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
        let tcp_total = TCP_HEADER_LEN + payload_len;
        let total = IP_HEADER_LEN + tcp_total;
        assert!(total <= SLOT, "segment exceeds kernel slot / link MTU");
        // Send-side system copy: assemble the full datagram in the
        // staging region, exactly the bytes the loop-back would place
        // in a kernel slot.
        m.phase_push(memsim::mem::PhaseTag::System);
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        utcp::Ipv4Header::at(self.staging.base)
            .build(m, src_ip, dst_ip, tcp_total, ident, 0, false, 64);
        m.copy(hdr_addr, self.staging.at(IP_HEADER_LEN), TCP_HEADER_LEN);
        if payload_len > 0 {
            m.copy(
                payload_addr,
                self.staging.at(IP_HEADER_LEN + TCP_HEADER_LEN),
                payload_len,
            );
        }
        m.compute(30);
        // Read the assembled datagram out of instrumented memory into
        // the wire frame, straight behind its envelope.
        let (staging, ctx) = (self.staging, self.send_ctx.take());
        codec::encode_into(&mut self.frame, total, ctx, |inner| {
            for (i, b) in inner.iter_mut().enumerate() {
                *b = m.read_u8(staging.at(i));
            }
        })
        .expect("assembled datagram is within codec bounds");
        m.phase_pop();
        let Some(dest) = self.peer else {
            self.send_errors += 1;
            return;
        };
        match self.socket.send_to(&self.frame, dest) {
            Ok(_) => self.sent += 1,
            Err(_) => self.send_errors += 1,
        }
    }

    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<Datagram> {
        if self.demux.pending(id) == 0 {
            self.drain_socket(m);
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
            sent: self.sent,
            received: self.received,
            dropped: self.send_errors,
            corrupted: self.decode_errors,
            unroutable: self.unroutable,
            would_block: self.would_block,
            codec_rejects: self.decode_errors,
            queue_peak: self.demux.peak_queued() as u64,
            queue_capacity: SLOTS as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NativeMem;
    use std::time::{Duration, Instant};
    use utcp::wire::{TcpFlags, TcpHeader};

    /// Bind a pair of backends on the loop-back interface, or None if
    /// the sandbox denies sockets.
    fn pair(space: &mut AddressSpace) -> Option<(UdpBackend, UdpBackend)> {
        let a = UdpBackend::bind(space, "127.0.0.1:0").ok()?;
        let b = UdpBackend::bind(space, "127.0.0.1:0").ok()?;
        let mut a = a;
        let mut b = b;
        a.set_peer(b.local_addr().ok()?).ok()?;
        b.set_peer(a.local_addr().ok()?).ok()?;
        Some((a, b))
    }

    /// Poll `recv_into` with a wall-clock deadline (UDP on loop-back is
    /// reliable in practice but asynchronous).
    fn recv_deadline<M: Mem>(
        net: &mut UdpBackend,
        m: &mut M,
        id: EndpointId,
    ) -> Option<Datagram> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(d) = net.recv_into(m, id) {
                return Some(d);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn datagram_crosses_a_real_socket() {
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let rx = b.register(8080);
        let user = space.alloc("user", 4096, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        TcpHeader::at(user.base).build(&mut m, 1111, 8080, 42, 0, TcpFlags::DATA, 512);
        for i in 0..16 {
            m.write_u8(user.at(64 + i), 0xC0 + i as u8);
        }
        a.send(&mut m, 0x0A00_0001, 0x0A00_0002, 8080, user.base, user.at(64), 16);
        assert_eq!(a.sent, 1);
        let d = recv_deadline(&mut b, &mut m, rx).expect("datagram over 127.0.0.1");
        assert_eq!(d.len, IP_HEADER_LEN + TCP_HEADER_LEN + 16);
        // The datagram in the kernel slot is exactly what the loop-back
        // would deliver: verifiable IP header, then TCP, then payload.
        let ip = utcp::Ipv4Header::at(d.addr);
        assert!(ip.verify(&mut m));
        assert_eq!(ip.dst(&mut m), 0x0A00_0002);
        assert_eq!(ip.total_len(&mut m), d.len);
        let hdr = TcpHeader::at(d.addr + IP_HEADER_LEN);
        assert_eq!(hdr.dst_port(&mut m), 8080);
        assert_eq!(hdr.seq(&mut m), 42);
        for i in 0..16 {
            assert_eq!(m.read_u8(d.addr + IP_HEADER_LEN + TCP_HEADER_LEN + i), 0xC0 + i as u8);
        }
        assert_eq!(b.received, 1);
        let c = b.counters();
        assert_eq!((c.sent, c.received), (0, 1));
        assert_eq!((c.dropped, c.corrupted, c.unroutable, c.codec_rejects), (0, 0, 0, 0));
        assert_eq!(c.queue_peak, 1);
        assert_eq!(c.queue_capacity, SLOTS as u64);
        // The polling recv loop sees EWOULDBLOCK while the datagram is
        // in flight; the counter surfaces that rather than hiding it.
        assert_eq!(c.would_block, b.would_block);
    }

    #[test]
    fn trace_context_rides_the_envelope_and_leaves_the_datagram_untouched() {
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let rx = b.register(8080);
        let user = space.alloc("user", 4096, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        TcpHeader::at(user.base).build(&mut m, 1111, 8080, 7, 0, TcpFlags::DATA, 512);
        for i in 0..8 {
            m.write_u8(user.at(64 + i), 0xA0 + i as u8);
        }
        // First copy travels untraced, second carries a tag; the inner
        // datagram bytes each one delivers must be identical.
        a.send(&mut m, 0x0A00_0001, 0x0A00_0002, 8080, user.base, user.at(64), 8);
        let tag = SegTag { conn: 3, chunk: 41, xmit: 2 };
        a.set_send_ctx(Some(tag));
        a.send(&mut m, 0x0A00_0001, 0x0A00_0002, 8080, user.base, user.at(64), 8);
        let plain = recv_deadline(&mut b, &mut m, rx).expect("untraced datagram");
        assert_eq!(b.take_recv_ctx(), None);
        let traced = recv_deadline(&mut b, &mut m, rx).expect("traced datagram");
        assert_eq!(b.take_recv_ctx(), Some(tag));
        // Context is consumed on take; it must not bleed into later polls.
        assert_eq!(b.take_recv_ctx(), None);
        assert_eq!(plain.len, traced.len);
        let plain_bytes: Vec<u8> =
            (0..plain.len).map(|i| m.read_u8(plain.addr + i)).collect();
        let traced_bytes: Vec<u8> =
            (0..traced.len).map(|i| m.read_u8(traced.addr + i)).collect();
        // IPv4 ident differs between the two sends; mask it (and its
        // checksum) out — everything else must match byte for byte.
        let ident_off = 4;
        let cksum_off = 10;
        for i in 0..plain.len {
            if (ident_off..ident_off + 2).contains(&i) || (cksum_off..cksum_off + 2).contains(&i)
            {
                continue;
            }
            assert_eq!(plain_bytes[i], traced_bytes[i], "inner byte {i} differs");
        }
    }

    #[test]
    fn garbage_datagrams_count_as_decode_errors_and_never_panic() {
        let mut space = AddressSpace::new();
        let Some((a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let rx = b.register(8080);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        // Raw socket sends bypassing the codec: garbage on the wire.
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        let dest = b.local_addr().unwrap();
        raw.send_to(b"definitely not a frame", dest).unwrap();
        raw.send_to(&[], dest).unwrap();
        raw.send_to(&[b'I', b'L', 1, 1, 0xFF, 0xFF], dest).unwrap(); // oversized decl
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.decode_errors < 3 && Instant::now() < deadline {
            assert!(b.recv_into(&mut m, rx).is_none());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.decode_errors, 3);
        assert_eq!(b.counters().corrupted, 3);
        let _ = a;
    }

    #[test]
    fn unroutable_and_peerless_sends_are_counted() {
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let rx = b.register(8080);
        let user = space.alloc("user", 4096, 8);
        // A backend with no peer configured drops locally. (Built before
        // the arena is carved so its regions are inside it.)
        let peerless = UdpBackend::bind(&mut space, "127.0.0.1:0").ok();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        TcpHeader::at(user.base).build(&mut m, 1, 9999, 1, 0, TcpFlags::ACK, 1);
        // Destination port 9999 has no listener on b.
        a.send(&mut m, 1, 2, 9999, user.base, user.base, 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.unroutable == 0 && Instant::now() < deadline {
            assert!(b.recv_into(&mut m, rx).is_none());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.counters().unroutable, 1);
        if let Some(mut c) = peerless {
            c.send(&mut m, 1, 2, 8080, user.base, user.base, 0);
            assert_eq!(c.counters().dropped, 1);
        }
    }

    #[test]
    fn default_ring_of_small_chunks_never_overruns_the_slot_pool() {
        // 256 B chunks under the default 16 KiB ring put as many
        // datagrams in flight as there are kernel slots, and ACKs ride
        // the other way. The drain stops at the free slots and leaves
        // the rest in the socket buffer, so nothing queued is ever
        // overwritten: no reject, no retransmission, every byte right.
        const CHUNK: usize = 256;
        const FILE: usize = 128 * 1024;
        const CHUNKS: usize = 2 * FILE / CHUNK; // the file, twice
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let cfg = utcp::UtcpConfig { local_port: 4000, peer_port: 5000, ..Default::default() };
        assert_eq!(cfg.ring_capacity, 16 * 1024);
        let (tx_iss, rx_iss) = (0x1000, 0x9000);
        let mut tx = utcp::Connection::new(&mut space, &mut a, cfg, tx_iss);
        let mut rx = utcp::Connection::new(&mut space, &mut b, cfg.mirror(), rx_iss);
        tx.set_peer_iss(rx_iss);
        rx.set_peer_iss(tx_iss);
        let file = space.alloc("file", FILE, 64);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for (i, byte) in m.bytes_mut(file.base, FILE).iter_mut().enumerate() {
            *byte = (i * 31 + i / CHUNK) as u8;
        }
        let mut delivered = Vec::with_capacity(2 * FILE);
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut last_tick = Instant::now();
        let mut next = 0;
        while next < CHUNKS || tx.in_flight() > 0 {
            assert!(Instant::now() < deadline, "stalled at chunk {next} of {CHUNKS}");
            while next < CHUNKS
                && tx.send_buf(&mut m, &mut a, file.at(next * CHUNK % FILE), CHUNK).is_ok()
            {
                next += 1;
            }
            while let Some(d) = rx.poll_input(&mut m, &mut b) {
                let sum = checksum::internet::checksum_buf(&mut m, d.payload_addr, d.payload_len);
                if rx.finish_recv(&mut m, &mut b, &d, sum).is_ok() {
                    delivered.extend_from_slice(m.bytes(d.payload_addr, d.payload_len));
                }
            }
            while tx.poll_input(&mut m, &mut a).is_some() {}
            if last_tick.elapsed() >= Duration::from_millis(20) {
                tx.tick(&mut m, &mut a);
                last_tick = Instant::now();
            }
        }
        assert_eq!(delivered.len(), 2 * FILE);
        assert!(delivered[..FILE] == *m.bytes(file.base, FILE));
        assert!(delivered[FILE..] == *m.bytes(file.base, FILE));
        assert_eq!((tx.stats.retransmits, rx.stats.rejected, tx.stats.rejected), (0, 0, 0));
        assert_eq!(rx.stats.accepted, CHUNKS as u64);
        assert!(rx.stats.acks_sent < CHUNKS as u64 / 2, "bursts are ACKed once, not per chunk");
        for net in [&a, &b] {
            let c = net.counters();
            assert!(c.queue_peak <= c.queue_capacity, "{} queued in {} slots", c.queue_peak, c.queue_capacity);
            assert_eq!((c.dropped, c.corrupted, net.demux.queued_datagrams().count()), (0, 0, 0));
        }
    }

    #[test]
    fn largest_admissible_frame_cannot_overrun_a_connections_staging() {
        // The codec admits inner datagrams up to MAX_INNER (2 KB); a
        // connection's receive staging is MTU + headers (1 588 B). Any
        // sender can put such a frame on the socket, so the connection
        // must refuse it before the system copy.
        let mut space = AddressSpace::new();
        let Some((a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let cfg = utcp::UtcpConfig {
            local_port: 8080,
            peer_port: 1111,
            local_ip: 0x0A00_0002,
            peer_ip: 0x0A00_0001,
            ..Default::default()
        };
        let mut conn = utcp::Connection::new(&mut space, &mut b, cfg, 1);
        let tcb = *space.regions().iter().find(|r| r.name == "tcb").expect("connection TCB");
        let frame = space.alloc("frame", codec::MAX_INNER, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let tcp_len = codec::MAX_INNER - IP_HEADER_LEN;
        utcp::Ipv4Header::at(frame.base).build(&mut m, cfg.peer_ip, cfg.local_ip, tcp_len, 9, 0, false, 64);
        TcpHeader::at(frame.at(IP_HEADER_LEN)).build(&mut m, 1111, 8080, 77, 0, TcpFlags::DATA, 512);
        let wire = codec::encode(m.bytes(frame.base, frame.len)).expect("MAX_INNER is admissible");
        m.bytes_mut(tcb.base, tcb.len).fill(0xA5);
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        raw.send_to(&wire, b.local_addr().unwrap()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.stats.rejected == 0 && Instant::now() < deadline {
            assert!(conn.poll_input(&mut m, &mut b).is_none(), "oversized datagram surfaced");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(conn.stats.rejected, 1);
        assert_eq!(b.decode_errors, 0, "the frame itself is codec-valid");
        assert!(m.bytes(tcb.base, tcb.len).iter().all(|&x| x == 0xA5), "TCB overwritten");
        let _ = a;
    }
}
