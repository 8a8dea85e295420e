//! [`UdpBackend`]: the kernel part over a real `std::net::UdpSocket`.
//!
//! Functionally this is exactly what the paper asks of its kernel
//! component — "similar functionality as UDP without checksum" — except
//! the UDP is real: a train [`Backend`] flushes becomes one `sendmsg`
//! on a socket `connect`ed to the peer, cut into one datagram per frame
//! by the kernel (`UDP_SEGMENT`), and a receive that finds its queue
//! empty drains `recvmsg`, which with `UDP_GRO` on returns a whole train
//! at once; the link hands the drain one frame of it per call
//! (the `sys` module has the calls). A connected socket is cheaper per
//! datagram (the kernel resolves the route once, not per send) and
//! hears its peer only: a datagram from any other address never reaches
//! the codec. The inner bytes are the same IPv4 + TCP + payload datagram
//! the loop-back carries, framed by the length-checked codec in
//! [`crate::codec`]; the connection state machine above cannot tell the
//! backends apart (the equivalence test in `tests/equivalence.rs` holds
//! it to byte-identical delivery). The slot pool, the drain, the send
//! and the train rules are [`Backend`]'s; [`Udp`] is the socket.

use crate::link::{Backend, Link};
use crate::{codec, sys};
use memsim::layout::AddressSpace;
use obs::SegTag;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

/// Bytes one read can return: the largest UDP datagram, or a train of
/// them coalesced.
const READ_LEN: usize = 65_535;

/// The kernel part over one UDP socket.
pub type UdpBackend = Backend<Udp>;

/// The [`Link`] of a [`UdpBackend`]: a non-blocking UDP socket with
/// `UDP_GRO` on, the codec envelope (which carries the trace tag), the
/// peer, and the last train read.
#[derive(Debug)]
pub struct Udp {
    socket: UdpSocket,
    /// Destination for outgoing datagrams, and the one address the
    /// socket is connected to. Until one is set, the sender of the first
    /// frame that passes the codec becomes it (server mode: the client
    /// dials first), and a send counts a drop.
    peer: Option<SocketAddr>,
    /// The last read: allocated once, never zeroed — `recvmsg` writes it
    /// and its return sets the length.
    read: Vec<u8>,
    /// Its segment size, where its next frame starts, and its sender
    /// (read only while there is no peer).
    seg: usize,
    at: usize,
    from: Option<SocketAddr>,
    /// The system calls it made.
    calls: SockCalls,
}

/// The system calls a [`Udp`] link made on its socket: each train it
/// wrote is one `sendmsg`, each read one `recvmsg`, an empty one
/// included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SockCalls {
    /// Trains written.
    pub sendmsg: u64,
    /// Reads, whether or not they found a train.
    pub recvmsg: u64,
}

impl UdpBackend {
    /// Bind a socket on `addr` (e.g. `"127.0.0.1:0"`), turn `UDP_GRO`
    /// on, and allocate the backend's kernel-slot and staging regions in
    /// `space`.
    ///
    /// # Errors
    /// Whatever the OS returns for `bind` — notably `EPERM` in
    /// sandboxes that deny socket creation — or for `UDP_GRO` on a
    /// kernel older than 5.0; callers are expected to skip gracefully in
    /// that case.
    pub fn bind(space: &mut AddressSpace, addr: &str) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        sys::enable_gro(&socket)?;
        let read = Vec::with_capacity(READ_LEN);
        let link = Udp { socket, peer: None, read, seg: 0, at: 0, from: None, calls: SockCalls::default() };
        Ok(Backend::new(space, link))
    }

    /// The socket's local address (port resolved after a `:0` bind).
    ///
    /// # Errors
    /// Propagates the OS error from `getsockname`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.link.socket.local_addr()
    }

    /// The system calls made on the socket so far.
    pub fn sock_calls(&self) -> SockCalls {
        self.link.calls
    }

    /// Set the destination for outgoing datagrams and connect the socket
    /// to it: from then on only `addr` is heard.
    ///
    /// # Errors
    /// `InvalidInput` when `addr` resolves to nothing; whatever the OS
    /// returns for `connect`.
    pub fn set_peer<A: ToSocketAddrs>(&mut self, addr: A) -> io::Result<()> {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        connect(&self.link.socket, &mut self.link.peer, resolved)
    }
}

/// Connect `socket` to `to` and make it the `peer` sends go to.
fn connect(socket: &UdpSocket, peer: &mut Option<SocketAddr>, to: SocketAddr) -> io::Result<()> {
    socket.connect(to)?;
    *peer = Some(to);
    Ok(())
}

impl Link for Udp {
    fn frame_len(&self, len: usize, tag: Option<SegTag>) -> usize {
        codec::frame_len(len, tag)
    }

    fn frame(&self, train: &mut Vec<u8>, len: usize, tag: Option<SegTag>, fill: impl FnOnce(&mut [u8])) {
        codec::encode_into(train, len, tag, fill).expect("assembled datagram is within codec bounds");
    }

    fn send(&mut self, train: &[u8], frame_len: usize) -> usize {
        if self.peer.is_none() {
            return 0;
        }
        self.calls.sendmsg += 1;
        if sys::send_train(&self.socket, train, frame_len).is_ok() { train.len() / frame_len } else { 0 }
    }

    // Inlined into the drain, which then reads, decodes and deposits in
    // one function; out of line, `udp_small` measured 2.5 % slower (E37).
    #[inline]
    fn recv(&mut self) -> io::Result<Option<(&[u8], Option<SegTag>)>> {
        if self.at >= self.read.len() {
            self.calls.recvmsg += 1;
            let read = sys::recv_train(&self.socket, &mut self.read, self.peer.is_none())?;
            (self.seg, self.at, self.from) = (read.seg, 0, read.from);
            if read.truncated {
                self.read.clear();
                return Ok(None);
            }
        }
        let end = self.read.len().min(self.at + self.seg);
        let frame = codec::decode_frame(&self.read[self.at..end]);
        self.at = end;
        let Ok(frame) = frame else {
            return Ok(None);
        };
        if let (None, Some(from)) = (self.peer, self.from) {
            connect(&self.socket, &mut self.peer, from)?;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::region::Region;
    use memsim::{Mem, NativeMem};
    use std::time::{Duration, Instant};
    use utcp::kernelpart::{Datagram, EndpointId};
    use utcp::wire::{TcpFlags, TcpHeader};
    use utcp::{KernelPart, IP_HEADER_LEN, TCP_HEADER_LEN};

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
        assert_eq!(a.counters().sent, 1);
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
        let c = b.counters();
        assert_eq!((c.sent, c.received), (0, 1));
        assert_eq!((c.dropped, c.corrupted, c.unroutable), (0, 0, 0));
        assert_eq!((c.queue_peak, c.queue_capacity), (1, 64));
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
        a.flush();
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

    /// Send a data segment to `port` with sequence number `seq` and
    /// `len` payload bytes, each `seq as u8`.
    fn send_seg(net: &mut UdpBackend, m: &mut NativeMem<'_>, user: Region, port: u16, seq: u32, len: usize) {
        TcpHeader::at(user.base).build(m, 1111, port, seq, 0, TcpFlags::DATA, 512);
        m.fill_bytes(user.at(64), len, seq as u8);
        net.send(m, 0x0A00_0001, 0x0A00_0002, port, user.base, user.at(64), len);
    }

    /// Send a bare ACK to `port`.
    fn send_bare(net: &mut UdpBackend, m: &mut NativeMem<'_>, user: Region, port: u16) {
        TcpHeader::at(user.base).build(m, 1111, port, 0, 0, TcpFlags::ACK, 512);
        net.send(m, 0x0A00_0001, 0x0A00_0002, port, user.base, user.base, 0);
    }

    /// The next datagram at `id` — a segment `send_seg` sent, its bytes
    /// checked — as (sequence number, payload length); a bare ACK reads
    /// as (0, 0).
    fn recv_seg(net: &mut UdpBackend, m: &mut NativeMem<'_>, id: EndpointId) -> (u32, usize) {
        let d = recv_deadline(net, m, id).expect("a datagram over 127.0.0.1");
        assert!(utcp::Ipv4Header::at(d.addr).verify(m));
        let seq = TcpHeader::at(d.addr + IP_HEADER_LEN).seq(m);
        let len = d.len - IP_HEADER_LEN - TCP_HEADER_LEN;
        assert!(m.bytes(d.addr + IP_HEADER_LEN + TCP_HEADER_LEN, len).iter().all(|&b| b == seq as u8), "seq {seq}");
        (seq, len)
    }

    /// Nothing more reaches `id` within 20 ms.
    fn quiet(net: &mut UdpBackend, m: &mut NativeMem<'_>, id: EndpointId) -> bool {
        std::thread::sleep(Duration::from_millis(20));
        net.recv_into(m, id).is_none()
    }

    #[test]
    fn a_burst_of_equal_frames_leaves_as_one_train_on_the_next_receive() {
        const N: u32 = 12;
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let (a_ep, b_ep) = (a.register(1111), b.register(8080));
        let user = space.alloc("user", 4096, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let tag = |seq: u32| SegTag { conn: 3, chunk: seq, xmit: 1 };
        for seq in 0..N {
            a.set_send_ctx(Some(tag(seq)));
            send_seg(&mut a, &mut m, user, 8080, seq, 16);
        }
        // The first send leaves at once; the rest wait for a receive.
        assert_eq!(a.counters().sent, 1);
        assert_eq!(recv_seg(&mut b, &mut m, b_ep), (0, 16));
        assert_eq!(b.take_recv_ctx(), Some(tag(0)));
        assert!(quiet(&mut b, &mut m, b_ep));
        assert!(a.recv_into(&mut m, a_ep).is_none());
        assert_eq!(a.counters().sent, u64::from(N));
        for seq in 1..N {
            assert_eq!(recv_seg(&mut b, &mut m, b_ep), (seq, 16));
            assert_eq!(b.take_recv_ctx(), Some(tag(seq)));
        }
        // One read carried the train, cut at the size the kernel reported.
        let frame = codec::frame_len(IP_HEADER_LEN + TCP_HEADER_LEN + 16, Some(tag(0)));
        assert_eq!((b.link.read.len(), b.link.seg), ((N as usize - 1) * frame, frame));
        let c = b.counters();
        assert_eq!((c.received, c.corrupted, c.dropped), (u64::from(N), 0, 0));
    }

    #[test]
    fn the_first_send_after_a_receive_and_every_bare_segment_leave_at_once() {
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let (a_ep, b_ep) = (a.register(1111), b.register(8080));
        let user = space.alloc("user", 4096, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        send_seg(&mut a, &mut m, user, 8080, 1, 16);
        send_seg(&mut a, &mut m, user, 8080, 2, 16);
        // A bare ACK takes the waiting segment with it, in order.
        send_bare(&mut a, &mut m, user, 8080);
        send_seg(&mut a, &mut m, user, 8080, 3, 16);
        // After a receive, the first send leaves at once again.
        assert!(a.recv_into(&mut m, a_ep).is_none());
        send_seg(&mut a, &mut m, user, 8080, 4, 16);
        send_seg(&mut a, &mut m, user, 8080, 5, 16);
        // Never polled since, the sender has put 1, 2, the ACK, 3 and 4 on the wire.
        for want in [(1, 16), (2, 16), (0, 0), (3, 16), (4, 16)] {
            assert_eq!(recv_seg(&mut b, &mut m, b_ep), want);
        }
        assert!(quiet(&mut b, &mut m, b_ep), "5 waits for the sender's next receive");
        assert_eq!(a.counters().sent, 5);
        a.flush();
        assert_eq!(recv_seg(&mut b, &mut m, b_ep), (5, 16));
    }

    #[test]
    fn a_size_change_65_frames_and_a_dropped_backend_each_end_a_train() {
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let b_ep = b.register(8080);
        let user = space.alloc("user", 4096, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        send_seg(&mut a, &mut m, user, 8080, 0, 16);
        for seq in 1..=65 {
            send_seg(&mut a, &mut m, user, 8080, seq, 16);
        }
        assert_eq!(a.counters().sent, 65, "the first alone, then a train of 64; the 65th waits");
        send_seg(&mut a, &mut m, user, 8080, 66, 32);
        assert_eq!(a.counters().sent, 66, "a frame of another size ends the train");
        drop(a);
        for seq in 0..=65 {
            assert_eq!(recv_seg(&mut b, &mut m, b_ep), (seq, 16));
        }
        assert_eq!(recv_seg(&mut b, &mut m, b_ep), (66, 32), "the dropped backend sent what waited");
        assert!(quiet(&mut b, &mut m, b_ep));
        assert_eq!(b.counters().received, 67);
    }

    #[test]
    fn a_train_larger_than_the_free_slots_leaves_its_rest_in_the_link() {
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let (idle, busy) = (b.register(80), b.register(81));
        let user = space.alloc("user", 4096, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        // One alone, then trains of 64 and 35.
        for seq in 0..100 {
            send_seg(&mut a, &mut m, user, 81, seq, 16);
        }
        a.flush();
        std::thread::sleep(Duration::from_millis(20));
        // A receive on an empty endpoint drains 64: the lone frame and 63
        // of the train; one frame waits in the link, the next train in
        // the socket.
        assert!(b.recv_into(&mut m, idle).is_none());
        assert_eq!(b.pending(busy), 64);
        assert_eq!(b.link.read.len() - b.link.at, b.link.seg, "one frame left in the link");
        let queued = |b: &UdpBackend, m: &NativeMem<'_>| -> Vec<(usize, Vec<u8>)> {
            b.demux.queued_datagrams().map(|d| (d.addr, m.bytes(d.addr, d.len).to_vec())).collect()
        };
        let waiting = queued(&b, &m);
        for seq in 0..10 {
            assert_eq!(recv_seg(&mut b, &mut m, busy), (seq, 16));
        }
        // The next drain fills the ten free slots: the link's one, then
        // nine from the next train.
        assert!(b.recv_into(&mut m, idle).is_none());
        assert_eq!(b.pending(busy), 64);
        let still = queued(&b, &m);
        for (addr, bytes) in waiting.iter().skip(10) {
            assert!(still.contains(&(*addr, bytes.clone())), "queued datagram at {addr:#x} changed");
        }
        for seq in 10..100 {
            assert_eq!(recv_seg(&mut b, &mut m, busy), (seq, 16));
        }
        let c = b.counters();
        assert_eq!((c.received, c.corrupted, c.queue_peak), (100, 0, 64));
    }

    #[test]
    fn a_peerless_backend_adopts_its_first_sender_then_reads_trains() {
        let mut space = AddressSpace::new();
        let (Ok(mut server), Ok(mut client)) =
            (UdpBackend::bind(&mut space, "127.0.0.1:0"), UdpBackend::bind(&mut space, "127.0.0.1:0"))
        else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        client.set_peer(server.local_addr().unwrap()).unwrap();
        let (s_ep, c_ep) = (server.register(8080), client.register(8080));
        let user = space.alloc("user", 4096, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        // With no peer yet, each frame of a train counts as dropped.
        for seq in 0..3 {
            send_seg(&mut server, &mut m, user, 8080, seq, 16);
        }
        server.flush();
        assert_eq!((server.counters().sent, server.counters().dropped), (0, 3));
        for seq in 0..20 {
            send_seg(&mut client, &mut m, user, 8080, seq, 16);
        }
        client.flush();
        for seq in 0..20 {
            assert_eq!(recv_seg(&mut server, &mut m, s_ep), (seq, 16));
        }
        assert_eq!(server.link.peer, Some(client.local_addr().unwrap()));
        assert_eq!(server.link.read.len(), 19 * server.link.seg, "the train came in one read");
        // Adopted, the server's sends reach the client.
        send_seg(&mut server, &mut m, user, 8080, 7, 16);
        assert_eq!(recv_seg(&mut client, &mut m, c_ep), (7, 16));
        assert_eq!((server.counters().sent, server.counters().dropped), (1, 3));
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
        // Raw sends from the peer's socket (the one address b hears),
        // bypassing the codec: garbage on the wire.
        let raw = &a.link.socket;
        raw.send(b"definitely not a frame").unwrap();
        raw.send(&[]).unwrap();
        raw.send(&[b'I', b'L', 1, 1, 0xFF, 0xFF]).unwrap(); // oversized decl
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.counters().corrupted < 3 && Instant::now() < deadline {
            assert!(b.recv_into(&mut m, rx).is_none());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.counters().corrupted, 3);
        let _ = a;
    }

    #[test]
    fn a_third_sockets_datagram_is_never_delivered() {
        // b is connected to a. A codec-valid datagram for b's registered
        // port, sent from any other address, is dropped by the OS: it is
        // neither delivered nor counted, and the peer's next datagram is
        // the first and only one b sees.
        let mut space = AddressSpace::new();
        let Some((mut a, mut b)) = pair(&mut space) else {
            eprintln!("skipping: sandbox denies UDP sockets");
            return;
        };
        let rx = b.register(8080);
        let user = space.alloc("user", 4096, 8);
        let frame = space.alloc("frame", IP_HEADER_LEN + TCP_HEADER_LEN, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        utcp::Ipv4Header::at(frame.base).build(&mut m, 0x0A00_0001, 0x0A00_0002, TCP_HEADER_LEN, 9, 0, false, 64);
        TcpHeader::at(frame.at(IP_HEADER_LEN)).build(&mut m, 1111, 8080, 77, 0, TcpFlags::ACK, 512);
        let wire = codec::encode(m.bytes(frame.base, frame.len)).expect("admissible");
        let third = UdpSocket::bind("127.0.0.1:0").expect("bind a third socket");
        third.send_to(&wire, b.local_addr().unwrap()).unwrap();
        TcpHeader::at(user.base).build(&mut m, 1111, 8080, 42, 0, TcpFlags::DATA, 512);
        a.send(&mut m, 0x0A00_0001, 0x0A00_0002, 8080, user.base, user.at(64), 16);
        let d = recv_deadline(&mut b, &mut m, rx).expect("the peer's datagram");
        assert_eq!(TcpHeader::at(d.addr + IP_HEADER_LEN).seq(&mut m), 42, "the peer's, not the third socket's");
        std::thread::sleep(Duration::from_millis(20));
        assert!(b.recv_into(&mut m, rx).is_none());
        let c = b.counters();
        assert_eq!((c.received, c.corrupted, c.unroutable), (1, 0, 0));
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
        while b.counters().unroutable == 0 && Instant::now() < deadline {
            assert!(b.recv_into(&mut m, rx).is_none());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!((b.counters().unroutable, b.counters().received), (1, 0));
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
        // From the peer's socket, the one address b hears.
        a.link.socket.send(&wire).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.stats.rejected == 0 && Instant::now() < deadline {
            assert!(conn.poll_input(&mut m, &mut b).is_none(), "oversized datagram surfaced");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(conn.stats.rejected, 1);
        assert_eq!(b.counters().corrupted, 0, "the frame itself is codec-valid");
        assert!(m.bytes(tcb.base, tcb.len).iter().all(|&x| x == 0xA5), "TCB overwritten");
        let _ = a;
    }
}
