//! Benchmark-side [`KernelPart`]s: the timing wrapper [`Timed`] and the
//! record-then-replay [`NullKernel`].

use crate::span::{self, Name};
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::Mem;
use utcp::ip::IP_HEADER_LEN;
use utcp::wire::TCP_HEADER_LEN;
use utcp::{Datagram, EndpointId, Ipv4Header, KernelCounters, KernelPart, Loopback};

/// A kernel part with a span around every crossing. Handed to
/// `ScaleHarness::with_cipher_over` / `Connection::new` in the traced
/// run, so kernel-part time shows up as children of whatever
/// benchmark-side span made the call.
#[derive(Debug)]
pub struct Timed<K> {
    /// The wrapped backend.
    pub inner: K,
}

impl<K: KernelPart> KernelPart for Timed<K> {
    fn register(&mut self, port: u16) -> EndpointId {
        self.inner.register(port)
    }

    fn unregister(&mut self, port: u16) {
        self.inner.unregister(port);
    }

    fn send<M: Mem>(
        &mut self,
        m: &mut M,
        src_ip: u32,
        dst_ip: u32,
        dst_port: u16,
        hdr_addr: usize,
        payload_addr: usize,
        payload_len: usize,
    ) {
        let _span = span::enter(Name::KernelSend);
        self.inner.send(
            m,
            src_ip,
            dst_ip,
            dst_port,
            hdr_addr,
            payload_addr,
            payload_len,
        );
    }

    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<Datagram> {
        let _span = span::enter(Name::KernelRecv);
        self.inner.recv_into(m, id)
    }

    fn pending(&self, id: EndpointId) -> usize {
        self.inner.pending(id)
    }

    fn counters(&self) -> KernelCounters {
        self.inner.counters()
    }

    fn set_send_ctx(&mut self, ctx: Option<obs::SegTag>) {
        self.inner.set_send_ctx(ctx);
    }

    fn take_recv_ctx(&mut self) -> Option<obs::SegTag> {
        self.inner.take_recv_ctx()
    }
}

/// A kernel part that can reach the [`Loopback`] underneath it — what the
/// harness workloads need to (re-)install a fault plan per repetition.
pub trait OverLoopback: KernelPart {
    /// The loop-back doing the work.
    fn loopback(&mut self) -> &mut Loopback;
}

impl OverLoopback for Loopback {
    fn loopback(&mut self) -> &mut Loopback {
        self
    }
}

impl OverLoopback for Timed<Loopback> {
    fn loopback(&mut self) -> &mut Loopback {
        &mut self.inner
    }
}

/// The kernel part(s) under a point-to-point connection pair: one shared
/// in-process loop-back, or one socket backend per side.
pub trait Wire {
    /// Backend type.
    type K: KernelPart;
    /// The sender's kernel part.
    fn tx_side(&mut self) -> &mut Self::K;
    /// The receiver's kernel part.
    fn rx_side(&mut self) -> &mut Self::K;
    /// Counters of both sides, sender first.
    fn counters(&self) -> (KernelCounters, KernelCounters);
}

/// Both sides on one kernel part.
#[derive(Debug)]
pub struct Shared<K>(pub K);

impl<K: KernelPart> Wire for Shared<K> {
    type K = K;
    fn tx_side(&mut self) -> &mut K {
        &mut self.0
    }
    fn rx_side(&mut self) -> &mut K {
        &mut self.0
    }
    fn counters(&self) -> (KernelCounters, KernelCounters) {
        (self.0.counters(), KernelCounters::default())
    }
}

/// One kernel part per side.
#[derive(Debug)]
pub struct Pair<K> {
    /// Sender side.
    pub tx: K,
    /// Receiver side.
    pub rx: K,
}

impl<K: KernelPart> Wire for Pair<K> {
    type K = K;
    fn tx_side(&mut self) -> &mut K {
        &mut self.tx
    }
    fn rx_side(&mut self) -> &mut K {
        &mut self.rx
    }
    fn counters(&self) -> (KernelCounters, KernelCounters) {
        (self.tx.counters(), self.rx.counters())
    }
}

const SLOT: usize = 2048;

#[derive(Debug)]
struct NullEndpoint {
    port: u16,
    log: Vec<Datagram>,
    /// Datagrams of `log` released to the receiver so far.
    released: usize,
    /// Datagrams of `log` handed out so far.
    cursor: usize,
}

/// A kernel part for timing `utcp` alone.
///
/// While *recording* it is a minimal loop-back: `send` builds the IPv4
/// datagram into the next slot of an append-only log and queues it for
/// the destination port; `recv_into` hands the log out in order. After
/// [`NullKernel::replay`] the *n*-th `send` moves no bytes — it only
/// releases the datagram the *n*-th recorded `send` logged — and
/// `recv_into` hands the released datagrams out again. A second
/// connection pair with the same ports and initial sequence numbers,
/// making the same calls in the same order, therefore sees the identical
/// conversation at the identical pace while the kernel part costs two
/// counter updates. Registering a port twice returns the same endpoint,
/// which is what lets that second pair attach to the log.
#[derive(Debug)]
pub struct NullKernel {
    slots: Region,
    used: usize,
    endpoints: Vec<NullEndpoint>,
    /// Destination endpoint of each recorded send (`None` = unroutable).
    order: Vec<Option<usize>>,
    recording: bool,
    next_ident: u16,
    sent: u64,
    received: u64,
    unroutable: u64,
}

impl NullKernel {
    /// Reserve log space for `max_datagrams` in `space`.
    pub fn alloc(space: &mut AddressSpace, max_datagrams: usize) -> Self {
        NullKernel {
            slots: space.alloc_kind(
                "null_kernel_log",
                SLOT * max_datagrams,
                64,
                RegionKind::Kernel,
            ),
            used: 0,
            endpoints: Vec::new(),
            order: Vec::new(),
            recording: true,
            next_ident: 1,
            sent: 0,
            received: 0,
            unroutable: 0,
        }
    }

    /// Stop recording and rewind the conversation to its start.
    pub fn replay(&mut self) {
        self.recording = false;
        self.sent = 0;
        for ep in &mut self.endpoints {
            ep.released = 0;
            ep.cursor = 0;
        }
    }
}

impl KernelPart for NullKernel {
    fn register(&mut self, port: u16) -> EndpointId {
        let idx = self
            .endpoints
            .iter()
            .position(|e| e.port == port)
            .unwrap_or_else(|| {
                self.endpoints.push(NullEndpoint {
                    port,
                    log: Vec::new(),
                    released: 0,
                    cursor: 0,
                });
                self.endpoints.len() - 1
            });
        EndpointId::from_index(idx)
    }

    fn send<M: Mem>(
        &mut self,
        m: &mut M,
        src_ip: u32,
        dst_ip: u32,
        dst_port: u16,
        hdr_addr: usize,
        payload_addr: usize,
        payload_len: usize,
    ) {
        self.sent += 1;
        if !self.recording {
            if let Some(&Some(idx)) = self.order.get(self.sent as usize - 1) {
                self.endpoints[idx].released += 1;
            }
            return;
        }
        let Some(idx) = self.endpoints.iter().position(|e| e.port == dst_port) else {
            self.order.push(None);
            self.unroutable += 1;
            return;
        };
        self.order.push(Some(idx));
        let ep = &mut self.endpoints[idx];
        let tcp_total = TCP_HEADER_LEN + payload_len;
        let total = IP_HEADER_LEN + tcp_total;
        assert!(total <= SLOT, "segment exceeds the log slot");
        assert!(
            (self.used + 1) * SLOT <= self.slots.len,
            "NullKernel log is full"
        );
        let slot = self.slots.at(self.used * SLOT);
        self.used += 1;
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        Ipv4Header::at(slot).build(m, src_ip, dst_ip, tcp_total, ident, 0, false, 64);
        m.copy(hdr_addr, slot + IP_HEADER_LEN, TCP_HEADER_LEN);
        m.copy(
            payload_addr,
            slot + IP_HEADER_LEN + TCP_HEADER_LEN,
            payload_len,
        );
        ep.log.push(Datagram {
            addr: slot,
            len: total,
        });
        ep.released += 1;
    }

    fn recv_into<M: Mem>(&mut self, _m: &mut M, id: EndpointId) -> Option<Datagram> {
        let ep = &mut self.endpoints[id.index()];
        if ep.cursor >= ep.released {
            return None;
        }
        let d = ep.log[ep.cursor];
        ep.cursor += 1;
        self.received += 1;
        Some(d)
    }

    fn pending(&self, id: EndpointId) -> usize {
        let ep = &self.endpoints[id.index()];
        ep.released - ep.cursor
    }

    fn counters(&self) -> KernelCounters {
        KernelCounters {
            sent: self.sent,
            received: self.received,
            unroutable: self.unroutable,
            ..KernelCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p2p::connection_pair;
    use checksum::internet::checksum_buf;
    use memsim::NativeMem;
    use utcp::Connection;

    /// One stop-and-wait exchange; returns whether the receiver accepted.
    fn exchange<M: Mem>(
        m: &mut M,
        k: &mut NullKernel,
        tx: &mut Connection,
        rx: &mut Connection,
        src: usize,
        len: usize,
    ) -> bool {
        tx.send_buf(m, k, src, len).expect("window open");
        let Some(d) = rx.poll_input(m, k) else {
            return false;
        };
        let sum = checksum_buf(m, d.payload_addr, d.payload_len);
        let ok = rx.finish_recv(m, k, &d, sum).is_ok();
        while tx.poll_input(m, k).is_some() {}
        ok
    }

    #[test]
    fn recorded_conversation_replays_into_a_second_pair_without_moving_bytes() {
        let mut space = AddressSpace::new();
        let mut wire = Shared(NullKernel::alloc(&mut space, 64));
        let (mut tx_a, mut rx_a) = connection_pair(&mut space, &mut wire, 8 * 1024);
        let (mut tx_b, mut rx_b) = connection_pair(&mut space, &mut wire, 8 * 1024);
        let mut k = wire.0;
        assert_eq!(tx_a.endpoint(), tx_b.endpoint(), "same port, same endpoint");
        let src = space.alloc("src", 512, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for i in 0..512 {
            m.write_u8(src.at(i), (i * 7) as u8);
        }
        for _ in 0..8 {
            assert!(exchange(
                &mut m, &mut k, &mut tx_a, &mut rx_a, src.base, 512
            ));
        }
        assert_eq!(
            tx_a.in_flight(),
            0,
            "every chunk was acknowledged while recording"
        );
        let logged = k.used;
        assert_eq!(logged, 16, "8 data segments + 8 ACKs");

        k.replay();
        for _ in 0..8 {
            assert!(exchange(
                &mut m, &mut k, &mut tx_b, &mut rx_b, src.base, 512
            ));
        }
        assert_eq!(tx_b.in_flight(), 0, "the logged ACKs fit the second sender");
        assert_eq!(rx_b.stats.accepted, 8);
        assert_eq!(k.used, logged, "replay sends write nothing");
        assert_eq!(k.pending(rx_b.endpoint()), 0);
        assert_eq!(
            k.counters().sent,
            16,
            "the replayed pair made the same 16 sends"
        );
    }

    #[test]
    fn timed_wrapper_spans_each_crossing_and_delegates() {
        let mut space = AddressSpace::new();
        let mut k = Timed {
            inner: Loopback::new(&mut space),
        };
        let user = space.alloc("user", 256, 8);
        let ep = k.register(80);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        span::with(|r| r.take_totals());
        span::set_enabled(true, 0);
        k.send(&mut m, 1, 2, 80, user.base, user.at(64), 16);
        assert!(k.recv_into(&mut m, ep).is_some());
        assert!(k.recv_into(&mut m, ep).is_none());
        span::set_enabled(false, 0);
        let (t, _) = span::with(|r| r.take_totals());
        assert_eq!(t[Name::KernelSend as usize].count, 1);
        assert_eq!(t[Name::KernelRecv as usize].count, 2);
        assert_eq!(k.counters().sent, 1);
        assert_eq!(k.loopback().sent(), 1);
    }
}
