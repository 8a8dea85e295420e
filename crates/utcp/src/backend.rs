//! The [`KernelPart`] backend trait — the seam between the user-level
//! TCP and whatever moves its datagrams.
//!
//! The paper's kernel component has "similar functionality as UDP
//! without checksum" (§3.1): on send it passes TPDUs to IP, on receive
//! it demultiplexes IP packets to the right user-level connection. For
//! the measurements that contract is fulfilled by the in-process
//! [`Loopback`](crate::kernelpart::Loopback); this trait names the
//! contract itself, so the *identical* connection state machine and
//! ILP/non-ILP pipelines also run over real kernels — a UDP socket
//! backend, a TUN device (`crates/netback`) — without touching a line
//! of protocol code.
//!
//! Design constraints, in order:
//!
//! * **Zero cost over Loopback.** Every method is generic over
//!   [`Mem`] and dispatched statically; the loop-back's whole
//!   datagram API *is* its implementation of this trait, so the
//!   deterministic tier-1 and DST worlds pay nothing for the seam. The
//!   perf gate holds this to bit-exactness.
//! * **Datagrams live in instrumented memory.** A backend deposits
//!   received datagrams into kernel-buffer slots *inside the
//!   connection's address space* and hands out a [`Datagram`]
//!   (address + length), exactly as the loop-back does — the
//!   receive-side system copy stays visible to the memory model, and
//!   [`crate::conn::Connection::poll_input`] is backend-agnostic.
//! * **Faults are not part of the contract.**
//!   [`FaultPlan`](crate::kernelpart::FaultPlan) injection is a
//!   property of the deterministic loop-back world
//!   (`Loopback::set_faults`); a real network brings its own faults.
//!   Backends report what actually happened through
//!   [`KernelPart::counters`].

use crate::kernelpart::{Datagram, EndpointId};
use memsim::Mem;
use obs::{Layer, NoopObserver, PathLabel, SegEv, SegTag, SpanObserver, Stage, Work};

/// Fault/garbage accounting a backend exposes to harnesses and
/// observers. For `Loopback` these are the injected-fault counters;
/// for a real backend they count what the wire actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Datagrams handed to the network by this backend.
    pub sent: u64,
    /// Datagrams delivered to an endpoint by this backend.
    pub received: u64,
    /// Datagrams that never reached a destination queue (injected
    /// drops on loop-back; local send failures on a socket backend).
    pub dropped: u64,
    /// Datagrams damaged in flight (injected bit-flips on loop-back;
    /// frames that failed the wire codec or the IPv4 admission rule on a
    /// `netback` backend).
    pub corrupted: u64,
    /// Datagrams that arrived for a port nobody listens on.
    pub unroutable: u64,
    /// Receive polls that found the descriptor empty (socket backends;
    /// always 0 on loop-back, whose queues are exact).
    pub would_block: u64,
    /// High-water mark of datagrams queued across the backend at once.
    /// The `netback` backends (UDP socket and TUN device) queue only
    /// into free slots and leave the rest on the descriptor, so their
    /// peak never exceeds `queue_capacity`. The loop-back has no such
    /// refuge — there a peak at capacity means a slot was recycled
    /// under a queued datagram.
    pub queue_peak: u64,
    /// Total queue capacity in datagrams (0 = unknown/unbounded).
    pub queue_capacity: u64,
}

impl KernelCounters {
    /// The counters as a JSON object (for obs reports).
    pub fn to_json(&self) -> obs::Json {
        obs::Json::obj()
            .set("sent", obs::Json::U64(self.sent))
            .set("received", obs::Json::U64(self.received))
            .set("dropped", obs::Json::U64(self.dropped))
            .set("corrupted", obs::Json::U64(self.corrupted))
            .set("unroutable", obs::Json::U64(self.unroutable))
            .set("would_block", obs::Json::U64(self.would_block))
            .set("queue_peak", obs::Json::U64(self.queue_peak))
            .set("queue_capacity", obs::Json::U64(self.queue_capacity))
    }
}

/// A kernel-part backend: datagram transport + per-port demultiplexing
/// under one or more [`Connection`](crate::conn::Connection)s.
///
/// All methods take the instrumented memory `m` because both directions
/// perform the *system copy* through it: send copies header + payload
/// from user memory out of the address space, receive deposits arriving
/// datagrams into kernel-buffer slots inside it.
pub trait KernelPart {
    /// Register a listening port; returns the endpoint handle used to
    /// receive from it.
    fn register(&mut self, port: u16) -> EndpointId;

    /// Release a listening port so a later `register` can reuse it —
    /// the final step of connection teardown once the lifecycle machine
    /// reaches `Closed`. Datagrams already queued on the endpoint stay
    /// readable through the old handle until the port is registered
    /// again; *new* arrivals for the port count as unroutable. The
    /// default is a no-op for backends whose demultiplexing is fixed at
    /// bind time.
    fn unregister(&mut self, port: u16) {
        let _ = port;
    }

    /// Send one TPDU: encapsulate the TCP header at `hdr_addr` and
    /// `payload_len` bytes at `payload_addr` in IPv4 and hand the
    /// datagram to the network. `payload_len` may be zero (pure ACK).
    #[allow(clippy::too_many_arguments)]
    fn send<M: Mem>(
        &mut self,
        m: &mut M,
        src_ip: u32,
        dst_ip: u32,
        dst_port: u16,
        hdr_addr: usize,
        payload_addr: usize,
        payload_len: usize,
    );

    /// Dequeue the next datagram for an endpoint, if any. A backend
    /// fronting a real descriptor drains it into its per-port queues
    /// here (depositing bytes into kernel slots via `m`); the loop-back
    /// already queued at send time and ignores `m`.
    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<Datagram>;

    /// Number of datagrams already queued for an endpoint. Advisory (a
    /// real backend may have more in the socket buffer): it feeds
    /// queue-depth observability, and it tells a receiver whether the
    /// burst it is draining has ended, so that it ACKs once per burst —
    /// a stale answer sends that ACK one segment early or one poll
    /// late, never wrongly.
    fn pending(&self, id: EndpointId) -> usize;

    /// Cumulative fault/garbage accounting for this backend.
    fn counters(&self) -> KernelCounters;

    /// Arm the out-of-band trace context for the **next** `send` call.
    /// The tag travels *beside* the datagram — a side-table on the
    /// loop-back, an envelope field on socket backends — never inside
    /// the TPDU bytes, so wire identity between traced and untraced
    /// runs is structural. Backends that cannot carry context may
    /// ignore it (the default): tracing degrades to sender-side spans.
    fn set_send_ctx(&mut self, ctx: Option<obs::SegTag>) {
        let _ = ctx;
    }

    /// Take the trace context that rode beside the datagram returned by
    /// the **last** `recv_into` call, if any. Consuming: a second call
    /// returns `None`.
    fn take_recv_ctx(&mut self) -> Option<obs::SegTag> {
        None
    }
}

/// A kernel part as a call site hands it to the transport: the backend,
/// plus who is watching and which data path the call serves.
///
/// Every [`Connection`](crate::conn::Connection) entry point (and the
/// data paths above it) takes `&mut impl KernelCtx`, so each exists
/// once. A bare `&mut K` for any [`KernelPart`] `K` is the unobserved
/// handle — [`NoopObserver`], whose `ENABLED = false` compiles every
/// observation site away — and [`observed`] bundles a backend with a
/// live observer and the [`PathLabel`] its spans report under.
pub trait KernelCtx {
    /// The backend datagrams move through.
    type Kernel: KernelPart;
    /// The observer that receives spans, counters and trace marks.
    type Obs: SpanObserver;

    /// Backend, observer and path label borrowed together, for callers
    /// that hand them to different callees at once.
    fn parts(&mut self) -> (&mut Self::Kernel, &mut Self::Obs, PathLabel);

    /// The backend.
    #[inline]
    fn kernel(&mut self) -> &mut Self::Kernel {
        self.parts().0
    }

    /// The observer.
    #[inline]
    fn obs(&mut self) -> &mut Self::Obs {
        self.parts().1
    }

    /// Open a span bracket: the work-counter snapshot [`KernelCtx::span`]
    /// measures from. Free when unobserved.
    #[inline]
    fn mark<M: Mem>(&self, m: &M) -> (u64, u64) {
        if Self::Obs::ENABLED {
            m.work_counters()
        } else {
            (0, 0)
        }
    }

    /// Close a span bracket: report the work since `since` as spent in
    /// `layer` during `stage` of this handle's path.
    #[inline]
    fn span<M: Mem>(&mut self, m: &M, stage: Stage, layer: Layer, since: (u64, u64)) {
        if Self::Obs::ENABLED {
            let (_, obs, path) = self.parts();
            obs.span(path, stage, layer, Work::delta(since, m.work_counters()));
        }
    }

    /// Record a segment-trace edge for a traced chunk (`tag` is `None`
    /// for untraced ones).
    #[inline]
    fn seg(&mut self, tag: Option<SegTag>, ev: SegEv) {
        if Self::Obs::ENABLED {
            if let Some(tag) = tag {
                self.obs().seg(tag, ev);
            }
        }
    }
}

impl<K: KernelPart> KernelCtx for K {
    type Kernel = K;
    type Obs = NoopObserver;

    #[inline]
    fn parts(&mut self) -> (&mut K, &mut NoopObserver, PathLabel) {
        // `NoopObserver` is zero-sized: boxing it allocates nothing and
        // leaking it leaks nothing.
        (self, Box::leak(Box::new(NoopObserver)), PathLabel::NonIlp)
    }
}

/// A backend bundled with a live observer — see [`observed`].
#[derive(Debug)]
pub struct Observed<'a, K, O> {
    /// The backend.
    pub kernel: &'a mut K,
    /// The observer.
    pub obs: &'a mut O,
    /// The data path spans report under.
    pub path: PathLabel,
}

/// The observed [`KernelCtx`]: calls made through it report to `obs`
/// under `path`, e.g. `conn.poll_input(m, &mut observed(lb, obs, path))`.
pub fn observed<'a, K: KernelPart, O: SpanObserver>(
    kernel: &'a mut K,
    obs: &'a mut O,
    path: PathLabel,
) -> Observed<'a, K, O> {
    Observed { kernel, obs, path }
}

impl<K: KernelPart, O: SpanObserver> KernelCtx for Observed<'_, K, O> {
    type Kernel = K;
    type Obs = O;

    #[inline]
    fn parts(&mut self) -> (&mut K, &mut O, PathLabel) {
        (self.kernel, self.obs, self.path)
    }
}
