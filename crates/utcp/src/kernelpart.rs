//! The kernel part: datagram transport + demultiplexing + loop-back.
//!
//! The paper's user-level TCP splits into a per-application library (the
//! protocol machine, [`crate::conn::Connection`]) and a kernel component
//! with "similar functionality as UDP without checksum" (§3.1): on send
//! it passes TPDUs to IP, on receive it demultiplexes IP packets to the
//! user-level TCP connection of the right application. The experiments
//! ran over loop-back on a single machine — [`Loopback`] models exactly
//! that: datagrams are copied into kernel buffer slots (the send-side
//! *system copy*), queued per destination port, and handed to the
//! receiving endpoint (whose receive-side system copy is performed by
//! the connection).
//!
//! [`FaultPlan`] injects faults for the retransmission tests — the
//! loop-back of the paper never loses packets, but the TCP above it must
//! still be a real TCP. Two composable modes:
//!
//! * **deterministic every-nth knobs** (`drop_every`, …): the original
//!   counting faults, phase-locked to the datagram counter;
//! * **seeded probabilistic mode** ([`FaultPlan::seeded`]): per-datagram
//!   drop/duplicate/reorder/corrupt/delay probabilities drawn from a
//!   [`FaultDice`] stream (the workspace's xorshift64*, see
//!   [`crate::rng`]), so a single u64 seed fully determines every fault
//!   decision of a run — the substrate of the deterministic simulation
//!   tests in `crates/sim`.

use crate::backend::{KernelCounters, KernelPart};
use crate::demux::PortDemux;
use crate::ip::{Ipv4Header, IP_HEADER_LEN};
use crate::wire::TCP_HEADER_LEN;
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};

/// Identifies a registered endpoint (index into a backend's tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointId(usize);

impl EndpointId {
    /// Build a handle from a raw table index. For
    /// [`crate::backend::KernelPart`] implementors outside this crate
    /// (e.g. the socket backends in `netback`); handles are only
    /// meaningful to the backend that issued them.
    pub fn from_index(index: usize) -> Self {
        EndpointId(index)
    }

    /// The raw table index this handle wraps.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A datagram sitting in a kernel buffer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Datagram {
    /// Address of the first byte (the IPv4 header) in the kernel buffer.
    pub addr: usize,
    /// Total length: IP header + TCP header + payload.
    pub len: usize,
}

/// Per-datagram fault probabilities in parts per 65536 (`u16::MAX` ≈
/// certain, `6554` ≈ 10 %). All-zero means the probabilistic mode is
/// off and the [`FaultDice`] stream is never consulted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultProbs {
    /// Probability a datagram is dropped.
    pub drop: u16,
    /// Probability a delivered datagram is duplicated.
    pub dup: u16,
    /// Probability a delivered datagram is swapped with its queue
    /// predecessor.
    pub reorder: u16,
    /// Probability one payload bit of a *data-bearing* datagram is
    /// flipped (pure ACKs are exempt, as with `corrupt_every`).
    pub corrupt: u16,
    /// Probability a datagram is held back and released only after
    /// 1–8 further datagrams have entered the kernel part.
    pub delay: u16,
}

impl FaultProbs {
    /// Whether any probabilistic fault can fire.
    pub fn any(&self) -> bool {
        self.drop | self.dup | self.reorder | self.corrupt | self.delay != 0
    }
}

/// Deterministic fault injection for tests: counting every-nth knobs
/// plus the seeded probabilistic mode ([`FaultPlan::seeded`]). Both can
/// be active at once; the every-nth decision is ORed with the dice roll
/// per fault kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Drop every `n`-th datagram (1-based count; 0 = never).
    pub drop_every: usize,
    /// Duplicate every `n`-th datagram (0 = never).
    pub dup_every: usize,
    /// Swap every `n`-th datagram with its successor (0 = never).
    pub reorder_every: usize,
    /// Flip one payload bit of every `n`-th *data-bearing* datagram
    /// (0 = never). Pure ACKs are exempt: the paper's profile verifies
    /// the TCP checksum only on data segments, so a corrupted ACK would
    /// model a failure this stack never detects. (Option-bearing ACKs
    /// *do* count as data-bearing — their option area is covered by the
    /// TCP checksum, and the receiving sender verifies it.)
    pub corrupt_every: usize,
    /// Drop a one-shot window of datagrams by absolute send count:
    /// datagrams `drop_at ..= drop_at + drop_burst - 1` (1-based count;
    /// 0 = never). Unlike `drop_every` this targets *specific*
    /// datagrams, which is what the loss-recovery reproducers need
    /// ("drop exactly the third segment of the run").
    pub drop_at: u64,
    /// Width of the `drop_at` window (0 is treated as 1).
    pub drop_burst: u64,
    /// Seed of the probabilistic fault stream. Only consulted when
    /// `probs` has a non-zero knob; a zero seed is valid (the generator
    /// remaps it, see [`crate::rng::XorShift64::new`]).
    pub seed: u64,
    /// Per-datagram fault probabilities.
    pub probs: FaultProbs,
}

impl FaultPlan {
    /// A purely probabilistic plan: every fault decision of the run is
    /// a function of `seed` and the datagram arrival order.
    pub fn seeded(seed: u64, probs: FaultProbs) -> Self {
        FaultPlan { seed, probs, ..Default::default() }
    }
}

/// The seeded per-datagram fault stream.
///
/// **Draw order contract** (what makes a seed reproducible anywhere,
/// including outside the kernel part): for every datagram entering
/// [`Loopback`]'s `send` while `probs.any()`, exactly five rolls are drawn
/// in the order *drop, corrupt, delay, dup, reorder* — regardless of
/// which faults are enabled or fire — plus one extra
/// [`FaultDice::delay_ticks`] draw immediately after a delay roll hits.
/// Tests and the simulation runner can therefore replay or predict the
/// exact decision sequence from the seed alone.
#[derive(Debug, Clone)]
pub struct FaultDice {
    rng: crate::rng::XorShift64,
}

impl FaultDice {
    /// Start the stream for `seed`.
    pub fn new(seed: u64) -> Self {
        FaultDice { rng: crate::rng::XorShift64::new(seed) }
    }

    /// One Bernoulli roll with probability `p`/65536. Always consumes
    /// one draw, even for `p == 0`, to keep the stream position a pure
    /// function of the datagram count.
    pub fn roll(&mut self, p: u16) -> bool {
        ((self.rng.next_u64() >> 48) as u16) < p
    }

    /// How many subsequent datagrams a delayed one is held behind
    /// (uniform in 1..=8).
    pub fn delay_ticks(&mut self) -> u64 {
        1 + self.rng.below(8)
    }

    /// The five per-datagram decisions, in draw order. `has_payload`
    /// masks corruption (ACK exemption) *after* the roll is consumed.
    pub fn decide(&mut self, probs: &FaultProbs, has_payload: bool) -> FaultDecision {
        let drop = self.roll(probs.drop);
        let corrupt = self.roll(probs.corrupt) && has_payload;
        let delay = self.roll(probs.delay);
        let dup = self.roll(probs.dup);
        let reorder = self.roll(probs.reorder);
        let delay_by = if delay && !drop { self.delay_ticks() } else { 0 };
        FaultDecision { drop, corrupt, delay_by, dup, reorder }
    }
}

/// What the dice decided for one datagram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Drop the datagram.
    pub drop: bool,
    /// Flip one payload bit.
    pub corrupt: bool,
    /// Hold the datagram back this many send events (0 = deliver now).
    pub delay_by: u64,
    /// Enqueue a second copy.
    pub dup: bool,
    /// Swap with the queue predecessor.
    pub reorder: bool,
}

/// A datagram held back by the delay fault, due for release once the
/// kernel part's send counter reaches `due`.
#[derive(Debug, Clone, Copy)]
struct Delayed {
    due: u64,
    dst_port: u16,
    datagram: Datagram,
    /// Trace context riding beside the datagram (see `Loopback::send_ctx`).
    tag: Option<obs::SegTag>,
}

/// Kernel buffer slot size and link MTU of every kernel part: room for
/// the IPv4 header and the largest paper TPDU.
pub const SLOT_LEN: usize = 2048;

/// The send-side system copy of every kernel part, inside the caller's
/// `System` phase: the IPv4 header (the next `ident`) built at
/// `datagram`, the TCP header and payload copied in behind it, and the
/// trap path's bookkeeping. Returns the datagram's length; panics if it
/// would not fit a [`SLOT_LEN`] slot.
#[allow(clippy::too_many_arguments)]
pub fn system_copy<M: Mem>(m: &mut M, datagram: usize, src_ip: u32, dst_ip: u32, ident: &mut u16,
    hdr_addr: usize, payload_addr: usize, payload_len: usize) -> usize {
    let tcp_total = TCP_HEADER_LEN + payload_len;
    assert!(IP_HEADER_LEN + tcp_total <= SLOT_LEN, "segment exceeds kernel slot / link MTU");
    Ipv4Header::at(datagram).build(m, src_ip, dst_ip, tcp_total, *ident, 0, false, 64);
    *ident = ident.wrapping_add(1);
    m.copy(hdr_addr, datagram + IP_HEADER_LEN, TCP_HEADER_LEN);
    if payload_len > 0 {
        m.copy(payload_addr, datagram + IP_HEADER_LEN + TCP_HEADER_LEN, payload_len);
    }
    m.compute(30); // trap/syscall bookkeeping, not modelled per-access
    IP_HEADER_LEN + tcp_total
}

/// The in-process loop-back network + kernel buffers.
#[derive(Debug)]
pub struct Loopback {
    slots: Region,
    n_slots: usize,
    next_slot: usize,
    /// Per-port receive queues.
    demux: PortDemux,
    fault: FaultPlan,
    /// Instruction footprint of the trap/IP/driver path, executed per
    /// datagram — the code that competes with the protocol loops for the
    /// I-cache (decisive on the Alpha's 8 KB I-cache, §4.2).
    code_os: CodeRegion,
    /// Data working set of the kernel + scheduler + the *other* process
    /// touched on every crossing. The paper ran sender and receiver as
    /// two processes on one CPU: each loop-back packet context-switches
    /// through the kernel, evicting a large share of the data cache —
    /// which is why even the non-ILP implementation's passes run partly
    /// cold (§4.2's high absolute miss counts). The walk over it is
    /// `SimMem`'s model of that switch ([`Mem::foreign_working_set`]);
    /// a native run has no second process and skips it, but the region
    /// stays allocated so every simulated address stays where it is.
    os_data: Region,
    /// IP identification counter.
    next_ident: u16,
    sent: u64,
    /// The seeded probabilistic fault stream (instantiated by
    /// [`Loopback::set_faults`] when the plan carries probabilities).
    dice: Option<FaultDice>,
    /// Datagrams held back by the delay fault, awaiting release. The
    /// kernel slot a delayed datagram points into may be recycled while
    /// it waits — exactly a NIC ring overrun; the TCP checksum catches
    /// the clobber and retransmission recovers.
    delayed: Vec<Delayed>,
    /// Datagrams dropped by fault injection.
    pub dropped: u64,
    /// Datagrams bit-flipped by fault injection.
    pub corrupted: u64,
    /// Datagrams duplicated by fault injection.
    pub duplicated: u64,
    /// Datagrams swapped with a predecessor by fault injection.
    pub reordered: u64,
    /// Datagrams held back by the delay fault.
    pub delayed_count: u64,
    /// Datagrams that arrived for a port nobody listens on.
    pub unroutable: u64,
    /// Datagrams handed out by `recv_into`.
    pub received: u64,
    /// Trace context armed for the next `send` (out-of-band
    /// segment-trace propagation; see [`KernelPart::set_send_ctx`]).
    send_ctx: Option<obs::SegTag>,
    /// Trace context that rode beside the last datagram `recv_into`
    /// handed out, awaiting `take_recv_ctx`.
    last_ctx: Option<obs::SegTag>,
}

/// Default number of kernel buffer slots.
const DEFAULT_SLOTS: usize = 64;

impl Loopback {
    /// Allocate the kernel buffer area in `space` with the default pool
    /// (64 slots — ample for the paper's single connection pair).
    pub fn new(space: &mut AddressSpace) -> Self {
        Self::with_capacity(space, DEFAULT_SLOTS)
    }

    /// Allocate the kernel buffer area with `n_slots` buffer slots. A
    /// server multiplexing N connections keeps up to a few datagrams per
    /// connection queued between scheduling rounds; size the pool so
    /// slot recycling (which blindly reuses the oldest slot) cannot
    /// overwrite a datagram still waiting in a queue. Should the pool
    /// still overrun, the overwritten datagram fails its TCP checksum at
    /// the receiver and retransmission recovers — the same story as a
    /// real NIC ring overrun.
    pub fn with_capacity(space: &mut AddressSpace, n_slots: usize) -> Self {
        assert!(n_slots > 0, "kernel slot pool cannot be empty");
        let slots = space.alloc_kind("kernel_slots", SLOT_LEN * n_slots, 64, RegionKind::Kernel);
        let code_os = space.alloc_code("os_ip_driver", 6 * 1024);
        // 16 KB region walked at every-other-line stride: the kernel +
        // scheduler + peer process working set is scattered across the
        // whole cache index space, evicting ~half of every buffer's
        // lines per crossing instead of one contiguous alias window.
        let os_data = space.alloc_kind("os_working_set", 16 * 1024, 64, RegionKind::Kernel);
        Loopback {
            slots,
            n_slots,
            next_slot: 0,
            demux: PortDemux::default(),
            fault: FaultPlan::default(),
            code_os,
            os_data,
            next_ident: 1,
            sent: 0,
            dice: None,
            delayed: Vec::new(),
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
            reordered: 0,
            delayed_count: 0,
            unroutable: 0,
            received: 0,
            send_ctx: None,
            last_ctx: None,
        }
    }

    /// Number of kernel buffer slots in the pool.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Install a fault plan (tests only). Re-seeds the probabilistic
    /// stream from `fault.seed`, so installing the same plan twice
    /// replays the same fault sequence.
    pub fn set_faults(&mut self, fault: FaultPlan) {
        self.fault = fault;
        self.dice = fault.probs.any().then(|| FaultDice::new(fault.seed));
    }

    /// Total datagrams accepted for transmission.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Enqueue a datagram at its destination port, applying the
    /// duplicate/reorder verdicts. `tag` is the trace context riding
    /// beside the datagram; it stays in lockstep with the queue through
    /// duplication (both copies carry it) and reordering (the swap
    /// swaps both queues).
    fn deliver(
        &mut self,
        datagram: Datagram,
        dst_port: u16,
        dup: bool,
        reorder: bool,
        tag: Option<obs::SegTag>,
    ) {
        let Some(id) = self.demux.route(dst_port) else {
            self.unroutable += 1;
            return;
        };
        self.demux.push(id, datagram, tag);
        if dup {
            self.demux.push(id, datagram, tag);
            self.duplicated += 1;
        }
        if reorder && self.demux.swap_newest(id) {
            self.reordered += 1;
        }
    }

    /// Move every delay-fault datagram whose hold expired into its
    /// destination queue. Release is driven by send events only: a
    /// delayed datagram stays held until *something* else enters the
    /// kernel part — and something always does, because an unacked
    /// segment keeps the sender's RTO firing, so delay can slow a
    /// transfer but never deadlock it.
    fn release_due(&mut self) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].due <= self.sent {
                let d = self.delayed.swap_remove(i);
                self.deliver(d.datagram, d.dst_port, false, false, d.tag);
            } else {
                i += 1;
            }
        }
    }

    /// Datagrams currently held back by the delay fault.
    pub fn delayed_pending(&self) -> usize {
        self.delayed.len()
    }
}

impl KernelPart for Loopback {
    fn register(&mut self, port: u16) -> EndpointId {
        self.demux.register(port)
    }

    /// The endpoint slot is retained — outstanding [`EndpointId`]
    /// handles stay valid for draining whatever was queued before the
    /// release — but new arrivals count as unroutable until the port is
    /// registered again.
    fn unregister(&mut self, port: u16) {
        self.demux.unregister(port);
    }

    /// Send a segment: the **send-side system copy** of header + payload
    /// from user memory into a kernel slot, IP encapsulation ("pass the
    /// messages received from the user-level TCP to IP"), then
    /// demultiplexing into the destination port's queue. `payload_len`
    /// may be zero (pure ACK).
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
        let ctx = self.send_ctx.take();
        let slot = self.slots.at(self.next_slot * SLOT_LEN);
        self.next_slot = (self.next_slot + 1) % self.n_slots;
        // Kernel work: accounted to the System phase, not to
        // packet-processing time.
        m.phase_push(memsim::mem::PhaseTag::System);
        let total = system_copy(m, slot, src_ip, dst_ip, &mut self.next_ident, hdr_addr, payload_addr, payload_len);
        m.fetch(self.code_os);
        // Context switch: the kernel + scheduler + peer process touch
        // their own working set, evicting protocol data from the cache.
        // `SimMem` books the walk; natively there is no switch to model.
        m.foreign_working_set(self.os_data);
        m.phase_pop();
        self.sent += 1;
        // Release delay-fault datagrams whose hold has expired — before
        // the current datagram enqueues, so a released datagram lands in
        // front of it (it was sent earlier).
        self.release_due();

        // Fault injection: the deterministic every-nth knobs OR the
        // seeded dice, per fault kind.
        let n = self.sent as usize;
        let fault = self.fault;
        let every = |k: usize| k != 0 && n.is_multiple_of(k);
        let decision = match &mut self.dice {
            Some(dice) => dice.decide(&fault.probs, payload_len > 0),
            None => FaultDecision::default(),
        };
        let one_shot_drop = fault.drop_at != 0
            && self.sent >= fault.drop_at
            && self.sent < fault.drop_at + fault.drop_burst.max(1);
        if decision.drop || every(fault.drop_every) || one_shot_drop {
            self.dropped += 1;
            return;
        }
        if payload_len > 0 && (decision.corrupt || every(fault.corrupt_every)) {
            // Flip one bit in the middle of the TPDU payload — past both
            // headers, so the IP header still verifies and the damage is
            // the TCP checksum's to catch.
            let addr = slot + IP_HEADER_LEN + TCP_HEADER_LEN + payload_len / 2;
            m.phase_push(memsim::mem::PhaseTag::System);
            let b = m.read_u8(addr);
            m.write_u8(addr, b ^ 0x04);
            m.phase_pop();
            self.corrupted += 1;
        }
        let datagram = Datagram { addr: slot, len: total };
        if decision.delay_by > 0 {
            self.delayed_count += 1;
            self.delayed.push(Delayed { due: self.sent + decision.delay_by, dst_port, datagram, tag: ctx });
            return;
        }
        self.deliver(
            datagram,
            dst_port,
            decision.dup || every(fault.dup_every),
            decision.reorder || every(fault.reorder_every),
            ctx,
        );
    }

    fn recv_into<M: Mem>(&mut self, _m: &mut M, id: EndpointId) -> Option<Datagram> {
        let (datagram, tag) = self.demux.pop(id)?;
        self.last_ctx = tag;
        self.received += 1;
        Some(datagram)
    }

    fn pending(&self, id: EndpointId) -> usize {
        self.demux.pending(id)
    }

    fn counters(&self) -> KernelCounters {
        KernelCounters {
            sent: self.sent,
            received: self.received,
            dropped: self.dropped,
            corrupted: self.corrupted,
            unroutable: self.unroutable,
            would_block: 0,
            queue_peak: self.demux.peak_queued() as u64,
            queue_capacity: self.n_slots as u64,
        }
    }

    /// The tag rides in the demultiplexer's side-table beside the
    /// datagram — never in the wire bytes — and is consumed by the next
    /// `send` whether the datagram is delivered, dropped, delayed or
    /// duplicated.
    fn set_send_ctx(&mut self, ctx: Option<obs::SegTag>) {
        self.send_ctx = ctx;
    }

    fn take_recv_ctx(&mut self) -> Option<obs::SegTag> {
        self.last_ctx.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NativeMem;

    fn fixture() -> (AddressSpace, Loopback, Region) {
        let mut space = AddressSpace::new();
        let lb = Loopback::new(&mut space);
        let user = space.alloc("user", 4096, 8);
        (space, lb, user)
    }

    #[test]
    fn send_copies_and_demultiplexes() {
        let (space, mut lb, user) = fixture();
        let rx = lb.register(80);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for i in 0..TCP_HEADER_LEN {
            m.write_u8(user.at(i), i as u8);
        }
        for i in 0..8 {
            m.write_u8(user.at(64 + i), 0xA0 + i as u8);
        }
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 8);
        let d = lb.recv_into(&mut m, rx).expect("delivered");
        assert_eq!(d.len, IP_HEADER_LEN + TCP_HEADER_LEN + 8);
        // IP header first, then the TCP header bytes, then the payload.
        let ip = Ipv4Header::at(d.addr);
        assert!(ip.verify(&mut m));
        assert_eq!(ip.total_len(&mut m), d.len);
        assert_eq!(m.bytes(d.addr + IP_HEADER_LEN, 4), &[0, 1, 2, 3]);
        assert_eq!(
            m.bytes(d.addr + IP_HEADER_LEN + TCP_HEADER_LEN, 8),
            &[0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7]
        );
        assert!(lb.recv_into(&mut m, rx).is_none());
        let c = lb.counters();
        assert_eq!((c.sent, c.received, c.queue_peak), (1, 1, 1));
        assert_eq!(c.queue_capacity, 64, "default slot pool");
        assert_eq!((c.dropped, c.corrupted, c.unroutable), (0, 0, 0), "no faults");
        assert_eq!(c.would_block, 0, "loop-back queues are exact");
    }

    #[test]
    fn unknown_port_counted_unroutable() {
        let (space, mut lb, user) = fixture();
        let _rx = lb.register(80);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        lb.send(&mut m, 1, 2, 81, user.at(0), user.at(64), 0);
        assert_eq!(lb.unroutable, 1);
        assert_eq!(lb.counters().unroutable, 1);
    }

    #[test]
    fn drop_every_third() {
        let (space, mut lb, user) = fixture();
        let rx = lb.register(80);
        lb.set_faults(FaultPlan { drop_every: 3, ..Default::default() });
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for _ in 0..9 {
            lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 4);
        }
        assert_eq!(lb.dropped, 3);
        assert_eq!(lb.pending(rx), 6);
    }

    #[test]
    fn duplicate_and_reorder() {
        let (space, mut lb, user) = fixture();
        let rx = lb.register(80);
        lb.set_faults(FaultPlan { dup_every: 2, ..Default::default() });
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 0);
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 0);
        assert_eq!(lb.pending(rx), 3); // second duplicated

        let (s2, mut l2, u2) = fixture();
        let r2 = l2.register(90);
        l2.set_faults(FaultPlan { reorder_every: 2, ..Default::default() });
        let mut a2 = s2.native_arena();
        let mut m2 = NativeMem::new(&mut a2);
        m2.write_u8(u2.at(0), 1);
        l2.send(&mut m2, 1, 2, 90, u2.at(0), u2.at(64), 0);
        m2.write_u8(u2.at(0), 2);
        l2.send(&mut m2, 1, 2, 90, u2.at(0), u2.at(64), 0);
        let first = l2.recv_into(&mut m2, r2).unwrap();
        // Reordered: the second-sent datagram comes out first.
        assert_eq!(m2.bytes(first.addr + IP_HEADER_LEN, 1)[0], 2);
    }

    #[test]
    fn drop_at_targets_an_exact_send_window() {
        let (space, mut lb, user) = fixture();
        let rx = lb.register(80);
        lb.set_faults(FaultPlan { drop_at: 3, drop_burst: 2, ..Default::default() });
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for _ in 0..6 {
            lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 4);
        }
        assert_eq!(lb.dropped, 2, "exactly datagrams 3 and 4 dropped");
        assert_eq!(lb.pending(rx), 4);
    }

    #[test]
    fn corrupt_every_flips_one_payload_bit() {
        let (space, mut lb, user) = fixture();
        let rx = lb.register(80);
        lb.set_faults(FaultPlan { corrupt_every: 2, ..Default::default() });
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for i in 0..16u8 {
            m.write_u8(user.at(64 + i as usize), i);
        }
        // First datagram untouched, second corrupted; ACKs (no payload)
        // are exempt even when the counter fires.
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 16);
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 16);
        assert_eq!(lb.corrupted, 1);
        let clean = lb.recv_into(&mut m, rx).unwrap();
        let dirty = lb.recv_into(&mut m, rx).unwrap();
        let payload = |d: &Datagram, m: &mut NativeMem<'_>| {
            m.bytes(d.addr + IP_HEADER_LEN + TCP_HEADER_LEN, 16).to_vec()
        };
        let a = payload(&clean, &mut m);
        let b = payload(&dirty, &mut m);
        assert_eq!(a, (0..16u8).collect::<Vec<_>>());
        let diffs: Vec<usize> = (0..16).filter(|&i| a[i] != b[i]).collect();
        assert_eq!(diffs, vec![8], "exactly the middle byte differs");
        assert_eq!(a[8] ^ b[8], 0x04, "exactly one bit flipped");
        // IP header of the corrupted datagram still verifies.
        assert!(Ipv4Header::at(dirty.addr).verify(&mut m));
        // Pure ACK at the fault cadence: not corrupted.
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 0);
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 0);
        assert_eq!(lb.corrupted, 1);
    }

    #[test]
    fn seeded_mode_is_reproducible() {
        let probs =
            FaultProbs { drop: 0x2000, dup: 0x2000, reorder: 0x2000, corrupt: 0x2000, delay: 0x1000 };
        let run = |seed: u64| {
            let (space, mut lb, user) = fixture();
            let rx = lb.register(80);
            lb.set_faults(FaultPlan::seeded(seed, probs));
            let mut arena = space.native_arena();
            let mut m = NativeMem::new(&mut arena);
            for i in 0..200usize {
                // Alternate data segments and pure ACKs so the
                // has_payload masking is exercised too.
                lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), if i % 3 == 0 { 0 } else { 8 });
            }
            (
                lb.dropped,
                lb.corrupted,
                lb.duplicated,
                lb.reordered,
                lb.delayed_count,
                lb.delayed_pending(),
                lb.pending(rx),
            )
        };
        assert_eq!(run(0xD57), run(0xD57), "one seed, one fault history");
    }

    #[test]
    fn seeded_drops_follow_the_documented_draw_order() {
        // Replay the dice outside the kernel part using the public
        // draw-order contract and predict exactly which datagrams drop.
        let seed = 77;
        let probs = FaultProbs { drop: 0x8000, ..Default::default() };
        let (space, mut lb, user) = fixture();
        let rx = lb.register(80);
        lb.set_faults(FaultPlan::seeded(seed, probs));
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut dice = FaultDice::new(seed);
        let mut predicted_drops = 0u64;
        for _ in 0..100 {
            if dice.decide(&probs, true).drop {
                predicted_drops += 1;
            }
            lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 8);
        }
        assert!(predicted_drops > 20, "50% drop over 100 sends");
        assert_eq!(lb.dropped, predicted_drops);
        assert_eq!(lb.pending(rx), (100 - predicted_drops) as usize);
    }

    #[test]
    fn delayed_datagrams_are_released_by_later_sends() {
        let (space, mut lb, user) = fixture();
        let rx = lb.register(80);
        lb.set_faults(FaultPlan::seeded(9, FaultProbs { delay: u16::MAX, ..Default::default() }));
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 8);
        // Held or (with probability 2^-16) delivered — but never lost.
        assert_eq!(lb.delayed_pending() + lb.pending(rx), 1);
        // Clearing the plan keeps already-held datagrams pending; each
        // further send advances the clock and releases due ones (the
        // hold is at most 8 sends).
        lb.set_faults(FaultPlan::default());
        for _ in 0..10 {
            lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 8);
        }
        assert_eq!(lb.delayed_pending(), 0);
        assert_eq!(lb.pending(rx), 11, "delayed datagram delivered, nothing lost");
    }

    #[test]
    fn seeded_corruption_exempts_pure_acks() {
        let (space, mut lb, user) = fixture();
        let _rx = lb.register(80);
        lb.set_faults(FaultPlan::seeded(3, FaultProbs { corrupt: u16::MAX, ..Default::default() }));
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for _ in 0..32 {
            lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 0);
        }
        assert_eq!(lb.corrupted, 0, "pure ACKs are never corrupted");
        for _ in 0..32 {
            lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 16);
        }
        assert!(lb.corrupted >= 30, "near-certain corruption on data segments");
    }

    #[test]
    fn slots_recycle_round_robin() {
        let (space, mut lb, user) = fixture();
        let rx = lb.register(80);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut addrs = std::collections::HashSet::new();
        for _ in 0..DEFAULT_SLOTS {
            lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 0);
            addrs.insert(lb.recv_into(&mut m, rx).unwrap().addr);
        }
        assert_eq!(addrs.len(), DEFAULT_SLOTS);
        // The next send reuses the first slot.
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 0);
        assert!(addrs.contains(&lb.recv_into(&mut m, rx).unwrap().addr));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_port_rejected() {
        let (_space, mut lb, _user) = fixture();
        lb.register(80);
        lb.register(80);
    }

    #[test]
    fn system_copy_is_counted() {
        use memsim::{AccessCounts, HostModel, RegionKind, SimMem, SizeClass};
        let mut space = AddressSpace::new();
        let mut lb = Loopback::new(&mut space);
        let _rx = lb.register(80);
        let user = space.alloc("user", 4096, 8);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        lb.send(&mut m, 1, 2, 80, user.at(0), user.at(64), 100);
        let (user_phase, s) = m.take_phase_stats();
        let by_size = |c: AccessCounts| SizeClass::all().map(|z| c.by_size(z));
        // The simulated program of one send, exactly: a native shortcut
        // must not move one count. All of it is kernel work; counts are
        // per size class [B1, B2, B4, B8]:
        assert_eq!(user_phase.data_accesses(), 0);
        // the TCP header (5 words) and the 100-byte payload (25 words)
        // read from user memory,
        assert_eq!(by_size(s.reads_for(RegionKind::Buffer)), [0, 0, 30, 0]);
        // the context-switch walk (16 KiB, one word per 64-byte line) and
        // the IP checksum pass over the header just built,
        assert_eq!(by_size(s.reads_for(RegionKind::Kernel)), [0, 0, 16 * 1024 / 64 + 5, 0]);
        // the IP header's 11 stores, then the 30 copied words,
        assert_eq!(by_size(s.writes_for(RegionKind::Kernel)), [4, 5, 2 + 30, 0]);
        assert_eq!(by_size(s.writes_for(RegionKind::Buffer)), [0; 4]);
        // and the trap path's ALU operations and instruction footprint.
        assert_eq!((s.compute_ops, s.fetch_bytes), (62, 6 * 1024));
    }
}
