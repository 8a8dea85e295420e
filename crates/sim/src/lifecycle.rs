//! Connection-lifecycle oracles: RFC 793 teardown under deterministic
//! faults.
//!
//! The transfer sweep proves every faulted run *delivers*; these worlds
//! prove every run also *dies correctly*:
//!
//! * **legal-transition matrix**: every observed state change must be
//!   reachable in the RFC 793 successor graph ([`reachable`]) — within
//!   one tracked run `Closed` is terminal and TIME_WAIT never
//!   resurrects (reopen is deliberately excluded from the matrix);
//! * **post-FIN freeze**: once a FIN is accepted, `rcv_nxt` is pinned
//!   at `fin + 1` forever and the accepted-segment counter never moves
//!   again — the property the [`utcp`] accept-after-FIN mutation
//!   violates, so the sweep proves these oracles have teeth;
//! * **flight accounting**: `in_flight` equals the ring's buffered
//!   bytes *plus* the unacknowledged FIN's sequence slot;
//! * **liveness**: under seeded loss/reorder/dup/corrupt faults both
//!   sides of every teardown must still reach `Closed` within a tick
//!   bound, and the closer must sit out its full 2·MSL quiet time;
//! * **pinned teardown worlds**: clean close, simultaneous close,
//!   half-closed drain, FIN lost → timer-retransmitted, RST storm, and
//!   stale-data-after-FIN — each pinning the *mechanism*, not just the
//!   outcome.
//!
//! [`run_churn`] drives connect → transfer → close → reopen waves over
//! the full [`server::ScaleHarness`] (SYN handshakes included), with
//! the per-tick [`crate::oracle::Tracker`] live throughout and ports
//! actively recycled between waves — the workload behind the
//! `exp_churn` benchmark.

use checksum::internet::checksum_buf;
use memsim::layout::AddressSpace;
use memsim::region::Region;
use memsim::{Mem, NativeMem};
use obs::NoopObserver;
use server::{Path, RoundRobin, ScaleHarness, ServerConfig};
use utcp::rng::XorShift64;
use utcp::{Connection, FaultPlan, FaultProbs, Loopback, State, UtcpConfig, MSL_TICKS};

use crate::oracle::Tracker;
use crate::shrink::{calmer, caught, shrink};

/// Ticks a teardown world may spend before the liveness oracle fails.
const LIVENESS_LIMIT: u64 = 30_000;

/// Single-step successors in the RFC 793 state machine as this stack
/// implements it (SYN states exist for completeness — raw worlds are
/// born `Established`; the harness handshake runs above TCP).
fn successors(s: State) -> &'static [State] {
    use State::*;
    match s {
        Listen => &[SynSent, SynRcvd, Closed],
        SynSent => &[SynRcvd, Established, Closed],
        SynRcvd => &[Established, FinWait1, CloseWait, Closed],
        Established => &[FinWait1, CloseWait, Closed],
        FinWait1 => &[FinWait2, Closing, TimeWait, Closed],
        FinWait2 => &[TimeWait, Closed],
        Closing => &[TimeWait, Closed],
        CloseWait => &[LastAck, Closed],
        LastAck => &[Closed],
        TimeWait => &[Closed],
        Closed => &[],
    }
}

fn idx(s: State) -> usize {
    s as usize
}

/// Whether `to` is a legal *single* RFC 793 step from `from`.
pub fn legal_step(from: State, to: State) -> bool {
    successors(from).contains(&to)
}

/// Whether `to` is reachable from `from` through any number of legal
/// steps (one oracle observation may span several transitions — a
/// single `poll_input` call can consume a whole queue of control
/// segments). Reflexive. `Closed` reaches nothing: reopen is excluded
/// on purpose, so a resurrected TIME_WAIT or Closed connection is an
/// oracle failure, not a path.
pub fn reachable(from: State, to: State) -> bool {
    if from == to {
        return true;
    }
    let mut seen = [false; 11];
    let mut stack = vec![from];
    while let Some(s) = stack.pop() {
        for &n in successors(s) {
            if n == to {
                return true;
            }
            if !seen[idx(n)] {
                seen[idx(n)] = true;
                stack.push(n);
            }
        }
    }
    false
}

/// Previous observation of one connection side.
#[derive(Debug, Clone, Copy)]
struct Prev {
    state: State,
    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    accepted: u64,
    fin_rcvd: Option<u32>,
}

/// Per-tick lifecycle oracle over one raw connection pair.
#[derive(Debug, Default)]
pub struct PairTracker {
    prev: [Option<Prev>; 2],
    /// Bitmask of states each side was *observed* in (`1 << state
    /// index`); multi-transition polls may skip through unobserved
    /// states, so assertions on this are necessarily one-sided.
    pub visited: [u16; 2],
    /// Individual oracle evaluations performed.
    pub checks: u64,
}

fn advanced(prev: u32, now: u32) -> bool {
    (now.wrapping_sub(prev) as i32) >= 0
}

impl PairTracker {
    /// A fresh tracker (both sides unobserved).
    pub fn new() -> PairTracker {
        PairTracker::default()
    }

    /// Whether `side` (0 = tx, 1 = rx) was ever observed in `s`.
    pub fn saw(&self, side: usize, s: State) -> bool {
        self.visited[side] & (1 << idx(s)) != 0
    }

    /// Run the lifecycle oracles over both sides.
    pub fn check(&mut self, tx: &Connection, rx: &Connection) -> Result<(), String> {
        self.check_one(0, tx).map_err(|e| format!("tx side: {e}"))?;
        self.check_one(1, rx).map_err(|e| format!("rx side: {e}"))
    }

    fn check_one(&mut self, side: usize, c: &Connection) -> Result<(), String> {
        let now = c.state();
        self.visited[side] |= 1 << idx(now);
        let prev = self.prev[side].get_or_insert(Prev {
            state: now,
            snd_una: c.snd_una(),
            snd_nxt: c.snd_nxt(),
            rcv_nxt: c.rcv_nxt(),
            accepted: c.stats.accepted,
            fin_rcvd: c.fin_rcvd_seq(),
        });
        if !reachable(prev.state, now) {
            return Err(format!(
                "illegal lifecycle transition {} -> {}",
                prev.state.name(),
                now.name()
            ));
        }
        if !advanced(prev.snd_una, c.snd_una()) {
            return Err("snd_una went backwards".into());
        }
        if !advanced(prev.snd_nxt, c.snd_nxt()) {
            return Err("snd_nxt went backwards".into());
        }
        if !advanced(c.snd_una(), c.snd_nxt()) {
            return Err("snd_una passed snd_nxt".into());
        }
        if !advanced(prev.rcv_nxt, c.rcv_nxt()) {
            return Err("rcv_nxt went backwards".into());
        }
        let in_flight = c.in_flight() as usize;
        let fin = c.fin_in_flight() as usize;
        if in_flight != c.ring().buffered_bytes() + fin {
            return Err(format!(
                "in_flight {in_flight} != ring buffered {} + fin {fin}",
                c.ring().buffered_bytes()
            ));
        }
        if let Some(f) = c.fin_rcvd_seq() {
            if c.rcv_nxt() != f.wrapping_add(1) {
                return Err(format!(
                    "rcv_nxt {:#x} moved past the accepted FIN at {f:#x} — data after FIN",
                    c.rcv_nxt()
                ));
            }
            if prev.fin_rcvd == Some(f) && c.stats.accepted != prev.accepted {
                return Err("segment accepted after the FIN was processed".into());
            }
        }
        c.ring().check_invariants().map_err(|e| format!("ring: {e}"))?;
        *prev = Prev {
            state: now,
            snd_una: c.snd_una(),
            snd_nxt: c.snd_nxt(),
            rcv_nxt: c.rcv_nxt(),
            accepted: c.stats.accepted,
            fin_rcvd: c.fin_rcvd_seq(),
        };
        self.checks += 8;
        Ok(())
    }
}

/// A raw two-connection world: sender → receiver over a faultable
/// loop-back, no handshake (raw connections are born established).
struct PairWorld {
    space: AddressSpace,
    lb: Loopback,
    tx: Connection,
    rx: Connection,
    src: Region,
}

const TX_ISS: u32 = 0x4_1000;
const RX_ISS: u32 = 0x9_5000;

fn pair_world(plan: FaultPlan) -> PairWorld {
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    lb.set_faults(plan);
    let tx_cfg = UtcpConfig { local_port: 1000, peer_port: 2000, ..Default::default() };
    let (tx, rx) = Connection::pair(&mut space, &mut lb, tx_cfg, TX_ISS, RX_ISS);
    let src = space.alloc("lifecycle_src", 4096, 8);
    PairWorld { space, lb, tx, rx, src }
}

/// Deterministic payload pattern (251 is prime, so no chunk-size alias).
fn pattern(i: usize) -> u8 {
    ((i * 7 + 3) % 251) as u8
}

fn fill_src(m: &mut NativeMem<'_>, src: Region, len: usize) {
    for i in 0..len {
        m.write_u8(src.at(i), pattern(i));
    }
}

/// What a teardown world did.
#[derive(Debug, Clone, Copy)]
pub struct TeardownOutcome {
    /// Ticks until both sides reached `Closed`.
    pub ticks: u64,
    /// Payload bytes the receiver accepted in order.
    pub bytes: u64,
    /// Oracle evaluations performed.
    pub checks: u64,
}

/// Script knobs of the generic teardown driver.
#[derive(Debug, Clone, Copy)]
struct Script {
    chunks: usize,
    chunk: usize,
    /// Close both ends in the same tick the last chunk is handed over
    /// (exercises FIN_WAIT_1 → CLOSING).
    simultaneous: bool,
    /// The *receiver* closes before any data moves (half-closed drain:
    /// data keeps flowing into FIN_WAIT_1/2, the sender finishes from
    /// CLOSE_WAIT → LAST_ACK).
    rx_close_first: bool,
}

/// Drive a pair world through transfer + teardown to double-`Closed`,
/// with the lifecycle oracles checked at every phase boundary.
fn drive(w: &mut PairWorld, script: Script, tracker: &mut PairTracker) -> Result<TeardownOutcome, String> {
    let total = script.chunks * script.chunk;
    assert!(total <= w.src.len, "pattern region holds the whole file");
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    fill_src(&mut m, w.src, total);
    if script.rx_close_first {
        w.rx.close(&mut m, &mut w.lb);
    }
    let mut sent = 0usize;
    let mut acc = 0u64;
    for tick in 0..LIVENESS_LIMIT {
        // Sender pump first: ACKs, and — in the half-closed world —
        // the peer's FIN, which must move us to CLOSE_WAIT *before*
        // this tick's send/close decisions. Observe immediately, so a
        // pump-then-close tick can't hide the intermediate state.
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        tracker.check(&w.tx, &w.rx).map_err(|e| format!("tick {tick}: {e}"))?;
        // Hand chunks to the transport as the window allows.
        while sent < script.chunks && w.tx.can_send(script.chunk) {
            w.tx.send_buf(&mut m, &mut w.lb, w.src.at(sent * script.chunk), script.chunk)
                .map_err(|e| format!("tick {tick}: send: {e}"))?;
            sent += 1;
        }
        // Active close once the whole file is queued (FIN rides behind
        // any still-unacknowledged data in sequence space).
        if sent == script.chunks
            && w.tx.fin_sent_seq().is_none()
            && w.tx.state().may_send_data()
        {
            w.tx.close(&mut m, &mut w.lb);
            if script.simultaneous && w.rx.state() == State::Established {
                w.rx.close(&mut m, &mut w.lb);
            }
        }
        tracker.check(&w.tx, &w.rx).map_err(|e| format!("tick {tick}: {e}"))?;
        // Receiver pump: accept in-order data, verify the pattern.
        while let Some(d) = w.rx.poll_input(&mut m, &mut w.lb) {
            let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
            if w.rx.finish_recv(&mut m, &mut w.lb, &d, sum).is_ok() {
                for k in 0..d.payload_len {
                    if m.read_u8(d.payload_addr + k) != pattern(acc as usize + k) {
                        return Err(format!("tick {tick}: accepted byte {k} diverges"));
                    }
                }
                acc += d.payload_len as u64;
            }
        }
        // Passive close: answer the peer's FIN with our own.
        if w.rx.state() == State::CloseWait {
            w.rx.close(&mut m, &mut w.lb);
        }
        tracker.check(&w.tx, &w.rx).map_err(|e| format!("tick {tick}: {e}"))?;
        w.tx.tick(&mut m, &mut w.lb);
        w.rx.tick(&mut m, &mut w.lb);
        tracker.check(&w.tx, &w.rx).map_err(|e| format!("tick {tick}: {e}"))?;
        if w.tx.state() == State::Closed && w.rx.state() == State::Closed {
            return Ok(TeardownOutcome { ticks: tick + 1, bytes: acc, checks: tracker.checks });
        }
    }
    Err(format!(
        "liveness: not both Closed after {LIVENESS_LIMIT} ticks (tx {}, rx {})",
        w.tx.state().name(),
        w.rx.state().name()
    ))
}

/// Pinned world: clean FIN/ACK close after a two-chunk transfer. The
/// active closer alone serves TIME_WAIT, for exactly 2·MSL.
pub fn clean_close() -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default());
    let mut t = PairTracker::new();
    let script = Script { chunks: 2, chunk: 256, simultaneous: false, rx_close_first: false };
    let out = drive(&mut w, script, &mut t)?;
    if out.bytes != 512 {
        return Err(format!("clean close: {} bytes delivered, want 512", out.bytes));
    }
    if t.saw(0, State::Closing) || t.saw(0, State::CloseWait) {
        return Err("clean close: active closer strayed into the simultaneous path".into());
    }
    if t.saw(1, State::TimeWait) {
        return Err("clean close: passive closer must never serve TIME_WAIT".into());
    }
    if w.tx.time_wait_residency() != 2 * u64::from(MSL_TICKS) {
        return Err(format!(
            "clean close: closer served {} ticks of TIME_WAIT, want exactly {}",
            w.tx.time_wait_residency(),
            2 * MSL_TICKS
        ));
    }
    if w.tx.stats.fins_sent != 1 || w.tx.stats.fins_received != 1 {
        return Err("clean close: exactly one FIN each way".into());
    }
    Ok(out.checks + 5)
}

/// Pinned world: both ends close in the same tick. Each FIN crosses the
/// other, both sides pass through CLOSING and both serve 2·MSL.
pub fn simultaneous_close() -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default());
    let mut t = PairTracker::new();
    let script = Script { chunks: 1, chunk: 256, simultaneous: true, rx_close_first: false };
    let out = drive(&mut w, script, &mut t)?;
    if !t.saw(1, State::Closing) {
        return Err("simultaneous close: crossed FINs must pass through CLOSING".into());
    }
    let msl2 = 2 * u64::from(MSL_TICKS);
    if w.tx.time_wait_residency() != msl2 || w.rx.time_wait_residency() != msl2 {
        return Err(format!(
            "simultaneous close: both sides serve TIME_WAIT ({} / {} ticks, want {msl2})",
            w.tx.time_wait_residency(),
            w.rx.time_wait_residency()
        ));
    }
    if t.saw(0, State::CloseWait) || t.saw(1, State::CloseWait) {
        return Err("simultaneous close: nobody is the passive closer".into());
    }
    Ok(out.checks + 3)
}

/// Pinned world: the receiver closes first, and the sender streams the
/// whole file into the half-closed connection (FIN_WAIT_1/2 still
/// accept data) before finishing from CLOSE_WAIT → LAST_ACK.
pub fn half_closed_drain() -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default());
    let mut t = PairTracker::new();
    let script = Script { chunks: 3, chunk: 256, simultaneous: false, rx_close_first: true };
    let out = drive(&mut w, script, &mut t)?;
    if out.bytes != 3 * 256 {
        return Err(format!(
            "half-closed drain: {} bytes crossed the half-closed connection, want 768",
            out.bytes
        ));
    }
    if !t.saw(0, State::CloseWait) || !t.saw(0, State::LastAck) {
        return Err("half-closed drain: sender must finish via CLOSE_WAIT → LAST_ACK".into());
    }
    if w.tx.time_wait_residency() != 0 {
        return Err("half-closed drain: the passive closer never serves TIME_WAIT".into());
    }
    if w.rx.time_wait_residency() != 2 * u64::from(MSL_TICKS) {
        return Err("half-closed drain: the early closer serves the full quiet time".into());
    }
    Ok(out.checks + 4)
}

/// Pinned world: the FIN datagram itself is dropped; the retransmission
/// timer — not the peer — must repair the teardown.
pub fn fin_lost_retransmitted() -> Result<u64, String> {
    // One chunk → kernel-part send index 2 is the FIN: the drive hands
    // over the single data TPDU (1) and closes in the same tick (2),
    // before the receiver ACKs anything.
    let plan = FaultPlan { drop_at: 2, drop_burst: 1, ..Default::default() };
    let mut w = pair_world(plan);
    let mut t = PairTracker::new();
    let script = Script { chunks: 1, chunk: 256, simultaneous: false, rx_close_first: false };
    let out = drive(&mut w, script, &mut t)?;
    if w.lb.dropped != 1 {
        return Err(format!("lost FIN: {} datagrams dropped, want exactly the FIN", w.lb.dropped));
    }
    if w.tx.stats.retransmits < 1 {
        return Err("lost FIN: the timer never re-sent it".into());
    }
    if w.rx.stats.fins_received != 1 {
        return Err("lost FIN: the retransmitted FIN must be accepted exactly once".into());
    }
    if out.bytes != 256 {
        return Err("lost FIN: data must still arrive intact".into());
    }
    Ok(out.checks + 4)
}

/// Pinned world: an abort mid-transfer RSTs the peer; data sent at the
/// now-dead port is answered with a RST, and the exchange terminates —
/// a RST is never answered with a RST, so no storm.
pub fn rst_storm() -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default());
    let mut t = PairTracker::new();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    fill_src(&mut m, w.src, 512);
    // One clean chunk, then the receiver aborts.
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 256).map_err(|e| e.to_string())?;
    while let Some(d) = w.rx.poll_input(&mut m, &mut w.lb) {
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        let _ = w.rx.finish_recv(&mut m, &mut w.lb, &d, sum);
    }
    t.check(&w.tx, &w.rx).map_err(|e| format!("pre-abort: {e}"))?;
    w.rx.abort(&mut m, &mut w.lb);
    if w.rx.state() != State::Closed {
        return Err("abort must be a total, immediate teardown".into());
    }
    // The sender has not seen the RST yet and fires more data at the
    // dead port; the dead connection answers each with a RST.
    w.tx.send_buf(&mut m, &mut w.lb, w.src.at(256), 256).map_err(|e| e.to_string())?;
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    t.check(&w.tx, &w.rx).map_err(|e| format!("dead-port answer: {e}"))?;
    if w.rx.stats.resets_sent != 2 {
        return Err(format!(
            "dead port: {} RSTs sent, want 2 (the abort + one answer)",
            w.rx.stats.resets_sent
        ));
    }
    // The sender consumes the abort RST (total teardown) and must
    // *ignore* the second one — never RST a RST.
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    t.check(&w.tx, &w.rx).map_err(|e| format!("post-RST: {e}"))?;
    if w.tx.state() != State::Closed {
        return Err("the RST must tear the sender all the way down".into());
    }
    if w.tx.stats.resets_received != 1 {
        return Err(format!(
            "sender honoured {} RSTs; the one aimed at a dead connection must be dropped",
            w.tx.stats.resets_received
        ));
    }
    if w.tx.stats.resets_sent != 0 {
        return Err("a RST answered with a RST is a storm".into());
    }
    if w.tx.in_flight() != 0 {
        return Err("abort teardown left bytes in flight".into());
    }
    for _ in 0..4 {
        w.tx.tick(&mut m, &mut w.lb);
        w.rx.tick(&mut m, &mut w.lb);
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
        t.check(&w.tx, &w.rx).map_err(|e| format!("quiesced: {e}"))?;
    }
    if w.rx.stats.resets_sent != 2 || w.tx.stats.resets_sent != 0 {
        return Err("the RST exchange must be silent once both sides are dead".into());
    }
    Ok(t.checks + 8)
}

/// Arm the receiver's accept-after-FIN mutation.
fn arm_fin_bug(rx: &mut Connection) {
    #[cfg(feature = "mutation")]
    rx.inject_accept_after_fin_bug(true);
    #[cfg(not(feature = "mutation"))]
    {
        let _ = rx;
        panic!("{}", crate::NEEDS_MUTATION);
    }
}

/// Pinned world: a stale data retransmission lands *after* the FIN was
/// accepted. The gate must drop it and re-ACK `fin + 1`; with the
/// test-only accept-after-FIN mutation injected the oracles must fail —
/// this is the mutation proof for the lifecycle sweep.
pub fn stale_data_after_fin(inject_bug: bool) -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default());
    if inject_bug {
        arm_fin_bug(&mut w.rx);
    }
    let mut t = PairTracker::new();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    fill_src(&mut m, w.src, 256);
    // Deliver one chunk, but never let the sender see the ACK — the
    // chunk stays in its ring, armed for a timer retransmission.
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 256).map_err(|e| e.to_string())?;
    let d = w.rx.poll_input(&mut m, &mut w.lb).ok_or("chunk never arrived")?;
    let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
    w.rx.finish_recv(&mut m, &mut w.lb, &d, sum).map_err(|e| format!("accept: {e:?}"))?;
    // Close while the data is unacknowledged; the FIN is in order at
    // the receiver (rcv_nxt already covers the chunk) and is accepted.
    w.tx.close(&mut m, &mut w.lb);
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    if w.rx.fin_rcvd_seq().is_none() {
        return Err("FIN not accepted".into());
    }
    t.check(&w.tx, &w.rx).map_err(|e| format!("post-FIN: {e}"))?;
    // Drive the sender's timer until it re-sends the (already
    // delivered) chunk — a stale retransmission arriving after the FIN.
    let before = w.tx.stats.retransmits;
    for _ in 0..10_000 {
        w.tx.tick(&mut m, &mut w.lb);
        if w.tx.stats.retransmits > before {
            break;
        }
    }
    if w.tx.stats.retransmits == before {
        return Err("the retransmission timer never fired".into());
    }
    let rejected_before = w.rx.stats.rejected;
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    // The freeze oracle: with the mutation injected this is where
    // rcv_nxt sails past fin + 1 and the tracker must say so.
    t.check(&w.tx, &w.rx).map_err(|e| format!("stale data: {e}"))?;
    if w.rx.stats.rejected == rejected_before {
        return Err("the stale retransmission must be rejected, not ignored".into());
    }
    // Finish the teardown cleanly.
    for _ in 0..LIVENESS_LIMIT {
        if w.rx.state() == State::CloseWait {
            w.rx.close(&mut m, &mut w.lb);
        }
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
        w.tx.tick(&mut m, &mut w.lb);
        w.rx.tick(&mut m, &mut w.lb);
        t.check(&w.tx, &w.rx).map_err(|e| format!("teardown: {e}"))?;
        if w.tx.state() == State::Closed && w.rx.state() == State::Closed {
            return Ok(t.checks + 3);
        }
    }
    Err("liveness: teardown after the stale segment never finished".into())
}

/// A named pinned world: the runner returns its ticks-to-quiescence.
pub type PinnedWorld = (&'static str, fn() -> Result<u64, String>);

/// The pinned teardown worlds, by name. `stale_data_after_fin` runs
/// with the mutation *off*; the mutation proof runs it on separately.
pub fn pinned_worlds() -> [PinnedWorld; 6] {
    fn stale() -> Result<u64, String> {
        stale_data_after_fin(false)
    }
    [
        ("clean_close", clean_close),
        ("simultaneous_close", simultaneous_close),
        ("half_closed_drain", half_closed_drain),
        ("fin_lost_retransmitted", fin_lost_retransmitted),
        ("rst_storm", rst_storm),
        ("stale_data_after_fin", stale),
    ]
}

/// Fork ids of a teardown seed's component streams (fixed forever, like
/// [`crate::scenario`]'s).
mod stream {
    pub const SHAPE: u64 = 0;
    pub const FAULTS: u64 = 1;
    pub const DICE: u64 = 2;
}

/// One fully-determined seeded teardown world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeardownSpec {
    /// Root seed (drives the kernel part's fault dice).
    pub seed: u64,
    /// Payload bytes per chunk.
    pub chunk: usize,
    /// Chunks transferred before the close.
    pub chunks: usize,
    /// Both ends close in the same tick.
    pub simultaneous: bool,
    /// Per-datagram fault probabilities (parts per 65536).
    pub probs: FaultProbs,
}

impl TeardownSpec {
    /// Generate the teardown world a seed denotes.
    pub fn from_seed(seed: u64) -> TeardownSpec {
        let root = XorShift64::new(seed);
        let mut shape = root.fork(stream::SHAPE);
        let chunk = [64, 128, 256, 512][shape.index(4)];
        let chunks = 1 + shape.index(4);
        let simultaneous = shape.below(2) == 1;
        let mut f = root.fork(stream::FAULTS);
        // Each kind armed with probability 1/2 at up to ~1% of
        // datagrams — the issue's teardown-under-loss liveness regime.
        let arm = |f: &mut XorShift64| -> u16 {
            if f.below(2) == 1 {
                f.below(640) as u16 + 16
            } else {
                0
            }
        };
        let probs = FaultProbs {
            drop: arm(&mut f),
            dup: arm(&mut f),
            reorder: arm(&mut f),
            corrupt: arm(&mut f),
            delay: arm(&mut f),
        };
        TeardownSpec { seed, chunk, chunks, simultaneous, probs }
    }

    /// The fault plan this spec installs on the kernel part.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::seeded(XorShift64::new(self.seed).fork(stream::DICE).next_u64(), self.probs)
    }

    /// Render a ready-to-paste `#[test]` reproducing this teardown
    /// world — what [`sweep_teardown`] prints for a minimised failure.
    pub fn to_test_case(&self) -> String {
        format!(
            r#"#[test]
fn teardown_repro_seed_{seed:x}() {{
    // Minimal reproducer generated by the sim teardown shrinker. The
    // spec replays deterministically: same fields + seed, same failure.
    use sim::lifecycle::{{run_teardown, TeardownSpec}};
    let spec = TeardownSpec {{
        seed: 0x{seed:x},
        chunk: {chunk},
        chunks: {chunks},
        simultaneous: {simultaneous},
        probs: utcp::FaultProbs {{
            drop: {drop},
            dup: {dup},
            reorder: {reorder},
            corrupt: {corrupt},
            delay: {delay},
        }},
    }};
    run_teardown(&spec, false).expect("teardown must satisfy every lifecycle oracle");
}}"#,
            seed = self.seed,
            chunk = self.chunk,
            chunks = self.chunks,
            simultaneous = self.simultaneous,
            drop = self.probs.drop,
            dup = self.probs.dup,
            reorder = self.probs.reorder,
            corrupt = self.probs.corrupt,
            delay = self.probs.delay,
        )
    }
}

/// Run one seeded teardown world under the full lifecycle oracle set.
/// `inject_fin_bug` arms the receiver's accept-after-FIN mutation.
pub fn run_teardown(spec: &TeardownSpec, inject_fin_bug: bool) -> Result<u64, String> {
    let mut w = pair_world(spec.fault_plan());
    if inject_fin_bug {
        arm_fin_bug(&mut w.rx);
    }
    let mut t = PairTracker::new();
    let script = Script {
        chunks: spec.chunks,
        chunk: spec.chunk,
        simultaneous: spec.simultaneous,
        rx_close_first: false,
    };
    let out = drive(&mut w, script, &mut t)?;
    let total = (spec.chunks * spec.chunk) as u64;
    if out.bytes != total {
        return Err(format!("teardown: {} bytes delivered, want {total}", out.bytes));
    }
    // Byte conservation end-to-end: data + the FIN's sequence slot.
    let end = TX_ISS.wrapping_add(total as u32).wrapping_add(1);
    if w.tx.snd_una() != end || w.rx.rcv_nxt() != end {
        return Err(format!(
            "teardown: sequence books disagree (snd_una {:#x}, rcv_nxt {:#x}, want {end:#x})",
            w.tx.snd_una(),
            w.rx.rcv_nxt()
        ));
    }
    if w.tx.stats.fins_sent != 1 || w.rx.stats.fins_sent != 1 {
        return Err("teardown: each side sends its FIN exactly once (retransmits aside)".into());
    }
    // The active closer (both, if simultaneous) serves full 2·MSL.
    let msl2 = 2 * u64::from(MSL_TICKS);
    if w.tx.time_wait_residency() < msl2 {
        return Err(format!(
            "teardown: the closer served only {} ticks of TIME_WAIT",
            w.tx.time_wait_residency()
        ));
    }
    Ok(out.checks + 4)
}

impl TeardownSpec {
    /// The shrink ladder: fewer chunks, smaller chunks, sequential
    /// instead of simultaneous close, then calmer faults.
    pub fn simpler(&self) -> Vec<TeardownSpec> {
        let sc = self;
        let mut out = Vec::new();
        if sc.chunks > 1 {
            out.push(TeardownSpec { chunks: sc.chunks - 1, ..*sc });
        }
        if sc.chunk > 64 {
            out.push(TeardownSpec { chunk: sc.chunk / 2, ..*sc });
        }
        if sc.simultaneous {
            out.push(TeardownSpec { simultaneous: false, ..*sc });
        }
        out.extend(calmer(sc.probs).into_iter().map(|probs| TeardownSpec { probs, ..*sc }));
        out
    }
}

/// What a teardown sweep did.
#[derive(Debug, Clone, Default)]
pub struct TeardownSweepReport {
    /// Seeded worlds executed (the pinned worlds run on top).
    pub seeds_run: usize,
    /// Worlds (pinned + seeded) whose every oracle passed.
    pub passed: usize,
    /// Total oracle evaluations over the passing worlds.
    pub oracle_checks: u64,
    /// First failure: (minimised spec, message, pasteable `#[test]`).
    /// A pinned world has no spec and no reproducer — it already is a
    /// committed test — and carries its name in the message.
    pub failure: Option<(Option<TeardownSpec>, String, String)>,
}

/// The lifecycle sweep: all pinned teardown worlds, then `seeds`
/// consecutive seeded worlds. `inject_fin_bug` arms the
/// accept-after-FIN mutation everywhere — a sweep that still passes
/// with it on would prove the oracles toothless, so `tests/mutation.rs`
/// demands it fails.
pub fn sweep_teardown(base_seed: u64, seeds: usize, inject_fin_bug: bool) -> TeardownSweepReport {
    sweep_worlds(&pinned_worlds(), base_seed, seeds, inject_fin_bug)
}

fn sweep_worlds(
    pinned: &[PinnedWorld],
    base_seed: u64,
    seeds: usize,
    inject_fin_bug: bool,
) -> TeardownSweepReport {
    let mut rep = TeardownSweepReport::default();
    for &(name, world) in pinned {
        // `stale_data_after_fin` is the one pinned world whose
        // *receiver* exercises the gate the mutation removes.
        let outcome = if name == "stale_data_after_fin" {
            caught(|| stale_data_after_fin(inject_fin_bug))
        } else {
            caught(world)
        };
        match outcome {
            Ok(checks) => {
                rep.passed += 1;
                rep.oracle_checks += checks;
            }
            Err(e) => {
                rep.failure = Some((None, format!("pinned world {name}: {e}"), String::new()));
                return rep;
            }
        }
    }
    for i in 0..seeds {
        let spec = TeardownSpec::from_seed(base_seed.wrapping_add(i as u64));
        rep.seeds_run += 1;
        match caught(|| run_teardown(&spec, inject_fin_bug)) {
            Ok(checks) => {
                rep.passed += 1;
                rep.oracle_checks += checks;
            }
            Err(_) => {
                let (shrunk, message) =
                    shrink(&spec, TeardownSpec::simpler, |s| run_teardown(s, inject_fin_bug));
                rep.failure = Some((Some(shrunk), message, shrunk.to_test_case()));
                return rep;
            }
        }
    }
    rep
}

/// One churn workload: `waves` rounds of connect → transfer → close →
/// drain → reopen over the full server harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Seed of the kernel part's fault dice.
    pub seed: u64,
    /// Connect/transfer/close waves.
    pub waves: usize,
    /// Concurrent connections per wave.
    pub n_conns: usize,
    /// File bytes per connection per wave.
    pub file_len: usize,
    /// Payload bytes per chunk.
    pub chunk: usize,
    /// Per-datagram fault probabilities.
    pub probs: FaultProbs,
}

impl ChurnSpec {
    /// Generate a churn workload from a seed.
    pub fn from_seed(seed: u64) -> ChurnSpec {
        let root = XorShift64::new(seed);
        let mut shape = root.fork(stream::SHAPE);
        let chunk = [128, 256, 512][shape.index(3)];
        ChurnSpec {
            seed: root.fork(stream::DICE).next_u64(),
            waves: 2 + shape.index(3),
            n_conns: 1 + shape.index(4),
            file_len: chunk * (2 + shape.index(3)),
            chunk,
            probs: FaultProbs { drop: 400, ..Default::default() },
        }
    }
}

/// What a churn run did — the quantities `exp_churn` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// FIN/ACK teardowns completed (connections × waves).
    pub closes_completed: u64,
    /// Total TIME_WAIT residency across all server connections, ticks.
    pub time_wait_ticks: u64,
    /// Data ports released and re-bound between waves.
    pub ports_recycled: u64,
    /// Settle-only rounds spent draining TIME_WAIT to full quiescence.
    pub rounds_to_quiescence: u64,
    /// Scheduling rounds across all waves (drain rounds excluded).
    pub rounds_total: u64,
    /// Payload bytes delivered across all waves.
    pub payload_bytes: u64,
    /// Retransmissions forced across all waves.
    pub retransmits: u64,
    /// Oracle evaluations performed.
    pub oracle_checks: u64,
}

/// Drive a churn workload under the per-tick oracles: every wave runs a
/// full accept + transfer + FIN/ACK teardown, drains to double-`Closed`
/// (ports released), and reopens the same pre-allocated connection pool
/// for the next wave.
pub fn run_churn(spec: &ChurnSpec, path: Path) -> Result<ChurnOutcome, String> {
    let cfg = ServerConfig {
        n_conns: spec.n_conns,
        conn_base: 0,
        file_len: spec.file_len,
        chunk: spec.chunk,
        weights: Vec::new(),
        faults: FaultPlan::seeded(spec.seed, spec.probs),
        ring_capacity: (spec.chunk + 64) * 4,
        max_rounds: 500_000,
        loss_recovery: true,
        trace_every: 0,
    };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let mut out = ChurnOutcome {
        closes_completed: 0,
        time_wait_ticks: 0,
        ports_recycled: 0,
        rounds_to_quiescence: 0,
        rounds_total: 0,
        payload_bytes: 0,
        retransmits: 0,
        oracle_checks: 0,
    };
    let expected_wave = (spec.n_conns * spec.file_len) as u64;
    for wave in 0..spec.waves {
        let mut run = h.begin_run::<NoopObserver>();
        // Fresh tracker per wave: reopen resets the sequence books, so
        // monotonicity (and the transition matrix, which keeps `Closed`
        // terminal) must restart from the new baseline.
        let mut tracker = Tracker::new(spec.n_conns);
        let mut ticks = 0u64;
        let mut more = true;
        while more {
            more = h.step(&mut m, &mut sched, path, &mut NoopObserver, &mut run);
            ticks += 1;
            let deep = !more || ticks.is_multiple_of(32);
            tracker
                .check(&h, &mut m, deep)
                .map_err(|e| format!("wave {wave} tick {ticks}: {e}"))?;
        }
        out.rounds_total += ticks;
        out.oracle_checks += tracker.checks;
        if let Some(i) = h.verify_outputs(&mut m) {
            return Err(format!("wave {wave}: client {i} reassembled a corrupted file"));
        }
        let wave_bytes: u64 = (0..spec.n_conns).map(|i| h.client_progress(i).0).sum();
        if wave_bytes != expected_wave {
            return Err(format!(
                "wave {wave}: delivered {wave_bytes} bytes, expected {expected_wave}"
            ));
        }
        out.payload_bytes += wave_bytes;
        out.rounds_to_quiescence += h.drain_to_closed(&mut m, path, &mut NoopObserver);
        if !h.fully_closed() {
            return Err(format!("wave {wave}: drain left live connections"));
        }
        for sess in h.table.iter() {
            let want = (wave + 1) as u64;
            if sess.tx.stats.fins_sent != want || sess.tx.stats.fins_received != want {
                return Err(format!(
                    "wave {wave}: {} FINs sent / {} received, want {want} each",
                    sess.tx.stats.fins_sent, sess.tx.stats.fins_received
                ));
            }
        }
        out.closes_completed += spec.n_conns as u64;
        out.oracle_checks += 2 + spec.n_conns as u64;
        if wave + 1 < spec.waves {
            h.reopen_wave(&mut m);
            out.ports_recycled += spec.n_conns as u64;
        }
    }
    // Connection stats persist across reopen, so the end-of-run sums
    // cover every wave.
    out.retransmits = h.table.iter().map(|s| s.tx.stats.retransmits).sum();
    out.time_wait_ticks = h.time_wait_residency();
    if out.time_wait_ticks < out.closes_completed * 2 * u64::from(MSL_TICKS) {
        return Err(format!(
            "churn: {} TIME_WAIT ticks across {} closes — some closer skipped its quiet time",
            out.time_wait_ticks, out.closes_completed
        ));
    }
    out.oracle_checks += 1;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_teardown_world_passes() {
        for (name, world) in pinned_worlds() {
            world().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn transition_matrix_is_terminal_at_closed_and_time_wait_never_resurrects() {
        use State::*;
        assert!(reachable(Established, Closed));
        assert!(reachable(FinWait1, TimeWait));
        assert!(reachable(Established, TimeWait));
        assert!(!reachable(Closed, Established), "reopen is not a tracked transition");
        assert!(!reachable(TimeWait, Established), "TIME_WAIT must never resurrect");
        assert!(!reachable(TimeWait, FinWait1));
        assert!(!reachable(LastAck, TimeWait), "the passive closer skips TIME_WAIT");
        assert!(legal_step(FinWait1, Closing) && legal_step(Closing, TimeWait));
        assert!(!legal_step(Established, TimeWait), "no shortcut past the FIN exchange");
        for s in State::ALL {
            assert!(reachable(s, s), "reflexivity");
        }
    }

    #[test]
    fn seeded_teardown_worlds_satisfy_the_lifecycle_oracles() {
        // A small in-test sweep; the full 200-seed sweep runs in
        // tests/dst.rs and the exp_dst/exp_churn benches.
        let rep = sweep_teardown(0x7EAF_0000, 24, false);
        assert!(rep.failure.is_none(), "{:?}", rep.failure);
        assert_eq!(rep.passed, 24 + pinned_worlds().len());
        assert!(rep.oracle_checks > 1000, "sweep barely checked anything");
    }

    #[test]
    fn a_pinned_world_that_panics_surfaces_its_message() {
        fn broken() -> Result<u64, String> {
            panic!("ring extent 17 out of bounds")
        }
        let rep = sweep_worlds(&[("clean_close", clean_close), ("broken", broken)], 0, 4, false);
        assert_eq!((rep.passed, rep.seeds_run), (1, 0), "the sweep stops at the failing world");
        let (spec, message, test_case) = rep.failure.expect("the panic is a failure");
        assert_eq!(spec, None, "a pinned world has no seeded spec to blame");
        assert_eq!(message, "pinned world broken: panic: ring extent 17 out of bounds");
        assert!(test_case.is_empty());
    }

    #[test]
    fn teardown_spec_generation_is_deterministic_and_in_range() {
        for seed in 0..256u64 {
            let a = TeardownSpec::from_seed(seed);
            assert_eq!(a, TeardownSpec::from_seed(seed));
            assert!((1..=4).contains(&a.chunks));
            assert!([64, 128, 256, 512].contains(&a.chunk));
            assert!(a.probs.drop <= 656 && a.probs.corrupt <= 656);
        }
    }

    #[test]
    fn teardown_reproducer_renders_a_pasteable_test() {
        let spec = TeardownSpec::from_seed(0xBEEF);
        let t = spec.to_test_case();
        assert!(t.contains("seed: 0xbeef"));
        assert!(t.contains("run_teardown"));
        assert!(t.contains("#[test]"));
    }

    #[test]
    fn churn_recycles_ports_across_waves() {
        let spec = ChurnSpec {
            seed: 0x51AB,
            waves: 3,
            n_conns: 2,
            file_len: 1024,
            chunk: 256,
            probs: FaultProbs { drop: 400, ..Default::default() },
        };
        let out = run_churn(&spec, Path::Ilp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(out.closes_completed, 6);
        assert_eq!(out.ports_recycled, 4, "two conns recycled between each of 3 waves");
        assert_eq!(out.payload_bytes, 3 * 2 * 1024);
        assert!(out.time_wait_ticks >= 6 * 2 * u64::from(MSL_TICKS));
        assert!(out.rounds_to_quiescence > 0);
    }

    #[test]
    fn churn_agrees_across_paths() {
        let spec = ChurnSpec::from_seed(7);
        let a = run_churn(&spec, Path::Ilp).unwrap_or_else(|e| panic!("{e}"));
        let b = run_churn(&spec, Path::NonIlp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a, b, "ILP and non-ILP churn must be behaviourally identical");
    }
}
