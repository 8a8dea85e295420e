//! Connection-lifecycle oracles: RFC 793 teardown under deterministic
//! faults.
//!
//! The transfer sweep proves every faulted run *delivers*; these worlds
//! prove every run also *dies correctly*. Raw two-connection pairs run
//! under a [`PairTracker`] — a [`ConnOracle`] per side (legal
//! transitions, post-FIN freeze, flight accounting, cwnd) plus the
//! states each side visited — and add:
//!
//! * **liveness**: under seeded loss/reorder/dup/corrupt faults both
//!   sides of every teardown must still reach `Closed` within a tick
//!   bound, and the closer must sit out its full 2·MSL quiet time;
//! * **pinned teardown worlds** ([`PINNED_WORLDS`]): clean close,
//!   simultaneous close, half-closed drain, FIN lost →
//!   timer-retransmitted, RST storm, and stale-data-after-FIN — each
//!   pinning the *mechanism*, not just the outcome. They are the
//!   teardown sweep's prelude; [`TeardownSpec`] is its seeded part.
//!
//! [`run_churn`] drives connect → transfer → close → reopen waves over
//! the full [`server::ScaleHarness`] (SYN handshakes included), with
//! the per-tick oracles live throughout and ports actively recycled
//! between waves — the workload behind the `exp_churn` benchmark.

use checksum::internet::checksum_buf;
use memsim::layout::AddressSpace;
use memsim::region::Region;
use memsim::{Mem, NativeMem};
use obs::NoopObserver;
use server::{Path, RoundRobin, ServerConfig};
use utcp::rng::XorShift64;
use utcp::{Connection, FaultPlan, FaultProbs, Loopback, State, UtcpConfig, MSL_TICKS};

use crate::oracle::ConnOracle;
use crate::runner::{FaultTotals, Mutant, PinnedWorld, ScenarioStats, Spec};
use crate::scenario::stream;
use crate::shrink::calmer;
use crate::world::World;

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
    let mut seen = [false; State::ALL.len()];
    let mut stack = vec![from];
    while let Some(s) = stack.pop() {
        if s == to {
            return true;
        }
        if !std::mem::replace(&mut seen[s.index()], true) {
            stack.extend(successors(s));
        }
    }
    false
}

/// Per-tick lifecycle oracle over one raw connection pair.
#[derive(Debug, Default)]
pub struct PairTracker {
    sides: [ConnOracle; 2],
    /// Bitmask of states each side was *observed* in (`1 << state
    /// index`); multi-transition polls may skip through unobserved
    /// states, so assertions on this are necessarily one-sided.
    pub visited: [u16; 2],
    /// Individual oracle evaluations performed.
    pub checks: u64,
}

impl PairTracker {
    /// A fresh tracker (both sides unobserved).
    pub fn new() -> PairTracker {
        PairTracker::default()
    }

    /// Whether `side` (0 = tx, 1 = rx) was ever observed in `s`.
    pub fn saw(&self, side: usize, s: State) -> bool {
        self.visited[side] & (1 << s.index()) != 0
    }

    /// Observe both sides.
    pub fn check(&mut self, tx: &Connection, rx: &Connection) -> Result<(), String> {
        for (side, (name, c)) in [("tx", tx), ("rx", rx)].into_iter().enumerate() {
            self.visited[side] |= 1 << c.state().index();
            self.sides[side].check(c).map_err(|e| format!("{name} side: {e}"))?;
            self.checks += ConnOracle::CHECKS;
        }
        Ok(())
    }
}

/// A raw two-connection world: sender → receiver over a faultable
/// loop-back, no handshake (raw connections are born established), and
/// the tracker watching both.
struct PairWorld {
    arena: Vec<u8>,
    lb: Loopback,
    tx: Connection,
    rx: Connection,
    /// The file the sender streams, [`pattern`] throughout.
    src: Region,
    t: PairTracker,
}

const TX_ISS: u32 = 0x4_1000;
const RX_ISS: u32 = 0x9_5000;

fn pair_world(plan: FaultPlan, mutant: Mutant) -> PairWorld {
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    lb.set_faults(plan);
    let tx_cfg = UtcpConfig { local_port: 1000, peer_port: 2000, ..Default::default() };
    let (mut tx, mut rx) = Connection::pair(&mut space, &mut lb, tx_cfg, TX_ISS, RX_ISS);
    mutant.arm(&mut tx);
    mutant.arm(&mut rx);
    let src = space.alloc("lifecycle_src", 4096, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    for i in 0..src.len {
        m.write_u8(src.at(i), pattern(i));
    }
    PairWorld { arena, lb, tx, rx, src, t: PairTracker::new() }
}

/// Deterministic payload pattern (251 is prime, so no chunk-size alias).
fn pattern(i: usize) -> u8 {
    ((i * 7 + 3) % 251) as u8
}

/// Script knobs of the generic teardown driver.
#[derive(Debug, Clone, Copy, Default)]
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
/// with the lifecycle oracles checked at every phase boundary. Returns
/// the ticks it took and the payload bytes the receiver accepted.
fn drive(w: &mut PairWorld, script: Script) -> Result<(u64, u64), String> {
    assert!(script.chunks * script.chunk <= w.src.len, "pattern region holds the whole file");
    let mut m = NativeMem::new(&mut w.arena);
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
        w.t.check(&w.tx, &w.rx).map_err(|e| format!("tick {tick}: {e}"))?;
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
        w.t.check(&w.tx, &w.rx).map_err(|e| format!("tick {tick}: {e}"))?;
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
        w.t.check(&w.tx, &w.rx).map_err(|e| format!("tick {tick}: {e}"))?;
        w.tx.tick(&mut m, &mut w.lb);
        w.rx.tick(&mut m, &mut w.lb);
        w.t.check(&w.tx, &w.rx).map_err(|e| format!("tick {tick}: {e}"))?;
        if w.tx.state() == State::Closed && w.rx.state() == State::Closed {
            return Ok((tick + 1, acc));
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
pub fn clean_close(mutant: Mutant) -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default(), mutant);
    let (_, bytes) = drive(&mut w, Script { chunks: 2, chunk: 256, ..Default::default() })?;
    if bytes != 512 {
        return Err(format!("clean close: {bytes} bytes delivered, want 512"));
    }
    if w.t.saw(0, State::Closing) || w.t.saw(0, State::CloseWait) {
        return Err("clean close: active closer strayed into the simultaneous path".into());
    }
    if w.t.saw(1, State::TimeWait) {
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
    Ok(w.t.checks + 5)
}

/// Pinned world: both ends close in the same tick. Each FIN crosses the
/// other, both sides pass through CLOSING and both serve 2·MSL.
pub fn simultaneous_close(mutant: Mutant) -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default(), mutant);
    drive(&mut w, Script { chunks: 1, chunk: 256, simultaneous: true, ..Default::default() })?;
    if !w.t.saw(1, State::Closing) {
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
    if w.t.saw(0, State::CloseWait) || w.t.saw(1, State::CloseWait) {
        return Err("simultaneous close: nobody is the passive closer".into());
    }
    Ok(w.t.checks + 3)
}

/// Pinned world: the receiver closes first, and the sender streams the
/// whole file into the half-closed connection (FIN_WAIT_1/2 still
/// accept data) before finishing from CLOSE_WAIT → LAST_ACK.
pub fn half_closed_drain(mutant: Mutant) -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default(), mutant);
    let (_, bytes) =
        drive(&mut w, Script { chunks: 3, chunk: 256, rx_close_first: true, ..Default::default() })?;
    if bytes != 3 * 256 {
        return Err(format!(
            "half-closed drain: {bytes} bytes crossed the half-closed connection, want 768"
        ));
    }
    if !w.t.saw(0, State::CloseWait) || !w.t.saw(0, State::LastAck) {
        return Err("half-closed drain: sender must finish via CLOSE_WAIT → LAST_ACK".into());
    }
    if w.tx.time_wait_residency() != 0 {
        return Err("half-closed drain: the passive closer never serves TIME_WAIT".into());
    }
    if w.rx.time_wait_residency() != 2 * u64::from(MSL_TICKS) {
        return Err("half-closed drain: the early closer serves the full quiet time".into());
    }
    Ok(w.t.checks + 4)
}

/// Pinned world: the FIN datagram itself is dropped; the retransmission
/// timer — not the peer — must repair the teardown.
pub fn fin_lost_retransmitted(mutant: Mutant) -> Result<u64, String> {
    // One chunk → kernel-part send index 2 is the FIN: the drive hands
    // over the single data TPDU (1) and closes in the same tick (2),
    // before the receiver ACKs anything.
    let plan = FaultPlan { drop_at: 2, drop_burst: 1, ..Default::default() };
    let mut w = pair_world(plan, mutant);
    let (_, bytes) = drive(&mut w, Script { chunks: 1, chunk: 256, ..Default::default() })?;
    if w.lb.dropped != 1 {
        return Err(format!("lost FIN: {} datagrams dropped, want exactly the FIN", w.lb.dropped));
    }
    if w.tx.stats.retransmits < 1 {
        return Err("lost FIN: the timer never re-sent it".into());
    }
    if w.rx.stats.fins_received != 1 {
        return Err("lost FIN: the retransmitted FIN must be accepted exactly once".into());
    }
    if bytes != 256 {
        return Err("lost FIN: data must still arrive intact".into());
    }
    Ok(w.t.checks + 4)
}

/// Pinned world: an abort mid-transfer RSTs the peer; data sent at the
/// now-dead port is answered with a RST, and the exchange terminates —
/// a RST is never answered with a RST, so no storm.
pub fn rst_storm(mutant: Mutant) -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default(), mutant);
    let mut m = NativeMem::new(&mut w.arena);
    // One clean chunk, then the receiver aborts.
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 256).map_err(|e| e.to_string())?;
    while let Some(d) = w.rx.poll_input(&mut m, &mut w.lb) {
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        let _ = w.rx.finish_recv(&mut m, &mut w.lb, &d, sum);
    }
    w.t.check(&w.tx, &w.rx).map_err(|e| format!("pre-abort: {e}"))?;
    w.rx.abort(&mut m, &mut w.lb);
    if w.rx.state() != State::Closed {
        return Err("abort must be a total, immediate teardown".into());
    }
    // The sender has not seen the RST yet and fires more data at the
    // dead port; the dead connection answers each with a RST.
    w.tx.send_buf(&mut m, &mut w.lb, w.src.at(256), 256).map_err(|e| e.to_string())?;
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    w.t.check(&w.tx, &w.rx).map_err(|e| format!("dead-port answer: {e}"))?;
    if w.rx.stats.resets_sent != 2 {
        return Err(format!(
            "dead port: {} RSTs sent, want 2 (the abort + one answer)",
            w.rx.stats.resets_sent
        ));
    }
    // The sender consumes the abort RST (total teardown) and must
    // *ignore* the second one — never RST a RST.
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    w.t.check(&w.tx, &w.rx).map_err(|e| format!("post-RST: {e}"))?;
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
        w.t.check(&w.tx, &w.rx).map_err(|e| format!("quiesced: {e}"))?;
    }
    if w.rx.stats.resets_sent != 2 || w.tx.stats.resets_sent != 0 {
        return Err("the RST exchange must be silent once both sides are dead".into());
    }
    Ok(w.t.checks + 8)
}

/// Pinned world: a stale data retransmission lands *after* the FIN was
/// accepted. The gate must drop it and re-ACK `fin + 1`; with the
/// accept-after-FIN mutant armed the oracles must fail — this is the
/// mutation proof for the lifecycle sweep.
pub fn stale_data_after_fin(mutant: Mutant) -> Result<u64, String> {
    let mut w = pair_world(FaultPlan::default(), mutant);
    let mut m = NativeMem::new(&mut w.arena);
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
    w.t.check(&w.tx, &w.rx).map_err(|e| format!("post-FIN: {e}"))?;
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
    w.t.check(&w.tx, &w.rx).map_err(|e| format!("stale data: {e}"))?;
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
        w.t.check(&w.tx, &w.rx).map_err(|e| format!("teardown: {e}"))?;
        if w.tx.state() == State::Closed && w.rx.state() == State::Closed {
            return Ok(w.t.checks + 3);
        }
    }
    Err("liveness: teardown after the stale segment never finished".into())
}

/// The pinned teardown worlds, by name: the teardown sweep's prelude.
pub const PINNED_WORLDS: [PinnedWorld; 6] = [
    ("clean_close", clean_close),
    ("simultaneous_close", simultaneous_close),
    ("half_closed_drain", half_closed_drain),
    ("fin_lost_retransmitted", fin_lost_retransmitted),
    ("rst_storm", rst_storm),
    ("stale_data_after_fin", stale_data_after_fin),
];

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
    /// The fault plan this spec installs on the kernel part.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::seeded(XorShift64::new(self.seed).fork(stream::DICE).next_u64(), self.probs)
    }
}

impl Spec for TeardownSpec {
    fn from_seed(seed: u64) -> TeardownSpec {
        let root = XorShift64::new(seed);
        let mut shape = root.fork(stream::SHAPE);
        let chunk = [64, 128, 256, 512][shape.index(4)];
        let chunks = 1 + shape.index(4);
        let simultaneous = shape.below(2) == 1;
        let mut f = root.fork(stream::FAULTS);
        // Each kind armed with probability 1/2 at up to ~1% of
        // datagrams — the teardown-under-loss liveness regime.
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

    /// Transfer, close and drain to double-`Closed` under the full
    /// lifecycle oracle set, then audit the sequence books, the FINs and
    /// the closer's quiet time.
    fn run(&self, mutant: Mutant) -> Result<ScenarioStats, String> {
        let mut w = pair_world(self.fault_plan(), mutant);
        let (chunks, chunk, simultaneous) = (self.chunks, self.chunk, self.simultaneous);
        let (ticks, bytes) = drive(&mut w, Script { chunks, chunk, simultaneous, rx_close_first: false })?;
        let total = (self.chunks * self.chunk) as u64;
        if bytes != total {
            return Err(format!("teardown: {bytes} bytes delivered, want {total}"));
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
        Ok(ScenarioStats {
            faults: FaultTotals::of(&w.lb),
            oracle_checks: w.t.checks + 4,
            rounds: ticks,
            payload_bytes: bytes,
            retransmits: w.tx.stats.retransmits,
        })
    }

    /// Fewer chunks, smaller chunks, sequential instead of simultaneous
    /// close, then calmer faults.
    fn simpler(&self) -> Vec<TeardownSpec> {
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

    fn to_test_case(&self) -> String {
        format!(
            r#"#[test]
fn teardown_repro_seed_{seed:x}() {{
    // Minimal reproducer generated by the sim teardown shrinker. The
    // spec replays deterministically: same fields + seed, same failure.
    use sim::{{Mutant, Spec, TeardownSpec}};
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
    spec.run(Mutant::None).expect("teardown must satisfy every lifecycle oracle");
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    let mut w = World::new(ServerConfig {
        n_conns: spec.n_conns,
        file_len: spec.file_len,
        chunk: spec.chunk,
        faults: FaultPlan::seeded(spec.seed, spec.probs),
        ring_capacity: (spec.chunk + 64) * 4,
        max_rounds: 500_000,
        ..Default::default()
    });
    let mut sched = RoundRobin::new();
    let mut out = ChurnOutcome::default();
    let expected_wave = (spec.n_conns * spec.file_len) as u64;
    for wave in 0..spec.waves {
        let (ticks, checks) = w
            .run_checked(&mut sched, path, &mut NoopObserver)
            .map_err(|e| format!("wave {wave} {e}"))?;
        out.rounds_total += ticks;
        out.oracle_checks += checks;
        let (h, mut m) = w.parts();
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
    out.retransmits = w.h.table.iter().map(|s| s.tx.stats.retransmits).sum();
    out.time_wait_ticks = w.h.time_wait_residency();
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
    use crate::runner::{sweep, SweepOpts};

    #[test]
    fn every_pinned_teardown_world_passes() {
        for (name, world) in PINNED_WORLDS {
            world(Mutant::None).unwrap_or_else(|e| panic!("{name}: {e}"));
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
        let opts =
            SweepOpts { base_seed: 0x7EAF_0000, seeds: 24, prelude: &PINNED_WORLDS, ..Default::default() };
        let rep = sweep::<TeardownSpec>(&opts);
        assert!(rep.failure.is_none(), "{:?}", rep.failure);
        assert_eq!(rep.passed, 24 + PINNED_WORLDS.len());
        assert!(rep.totals.oracle_checks > 1000, "sweep barely checked anything");
    }

    #[test]
    fn a_pinned_world_that_panics_surfaces_its_message() {
        fn broken(_: Mutant) -> Result<u64, String> {
            panic!("ring extent 17 out of bounds")
        }
        const PRELUDE: [PinnedWorld; 2] = [("clean_close", clean_close), ("broken", broken)];
        let rep = sweep::<TeardownSpec>(&SweepOpts { seeds: 4, prelude: &PRELUDE, ..Default::default() });
        assert_eq!((rep.passed, rep.seeds_run), (1, 0), "the sweep stops at the failing world");
        let f = rep.failure.expect("the panic is a failure");
        assert_eq!((f.spec, f.shrunk), (None, None), "a pinned world has no seeded spec to blame");
        assert_eq!(f.message, "pinned world broken: panic: ring extent 17 out of bounds");
        assert!(f.test_case.is_empty());
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
        assert!(t.contains("spec.run(Mutant::None)"));
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
