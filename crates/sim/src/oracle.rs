//! Cross-layer oracles: properties checked *while* a simulation runs.
//!
//! TCP over a faulty loop-back must still behave like a reliable
//! in-order byte pipe. [`ConnOracle`] states what that means for one
//! [`Connection`], in any world, at every observation: each state
//! change is reachable in the RFC 793 graph; `snd_una` and `snd_nxt`
//! are wrapping-monotone with `snd_una ≤ snd_nxt`; `rcv_nxt` is
//! monotone (re-baselined once, as the machine leaves `Listen` or
//! `SynSent`: the peer's SYN seeds it); flight equals the ring's
//! buffered bytes plus the SYN's and the FIN's slots and the ring's
//! invariants hold; an accepted FIN pins `rcv_nxt` at `fin + 1` and
//! nothing is accepted after it; cwnd stays ≥ 1 MSS, is pinned at a
//! ≥ 2·MSS ssthresh inside fast recovery, shrinks only on a recorded
//! loss event, and three duplicate ACKs arm fast retransmit.
//!
//! Each world kind adds what only it can see. A harness world (the
//! `Tracker` behind [`crate::World::run_checked`]) watches both sides of
//! every connection and adds the advertised window, no ACK left owed at
//! round end, delivered bytes never shrinking, and a sampled re-read of
//! every delivered prefix against the file (right at every moment, not
//! just at the end); after the run, [`check_conservation`] and
//! [`check_segtrace`] audit the recorder. A raw pair
//! ([`crate::lifecycle::PairTracker`]) records which states each side
//! visited, and its teardown worlds add liveness and 2·MSL quiet time.

use cipher::SimplifiedSafer;
use memsim::Mem;
use obs::{Counter, Recorder};
use server::ScaleHarness;
use utcp::{Connection, State};

use crate::lifecycle::{reachable, Steps};

/// Post-run segment-trace oracle over a completed transfer: every span
/// chain in the store must be causally ordered with no orphan receive
/// spans (a receive edge whose transmission was never recorded), every
/// completed chain's telescoping decomposition must be exact, and every
/// chunk the sampling rule selects must have produced a *completed*
/// chain — the transfer finished, so a sampled chunk with no Accept
/// span means context was lost somewhere along the path. Shared-
/// recorder worlds never see wire-origin traces (the send side always
/// opens the trace first).
pub fn check_segtrace(
    rec: &Recorder,
    every: u32,
    n_conns: usize,
    chunks_per_conn: usize,
) -> Result<u64, String> {
    let store = rec.segtrace();
    let mut checks = 0u64;
    for tr in store.iter() {
        if !tr.no_orphans() {
            return Err(format!("segtrace conn {} chunk {}: orphan span", tr.conn, tr.chunk));
        }
        checks += 1;
        if let Some(b) = tr.breakdown() {
            if !b.causal_ok() {
                return Err(format!(
                    "segtrace conn {} chunk {}: milestones out of causal order",
                    tr.conn, tr.chunk
                ));
            }
            if b.queueing() + b.recovery() + b.propagation() + b.processing() != b.total() {
                return Err(format!(
                    "segtrace conn {} chunk {}: decomposition is not exact",
                    tr.conn, tr.chunk
                ));
            }
            checks += 2;
        }
    }
    for g in 0..n_conns as u32 {
        for c in 0..chunks_per_conn as u32 {
            if !obs::segtrace::sampled(every, g, c) {
                continue;
            }
            let tr = store
                .get(g, c)
                .ok_or_else(|| format!("segtrace conn {g} chunk {c}: sampled but never traced"))?;
            // A chain at the event cap may have had its tail truncated;
            // completeness cannot be judged for it.
            let truncated = tr.events.len() >= obs::segtrace::MAX_TRACE_EVENTS;
            if tr.breakdown().is_none() && !truncated {
                return Err(format!(
                    "segtrace conn {g} chunk {c}: sampled chain incomplete after delivery"
                ));
            }
            checks += 1;
        }
    }
    let (_, _, wire) = store.origin_counts();
    if wire != 0 {
        return Err(format!("segtrace: {wire} wire-origin traces in a shared-recorder world"));
    }
    Ok(checks + 1)
}

/// What [`ConnOracle`] remembers of a connection between observations.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    state: State,
    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    accepted: u64,
    fin_rcvd: Option<u32>,
    cwnd: u32,
    cwnd_cuts: u64,
}

impl Snapshot {
    fn of(c: &Connection) -> Snapshot {
        Snapshot {
            state: c.state(),
            snd_una: c.snd_una(),
            snd_nxt: c.snd_nxt(),
            rcv_nxt: c.rcv_nxt(),
            accepted: c.stats.accepted,
            fin_rcvd: c.fin_rcvd_seq(),
            cwnd: c.cwnd(),
            cwnd_cuts: c.stats.cwnd_cuts,
        }
    }
}

/// Wrapping-monotone: `now` is at or after `prev` in sequence space.
fn advanced(prev: u32, now: u32) -> bool {
    (now.wrapping_sub(prev) as i32) >= 0
}

/// The oracle of one [`Connection`], whichever world it lives in. Its
/// first observation is the baseline: initial sequence numbers are
/// arbitrary, so monotonicity only means anything from the second on.
#[derive(Debug, Default)]
pub struct ConnOracle {
    prev: Option<Snapshot>,
    /// The single RFC 793 steps observed so far.
    pub(crate) steps: Steps,
}

impl ConnOracle {
    /// Oracle evaluations one [`ConnOracle::check`] performs.
    pub const CHECKS: u64 = 14;

    /// Observe `c`: every per-connection property, against the previous
    /// observation.
    pub fn check(&mut self, c: &Connection) -> Result<(), String> {
        let now = Snapshot::of(c);
        let prev = *self.prev.get_or_insert(now);
        // Every state change is reachable in the RFC 793 successor graph
        // — `Closed` is terminal within a tracked run and TIME_WAIT never
        // resurrects. (One tick can span several transitions:
        // reachability, not adjacency.)
        if !reachable(prev.state, now.state) {
            return Err(format!("illegal transition {} -> {}", prev.state.name(), now.state.name()));
        }
        self.steps.record(prev.state, now.state);
        if !advanced(prev.snd_una, now.snd_una) {
            return Err("snd_una went backwards".into());
        }
        if !advanced(prev.snd_nxt, now.snd_nxt) {
            return Err("snd_nxt went backwards".into());
        }
        if !advanced(now.snd_una, now.snd_nxt) {
            return Err("snd_una passed snd_nxt".into());
        }
        // The peer's SYN seeds the receive edge — the one jump it may
        // make — as the machine leaves `Listen` or `SynSent`.
        let unsynced = |s: State| matches!(s, State::Listen | State::SynSent);
        let seeded = unsynced(prev.state) && !unsynced(now.state);
        if !seeded && !advanced(prev.rcv_nxt, now.rcv_nxt) {
            return Err("rcv_nxt went backwards".into());
        }
        // The SYN and the FIN each occupy one sequence slot outside the
        // data ring, so flight accounting carries them explicitly.
        let in_flight = c.in_flight() as usize;
        let (syn, fin) = (c.syn_in_flight() as usize, c.fin_in_flight() as usize);
        if in_flight != c.ring().buffered_bytes() + syn + fin {
            return Err(format!(
                "in_flight {in_flight} != ring buffered {} + syn {syn} + fin {fin}",
                c.ring().buffered_bytes()
            ));
        }
        c.ring().check_invariants().map_err(|e| format!("ring: {e}"))?;
        // Post-FIN freeze: once the peer's FIN is accepted, the receive
        // edge is pinned at fin + 1 forever and no further segment may be
        // accepted — the property the accept-after-FIN mutant breaks.
        if let Some(f) = now.fin_rcvd {
            if now.rcv_nxt != f.wrapping_add(1) {
                return Err(format!(
                    "rcv_nxt {:#x} moved past the accepted FIN at {f:#x} — data after FIN",
                    now.rcv_nxt
                ));
            }
            if prev.fin_rcvd == Some(f) && now.accepted != prev.accepted {
                return Err("segment accepted after the FIN was processed".into());
            }
        }
        // Congestion window (all hold with congestion control off too —
        // cwnd and ssthresh then sit at a huge constant and `cwnd_cuts`
        // never moves): never below one MSS; inside fast recovery pinned
        // at an ssthresh of at least 2·MSS — halved, never the RTO
        // collapse to one MSS (an RTO ends the episode); non-decreasing
        // within a loss-free epoch; and three duplicate ACKs arm fast
        // retransmit.
        if now.cwnd < c.mss() {
            return Err(format!("cwnd {} below one MSS {}", now.cwnd, c.mss()));
        }
        if c.in_recovery() && now.cwnd != c.ssthresh() {
            return Err(format!("in recovery but cwnd {} != ssthresh {}", now.cwnd, c.ssthresh()));
        }
        if c.in_recovery() && now.cwnd < 2 * c.mss() {
            return Err(format!(
                "recovery collapsed cwnd to {} (< 2 MSS) instead of halving",
                now.cwnd
            ));
        }
        if now.cwnd_cuts == prev.cwnd_cuts && now.cwnd < prev.cwnd {
            return Err(format!(
                "cwnd shrank {} -> {} without a recorded loss event",
                prev.cwnd, now.cwnd
            ));
        }
        if c.dup_acks() >= 3 && !c.in_recovery() {
            return Err(format!("{} duplicate ACKs without entering fast recovery", c.dup_acks()));
        }
        self.prev = Some(now);
        Ok(())
    }
}

/// The harness-world oracle: a [`ConnOracle`] on each side of every
/// connection, plus what only the harness can check.
#[derive(Debug)]
pub(crate) struct Tracker {
    /// Per connection: the server's sender, the client's receiver.
    sides: Vec<[ConnOracle; 2]>,
    /// Per connection: bytes delivered at the last observation.
    delivered: Vec<u64>,
    /// Oracle evaluations performed (reported by the sweep — a sweep
    /// that silently checked nothing would read as all-green).
    pub(crate) checks: u64,
}

impl Tracker {
    /// The single RFC 793 steps observed on either side of any connection.
    pub(crate) fn steps(&self) -> Steps {
        let mut all = Steps::default();
        self.sides.iter().flatten().for_each(|o| all.absorb(o.steps));
        all
    }

    /// Start tracking a world of `n_conns` connections.
    pub(crate) fn new(n_conns: usize) -> Tracker {
        Tracker {
            sides: (0..n_conns).map(|_| Default::default()).collect(),
            delivered: vec![0; n_conns],
            checks: 0,
        }
    }

    /// Observe every server before the first round: each listens from
    /// construction (or `reopen_wave`) on, while a client, born
    /// `Established`, only connects in that round.
    pub(crate) fn listening(&mut self, h: &ScaleHarness<SimplifiedSafer>) -> Result<(), String> {
        for (i, sess) in h.table.iter().enumerate() {
            self.sides[i][0].check(&sess.tx).map_err(|e| format!("conn {i}: server {e}"))?;
            self.checks += ConnOracle::CHECKS;
        }
        Ok(())
    }

    /// Observe every connection after a round. `deep` additionally
    /// re-reads every client's delivered prefix from memory (quadratic
    /// over a run, so the loop samples it).
    pub(crate) fn check<M: Mem>(
        &mut self,
        h: &ScaleHarness<SimplifiedSafer>,
        m: &mut M,
        deep: bool,
    ) -> Result<(), String> {
        for (i, id) in h.table.ids().enumerate() {
            let sess = h.table.get(id);
            let (tx, rx) = (&sess.tx, h.client_rx(i));
            let [server, client] = &mut self.sides[i];
            server.check(tx).map_err(|e| format!("conn {i}: server {e}"))?;
            client.check(rx).map_err(|e| format!("conn {i}: client {e}"))?;
            // The kernel part never shrinks a window mid-run, so flight
            // never exceeds what the client advertised — the FIN aside
            // (RFC 793: a FIN may be sent into a zero window).
            let fin = tx.fin_in_flight();
            if tx.in_flight() > u32::from(tx.peer_window()) + fin {
                return Err(format!(
                    "conn {i}: in_flight {} exceeds advertised window {}",
                    tx.in_flight(),
                    tx.peer_window()
                ));
            }
            // Every round polls both ends until `poll_input` returns
            // `None`, which pays any ACK an accept left to the rest of
            // its burst; nothing after that poll (timers, close, FIN
            // handling) may run up a new one.
            if tx.owes_ack() || rx.owes_ack() {
                return Err(format!(
                    "conn {i}: an ACK is still owed after the round polled to empty \
                     (server {}, client {})",
                    tx.owes_ack(),
                    rx.owes_ack()
                ));
            }
            let (bytes, _chunks, _rejected) = h.client_progress(i);
            if bytes < std::mem::replace(&mut self.delivered[i], bytes) {
                return Err(format!("conn {i}: delivered bytes shrank"));
            }
            if deep && !h.verify_output_prefix(m, i, bytes as usize) {
                return Err(format!(
                    "conn {i}: delivered prefix diverges from the file pattern at ≤ {bytes} bytes"
                ));
            }
            self.checks += 2 * ConnOracle::CHECKS + 3 + u64::from(deep);
        }
        Ok(())
    }
}

/// Post-run conservation between a recorder's counters and its windowed
/// time series: summing a counter over every retained window (the
/// coarsening folds exactly, see `obs::timeseries`) must reproduce the
/// counter total.
pub fn check_conservation(rec: &Recorder) -> Result<u64, String> {
    let mut checks = 0u64;
    for c in Counter::ALL {
        let windows: u64 = rec.series().iter().map(|w| w.counter(c)).sum();
        if windows != rec.counter(c) {
            return Err(format!(
                "counter {} = {} but its series sums to {windows}",
                c.name(),
                rec.counter(c)
            ));
        }
        checks += 1;
    }
    Ok(checks)
}
