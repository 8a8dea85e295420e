//! Cross-layer oracles: properties checked *while* a simulation runs.
//!
//! The reference model is deliberately simple — TCP over a loop-back
//! with faults must still behave like a reliable in-order byte pipe, so
//! at every virtual tick:
//!
//! * **prefix-exact delivery** (the in-memory TCP reference): the bytes
//!   a client has delivered so far must equal the leading prefix of the
//!   file the server is sending it — not just "the final file is
//!   right", but *right at every moment*;
//! * **sequence-counter sanity**: `snd_una`, `snd_nxt`, `rcv_nxt` only
//!   move forward (wrapping-monotone), and `snd_una` never passes
//!   `snd_nxt`;
//! * **window invariant**: flight size never exceeds the peer's
//!   advertised window (the kernel part never shrinks a window
//!   mid-run, so this holds unconditionally here);
//! * **ring accounting**: flight size equals the retransmission ring's
//!   buffered data bytes plus the unacknowledged FIN's sequence slot,
//!   and the ring's structural invariants
//!   ([`utcp::SendRing::check_invariants`]) hold;
//! * **lifecycle legality** ([`crate::lifecycle`]): every observed
//!   state change is reachable in the RFC 793 successor graph, and
//!   once a FIN is accepted the receive edge freezes at `fin + 1`;
//! * **congestion-window invariants**: cwnd ≥ 1 MSS, non-decreasing
//!   within a loss-free epoch (delimited by `ConnStats::cwnd_cuts`),
//!   pinned at a ≥ 2·MSS ssthresh inside fast recovery (halved, never
//!   collapsed), and three duplicate ACKs always arm fast retransmit;
//! * **no ACK left owed**: a receiver ACKs a drained burst once, owing
//!   the ACK while more of the burst is queued — a round ends with
//!   every endpoint polled to `None`, so no connection may still owe
//!   one;
//! * **conservation** (post-run): every observability counter equals
//!   the sum of its windowed time series — nothing the recorder counted
//!   leaks out of (or into) the series on window seals or merges.

use cipher::SimplifiedSafer;
use memsim::Mem;
use obs::{Counter, Recorder};
use server::ScaleHarness;

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

/// Per-connection previous values for the monotonicity checks.
#[derive(Debug, Clone, Copy)]
struct ConnPrev {
    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    bytes: u64,
    established: bool,
    cwnd: u32,
    cwnd_cuts: u64,
    tx_state: utcp::State,
    rx_state: utcp::State,
    rx_accepted: u64,
    rx_fin: Option<u32>,
}

/// Tracks one harness across ticks and counts the oracle evaluations.
/// Previous values start as `None`: initial sequence numbers are
/// arbitrary, so monotonicity only means anything from the second
/// observation on.
#[derive(Debug)]
pub struct Tracker {
    prev: Vec<Option<ConnPrev>>,
    /// Individual oracle evaluations performed (reported by the sweep —
    /// a sweep that silently checked nothing would read as all-green).
    pub checks: u64,
}

/// Wrapping-monotone: `now` is at or after `prev` in sequence space.
fn advanced(prev: u32, now: u32) -> bool {
    (now.wrapping_sub(prev) as i32) >= 0
}

impl Tracker {
    /// Start tracking a world of `n_conns` connections.
    pub fn new(n_conns: usize) -> Tracker {
        Tracker { prev: vec![None; n_conns], checks: 0 }
    }

    /// Run the per-tick oracles. `deep` additionally re-reads every
    /// client's delivered prefix from memory (quadratic over a run, so
    /// the runner samples it every few ticks and always at the end).
    pub fn check<M: Mem>(
        &mut self,
        h: &ScaleHarness<SimplifiedSafer>,
        m: &mut M,
        deep: bool,
    ) -> Result<(), String> {
        for (i, id) in h.table.ids().enumerate() {
            let sess = h.table.get(id);
            let tx = &sess.tx;
            let rx0 = h.client_rx(i);
            let prev = self.prev[i].get_or_insert(ConnPrev {
                snd_una: tx.snd_una(),
                snd_nxt: tx.snd_nxt(),
                rcv_nxt: rx0.rcv_nxt(),
                bytes: 0,
                established: false,
                cwnd: tx.cwnd(),
                cwnd_cuts: tx.stats.cwnd_cuts,
                tx_state: tx.state(),
                rx_state: rx0.state(),
                rx_accepted: rx0.stats.accepted,
                rx_fin: rx0.fin_rcvd_seq(),
            });

            // Lifecycle: every state change must be reachable in the
            // RFC 793 successor graph — Closed is terminal within a
            // tracked run and TIME_WAIT never resurrects. (One tick can
            // span several transitions; reachability, not adjacency.)
            if !crate::lifecycle::reachable(prev.tx_state, tx.state()) {
                return Err(format!(
                    "conn {i}: illegal server transition {} -> {}",
                    prev.tx_state.name(),
                    tx.state().name()
                ));
            }
            if !crate::lifecycle::reachable(prev.rx_state, rx0.state()) {
                return Err(format!(
                    "conn {i}: illegal client transition {} -> {}",
                    prev.rx_state.name(),
                    rx0.state().name()
                ));
            }

            if !advanced(prev.snd_una, tx.snd_una()) {
                return Err(format!("conn {i}: snd_una went backwards"));
            }
            if !advanced(prev.snd_nxt, tx.snd_nxt()) {
                return Err(format!("conn {i}: snd_nxt went backwards"));
            }
            if !advanced(tx.snd_una(), tx.snd_nxt()) {
                return Err(format!("conn {i}: snd_una passed snd_nxt"));
            }
            // The FIN occupies one sequence slot outside the data ring,
            // so flight accounting carries it explicitly — and it is
            // exempt from the advertised window (RFC 793: a FIN may be
            // sent into a zero window).
            let in_flight = tx.in_flight() as usize;
            let fin = tx.fin_in_flight() as usize;
            if in_flight != tx.ring().buffered_bytes() + fin {
                return Err(format!(
                    "conn {i}: in_flight {in_flight} != ring buffered {} + fin {fin}",
                    tx.ring().buffered_bytes()
                ));
            }
            if in_flight > usize::from(tx.peer_window()) + fin {
                return Err(format!(
                    "conn {i}: in_flight {in_flight} exceeds advertised window {}",
                    tx.peer_window()
                ));
            }
            tx.ring().check_invariants().map_err(|e| format!("conn {i}: server ring: {e}"))?;

            // Congestion-window invariants (all hold with congestion
            // control off too — cwnd and ssthresh then sit at a huge
            // constant and `cwnd_cuts` never moves):
            // * cwnd never shrinks below one MSS;
            // * inside fast recovery cwnd is pinned at ssthresh, and
            //   ssthresh ≥ 2·MSS — *halved*, never the RTO collapse to
            //   one MSS (an RTO ends the recovery episode);
            // * within a loss-free epoch (no cut recorded) cwnd is
            //   non-decreasing — additive/slow-start growth only;
            // * three duplicate ACKs must have armed fast retransmit.
            if tx.cwnd() < tx.mss() {
                return Err(format!("conn {i}: cwnd {} below one MSS {}", tx.cwnd(), tx.mss()));
            }
            if tx.in_recovery() {
                if tx.cwnd() != tx.ssthresh() {
                    return Err(format!(
                        "conn {i}: in recovery but cwnd {} != ssthresh {}",
                        tx.cwnd(),
                        tx.ssthresh()
                    ));
                }
                if tx.cwnd() < 2 * tx.mss() {
                    return Err(format!(
                        "conn {i}: recovery collapsed cwnd to {} (< 2 MSS) instead of halving",
                        tx.cwnd()
                    ));
                }
            }
            if tx.stats.cwnd_cuts == prev.cwnd_cuts && tx.cwnd() < prev.cwnd {
                return Err(format!(
                    "conn {i}: cwnd shrank {} -> {} without a recorded loss event",
                    prev.cwnd,
                    tx.cwnd()
                ));
            }
            if tx.dup_acks() >= 3 && !tx.in_recovery() {
                return Err(format!(
                    "conn {i}: {} duplicate ACKs without entering fast recovery",
                    tx.dup_acks()
                ));
            }

            let rx = h.client_rx(i);
            // rcv_nxt is re-seeded by `set_peer_iss` when the handshake
            // completes; monotonicity only holds once established.
            if h.client_established(i) && prev.established && !advanced(prev.rcv_nxt, rx.rcv_nxt())
            {
                return Err(format!("conn {i}: rcv_nxt went backwards"));
            }
            // Post-FIN freeze: once the client has accepted the
            // server's FIN, its receive edge is pinned at fin + 1
            // forever and no further segment may be accepted — the
            // exact property the accept-after-FIN mutation breaks.
            if let Some(f) = rx.fin_rcvd_seq() {
                if rx.rcv_nxt() != f.wrapping_add(1) {
                    return Err(format!(
                        "conn {i}: client rcv_nxt {:#x} moved past the accepted FIN at {f:#x} \
                         — data after FIN",
                        rx.rcv_nxt()
                    ));
                }
                if prev.rx_fin == Some(f) && rx.stats.accepted != prev.rx_accepted {
                    return Err(format!(
                        "conn {i}: client accepted a segment after processing the FIN"
                    ));
                }
            }
            if let Some(f) = tx.fin_rcvd_seq() {
                if tx.rcv_nxt() != f.wrapping_add(1) {
                    return Err(format!(
                        "conn {i}: server rcv_nxt moved past the client's FIN"
                    ));
                }
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
            if bytes < prev.bytes {
                return Err(format!("conn {i}: delivered bytes shrank"));
            }
            if deep && !h.verify_output_prefix(m, i, bytes as usize) {
                return Err(format!(
                    "conn {i}: delivered prefix diverges from the file pattern at ≤ {bytes} bytes"
                ));
            }

            prev.snd_una = tx.snd_una();
            prev.snd_nxt = tx.snd_nxt();
            prev.rcv_nxt = rx.rcv_nxt();
            prev.bytes = bytes;
            prev.established = h.client_established(i);
            prev.cwnd = tx.cwnd();
            prev.cwnd_cuts = tx.stats.cwnd_cuts;
            prev.tx_state = tx.state();
            prev.rx_state = rx.state();
            prev.rx_accepted = rx.stats.accepted;
            prev.rx_fin = rx.fin_rcvd_seq();
            self.checks += 18 + u64::from(deep);
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
