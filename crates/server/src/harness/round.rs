//! Steps 2–4 of a round and the run API around them: scheduler-driven
//! sends, client receives, the settle pass (completion stamps, ACK
//! drain, timers, close, fairness snapshot).
//!
//! Owns the ready set, the fairness snapshot and each client's delivery
//! progress. `settle_round` crosses into teardown's territory — it is
//! where a finished session starts its close and where `Closing`
//! becomes `Done` — because both are decided by what this round's ACKs
//! and FINs did.

use cipher::CipherKernel;
use ilp_core::Reject;
use memsim::Mem;
use obs::{Counter, EventKind, Metric, NoopObserver, SpanObserver};
use utcp::{observed, KernelPart, SendError, State};

use super::{AggregateReport, Path, ScaleHarness, STALL_LIMIT};
use crate::conn_table::{ConnId, Session, SessionState};
use crate::pipeline::{recv_chunk, send_chunk};
use crate::sched::Scheduler;

/// The `path` argument of [`ScaleHarness::run`]: a bare [`Path`] runs
/// unobserved ([`NoopObserver`] — every observation site compiles
/// away), `(path, &mut observer)` attaches an observer.
pub trait RunPath {
    /// The observer the run reports to.
    type Obs: SpanObserver;
    /// The data path to run, and the observer watching it.
    fn split(self) -> (Path, Self::Obs);
}

impl RunPath for Path {
    type Obs = NoopObserver;
    fn split(self) -> (Path, NoopObserver) {
        (self, NoopObserver)
    }
}

impl<'a, O: SpanObserver> RunPath for (Path, &'a mut O) {
    type Obs = &'a mut O;
    fn split(self) -> (Path, &'a mut O) {
        self
    }
}

/// The reject counter an error maps to (out-of-order segments surface
/// as `Malformed` from the transport's final stage).
fn reject_counter(r: &Reject) -> Counter {
    match r {
        Reject::BadChecksum { .. } => Counter::RejectChecksum,
        Reject::Malformed(_) => Counter::RejectOutOfOrder,
        Reject::BadFormat(_) => Counter::RejectBadFormat,
        Reject::NoConnection => Counter::RejectNoConnection,
    }
}

/// Progress state of a steppable run — see [`ScaleHarness::begin_run`].
#[derive(Debug)]
pub struct RunState {
    /// Per-run bookkeeping the observer needs but the protocol does
    /// not: `send_tick[conn][chunk_seq]`, the virtual tick each chunk
    /// was first handed to the transport (`u64::MAX` = not yet), so
    /// acceptance can be turned into an end-to-end latency sample.
    /// Empty when the observer is the no-op.
    send_tick: Vec<Vec<u64>>,
    last_progress: u64,
    bytes_seen: u64,
}

/// What one client has been delivered so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct Delivered {
    pub(super) bytes: u64,
    pub(super) chunks: u64,
    pub(super) rejected: u64,
    /// Last virtual tick a chunk was accepted (0 = never). Plain host
    /// bookkeeping for the health engine's stall detector — no [`Mem`]
    /// traffic, so it cannot perturb the simulated run.
    pub(super) last_tick: u64,
}

/// The round part's state.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Rounds {
    /// This round's ready set (ascending ids), reused round after round
    /// so scheduling allocates nothing. Rebuilt by every `drive_sends`;
    /// carries nothing from one round to the next.
    ready: Vec<ConnId>,
    /// Per-connection delivered bytes at the first completion.
    pub(super) snapshot: Option<Vec<u64>>,
    /// Per client, in connection order.
    pub(super) got: Vec<Delivered>,
}

impl Rounds {
    /// Nothing delivered to any of `n` clients, nobody finished.
    pub(super) fn new(n: usize) -> Self {
        Rounds { ready: Vec::with_capacity(n), snapshot: None, got: vec![Delivered::default(); n] }
    }

    /// Back to [`Rounds::new`] in place, keeping both buffers (a churn
    /// wave must not cost allocations the first wave did not).
    pub(super) fn rearm(&mut self) {
        let (mut ready, mut got) = (std::mem::take(&mut self.ready), std::mem::take(&mut self.got));
        ready.clear();
        got.fill(Delivered::default());
        *self = Rounds { ready, got, ..Rounds::new(0) };
    }
}

impl<C, K: KernelPart> ScaleHarness<C, K> {
    /// App-enqueue mark for `chunk` of global connection `g`: the
    /// moment the chunk became available to the transport (established
    /// for chunk 0, previous chunk handed off for the rest). Plain host
    /// bookkeeping — no [`Mem`] traffic.
    pub(super) fn seg_enqueue<O: SpanObserver>(&self, obs: &mut O, g: u32, chunk: u32) {
        if O::ENABLED && self.cfg.trace_every != 0 {
            let traced = obs::segtrace::sampled(self.cfg.trace_every, g, chunk);
            obs.seg(obs::SegTag { conn: g, chunk, xmit: 0 }, obs::SegEv::Enqueue { traced });
        }
    }
}

impl<C: CipherKernel + Copy, K: KernelPart> ScaleHarness<C, K> {
    /// Run the server loop to completion of every transfer, on a bare
    /// [`Path`] or on `(path, &mut observer)` (see [`RunPath`]).
    ///
    /// With an observer attached, per-stage spans flow out of every
    /// pipeline call, and the harness itself emits run counters
    /// (chunks, rejects by cause, retransmits, handshakes), latency
    /// samples (per-chunk send→accept, first SYN→established),
    /// queue-depth samples, and a packet-level event trace stamped with
    /// the virtual clock. An observer issues no [`Mem`] accesses, so
    /// simulated cost is bit-identical either way.
    ///
    /// # Panics
    /// Panics if no byte is delivered for the harness's stall limit of
    /// rounds or the configured `max_rounds` is exceeded — both indicate a
    /// protocol or scheduling bug, not a recoverable condition.
    pub fn run<M: Mem, P: RunPath>(
        &mut self,
        m: &mut M,
        sched: &mut dyn Scheduler,
        path: P,
    ) -> AggregateReport {
        let (path, mut obs) = path.split();
        let mut run = self.begin_run::<P::Obs>();
        while self.step(m, sched, path, &mut obs, &mut run) {}
        self.finish_run(&mut obs, sched.name())
    }

    /// Start a steppable run (the deterministic simulation runner drives
    /// [`ScaleHarness::step`] directly so it can interpose oracle checks
    /// between rounds; [`ScaleHarness::run`] is exactly `begin_run` +
    /// `step` until done + `finish_run`).
    pub fn begin_run<O: SpanObserver>(&mut self) -> RunState {
        // Allocated only when the observer is live; the no-op path
        // carries an empty table.
        let send_tick = if O::ENABLED {
            self.table.iter().map(|s| vec![u64::MAX; s.chunks_total()]).collect()
        } else {
            Vec::new()
        };
        // Anchor progress at the current clock so a churn wave that
        // begins late in a long run does not trip the stall detector.
        RunState {
            send_tick,
            last_progress: self.clock.now(),
            bytes_seen: self.rounds.got.iter().map(|g| g.bytes).sum(),
        }
    }

    /// Execute one scheduling round. Returns `false` once every transfer
    /// is done.
    ///
    /// # Panics
    /// Same stall / `max_rounds` conditions as [`ScaleHarness::run`].
    pub fn step<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        sched: &mut dyn Scheduler,
        path: Path,
        obs: &mut O,
        run: &mut RunState,
    ) -> bool {
        let now = self.clock.advance();
        if O::ENABLED {
            obs.tick(now);
        }
        self.drive_handshakes(m, now, obs);
        self.drive_sends(m, sched, path, now, obs, run);
        self.drive_receives(m, path, now, obs, run);
        self.settle_round(m, now, path, obs);

        if self.table.iter().all(|s| s.xfer.state == SessionState::Done) {
            return false;
        }
        let total: u64 = self.rounds.got.iter().map(|g| g.bytes).sum();
        if total > run.bytes_seen {
            run.bytes_seen = total;
            run.last_progress = now;
        }
        assert!(
            now - run.last_progress < STALL_LIMIT,
            "no progress for {STALL_LIMIT} rounds ({} bytes delivered)",
            run.bytes_seen
        );
        assert!(now < self.cfg.max_rounds, "exceeded max_rounds {}", self.cfg.max_rounds);
        true
    }

    /// Close out a steppable run: flush kernel-part totals to the
    /// observer and assemble the report.
    pub fn finish_run<O: SpanObserver>(
        &mut self,
        obs: &mut O,
        scheduler: &'static str,
    ) -> AggregateReport {
        if O::ENABLED {
            // Kernel-part totals are cheapest to read once at the end;
            // they are cumulative over the whole run.
            let k = self.lb.counters();
            obs.count(Counter::FaultDrops, k.dropped);
            obs.count(Counter::FaultCorruptions, k.corrupted);
            obs.count(Counter::Unroutable, k.unroutable);
        }
        self.report(scheduler)
    }

    /// Whether `s` has a chunk left to hand over and its transport would
    /// take that chunk right now — membership of the ready set.
    fn sendable(s: &Session) -> bool {
        s.has_work()
            && s.next_meta().is_some_and(|(meta, _)| s.tx.can_send(meta.padded_len(C::UNIT)))
    }

    /// Step 2: scheduler-driven sends until nobody is ready (or the
    /// per-round burst bound trips). The ready set is computed once,
    /// into the buffer the harness keeps for it, and then maintained: a
    /// served connection that stopped being ready is removed, nothing
    /// else is re-examined. That is the ascending, duplicate-free slice
    /// [`Scheduler::pick`] requires.
    fn drive_sends<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        sched: &mut dyn Scheduler,
        path: Path,
        now: u64,
        obs: &mut O,
        run: &mut RunState,
    ) {
        // The one scan of the round. Until `settle_round` consumes ACKs
        // nothing moves a window, a ring tail or a session state except
        // a connection's own send, so from here on only the connection
        // just served is looked at again.
        self.rounds.ready.clear();
        self.rounds.ready.extend(self.table.ids().filter(|&id| Self::sendable(self.table.get(id))));
        if O::ENABLED {
            // One depth sample per round, before the scheduler eats
            // into the ready set.
            obs.sample(Metric::ReadyQueueDepth, self.rounds.ready.len() as u64);
        }
        let burst_bound = 4 * self.table.len();
        let mut burst = 0usize;
        while let Some(id) = sched.pick(&self.rounds.ready) {
            let sess = self.table.get_mut(id);
            let (meta, addr) = sess.next_meta().expect("ready implies work");
            let k = &mut observed(&mut self.lb, obs, path);
            match send_chunk(path, &self.scratch, &self.cipher, m, &mut sess.tx, k, &meta, addr) {
                Ok(padded) => {
                    sess.xfer.next_chunk += 1;
                    let next = sess.xfer.next_chunk;
                    let granted = (next < sess.chunks_total()).then_some(next as u32);
                    if !Self::sendable(sess) {
                        // Removing in place keeps the set ascending.
                        if let Ok(at) = self.rounds.ready.binary_search_by_key(&id.0, |c| c.0) {
                            self.rounds.ready.remove(at);
                        }
                    }
                    sched.charge(id, padded);
                    if O::ENABLED {
                        obs.count(Counter::ChunksSent, 1);
                        obs.event(EventKind::ChunkSent, id.index() as u32, u64::from(meta.seq));
                        let slot = &mut run.send_tick[id.index()][meta.seq as usize];
                        if *slot == u64::MAX {
                            *slot = now;
                        }
                        if let Some(chunk) = granted {
                            // The next chunk becomes available as soon
                            // as this one was handed to the transport.
                            self.seg_enqueue(obs, (self.cfg.conn_base + id.index()) as u32, chunk);
                        }
                    }
                }
                // can_send is conservative about ring wrap; treat a raced
                // refusal as "not ready this round". `Closing` cannot
                // race here (has_work implies Established), but if a
                // scheduler ever picks a closing session the right move
                // is to skip it, not crash the server.
                Err(SendError::BufferFull | SendError::WindowClosed | SendError::Closing) => break,
                Err(e) => panic!("send failed: {e}"),
            }
            burst += 1;
            if burst >= burst_bound {
                break;
            }
        }
    }

    /// Step 3: every client drains its data endpoint.
    fn drive_receives<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        path: Path,
        now: u64,
        obs: &mut O,
        run: &RunState,
    ) {
        for (i, c) in self.clients.iter_mut().enumerate() {
            if !self.accept.dials[i].established {
                continue;
            }
            if O::ENABLED {
                let depth = self.lb.pending(c.rx.endpoint());
                obs.sample(Metric::KernelQueueDepth, depth as u64);
            }
            let got = &mut self.rounds.got[i];
            loop {
                let k = &mut observed(&mut self.lb, obs, path);
                match recv_chunk(path, &self.scratch, &self.cipher, m, &mut c.rx, k, c.app_out) {
                    None => break,
                    Some(Ok(meta)) => {
                        got.bytes += u64::from(meta.data_len);
                        got.chunks += 1;
                        got.last_tick = now;
                        if O::ENABLED {
                            obs.count(Counter::ChunksDelivered, 1);
                            obs.sample(Metric::ChunkBytes, u64::from(meta.data_len));
                            let sent = run
                                .send_tick
                                .get(i)
                                .and_then(|v| v.get(meta.seq as usize))
                                .copied()
                                .unwrap_or(u64::MAX);
                            if sent != u64::MAX {
                                obs.sample(Metric::ChunkLatencyTicks, now.saturating_sub(sent));
                            }
                            obs.event(EventKind::ChunkAccepted, i as u32, u64::from(meta.seq));
                        }
                    }
                    Some(Err(ref r)) => {
                        got.rejected += 1;
                        if O::ENABLED {
                            obs.count(reject_counter(r), 1);
                            obs.event(EventKind::ChunkRejected, i as u32, 0);
                        }
                    }
                }
            }
        }
    }

    /// Step 4: completion bookkeeping, ACK drain, timers, snapshot.
    ///
    /// Servers poll and tick first, clients tick after — the reverse of
    /// `drain_to_closed`'s order, and both orders are in the baselines:
    /// the two loops are not one loop.
    fn settle_round<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        now: u64,
        path: Path,
        obs: &mut O,
    ) {
        for (sess, got) in self.table.iter_mut().zip(&self.rounds.got) {
            if got.chunks >= sess.chunks_total() as u64 && sess.xfer.stats.completed_at == 0 {
                sess.xfer.stats.completed_at = now;
            }
        }
        for (i, sess) in self.table.iter_mut().enumerate() {
            let retrans_before = if O::ENABLED { sess.tx.stats.retransmits } else { 0 };
            let k = &mut observed(&mut self.lb, obs, path);
            while sess.tx.poll_input(m, k).is_some() {}
            sess.tx.tick(m, k);
            if O::ENABLED {
                let delta = sess.tx.stats.retransmits - retrans_before;
                if delta > 0 {
                    obs.count(Counter::Retransmits, delta);
                    obs.event(EventKind::Retransmit, i as u32, delta);
                }
            }
            if sess.xfer.stats.completed_at != 0
                && sess.tx.in_flight() == 0
                && sess.xfer.state == SessionState::Established
            {
                // Every byte delivered and acknowledged: actively close.
                // The FIN rides the same fixed-header discipline as
                // data, so wire identity between paths holds through
                // teardown.
                sess.tx.close(m, &mut observed(&mut self.lb, obs, path));
                sess.xfer.state = SessionState::Closing;
                if O::ENABLED {
                    let took = now.saturating_sub(sess.xfer.stats.established_at);
                    obs.event(EventKind::Completed, i as u32, took);
                }
            }
        }
        // Teardown driving: a client whose receive direction saw the
        // server's FIN answers with its own close, and its timer runs so
        // a lost client FIN is retransmitted. Before any FIN exists the
        // tick is a pure clock advance — pre-teardown rounds are
        // bit-identical to the pre-lifecycle harness.
        for (c, dial) in self.clients.iter_mut().zip(&self.accept.dials) {
            if !dial.established {
                continue;
            }
            let k = &mut observed(&mut self.lb, obs, path);
            if c.rx.state() == State::CloseWait {
                c.rx.close(m, k);
            }
            c.rx.tick(m, k);
        }
        for (sess, c) in self.table.iter_mut().zip(&self.clients) {
            if sess.xfer.state == SessionState::Closing
                && matches!(sess.tx.state(), State::TimeWait | State::Closed)
                && c.rx.state() == State::Closed
            {
                sess.xfer.state = SessionState::Done;
            }
        }
        if self.rounds.snapshot.is_none()
            && self.table.iter().any(|s| s.xfer.stats.completed_at != 0)
        {
            self.rounds.snapshot = Some(self.rounds.got.iter().map(|g| g.bytes).collect());
        }
    }
}
