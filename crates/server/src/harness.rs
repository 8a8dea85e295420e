//! [`ScaleHarness`]: build a server plus N clients in one address space
//! and drive every transfer to completion.
//!
//! One scheduling round = one virtual tick:
//!
//! 1. unestablished clients (re-)send SYNs; the server accepts and
//!    answers; clients complete their handshakes;
//! 2. the harness scans the table once for the ready connections, the
//!    scheduler picks among them and the server runs one pipeline
//!    instance (ILP or non-ILP) per pick — a served connection that
//!    stopped being ready leaves the set, nobody else is looked at
//!    again — until flow control or the per-round burst bound stops it;
//! 3. every client drains its data endpoint through its receive
//!    pipeline;
//! 4. the server drains ACKs and advances each connection's
//!    retransmission timer by one tick.
//!
//! The loop is single-threaded on purpose: the paper's machines served
//! all connections from one CPU, and the cache effects the experiment
//! measures come precisely from that interleaving.
//!
//! When observed (a [`RunPath`] with an observer attached), the harness
//! calls [`obs::SpanObserver::tick`] at the top of every round, which is
//! also what flushes the recorder's windowed time series: a window seals
//! exactly when the virtual clock crosses a window boundary, so the
//! series' shape is a pure function of the run, never of host timing.

use cipher::{CipherKernel, SimplifiedSafer, VerySimple};
use ilp_core::Reject;
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::Mem;
use obs::{
    Counter, EventKind, Json, Metric, NoopObserver, PathLabel, Recorder, SpanObserver,
};
use obs::{ConnView, HealthConfig, QueueStat, Verdict};
pub use rpcapp::app::Path;
use utcp::{
    observed, Connection, EndpointId, FaultPlan, KernelPart, Loopback, SendError, UtcpConfig,
};

use crate::clock::VirtualClock;
use crate::conn_table::{ConnId, ConnTable, Session, SessionState};
use crate::handshake::{self, LISTEN_PORT};
use crate::pipeline::{
    recv_chunk_ilp, recv_chunk_non_ilp, send_chunk_ilp, send_chunk_non_ilp, Scratch,
};
use crate::sched::Scheduler;
use crate::stats::{jain_fairness, PerConnStats};

/// The span path label for a harness [`Path`].
fn path_label(path: Path) -> PathLabel {
    match path {
        Path::Ilp => PathLabel::Ilp,
        Path::NonIlp => PathLabel::NonIlp,
    }
}

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

/// Per-run bookkeeping the observer needs but the protocol does not:
/// the virtual tick each chunk was first handed to the transport, so
/// acceptance can be turned into an end-to-end latency sample.
#[derive(Debug)]
struct ObsState {
    /// `send_tick[conn][chunk_seq]`, `u64::MAX` = not sent yet.
    send_tick: Vec<Vec<u64>>,
}

impl ObsState {
    fn new<O: SpanObserver>(chunks_per_conn: &[usize]) -> Self {
        // Allocated only when the observer is live; the no-op path
        // carries an empty table.
        let send_tick = if O::ENABLED {
            chunks_per_conn.iter().map(|&c| vec![u64::MAX; c]).collect()
        } else {
            Vec::new()
        };
        ObsState { send_tick }
    }
}

/// Progress state of a steppable run — see [`ScaleHarness::begin_run`].
#[derive(Debug)]
pub struct RunState {
    st: ObsState,
    last_progress: u64,
    bytes_seen: u64,
}

/// The server's IP address.
pub const SERVER_IP: u32 = 0x0A00_0001;

/// Rounds between SYN retries while unestablished.
const SYN_RETRY_TICKS: u64 = 8;

/// Rounds without any delivered byte before the run is declared stuck.
const STALL_LIMIT: u64 = 30_000;

fn client_ip(i: usize) -> u32 {
    0x0A00_0100 + i as u32
}

fn server_data_port(i: usize) -> u16 {
    20_000 + i as u16
}

fn client_data_port(i: usize) -> u16 {
    30_000 + i as u16
}

fn ctrl_port(i: usize) -> u16 {
    40_000 + i as u16
}

fn client_iss(i: usize) -> u32 {
    0x0100_0000 + (i as u32) * 0x1_0000
}

fn server_iss(i: usize) -> u32 {
    0x8000_0000 + (i as u32) * 0x1_0000
}

/// Deterministic per-connection file pattern: byte `j` of connection
/// `conn`'s file. Distinct per connection, so any cross-connection
/// delivery shows up as a byte mismatch.
pub fn file_pattern(conn: usize, j: usize) -> u8 {
    (((j * 31 + 7) % 256) as u8) ^ (((conn * 97 + 13) % 256) as u8)
}

/// Workload shape for one harness.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of concurrent connections.
    pub n_conns: usize,
    /// Global index of this harness's first connection. Ports, client
    /// IPs, initial sequence numbers, and file patterns are all derived
    /// from `conn_base + i`, so several harnesses (the shards of a
    /// sharded server, see [`crate::shard`]) can serve disjoint slices
    /// of one logical connection space without colliding. `conn_base 0`
    /// is the plain single-harness world.
    pub conn_base: usize,
    /// File length per connection, bytes.
    pub file_len: usize,
    /// Maximum payload bytes per reply chunk.
    pub chunk: usize,
    /// Scheduler weights per connection (empty = all 1). Carried to the
    /// server in each client's SYN.
    pub weights: Vec<u32>,
    /// Fault plan installed on the shared kernel part.
    pub faults: FaultPlan,
    /// Send/retransmission ring capacity per server connection, bytes.
    /// The simulation scenarios shrink this to force tail wraps.
    pub ring_capacity: usize,
    /// Hard bound on scheduling rounds.
    pub max_rounds: u64,
    /// Fast retransmit + SACK on every connection (both directions).
    /// Off = the RTO-only baseline, kept for the goodput-under-loss
    /// comparison in `exp_loss`.
    pub loss_recovery: bool,
    /// Causal segment tracing: sample every `trace_every`-th chunk per
    /// connection (`(conn + chunk) % trace_every == 0`), 0 = off. Loss
    /// recovery promotes unsampled chunks on their first retransmit.
    /// Trace context rides *beside* datagrams (out of band), so wire
    /// bytes and simulated cost are identical at any setting.
    pub trace_every: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            n_conns: 4,
            conn_base: 0,
            file_len: 4096,
            chunk: 1024,
            weights: Vec::new(),
            faults: FaultPlan::default(),
            ring_capacity: 8 * 1024,
            max_rounds: 200_000,
            loss_recovery: true,
            trace_every: 0,
        }
    }
}

/// One client's receive side.
#[derive(Debug)]
struct ClientSide {
    rx: Connection,
    ctrl_ep: EndpointId,
    ctrl_port: u16,
    data_port: u16,
    ip: u32,
    iss: u32,
    weight: u32,
    established: bool,
    app_out: Region,
    bytes: u64,
    chunks: u64,
    rejected: u64,
    last_syn: Option<u64>,
    /// Tick of the very first SYN (for handshake-latency samples).
    first_syn: Option<u64>,
    /// Last virtual tick a chunk was accepted (0 = never). Plain host
    /// bookkeeping for the health engine's stall detector — no [`Mem`]
    /// traffic, so it cannot perturb the simulated run.
    last_delivery_tick: u64,
}

/// What a finished run did, across all connections.
#[derive(Debug, Clone)]
pub struct AggregateReport {
    /// Per-connection accounting, in connection order.
    pub per_conn: Vec<PerConnStats>,
    /// Total application payload bytes delivered.
    pub payload_bytes: u64,
    /// Scheduling rounds the run took.
    pub rounds: u64,
    /// Total retransmissions across connections.
    pub retransmits: u64,
    /// Duplicate-ACK/SACK-driven retransmissions among those.
    pub fast_retransmits: u64,
    /// Total rejected segments across clients.
    pub rejected: u64,
    /// Datagrams bit-flipped by fault injection.
    pub corrupted: u64,
    /// Jain's fairness index over weight-normalised per-connection bytes
    /// at the moment the first connection finished (1.0 when n = 1).
    pub fairness: f64,
    /// Name of the scheduler that ran.
    pub scheduler: &'static str,
}

/// Server + N clients + shared kernel part, in one address space.
///
/// Generic over the [`KernelPart`] backend; defaults to the in-process
/// [`Loopback`], which remains the deterministic tier-1/DST world. The
/// default keeps every existing `ScaleHarness<Cipher>` reference (and
/// the fault-injection surface, which is `Loopback`-specific) exactly
/// as it was.
#[derive(Debug)]
pub struct ScaleHarness<C, K: KernelPart = Loopback> {
    cipher: C,
    /// The shared kernel part (exposed for fault injection in tests).
    pub lb: K,
    /// The server's connection table.
    pub table: ConnTable,
    clients: Vec<ClientSide>,
    listen_ep: EndpointId,
    /// Shared buffers and code footprints.
    pub scratch: Scratch,
    clock: VirtualClock,
    cfg: ServerConfig,
    hs_scratch: Region,
    /// Per-connection delivered bytes at the first completion.
    snapshot: Option<Vec<u64>>,
    /// This round's ready set (ascending ids), reused round after round
    /// so scheduling allocates nothing.
    ready: Vec<ConnId>,
}

impl ScaleHarness<SimplifiedSafer> {
    /// Build with the paper's simplified SAFER K-64.
    pub fn simplified(space: &mut AddressSpace, cfg: ServerConfig) -> Self {
        let cipher = SimplifiedSafer::alloc(space);
        Self::with_cipher(space, cipher, cfg)
    }
}

impl ScaleHarness<VerySimple> {
    /// Build with the very simple cipher.
    pub fn very_simple(space: &mut AddressSpace, cfg: ServerConfig) -> Self {
        let cipher = VerySimple::alloc(space);
        Self::with_cipher(space, cipher, cfg)
    }
}

impl<C: CipherKernel + Copy> ScaleHarness<C> {
    /// Assemble the world around an already-allocated cipher, over the
    /// deterministic loop-back kernel part.
    pub fn with_cipher(space: &mut AddressSpace, cipher: C, cfg: ServerConfig) -> Self {
        // Slot pool: a few datagrams per connection stay queued between
        // rounds (data in flight + ACKs); overruns are recovered by
        // checksum + retransmission, but size generously.
        let mut lb = Loopback::with_capacity(space, 16 * cfg.n_conns.max(1) + 64);
        lb.set_faults(cfg.faults);
        Self::with_cipher_over(space, cipher, cfg, lb)
    }
}

impl<C: CipherKernel + Copy, K: KernelPart> ScaleHarness<C, K> {
    /// Assemble the world around an already-allocated cipher and an
    /// already-built kernel-part backend. The backend brings its own
    /// fault story ([`ServerConfig::faults`] only applies to the
    /// loop-back constructors — a real network faults by itself).
    pub fn with_cipher_over(space: &mut AddressSpace, cipher: C, cfg: ServerConfig, mut lb: K) -> Self {
        assert!(cfg.n_conns >= 1, "a server needs at least one connection");
        assert!(
            cfg.conn_base + cfg.n_conns <= 10_000,
            "port scheme supports at most 10000 connections (base {} + {})",
            cfg.conn_base,
            cfg.n_conns
        );
        assert!(cfg.chunk > 0 && cfg.chunk + 64 <= 1536, "chunk must fit one TPDU");
        let listen_ep = lb.register(LISTEN_PORT);
        let hs_scratch = space.alloc("hs_scratch", 64, 8);
        let scratch = Scratch::alloc(space);
        let mut table = ConnTable::new();
        let mut clients = Vec::with_capacity(cfg.n_conns);
        for i in 0..cfg.n_conns {
            // `g` is the connection's global index; everything derived
            // from identity (ports, IPs, ISS, file pattern) uses it.
            let g = cfg.conn_base + i;
            let weight = cfg.weights.get(i).copied().unwrap_or(1).max(1);
            let tx_cfg = UtcpConfig {
                local_port: server_data_port(g),
                peer_port: client_data_port(g),
                local_ip: SERVER_IP,
                peer_ip: client_ip(g),
                ring_capacity: cfg.ring_capacity,
                loss_recovery: cfg.loss_recovery,
                ..Default::default()
            };
            let mut tx = Connection::new(space, &mut lb, tx_cfg, server_iss(g));
            // Flight-recorder rings are keyed by this id; using the
            // *global* index keeps shard merges a clean union.
            tx.set_obs_id(g as u32);
            tx.set_seg_sampling(cfg.trace_every);
            let file = space.alloc_kind("srv_file", cfg.file_len.max(64), 64, RegionKind::AppData);
            table.insert(Session {
                tx,
                state: SessionState::Allocated,
                file,
                file_len: cfg.file_len,
                chunk: cfg.chunk,
                next_chunk: 0,
                weight,
                client_data_port: client_data_port(g),
                client_ctrl_port: ctrl_port(g),
                stats: PerConnStats::default(),
            });
            // Receive-only: the ring is unused.
            let rx_cfg = UtcpConfig { ring_capacity: 256, ..tx_cfg.mirror() };
            let mut rx = Connection::new(space, &mut lb, rx_cfg, client_iss(g));
            rx.set_obs_id(g as u32);
            let ctrl_ep = lb.register(ctrl_port(g));
            let app_out =
                space.alloc_kind("cli_out", cfg.file_len.max(64), 64, RegionKind::AppData);
            clients.push(ClientSide {
                rx,
                ctrl_ep,
                ctrl_port: ctrl_port(g),
                data_port: client_data_port(g),
                ip: client_ip(g),
                iss: client_iss(g),
                weight,
                established: false,
                app_out,
                bytes: 0,
                chunks: 0,
                rejected: 0,
                last_syn: None,
                first_syn: None,
                last_delivery_tick: 0,
            });
        }
        ScaleHarness {
            cipher,
            lb,
            table,
            clients,
            listen_ep,
            scratch,
            clock: VirtualClock::new(),
            ready: Vec::with_capacity(cfg.n_conns),
            cfg,
            hs_scratch,
            snapshot: None,
        }
    }

    /// Fill every connection's server file with its pattern (call once
    /// per memory world, together with cipher init — see [`WorldInit`]).
    pub fn fill_files<M: Mem>(&self, m: &mut M) {
        for (i, sess) in self.table.iter().enumerate() {
            for j in 0..sess.file_len {
                m.write_u8(sess.file.at(j), file_pattern(self.cfg.conn_base + i, j));
            }
        }
    }

    /// The configuration this harness was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

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
    /// Panics if no byte is delivered for [`STALL_LIMIT`] rounds or the
    /// configured `max_rounds` is exceeded — both indicate a protocol or
    /// scheduling bug, not a recoverable condition.
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
        let chunks_per_conn: Vec<usize> = self.table.iter().map(|s| s.chunks_total()).collect();
        // Anchor progress at the current clock so a churn wave that
        // begins late in a long run does not trip the stall detector.
        RunState {
            st: ObsState::new::<O>(&chunks_per_conn),
            last_progress: self.clock.now(),
            bytes_seen: self.clients.iter().map(|c| c.bytes).sum(),
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
        let n = self.table.len();
        let now = self.clock.advance();
        if O::ENABLED {
            obs.tick(now);
        }
        self.drive_handshakes(m, now, obs);
        self.drive_sends(m, sched, path, n, now, obs, &mut run.st);
        self.drive_receives(m, path, n, now, obs, &run.st);
        self.settle_round(m, now, n, path, obs);

        if self.table.iter().all(|s| s.state == SessionState::Done) {
            return false;
        }
        let total: u64 = self.clients.iter().map(|c| c.bytes).sum();
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

    /// App-enqueue mark for `chunk` of global connection `g`: the
    /// moment the chunk became available to the transport (established
    /// for chunk 0, previous chunk handed off for the rest). Plain host
    /// bookkeeping — no [`Mem`] traffic.
    fn seg_enqueue<O: SpanObserver>(&self, obs: &mut O, g: u32, chunk: u32) {
        if O::ENABLED && self.cfg.trace_every != 0 {
            let traced = obs::segtrace::sampled(self.cfg.trace_every, g, chunk);
            obs.seg(obs::SegTag { conn: g, chunk, xmit: 0 }, obs::SegEv::Enqueue { traced });
        }
    }

    /// Step 1: SYN retries, accepts, SYN-ACK completion.
    fn drive_handshakes<M: Mem, O: SpanObserver>(&mut self, m: &mut M, now: u64, obs: &mut O) {
        let n = self.clients.len();
        for i in 0..n {
            if self.clients[i].established {
                continue;
            }
            let due = match self.clients[i].last_syn {
                None => true,
                Some(t) => now - t >= SYN_RETRY_TICKS,
            };
            if !due {
                continue;
            }
            let c = &self.clients[i];
            handshake::client_send_syn(
                m,
                &mut self.lb,
                self.hs_scratch,
                c.ip,
                SERVER_IP,
                c.ctrl_port,
                c.iss,
                c.data_port,
                c.weight,
            );
            if O::ENABLED {
                if self.clients[i].last_syn.is_some() {
                    obs.count(Counter::SynRetries, 1);
                }
                obs.event(EventKind::SynSent, i as u32, 0);
            }
            if self.clients[i].first_syn.is_none() {
                self.clients[i].first_syn = Some(now);
            }
            self.clients[i].last_syn = Some(now);
        }
        // Server: accept everything pending on the listen endpoint. The
        // accept is idempotent — a retried SYN for an established
        // session just provokes a fresh SYN-ACK.
        while let Some(d) = self.lb.recv_into(m, self.listen_ep) {
            let Some(info) = handshake::parse_syn(m, &d, SERVER_IP) else { continue };
            let Some(id) = self.table.lookup_port(info.data_port) else { continue };
            let sess = self.table.get_mut(id);
            let newly = sess.state == SessionState::Allocated;
            if newly {
                sess.state = SessionState::Established;
                sess.weight = info.weight.max(1);
                sess.stats.established_at = now;
                // The SYN carries the client's ISS: the data sender must
                // know it so the client's eventual FIN (at exactly that
                // sequence number — the client never sends data) lands
                // in order and teardown can complete.
                sess.tx.set_peer_iss(info.iss);
            }
            let has_work = sess.chunks_total() > 0;
            if newly && has_work {
                // Chunk 0 enters the app queue the moment the session
                // establishes.
                self.seg_enqueue(obs, (self.cfg.conn_base + id.index()) as u32, 0);
            }
            handshake::server_send_syn_ack(
                m,
                &mut self.lb,
                self.hs_scratch,
                SERVER_IP,
                info.src_ip,
                info.ctrl_port,
                server_iss(self.cfg.conn_base + id.index()),
                info.iss,
            );
        }
        for i in 0..n {
            if self.clients[i].established {
                continue;
            }
            let expected_ack = self.clients[i].iss.wrapping_add(1);
            let ep = self.clients[i].ctrl_ep;
            let ip = self.clients[i].ip;
            if let Some(siss) = handshake::client_poll_syn_ack(m, &mut self.lb, ep, ip, expected_ack)
            {
                self.clients[i].rx.set_peer_iss(siss);
                self.clients[i].established = true;
                if O::ENABLED {
                    obs.count(Counter::Handshakes, 1);
                    let took = now.saturating_sub(self.clients[i].first_syn.unwrap_or(now));
                    obs.sample(Metric::HandshakeTicks, took);
                    obs.event(EventKind::Established, i as u32, took);
                }
            }
        }
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
    #[allow(clippy::too_many_arguments)]
    fn drive_sends<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        sched: &mut dyn Scheduler,
        path: Path,
        n: usize,
        now: u64,
        obs: &mut O,
        st: &mut ObsState,
    ) {
        // The one scan of the round. Until `settle_round` consumes ACKs
        // nothing moves a window, a ring tail or a session state except
        // a connection's own send, so from here on only the connection
        // just served is looked at again.
        self.ready.clear();
        self.ready.extend(self.table.ids().filter(|&id| Self::sendable(self.table.get(id))));
        if O::ENABLED {
            // One depth sample per round, before the scheduler eats
            // into the ready set.
            obs.sample(Metric::ReadyQueueDepth, self.ready.len() as u64);
        }
        let mut burst = 0usize;
        while let Some(id) = sched.pick(&self.ready) {
            let sess = self.table.get_mut(id);
            let (meta, addr) = sess.next_meta().expect("ready implies work");
            let k = &mut observed(&mut self.lb, obs, path_label(path));
            let (s, tx) = (&self.scratch, &mut sess.tx);
            let outcome = match path {
                Path::Ilp => send_chunk_ilp(s, self.cipher, m, tx, k, &meta, addr),
                Path::NonIlp => send_chunk_non_ilp(s, &self.cipher, m, tx, k, &meta, addr),
            };
            match outcome {
                Ok(padded) => {
                    sess.next_chunk += 1;
                    let granted =
                        (sess.next_chunk < sess.chunks_total()).then_some(sess.next_chunk as u32);
                    if !Self::sendable(sess) {
                        // Removing in place keeps the set ascending.
                        if let Ok(at) = self.ready.binary_search_by_key(&id.0, |c| c.0) {
                            self.ready.remove(at);
                        }
                    }
                    sched.charge(id, padded);
                    if O::ENABLED {
                        obs.count(Counter::ChunksSent, 1);
                        obs.event(EventKind::ChunkSent, id.index() as u32, u64::from(meta.seq));
                        let slot = &mut st.send_tick[id.index()][meta.seq as usize];
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
            if burst >= 4 * n {
                break;
            }
        }
    }

    /// Step 3: every client drains its data endpoint.
    fn drive_receives<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        path: Path,
        n: usize,
        now: u64,
        obs: &mut O,
        st: &ObsState,
    ) {
        for i in 0..n {
            if !self.clients[i].established {
                continue;
            }
            if O::ENABLED {
                let depth = self.lb.pending(self.clients[i].rx.endpoint());
                obs.sample(Metric::KernelQueueDepth, depth as u64);
            }
            loop {
                let c = &mut self.clients[i];
                let k = &mut observed(&mut self.lb, obs, path_label(path));
                let (s, rx) = (&self.scratch, &mut c.rx);
                let outcome = match path {
                    Path::Ilp => recv_chunk_ilp(s, self.cipher, m, rx, k, c.app_out),
                    Path::NonIlp => recv_chunk_non_ilp(s, &self.cipher, m, rx, k, c.app_out),
                };
                match outcome {
                    None => break,
                    Some(Ok(meta)) => {
                        c.bytes += u64::from(meta.data_len);
                        c.chunks += 1;
                        c.last_delivery_tick = now;
                        if O::ENABLED {
                            obs.count(Counter::ChunksDelivered, 1);
                            obs.sample(Metric::ChunkBytes, u64::from(meta.data_len));
                            let sent = st
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
                        c.rejected += 1;
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
    fn settle_round<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        now: u64,
        n: usize,
        path: Path,
        obs: &mut O,
    ) {
        for i in 0..n {
            let id = ConnId(i as u32);
            let chunks_total = self.table.get(id).chunks_total() as u64;
            let client_done = self.clients[i].chunks >= chunks_total;
            let sess = self.table.get_mut(id);
            if client_done && sess.stats.completed_at == 0 {
                sess.stats.completed_at = now;
            }
        }
        let pl = path_label(path);
        for (i, sess) in self.table.iter_mut().enumerate() {
            let retrans_before = if O::ENABLED { sess.tx.stats.retransmits } else { 0 };
            let k = &mut observed(&mut self.lb, obs, pl);
            while sess.tx.poll_input(m, k).is_some() {}
            sess.tx.tick(m, k);
            if O::ENABLED {
                let delta = sess.tx.stats.retransmits - retrans_before;
                if delta > 0 {
                    obs.count(Counter::Retransmits, delta);
                    obs.event(EventKind::Retransmit, i as u32, delta);
                }
            }
            if sess.stats.completed_at != 0
                && sess.tx.in_flight() == 0
                && sess.state == SessionState::Established
            {
                // Every byte delivered and acknowledged: actively close.
                // The FIN rides the same fixed-header discipline as
                // data, so wire identity between paths holds through
                // teardown.
                sess.tx.close(m, &mut observed(&mut self.lb, obs, pl));
                sess.state = SessionState::Closing;
                if O::ENABLED {
                    let took = now.saturating_sub(sess.stats.established_at);
                    obs.event(EventKind::Completed, i as u32, took);
                }
            }
        }
        // Teardown driving: a client whose receive direction saw the
        // server's FIN answers with its own close, and its timer runs so
        // a lost client FIN is retransmitted. Before any FIN exists the
        // tick is a pure clock advance — pre-teardown rounds are
        // bit-identical to the pre-lifecycle harness.
        for c in &mut self.clients {
            if !c.established {
                continue;
            }
            let k = &mut observed(&mut self.lb, obs, pl);
            if c.rx.state() == utcp::State::CloseWait {
                c.rx.close(m, k);
            }
            c.rx.tick(m, k);
        }
        for (i, sess) in self.table.iter_mut().enumerate() {
            if sess.state == SessionState::Closing
                && matches!(sess.tx.state(), utcp::State::TimeWait | utcp::State::Closed)
                && self.clients[i].rx.state() == utcp::State::Closed
            {
                sess.state = SessionState::Done;
            }
        }
        if self.snapshot.is_none() && self.table.iter().any(|s| s.stats.completed_at != 0) {
            self.snapshot = Some(self.clients.iter().map(|c| c.bytes).collect());
        }
    }

    /// Assemble the report after the loop exits.
    fn report(&self, scheduler: &'static str) -> AggregateReport {
        let per_conn: Vec<PerConnStats> = self
            .table
            .iter()
            .zip(&self.clients)
            .map(|(sess, c)| PerConnStats {
                payload_bytes: c.bytes,
                chunks: c.chunks,
                rejected: c.rejected,
                retransmits: sess.tx.stats.retransmits,
                fast_retransmits: sess.tx.stats.fast_retransmits,
                established_at: sess.stats.established_at,
                completed_at: sess.stats.completed_at,
            })
            .collect();
        let shares: Vec<f64> = match &self.snapshot {
            Some(snap) => snap
                .iter()
                .zip(&self.clients)
                .map(|(&b, c)| b as f64 / f64::from(c.weight))
                .collect(),
            None => Vec::new(),
        };
        AggregateReport {
            payload_bytes: per_conn.iter().map(|p| p.payload_bytes).sum(),
            rounds: self.clock.now(),
            retransmits: per_conn.iter().map(|p| p.retransmits).sum(),
            fast_retransmits: per_conn.iter().map(|p| p.fast_retransmits).sum(),
            rejected: per_conn.iter().map(|p| p.rejected).sum(),
            corrupted: self.lb.counters().corrupted,
            fairness: jain_fairness(&shares),
            scheduler,
            per_conn,
        }
    }

    /// Verify every client reassembled exactly its own file — the
    /// zero-cross-talk check. Returns the index of the first corrupted
    /// connection, or `None` if all are intact.
    pub fn verify_outputs<M: Mem>(&self, m: &mut M) -> Option<usize> {
        for (i, c) in self.clients.iter().enumerate() {
            for j in 0..self.cfg.file_len {
                if m.read_u8(c.app_out.at(j)) != file_pattern(self.cfg.conn_base + i, j) {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Mid-run prefix check for the simulation oracle: the first `bytes`
    /// output bytes of client `i` must already equal its file pattern —
    /// in-order delivery means a transfer is correct at every moment,
    /// not just at the end.
    pub fn verify_output_prefix<M: Mem>(&self, m: &mut M, i: usize, bytes: usize) -> bool {
        let c = &self.clients[i];
        let limit = bytes.min(self.cfg.file_len);
        (0..limit).all(|j| m.read_u8(c.app_out.at(j)) == file_pattern(self.cfg.conn_base + i, j))
    }

    /// Whether every connection on both sides has fully left the world:
    /// server senders past TIME_WAIT, clients dead.
    pub fn fully_closed(&self) -> bool {
        self.table.iter().all(|s| s.tx.state() == utcp::State::Closed)
            && self
                .clients
                .iter()
                .all(|c| !c.established || c.rx.state() == utcp::State::Closed)
    }

    /// Total TIME_WAIT residency in ticks accumulated across all server
    /// connections (the active closers).
    pub fn time_wait_residency(&self) -> u64 {
        self.table.iter().map(|s| s.tx.time_wait_residency()).sum()
    }

    /// After the run loop reports done (`Done` = sender in TIME_WAIT or
    /// beyond, client dead), run settle-only rounds — no new data — until
    /// every TIME_WAIT expires and both sides of every connection are
    /// `Closed`, then release all data ports and drain residual control
    /// queues. Returns the number of extra rounds taken.
    ///
    /// # Panics
    /// Panics if teardown fails to quiesce within [`STALL_LIMIT`] rounds
    /// (a lifecycle liveness bug), or if called before the transfers
    /// completed.
    pub fn drain_to_closed<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        path: Path,
        obs: &mut O,
    ) -> u64 {
        assert!(
            self.table.iter().all(|s| s.state != SessionState::Established),
            "drain_to_closed called while transfers are still running"
        );
        let pl = path_label(path);
        let mut rounds = 0u64;
        while !self.fully_closed() {
            rounds += 1;
            assert!(rounds < STALL_LIMIT, "teardown failed to quiesce");
            let now = self.clock.advance();
            if O::ENABLED {
                obs.tick(now);
            }
            let k = &mut observed(&mut self.lb, obs, pl);
            for c in &mut self.clients {
                if !c.established {
                    continue;
                }
                while c.rx.poll_input(m, k).is_some() {}
                if c.rx.state() == utcp::State::CloseWait {
                    c.rx.close(m, k);
                }
                c.rx.tick(m, k);
            }
            for sess in self.table.iter_mut() {
                while sess.tx.poll_input(m, k).is_some() {}
                sess.tx.tick(m, k);
            }
        }
        // Release every data port — the whole point of closing — and
        // swallow residual control datagrams (duplicate SYN-ACKs for
        // already-established clients) so the next incarnation starts
        // from empty queues.
        for sess in self.table.iter_mut() {
            self.lb.unregister(sess.tx.local_port());
            sess.state = SessionState::Done;
        }
        for c in &self.clients {
            self.lb.unregister(c.data_port);
            while self.lb.recv_into(m, c.ctrl_ep).is_some() {}
        }
        while self.lb.recv_into(m, self.listen_ep).is_some() {}
        rounds
    }

    /// Begin a fresh churn wave: every connection must be fully closed
    /// and its data ports released (see [`ScaleHarness::drain_to_closed`]).
    /// Reopens each server/client pair in place — the address space is
    /// long fixed, so nothing is allocated — resets transfer progress,
    /// zeroes the client output region so this wave's verification is
    /// real, and re-arms the accept handshake. The virtual clock and
    /// cumulative transport stats carry across waves.
    pub fn reopen_wave<M: Mem>(&mut self, m: &mut M) {
        for (i, sess) in self.table.iter_mut().enumerate() {
            assert_eq!(sess.state, SessionState::Done, "reopen_wave requires every session Done");
            let g = self.cfg.conn_base + i;
            sess.tx.reopen(&mut self.lb, server_iss(g));
            sess.state = SessionState::Allocated;
            sess.next_chunk = 0;
            sess.stats = PerConnStats::default();
            let c = &mut self.clients[i];
            c.rx.reopen(&mut self.lb, c.iss);
            c.established = false;
            c.last_syn = None;
            c.first_syn = None;
            c.bytes = 0;
            c.chunks = 0;
            c.rejected = 0;
            c.last_delivery_tick = 0;
            for j in 0..self.cfg.file_len {
                m.write_u8(c.app_out.at(j), 0);
            }
        }
        self.snapshot = None;
    }

    /// Abortive teardown of session `i` (the RST path): the server
    /// resets its side immediately; the client's machine dies when the
    /// RST lands — or, if the RST is lost, when its next segment is
    /// answered by the dead connection's RST.
    pub fn abort_session<M: Mem>(&mut self, m: &mut M, i: usize) {
        let sess = self.table.get_mut(ConnId(i as u32));
        sess.tx.abort(m, &mut self.lb);
        sess.state = SessionState::Closing;
    }

    /// Client `i`'s receive-side connection (read-only; simulation
    /// oracles inspect `rcv_nxt` and the ring).
    pub fn client_rx(&self, i: usize) -> &Connection {
        &self.clients[i].rx
    }

    /// Client `i`'s delivered payload bytes, accepted chunks, and
    /// rejected segments so far.
    pub fn client_progress(&self, i: usize) -> (u64, u64, u64) {
        let c = &self.clients[i];
        (c.bytes, c.chunks, c.rejected)
    }

    /// Whether client `i` completed its handshake.
    pub fn client_established(&self, i: usize) -> bool {
        self.clients[i].established
    }

    /// Per-connection health views at the current instant, in global
    /// connection order. These are the harness-side facts the
    /// [`obs::health`] detectors cannot read from the recorder alone:
    /// establishment/done state, sender RTO/cwnd/in-flight, the last
    /// delivery tick, and the fairness snapshot shares.
    pub fn health_views(&self) -> Vec<ConnView> {
        let now = self.clock.now();
        self.table
            .iter()
            .zip(&self.clients)
            .enumerate()
            .map(|(i, (sess, c))| ConnView {
                conn: (self.cfg.conn_base + i) as u32,
                established: c.established,
                done: sess.state == SessionState::Done,
                in_flight: sess.tx.in_flight(),
                rto: sess.tx.rto(),
                cwnd: sess.tx.cwnd(),
                now,
                // A connection that never delivered is measured from its
                // establish tick, not from tick 0 — otherwise a slow
                // handshake would read as a stall.
                last_progress: c.last_delivery_tick.max(sess.stats.established_at),
                delivered_bytes: c.bytes,
                share_bytes: match &self.snapshot {
                    Some(snap) => snap[i],
                    None => c.bytes,
                },
                weight: c.weight,
            })
            .collect()
    }

    /// Kernel-part queue occupancy for the saturation detector.
    pub fn queue_stat(&self) -> QueueStat {
        let k = self.lb.counters();
        QueueStat { peak: k.queue_peak, capacity: k.queue_capacity }
    }

    /// Run the health detectors over a recorder this harness filled.
    pub fn health(&self, rec: &Recorder, cfg: &HealthConfig) -> Vec<Verdict> {
        obs::health::analyze(rec, &self.health_views(), self.queue_stat(), cfg)
    }

    /// Full diagnostic bundle for this run: verdicts (under the default
    /// thresholds) plus the supporting evidence — offender flight dumps,
    /// series windows, queue stat, trace tail.
    pub fn diagnostics(&self, rec: &Recorder) -> Json {
        let views = self.health_views();
        let queue = self.queue_stat();
        let verdicts = obs::health::analyze(rec, &views, queue, &HealthConfig::default());
        obs::health::bundle(rec, &views, queue, &verdicts)
    }
}

/// Per-world initialisation: cipher key material + file patterns.
/// Mirrors [`rpcapp::suite::SuiteInit`] — each memory world (native
/// arena, each simulated host) needs its own pass before the run.
pub trait WorldInit<M: Mem> {
    /// Write tables, keys, and file contents into `m`.
    fn init_world(&self, m: &mut M);
}

impl<M: Mem, K: KernelPart> WorldInit<M> for ScaleHarness<SimplifiedSafer, K> {
    fn init_world(&self, m: &mut M) {
        self.cipher.init(m, *b"ILP95key");
        self.fill_files(m);
    }
}

impl<M: Mem, K: KernelPart> WorldInit<M> for ScaleHarness<VerySimple, K> {
    fn init_world(&self, m: &mut M) {
        self.fill_files(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{DeficitRoundRobin, RoundRobin};
    use memsim::NativeMem;

    fn run(cfg: ServerConfig, path: Path) -> (AggregateReport, Option<usize>) {
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, cfg);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        h.init_world(&mut m);
        let mut sched = RoundRobin::new();
        let report = h.run(&mut m, &mut sched, path);
        let corrupted = h.verify_outputs(&mut m);
        (report, corrupted)
    }

    #[test]
    fn four_connections_complete_on_both_paths() {
        for path in [Path::Ilp, Path::NonIlp] {
            let (report, corrupted) = run(ServerConfig::default(), path);
            assert_eq!(report.payload_bytes, 4 * 4096, "{path:?}");
            assert_eq!(corrupted, None, "{path:?}");
            assert_eq!(report.rejected, 0, "clean loop-back rejects nothing ({path:?})");
            assert!(report.fairness > 0.99, "fairness {} ({path:?})", report.fairness);
            for p in &report.per_conn {
                assert!(p.completed_at > 0);
                assert!(p.established_at > 0);
            }
        }
    }

    #[test]
    fn single_connection_degenerates_to_the_paper_setup() {
        let cfg = ServerConfig { n_conns: 1, file_len: 15 * 1024, ..Default::default() };
        let (report, corrupted) = run(cfg, Path::Ilp);
        assert_eq!(report.payload_bytes, 15 * 1024);
        assert_eq!(corrupted, None);
        assert!((report.fairness - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_scheduler_skews_early_shares() {
        let cfg = ServerConfig {
            n_conns: 3,
            file_len: 12 * 1024,
            chunk: 512,
            weights: vec![2, 1, 1],
            ..Default::default()
        };
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, cfg.clone());
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        h.init_world(&mut m);
        let mut sched = DeficitRoundRobin::new(cfg.weights.clone(), cfg.chunk as u32);
        let report = h.run(&mut m, &mut sched, Path::Ilp);
        assert_eq!(h.verify_outputs(&mut m), None);
        // Everyone eventually gets the whole file; weight-normalised
        // shares at first completion should still be near-fair.
        assert_eq!(report.payload_bytes, 3 * 12 * 1024);
        assert!(report.fairness > 0.9, "weighted fairness {}", report.fairness);
    }

    #[test]
    fn clean_run_raises_no_health_verdicts() {
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, ServerConfig::default());
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        h.init_world(&mut m);
        let mut sched = RoundRobin::new();
        let mut rec = Recorder::new(256);
        h.run(&mut m, &mut sched, (Path::Ilp, &mut rec));
        let verdicts = h.health(&rec, &HealthConfig::default());
        assert!(verdicts.is_empty(), "clean loop-back run must be healthy: {verdicts:?}");
        // Flight recorders exist for every connection (global ids) and
        // the diagnostic bundle is well-formed even with no verdicts.
        for i in 0..4 {
            assert!(rec.flights().contains_key(&(i as u32)), "flight ring for conn {i}");
        }
        let bundle = h.diagnostics(&rec);
        let text = bundle.render();
        assert!(text.contains("\"verdicts\":[]"), "no verdicts in bundle: {text}");
    }

    #[test]
    fn survives_fault_injection() {
        let cfg = ServerConfig {
            n_conns: 3,
            file_len: 6 * 1024,
            faults: FaultPlan { drop_every: 11, corrupt_every: 13, ..Default::default() },
            ..Default::default()
        };
        let (report, corrupted) = run(cfg, Path::Ilp);
        assert_eq!(report.payload_bytes, 3 * 6 * 1024);
        assert_eq!(corrupted, None, "faults must never corrupt delivered data");
        assert!(report.retransmits > 0, "drops must force retransmission");
        assert!(report.corrupted > 0, "corruption plan must have fired");
    }

    #[test]
    fn completed_run_tears_down_and_drains_every_connection_to_closed() {
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, ServerConfig::default());
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        h.init_world(&mut m);
        let mut sched = RoundRobin::new();
        h.run(&mut m, &mut sched, Path::Ilp);
        assert_eq!(h.verify_outputs(&mut m), None);
        // The run loop ends with every session torn down to at least
        // TIME_WAIT on the server side and CLOSED on the client side.
        for sess in h.table.iter() {
            assert_eq!(sess.state, SessionState::Done);
            assert!(
                matches!(sess.tx.state(), utcp::State::TimeWait | utcp::State::Closed),
                "server side still {:?}",
                sess.tx.state()
            );
            assert_eq!(sess.tx.stats.fins_sent, 1);
            assert_eq!(sess.tx.stats.fins_received, 1);
        }
        let extra = h.drain_to_closed(&mut m, Path::Ilp, &mut NoopObserver);
        assert!(h.fully_closed(), "drain must finish every TIME_WAIT");
        assert!(extra > 0, "run ends before TIME_WAIT expires; drain must do work");
        // Every active closer sat out its full quiet time.
        assert!(h.time_wait_residency() >= 4 * 2 * u64::from(utcp::MSL_TICKS));
    }

    #[test]
    fn reopen_wave_reruns_the_transfer_over_recycled_ports() {
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, ServerConfig::default());
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        h.init_world(&mut m);
        let mut sched = RoundRobin::new();
        let first = h.run(&mut m, &mut sched, Path::Ilp);
        assert_eq!(h.verify_outputs(&mut m), None);
        h.drain_to_closed(&mut m, Path::Ilp, &mut NoopObserver);
        h.reopen_wave(&mut m);
        let second = h.run(&mut m, &mut sched, Path::Ilp);
        assert_eq!(h.verify_outputs(&mut m), None, "second wave must redeliver every byte");
        assert_eq!(second.payload_bytes, first.payload_bytes);
        h.drain_to_closed(&mut m, Path::Ilp, &mut NoopObserver);
        assert!(h.fully_closed());
        // Stats are cumulative across waves: two handshakes' worth of FINs.
        for sess in h.table.iter() {
            assert_eq!(sess.tx.stats.fins_sent, 2);
        }
    }

    #[test]
    fn aborted_session_resets_its_client_and_the_rest_complete() {
        let mut space = AddressSpace::new();
        let mut h = ScaleHarness::simplified(&mut space, ServerConfig::default());
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        h.init_world(&mut m);
        let mut sched = RoundRobin::new();
        let mut obs = NoopObserver;
        let mut run = h.begin_run::<NoopObserver>();
        // Step until client 0 has accepted at least one chunk, then pull
        // the plug on its session mid-transfer.
        while h.client_rx(0).stats.accepted == 0 {
            assert!(h.step(&mut m, &mut sched, Path::Ilp, &mut obs, &mut run));
        }
        h.abort_session(&mut m, 0);
        assert_eq!(h.table.get(ConnId(0)).tx.state(), utcp::State::Closed);
        while h.step(&mut m, &mut sched, Path::Ilp, &mut obs, &mut run) {}
        // The RST tore the client down; its file is incomplete while the
        // other three transfers still verify.
        assert_eq!(h.verify_outputs(&mut m), Some(0));
        assert!(h.client_rx(0).stats.resets_received >= 1);
        assert_eq!(h.client_rx(0).state(), utcp::State::Closed);
        h.drain_to_closed(&mut m, Path::Ilp, &mut obs);
        assert!(h.fully_closed());
    }
}
