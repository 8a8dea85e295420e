//! The world: what a harness is built from and who is who in it.
//!
//! Everything about connection `g` — `g` being its index in this
//! harness — follows from `g` through the functions below, so nothing
//! stores a port, an IP or an ISS. Nothing in this part changes after
//! construction.

use cipher::{CipherKernel, SimplifiedSafer};
use memsim::layout::AddressSpace;
use memsim::region::RegionKind;
use memsim::Mem;
use rpcapp::ReplyMeta;
use utcp::{Connection, FaultPlan, KernelPart, Loopback, UtcpConfig};

use super::{accept::Acceptor, round::Rounds, ClientSide, ScaleHarness};
use crate::clock::VirtualClock;
use crate::conn_table::{ConnTable, Session};
use crate::pipeline::Scratch;

/// The server's IP address.
pub const SERVER_IP: u32 = 0x0A00_0001;

fn client_ip(g: usize) -> u32 {
    0x0A00_0100 + g as u32
}

fn server_data_port(g: usize) -> u16 {
    20_000 + g as u16
}

fn client_data_port(g: usize) -> u16 {
    30_000 + g as u16
}

pub(super) fn client_iss(g: usize) -> u32 {
    0x0100_0000 + (g as u32) * 0x1_0000
}

pub(super) fn server_iss(g: usize) -> u32 {
    0x8000_0000 + (g as u32) * 0x1_0000
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
    /// File length per connection, bytes.
    pub file_len: usize,
    /// Maximum payload bytes per reply chunk.
    pub chunk: usize,
    /// Scheduler weights per connection (empty = all 1). This is where
    /// a world's weights are stated:
    /// [`DeficitRoundRobin::for_config`](crate::DeficitRoundRobin::for_config)
    /// schedules by them and the fairness index normalises by them.
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

impl ServerConfig {
    /// Connection `i`'s scheduler weight: its entry in `weights`, 1 when
    /// the list is shorter, never 0.
    pub(crate) fn weight(&self, i: usize) -> u32 {
        self.weights.get(i).copied().unwrap_or(1).max(1)
    }
}

impl ScaleHarness<SimplifiedSafer> {
    /// Build with the paper's simplified SAFER K-64.
    pub fn simplified(space: &mut AddressSpace, cfg: ServerConfig) -> Self {
        let cipher = SimplifiedSafer::alloc(space);
        Self::with_cipher(space, cipher, cfg)
    }
}

impl<C: CipherKernel + Copy> ScaleHarness<C> {
    /// Assemble the world around an already-allocated cipher, over the
    /// deterministic loop-back kernel part.
    pub fn with_cipher(space: &mut AddressSpace, cipher: C, cfg: ServerConfig) -> Self {
        // Slot pool: a few datagrams per connection stay queued between
        // rounds (data in flight + ACKs); a dry pool refuses sends, which
        // retransmission recovers, but size generously.
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
        assert!(cfg.n_conns <= 10_000, "port scheme supports at most 10000 connections, not {}", cfg.n_conns);
        let padded = ReplyMeta { data_len: cfg.chunk as u32, ..Default::default() }.padded_len(C::UNIT);
        assert!(cfg.chunk > 0 && padded <= utcp::MTU, "chunk must fit one TPDU");
        // Allocation order is layout, and layout is every simulated
        // number: shared scratch, then per connection sender, file,
        // receiver, output.
        let scratch = Scratch::alloc(space);
        let mut table = ConnTable::new();
        let mut clients = Vec::with_capacity(cfg.n_conns);
        for g in 0..cfg.n_conns {
            let tx_cfg = UtcpConfig {
                local_port: server_data_port(g),
                peer_port: client_data_port(g),
                local_ip: SERVER_IP,
                peer_ip: client_ip(g),
                ring_capacity: cfg.ring_capacity,
                loss_recovery: cfg.loss_recovery,
            };
            let mut tx = Connection::new(space, &mut lb, tx_cfg, server_iss(g));
            tx.listen();
            // Flight-recorder rings and segment traces are keyed by
            // this id: the connection's harness index.
            tx.set_obs_id(g as u32);
            tx.set_seg_sampling(cfg.trace_every);
            let file = space.alloc_kind("srv_file", cfg.file_len.max(64), 64, RegionKind::AppData);
            table.insert(Session::new(tx, file, cfg.file_len, cfg.chunk));
            // Receive-only: the ring is unused.
            let rx_cfg = UtcpConfig { ring_capacity: 256, ..tx_cfg.mirror() };
            let mut rx = Connection::new(space, &mut lb, rx_cfg, client_iss(g));
            rx.set_obs_id(g as u32);
            let app_out =
                space.alloc_kind("cli_out", cfg.file_len.max(64), 64, RegionKind::AppData);
            clients.push(ClientSide { rx, app_out });
        }
        ScaleHarness {
            cipher,
            lb,
            table,
            clients,
            scratch,
            clock: VirtualClock::new(),
            rounds: Rounds::new(cfg.n_conns),
            accept: Acceptor::new(cfg.n_conns),
            cfg,
        }
    }

    /// Per-world initialisation — the cipher's tables and key, then
    /// every connection's server file filled with its pattern. Each
    /// memory world (native arena, each simulated host) needs its own
    /// pass before the run.
    pub fn init_world<M: Mem>(&self, m: &mut M) {
        self.cipher.init_world(m);
        for (i, sess) in self.table.iter().enumerate() {
            for j in 0..sess.file_len {
                m.write_u8(sess.file.at(j), file_pattern(i, j));
            }
        }
    }

    /// The configuration this harness was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }
}
