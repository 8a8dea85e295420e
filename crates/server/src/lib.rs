//! # server — event-driven multi-connection ILP file-transfer serving
//!
//! The paper evaluates Integrated Layer Processing over exactly one
//! loop-back connection pair. This crate turns the reproduction into a
//! *serving system*: one process multiplexes N concurrent file-transfer
//! connections over the shared kernel part, each with its own user-level
//! TCP state and its own fused marshal+encrypt+checksum pipeline
//! instance, and a pluggable scheduler decides which connection's chunk
//! is processed next.
//!
//! That composition lets us ask a question the paper's single-pair setup
//! could not: does ILP's single-read/single-write advantage survive when
//! the processing of many flows interleaves — when connection B's ring
//! buffer, TCB and staging buffer evict connection A's lines between
//! A's packets (cross-connection cache pollution)?
//!
//! ## Architecture
//!
//! * [`conn_table`] — the connection table: pre-allocated sessions (a
//!   TCB pool, as 1990s servers kept) keyed by [`ConnId`]. A session is
//!   what is fixed at construction plus the [`Transfer`] in progress;
//!   each session's sender listens on its own data port, and the
//!   kernel part's demultiplexer routes a client's SYN to it.
//! * [`sched`] — send scheduling: round-robin and deficit-style
//!   weighted round-robin over the connections with work and credit;
//!   the weights are [`ServerConfig::weights`] and nothing else.
//! * [`pipeline`] — `rpcapp::paths`' four data-path functions and
//!   their shared `Scratch` under the names this crate's callers
//!   import, plus `close_when_drained`; the paths themselves, the
//!   `send_chunk`/`recv_chunk` dispatch on [`Path`] (and the observer
//!   hooks they fire through `utcp::KernelCtx`) live in `rpcapp`. Scratch buffers and loop code footprints are shared
//!   across connections, per-connection state (ring, TCB, staging) is
//!   not.
//! * [`stats`] — per-connection accounting and Jain's fairness index.
//! * [`clock`] — the virtual clock driving every connection's
//!   retransmission timer.
//! * [`harness`] — [`harness::ScaleHarness`]: builds the whole world
//!   (server, N clients, shared kernel part) in one [`memsim`] address
//!   space and drives transfers to completion over either memory world.
//!   One struct in five parts — world, accept, round, teardown, report —
//!   each owning the state it writes (see the module's own docs). A
//!   process runs one such world on one thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod conn_table;
pub mod harness;
pub mod pipeline;
pub mod sched;
pub mod stats;

pub use clock::VirtualClock;
pub use conn_table::{ConnId, ConnTable, Session, SessionState, Transfer};
pub use harness::{AggregateReport, Path, ScaleHarness, ServerConfig, SERVER_IP};
pub use pipeline::Scratch;
pub use sched::{DeficitRoundRobin, RoundRobin, Scheduler};
pub use stats::{jain_fairness, PerConnStats};
