//! # utcp — user-level TCP over an in-process "kernel part"
//!
//! Reproduction of the transport substrate of the paper (§3.1, citing
//! Hoglander's INRIA user-level TCP): TCP runs as a library in the
//! application's address space, while a thin kernel part — functionally
//! "similar \[to\] UDP without checksum" — moves datagrams between
//! endpoints and demultiplexes them to the right user-level connection.
//! The paper ran sender and receiver on one machine over loop-back;
//! [`kernelpart::Loopback`] does the same in-process.
//!
//! Protocol profile, per the paper:
//!
//! * fixed 20-byte TCP headers on every **data** TPDU ("TCP header
//!   options are avoided to ensure fixed-size headers" — the ILP
//!   alignment argument rests on it); as a documented deviation, pure
//!   ACKs may carry an RFC 2018 SACK option for loss recovery
//!   (see [`wire`]);
//! * a connection carries data in **one direction only**; the reverse
//!   direction carries pure ACKs;
//! * one TSDU maps to exactly one TPDU (the ALF rule) — no segmentation
//!   or concatenation inside TCP;
//! * a ring buffer holds sent-but-unacknowledged data for retransmission;
//!   its geometry is exposed to the ILP loop, which writes transformed
//!   data straight into it ([`ring::RingWriter`] implements
//!   [`ilp_core::UnitSink`]).
//!
//! ILP integration points:
//!
//! * **send**: [`conn::Connection::begin_ilp_send`] hands out a ring
//!   writer; the fused marshal+encrypt+checksum loop stores into it, and
//!   [`conn::Connection::commit_send`] builds the header from the
//!   register-resident checksum — no separate checksum pass.
//!   The non-ILP [`conn::Connection::send_buf`] instead copies
//!   (`tcp_send`) and then reads everything again to checksum
//!   (`tcp_output`), as in the paper's Figure 3.
//! * **receive**: [`conn::Connection::poll_input`] performs the system
//!   copy and header parse (the *initial* stage), the caller fuses
//!   checksum+decrypt+unmarshal over the staged payload (*integrated*),
//!   and [`conn::Connection::finish_recv`] renders the accept/reject
//!   verdict and emits the ACK (*final*) — the three-stage split of
//!   §2.1, enforced by `ilp_core::three_stage`.
//!
//! Module map:
//!
//! * [`conn`] — the connection, cut along its protocol seams: `send`
//!   (send-sequence space, `tcp_output`, timer, ACK processing), `recv`
//!   (receive-sequence space, the initial and final stages, placement),
//!   `recovery` (dup ACKs, fast recovery, SACK scoreboard), `lifecycle`
//!   (RFC 793 states, FIN/RST, TIME_WAIT), `segtrace` (chunk ↔ sequence
//!   ledger); `conn` itself keeps the configuration, the shared regions
//!   and the one segment emitter.
//! * [`wire`] / [`ip`] — the TCP and IPv4 header layouts and their
//!   checksum rules, each stated once; [`ip`] also states the admission
//!   test every receiver applies.
//! * [`ring`] — the send/retransmission ring the ILP loop writes into.
//! * [`backend`] — the [`KernelPart`] contract and the [`KernelCtx`]
//!   handle (backend + observer + path label) call sites pass around.
//! * [`kernelpart`] — [`Loopback`], the in-process kernel part, and its
//!   seeded [`FaultPlan`]; [`demux`] — the port table and queues every
//!   kernel part (here and in `netback`) holds.
//! * [`kernel_model`] — the cost model of the BSD in-kernel comparator
//!   (paper Figure 12); [`rng`] — the workspace's xorshift64*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod conn;
pub mod demux;
pub mod ip;
pub mod kernel_model;
pub mod kernelpart;
pub mod ring;
pub mod rng;
pub mod wire;

pub use backend::{observed, KernelCounters, KernelCtx, KernelPart, Observed};
pub use conn::{Connection, Delivered, SendError, State, UtcpConfig, MSL_TICKS};
pub use demux::PortDemux;
pub use kernelpart::{Datagram, EndpointId, FaultDice, FaultPlan, FaultProbs, Loopback};
pub use ring::{RingWriter, SendRing};
pub use ip::{Ipv4Header, IP_HEADER_LEN};
pub use wire::{sack_option_len, SackBlocks, TcpFlags, TcpHeader, MAX_SACK_BLOCKS, TCP_HEADER_LEN};
