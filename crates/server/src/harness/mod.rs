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
//!
//! ## Parts
//!
//! The harness is one struct cut along its phases; each part owns the
//! state it alone writes, builds it in one constructor and puts it back
//! with one `rearm` (DESIGN §20 has the ownership table):
//!
//! * `world` — [`ServerConfig`], the identity scheme (ports, IPs, ISSs,
//!   file patterns as functions of a connection's global index),
//!   construction and per-world initialisation. Nothing here changes
//!   after construction.
//! * `accept` — step 1: the listen endpoint, the handshake scratch and
//!   each client's dial state.
//! * `round` — steps 2–4 and the steppable-run API: the ready set, the
//!   fairness snapshot, each client's delivery progress.
//! * `teardown` — draining to `Closed`, reopening for the next churn
//!   wave (per-part `rearm` calls), the abortive close.
//! * `report` — read-only views: the aggregate report, output
//!   verification, the health views.

mod accept;
mod report;
mod round;
mod teardown;
mod world;

use memsim::region::Region;
use utcp::{Connection, EndpointId, KernelPart, Loopback};

use crate::clock::VirtualClock;
use crate::conn_table::ConnTable;
use crate::pipeline::Scratch;

pub use report::AggregateReport;
pub use round::{RunPath, RunState};
pub use rpcapp::app::Path;
pub use world::{file_pattern, ServerConfig, SERVER_IP};

/// Rounds without any delivered byte (or, in teardown, without every
/// connection reaching `Closed`) before the harness declares itself
/// stuck.
const STALL_LIMIT: u64 = 30_000;

/// What one client is made of. Everything else about a client follows
/// from its index (`world`'s identity functions) or lives in the part
/// that writes it (`accept`'s dial state, `round`'s delivery progress).
#[derive(Debug)]
struct ClientSide {
    rx: Connection,
    ctrl_ep: EndpointId,
    app_out: Region,
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
    /// Shared buffers and code footprints.
    pub scratch: Scratch,
    /// Survives [`ScaleHarness::reopen_wave`]: one time base for every
    /// wave of a world.
    clock: VirtualClock,
    cfg: ServerConfig,
    accept: accept::Acceptor,
    rounds: round::Rounds,
}

#[cfg(test)]
mod tests;
