//! Step 1 of a round: SYN retries, accepts, SYN-ACK completion.
//!
//! Owns the listen endpoint, the scratch region both handshake
//! datagrams are staged in, and each client's dial state. Writes two
//! things outside itself, both at the moment a session is accepted: the
//! session's [`SessionState::Established`] + `established_at` stamp, and
//! the peer ISS on each side's connection.

use memsim::layout::AddressSpace;
use memsim::region::Region;
use memsim::Mem;
use obs::{Counter, EventKind, Metric, SpanObserver};
use utcp::{EndpointId, KernelPart};

use super::world::{client_data_port, client_ip, client_iss, ctrl_port, server_iss, SERVER_IP};
use super::ScaleHarness;
use crate::conn_table::SessionState;
use crate::handshake::{self, LISTEN_PORT};

/// Rounds between SYN retries while unestablished.
const SYN_RETRY_TICKS: u64 = 8;

/// Where one client is in dialling the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct Dial {
    pub(super) established: bool,
    last_syn: Option<u64>,
    /// Tick of the very first SYN (for handshake-latency samples).
    first_syn: Option<u64>,
}

/// The accept part's state.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Acceptor {
    pub(super) listen_ep: EndpointId,
    hs_scratch: Region,
    /// Per client, in connection order.
    pub(super) dials: Vec<Dial>,
}

impl Acceptor {
    /// Register the listen port, allocate the handshake scratch, and
    /// leave all `n` clients undialled.
    pub(super) fn new(space: &mut AddressSpace, lb: &mut impl KernelPart, n: usize) -> Self {
        let listen_ep = lb.register(LISTEN_PORT);
        let hs_scratch = space.alloc("hs_scratch", 64, 8);
        Acceptor { listen_ep, hs_scratch, dials: vec![Dial::default(); n] }
    }

    /// Every client undialled again, as [`Acceptor::new`] leaves them.
    pub(super) fn rearm(&mut self) {
        self.dials.fill(Dial::default());
    }
}

impl<C, K: KernelPart> ScaleHarness<C, K> {
    /// Whether client `i` completed its handshake.
    pub fn client_established(&self, i: usize) -> bool {
        self.accept.dials[i].established
    }

    /// Step 1: SYN retries, accepts, SYN-ACK completion.
    pub(super) fn drive_handshakes<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        now: u64,
        obs: &mut O,
    ) {
        let n = self.clients.len();
        let base = self.cfg.conn_base;
        for i in 0..n {
            let dial = &mut self.accept.dials[i];
            if dial.established || dial.last_syn.is_some_and(|t| now - t < SYN_RETRY_TICKS) {
                continue;
            }
            let g = base + i;
            handshake::client_send_syn(
                m,
                &mut self.lb,
                self.accept.hs_scratch,
                client_ip(g),
                SERVER_IP,
                ctrl_port(g),
                client_iss(g),
                client_data_port(g),
                self.cfg.weight(i),
            );
            if O::ENABLED {
                if dial.last_syn.is_some() {
                    obs.count(Counter::SynRetries, 1);
                }
                obs.event(EventKind::SynSent, i as u32, 0);
            }
            dial.first_syn.get_or_insert(now);
            dial.last_syn = Some(now);
        }
        // Server: accept everything pending on the listen endpoint. The
        // accept is idempotent — a retried SYN for an established
        // session just provokes a fresh SYN-ACK.
        while let Some(d) = self.lb.recv_into(m, self.accept.listen_ep) {
            let Some(info) = handshake::parse_syn(m, &d, SERVER_IP) else { continue };
            let Some(id) = self.table.lookup_port(info.data_port) else { continue };
            let g = base + id.index();
            let sess = self.table.get_mut(id);
            if sess.xfer.state == SessionState::Allocated {
                sess.xfer.state = SessionState::Established;
                sess.xfer.stats.established_at = now;
                // The SYN carries the client's ISS: the data sender must
                // know it so the client's eventual FIN (at exactly that
                // sequence number — the client never sends data) lands
                // in order and teardown can complete.
                sess.tx.set_peer_iss(info.iss);
                if sess.chunks_total() > 0 {
                    // Chunk 0 enters the app queue the moment the session
                    // establishes.
                    self.seg_enqueue(obs, g as u32, 0);
                }
            }
            handshake::server_send_syn_ack(
                m,
                &mut self.lb,
                self.accept.hs_scratch,
                SERVER_IP,
                info.src_ip,
                info.ctrl_port,
                server_iss(g),
                info.iss,
            );
        }
        for i in 0..n {
            let dial = &mut self.accept.dials[i];
            if dial.established {
                continue;
            }
            let (g, c) = (base + i, &mut self.clients[i]);
            let expected_ack = client_iss(g).wrapping_add(1);
            if let Some(siss) =
                handshake::client_poll_syn_ack(m, &mut self.lb, c.ctrl_ep, client_ip(g), expected_ack)
            {
                c.rx.set_peer_iss(siss);
                dial.established = true;
                if O::ENABLED {
                    obs.count(Counter::Handshakes, 1);
                    let took = now.saturating_sub(dial.first_syn.unwrap_or(now));
                    obs.sample(Metric::HandshakeTicks, took);
                    obs.event(EventKind::Established, i as u32, took);
                }
            }
        }
    }
}
