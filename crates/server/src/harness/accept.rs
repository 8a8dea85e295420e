//! Step 1 of a round: the open. Every client connects in its wave's
//! first round, and each pair still opening is polled server, client,
//! server, so a fault-free three-way handshake completes — and the first
//! chunk goes out — in the round that began it. The connections' own
//! timers, run in step 4, resend a lost SYN, SYN-ACK or final ACK.
//!
//! Owns each client's dial state. Writes one thing outside itself, once
//! a session's sender is open: its [`SessionState::Established`] +
//! `established_at` stamp.

use memsim::Mem;
use obs::{Counter, EventKind, Metric, SpanObserver};
use utcp::{KernelPart, State};

use super::ScaleHarness;
use crate::conn_table::{ConnId, SessionState};

/// Where one client is in opening its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct Dial {
    /// Tick of the client's `connect` (for handshake-latency samples).
    connected_at: Option<u64>,
    pub(super) established: bool,
}

/// The accept part's state.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Acceptor {
    /// Per client, in connection order.
    pub(super) dials: Vec<Dial>,
}

impl Acceptor {
    /// All `n` clients undialled.
    pub(super) fn new(n: usize) -> Self {
        Acceptor { dials: vec![Dial::default(); n] }
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

    /// Step 1: connect the wave's clients, then poll every pair still
    /// opening — server, client, server.
    pub(super) fn drive_handshakes<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        now: u64,
        obs: &mut O,
    ) {
        for i in 0..self.clients.len() {
            let (dial, c) = (&mut self.accept.dials[i], &mut self.clients[i]);
            let sess = self.table.get_mut(ConnId(i as u32));
            if dial.established && sess.xfer.state != SessionState::Allocated {
                continue;
            }
            if dial.connected_at.is_none() {
                c.rx.connect(m, &mut self.lb);
                dial.connected_at = Some(now);
                if O::ENABLED {
                    obs.event(EventKind::SynSent, i as u32, 0);
                }
            }
            while sess.tx.poll_input(m, &mut self.lb).is_some() {}
            while c.rx.poll_input(m, &mut self.lb).is_some() {}
            while sess.tx.poll_input(m, &mut self.lb).is_some() {}
            if !dial.established && c.rx.state() != State::SynSent {
                dial.established = true;
                if O::ENABLED {
                    obs.count(Counter::Handshakes, 1);
                    let took = now.saturating_sub(dial.connected_at.unwrap_or(now));
                    obs.sample(Metric::HandshakeTicks, took);
                    obs.event(EventKind::Established, i as u32, took);
                }
            }
            if sess.xfer.state == SessionState::Allocated && sess.tx.state() == State::Established {
                sess.xfer.state = SessionState::Established;
                sess.xfer.stats.established_at = now;
                // Chunk 0 enters the app queue the moment the session
                // establishes.
                if sess.chunks_total() > 0 {
                    self.seg_enqueue(obs, i as u32, 0);
                }
            }
        }
    }
}
