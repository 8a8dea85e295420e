//! After the last chunk: draining every connection to `Closed`,
//! re-arming the world for the next churn wave, and the abortive close.
//!
//! Owns no state of its own. `reopen_wave` is the one place a world goes
//! back to what construction built: each connection through
//! [`utcp::Connection::reopen`], each part through its own `rearm`.

use memsim::Mem;
use obs::SpanObserver;
use utcp::{observed, KernelPart, State};

use super::world::{client_data_port, client_iss, server_iss};
use super::{Path, ScaleHarness, STALL_LIMIT};
use crate::conn_table::{ConnId, SessionState, Transfer};

impl<C, K: KernelPart> ScaleHarness<C, K> {
    /// Whether every connection on both sides has fully left the world:
    /// server senders past TIME_WAIT, clients dead.
    pub fn fully_closed(&self) -> bool {
        self.table.iter().all(|s| s.tx.state() == State::Closed)
            && self
                .clients
                .iter()
                .zip(&self.accept.dials)
                .all(|(c, dial)| !dial.established || c.rx.state() == State::Closed)
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
    /// Clients poll, close and tick first, servers poll and tick after —
    /// the reverse of `settle_round`'s order; see there.
    ///
    /// # Panics
    /// Panics if teardown fails to quiesce within the harness's stall
    /// limit of rounds (a lifecycle liveness bug), or if called before the
    /// transfers completed.
    pub fn drain_to_closed<M: Mem, O: SpanObserver>(
        &mut self,
        m: &mut M,
        path: Path,
        obs: &mut O,
    ) -> u64 {
        assert!(
            self.table.iter().all(|s| s.xfer.state != SessionState::Established),
            "drain_to_closed called while transfers are still running"
        );
        let mut rounds = 0u64;
        while !self.fully_closed() {
            rounds += 1;
            assert!(rounds < STALL_LIMIT, "teardown failed to quiesce");
            let now = self.clock.advance();
            if O::ENABLED {
                obs.tick(now);
            }
            let k = &mut observed(&mut self.lb, obs, path);
            for (c, dial) in self.clients.iter_mut().zip(&self.accept.dials) {
                if !dial.established {
                    continue;
                }
                while c.rx.poll_input(m, k).is_some() {}
                if c.rx.state() == State::CloseWait {
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
            sess.xfer.state = SessionState::Done;
        }
        for (i, c) in self.clients.iter().enumerate() {
            self.lb.unregister(client_data_port(self.cfg.conn_base + i));
            while self.lb.recv_into(m, c.ctrl_ep).is_some() {}
        }
        while self.lb.recv_into(m, self.accept.listen_ep).is_some() {}
        rounds
    }

    /// Begin a fresh churn wave: every connection must be fully closed
    /// and its data ports released (see [`ScaleHarness::drain_to_closed`]).
    /// Reopens each server/client pair in place — the address space is
    /// long fixed, so nothing is allocated — puts every part back as
    /// construction built it, and zeroes the client output region so
    /// this wave's verification is real. The virtual clock and
    /// cumulative transport stats carry across waves.
    pub fn reopen_wave<M: Mem>(&mut self, m: &mut M) {
        for (i, (sess, c)) in self.table.iter_mut().zip(&mut self.clients).enumerate() {
            assert_eq!(
                sess.xfer.state,
                SessionState::Done,
                "reopen_wave requires every session Done"
            );
            let g = self.cfg.conn_base + i;
            sess.tx.reopen(&mut self.lb, server_iss(g));
            sess.xfer = Transfer::default();
            c.rx.reopen(&mut self.lb, client_iss(g));
            for j in 0..self.cfg.file_len {
                m.write_u8(c.app_out.at(j), 0);
            }
        }
        self.accept.rearm();
        self.rounds.rearm();
    }

    /// Abortive teardown of session `i` (the RST path): the server
    /// resets its side immediately; the client's machine dies when the
    /// RST lands — or, if the RST is lost, when its next segment is
    /// answered by the dead connection's RST.
    pub fn abort_session<M: Mem>(&mut self, m: &mut M, i: usize) {
        let sess = self.table.get_mut(ConnId(i as u32));
        sess.tx.abort(m, &mut self.lb);
        sess.xfer.state = SessionState::Closing;
    }
}
