//! After the last chunk: draining every connection to `Closed`,
//! re-arming the world for the next churn wave, and the abortive close.
//!
//! Owns no state of its own. `reopen_wave` is the one place a world goes
//! back to what construction built: each connection through
//! [`utcp::Connection::reopen`], each part through its own `rearm`.

use memsim::Mem;
use obs::SpanObserver;
use utcp::{observed, KernelPart, State};

use super::world::{client_iss, server_iss};
use super::{Path, ScaleHarness, STALL_LIMIT};
use crate::conn_table::{ConnId, SessionState, Transfer};

impl<C, K: KernelPart> ScaleHarness<C, K> {
    /// Whether every connection on both sides has fully left the world:
    /// server senders past TIME_WAIT, clients dead.
    pub fn fully_closed(&self) -> bool {
        self.table.iter().all(|s| s.tx.state() == State::Closed)
            && self.clients.iter().all(|c| c.rx.state() == State::Closed)
    }

    /// Total TIME_WAIT residency in ticks accumulated across all server
    /// connections (the active closers).
    pub fn time_wait_residency(&self) -> u64 {
        self.table.iter().map(|s| s.tx.time_wait_residency()).sum()
    }

    /// After the run loop reports done (`Done` = sender in TIME_WAIT or
    /// beyond, client dead), run settle-only rounds — no new data — until
    /// every TIME_WAIT expires and both sides of every connection are
    /// `Closed`, then release all data ports. Returns the number of extra
    /// rounds taken.
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
            for c in &mut self.clients {
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
        // Release every data port — the whole point of closing.
        for sess in self.table.iter_mut() {
            self.lb.unregister(sess.tx.local_port());
            sess.xfer.state = SessionState::Done;
        }
        for c in &self.clients {
            self.lb.unregister(c.rx.local_port());
        }
        rounds
    }

    /// Begin a fresh churn wave: every connection must be fully closed
    /// and its data ports released (see [`ScaleHarness::drain_to_closed`]).
    /// Reopens each server/client pair in place — the address space is
    /// long fixed, so nothing is allocated — with every server listening
    /// again, puts every part back as construction built it, and zeroes
    /// the client output region so this wave's verification is real. The
    /// virtual clock and cumulative transport stats carry across waves.
    pub fn reopen_wave<M: Mem>(&mut self, m: &mut M) {
        for (i, (sess, c)) in self.table.iter_mut().zip(&mut self.clients).enumerate() {
            assert_eq!(
                sess.xfer.state,
                SessionState::Done,
                "reopen_wave requires every session Done"
            );
            sess.tx.reopen(&mut self.lb, server_iss(i));
            sess.tx.listen();
            sess.xfer = Transfer::default();
            c.rx.reopen(&mut self.lb, client_iss(i));
            m.fill_bytes(c.app_out.base, self.cfg.file_len, 0);
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
