//! Views of a world: the aggregate report, output verification,
//! per-client inspection and the health views. Nothing here writes
//! harness state (`client_rx_mut` only hands a client out).

use memsim::Mem;
use obs::{ConnView, Json, QueueStat, Recorder, Verdict};
use utcp::{Connection, KernelPart};

use super::world::file_pattern;
use super::ScaleHarness;
use crate::conn_table::SessionState;
use crate::stats::{jain_fairness, PerConnStats};

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

impl<C, K: KernelPart> ScaleHarness<C, K> {
    /// Assemble the report after the loop exits.
    pub(super) fn report(&self, scheduler: &'static str) -> AggregateReport {
        let per_conn: Vec<PerConnStats> = self
            .table
            .iter()
            .zip(&self.rounds.got)
            .map(|(sess, got)| PerConnStats {
                payload_bytes: got.bytes,
                chunks: got.chunks,
                rejected: got.rejected,
                retransmits: sess.tx.stats.retransmits,
                fast_retransmits: sess.tx.stats.fast_retransmits,
                ..sess.xfer.stats
            })
            .collect();
        let shares: Vec<f64> = self
            .rounds
            .snapshot
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, &b)| b as f64 / f64::from(self.cfg.weight(i)))
            .collect();
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
        (0..self.clients.len()).find(|&i| !self.verify_output_prefix(m, i, self.cfg.file_len))
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

    /// Client `i`'s receive-side connection (read-only; simulation
    /// oracles inspect `rcv_nxt` and the ring).
    pub fn client_rx(&self, i: usize) -> &Connection {
        &self.clients[i].rx
    }

    /// Client `i`'s receive-side connection, mutably (the simulation
    /// arms its deliberate-bug switches through this).
    pub fn client_rx_mut(&mut self, i: usize) -> &mut Connection {
        &mut self.clients[i].rx
    }

    /// Client `i`'s delivered payload bytes, accepted chunks, and
    /// rejected segments so far.
    pub fn client_progress(&self, i: usize) -> (u64, u64, u64) {
        let got = &self.rounds.got[i];
        (got.bytes, got.chunks, got.rejected)
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
            .zip(&self.rounds.got)
            .enumerate()
            .map(|(i, (sess, got))| ConnView {
                conn: (self.cfg.conn_base + i) as u32,
                established: self.accept.dials[i].established,
                done: sess.xfer.state == SessionState::Done,
                in_flight: sess.tx.in_flight(),
                rto: sess.tx.rto(),
                cwnd: sess.tx.cwnd(),
                now,
                // A connection that never delivered is measured from its
                // establish tick, not from tick 0 — otherwise a slow
                // handshake would read as a stall.
                last_progress: got.last_tick.max(sess.xfer.stats.established_at),
                delivered_bytes: got.bytes,
                share_bytes: match &self.rounds.snapshot {
                    Some(snap) => snap[i],
                    None => got.bytes,
                },
                weight: self.cfg.weight(i),
            })
            .collect()
    }

    /// Kernel-part queue occupancy for the saturation detector.
    pub fn queue_stat(&self) -> QueueStat {
        let k = self.lb.counters();
        QueueStat { peak: k.queue_peak, capacity: k.queue_capacity }
    }

    /// Run the health detectors over a recorder this harness filled.
    pub fn health(&self, rec: &Recorder) -> Vec<Verdict> {
        obs::health::analyze(rec, &self.health_views(), self.queue_stat())
    }

    /// Full diagnostic bundle for this run: verdicts plus the supporting
    /// evidence — offender flight dumps, series windows, queue stat,
    /// trace tail.
    pub fn diagnostics(&self, rec: &Recorder) -> Json {
        obs::health::diagnose(rec, &self.health_views(), self.queue_stat())
    }
}
