//! The loss-recovery part: the duplicate-ACK counter, the fast-recovery
//! episode and the SACK scoreboard (RFC 5681 / RFC 2018, NewReno-style
//! partial ACKs). Off entirely when `UtcpConfig::loss_recovery` is
//! false — the RTO-only reference `exp_loss` gates against.

use memsim::Mem;
use obs::{Counter, EventKind, SpanObserver, XmitKind};

use super::Connection;
use crate::backend::KernelCtx;
use crate::ring::Extent;
use crate::wire::SackBlocks;

/// Duplicate ACKs required to arm fast retransmit (RFC 5681 §3.2).
const DUP_ACK_THRESHOLD: u32 = 3;

/// Sender-side loss-recovery state of one incarnation.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Recovery {
    /// Consecutive duplicate ACKs counted toward (or during) fast
    /// retransmit.
    pub(super) dup_acks: u32,
    /// Fast-recovery episode: `Some(recovery point)` — the `snd_nxt` at
    /// entry. Cumulative ACKs at or past the point end the episode.
    pub(super) point: Option<u32>,
    /// Highest sequence already retransmitted by fast retransmit
    /// (NewReno-style guard against resending the same hole).
    high_rxt: u32,
    /// SACK scoreboard: received-beyond-`snd_una` ranges in coordinates
    /// *relative to `snd_una`* (shifted down as the left edge advances,
    /// so sequence wrap-around never splits a range). Sorted,
    /// non-overlapping.
    sacked: Vec<(u32, u32)>,
}

impl Recovery {
    /// No episode, an empty scoreboard, nothing retransmitted before
    /// `una`.
    pub(super) fn new(una: u32) -> Self {
        Recovery { dup_acks: 0, point: None, high_rxt: una, sacked: Vec::new() }
    }

    /// Back to [`Recovery::new`] in place, keeping the scoreboard's
    /// allocation (an RTO on a lossy path must not cost one per timeout).
    pub(super) fn restart(&mut self, una: u32) {
        self.sacked.clear();
        *self = Recovery { sacked: std::mem::take(&mut self.sacked), ..Recovery::new(una) };
    }

    /// Fold an ACK's SACK blocks into the scoreboard; returns the
    /// number of newly-learned bytes. Blocks are validated against the
    /// in-flight range past `una` — a checksum-valid but stale block
    /// outside it is ignored.
    pub(super) fn insert(&mut self, sacks: &SackBlocks, una: u32, in_flight: u32) -> u64 {
        let mut fresh = 0u64;
        for &(s, e) in sacks.as_slice() {
            let rs = s.wrapping_sub(una);
            let re = e.wrapping_sub(una);
            if rs >= re || re > in_flight {
                continue;
            }
            fresh += self.merge_range(rs, re);
        }
        fresh
    }

    /// Merge `[rs, re)` (relative coordinates) into the sorted,
    /// non-overlapping scoreboard; returns the bytes not previously
    /// covered.
    fn merge_range(&mut self, rs: u32, re: u32) -> u64 {
        let mut covered = 0u64;
        let mut i = 0;
        while i < self.sacked.len() && self.sacked[i].1 < rs {
            i += 1;
        }
        let (mut s, mut e) = (rs, re);
        while i < self.sacked.len() && self.sacked[i].0 <= e {
            let (os, oe) = self.sacked[i];
            covered += u64::from(oe.min(re).saturating_sub(os.max(rs)));
            s = s.min(os);
            e = e.max(oe);
            self.sacked.remove(i);
        }
        self.sacked.insert(i, (s, e));
        u64::from(re - rs) - covered
    }

    /// The cumulative edge moved to `ack`, `advanced` bytes up: shift
    /// the scoreboard's relative coordinates down with it (everything
    /// the ACK covers is gone) and drag `high_rxt` along.
    pub(super) fn advance(&mut self, ack: u32, advanced: u32) {
        if !self.sacked.is_empty() {
            for r in &mut self.sacked {
                r.0 = r.0.saturating_sub(advanced);
                r.1 = r.1.saturating_sub(advanced);
            }
            self.sacked.retain(|r| r.0 < r.1);
        }
        if (self.high_rxt.wrapping_sub(ack) as i32) < 0 {
            self.high_rxt = ack;
        }
    }

    /// Whether `[seq, seq+len)` is fully inside one sacked range.
    fn is_sacked(&self, una: u32, seq: u32, len: usize) -> bool {
        let rs = seq.wrapping_sub(una);
        let re = rs.wrapping_add(len as u32);
        self.sacked.iter().any(|&(s, e)| s <= rs && re <= e)
    }
}

impl Connection {
    /// Whether the sender is inside a fast-recovery episode.
    pub fn in_recovery(&self) -> bool {
        self.rec.point.is_some()
    }

    /// Consecutive duplicate ACKs seen since the last cumulative
    /// advance.
    pub fn dup_acks(&self) -> u32 {
        self.rec.dup_acks
    }

    /// One more duplicate ACK for `snd_una`: the third arms fast
    /// retransmit; further ones during recovery keep filling holes.
    pub(super) fn on_dup_ack<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        self.rec.dup_acks += 1;
        if self.rec.point.is_some() {
            // Each additional dup ACK during recovery means another
            // segment left the network; use it to fill the next hole.
            self.retransmit_hole(m, k);
        } else if self.rec.dup_acks >= DUP_ACK_THRESHOLD {
            self.enter_recovery(m, k);
        }
    }

    /// A cumulative ACK advanced `snd_una` to `ack`. Returns whether
    /// the congestion window may grow: it is frozen while an episode
    /// stays open.
    pub(super) fn on_forward_ack<M: Mem>(
        &mut self,
        m: &mut M,
        k: &mut impl KernelCtx,
        ack: u32,
    ) -> bool {
        self.rec.dup_acks = 0;
        match self.rec.point {
            // Recovery point reached: the episode ends with cwnd at the
            // halved ssthresh — halved, not collapsed.
            Some(point) if (ack.wrapping_sub(point) as i32) >= 0 => self.rec.point = None,
            // Partial ACK: the next hole was lost too (NewReno §3.2) —
            // fill it now instead of waiting for more dup ACKs.
            Some(_) => {
                self.retransmit_hole(m, k);
                return false;
            }
            None => {}
        }
        true
    }

    /// RFC 5681 fast retransmit / fast recovery entry: halve (do not
    /// collapse) the window and resend the first hole. Deviation from
    /// the RFC: no +3·MSS inflation — the loop-back harness drains ACKs
    /// within the same virtual tick, so inflation would only distort
    /// the cwnd traces the simulation oracles pin.
    fn enter_recovery<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        let halved = (self.in_flight() / 2).max(2 * self.mss());
        self.snd.cut(halved, halved);
        self.stats.cwnd_cuts += 1;
        self.rec.point = Some(self.snd.nxt);
        self.rec.high_rxt = self.snd.una;
        self.retransmit_hole(m, k);
    }

    /// Retransmit the first hole — the oldest un-sacked extent past
    /// `high_rxt`, below the recovery point — if there is one.
    fn retransmit_hole<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) {
        let Some(extent) = self.next_hole() else { return };
        self.rec.high_rxt = extent.seq.wrapping_add(extent.len as u32);
        // A recovery retransmission is forward progress — it must not
        // race the retransmission timer into a spurious back-off.
        self.snd.last_progress = self.ticks;
        self.stats.fast_retransmits += 1;
        if K::Obs::ENABLED {
            k.obs().count(Counter::FastRetransmits, 1);
            k.obs().event(EventKind::FastRetransmit, self.obs_id, u64::from(extent.seq));
        }
        self.output(m, k, extent, None, XmitKind::Fast);
    }

    /// The first ring extent at or past `high_rxt`, below the recovery
    /// point, not fully covered by the scoreboard.
    fn next_hole(&self) -> Option<Extent> {
        let limit = self.rec.point.unwrap_or(self.snd.nxt);
        for e in self.ring.extents() {
            if (e.seq.wrapping_sub(self.rec.high_rxt) as i32) < 0 {
                continue; // already retransmitted this episode
            }
            if (e.seq.wrapping_sub(limit) as i32) >= 0 {
                break; // only fill holes behind the recovery point
            }
            if !self.rec.is_sacked(self.snd.una, e.seq, e.len) {
                return Some(*e);
            }
        }
        None
    }
}
