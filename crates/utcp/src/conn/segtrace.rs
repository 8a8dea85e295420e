//! The segment-trace glue: the sender-side bridge from the
//! application's chunk numbering to the wire's sequence numbering, so
//! every transmission of a chunk — fresh, RTO or fast — rejoins that
//! chunk's trace. Plain host state only: it never touches the
//! instrumented memory, so traced and untraced runs stay byte-identical
//! on the wire and in the memory simulation.

use obs::SegTag;
use std::collections::BTreeMap;

use super::Connection;

/// Sender-side trace identity of one in-flight ring extent.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SegEntry {
    /// Chunk sequence number (application numbering).
    chunk: u32,
    /// Transmissions so far (0 = only the original send).
    xmit: u16,
    /// Sampled at enqueue, or promoted by entering loss recovery.
    traced: bool,
}

/// Segment-trace state of one incarnation; the sampling rate is carried
/// over `reopen`, the ledger is not.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct SegTrace {
    /// Sampling rate (`obs::segtrace::sampled`); 0 = the tracer is off
    /// and none of the seg plumbing runs.
    pub(super) every: u32,
    /// Chunk armed by [`Connection::seg_begin`] for the next *fresh*
    /// send.
    pending: Option<u32>,
    /// Sequence number → trace identity of the chunk occupying that
    /// ring extent, so retransmissions (which only know the extent)
    /// rejoin their chunk's trace. Pruned as ACKs retire extents.
    map: BTreeMap<u32, SegEntry>,
}

impl SegTrace {
    /// An empty ledger sampling at rate `every`.
    pub(super) fn new(every: u32) -> Self {
        SegTrace { every, pending: None, map: BTreeMap::new() }
    }

    /// Resolve the trace identity of the transmission of the extent at
    /// `seq`: the tag and whether the chunk is traced. `None` while the
    /// tracer is off or the extent was never declared.
    pub(super) fn on_transmit(
        &mut self,
        conn: u32,
        seq: u32,
        is_retransmit: bool,
    ) -> Option<(SegTag, bool)> {
        if self.every == 0 {
            return None;
        }
        if is_retransmit {
            let ent = self.map.get_mut(&seq)?;
            ent.xmit += 1;
            // Entering loss recovery promotes the chunk: every
            // retransmitted chunk is traced from here on.
            ent.traced = true;
            Some((SegTag { conn, chunk: ent.chunk, xmit: ent.xmit }, true))
        } else {
            let chunk = self.pending.take()?;
            let traced = obs::segtrace::sampled(self.every, conn, chunk);
            self.map.insert(seq, SegEntry { chunk, xmit: 0, traced });
            Some((SegTag { conn, chunk, xmit: 0 }, traced))
        }
    }

    /// Drop trace identities of extents `ack` fully covers (same
    /// wrapping order as the ring's own retirement).
    pub(super) fn retire(&mut self, ack: u32) {
        if !self.map.is_empty() {
            self.map.retain(|&seq, _| (seq.wrapping_sub(ack) as i32) >= 0);
        }
    }
}

impl Connection {
    /// Arm segment tracing at rate `every` (see
    /// [`obs::segtrace::sampled`]); 0 turns the tracer off.
    pub fn set_seg_sampling(&mut self, every: u32) {
        self.trace.every = every;
    }

    /// Declare that the next fresh send carries chunk `chunk`. Returns
    /// the chunk's trace tag when the sampling rule selects it (for the
    /// caller's pipeline-stage marks); the pending ledger is fed either
    /// way so the chunk can be promoted later. No-op returning `None`
    /// while the tracer is off.
    pub fn seg_begin(&mut self, chunk: u32) -> Option<SegTag> {
        if self.trace.every == 0 {
            return None;
        }
        self.trace.pending = Some(chunk);
        obs::segtrace::sampled(self.trace.every, self.obs_id, chunk)
            .then_some(SegTag { conn: self.obs_id, chunk, xmit: 0 })
    }
}
