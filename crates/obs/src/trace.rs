//! The packet-level event trace.
//!
//! A full per-packet log of a 1024-connection run would dwarf the run
//! itself, but the *recent* history is exactly what a post-mortem needs
//! (which chunks were in flight when the stall started, which
//! connection kept rejecting). The trace is a [`Ring`] of
//! [`TraceEvent`]s: it keeps the last `capacity` events and counts what
//! it dropped.

use crate::json::Json;
use crate::ring::Ring;
use crate::span::EventKind;

/// One packet-level event, stamped with the server's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual tick at which the event was observed.
    pub tick: u64,
    /// Connection index the event belongs to.
    pub conn: u32,
    /// What happened.
    pub kind: EventKind,
    /// Event-specific payload (chunk seq, latency ticks, ...); see the
    /// [`EventKind`] variants for each one's meaning.
    pub value: u64,
}

impl TraceEvent {
    /// The event as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("tick", Json::U64(self.tick))
            .set("conn", Json::U64(self.conn as u64))
            .set("kind", Json::Str(self.kind.name().to_string()))
            .set("value", Json::U64(self.value))
    }
}

/// A bounded event trace that overwrites its oldest entries when full.
pub type TraceRing = Ring<TraceEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64) -> TraceEvent {
        TraceEvent { tick, conn: 0, kind: EventKind::ChunkSent, value: tick }
    }

    #[test]
    fn fills_then_wraps_overwriting_oldest() {
        let mut r = TraceRing::new(4);
        assert!(r.is_empty());
        for t in 0..4 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 0);
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [0, 1, 2, 3]);

        // Two more pushes evict the two oldest.
        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_pushed(), 6);
        assert_eq!(r.overwritten(), 2);
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [2, 3, 4, 5], "oldest-first after wrap");
    }

    #[test]
    fn wraps_many_times_and_stays_ordered() {
        let mut r = TraceRing::new(3);
        for t in 0..100 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_pushed(), 100);
        assert_eq!(r.overwritten(), 97);
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [97, 98, 99]);
    }

    #[test]
    fn zero_capacity_is_bumped() {
        let mut r = TraceRing::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().tick, 2);
    }

    #[test]
    fn partial_fill_iterates_in_push_order() {
        let mut r = TraceRing::new(8);
        for t in [5, 1, 9] {
            r.push(ev(t));
        }
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [5, 1, 9]);
    }
}
