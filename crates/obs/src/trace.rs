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
    fn merge_into_fresh_ring_reproduces_the_original() {
        for pushes in [0usize, 2, 4, 9] {
            let mut orig = TraceRing::new(4);
            for t in 0..pushes as u64 {
                orig.push(ev(t));
            }
            let mut merged = TraceRing::new(4);
            merged.merge_from(&orig);
            assert_eq!(merged.total_pushed(), orig.total_pushed(), "pushes {pushes}");
            assert_eq!(merged.overwritten(), orig.overwritten(), "pushes {pushes}");
            let a: Vec<u64> = orig.iter().map(|e| e.tick).collect();
            let b: Vec<u64> = merged.iter().map(|e| e.tick).collect();
            assert_eq!(a, b, "pushes {pushes}");
        }
    }

    #[test]
    fn merge_concatenates_and_accounts_drops() {
        let mut a = TraceRing::new(3);
        for t in 0..5 {
            a.push(ev(t)); // retains 2,3,4; 2 overwritten
        }
        let mut b = TraceRing::new(3);
        b.push(ev(10));
        b.push(ev(11));
        b.merge_from(&a);
        // b pushed 2 + 3 retained from a; ring keeps the newest 3.
        let ticks: Vec<u64> = b.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [2, 3, 4]);
        assert_eq!(b.total_pushed(), 2 + 5, "a's overwritten events still count");
        assert_eq!(b.overwritten(), 4);
    }

    #[test]
    fn chained_merges_of_full_rings_keep_drop_accounting_consistent() {
        // Build several rings that have all wrapped (overwritten > 0).
        let full = |base: u64, pushes: u64| {
            let mut r = TraceRing::new(4);
            for t in 0..pushes {
                r.push(ev(base + t));
            }
            assert!(r.overwritten() > 0, "ring must have wrapped");
            r
        };
        let rings = [full(0, 9), full(100, 6), full(200, 13), full(300, 5)];
        let mut acc = TraceRing::new(4);
        let mut expected_total = 0u64;
        for r in &rings {
            acc.merge_from(r);
            expected_total += r.total_pushed();
            // The definitional identity holds at every step...
            assert_eq!(
                acc.total_pushed(),
                acc.len() as u64 + acc.overwritten(),
                "total_pushed == len + overwritten"
            );
            // ...and so does additivity: nothing double-counted, nothing
            // forgotten, no matter how many merges came before.
            assert_eq!(acc.total_pushed(), expected_total);
        }
        // The survivors are the newest `capacity` events pushed — the
        // last ring's retained window (it pushed 4 retained events).
        let ticks: Vec<u64> = acc.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [301, 302, 303, 304]);
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
