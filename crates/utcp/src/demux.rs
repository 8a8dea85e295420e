//! The port demultiplexer every kernel part holds.
//!
//! "On the receiving side, the kernel part demultiplexes IP packets to
//! the corresponding user-level TCP connection" (§3.1). Whatever moves
//! the datagrams — the in-process loop-back, a UDP socket, a TUN device
//! — the receive side ends the same way: look the TCP destination port
//! up, queue the datagram for that endpoint, hand it out on the next
//! poll. [`PortDemux`] is that table and those queues, once.

use crate::kernelpart::{Datagram, EndpointId, SlotPool};
use obs::SegTag;
use std::collections::{HashMap, VecDeque};

/// One port's receive queue. A port keeps its endpoint for life:
/// releasing the port closes the endpoint to routing, registering it
/// again re-arms the same one.
#[derive(Debug, Default)]
struct Endpoint {
    /// Whether [`PortDemux::route`] delivers to this endpoint.
    open: bool,
    queue: VecDeque<Datagram>,
    /// Trace contexts in lockstep with `queue`: `tags[i]` rode beside
    /// `queue[i]`. A side-table rather than a `Datagram` field so the
    /// wire bytes (and the `Datagram` handle) stay identical whether or
    /// not tracing is on.
    tags: VecDeque<Option<SegTag>>,
}

/// Port → endpoint table plus the per-endpoint datagram queues.
#[derive(Debug, Default)]
pub struct PortDemux {
    endpoints: Vec<Endpoint>,
    /// Port → endpoint index, kept after the port is released so a
    /// reopened connection finds its endpoint (and its grown queues)
    /// again. A server multiplexing hundreds of connections
    /// demultiplexes thousands of datagrams per transfer, so lookup is
    /// O(1).
    by_port: HashMap<u16, usize>,
    /// Datagrams currently queued, across all endpoints.
    queued: usize,
    peak_queued: usize,
}

impl PortDemux {
    /// Register a listening port; returns the endpoint handle. A port
    /// that was registered before gets its old endpoint back — same
    /// handle, queue buffers kept at the capacity they grew to, so a
    /// release/register cycle allocates nothing — emptied of whatever
    /// was still queued when it was released, whose holds on `slots` end
    /// here.
    ///
    /// # Panics
    /// If the port is already registered.
    pub fn register(&mut self, port: u16, slots: &mut SlotPool) -> EndpointId {
        let id = *self.by_port.entry(port).or_insert_with(|| {
            self.endpoints.push(Endpoint::default());
            self.endpoints.len() - 1
        });
        let ep = &mut self.endpoints[id];
        assert!(!ep.open, "port {port} already registered");
        ep.open = true;
        self.queued -= ep.queue.len();
        for stale in ep.queue.drain(..) {
            slots.release(stale.addr);
        }
        ep.tags.clear();
        EndpointId::from_index(id)
    }

    /// Release a port so a later [`PortDemux::register`] can reuse it.
    /// The endpoint closes to routing — [`PortDemux::route`] finds
    /// nothing until the port is registered again — but whatever is
    /// queued on it stays there for outstanding handles to drain.
    /// Releasing an unregistered port is a no-op.
    pub fn unregister(&mut self, port: u16) {
        if let Some(&id) = self.by_port.get(&port) {
            self.endpoints[id].open = false;
        }
    }

    /// The endpoint listening on `port`, if any.
    #[inline]
    pub fn route(&self, port: u16) -> Option<EndpointId> {
        let &id = self.by_port.get(&port)?;
        self.endpoints[id].open.then(|| EndpointId::from_index(id))
    }

    /// Queue a datagram (and the trace context riding beside it).
    #[inline]
    pub fn push(&mut self, id: EndpointId, datagram: Datagram, tag: Option<SegTag>) {
        let ep = &mut self.endpoints[id.index()];
        ep.queue.push_back(datagram);
        ep.tags.push_back(tag);
        self.queued += 1;
        self.peak_queued = self.peak_queued.max(self.queued);
    }

    /// Swap the two newest datagrams of an endpoint (the loop-back's
    /// reorder fault); `false` when fewer than two are queued.
    pub fn swap_newest(&mut self, id: EndpointId) -> bool {
        let ep = &mut self.endpoints[id.index()];
        let n = ep.queue.len();
        if n < 2 {
            return false;
        }
        ep.queue.swap(n - 1, n - 2);
        ep.tags.swap(n - 1, n - 2);
        true
    }

    /// Dequeue the oldest datagram of an endpoint with its trace
    /// context.
    #[inline]
    pub fn pop(&mut self, id: EndpointId) -> Option<(Datagram, Option<SegTag>)> {
        let ep = &mut self.endpoints[id.index()];
        let datagram = ep.queue.pop_front()?;
        self.queued -= 1;
        Some((datagram, ep.tags.pop_front().flatten()))
    }

    /// The oldest datagram of an endpoint, left in its queue.
    pub fn peek(&self, id: EndpointId) -> Option<Datagram> {
        self.endpoints[id.index()].queue.front().copied()
    }

    /// Datagrams waiting on an endpoint.
    pub fn pending(&self, id: EndpointId) -> usize {
        self.endpoints[id.index()].queue.len()
    }

    /// Every queued datagram, in no particular order.
    pub fn queued_datagrams(&self) -> impl Iterator<Item = &Datagram> {
        self.endpoints.iter().flat_map(|ep| &ep.queue)
    }

    /// High-water mark of datagrams queued across all endpoints at
    /// once. Every kernel part queues only into free slots of its
    /// [`SlotPool`], so only duplicates sharing a slot can take the peak
    /// past the slot count, and a peak at it means the pool ran dry —
    /// the saturation signal the health engine's queue detector keys on.
    pub fn peak_queued(&self) -> usize {
        self.peak_queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::layout::AddressSpace;

    fn fixture() -> (PortDemux, SlotPool) {
        (PortDemux::default(), SlotPool::alloc(&mut AddressSpace::new(), "slots", 16))
    }

    /// A datagram in a slot of its own.
    fn datagram(slots: &mut SlotPool, n: usize) -> Datagram {
        Datagram { addr: slots.take().expect("a free slot"), len: 40 + n }
    }

    #[test]
    fn a_port_keeps_one_endpoint_however_often_it_is_reopened() {
        let (mut d, mut slots) = fixture();
        let first = d.register(80, &mut slots);
        for cycle in 0..1_000 {
            let dg = datagram(&mut slots, cycle);
            d.push(first, dg, None);
            d.unregister(80);
            assert_eq!(d.register(80, &mut slots), first, "cycle {cycle}: a reopened port is the same endpoint");
        }
        assert_eq!(d.endpoints.len(), 1);
        assert_eq!(slots.n_free(), 16, "each reopen freed what its old queue held");
        // Another port is another endpoint, also for life.
        let other = d.register(81, &mut slots);
        assert_ne!(other, first);
        d.unregister(81);
        assert_eq!(d.register(81, &mut slots), other);
        assert_eq!(d.endpoints.len(), 2);
    }

    #[test]
    fn a_released_endpoint_stops_routing_but_still_drains() {
        let (mut d, mut slots) = fixture();
        let ep = d.register(80, &mut slots);
        let (one, two) = (datagram(&mut slots, 1), datagram(&mut slots, 2));
        d.push(ep, one, None);
        d.push(ep, two, Some(SegTag { conn: 7, chunk: 3, xmit: 0 }));
        d.unregister(80);
        assert_eq!(d.route(80), None, "a released port routes nowhere");
        d.unregister(80); // releasing twice is a no-op
        assert_eq!(d.pending(ep), 2);
        assert_eq!(d.peek(ep), Some(one));
        assert_eq!(d.pop(ep), Some((one, None)));
        assert_eq!(d.pop(ep).map(|(dg, tag)| (dg, tag.map(|t| t.chunk))), Some((two, Some(3))));
        assert_eq!((d.pop(ep), d.peek(ep)), (None, None));
        assert_eq!(d.queued, 0);
    }

    #[test]
    fn registering_again_starts_from_an_empty_queue_and_an_honest_count() {
        let (mut d, mut slots) = fixture();
        let (a, b) = (d.register(80, &mut slots), d.register(81, &mut slots));
        for n in 0..5 {
            let dg = datagram(&mut slots, n);
            d.push(a, dg, Some(SegTag { conn: 0, chunk: n as u32, xmit: 0 }));
        }
        let nine = datagram(&mut slots, 9);
        d.push(b, nine, None);
        assert_eq!((d.queued, d.peak_queued(), slots.n_free()), (6, 6, 10));
        let grown = d.endpoints[a.index()].queue.capacity();
        d.unregister(80);
        assert_eq!(d.queued, 6, "still drainable, still counted");
        let a = d.register(80, &mut slots);
        // What port 80's previous life left behind is gone — from the
        // queue, from the tag side-table, from the running count and from
        // the slots — while the buffers keep what they grew to.
        assert_eq!((d.pending(a), d.pop(a)), (0, None));
        assert!(d.endpoints[a.index()].tags.is_empty());
        assert_eq!(d.endpoints[a.index()].queue.capacity(), grown);
        assert_eq!((d.queued, slots.n_free()), (1, 15));
        assert_eq!(d.route(80), Some(a));
        // The peak keeps counting from the true occupancy: two more
        // datagrams make three queued, well below the old mark.
        for n in 1..3 {
            let dg = datagram(&mut slots, n);
            d.push(a, dg, None);
        }
        assert_eq!((d.queued, d.peak_queued()), (3, 6));
        assert_eq!(d.pop(b), Some((nine, None)));
    }

    #[test]
    #[should_panic(expected = "port 80 already registered")]
    fn registering_an_open_port_panics() {
        let (mut d, mut slots) = fixture();
        d.register(80, &mut slots);
        d.register(80, &mut slots);
    }
}
