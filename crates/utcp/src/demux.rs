//! The port demultiplexer every kernel part holds.
//!
//! "On the receiving side, the kernel part demultiplexes IP packets to
//! the corresponding user-level TCP connection" (§3.1). Whatever moves
//! the datagrams — the in-process loop-back, a UDP socket, a TUN device
//! — the receive side ends the same way: look the TCP destination port
//! up, queue the datagram for that endpoint, hand it out on the next
//! poll. [`PortDemux`] is that table and those queues, once.

use crate::kernelpart::{Datagram, EndpointId};
use obs::SegTag;
use std::collections::{HashMap, VecDeque};

/// One registered endpoint's receive queue.
#[derive(Debug, Default)]
struct Endpoint {
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
    /// Port → endpoint index. A server multiplexing hundreds of
    /// connections demultiplexes thousands of datagrams per transfer,
    /// so lookup is O(1).
    by_port: HashMap<u16, usize>,
    /// Datagrams currently queued, across all endpoints.
    queued: usize,
    peak_queued: usize,
}

impl PortDemux {
    /// Register a listening port; returns the endpoint handle.
    ///
    /// # Panics
    /// If the port is already registered.
    pub fn register(&mut self, port: u16) -> EndpointId {
        assert!(!self.by_port.contains_key(&port), "port {port} already registered");
        self.endpoints.push(Endpoint::default());
        let id = self.endpoints.len() - 1;
        self.by_port.insert(port, id);
        EndpointId::from_index(id)
    }

    /// Release a port so a later [`PortDemux::register`] can reuse it.
    /// The endpoint (and whatever is queued on it) survives for
    /// outstanding handles; the table forgets the port, so
    /// [`PortDemux::route`] finds nothing until it is registered again.
    /// Releasing an unregistered port is a no-op.
    pub fn unregister(&mut self, port: u16) {
        self.by_port.remove(&port);
    }

    /// The endpoint listening on `port`, if any.
    #[inline]
    pub fn route(&self, port: u16) -> Option<EndpointId> {
        self.by_port.get(&port).map(|&i| EndpointId::from_index(i))
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

    /// Datagrams waiting on an endpoint.
    pub fn pending(&self, id: EndpointId) -> usize {
        self.endpoints[id.index()].queue.len()
    }

    /// High-water mark of datagrams queued across all endpoints at
    /// once. Kernel slots recycle round-robin, so once this reaches the
    /// slot count a queued datagram may have been overwritten in place
    /// — the saturation signal the health engine's queue detector keys
    /// on.
    pub fn peak_queued(&self) -> usize {
        self.peak_queued
    }
}
