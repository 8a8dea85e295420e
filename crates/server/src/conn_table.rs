//! The connection table: per-connection server state, keyed by
//! [`ConnId`] and indexed by the client's data port.
//!
//! The kernel part already demultiplexes datagrams to endpoints by
//! destination port; what it cannot know is which *session* — which
//! file, which transfer position, which scheduler weight — a port
//! belongs to. The table holds that mapping. Sessions are allocated up
//! front (the memsim address space is fixed before any memory world is
//! built, so buffers cannot be allocated at accept time — the same
//! constraint that made 1990s servers pre-allocate TCB pools) and bound
//! to a live client by the accept handshake.

use std::collections::HashMap;

use memsim::region::Region;
use rpcapp::ReplyMeta;
use utcp::Connection;

use crate::stats::PerConnStats;

/// Index of a session in the connection table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub(crate) u32);

impl ConnId {
    /// The table index this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lifecycle of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionState {
    /// Pre-allocated, waiting for the client's SYN.
    #[default]
    Allocated,
    /// Handshake complete; the transfer is (or may be) in progress.
    Established,
    /// Every chunk delivered and acknowledged; the FIN/ACK teardown
    /// handshake is in flight.
    Closing,
    /// Transfer complete and the lifecycle machine torn down (the
    /// server side reached TIME_WAIT or CLOSED).
    Done,
}

/// The part of a [`Session`] that belongs to one transfer: where it is
/// in its lifecycle, how far it has sent, what it has counted. A fresh
/// session and a session re-armed for the next churn wave both hold
/// `Transfer::default()` — the reset cannot forget a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Transfer {
    /// Where in its lifecycle this session is.
    pub state: SessionState,
    /// Next chunk index to send.
    pub next_chunk: usize,
    /// Accounting.
    pub stats: PerConnStats,
}

/// One connection's server-side state: what is fixed when the world is
/// built, plus the [`Transfer`] in progress.
#[derive(Debug)]
pub struct Session {
    /// The data sender (server → client).
    pub tx: Connection,
    /// The file this session serves.
    pub file: Region,
    /// File length in bytes (≤ `file.len`).
    pub file_len: usize,
    /// Maximum payload bytes per reply chunk.
    pub chunk: usize,
    /// The client's data port (demultiplexing key).
    pub client_data_port: u16,
    /// The transfer in progress.
    pub xfer: Transfer,
}

impl Session {
    /// A pre-allocated session around its sender, waiting for the
    /// client's SYN.
    pub(crate) fn new(
        tx: Connection,
        file: Region,
        file_len: usize,
        chunk: usize,
        client_data_port: u16,
    ) -> Self {
        Session { tx, file, file_len, chunk, client_data_port, xfer: Transfer::default() }
    }

    /// Total chunks in the transfer.
    pub fn chunks_total(&self) -> usize {
        self.file_len.div_ceil(self.chunk)
    }

    /// Whether chunks remain to be handed to the transport.
    pub fn has_work(&self) -> bool {
        self.xfer.state == SessionState::Established && self.xfer.next_chunk < self.chunks_total()
    }

    /// The next chunk's RPC header and source address, if any.
    pub fn next_meta(&self) -> Option<(ReplyMeta, usize)> {
        let next = self.xfer.next_chunk;
        if next >= self.chunks_total() {
            return None;
        }
        let offset = next * self.chunk;
        let len = self.chunk.min(self.file_len - offset);
        let meta = ReplyMeta {
            request_id: 0x53525621, // "SRV!"
            seq: next as u32,
            offset: offset as u32,
            last: u32::from(next + 1 == self.chunks_total()),
            data_len: len as u32,
        };
        Some((meta, self.file.at(offset)))
    }
}

/// All sessions of one server, with port-indexed lookup.
#[derive(Debug, Default)]
pub struct ConnTable {
    sessions: Vec<Session>,
    by_data_port: HashMap<u16, ConnId>,
}

impl ConnTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a pre-allocated session; its client data port becomes a
    /// lookup key.
    pub fn insert(&mut self, session: Session) -> ConnId {
        let id = ConnId(self.sessions.len() as u32);
        let prev = self.by_data_port.insert(session.client_data_port, id);
        assert!(prev.is_none(), "data port {} already in the table", session.client_data_port);
        self.sessions.push(session);
        id
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The session a client data port belongs to.
    pub fn lookup_port(&self, data_port: u16) -> Option<ConnId> {
        self.by_data_port.get(&data_port).copied()
    }

    /// Shared access to a session.
    pub fn get(&self, id: ConnId) -> &Session {
        &self.sessions[id.index()]
    }

    /// Mutable access to a session.
    pub fn get_mut(&mut self, id: ConnId) -> &mut Session {
        &mut self.sessions[id.index()]
    }

    /// All ids, in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = ConnId> + '_ {
        (0..self.sessions.len() as u32).map(ConnId)
    }

    /// All sessions, in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &Session> {
        self.sessions.iter()
    }

    /// All sessions, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Session> {
        self.sessions.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::layout::AddressSpace;
    use utcp::{Loopback, UtcpConfig};

    fn session(space: &mut AddressSpace, lb: &mut Loopback, port: u16) -> Session {
        let cfg = UtcpConfig { local_port: port + 1000, peer_port: port, ..Default::default() };
        let tx = Connection::new(space, lb, cfg, 0x100);
        let file = space.alloc("srv_file", 4096, 64);
        Session::new(tx, file, 2500, 1024, port)
    }

    #[test]
    fn insert_and_lookup_by_port() {
        let mut space = AddressSpace::new();
        let mut lb = Loopback::new(&mut space);
        let mut table = ConnTable::new();
        let a = table.insert(session(&mut space, &mut lb, 3000));
        let b = table.insert(session(&mut space, &mut lb, 3001));
        assert_ne!(a, b);
        assert_eq!(table.len(), 2);
        assert_eq!(table.lookup_port(3000), Some(a));
        assert_eq!(table.lookup_port(3001), Some(b));
        assert_eq!(table.lookup_port(9999), None);
        assert_eq!(table.get(b).client_data_port, 3001);
    }

    #[test]
    fn chunking_covers_the_file_exactly() {
        let mut space = AddressSpace::new();
        let mut lb = Loopback::new(&mut space);
        let mut s = session(&mut space, &mut lb, 3000);
        s.xfer.state = SessionState::Established;
        assert_eq!(s.chunks_total(), 3); // 1024 + 1024 + 452
        let mut total = 0usize;
        while let Some((meta, addr)) = s.next_meta() {
            assert_eq!(addr, s.file.at(meta.offset as usize));
            assert_eq!(meta.seq as usize, s.xfer.next_chunk);
            total += meta.data_len as usize;
            s.xfer.next_chunk += 1;
        }
        assert_eq!(total, 2500);
        assert!(!s.has_work());
    }

    #[test]
    #[should_panic(expected = "already in the table")]
    fn duplicate_data_port_rejected() {
        let mut space = AddressSpace::new();
        let mut lb = Loopback::new(&mut space);
        let mut table = ConnTable::new();
        let s1 = session(&mut space, &mut lb, 3000);
        let mut s2 = session(&mut space, &mut lb, 3005);
        s2.client_data_port = 3000;
        table.insert(s1);
        table.insert(s2);
    }
}
