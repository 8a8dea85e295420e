//! The one bounded ring: keep the newest `capacity` entries, overwrite
//! the oldest on wrap, and count what was lost so a report can say
//! "showing 256 of 12 480" instead of pretending completeness. The
//! event trace ([`crate::trace::TraceRing`]) and the per-connection
//! flight recorders ([`crate::health::FlightRing`]) are this type at
//! two entry types.

/// A bounded ring that overwrites its oldest entries when full.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest entry (only meaningful once full).
    head: usize,
    /// Entries ever pushed, including overwritten ones.
    pushed: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries. A zero capacity is
    /// bumped to 1 so `push` never has to special-case it.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring { buf: Vec::with_capacity(capacity), capacity, head: 0, pushed: 0 }
    }

    /// Append an entry, overwriting the oldest if the ring is full.
    pub fn push(&mut self, entry: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(entry);
        } else {
            self.buf[self.head] = entry;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries ever pushed, including those since overwritten.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Entries lost to overwriting.
    pub fn overwritten(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }
}
