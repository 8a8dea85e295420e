//! The receive-sequence part: `RCV.NXT`, the staging buffer, the
//! out-of-order hold and the peer's FIN mark — plus the receive path
//! (paper Figure 5): the *initial* stage ([`Connection::poll_input`]:
//! system copy, then parse → verify → dispatch) and the
//! *final* stage ([`Connection::finish_recv`]: accept or reject, ACK).
//! Where a segment's bytes are placed is decided here and nowhere else.

use checksum::{InetChecksum, PseudoHeader};
use ilp_core::Reject;
use memsim::region::Region;
use memsim::Mem;
use obs::{FlightEdge, Layer, SegEv, SegTag, SpanObserver, Stage};

use super::{Body, Connection, State, MTU, WINDOW};
use crate::backend::{KernelCtx, KernelPart};
use crate::ip::{Ipv4Header, IP_HEADER_LEN, PROTO_TCP};
use crate::wire::{SackBlocks, TcpFlags, TcpHeader, MAX_SACK_BLOCKS, TCP_HEADER_LEN};

/// Out-of-order hold slots at the receiver — the bounded reassembly
/// queue. One SACK range per held run, so this also bounds the number
/// of blocks a pure ACK ever needs to carry.
pub(super) const OOO_SLOTS: usize = MAX_SACK_BLOCKS;

/// A data segment staged in the receive buffer, awaiting the integrated
/// data manipulations and the final verdict.
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    /// Address of the staged payload (after the TCP header).
    pub payload_addr: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Pseudo-header + header partial checksum (header's checksum field
    /// included, so a correct segment totals 0xFFFF).
    pub control_sum: InetChecksum,
    /// True when this is the next expected in-order segment.
    pub in_order: bool,
    /// Segment-trace context that rode beside the datagram out-of-band
    /// (`None` in untraced runs and for unsampled chunks).
    pub ctx: Option<SegTag>,
}

/// One checksum-verified future segment held in the receiver's
/// reassembly slots, with everything needed to replay it as a
/// [`Delivered`] once the gap before it fills.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OooSeg {
    seq: u32,
    len: usize,
    slot: usize,
    control_sum: InetChecksum,
    stamp: u64,
    /// Trace context of the held transmission, restored on replay.
    ctx: Option<SegTag>,
}

/// Receive-sequence space of one incarnation, and the two regions
/// received bytes can land in.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct RecvSeq {
    /// Next sequence number expected from the peer.
    pub(super) nxt: u32,
    /// Sequence number of the peer's FIN, once consumed in order.
    pub(super) fin_rcvd: Option<u32>,
    /// Receive staging buffer (IP header + TCP header + payload).
    pub(super) staging: Region,
    /// Hold slots for checksum-verified out-of-order segments
    /// ([`OOO_SLOTS`] × mtu), replayed once the gap before them fills.
    pub(super) hold: Region,
    /// Which hold slots are live and what they contain.
    held: Vec<OooSeg>,
    /// Monotone stamp so SACK blocks can be ordered most-recent-first
    /// (RFC 2018 §4).
    stamp: u64,
    /// An in-order accept advanced `nxt` and left its ACK to the rest
    /// of the burst still queued in the kernel part. Whatever emits the
    /// next ACK-bearing segment pays the debt ([`Connection::send_ack`]
    /// clears it).
    pub(super) ack_owed: bool,
}

impl RecvSeq {
    /// Nothing received, nothing held; `nxt` is seeded afterwards by
    /// [`Connection::set_peer_iss`].
    pub(super) fn new(staging: Region, hold: Region) -> Self {
        RecvSeq { nxt: 0, fin_rcvd: None, staging, hold, held: Vec::new(), stamp: 0, ack_owed: false }
    }

    /// Forget every held segment and any ACK still owed (reset).
    pub(super) fn drop_held(&mut self) {
        self.held.clear();
        self.ack_owed = false;
    }

    /// Back to [`RecvSeq::new`] over the same regions, in place — the
    /// hold list keeps its allocation (`reopen` must not allocate).
    pub(super) fn restart(&mut self) {
        self.held.clear();
        *self = RecvSeq {
            held: std::mem::take(&mut self.held),
            ..RecvSeq::new(self.staging, self.hold)
        };
    }

    /// Drop held segments the cumulative edge has passed.
    fn prune_held(&mut self) {
        let rcv = self.nxt;
        self.held.retain(|s| (s.seq.wrapping_sub(rcv) as i32) >= 0);
    }

    /// The held runs as SACK ranges: contiguous held segments merge
    /// into one block, and blocks are ordered most recently changed
    /// first so the sender learns the newest edge even when blocks are
    /// truncated (RFC 2018 §4). The first `n` entries of the array are
    /// the ranges: a pure ACK builds them without allocating.
    fn sack_ranges(&self) -> ([(u32, u32); OOO_SLOTS], usize) {
        let rcv = self.nxt;
        let mut segs = [(0u32, 0u32, 0u64); OOO_SLOTS];
        for (slot, s) in segs.iter_mut().zip(&self.held) {
            *slot = (s.seq, s.seq.wrapping_add(s.len as u32), s.stamp);
        }
        let segs = &mut segs[..self.held.len()];
        segs.sort_unstable_by_key(|s| s.0.wrapping_sub(rcv));
        let (mut runs, mut n) = ([(0u32, 0u32, 0u64); OOO_SLOTS], 0);
        for &(seq, end, stamp) in segs.iter() {
            match runs[..n].last_mut() {
                Some(r) if r.1 == seq => {
                    r.1 = end;
                    r.2 = r.2.max(stamp);
                }
                _ => {
                    runs[n] = (seq, end, stamp);
                    n += 1;
                }
            }
        }
        // Stamps are distinct, so the order is the one a stable sort gives.
        runs[..n].sort_unstable_by_key(|r| std::cmp::Reverse(r.2));
        (runs.map(|(s, e, _)| (s, e)), n)
    }
}

impl Connection {
    /// Synchronise the peer's initial sequence number: the open by
    /// construction, as in the paper's pre-established transfer setup.
    /// [`Connection::listen`] and [`Connection::connect`] learn it from
    /// the peer's SYN instead.
    pub fn set_peer_iss(&mut self, iss: u32) {
        self.rcv.nxt = iss;
    }

    /// Next sequence number expected from the peer.
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv.nxt
    }

    /// The sequence number of the peer's FIN, once consumed in order.
    /// While this is `Some`, `rcv_nxt` is pinned at `fin + 1` and no
    /// further data may be accepted — one of the lifecycle oracles.
    pub fn fin_rcvd_seq(&self) -> Option<u32> {
        self.rcv.fin_rcvd
    }

    /// Whether an accepted segment's ACK is still outstanding — true
    /// only between an accept that left more of its burst queued and
    /// the next poll, tick or close, so never after a
    /// [`Connection::poll_input`] that returned `None`.
    pub fn owes_ack(&self) -> bool {
        self.rcv.ack_owed
    }

    /// The receive-staging region (the ILP receive loop reads from here).
    pub fn recv_region(&self) -> Region {
        self.rcv.staging
    }

    /// Poll the kernel part. Each segment is parsed, verified by its one
    /// control sum and dispatched: control segments (RST, the open, FIN,
    /// pure ACKs) are consumed internally (returning `None`); a data
    /// segment is staged into the receive buffer and returned for the
    /// integrated stage, its payload still unverified. This is the
    /// receive-side system copy + the *initial* control operations (demux
    /// happened in the kernel part; header parsing happens here).
    ///
    /// The whole poll — kernel IP validation, the system copy into
    /// staging (attributed to the kernel layer via the system counter),
    /// header parse and internal ACK processing — reports as
    /// initial-stage TCP work.
    pub fn poll_input<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) -> Option<Delivered> {
        let t = k.mark(m);
        let pre = (self.snd.una, self.rcv.nxt, self.snd.peer_window);
        let out = self.poll_input_inner(m, k);
        k.span(m, Stage::Initial, Layer::Tcp, t);
        // Only state *transitions* earn a flight snapshot — an idle
        // poll would otherwise flood the tiny ring with no-ops.
        if K::Obs::ENABLED && pre != (self.snd.una, self.rcv.nxt, self.snd.peer_window) {
            k.obs().flight(self.obs_id, self.flight_snap(FlightEdge::Recv));
        }
        out
    }

    fn poll_input_inner<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) -> Option<Delivered> {
        // A held out-of-order segment whose gap has filled replays ahead
        // of fresh datagrams — it is the next in-order TSDU now.
        if self.cfg.loss_recovery {
            if let Some(held) = self.take_ready_ooo(m) {
                return Some(held);
            }
        }
        loop {
            let Some(datagram) = k.kernel().recv_into(m, self.endpoint) else {
                // The burst is over: one ACK for everything it advanced.
                if self.rcv.ack_owed {
                    self.send_ack(m, k.kernel());
                }
                return None;
            };
            let ctx = k.kernel().take_recv_ctx();
            // Kernel: IP validation + demultiplexing, then the system
            // copy into the receive staging buffer (step 1, Fig. 5).
            m.phase_push(memsim::mem::PhaseTag::System);
            // A backend may admit frames larger than the staging buffer
            // (`netback::codec` frames up to 2 KB): refuse them before
            // the copy, not after it has run over the TCB.
            let ip_ok = datagram.len <= self.rcv.staging.len
                && Ipv4Header::at(datagram.addr).admits(m, datagram.len, Some(self.cfg.local_ip));
            if ip_ok {
                m.copy(datagram.addr, self.rcv.staging.base, datagram.len);
            }
            m.phase_pop();
            if !ip_ok {
                self.stats.rejected += 1;
                continue;
            }
            // Parse: the header must fit the datagram, the payload the MTU.
            let hdr = TcpHeader::at(self.rcv.staging.base + IP_HEADER_LEN);
            let seq = hdr.seq(m);
            let ack = hdr.ack(m);
            let flags = hdr.flags(m);
            let window = hdr.window(m);
            let hdr_len = hdr.header_len(m);
            let tcp_total = datagram.len - IP_HEADER_LEN;
            if hdr_len < TCP_HEADER_LEN || hdr_len > tcp_total {
                self.stats.rejected += 1;
                continue;
            }
            let opt_len = hdr_len - TCP_HEADER_LEN;
            let payload_len = tcp_total - hdr_len;
            if payload_len > MTU {
                // One TSDU = one TPDU ≤ MTU, and the out-of-order hold
                // slots are MTU-sized.
                self.stats.rejected += 1;
                continue;
            }
            m.compute(40); // header prediction / initial parse

            if self.life.state == State::Closed {
                // A segment for a dead connection: answer anything but a
                // RST with a RST so the peer tears down instead of
                // retransmitting into the void (RFC 793 CLOSED: "if the
                // connection does not exist ... a reset is sent").
                self.stats.rejected += 1;
                if !flags.contains(TcpFlags::RST) {
                    self.send_rst(m, k.kernel());
                }
                continue;
            }

            // Verify: one control sum over the header, its options and
            // (in the pseudo-header) the payload's length. A segment
            // without payload is judged here, before any of its fields
            // moves state; data carries the sum to the final stage,
            // where the payload's joins it.
            let control_sum = self.control_sum(m, hdr, opt_len + payload_len, opt_len);
            if payload_len == 0 && control_sum.finish() != 0 {
                self.stats.rejected += 1;
                continue;
            }

            // Dispatch (RFC 793 §3.9). A RST and the open must be a bare
            // fixed header; TIME_WAIT ignores RSTs so a late one cannot
            // cut the 2·MSL quiet period short.
            let bare = opt_len + payload_len == 0;
            if flags.contains(TcpFlags::RST) {
                let seq_ok = seq.wrapping_sub(self.rcv.nxt) <= u32::from(WINDOW);
                if bare && seq_ok && self.life.state != State::TimeWait {
                    self.stats.resets_received += 1;
                    self.teardown_total();
                    self.set_state(State::Closed);
                } else {
                    self.stats.rejected += 1;
                }
                continue;
            }
            if flags.contains(TcpFlags::SYN) || self.life.state.opening() {
                if bare {
                    self.handle_open(m, k.kernel(), flags, seq, ack, window);
                } else {
                    self.stats.rejected += 1;
                }
                continue;
            }
            if payload_len == 0 {
                if flags.contains(TcpFlags::FIN) {
                    if flags.contains(TcpFlags::ACK) {
                        self.process_ack(m, k, ack, window, &SackBlocks::default());
                    }
                    self.handle_fin(m, k, seq);
                } else if flags.contains(TcpFlags::ACK) {
                    let sacks = if opt_len > 0 { hdr.sack_blocks(m) } else { SackBlocks::default() };
                    self.process_ack(m, k, ack, window, &sacks);
                } else {
                    // None of ACK, SYN, FIN or RST: it asks for nothing,
                    // and an empty delivery would count as an accept.
                    self.stats.rejected += 1;
                }
                continue;
            }

            if self.rcv.fin_rcvd.is_some() {
                #[cfg(feature = "mutation")]
                if self.accept_after_fin_bug {
                    // Deliberately wrong (see
                    // `inject_accept_after_fin_bug`): counts the segment
                    // accepted and moves `rcv_nxt` past the consumed FIN
                    // — exactly the corruption the lifecycle oracles pin
                    // (`rcv_nxt` stays at fin+1, `accepted` frozen).
                    self.stats.accepted += 1;
                    self.rcv.nxt = self.rcv.nxt.wrapping_add(payload_len as u32);
                    continue;
                }
                // Data past the peer's FIN: the FIN promised no more.
                // Drop it and re-ACK fin+1 (covers the common benign
                // case — a retransmission whose original ACK was lost
                // racing the FIN).
                self.stats.rejected += 1;
                self.send_ack(m, k.kernel());
                continue;
            }

            k.seg(ctx, SegEv::KernelRecv);
            return Some(Delivered {
                payload_addr: self.rcv.staging.base + IP_HEADER_LEN + hdr_len,
                payload_len,
                seq,
                control_sum,
                in_order: seq == self.rcv.nxt,
                ctx,
            });
        }
    }

    /// The one control sum of a staged segment: pseudo-header (its
    /// length covering the `body_len` bytes after the fixed header) +
    /// the fixed header + the first `opt_len` option bytes.
    #[inline]
    fn control_sum<M: Mem>(
        &self,
        m: &mut M,
        hdr: TcpHeader,
        body_len: usize,
        opt_len: usize,
    ) -> InetChecksum {
        let mut sum = InetChecksum::new();
        PseudoHeader {
            src: self.cfg.peer_ip,
            dst: self.cfg.local_ip,
            protocol: PROTO_TCP,
            tcp_len: (TCP_HEADER_LEN + body_len) as u16,
        }
        .add_to(&mut sum);
        hdr.add_to_checksum(m, &mut sum);
        if opt_len > 0 {
            hdr.add_options_to_checksum(m, opt_len, &mut sum);
        }
        sum
    }

    /// Pop a held out-of-order segment that has become the next
    /// expected one. The payload bytes in the hold slot are exactly the
    /// bytes the original checksum pass verified, so the stored control
    /// sum still folds to zero against them.
    fn take_ready_ooo<M: Mem>(&mut self, m: &mut M) -> Option<Delivered> {
        let idx = self.rcv.held.iter().position(|s| s.seq == self.rcv.nxt)?;
        let held = self.rcv.held.swap_remove(idx);
        m.fetch(self.code_tcp);
        m.compute(10); // reassembly-queue lookup
        Some(Delivered {
            payload_addr: self.rcv.hold.at(held.slot * MTU),
            payload_len: held.len,
            seq: held.seq,
            control_sum: held.control_sum,
            in_order: true,
            ctx: held.ctx,
        })
    }

    /// Hold a checksum-verified future segment for reassembly. Bounded
    /// at [`OOO_SLOTS`]; duplicates, old segments and out-of-window
    /// segments are simply not stored (the duplicate ACK still goes out
    /// either way). Returns whether the segment entered the hold.
    fn store_out_of_order<M: Mem>(&mut self, m: &mut M, d: &Delivered) -> bool {
        let dist = d.seq.wrapping_sub(self.rcv.nxt);
        if d.payload_len == 0 || dist == 0 || dist > u32::from(WINDOW) {
            return false;
        }
        let held = &mut self.rcv.held;
        if held.iter().any(|s| s.seq == d.seq) || held.len() >= OOO_SLOTS {
            return false;
        }
        let mut used = [false; OOO_SLOTS];
        for s in held.iter() {
            used[s.slot] = true;
        }
        let slot = (0..OOO_SLOTS).find(|&i| !used[i]).expect("a free slot exists");
        m.copy(d.payload_addr, self.rcv.hold.at(slot * MTU), d.payload_len);
        self.rcv.stamp += 1;
        held.push(OooSeg {
            seq: d.seq,
            len: d.payload_len,
            slot,
            control_sum: d.control_sum,
            stamp: self.rcv.stamp,
            ctx: d.ctx,
        });
        true
    }

    /// **Final stage**: accept or reject the staged segment given the
    /// payload checksum produced by the integrated stage (fused or
    /// separate). On accept, advances `rcv_nxt` and ACKs — at once when
    /// the kernel part holds nothing more for this endpoint, otherwise
    /// once per burst: the ACK is owed until the accept that empties
    /// the queue, the next `poll_input` that finds it empty, `tick` or
    /// `close`, whichever comes first, and that one cumulative ACK
    /// stands for every segment the burst advanced. On reject, state is
    /// untouched (the paper's motivation for early manipulation: "TCP
    /// processing can proceed without a possible roll back later on") —
    /// except that a duplicate/out-of-order segment still triggers an
    /// immediate (repeat) ACK so the sender can make progress.
    ///
    /// Reports the hold/accept/ACK trace marks but no span: the final
    /// stage is bracketed by whoever shaped it (`ilp_core::three_stage`
    /// on the ILP path, the non-ILP receive path's own bracket).
    ///
    /// # Errors
    /// [`Reject::BadChecksum`] on a failed verdict, [`Reject::Malformed`]
    /// for a segment that is not the next in order.
    pub fn finish_recv<M: Mem>(
        &mut self,
        m: &mut M,
        k: &mut impl KernelCtx,
        d: &Delivered,
        payload_sum: InetChecksum,
    ) -> Result<(), Reject> {
        let mut sum = d.control_sum;
        sum.combine(payload_sum);
        let computed = sum.finish();
        if computed != 0 {
            self.stats.rejected += 1;
            return Err(Reject::BadChecksum { expected: 0, computed });
        }
        if !d.in_order {
            self.stats.rejected += 1;
            if self.cfg.loss_recovery && self.store_out_of_order(m, d) {
                k.seg(d.ctx, SegEv::Hold);
            }
            self.send_ack(m, k.kernel()); // duplicate ACK (carries SACK if holding)
            return Err(Reject::Malformed("out-of-order segment"));
        }
        self.rcv.nxt = self.rcv.nxt.wrapping_add(d.payload_len as u32);
        self.stats.accepted += 1;
        if self.cfg.loss_recovery {
            self.rcv.prune_held();
        }
        k.seg(d.ctx, SegEv::Accept);
        self.touch_state(m);
        if k.kernel().pending(self.endpoint) == 0 {
            self.send_ack(m, k.kernel());
            k.seg(d.ctx, SegEv::AckGen);
        } else {
            self.rcv.ack_owed = true;
        }
        Ok(())
    }

    /// Emit a pure ACK, which settles any ACK owed. While holding
    /// out-of-order data (and loss recovery is on) it carries a SACK
    /// option naming the held runs; the option bytes ride through the
    /// kernel part as the segment's "payload", so every backend ships
    /// them without change.
    pub(super) fn send_ack<M: Mem>(&mut self, m: &mut M, lb: &mut impl KernelPart) {
        let (ranges, n) = if self.cfg.loss_recovery && !self.rcv.held.is_empty() {
            self.rcv.sack_ranges()
        } else {
            ([(0, 0); OOO_SLOTS], 0)
        };
        let body = Body::Sack(&ranges[..n]);
        self.stats.acks_sent += 1;
        self.rcv.ack_owed = false;
        self.emit(m, lb, self.snd.nxt, TcpFlags::ACK, body);
    }
}
