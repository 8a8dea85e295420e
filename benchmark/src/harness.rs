//! The `ScaleHarness` workloads (`bulk`, `fanin`, `lossy`): one server,
//! N clients, every transfer driven to completion and torn down, wave
//! after wave in one world.

use crate::kernel::OverLoopback;
use crate::span::{self, Name};
use crate::workload::{Counts, RepStats};
use cipher::SimplifiedSafer;
use memsim::layout::AddressSpace;
use memsim::region::Region;
use memsim::NativeMem;
use obs::SpanObserver;
use server::{Path, RoundRobin, ScaleHarness, Scheduler, ServerConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use utcp::rng::XorShift64;
use utcp::{FaultPlan, FaultProbs, Loopback};

/// Size of one harness workload.
#[derive(Debug, Clone, Copy)]
pub struct HarnessShape {
    /// Concurrent connections.
    pub n_conns: usize,
    /// File bytes per connection.
    pub file_len: usize,
    /// Payload bytes per chunk.
    pub chunk: usize,
    /// Per-datagram fault probabilities (all zero = fault-free).
    pub probs: FaultProbs,
}

/// Server + clients + kernel part + native memory.
#[derive(Debug)]
pub struct World<K: OverLoopback> {
    h: ScaleHarness<SimplifiedSafer, K>,
    arena: Vec<u8>,
    base: usize,
    outs: Vec<Region>,
    sched: RoundRobin,
    shape: HarnessShape,
    seed: u64,
}

impl<K: OverLoopback> World<K> {
    /// Build the world; `wrap` turns the loop-back into the kernel part
    /// the harness runs over (identity, or the timing wrapper). Files
    /// and the cipher key are derived from `seed`.
    pub fn build(shape: HarnessShape, seed: u64, wrap: impl FnOnce(Loopback) -> K) -> Self {
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let cfg = ServerConfig {
            n_conns: shape.n_conns,
            file_len: shape.file_len,
            chunk: shape.chunk,
            // The clock runs on across every wave of every repetition.
            max_rounds: u64::MAX,
            ..Default::default()
        };
        // Same pool sizing as `ScaleHarness::with_cipher`.
        let lb = Loopback::with_capacity(&mut space, 16 * shape.n_conns + 64);
        let h = ScaleHarness::with_cipher_over(&mut space, cipher, cfg, wrap(lb));
        let outs: Vec<Region> = space
            .regions()
            .iter()
            .filter(|r| r.name == "cli_out")
            .copied()
            .collect();
        assert_eq!(outs.len(), shape.n_conns, "one output region per client");
        let mut arena = space.native_arena();
        let base = space.data_base();
        let mut m = NativeMem::with_base(&mut arena, base);
        let mut rng = XorShift64::new(seed);
        cipher.init(&mut m, rng.next_u64().to_le_bytes());
        for sess in h.table.iter() {
            for word in m.bytes_mut(sess.file.base, sess.file_len).chunks_mut(8) {
                let r = rng.next_u64().to_le_bytes();
                word.copy_from_slice(&r[..word.len()]);
            }
        }
        World {
            h,
            arena,
            base,
            outs,
            sched: RoundRobin::new(),
            shape,
            seed,
        }
    }

    /// `waves` × (transfer, teardown) on `path`, timed, each followed by
    /// the untimed output compare and `reopen_wave`.
    /// On `lossy` the fault stream restarts from a seed derived from
    /// `rep_index`, so repetition *i* of both paths meets the same faults.
    ///
    /// # Errors
    /// The panic message when the harness declared a stall, or a note
    /// that `deadline` passed. The world is unusable afterwards.
    pub fn rep<O: SpanObserver>(
        &mut self,
        path: Path,
        rep_index: u64,
        waves: usize,
        deadline: Instant,
        obs: &mut O,
    ) -> Result<RepStats, String> {
        catch_unwind(AssertUnwindSafe(|| {
            self.rep_inner(path, rep_index, waves, deadline, obs)
        }))
        .unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "panic".into());
            Err(format!("harness panicked: {msg}"))
        })
    }

    fn rep_inner<O: SpanObserver>(
        &mut self,
        path: Path,
        rep_index: u64,
        waves: usize,
        deadline: Instant,
        obs: &mut O,
    ) -> Result<RepStats, String> {
        if self.shape.probs.any() {
            let seed = self.seed ^ (rep_index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.h
                .lb
                .loopback()
                .set_faults(FaultPlan::seeded(seed, self.shape.probs));
        }
        let mut out = RepStats::default();
        let chunks_per_fetch = self.shape.file_len.div_ceil(self.shape.chunk) as u64;
        let mut m = NativeMem::with_base(&mut self.arena, self.base);
        for _ in 0..waves {
            let start = Instant::now();
            let mut run = self.h.begin_run::<O>();
            loop {
                let _span = span::enter(Name::Step);
                out.rounds += 1;
                if !self.h.step(&mut m, &mut self.sched, path, obs, &mut run) {
                    break;
                }
                if out.rounds.is_multiple_of(1024) && Instant::now() >= deadline {
                    return Err("deadline passed mid-transfer".into());
                }
            }
            let report = self.h.finish_run(obs, self.sched.name());
            let drain_start = Instant::now();
            {
                let _span = span::enter(Name::Drain);
                out.rounds += self.h.drain_to_closed(&mut m, path, obs);
            }
            let end = Instant::now();
            out.slices_s.push((end - start).as_secs_f64());
            out.drain_s += (end - drain_start).as_secs_f64();
            out.fairness += report.fairness / waves as f64;

            let _span = span::enter(Name::Verify);
            for (sess, o) in self.h.table.iter().zip(&self.outs) {
                out.ops += 1;
                if m.bytes(sess.file.base, sess.file_len) == m.bytes(o.base, sess.file_len) {
                    out.good_bytes += sess.file_len as u64;
                    out.chunks += chunks_per_fetch;
                } else {
                    out.bad_ops += 1;
                }
            }
            self.h.reopen_wave(&mut m);
            if Instant::now() >= deadline {
                return Err("deadline passed".into());
            }
        }
        Ok(out)
    }

    /// Cumulative transport and kernel-part counters.
    pub fn counts(&self) -> Counts {
        let mut c = Counts {
            kernel_tx: self.h.lb.counters(),
            ..Counts::default()
        };
        for (i, sess) in self.h.table.iter().enumerate() {
            let (tx, rx) = (&sess.tx.stats, &self.h.client_rx(i).stats);
            c.data_sent += tx.data_sent;
            c.retransmits += tx.retransmits;
            c.fast_retransmits += tx.fast_retransmits;
            c.cwnd_cuts += tx.cwnd_cuts;
            c.accepted += rx.accepted;
            c.rejects += rx.rejected;
        }
        c
    }
}
