//! The harness world every harness oracle drives: one builder, one
//! stepped loop under the per-connection oracles, one recorder shape.

use cipher::SimplifiedSafer;
use memsim::layout::AddressSpace;
use memsim::NativeMem;
use obs::{Recorder, SeriesConfig, SpanObserver};
use server::harness::RunPath;
use server::{AggregateReport, Path, RoundRobin, ScaleHarness, Scheduler, ServerConfig};
use utcp::Loopback;

use crate::oracle::Tracker;
use crate::Mutant;

/// Rounds between re-reads of every delivered prefix (the last round is
/// always re-read too).
const DEEP_EVERY: u64 = 16;

/// The recorder every observed world records with: 16-tick windows, so
/// even a short run seals several and the conservation oracle and the
/// storm detector see the coarsening fold, not just the open window.
pub fn recorder() -> Recorder {
    Recorder::with_series(128, SeriesConfig { window_ticks: 16, ring: 4 })
}

/// A server harness over its own native arena, initialised and ready
/// to run.
#[derive(Debug)]
pub struct World {
    /// The harness: kernel part, connection table, clients.
    pub h: ScaleHarness<SimplifiedSafer>,
    arena: Vec<u8>,
}

impl World {
    /// `cfg`'s world over the harness's default datagram slot pool.
    pub fn new(cfg: ServerConfig) -> World {
        World::with_slots(cfg, None)
    }

    /// `cfg`'s world; `slots` replaces the loop-back's default datagram
    /// slot pool (the saturation world starves it).
    pub fn with_slots(cfg: ServerConfig, slots: Option<usize>) -> World {
        let mut space = AddressSpace::new();
        let h = match slots {
            None => ScaleHarness::simplified(&mut space, cfg),
            Some(n) => {
                let cipher = SimplifiedSafer::alloc(&mut space);
                let mut lb = Loopback::with_capacity(&mut space, n);
                lb.set_faults(cfg.faults);
                ScaleHarness::with_cipher_over(&mut space, cipher, cfg, lb)
            }
        };
        let mut arena = space.native_arena();
        h.init_world(&mut NativeMem::new(&mut arena));
        World { h, arena }
    }

    /// Arm `mutant` in every connection, server and client side.
    pub fn arm(&mut self, mutant: Mutant) {
        for sess in self.h.table.iter_mut() {
            mutant.arm(&mut sess.tx);
        }
        for i in 0..self.h.config().n_conns {
            mutant.arm(self.h.client_rx_mut(i));
        }
    }

    /// The harness and its memory, borrowed together.
    pub fn parts(&mut self) -> (&mut ScaleHarness<SimplifiedSafer>, NativeMem<'_>) {
        (&mut self.h, NativeMem::new(&mut self.arena))
    }

    /// Run to completion under round-robin, on a bare [`Path`] or on
    /// `(path, &mut observer)`.
    pub fn run<P: RunPath>(&mut self, path: P) -> AggregateReport {
        let (h, mut m) = self.parts();
        h.run(&mut m, &mut RoundRobin::new(), path)
    }

    /// The index of the first client whose output is not its file.
    pub fn verify_outputs(&mut self) -> Option<usize> {
        let (h, mut m) = self.parts();
        h.verify_outputs(&mut m)
    }

    /// Step to completion on `path` under `obs` with every connection's
    /// oracles after each round, re-reading every delivered prefix every
    /// 16 rounds and after the last — the one stepped loop. Fresh oracles
    /// per call: a churn wave's reopen resets the sequence books. Returns
    /// the rounds stepped and the oracle evaluations made.
    pub fn run_checked<O: SpanObserver>(
        &mut self,
        sched: &mut dyn Scheduler,
        path: Path,
        obs: &mut O,
    ) -> Result<(u64, u64), String> {
        let (h, mut m) = self.parts();
        let mut run = h.begin_run::<O>();
        let mut tracker = Tracker::new(h.config().n_conns);
        let mut ticks = 0u64;
        let mut more = true;
        while more {
            more = h.step(&mut m, sched, path, obs, &mut run);
            ticks += 1;
            let deep = !more || ticks.is_multiple_of(DEEP_EVERY);
            tracker.check(h, &mut m, deep).map_err(|e| format!("tick {ticks}: {e}"))?;
        }
        Ok((ticks, tracker.checks))
    }
}
