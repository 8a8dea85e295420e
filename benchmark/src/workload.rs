//! The four workloads and the one interface the measurement protocol
//! drives them through.

use crate::harness::{HarnessShape, World};
use crate::kernel::{OverLoopback, Pair, Shared, Timed, Wire};
use crate::p2p::{P2p, P2pShape, Stall, Ticks};
use netback::UdpBackend;
use server::Path;
use std::io;
use std::time::{Duration, Instant};
use utcp::{FaultPlan, FaultProbs, KernelCounters, KernelPart, Loopback};

/// Sender ring on every workload. On `udp_small` this is what keeps the
/// datagrams in flight (8 KiB / 288 B = 28) under `UdpBackend`'s 64-slot
/// pool, which recycles without back-pressure.
pub const RING: usize = 8 * 1024;
/// RTO `tick` cadence over real sockets.
const UDP_TICK: Duration = Duration::from_millis(20);
/// File the harness workloads' point-to-point probe cycles over.
const PROBE_FILE: usize = 64 * 1024;
/// Passes over it in one piece of the pipeline probe (512 chunks at 1 KiB).
const PROBE_PASSES: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4 × 1 MiB over `Loopback`: the data loops do the work.
    Bulk,
    /// 1024 × 4 KiB over `Loopback`: connection lifecycle does the work.
    Fanin,
    /// `bulk` under seeded drop/reorder/corrupt/dup faults.
    Lossy,
    /// 256 B chunks over two `UdpBackend`s: per-datagram cost does the work.
    UdpSmall,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Bulk,
        Workload::Fanin,
        Workload::Lossy,
        Workload::UdpSmall,
    ];

    /// Name as used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Fanin => "fanin",
            Workload::Lossy => "lossy",
            Workload::UdpSmall => "udp_small",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether any retransmission or reject invalidates a run.
    pub fn fault_free(self) -> bool {
        self != Workload::Lossy
    }

    /// Payload bytes per chunk.
    pub fn chunk(self) -> usize {
        match self {
            Workload::UdpSmall => 256,
            _ => 1024,
        }
    }

    /// Equal slices of timed work in one repetition: waves (`run` →
    /// `drain_to_closed` → `reopen_wave`) on the harness workloads, passes
    /// over the 128 KiB file on `udp_small`. Sized so a repetition runs at
    /// least 0.5 s on the recording machine (64, 32, 64 and 24 MiB).
    pub fn slices_per_rep(self) -> usize {
        match self {
            Workload::Bulk | Workload::Lossy => 16,
            Workload::Fanin => 8,
            Workload::UdpSmall => 192,
        }
    }

    fn harness_shape(self) -> HarnessShape {
        let clean = FaultProbs::default();
        match self {
            Workload::Bulk => HarnessShape {
                n_conns: 4,
                file_len: 1 << 20,
                chunk: 1024,
                probs: clean,
            },
            Workload::Fanin => HarnessShape {
                n_conns: 1024,
                file_len: 4096,
                chunk: 1024,
                probs: clean,
            },
            // Parts per 65536: drop ≈ 1 %, reorder ≈ 1 %, corrupt ≈ 0.5 %, dup ≈ 0.5 %.
            Workload::Lossy => HarnessShape {
                n_conns: 4,
                file_len: 1 << 20,
                chunk: 1024,
                probs: FaultProbs {
                    drop: 655,
                    reorder: 655,
                    corrupt: 328,
                    dup: 328,
                    delay: 0,
                },
            },
            Workload::UdpSmall => unreachable!("udp_small is not a harness workload"),
        }
    }
}

/// What one goodput repetition did, in workload-neutral terms.
#[derive(Debug, Clone, Default)]
pub struct RepStats {
    /// The timed region slice by slice (one wave, or one pass over the
    /// file on `udp_small`): equal work each, seconds.
    pub slices_s: Vec<f64>,
    /// Part of it spent in teardown (`drain_to_closed`), seconds.
    pub drain_s: f64,
    /// Verified payload bytes.
    pub good_bytes: u64,
    /// Operations attempted (file fetches, or chunks on `udp_small`).
    pub ops: u64,
    /// Operations whose bytes did not verify.
    pub bad_ops: u64,
    /// Chunks delivered.
    pub chunks: u64,
    /// Scheduling/driver rounds.
    pub rounds: u64,
    /// Jain fairness (1 where there is one connection).
    pub fairness: f64,
}

/// Cumulative counters of a world.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Data segments sent, retransmissions included.
    pub data_sent: u64,
    /// Chunks receivers accepted in order.
    pub accepted: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Fast retransmissions among those.
    pub fast_retransmits: u64,
    /// Segments receivers rejected.
    pub rejects: u64,
    /// Congestion-window cuts.
    pub cwnd_cuts: u64,
    /// Kernel part, sender side (the only side on `Loopback`).
    pub kernel_tx: KernelCounters,
    /// Kernel part, receiver side (zero on `Loopback`).
    pub kernel_rx: KernelCounters,
}

/// Round-trip samples of one stop-and-wait phase.
#[derive(Debug, Clone, Default)]
pub struct RoundTrips {
    /// One entry per chunk, ns.
    pub ns: Vec<u64>,
    /// Chunks whose bytes did not verify.
    pub bad: u64,
}

/// What the measurement protocol needs from a workload's world.
pub trait Bench {
    /// `slices` slices of goodput work on `path`
    /// ([`Workload::slices_per_rep`] of them make a repetition).
    ///
    /// # Errors
    /// A description of the stall; the world is unusable afterwards.
    fn goodput_rep(
        &mut self,
        path: Path,
        rep_index: u64,
        slices: usize,
        deadline: Instant,
    ) -> Result<RepStats, String>;

    /// [`Bench::goodput_rep`] with an `obs::Recorder` attached, where the
    /// workload's driver takes an observer (the harness workloads).
    fn observed_rep(
        &mut self,
        path: Path,
        rep_index: u64,
        slices: usize,
        deadline: Instant,
    ) -> Option<Result<RepStats, String>>;

    /// `n` stop-and-wait round trips on `path` over the workload's kernel
    /// part, chunk size and fault plan.
    ///
    /// # Errors
    /// A description of the stall.
    fn round_trips(
        &mut self,
        path: Path,
        n: usize,
        deadline: Instant,
    ) -> Result<RoundTrips, String>;

    /// A windowed transfer through the `server::pipeline` calls with a
    /// span around each, returning the chunks it delivered — `Some` only
    /// where [`Bench::goodput_rep`] does not already make those calls
    /// from benchmark code.
    fn pipeline_probe(&mut self, path: Path, deadline: Instant) -> Option<Result<u64, String>>;

    /// Cumulative counters of the goodput world.
    fn counts(&self) -> Counts;
}

fn stall_text(s: Stall) -> String {
    match s {
        Stall::Deadline => "deadline passed".into(),
        Stall::Send(e) => format!("send refused: {e}"),
    }
}

fn p2p_round_trips<W: Wire>(
    p: &mut P2p<W>,
    path: Path,
    n: usize,
    deadline: Instant,
) -> Result<RoundTrips, String> {
    let (ns, bad) = p.stop_and_wait(path, n, deadline).map_err(stall_text)?;
    Ok(RoundTrips { ns, bad })
}

/// `bulk` / `fanin` / `lossy`: the harness world plus a point-to-point
/// pair over the same kind of kernel part for the RTT phase and the
/// pipeline probe.
#[derive(Debug)]
pub struct HarnessBench<K: OverLoopback> {
    world: World<K>,
    probe: P2p<Shared<K>>,
    recorder: obs::Recorder,
}

impl<K: OverLoopback> HarnessBench<K> {
    fn build(w: Workload, seed: u64, wrap: fn(Loopback) -> K) -> Self {
        let shape = w.harness_shape();
        let probe_shape = P2pShape {
            chunk: shape.chunk,
            file_len: PROBE_FILE,
            ring: RING,
            ticks: Ticks::Idle,
        };
        let probe = P2p::build(seed ^ 0x5052_4F42, probe_shape, |space| {
            let mut lb = Loopback::new(space);
            if shape.probs.any() {
                lb.set_faults(FaultPlan::seeded(seed ^ 0x5254_5421, shape.probs));
            }
            Ok(Shared(wrap(lb)))
        })
        .expect("the loop-back wire cannot fail to build");
        HarnessBench {
            world: World::build(shape, seed, wrap),
            probe,
            recorder: obs::Recorder::new(256),
        }
    }
}

impl<K: OverLoopback> Bench for HarnessBench<K> {
    fn goodput_rep(
        &mut self,
        path: Path,
        rep_index: u64,
        slices: usize,
        deadline: Instant,
    ) -> Result<RepStats, String> {
        self.world
            .rep(path, rep_index, slices, deadline, &mut obs::NoopObserver)
    }

    fn observed_rep(
        &mut self,
        path: Path,
        rep_index: u64,
        slices: usize,
        deadline: Instant,
    ) -> Option<Result<RepStats, String>> {
        Some(
            self.world
                .rep(path, rep_index, slices, deadline, &mut self.recorder),
        )
    }

    fn round_trips(
        &mut self,
        path: Path,
        n: usize,
        deadline: Instant,
    ) -> Result<RoundTrips, String> {
        p2p_round_trips(&mut self.probe, path, n, deadline)
    }

    fn pipeline_probe(&mut self, path: Path, deadline: Instant) -> Option<Result<u64, String>> {
        Some(
            self.probe
                .transfer(path, PROBE_PASSES, deadline)
                .map(|t| t.chunks)
                .map_err(stall_text),
        )
    }

    fn counts(&self) -> Counts {
        self.world.counts()
    }
}

/// `udp_small`: one connection pair over two UDP sockets on 127.0.0.1.
#[derive(Debug)]
pub struct UdpBench<K: KernelPart> {
    p2p: P2p<Pair<K>>,
}

impl<K: KernelPart> UdpBench<K> {
    fn build(seed: u64, wrap: fn(UdpBackend) -> K) -> io::Result<Self> {
        let shape = P2pShape {
            chunk: Workload::UdpSmall.chunk(),
            // Short passes (512 chunks, about 3 ms): the shorter a slice,
            // the likelier the host leaves some of them undisturbed.
            file_len: 128 * 1024,
            ring: RING,
            ticks: Ticks::Wall(UDP_TICK),
        };
        let p2p = P2p::build(seed, shape, |space| {
            let mut tx = UdpBackend::bind(space, "127.0.0.1:0")?;
            let mut rx = UdpBackend::bind(space, "127.0.0.1:0")?;
            tx.set_peer(rx.local_addr()?)?;
            rx.set_peer(tx.local_addr()?)?;
            Ok(Pair {
                tx: wrap(tx),
                rx: wrap(rx),
            })
        })?;
        Ok(UdpBench { p2p })
    }
}

impl<K: KernelPart> Bench for UdpBench<K> {
    fn goodput_rep(
        &mut self,
        path: Path,
        _rep_index: u64,
        slices: usize,
        deadline: Instant,
    ) -> Result<RepStats, String> {
        let t = self
            .p2p
            .transfer(path, slices, deadline)
            .map_err(stall_text)?;
        let sent = slices as u64 * self.p2p.chunks_per_pass();
        Ok(RepStats {
            slices_s: t.passes_s,
            drain_s: 0.0,
            good_bytes: t.good_bytes,
            ops: sent,
            bad_ops: t.bad_chunks + (sent - t.chunks),
            chunks: t.chunks,
            rounds: t.rounds,
            fairness: 1.0,
        })
    }

    fn observed_rep(
        &mut self,
        _: Path,
        _: u64,
        _: usize,
        _: Instant,
    ) -> Option<Result<RepStats, String>> {
        None
    }

    fn round_trips(
        &mut self,
        path: Path,
        n: usize,
        deadline: Instant,
    ) -> Result<RoundTrips, String> {
        p2p_round_trips(&mut self.p2p, path, n, deadline)
    }

    fn pipeline_probe(&mut self, _: Path, _: Instant) -> Option<Result<u64, String>> {
        None
    }

    fn counts(&self) -> Counts {
        let (kernel_tx, kernel_rx) = self.p2p.wire.counters();
        let (tx, rx) = (&self.p2p.tx.stats, &self.p2p.rx.stats);
        Counts {
            data_sent: tx.data_sent,
            accepted: rx.accepted,
            retransmits: tx.retransmits,
            fast_retransmits: tx.fast_retransmits,
            rejects: rx.rejected,
            cwnd_cuts: tx.cwnd_cuts,
            kernel_tx,
            kernel_rx,
        }
    }
}

/// Build `w`'s world over the plain kernel parts (the untraced run).
///
/// # Errors
/// Socket creation on `udp_small`.
pub fn build_plain(w: Workload, seed: u64) -> io::Result<Box<dyn Bench>> {
    Ok(match w {
        Workload::UdpSmall => Box::new(UdpBench::build(seed, |k| k)?),
        _ => Box::new(HarnessBench::build(w, seed, |lb| lb)),
    })
}

/// Build `w`'s world with every kernel part wrapped in [`Timed`] (the
/// traced run).
///
/// # Errors
/// Socket creation on `udp_small`.
pub fn build_timed(w: Workload, seed: u64) -> io::Result<Box<dyn Bench>> {
    Ok(match w {
        Workload::UdpSmall => Box::new(UdpBench::build(seed, |inner| Timed { inner })?),
        _ => Box::new(HarnessBench::build(w, seed, |inner| Timed { inner })),
    })
}
