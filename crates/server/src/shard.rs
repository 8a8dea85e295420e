//! Sharded serving: partition the connection space across OS threads.
//!
//! The [`crate::harness::ScaleHarness`] is single-threaded by design —
//! inside one shard that is still true, and it is what makes per-shard
//! runs deterministic. Scaling past one core therefore happens *around*
//! the harness, not inside it: the connection space is split into `S`
//! contiguous slices, and each slice becomes a fully independent world —
//! its own [`memsim::AddressSpace`] and arena, its own `Loopback` kernel
//! part, virtual clock, scheduler instance, and [`obs::Recorder`] —
//! built and driven entirely on one `std::thread` worker. Nothing is
//! shared between shards (no locks, no atomics on the data path); the
//! only values crossing thread boundaries are the [`ServerConfig`]
//! moving in and the finished [`ShardOutcome`] moving out, which is why
//! `memsim` asserts its world types are `Send`.
//!
//! ## Determinism contract
//!
//! A shard's behaviour is a pure function of its [`ServerConfig`]: the
//! same slice produces the same rounds, the same retransmits, and the
//! same trace, no matter how many sibling shards run beside it or how
//! the OS schedules them. [`ServerConfig::conn_base`] keeps identities
//! global — shard `s` serves connections `[base, base+count)` with the
//! same ports, ISSs and file patterns the unsharded harness would give
//! them — so an `S = 1` sharded run *is* the unsharded run, byte for
//! byte, and a sharded run's outputs can be verified against the same
//! global patterns.
//!
//! ## Report merge
//!
//! After the join, per-shard recorders fold into one unified recorder
//! via [`obs::Recorder::merge`] (counters and work matrices add,
//! histograms merge bucket-wise, traces concatenate with drop
//! accounting, and windowed time series merge *window-aligned*: shards
//! share the virtual-clock origin, so window `k` of one shard lines up
//! with window `k` of every other, and the merged series is the
//! per-window sum — see [`obs::SeriesRecorder::merge_from`]). The
//! merged trace keeps shard-local connection indices; per-shard
//! attribution lives in the shard-labelled sections of
//! [`ShardedReport::to_json`].

use std::time::{Duration, Instant};

use memsim::layout::AddressSpace;
use memsim::NativeMem;
use obs::{ConnView, Json, QueueStat, Recorder, Verdict};

use crate::harness::{AggregateReport, Path, ScaleHarness, ServerConfig};
use crate::sched::{DeficitRoundRobin, RoundRobin, Scheduler};

/// Which scheduler each shard instantiates privately. (A `dyn
/// Scheduler` cannot cross the thread boundary as a value; the policy
/// can, and each worker builds its own instance from it.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Equal-turn round-robin.
    RoundRobin,
    /// Deficit-weighted round-robin with the given per-weight-unit
    /// byte quantum; weights come from the shard's config slice.
    Deficit {
        /// Byte credit granted per weight unit per top-up.
        quantum: u32,
    },
}

impl SchedPolicy {
    /// Build a fresh scheduler for one shard's connection slice.
    fn build(self, cfg: &ServerConfig) -> Box<dyn Scheduler> {
        match self {
            SchedPolicy::RoundRobin => Box::new(RoundRobin::new()),
            SchedPolicy::Deficit { quantum } => Box::new(DeficitRoundRobin::for_config(cfg, quantum)),
        }
    }
}

/// Split `cfg` into `shards` contiguous per-shard configs.
///
/// Connections are dealt out block-wise: shard `s` gets
/// `n/S + (s < n mod S)` connections starting right after its
/// predecessor's slice, with `conn_base` advanced so global identities
/// (ports, IPs, ISSs, file patterns) are preserved and the weight
/// vector sliced to match.
///
/// # Panics
/// Panics when `shards` is zero or exceeds the connection count — an
/// empty shard has no meaningful world to build.
pub fn shard_configs(cfg: &ServerConfig, shards: usize) -> Vec<ServerConfig> {
    assert!(shards >= 1, "at least one shard");
    assert!(
        shards <= cfg.n_conns,
        "{} shards for {} connections leaves empty shards",
        shards,
        cfg.n_conns
    );
    let quot = cfg.n_conns / shards;
    let extra = cfg.n_conns % shards;
    let mut out = Vec::with_capacity(shards);
    let mut offset = 0usize; // local offset into cfg.weights
    for s in 0..shards {
        let count = quot + usize::from(s < extra);
        let weights = if cfg.weights.is_empty() {
            Vec::new()
        } else {
            (offset..offset + count).map(|i| cfg.weight(i)).collect()
        };
        out.push(ServerConfig {
            n_conns: count,
            conn_base: cfg.conn_base + offset,
            weights,
            ..cfg.clone()
        });
        offset += count;
    }
    out
}

/// Everything one shard worker produced.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Shard index (0-based).
    pub shard: usize,
    /// The config slice this shard served.
    pub config: ServerConfig,
    /// The shard harness's aggregate report.
    pub report: AggregateReport,
    /// The shard's private recorder (also folded into the merge).
    pub recorder: Recorder,
    /// First corrupted local connection index, `None` when every client
    /// reassembled exactly its own file.
    pub corrupted: Option<usize>,
    /// End-of-run health views for this shard's slice, in global
    /// connection order (ids already carry `conn_base`).
    pub views: Vec<ConnView>,
    /// This shard's kernel-part queue occupancy.
    pub queue: QueueStat,
    /// Wall-clock time this worker spent building and driving its world.
    pub wall: Duration,
}

/// A joined sharded run: per-shard outcomes plus the unified view.
#[derive(Debug)]
pub struct ShardedReport {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// All shard recorders folded into one via [`Recorder::merge`].
    pub merged: Recorder,
    /// Wall-clock time of the whole parallel section (spawn → join).
    pub wall: Duration,
}

impl ShardedReport {
    /// Total application payload bytes delivered across shards.
    pub fn payload_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.report.payload_bytes).sum()
    }

    /// Total retransmissions across shards.
    pub fn retransmits(&self) -> u64 {
        self.shards.iter().map(|s| s.report.retransmits).sum()
    }

    /// Total rejected segments across shards.
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.report.rejected).sum()
    }

    /// Total datagrams bit-flipped by fault injection across shards.
    pub fn corrupted_datagrams(&self) -> u64 {
        self.shards.iter().map(|s| s.report.corrupted).sum()
    }

    /// Rounds of the slowest shard — the virtual completion time of the
    /// sharded run, since shards advance their clocks concurrently.
    pub fn max_rounds(&self) -> u64 {
        self.shards.iter().map(|s| s.report.rounds).max().unwrap_or(0)
    }

    /// First corrupted connection as `(shard, global index)`, `None`
    /// when every client on every shard got exactly its own file.
    pub fn corrupted_conn(&self) -> Option<(usize, usize)> {
        self.shards
            .iter()
            .find_map(|s| s.corrupted.map(|local| (s.shard, s.config.conn_base + local)))
    }

    /// Health views across every shard, concatenated in shard order.
    /// Shard slices are contiguous in the global connection space, so
    /// the result is sorted by global connection id — exactly what the
    /// unsharded harness would return for the whole config.
    pub fn health_views(&self) -> Vec<ConnView> {
        self.shards.iter().flat_map(|s| s.views.iter().copied()).collect()
    }

    /// The queue stat of the most-pressed shard — highest peak/capacity
    /// ratio, first shard winning ties. Queue occupancy is a per-backend
    /// fact (each shard owns its kernel part), so the merged view
    /// reports the worst one; with `S = 1` this is exactly the unsharded
    /// stat.
    pub fn queue_stat(&self) -> QueueStat {
        let mut it = self.shards.iter().map(|s| s.queue);
        let Some(mut worst) = it.next() else { return QueueStat::default() };
        for q in it {
            let presses_harder = match (worst.capacity, q.capacity) {
                (0, 0) => q.peak > worst.peak,
                // A bounded queue with a known ratio outranks an
                // unknown-capacity one, which can't alarm anyway.
                (0, _) => true,
                (_, 0) => false,
                (wc, qc) => q.peak * wc > worst.peak * qc,
            };
            if presses_harder {
                worst = q;
            }
        }
        worst
    }

    /// Run the health detectors over the merged telemetry.
    pub fn health(&self) -> Vec<Verdict> {
        obs::health::analyze(&self.merged, &self.health_views(), self.queue_stat())
    }

    /// Full diagnostic bundle over the merged telemetry. With `S = 1`
    /// this renders byte-identical to [`ScaleHarness::diagnostics`] on
    /// the unsharded harness.
    pub fn diagnostics(&self) -> Json {
        obs::health::diagnose(&self.merged, &self.health_views(), self.queue_stat())
    }

    /// The run as JSON: shard-labelled sections (slice, rounds, bytes,
    /// wall time, the shard's own recorder) plus the merged recorder
    /// and cross-shard totals.
    pub fn to_json(&self) -> Json {
        let shards: Vec<Json> = self
            .shards
            .iter()
            .map(|s| {
                Json::obj()
                    .set("shard", Json::U64(s.shard as u64))
                    .set("conn_base", Json::U64(s.config.conn_base as u64))
                    .set("n_conns", Json::U64(s.config.n_conns as u64))
                    .set("rounds", Json::U64(s.report.rounds))
                    .set("payload_bytes", Json::U64(s.report.payload_bytes))
                    .set("retransmits", Json::U64(s.report.retransmits))
                    .set("rejected", Json::U64(s.report.rejected))
                    .set("fairness", Json::F64(s.report.fairness))
                    .set("scheduler", Json::Str(s.report.scheduler.to_string()))
                    .set("wall_us", Json::U64(s.wall.as_micros() as u64))
                    .set("clean", Json::Bool(s.corrupted.is_none()))
                    .set("recorder", s.recorder.to_json())
            })
            .collect();
        let totals = Json::obj()
            .set("payload_bytes", Json::U64(self.payload_bytes()))
            .set("rounds_max", Json::U64(self.max_rounds()))
            .set("retransmits", Json::U64(self.retransmits()))
            .set("rejected", Json::U64(self.rejected()))
            .set("corrupted_datagrams", Json::U64(self.corrupted_datagrams()))
            .set("wall_us", Json::U64(self.wall.as_micros() as u64));
        Json::obj()
            .set("shards", Json::Arr(shards))
            .set("totals", totals)
            .set("merged", self.merged.to_json())
    }
}

/// Build and drive one shard's world, entirely on the calling thread.
fn run_shard(
    shard: usize,
    cfg: &ServerConfig,
    path: Path,
    policy: SchedPolicy,
    trace_capacity: usize,
) -> ShardOutcome {
    let started = Instant::now();
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg.clone());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = policy.build(cfg);
    let mut recorder = Recorder::new(trace_capacity);
    let report = h.run(&mut m, sched.as_mut(), (path, &mut recorder));
    let corrupted = h.verify_outputs(&mut m);
    let views = h.health_views();
    let queue = h.queue_stat();
    ShardOutcome {
        shard,
        config: cfg.clone(),
        report,
        recorder,
        corrupted,
        views,
        queue,
        wall: started.elapsed(),
    }
}

/// Run `cfg`'s connections sharded `shards` ways on OS threads and
/// merge the results.
///
/// Each worker owns its complete world (see the module docs); the
/// parallel section spans world construction through verification, so
/// measured wall time reflects what a sharded server actually does.
/// With `shards == 1` the single worker runs the exact unsharded
/// harness — same config, same seeds, same recorder stream.
///
/// # Panics
/// Panics if a shard worker panics (stall, `max_rounds`), or on a
/// degenerate split (see [`shard_configs`]).
pub fn run_sharded(
    cfg: &ServerConfig,
    shards: usize,
    path: Path,
    policy: SchedPolicy,
    trace_capacity: usize,
) -> ShardedReport {
    let configs = shard_configs(cfg, shards);
    let started = Instant::now();
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .enumerate()
            .map(|(s, scfg)| {
                scope.spawn(move || run_shard(s, scfg, path, policy, trace_capacity))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    });
    let wall = started.elapsed();
    let mut merged = Recorder::new(trace_capacity);
    for o in &outcomes {
        merged.merge(&o.recorder);
    }
    ShardedReport { shards: outcomes, merged, wall }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_contiguous_and_complete() {
        let cfg = ServerConfig {
            n_conns: 10,
            weights: (1..=10).collect(),
            ..Default::default()
        };
        let parts = shard_configs(&cfg, 3);
        assert_eq!(parts.len(), 3);
        let counts: Vec<usize> = parts.iter().map(|p| p.n_conns).collect();
        assert_eq!(counts, [4, 3, 3], "remainder spread over the first shards");
        let mut expect_base = 0;
        for p in &parts {
            assert_eq!(p.conn_base, expect_base, "slices are contiguous");
            // Weight slice matches the global vector at this offset.
            let want: Vec<u32> =
                (0..p.n_conns).map(|i| (expect_base + i + 1) as u32).collect();
            assert_eq!(p.weights, want);
            assert_eq!(p.file_len, cfg.file_len, "shape fields carried through");
            expect_base += p.n_conns;
        }
        assert_eq!(expect_base, cfg.n_conns, "every connection is served once");
    }

    #[test]
    fn empty_weights_stay_empty_per_shard() {
        let cfg = ServerConfig { n_conns: 8, ..Default::default() };
        for p in shard_configs(&cfg, 4) {
            assert!(p.weights.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "empty shards")]
    fn more_shards_than_connections_panics() {
        let cfg = ServerConfig { n_conns: 2, ..Default::default() };
        let _ = shard_configs(&cfg, 3);
    }
}
