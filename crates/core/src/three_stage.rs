//! The three-stage protocol-processing split (§2.1, after Abbott &
//! Peterson).
//!
//! Ordering constraints between control functions and data manipulations
//! are managed by dividing packet processing into:
//!
//! 1. **initial control operations** — demultiplexing and packet parsing
//!    ("usually very small");
//! 2. the **integrated data manipulations** — the ILP loop;
//! 3. a **final protocol stage** — where "messages are accepted or
//!    rejected", i.e. where the checksum verdict and unmarshalling errors
//!    are turned into protocol actions.
//!
//! [`three_stage`] encodes the shape as a combinator so the ILP receive
//! path in `rpcapp::paths` cannot accidentally interleave control
//! decisions with the loop: the integrated closure has no way to reject,
//! and the final closure is the only place a verdict can be produced.

use memsim::Mem;
use obs::{Layer, PathLabel, SpanObserver, Stage, Work};

/// Why the final stage rejected a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// Checksum verification failed.
    BadChecksum {
        /// Expected field value.
        expected: u16,
        /// Computed value.
        computed: u16,
    },
    /// The packet was malformed before the loop could run.
    Malformed(&'static str),
    /// Unmarshalling failed after decryption.
    BadFormat(&'static str),
}

impl core::fmt::Display for Reject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Reject::BadChecksum { expected, computed } => {
                write!(f, "checksum mismatch: header {expected:#06x}, computed {computed:#06x}")
            }
            Reject::Malformed(what) => write!(f, "malformed packet: {what}"),
            Reject::BadFormat(what) => write!(f, "unmarshalling failed: {what}"),
        }
    }
}

impl std::error::Error for Reject {}

/// Run the initial / integrated / final decomposition.
///
/// * `initial` parses headers and demultiplexes, producing a context
///   `C` — or rejects before any data is touched.
/// * `integrated` is the ILP loop: it may transform data and accumulate
///   results `T`, but cannot reject.
/// * `final_stage` accepts or rejects using both the context and the
///   loop's results. It alone receives the observer, because it alone
///   takes protocol actions (accept, hold, ACK) worth tracing.
///
/// Each stage is bracketed with [`Mem::work_counters`] snapshots; the
/// delta is reported to `obs` as a span of `path` in that stage, under
/// [`Layer::Tcp`] for the two control stages and [`Layer::Fused`] for
/// the loop. A rejecting stage still reports its span — the work of
/// parsing a bad header or verifying a failing checksum is real cost —
/// before the reject propagates. With [`obs::NoopObserver`] the
/// snapshots are guarded out by `O::ENABLED` and only the three calls
/// remain.
///
/// # Errors
/// Propagates a [`Reject`] from the initial or final stage.
pub fn three_stage<M: Mem, O: SpanObserver, C, T>(
    m: &mut M,
    obs: &mut O,
    path: PathLabel,
    initial: impl FnOnce(&mut M) -> Result<C, Reject>,
    integrated: impl FnOnce(&mut M, &C) -> T,
    final_stage: impl FnOnce(&mut M, &mut O, &C, &T) -> Result<(), Reject>,
) -> Result<T, Reject> {
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    let ctx = initial(m);
    if O::ENABLED {
        obs.span(path, Stage::Initial, Layer::Tcp, Work::delta(before, m.work_counters()));
    }
    let ctx = ctx?;

    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    let out = integrated(m, &ctx);
    if O::ENABLED {
        obs.span(path, Stage::Integrated, Layer::Fused, Work::delta(before, m.work_counters()));
    }

    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    let verdict = final_stage(m, obs, &ctx, &out);
    if O::ENABLED {
        obs.span(path, Stage::Final, Layer::Tcp, Work::delta(before, m.work_counters()));
    }
    verdict?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};
    use obs::NoopObserver;

    fn with_mem(f: impl FnOnce(&mut NativeMem<'_>)) {
        let mut space = AddressSpace::new();
        let _ = space.alloc("pad", 16, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        f(&mut m);
    }

    #[test]
    fn happy_path_threads_context_and_result() {
        with_mem(|m| {
            let out = three_stage(
                m,
                &mut NoopObserver,
                PathLabel::Ilp,
                |_m| Ok(10u32),
                |_m, ctx| ctx * 2,
                |_m, _obs, ctx, out| {
                    assert_eq!(*ctx, 10);
                    assert_eq!(*out, 20);
                    Ok(())
                },
            );
            assert_eq!(out, Ok(20));
        });
    }

    #[test]
    fn initial_reject_skips_the_loop() {
        with_mem(|m| {
            let mut loop_ran = false;
            let out: Result<(), Reject> = three_stage(
                m,
                &mut NoopObserver,
                PathLabel::Ilp,
                |_m| Err::<u32, _>(Reject::Malformed("short header")),
                |_m, _ctx: &u32| loop_ran = true,
                |_m, _obs, _ctx, _out| Ok(()),
            );
            assert_eq!(out, Err(Reject::Malformed("short header")));
            assert!(!loop_ran, "integrated stage must not run after initial reject");
        });
    }

    #[test]
    fn final_stage_can_reject_after_the_loop() {
        with_mem(|m| {
            let out = three_stage(
                m,
                &mut NoopObserver,
                PathLabel::Ilp,
                |_m| Ok(()),
                |_m, _ctx| 0xABCDu16,
                |_m, _obs, _ctx, &computed| {
                    Err(Reject::BadChecksum { expected: 0x1234, computed })
                },
            );
            assert_eq!(out, Err(Reject::BadChecksum { expected: 0x1234, computed: 0xABCD }));
        });
    }

    #[test]
    fn reject_display_messages() {
        assert!(Reject::Malformed("short").to_string().contains("short"));
        assert!(Reject::BadFormat("bool").to_string().contains("bool"));
        assert!(Reject::BadChecksum { expected: 1, computed: 2 }.to_string().contains("0x0001"));
    }
}
