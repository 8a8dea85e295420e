//! Greedy shrinking: find a smaller spec that still fails.
//!
//! No shrinking framework — each spec space is small and known, so its
//! type proposes a fixed candidate ladder ([`Spec::simpler`]: fewer
//! connections or chunks, smaller files, simpler kinds and schedules,
//! individual fault knobs zeroed, magnitudes halved) and [`shrink`]
//! greedily accepts any candidate that still fails, restarting the
//! ladder from the new best. Each accepted step strictly reduces a size
//! measure, and the total number of runs is budget-bounded, so
//! shrinking always terminates. The result replays deterministically: a
//! spec *is* its field values plus its seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::runner::{Mutant, Spec};
use utcp::FaultProbs;

/// Max executions a shrink may spend.
const BUDGET: usize = 64;

/// Run a world, converting panics (stalls, out-of-bounds extents,
/// failed assertions) into `Err` with the panic message.
pub fn caught<T>(run: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        Err(if let Some(s) = payload.downcast_ref::<&str>() {
            format!("panic: {s}")
        } else if let Some(s) = payload.downcast_ref::<String>() {
            format!("panic: {s}")
        } else {
            "panic: <non-string payload>".to_string()
        })
    })
}

/// The calmer fault mixes of a ladder: each armed knob zeroed on its
/// own (removing a fault kind entirely is the bigger simplification),
/// then every magnitude halved.
pub(crate) fn calmer(p: FaultProbs) -> Vec<FaultProbs> {
    let mut out = vec![
        FaultProbs { drop: 0, ..p },
        FaultProbs { dup: 0, ..p },
        FaultProbs { reorder: 0, ..p },
        FaultProbs { corrupt: 0, ..p },
        FaultProbs { delay: 0, ..p },
        FaultProbs {
            drop: p.drop / 2,
            dup: p.dup / 2,
            reorder: p.reorder / 2,
            corrupt: p.corrupt / 2,
            delay: p.delay / 2,
        },
    ];
    out.retain(|q| *q != p);
    out
}

/// Shrink a spec that fails with `mutant` armed: greedily accept the
/// first candidate of `best.simpler()` that still fails (panics count),
/// restart the ladder from it, stop when none fails or the budget is
/// spent. Returns the smallest still-failing spec found and the failure
/// message it produced. (If the input unexpectedly passes on re-run —
/// it cannot, runs are deterministic — it is returned unchanged.)
pub fn shrink<S: Spec>(spec: &S, mutant: Mutant) -> (S, String) {
    let mut best = *spec;
    let mut message = match caught(|| best.run(mutant)) {
        Err(e) => e,
        Ok(_) => return (best, "original spec passed on re-run".to_string()),
    };
    let mut budget = BUDGET;
    loop {
        let mut improved = false;
        for cand in best.simpler() {
            if budget == 0 {
                return (best, message);
            }
            budget -= 1;
            if let Err(e) = caught(|| cand.run(mutant)) {
                best = cand;
                message = e;
                improved = true;
                break; // restart the ladder from the new best
            }
        }
        if !improved {
            return (best, message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioKind};

    #[test]
    fn ladder_candidates_are_strictly_simpler() {
        let sc = Scenario::from_seed(1234);
        for cand in sc.simpler() {
            let simpler = cand.n_conns < sc.n_conns
                || cand.file_len < sc.file_len
                || (sc.deficit && !cand.deficit)
                || (sc.kind == ScenarioKind::Sharded && cand.kind == ScenarioKind::Transfer)
                || probs_sum(&cand) < probs_sum(&sc);
            assert!(simpler, "candidate {cand:?} does not simplify {sc:?}");
        }
    }

    fn probs_sum(sc: &Scenario) -> u32 {
        let p = sc.probs;
        u32::from(p.drop)
            + u32::from(p.dup)
            + u32::from(p.reorder)
            + u32::from(p.corrupt)
            + u32::from(p.delay)
    }
}
