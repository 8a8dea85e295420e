//! The one counters-plus-histograms aggregate: a value per [`Counter`]
//! and a histogram per [`Metric`]. A recorder's run totals and the body
//! of every time-series window are this type, and folding two of them
//! ([`Tally::absorb`]) is how a time series coarsens its old windows.

use crate::hist::Histogram;
use crate::span::{Counter, Metric};

/// Counter values and metric histograms, indexed by label.
#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    counters: [u64; Counter::ALL.len()],
    hists: [Histogram; Metric::ALL.len()],
}

impl Default for Tally {
    fn default() -> Self {
        Tally { counters: [0; Counter::ALL.len()], hists: std::array::from_fn(|_| Histogram::new()) }
    }
}

impl Tally {
    /// Add `n` to a counter.
    pub fn count(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    /// Record one histogram sample.
    pub fn sample(&mut self, m: Metric, v: u64) {
        self.hists[m.index()].record(v);
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// The histogram behind a metric.
    pub fn hist(&self, m: Metric) -> &Histogram {
        &self.hists[m.index()]
    }

    /// Fold another tally in: counters add, histograms merge bucket-wise
    /// (exact count/sum/min/max).
    pub fn absorb(&mut self, other: &Tally) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
    }
}
