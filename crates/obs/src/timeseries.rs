//! Windowed time-series telemetry.
//!
//! The run-level aggregates in [`crate::recorder::Recorder`] answer
//! *how much* — total chunks, total retransmits, the latency histogram
//! of the whole run — but not *when*: a retransmit storm in the middle
//! of a run, slow-start warm-up, or per-shard fairness drift all vanish
//! into one number. A [`SeriesRecorder`] buckets every counter delta
//! and every histogram sample into fixed-width virtual-clock windows,
//! so the report can show a trajectory instead of a total.
//!
//! ## Bounded memory: a ring of recent windows plus 2× coarsening
//!
//! Keeping every window would make long runs arbitrarily expensive, so
//! the recorder is tiered. Level 0 holds the newest
//! [`SeriesConfig::ring`] windows at base width
//! [`SeriesConfig::window_ticks`]; when level 0 overflows, its oldest
//! window is folded into a level-1 window of twice the width (aligned
//! to even base indices), level 1 overflows into level 2, and so on.
//! A run of `T` windows therefore costs `O(ring · log T)` memory:
//! recent history stays sharp, old history fades to coarser resolution
//! instead of being dropped. Coarsening loses no data — counters add
//! and histograms merge exactly — only time resolution.
//!
//! ## Window-aligned merge
//!
//! Two recorders with the same [`SeriesConfig`] merge window-by-window:
//! windows covering the same aligned tick range add together, and a
//! finer window folds into the coarser window containing its range.
//! Because the coarsening schedule is a pure function of how many base
//! windows a recorder has sealed, shard recorders that advanced their
//! virtual clocks in lock-step coarsen identically and merge exactly;
//! shards that ran different lengths fold the shorter series into the
//! longer one's structure. Merging into a fresh recorder reproduces the
//! original byte-for-byte — the property the sharded server's S = 1
//! equivalence test pins down.

use std::collections::VecDeque;

use crate::hist::Histogram;
use crate::json::Json;
use crate::span::{Counter, Metric};
use crate::tally::Tally;

/// Shape of a time series: base window width and per-level retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Virtual ticks per base window.
    pub window_ticks: u64,
    /// Windows retained per coarsening level before the oldest is
    /// folded one level up.
    pub ring: usize,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig { window_ticks: 64, ring: 32 }
    }
}

/// One window of telemetry: counter deltas and histogram samples that
/// landed in `[start_tick, start_tick + ticks)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// First base-window index covered (aligned to `span`).
    start: u64,
    /// Number of base windows covered (a power of two).
    span: u64,
    tally: Tally,
}

impl Window {
    fn empty(start: u64, span: u64) -> Self {
        Window { start, span, tally: Tally::default() }
    }

    /// First virtual tick covered.
    pub fn start_tick(&self, window_ticks: u64) -> u64 {
        self.start * window_ticks
    }

    /// Width in virtual ticks.
    pub fn ticks(&self, window_ticks: u64) -> u64 {
        self.span * window_ticks
    }

    /// Counter delta recorded in this window.
    pub fn counter(&self, c: Counter) -> u64 {
        self.tally.counter(c)
    }

    /// The histogram of samples recorded in this window.
    pub fn hist(&self, m: Metric) -> &Histogram {
        self.tally.hist(m)
    }

    /// The window as a JSON object: `start_tick`, `ticks`, every
    /// counter flattened by name, and a `metrics` object holding the
    /// non-empty window histograms (see [`Histogram::to_json`]).
    pub fn to_json(&self, window_ticks: u64) -> Json {
        let mut j = Json::obj()
            .set("start_tick", Json::U64(self.start_tick(window_ticks)))
            .set("ticks", Json::U64(self.ticks(window_ticks)));
        for &c in &Counter::ALL {
            j = j.set(c.name(), Json::U64(self.counter(c)));
        }
        let mut metrics = Json::obj();
        for &m in &Metric::ALL {
            let h = self.hist(m);
            if h.count() > 0 {
                metrics = metrics.set(m.name(), h.to_json());
            }
        }
        j.set("metrics", metrics)
    }
}

/// Buckets counter deltas and histogram samples into virtual-clock
/// windows, with tiered coarsening (see the module docs).
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    cfg: SeriesConfig,
    /// `levels[k]` holds windows of `2^k` base windows, oldest at the
    /// front; every window in level `k+1` is older than every window
    /// in level `k`.
    levels: Vec<VecDeque<Window>>,
    /// The open window the current tick falls into.
    cur: Window,
    /// Base windows sealed so far (drives the coarsening schedule).
    sealed: u64,
    /// Latest virtual tick observed.
    last_tick: u64,
}

impl SeriesRecorder {
    /// A fresh recorder with the given window shape.
    pub fn new(cfg: SeriesConfig) -> Self {
        assert!(cfg.window_ticks >= 1, "windows must be at least one tick wide");
        assert!(cfg.ring >= 2, "need at least two windows per level to coarsen");
        SeriesRecorder { cfg, levels: Vec::new(), cur: Window::empty(0, 1), sealed: 0, last_tick: 0 }
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> SeriesConfig {
        self.cfg
    }

    /// Latest virtual tick observed.
    pub fn last_tick(&self) -> u64 {
        self.last_tick
    }

    /// Base windows sealed so far (the open window is not counted).
    pub fn sealed(&self) -> u64 {
        self.sealed
    }

    /// Nothing recorded and no clock observed yet.
    fn is_unused(&self) -> bool {
        self.sealed == 0 && self.last_tick == 0 && self.cur.start == 0 && self.cur.tally.is_blank()
    }

    /// The virtual clock advanced. Crossing a window boundary seals the
    /// open window into the tiered store; the clock never moves
    /// backwards within one recorder.
    pub fn tick(&mut self, now: u64) {
        self.last_tick = self.last_tick.max(now);
        let idx = now / self.cfg.window_ticks;
        if idx > self.cur.start {
            let sealed = std::mem::replace(&mut self.cur, Window::empty(idx, 1));
            self.seal(sealed);
        }
    }

    /// Add `n` to a counter in the open window.
    pub fn count(&mut self, c: Counter, n: u64) {
        self.cur.tally.count(c, n);
    }

    /// Record one histogram sample in the open window.
    pub fn sample(&mut self, m: Metric, v: u64) {
        self.cur.tally.sample(m, v);
    }

    /// Seal one base window and cascade coarsening.
    fn seal(&mut self, w: Window) {
        self.sealed += 1;
        if self.levels.is_empty() {
            self.levels.push(VecDeque::new());
        }
        self.levels[0].push_back(w);
        let mut k = 0;
        while self.levels[k].len() > self.cfg.ring {
            let old = self.levels[k].pop_front().expect("len > ring >= 2");
            if self.levels.len() == k + 1 {
                self.levels.push(VecDeque::new());
            }
            let parent_span = old.span * 2;
            let parent_start = old.start - old.start % parent_span;
            let up = &mut self.levels[k + 1];
            match up.back_mut() {
                // The older sibling already opened this parent window.
                Some(p) if p.start == parent_start => p.tally.absorb(&old.tally),
                _ => {
                    up.push_back(Window { start: parent_start, span: parent_span, tally: old.tally });
                }
            }
            k += 1;
        }
    }

    /// Retained windows, oldest first, ending with the open window.
    /// Always yields at least one window (the open one).
    pub fn iter(&self) -> impl Iterator<Item = &Window> + '_ {
        self.levels
            .iter()
            .rev()
            .flat_map(|lvl| lvl.iter())
            .chain(std::iter::once(&self.cur))
    }

    /// Number of retained windows (including the open one).
    pub fn len(&self) -> usize {
        1 + self.levels.iter().map(|l| l.len()).sum::<usize>()
    }

    /// A series always retains at least its open window.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fold another series into this one, window-aligned.
    ///
    /// Requires identical [`SeriesConfig`]s. The less-evolved series
    /// (fewer sealed base windows) is folded into the structure of the
    /// more-evolved one: same-range windows add, finer windows land in
    /// the coarser window containing their range. Merging into a fresh
    /// recorder clones `other` exactly.
    ///
    /// # Panics
    /// Panics when the configs differ — summing windows of different
    /// widths would silently misalign every series.
    pub fn merge_from(&mut self, other: &SeriesRecorder) {
        assert_eq!(
            self.cfg, other.cfg,
            "series merge requires identical window configs"
        );
        if other.is_unused() {
            return;
        }
        if self.is_unused() {
            *self = other.clone();
            return;
        }
        if other.sealed > self.sealed {
            let mut merged = other.clone();
            merged.fold_in(self);
            *self = merged;
        } else {
            self.fold_in(other);
        }
    }

    /// Fold a series with `sealed <= self.sealed` into our structure.
    fn fold_in(&mut self, other: &SeriesRecorder) {
        for lvl in other.levels.iter().rev() {
            for w in lvl {
                self.add_window(w);
            }
        }
        if other.cur.start == self.cur.start {
            self.cur.tally.absorb(&other.cur.tally);
        } else if !other.cur.tally.is_blank() {
            self.add_window(&other.cur);
        }
        self.last_tick = self.last_tick.max(other.last_tick);
    }

    /// Land a foreign window in the retained window covering its range.
    fn add_window(&mut self, w: &Window) {
        if w.start == self.cur.start && w.span == 1 {
            self.cur.tally.absorb(&w.tally);
            return;
        }
        // Finest level first: prefer adding at matching resolution.
        for lvl in self.levels.iter_mut() {
            for mine in lvl.iter_mut() {
                if mine.start <= w.start && w.start + w.span <= mine.start + mine.span {
                    mine.tally.absorb(&w.tally);
                    return;
                }
            }
        }
        // No covering window: the series grew with clock gaps or from a
        // different history. Keep the data — insert at the level whose
        // span matches, in start order.
        let k = w.span.trailing_zeros() as usize;
        while self.levels.len() <= k {
            self.levels.push(VecDeque::new());
        }
        let lvl = &mut self.levels[k];
        let pos = lvl.partition_point(|m| m.start < w.start);
        lvl.insert(pos, w.clone());
    }

    /// Per-window values of one counter, oldest first.
    pub fn counter_values(&self, c: Counter) -> Vec<u64> {
        self.iter().map(|w| w.counter(c)).collect()
    }

    /// Per-window rate of one counter, normalised to *per base window*
    /// so coarsened history plots fairly next to recent windows.
    pub fn counter_rates(&self, c: Counter) -> Vec<f64> {
        self.iter().map(|w| w.counter(c) as f64 / w.span as f64).collect()
    }

    /// Per-window mean of one metric's samples, oldest first (0.0 for
    /// windows with no samples).
    pub fn metric_means(&self, m: Metric) -> Vec<f64> {
        self.iter().map(|w| w.hist(m).mean()).collect()
    }

    /// The series as JSON: config, totals, and the retained windows
    /// oldest-first (see [`Window::to_json`]).
    pub fn to_json(&self) -> Json {
        let windows: Vec<Json> = self.iter().map(|w| w.to_json(self.cfg.window_ticks)).collect();
        Json::obj()
            .set("window_ticks", Json::U64(self.cfg.window_ticks))
            .set("ring", Json::U64(self.cfg.ring as u64))
            .set("sealed_windows", Json::U64(self.sealed))
            .set("last_tick", Json::U64(self.last_tick))
            .set("windows", Json::Arr(windows))
    }
}

/// Render values as a one-line unicode sparkline (`▁▂▃▄▅▆▇█`), scaled
/// to the maximum. An empty input renders as the empty string; zero,
/// negative and non-finite values render as the lowest bar; any
/// *positive* value renders at least one step above it, so a trickle
/// next to a spike stays visibly nonzero instead of rounding down into
/// the zero glyph. A single positive sample is its own maximum and
/// renders as the full bar.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values
        .iter()
        .cloned()
        .filter(|v| v.is_finite())
        .fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || !v.is_finite() || v <= 0.0 {
                GLYPHS[0]
            } else {
                let idx = (v / max * 7.0).round() as usize;
                GLYPHS[idx.clamp(1, 7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_ticks: u64, ring: usize) -> SeriesConfig {
        SeriesConfig { window_ticks, ring }
    }

    /// Drive a recorder through `ticks` rounds, one ChunkSent per tick
    /// and one latency sample equal to the tick.
    fn drive(sr: &mut SeriesRecorder, ticks: std::ops::Range<u64>) {
        for t in ticks {
            sr.tick(t);
            sr.count(Counter::ChunksSent, 1);
            sr.sample(Metric::ChunkLatencyTicks, t);
        }
    }

    #[test]
    fn windows_bucket_by_virtual_tick() {
        let mut sr = SeriesRecorder::new(cfg(10, 4));
        drive(&mut sr, 0..25);
        // Ticks 0..9 -> window 0, 10..19 -> window 1, 20..24 open.
        let wins: Vec<&Window> = sr.iter().collect();
        assert_eq!(wins.len(), 3);
        assert_eq!(sr.sealed(), 2);
        assert_eq!(wins[0].counter(Counter::ChunksSent), 10);
        assert_eq!(wins[1].counter(Counter::ChunksSent), 10);
        assert_eq!(wins[2].counter(Counter::ChunksSent), 5);
        assert_eq!(wins[0].start_tick(10), 0);
        assert_eq!(wins[1].start_tick(10), 10);
        assert_eq!(wins[2].start_tick(10), 20);
        assert_eq!(wins[0].hist(Metric::ChunkLatencyTicks).min(), Some(0));
        assert_eq!(wins[0].hist(Metric::ChunkLatencyTicks).max(), Some(9));
        assert_eq!(sr.last_tick(), 24);
    }

    #[test]
    fn coarsening_keeps_memory_logarithmic_and_loses_no_data() {
        let mut sr = SeriesRecorder::new(cfg(1, 4));
        let total = 10_000u64;
        drive(&mut sr, 0..total);
        // Every count survives coarsening.
        let counted: u64 = sr.iter().map(|w| w.counter(Counter::ChunksSent)).sum();
        assert_eq!(counted, total);
        let samples: u64 =
            sr.iter().map(|w| w.hist(Metric::ChunkLatencyTicks).count()).sum();
        assert_eq!(samples, total);
        // Memory stays O(ring * log T), far below T windows.
        assert!(sr.len() <= 4 * 16, "{} windows retained for {total} sealed", sr.len());
        // Windows come out oldest-first with aligned power-of-two spans.
        // (A parent's declared range may transiently cover base windows
        // still retained one level down — until its odd child is evicted
        // — but the data itself is never double-counted, which is what
        // the totals above pin down.)
        let mut last_start = 0u64;
        for w in sr.iter() {
            assert!(w.span.is_power_of_two());
            assert_eq!(w.start % w.span, 0, "window start aligned to its span");
            assert!(w.start >= last_start, "windows ordered oldest-first");
            last_start = w.start;
        }
        // Oldest window is coarse, newest are base width.
        let wins: Vec<&Window> = sr.iter().collect();
        assert!(wins[0].span > 1, "old history coarsened");
        assert_eq!(wins[wins.len() - 1].span, 1, "open window is base width");
    }

    #[test]
    fn merge_into_fresh_recorder_is_identity() {
        let mut sr = SeriesRecorder::new(cfg(4, 4));
        drive(&mut sr, 0..137);
        let mut fresh = SeriesRecorder::new(cfg(4, 4));
        fresh.merge_from(&sr);
        assert_eq!(fresh.to_json().render(), sr.to_json().render());
        // And merging nothing into a live recorder changes nothing.
        let before = sr.to_json().render();
        let blank = SeriesRecorder::new(cfg(4, 4));
        sr.merge_from(&blank);
        assert_eq!(sr.to_json().render(), before);
    }

    #[test]
    fn lockstep_series_merge_window_by_window() {
        let mut a = SeriesRecorder::new(cfg(8, 4));
        let mut b = SeriesRecorder::new(cfg(8, 4));
        drive(&mut a, 0..300);
        drive(&mut b, 0..300);
        let mut m = SeriesRecorder::new(cfg(8, 4));
        m.merge_from(&a);
        m.merge_from(&b);
        // Identical clocks => identical structure, every window doubled.
        assert_eq!(m.len(), a.len());
        for (mw, aw) in m.iter().zip(a.iter()) {
            assert_eq!(mw.counter(Counter::ChunksSent), 2 * aw.counter(Counter::ChunksSent));
            assert_eq!(
                mw.hist(Metric::ChunkLatencyTicks).count(),
                2 * aw.hist(Metric::ChunkLatencyTicks).count()
            );
            assert_eq!(mw.start, aw.start);
            assert_eq!(mw.span, aw.span);
        }
    }

    #[test]
    fn unequal_length_series_fold_into_the_longer_structure() {
        let mut long = SeriesRecorder::new(cfg(2, 4));
        let mut short = SeriesRecorder::new(cfg(2, 4));
        drive(&mut long, 0..4000);
        drive(&mut short, 0..700);
        let total = 4000 + 700;
        // Both merge orders preserve every count and adopt the longer
        // structure.
        let mut ab = long.clone();
        ab.merge_from(&short);
        let mut ba = short.clone();
        ba.merge_from(&long);
        for m in [&ab, &ba] {
            let counted: u64 = m.iter().map(|w| w.counter(Counter::ChunksSent)).sum();
            assert_eq!(counted, total);
            assert_eq!(m.len(), long.len(), "merged series keeps the evolved structure");
            assert_eq!(m.last_tick(), 3999);
        }
        assert_eq!(ab.to_json().render(), ba.to_json().render(), "merge is commutative");
    }

    #[test]
    #[should_panic(expected = "identical window configs")]
    fn mismatched_configs_refuse_to_merge() {
        let mut a = SeriesRecorder::new(cfg(8, 4));
        let b = SeriesRecorder::new(cfg(16, 4));
        a.merge_from(&b);
    }

    #[test]
    fn json_shape_is_schema_stable() {
        let mut sr = SeriesRecorder::new(cfg(10, 4));
        drive(&mut sr, 0..15);
        let j = sr.to_json();
        assert_eq!(j.get("window_ticks"), Some(&Json::U64(10)));
        let wins = j.get("windows").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(wins.len(), 2);
        // Every counter is present by name even when zero.
        for &c in &Counter::ALL {
            assert!(wins[0].get(c.name()).is_some(), "{} missing", c.name());
        }
        assert_eq!(wins[0].get("chunks_sent"), Some(&Json::U64(10)));
        assert_eq!(wins[0].get("retransmits"), Some(&Json::U64(0)));
        // Non-empty metrics carry their histogram's JSON.
        let lat = wins[0]
            .get("metrics")
            .and_then(|m| m.get("chunk_latency_ticks"))
            .expect("window histogram");
        assert_eq!(lat.get("count"), Some(&Json::U64(10)));
        assert_eq!(lat.get("min"), Some(&Json::U64(0)));
        assert_eq!(lat.get("max"), Some(&Json::U64(9)));
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert!(s.starts_with('▂'), "small nonzero values rise above the zero glyph: {s}");
    }

    #[test]
    fn sparkline_edge_cases_render_sanely() {
        // A single sample is its own maximum: full bar.
        assert_eq!(sparkline(&[5.0]), "█");
        // A single zero (or negative) sample is the floor, not a panic.
        assert_eq!(sparkline(&[0.0]), "▁");
        assert_eq!(sparkline(&[-3.0]), "▁");
        // A trickle next to a spike must stay distinguishable from
        // zero: 1/1000 of max used to round down into the zero glyph.
        assert_eq!(sparkline(&[0.001, 1000.0, 0.0]), "▂█▁");
        // Non-finite values neither panic nor poison the scale.
        assert_eq!(sparkline(&[f64::NAN, 2.0]), "▁█");
        assert_eq!(sparkline(&[f64::INFINITY, 2.0]), "▁█");
        assert_eq!(sparkline(&[f64::NAN, f64::NAN]), "▁▁");
    }
}
