//! In-memory span recorder for the traced run.
//!
//! The benchmark brackets every call it makes into a layer with a span
//! (name, start, end, parent, repetition id). One thread drives the
//! whole world, so the recorder is a thread-local with a stack of open
//! spans; a span's parent is whatever was open when it started. Self
//! time — a span's duration minus the part its children cover — is
//! accumulated at exit, so the per-name totals are exact even when the
//! raw span list is capped (a `fanin` repetition makes millions of
//! kernel-part polls; the file keeps the first [`RAW_CAP`] spans and
//! counts the rest).
//!
//! With the recorder disabled [`enter`] is one thread-local load and a
//! branch; the untraced run never enables it.

use std::cell::RefCell;
use std::time::Instant;

/// Raw spans kept per process; later ones only feed the aggregates.
pub const RAW_CAP: usize = 100_000;

/// Where a span was taken. One entry per call site the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One repetition of one path (the root).
    Rep,
    /// `ScaleHarness::step`.
    Step,
    /// `ScaleHarness::drain_to_closed`.
    Drain,
    /// Output compare + `reopen_wave` (outside the timed region).
    Verify,
    /// `server::pipeline::send_chunk_*`.
    SendChunk,
    /// `server::pipeline::recv_chunk_*`.
    RecvChunk,
    /// Sender-side `Connection::poll_input` (ACK consumption).
    AckPoll,
    /// `Connection::tick`.
    Tick,
    /// `KernelPart::send` through `Timed<K>`.
    KernelSend,
    /// `KernelPart::recv_into` through `Timed<K>`.
    KernelRecv,
}

impl Name {
    /// Every name, in discriminant order.
    pub const ALL: [Name; 10] = [
        Name::Rep,
        Name::Step,
        Name::Drain,
        Name::Verify,
        Name::SendChunk,
        Name::RecvChunk,
        Name::AckPoll,
        Name::Tick,
        Name::KernelSend,
        Name::KernelRecv,
    ];

    /// The name as written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Rep => "driver.rep",
            Name::Step => "server.step",
            Name::Drain => "server.drain_to_closed",
            Name::Verify => "driver.verify",
            Name::SendChunk => "server.send_chunk",
            Name::RecvChunk => "server.recv_chunk",
            Name::AckPoll => "utcp.poll_input_ack",
            Name::Tick => "utcp.tick",
            Name::KernelSend => "kernelpart.send",
            Name::KernelRecv => "kernelpart.recv_into",
        }
    }
}

/// Per-name totals over every span closed since the last [`Recorder::take_totals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus children), ns.
    pub self_ns: u64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    /// Identifier, in start order.
    pub id: u32,
    /// Identifier of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Call site.
    pub name: Name,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u32,
    name: Name,
    start_ns: u64,
    children_ns: u64,
}

/// Span stack, per-name totals, and the capped raw list.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    rep: u32,
    next_id: u32,
    stack: Vec<Open>,
    totals: [Totals; Name::ALL.len()],
    /// Every `Name::Step` duration since the last take (the report
    /// needs their percentiles, which totals cannot give).
    step_ns: Vec<u64>,
    raw: Vec<RawSpan>,
    dropped: u64,
}

impl Recorder {
    /// Open a span at time `now_ns`.
    pub fn enter_at(&mut self, name: Name, now_ns: u64) {
        let id = self.next_id;
        self.next_id = self.next_id.saturating_add(1);
        self.stack.push(Open {
            id,
            name,
            start_ns: now_ns,
            children_ns: 0,
        });
    }

    /// Close the innermost open span at time `now_ns`.
    pub fn exit_at(&mut self, now_ns: u64) {
        let Some(open) = self.stack.pop() else { return };
        let dur = now_ns.saturating_sub(open.start_ns);
        let t = &mut self.totals[open.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.children_ns);
        if open.name == Name::Step {
            self.step_ns.push(dur);
        }
        let parent = self.stack.last_mut().map(|p| {
            p.children_ns += dur;
            p.id
        });
        // Ids are handed out at entry, so a kept span's parent was kept too.
        if (open.id as usize) < RAW_CAP {
            self.raw.push(RawSpan {
                id: open.id,
                parent,
                name: open.name,
                rep: self.rep,
                start_ns: open.start_ns,
                end_ns: now_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Totals since the last call, reset afterwards; also the `Step`
    /// durations collected over the same period.
    pub fn take_totals(&mut self) -> ([Totals; Name::ALL.len()], Vec<u64>) {
        (
            std::mem::take(&mut self.totals),
            std::mem::take(&mut self.step_ns),
        )
    }

    /// The raw spans kept so far and how many were only aggregated.
    pub fn raw(&self) -> (&[RawSpan], u64) {
        (&self.raw, self.dropped)
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
    static EPOCH: Instant = Instant::now();
}

fn now_ns() -> u64 {
    EPOCH.with(|e| e.elapsed().as_nanos() as u64)
}

/// Closes its span when dropped.
#[derive(Debug)]
#[must_use = "the span ends when the guard is dropped"]
pub struct Guard(bool);

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 {
            let now = now_ns();
            REC.with(|r| r.borrow_mut().exit_at(now));
        }
    }
}

/// Open a span on this thread's recorder (a no-op while disabled).
#[inline]
pub fn enter(name: Name) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard(false);
        }
        r.enter_at(name, now_ns());
        Guard(true)
    })
}

/// Switch recording on or off and label what follows with `rep`.
pub fn set_enabled(on: bool, rep: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = on;
        r.rep = rep;
    });
}

/// Run `f` on this thread's recorder.
pub fn with<T>(f: impl FnOnce(&mut Recorder) -> T) -> T {
    REC.with(|r| f(&mut r.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(r: &Recorder, n: Name) -> Totals {
        r.totals[n as usize]
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut r = Recorder::default();
        // rep [0, 1000]
        //   step [100, 600]
        //     kernel.send [150, 250]
        //     kernel.recv [300, 450]
        //   step [700, 900]
        r.enter_at(Name::Rep, 0);
        r.enter_at(Name::Step, 100);
        r.enter_at(Name::KernelSend, 150);
        r.exit_at(250);
        r.enter_at(Name::KernelRecv, 300);
        r.exit_at(450);
        r.exit_at(600);
        r.enter_at(Name::Step, 700);
        r.exit_at(900);
        r.exit_at(1000);

        assert_eq!(
            totals(&r, Name::KernelSend),
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 100
            }
        );
        assert_eq!(
            totals(&r, Name::KernelRecv),
            Totals {
                count: 1,
                total_ns: 150,
                self_ns: 150
            }
        );
        // Both steps: 500 + 200 total; the first loses its two children.
        assert_eq!(
            totals(&r, Name::Step),
            Totals {
                count: 2,
                total_ns: 700,
                self_ns: 450
            }
        );
        // The root loses only its direct children (the steps), not the
        // grandchildren a second time.
        assert_eq!(
            totals(&r, Name::Rep),
            Totals {
                count: 1,
                total_ns: 1000,
                self_ns: 300
            }
        );
        assert_eq!(r.step_ns, vec![500, 200]);
    }

    #[test]
    fn raw_spans_carry_parent_and_repetition() {
        let mut r = Recorder {
            rep: 7,
            ..Recorder::default()
        };
        r.enter_at(Name::Rep, 10);
        r.enter_at(Name::SendChunk, 20);
        r.enter_at(Name::KernelSend, 30);
        r.exit_at(40);
        r.exit_at(50);
        r.exit_at(60);
        let (raw, dropped) = r.raw();
        assert_eq!(dropped, 0);
        // Closed innermost first.
        assert_eq!(
            raw[0],
            RawSpan {
                id: 2,
                parent: Some(1),
                name: Name::KernelSend,
                rep: 7,
                start_ns: 30,
                end_ns: 40
            }
        );
        assert_eq!(raw[1].parent, Some(0));
        assert_eq!(
            raw[2],
            RawSpan {
                id: 0,
                parent: None,
                name: Name::Rep,
                rep: 7,
                start_ns: 10,
                end_ns: 60
            }
        );
    }

    #[test]
    fn take_totals_resets_and_unbalanced_exit_is_ignored() {
        let mut r = Recorder::default();
        r.exit_at(5); // nothing open
        r.enter_at(Name::Tick, 0);
        r.exit_at(9);
        let (t, steps) = r.take_totals();
        assert_eq!(t[Name::Tick as usize].total_ns, 9);
        assert!(steps.is_empty());
        assert_eq!(r.take_totals().0[Name::Tick as usize], Totals::default());
    }

    #[test]
    fn disabled_recorder_records_nothing_and_enabled_one_nests() {
        set_enabled(false, 0);
        drop(enter(Name::Rep));
        assert_eq!(with(|r| r.take_totals().0[Name::Rep as usize].count), 0);
        set_enabled(true, 3);
        {
            let _root = enter(Name::Rep);
            let _child = enter(Name::Step);
        }
        set_enabled(false, 0);
        let (t, steps) = with(|r| r.take_totals());
        assert_eq!(t[Name::Rep as usize].count, 1);
        assert_eq!(t[Name::Step as usize].count, 1);
        assert!(t[Name::Rep as usize].total_ns >= t[Name::Step as usize].total_ns);
        assert_eq!(steps.len(), 1);
    }
}
