//! The doctor: run the health engine over sick and healthy worlds and
//! render its findings for a human.
//!
//! Four deterministic "incident" worlds — the same trigger shapes the
//! sim's health oracles pin exactly (`sim::health::Trigger`) — each
//! produce their verdicts, printed as a table. Then one incident (a
//! total network blackout mid-transfer) gets the full treatment: the
//! per-connection flight-recorder dump, sparklines of the evidence
//! series, a causal segment-trace latency decomposition (every chunk
//! traced through the blackout), and the complete diagnostic bundle
//! JSON (`target/DOCTOR_bundle.json`) plus a Chrome `trace_event`
//! export of the trace ring *and* the segment span trees
//! (`target/DOCTOR_trace.json`, load it in `chrome://tracing` or
//! Perfetto). A clean control world runs first to show the detectors
//! stay quiet on healthy traffic.
//!
//! ```bash
//! cargo run --release --example doctor
//! ```

use ilp_repro::obs::{sparkline, Counter, Verdict};
use sim::health::{blackout, run_clean, run_trigger, Trigger};

fn print_verdicts(verdicts: &[Verdict]) {
    if verdicts.is_empty() {
        println!("    (no verdicts — healthy)");
        return;
    }
    for v in verdicts {
        let conn = v.conn.map_or("  -".into(), |c| format!("{c:>3}"));
        println!(
            "    {:<17} conn {}  measured {:>8.1} / threshold {:<8.1} {}",
            v.detector.name(),
            conn,
            v.measured,
            v.threshold,
            v.detail
        );
    }
}

fn main() {
    println!("health engine round-up: every detector against its trigger world\n");

    // Control: a healthy seed must produce zero verdicts AND an
    // observed run identical to its unobserved twin.
    let checks = run_clean(0xC0FFEE).expect("clean world must stay clean");
    println!("  clean control world: 0 verdicts, {checks} oracle checks passed\n");

    // The trigger matrix — each world's verdict set is pinned exactly
    // by sim::health, so a detector drifting over- or under-sensitive
    // fails here too. The blackout runs once: its row and the deep dive
    // below read the same world.
    let (world, rec, verdicts) = blackout().unwrap_or_else(|e| panic!("{e}"));
    for t in Trigger::ALL {
        let row = if t == Trigger::Blackout { t.check(verdicts.clone()) } else { run_trigger(t) };
        let row = row.unwrap_or_else(|e| panic!("{e}"));
        println!("  {} world ({} verdicts):", t.name(), row.len());
        print_verdicts(&row);
        println!();
    }

    // Deep dive: the blackout, with full evidence.
    println!("incident report: network blackout mid-transfer");
    let bundle = world.h.diagnostics(&rec);
    print_verdicts(&verdicts);

    println!("\n  conn 0 flight recorder (newest-first tail of {} slots):", 16);
    let flights = rec.flights();
    let ring = flights.get(&0).expect("conn 0 recorded flight snapshots");
    let snaps: Vec<_> = ring.iter().collect();
    for r in snaps.iter().rev().take(10) {
        println!(
            "    tick {:>4}  {:<4}  una={:<6} nxt={:<6} rcv={:<6} cwnd={:<5} rto={}",
            r.tick,
            r.snap.edge.name(),
            r.snap.una,
            r.snap.nxt,
            r.snap.rcv,
            r.snap.cwnd,
            r.snap.rto
        );
    }
    println!("    ({} pushed over the run, {} overwritten)", ring.total_pushed(), ring.overwritten());

    let series = rec.series();
    let wt = series.config().window_ticks;
    println!("\n  evidence series (per-{wt}-tick windows, oldest → newest):");
    for c in [Counter::ChunksDelivered, Counter::Retransmits, Counter::RtoBackoffs] {
        println!("    {:<17} {}", c.name(), sparkline(&series.counter_rates(c)));
    }

    // Critical-path decomposition: where did each delivered chunk's
    // time go? In a blackout world the answer is "recovery", and the
    // component totals say exactly how much.
    let store = rec.segtrace();
    let t = store.totals();
    let pct = |c: u64| if t.total == 0 { 0.0 } else { 100.0 * c as f64 / t.total as f64 };
    println!("\n  critical path, {} traced chunks (enqueue → accept):", t.completed);
    println!("    queueing     {:>6} ticks ({:>5.1}%)", t.queueing, pct(t.queueing));
    println!("    recovery     {:>6} ticks ({:>5.1}%)", t.recovery, pct(t.recovery));
    println!("    propagation  {:>6} ticks ({:>5.1}%)", t.propagation, pct(t.propagation));
    println!("    processing   {:>6} ticks ({:>5.1}%)", t.processing, pct(t.processing));
    println!("    total        {:>6} ticks", t.total);

    println!("\n  health exposition excerpt (verdict gauges):");
    let expo = ilp_repro::obs::prometheus_text_with_health(&rec, &verdicts);
    for line in expo.lines().filter(|l| l.contains("ilp_health_verdicts{")) {
        println!("    {line}");
    }

    // Artifacts land under target/ with the rest of the build output,
    // not in the repo root.
    std::fs::create_dir_all("target").ok();
    let out = std::path::Path::new("target/DOCTOR_bundle.json");
    match ilp_repro::obs::write_report(out, &bundle) {
        Ok(()) => println!("\n  wrote diagnostic bundle: {}", out.display()),
        Err(e) => eprintln!("\n  failed to write {}: {e}", out.display()),
    }
    // One merged timeline: the instant-event ring plus the segment
    // span trees (root chunk spans, wire hops, hold spans).
    let mut events = ilp_repro::obs::chrome_trace_events(rec.trace(), "blackout", 0);
    events.extend(store.chrome_spans(0));
    let trace = ilp_repro::obs::chrome_trace_doc(events);
    let tout = std::path::Path::new("target/DOCTOR_trace.json");
    match ilp_repro::obs::write_report(tout, &trace) {
        Ok(()) => println!("  wrote chrome://tracing timeline: {}", tout.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", tout.display()),
    }

    println!("\n  bundle excerpt:");
    for line in bundle.render_pretty().lines().take(24) {
        println!("    {line}");
    }
    println!("    ...");
}
