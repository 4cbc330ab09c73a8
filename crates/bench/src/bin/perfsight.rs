//! `perfsight` — the time-resolved performance report.
//!
//! ```text
//! perfsight [--window-us N] [--wall] [--json PATH]
//! ```
//!
//! Runs the observed timeline campaigns (the same fixtures behind the
//! `timeline` artifact of `reproduce`) and prints, per section:
//!
//! * the windowed table — injections, completions, retries, poisons,
//!   delivered throughput, outstanding depth, and exact p50/p99 latency
//!   per window of simulated time, with the saturation knee marked;
//! * topology heatmaps — messages delivered per node, outgoing-link
//!   occupancy per router, and reads served per home Zbox, as P×Q ASCII
//!   grids;
//! * the epoch-parallel engine profile — per-shard busy event counts,
//!   the critical shard, and the load-imbalance ratio.
//!
//! `--window-us N` re-windows at N µs (the committed artifact width is
//! 2 µs). `--wall` additionally measures per-shard wall-clock busy time —
//! a measurement of the host, printed but never part of the JSON, so sim
//! results are byte-identical either way. `--json PATH` writes the report
//! JSON (identical to `results/timeline.json` only at the default width).

use alphasim::experiments::timeline::{timeline_report_with, WINDOW_PS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let window_ps = match flag_value("--window-us") {
        Some(n) => {
            let us: u64 = n
                .parse()
                .unwrap_or_else(|_| panic!("--window-us wants a number, got {n:?}"));
            assert!(us > 0, "--window-us must be positive");
            us * 1_000_000
        }
        None => WINDOW_PS,
    };
    let wall = args.iter().any(|a| a == "--wall");
    let json_path = flag_value("--json");

    eprintln!(
        "perfsight: observing timeline campaigns ({} µs windows{}) ...",
        window_ps / 1_000_000,
        if wall { ", wall-clock profiling" } else { "" },
    );
    let report = timeline_report_with(window_ps, false, wall);
    print!("{}", report.to_text());

    for s in &report.sections {
        println!("{}: outgoing-link occupancy ps per router (P×Q):", s.id);
        for line in s.observability.link_busy.to_ascii().lines() {
            println!("  {line}");
        }
        println!("{}: reads served per home Zbox (P×Q):", s.id);
        for line in s.observability.zbox_reads.to_ascii().lines() {
            println!("  {line}");
        }
        let peak = s.observability.node_delivered.peak_cell();
        let cols = s.observability.node_delivered.cols();
        println!(
            "{}: hottest node {} at ({}, {}) with {} deliveries\n",
            s.id,
            peak,
            peak % cols,
            peak / cols,
            s.observability.node_delivered.peak(),
        );
    }

    if let Some(path) = &json_path {
        let body = serde_json::to_string_pretty(&report.to_json()).expect("report serialises");
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("perfsight: report JSON -> {path}");
    }
}
