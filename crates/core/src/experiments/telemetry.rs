//! The telemetry artifact: deterministic component counters and the
//! per-hop latency attribution behind the paper's load-to-use numbers.
//!
//! The paper explains the GS1280's latency advantage by decomposing
//! load-to-use into pipeline stages (router hops, wire flight, Zbox
//! queueing, open- vs closed-page DRAM). This experiment reproduces that
//! decomposition from inside the simulator: a healthy bisection campaign
//! runs instrumented ([`FaultCampaign::run_instrumented`]) at several
//! outstanding-request windows, and every picosecond of every read's
//! latency is charged to the stage that consumed it. The per-window
//! registries and breakdown tables are merged in input order, so the
//! report is byte-identical at any worker count. Beside the machine
//! counters, the registry records the engine's deepest event queue
//! (`engine.peak_queue_depth`, the maximum over the windows).
//!
//! [`FaultCampaign::run_instrumented`]: alphasim_system::FaultCampaign::run_instrumented

use alphasim_kernel::par::parallel_map;
use alphasim_system::{gs1280_fault_campaign, CampaignPattern, FaultCampaignConfig, Gs1280};
use alphasim_telemetry::{BreakdownTable, Registry, TraceSink};
use serde_json::Value;
use std::collections::BTreeMap;

/// The outstanding-request window the Chrome trace records (the other
/// windows contribute counters only, keeping the trace file one campaign
/// wide).
pub const TRACED_WINDOW: usize = 4;

/// The windows the telemetry sweep visits: the serial case, the traced
/// default, and a saturating window.
pub fn telemetry_windows() -> Vec<usize> {
    vec![1, TRACED_WINDOW, 8]
}

/// The merged telemetry of the sweep: counters, the latency breakdown,
/// and (when requested) the Chrome trace of the [`TRACED_WINDOW`] run.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Component counters, gauges, and histograms merged across windows.
    pub registry: Registry,
    /// Per-hop latency attribution merged across windows.
    pub breakdown: BreakdownTable,
    /// Chrome-trace sink of the traced window, when tracing was on.
    pub trace: Option<TraceSink>,
}

impl TelemetryReport {
    /// The JSON artifact (`results/telemetry.json`). The trace is not
    /// embedded — it is its own file, written by `reproduce --trace`.
    pub fn to_json(&self) -> Value {
        let mut root = BTreeMap::new();
        root.insert("id".to_string(), Value::String("telemetry".to_string()));
        root.insert("breakdown".to_string(), self.breakdown.to_json());
        root.insert("registry".to_string(), self.registry.to_json());
        Value::Object(root)
    }

    /// Plain-text rendering: the breakdown table plus the raw registry.
    pub fn to_text(&self) -> String {
        let mut out =
            String::from("telemetry — component counters and per-hop latency attribution\n\n");
        out.push_str(&self.breakdown.to_text());
        out.push_str("\nregistry:\n");
        out.push_str(&serde_json::to_string_pretty(&self.registry.to_json()).unwrap_or_default());
        out.push('\n');
        out
    }
}

/// Run the telemetry sweep on a healthy `cpus`-CPU GS1280: one
/// instrumented bisection campaign per window in [`telemetry_windows`],
/// fanned out via [`parallel_map`] and merged in input order, with each
/// campaign's deepest event queue recorded as `engine.peak_queue_depth`.
pub fn telemetry_report(cpus: usize, requests_per_cpu: usize, trace: bool) -> TelemetryReport {
    let runs = parallel_map(telemetry_windows(), move |outstanding| {
        let machine = Gs1280::builder().cpus(cpus).build();
        let cfg = FaultCampaignConfig {
            outstanding,
            requests_per_cpu,
            pattern: CampaignPattern::Bisection,
            ..Default::default()
        };
        let want_trace = trace && outstanding == TRACED_WINDOW;
        gs1280_fault_campaign(&machine)
            .run_instrumented(&cfg, want_trace)
            .1
    });
    let mut report = TelemetryReport::default();
    for t in runs {
        report.registry.merge(&t.registry);
        report
            .registry
            .gauge_max("engine.peak_queue_depth", t.peak_queue_depth);
        report.breakdown.merge(&t.breakdown);
        if t.trace.is_some() {
            report.trace = t.trace;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_kernel::par::set_jobs;

    #[test]
    fn healthy_report_attributes_every_picosecond() {
        let r = telemetry_report(16, 10, false);
        let total: u64 = telemetry_windows().iter().map(|_| 16u64 * 10).sum();
        assert_eq!(r.breakdown.transactions(), total);
        assert_eq!(r.breakdown.charged_ps(), r.breakdown.end_to_end_ps());
        assert_eq!(r.breakdown.stage_ps("unattributed (retry / backoff)"), 0);
        assert_eq!(r.registry.counter("coherence.completed"), total);
        assert!(r.trace.is_none());
        // The engine's deepest queue lives in the same registry as the
        // machine counters.
        assert!(r.registry.gauge("engine.peak_queue_depth") > 0);
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        // Satellite: registry/breakdown merges are commutative only across
        // *ordering of arrival*, never across membership — parallel_map
        // returns input order, so 1, 2, and 8 workers must render the
        // identical report.
        let render = || {
            let r = telemetry_report(16, 8, true);
            let json = serde_json::to_string_pretty(&r.to_json()).expect("serialises");
            let text = r.to_text();
            let trace = r.trace.expect("traced window present").to_json_string();
            (json, text, trace)
        };
        set_jobs(1);
        let sequential = render();
        set_jobs(2);
        let two = render();
        set_jobs(8);
        let eight = render();
        set_jobs(0);
        assert_eq!(sequential, two, "2-worker report diverged");
        assert_eq!(sequential, eight, "8-worker report diverged");
    }

    #[test]
    fn traced_report_carries_exactly_one_campaign_trace() {
        let r = telemetry_report(16, 5, true);
        let trace = r.trace.expect("tracing requested");
        assert!(!trace.is_empty());
        // The untraced flavour of the same sweep yields the same counters.
        let untraced = telemetry_report(16, 5, false);
        assert_eq!(r.registry, untraced.registry);
        assert_eq!(r.breakdown, untraced.breakdown);
    }
}
