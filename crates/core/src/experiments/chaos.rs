//! Chaos campaign artifact: randomized fault-schedule fuzzing with the
//! runtime invariant monitors armed.
//!
//! Beyond the paper's figures (DESIGN.md §2): each trial draws a seeded
//! random fault schedule mixing every [`alphasim_kernel::FaultKind`] —
//! cuts, repairs, degradations, transient flit corruption, drains,
//! router brownouts, RDRAM channel churn — and drives the closed-loop
//! GS1280 fault campaign under it with the always-on monitors checking
//! zero hung transactions, the retry bound, poison accounting, window
//! refills, issue quotas, read accounting, and telemetry balance.
//! The artifact records what each schedule did to the machine; the
//! experiment *fails loudly* if any monitor fires, because a violation
//! here is a simulator bug (the chaos engine shrinks it to a minimal
//! reproducer for the corpus — see `alphasim_system::chaos`).

use alphasim_system::chaos::{run_chaos, ChaosOptions};
use alphasim_system::ChaosReport;

use crate::types::{Figure, Series};

/// Fault kinds the schedule distribution can draw; a full-size run must
/// strike every one of them.
pub const ALL_KIND_NAMES: [&str; 9] = [
    "LinkDown",
    "LinkUp",
    "LinkDegrade",
    "FlitCorrupt",
    "NodeDrain",
    "NodeUndrain",
    "RouterPause",
    "ChannelDown",
    "ChannelUp",
];

/// Run `trials` randomized fault schedules on the 16P GS1280 and render
/// the campaign as a figure.
///
/// # Panics
///
/// Panics if any invariant monitor fires (with the violating seeds — the
/// chaos engine has already shrunk them), or if a run of 50+ trials fails
/// to strike every fault kind (the distribution or generator regressed).
pub fn chaos(trials: usize) -> Figure {
    let report = run_chaos(&ChaosOptions {
        trials,
        ..ChaosOptions::default()
    });
    assert!(
        report.reproducers.is_empty(),
        "chaos monitors fired on seeds {:?}: {:?}",
        report.violating_seeds(),
        report
            .reproducers
            .iter()
            .map(|r| (&r.name, &r.violations))
            .collect::<Vec<_>>()
    );
    let struck = report.kinds_struck();
    if trials >= 50 {
        for name in ALL_KIND_NAMES {
            assert!(
                struck.contains(name),
                "{trials} trials never struck {name}: the schedule distribution regressed"
            );
        }
    }
    chaos_figure(trials, &report)
}

fn chaos_figure(trials: usize, report: &ChaosReport) -> Figure {
    let pairs = |f: &dyn Fn(&alphasim_system::ChaosTrial) -> f64| -> Vec<(f64, f64)> {
        report
            .trials
            .iter()
            .enumerate()
            .map(|(i, t)| (i as f64, f(t)))
            .collect()
    };
    let kinds = report.kinds_struck();
    Figure::new(
        "chaos",
        format!(
            "Chaos campaign: {trials} randomized fault schedules on 16P, \
             {}/{} fault kinds struck, zero invariant violations",
            kinds.len(),
            ALL_KIND_NAMES.len()
        ),
        "trial",
        "count | ns",
    )
    .with_series(Series::from_pairs(
        "completed reads",
        pairs(&|t| t.result.completed as f64),
    ))
    .with_series(Series::from_pairs(
        "poisoned reads",
        pairs(&|t| t.result.poisoned.len() as f64),
    ))
    .with_series(Series::from_pairs(
        "faults struck",
        pairs(&|t| t.faults_applied.len() as f64),
    ))
    .with_series(Series::from_pairs(
        "mean read latency (ns)",
        pairs(&|t| t.result.mean_latency.as_ns()),
    ))
    .with_series(Series::from_pairs(
        "retries",
        pairs(&|t| t.result.retries as f64),
    ))
    .with_series(Series::from_pairs(
        "CRC retransmits",
        pairs(&|t| t.result.crc_retransmits as f64),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_renders_every_series_and_stays_clean() {
        let fig = chaos(4);
        assert_eq!(fig.id, "chaos");
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert_eq!(s.points.len(), 4, "{}", s.label);
        }
        let completed = fig.series_like("completed reads").unwrap();
        assert!(completed.y_at(0.0).unwrap() > 0.0);
    }

    #[test]
    fn kind_name_table_matches_the_kernel() {
        use alphasim_kernel::FaultKind;
        use alphasim_system::chaos::kind_name;
        let samples = [
            FaultKind::LinkDown { a: 0, b: 1 },
            FaultKind::LinkUp { a: 0, b: 1 },
            FaultKind::LinkDegrade { a: 0, b: 1 },
            FaultKind::FlitCorrupt { from: 0, to: 1 },
            FaultKind::NodeDrain { node: 0 },
            FaultKind::NodeUndrain { node: 0 },
            FaultKind::RouterPause { node: 0, ps: 1 },
            FaultKind::ChannelDown { node: 0 },
            FaultKind::ChannelUp { node: 0 },
        ];
        for (kind, name) in samples.iter().zip(ALL_KIND_NAMES) {
            assert_eq!(kind_name(*kind), name);
        }
    }
}
