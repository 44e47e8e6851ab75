//! The empty-chaos no-op contract, end to end.
//!
//! A zero-intensity sweep must be *structurally* free: generation
//! produces empty plans without constructing a single RNG stream, the
//! fault layer draws nothing, the attached invariant checker only reads,
//! and the resulting capacity reports are byte-identical to the
//! engine-free [`Cluster::run`] of the same seed — at any `par` fan-out
//! width.

use ecolb_chaos::{generate_plan, sweep, ChaosScenario, SweepSummary};
use ecolb_cluster::cluster::{Cluster, ClusterRunReport};
use ecolb_faults::FaultyClusterSim;
use ecolb_metrics::json::ToJson;
use ecolb_metrics::report::Report;

const SEED: u64 = 20140109;
const PLANS: u64 = 4;

fn scenario() -> ChaosScenario {
    ChaosScenario::new(30, 8, 0.0)
}

fn render(r: &ClusterRunReport, tag: &str) -> String {
    let mut rep = Report::new(format!("noop_{tag}"), 0);
    rep.scalar("energy_j", r.energy.total_j())
        .scalar("migrations", r.migrations as f64)
        .scalar("savings_fraction", r.savings_fraction())
        .push_series(r.ratio_series.clone())
        .push_series(r.sleeping_series.clone());
    ToJson::to_json(&rep)
}

#[test]
fn zero_intensity_plans_are_structurally_empty() {
    let scenario = scenario();
    for index in 0..PLANS {
        let plan = generate_plan(SEED, index, &scenario);
        assert!(plan.is_empty(), "plan {index} not empty: {plan:?}");
        assert!(plan.events.is_empty());
    }
}

#[test]
fn zero_intensity_sweep_is_byte_identical_at_any_thread_count() {
    let scenario = scenario();

    // Engine-free baselines of the same `(seed, config, intervals)`.
    let plain: Vec<ClusterRunReport> = (0..PLANS)
        .map(|index| {
            let plan = generate_plan(SEED, index, &scenario);
            Cluster::new(scenario.config(), plan.seed).run(scenario.intervals)
        })
        .collect();

    let base = sweep(&scenario, SEED, PLANS, 1);
    for threads in [2usize, 8] {
        assert_eq!(
            sweep(&scenario, SEED, PLANS, threads),
            base,
            "sweep diverged at {threads} threads"
        );
    }

    let summary = SweepSummary::of(&base);
    assert!(summary.clean());
    assert_eq!(summary.plans, PLANS);
    assert_eq!(summary.events_injected, 0);
    assert_eq!(summary.digests_checked, PLANS * scenario.intervals);

    for (index, (outcome, plain)) in base.iter().zip(&plain).enumerate() {
        assert!(outcome.ok());
        assert!(outcome.report.plan_was_empty, "plan {index} drew faults");
        assert_eq!(outcome.report.degradation.availability, 1.0);
        assert_eq!(outcome.report.degradation.lost_reports, 0);
        // The checker observed every interval without perturbing one:
        // the whole report, event count included, equals the unchecked
        // run's …
        let unchecked = FaultyClusterSim::new(
            scenario.config(),
            outcome.plan.seed,
            scenario.intervals,
            outcome.plan.clone(),
        )
        .run();
        assert_eq!(outcome.report, unchecked, "plan {index}: checker steered");
        // … and its capacity report equals the engine-free baseline.
        assert_eq!(
            &outcome.report.timed.base, plain,
            "plan {index}: checked run diverged from the fault-free baseline"
        );
        assert_eq!(
            render(&outcome.report.timed.base, "chaos"),
            render(plain, "chaos"),
            "plan {index}: rendered reports differ"
        );
    }
}
