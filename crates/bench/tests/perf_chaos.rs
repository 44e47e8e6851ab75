//! Perf smoke: the invariant checker must be cheap enough to leave on.
//!
//! The checker rides the tracer seam, so a checked run pays for (a) the
//! per-interval state digest the cluster computes for digest-hungry
//! tracers and (b) the checker's own bookkeeping. This smoke test times
//! a checked fault-free run against the unchecked timed driver on the
//! same seeds with the paired-median probe and asserts the overhead
//! stays under the budget (~2 % measured, asserted at < 8 % so only a
//! regression — not a noisy single-core host window — fails it), then
//! emits `BENCH_chaos.json` through the standard report path.
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_chaos
//! ```

use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_chaos::InvariantChecker;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_faults::{FaultPlan, FaultyClusterSim};
use ecolb_metrics::report::Report;
use ecolb_workload::generator::WorkloadSpec;

const SIZE: usize = 400;
const INTERVALS: u64 = 40;
const ROUNDS: u32 = 9;

fn sim(seed: u64) -> FaultyClusterSim {
    let config = ClusterConfig::paper(SIZE, WorkloadSpec::paper_low_load());
    FaultyClusterSim::new(config, seed, INTERVALS, FaultPlan::empty(seed))
}

#[test]
#[ignore = "perf smoke"]
fn perf_chaos_checker_overhead() {
    let measured = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| sim(seed).run(),
        |seed| {
            let mut checker = InvariantChecker::new(SIZE as u32);
            let report = sim(seed).run_traced(&mut checker);
            assert!(checker.ok(), "fault-free run violated an invariant");
            assert_eq!(checker.digests_checked(), INTERVALS);
            report
        },
    );
    let (plain_s, checked_s) = (measured.baseline_seconds, measured.candidate_seconds);
    let overhead = measured.robust_overhead();
    println!(
        "perf chaos/checker: plain {:.3} ms, checked {:.3} ms, overhead {:+.2}% \
         (minima {:+.2}%, median {:+.2}%; measured ~2%, budget < 8%)",
        plain_s * 1e3,
        checked_s * 1e3,
        overhead * 100.0,
        measured.overhead * 100.0,
        measured.median_overhead * 100.0
    );

    let mut report = Report::new("BENCH_chaos", DEFAULT_SEED);
    report
        .scalar("plain_seconds", plain_s)
        .scalar("checked_seconds", checked_s)
        .scalar("overhead_fraction", overhead)
        .scalar("minima_overhead_fraction", measured.overhead)
        .scalar("median_overhead_fraction", measured.median_overhead)
        .scalar("size", SIZE as f64)
        .scalar("intervals", INTERVALS as f64)
        .scalar("rounds", f64::from(ROUNDS));
    // Integration tests run with the crate as cwd; results/ sits two up,
    // and the repo-root mirror keeps the latest numbers visible at a glance.
    let json = report.to_json();
    std::fs::create_dir_all("../../results/perf").expect("create results/perf");
    for path in [
        "../../results/perf/BENCH_chaos.json",
        "../../BENCH_chaos.json",
    ] {
        std::fs::write(path, &json).expect("write BENCH_chaos.json");
        println!("wrote {path}");
    }

    assert!(
        overhead < 0.08,
        "invariant checker costs {:.2}% (budget 8%)",
        overhead * 100.0
    );
}
