//! Perf smoke: tracing must be cheap when enabled and free when absent.
//!
//! The disabled path is structural — `run()` delegates through `NoTrace`,
//! whose methods are empty `#[inline(always)]` bodies, so there is
//! nothing to time. What this smoke test bounds is the **enabled** cost:
//! a `RingTracer` on the same seeds must stay within the overhead budget.
//! The paired-median measurement puts the true ring-tracer cost at
//! ~6–7 % on a 400-server run (the earlier batched-minima method
//! under-read it); the budget is 10 % so a regression, not host noise,
//! fails the smoke. `BENCH_trace.json` goes through the standard report
//! path.
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_trace
//! ```

use ecolb_bench::{paired_overhead, DEFAULT_SEED};
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_faults::{FaultPlan, FaultyClusterSim};
use ecolb_metrics::report::Report;
use ecolb_trace::RingTracer;
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
fn perf_trace_ring_tracer_overhead() {
    let measured = paired_overhead(
        ROUNDS,
        DEFAULT_SEED,
        |seed| sim(seed).run(),
        |seed| {
            let mut tracer = RingTracer::new();
            let report = sim(seed).run_traced(&mut tracer);
            (report, tracer.recorded())
        },
    );
    let (plain_s, traced_s) = (measured.baseline_seconds, measured.candidate_seconds);
    let overhead = measured.robust_overhead();
    println!(
        "perf trace/ring-tracer: plain {:.3} ms, traced {:.3} ms, overhead {:+.2}% \
         (minima {:+.2}%, median {:+.2}%; measured ~6-7%, budget < 10%)",
        plain_s * 1e3,
        traced_s * 1e3,
        overhead * 100.0,
        measured.overhead * 100.0,
        measured.median_overhead * 100.0
    );

    let mut report = Report::new("BENCH_trace", DEFAULT_SEED);
    report
        .scalar("plain_seconds", plain_s)
        .scalar("traced_seconds", traced_s)
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
        "../../results/perf/BENCH_trace.json",
        "../../BENCH_trace.json",
    ] {
        std::fs::write(path, &json).expect("write BENCH_trace.json");
        println!("wrote {path}");
    }

    assert!(
        overhead < 0.10,
        "ring tracer costs {:.2}% (> 10% budget)",
        overhead * 100.0
    );
}
