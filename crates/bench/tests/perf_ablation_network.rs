//! Ablation A4: fabric bandwidth vs migration downtime (timed simulation).
//!
//! §3, questions 5 and 8: how much energy and time does a VM migration
//! cost? The timed simulation layer answers with measured
//! service-interruption: the same decision sequence replayed over faster
//! and slower fabrics. Formerly a Criterion bench.

use ecolb_bench::perf::time;
use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_cluster::sim::TimedRunReport;
use ecolb_faults::{FaultPlan, FaultyClusterSim};
use ecolb_metrics::table::{fmt_f, Table};
use ecolb_workload::generator::WorkloadSpec;
use std::hint::black_box;

const LINKS_GBPS: [f64; 4] = [1.0, 10.0, 40.0, 100.0];

fn run(link_gbps: f64, size: usize, intervals: u64) -> TimedRunReport {
    let mut config = ClusterConfig::paper(size, WorkloadSpec::paper_high_load());
    config.migration.link_gbps = link_gbps;
    let empty = FaultPlan::empty(DEFAULT_SEED);
    FaultyClusterSim::new(config, DEFAULT_SEED, intervals, empty)
        .run()
        .timed
}

#[test]
#[ignore = "perf smoke"]
fn perf_ablation_fabric_bandwidth() {
    let mut table = Table::new([
        "Fabric (Gbit/s)",
        "Migrations",
        "Mean transfer (s)",
        "Downtime (demand-s)",
        "Migration energy (kJ)",
    ])
    .with_title("Ablation A4: fabric bandwidth vs migration downtime, 1000 servers at 70% load");
    for link in LINKS_GBPS {
        let r = run(link, 1_000, 40);
        table.row([
            format!("{link:.0}"),
            r.base.migrations.to_string(),
            fmt_f(r.transfer_time_s.mean(), 2),
            fmt_f(r.downtime_demand_seconds, 1),
            fmt_f(r.base.migration_energy_j / 1e3, 1),
        ]);
    }
    println!("{table}");

    for link in [1.0, 40.0] {
        let r = time(
            &format!("ablation_network/timed_run/{}gbps", link as u64),
            3,
            || black_box(run(link, 200, 40)),
        );
        assert_eq!(r.base.ratio_series.len(), 40);
    }
}
