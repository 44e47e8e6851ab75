//! Reports for faulty runs and the faulty-vs-fault-free comparison.
//!
//! [`FaultyRunReport`] carries the full timed report (so an empty plan
//! can be proven a no-op by structural equality) plus the degradation
//! ledger. [`CompareWithFaulty`] extends the plain
//! [`TimedRunReport`](ecolb_cluster::sim::TimedRunReport) with a
//! [`FaultImpact`] diff: run the same seed with and without a plan and
//! ask *what did the faults cost* — in energy, savings, availability and
//! service interruption.

use crate::inject::InjectionStats;
use ecolb_cluster::recovery::RecoveryStats;
use ecolb_cluster::server::ServerId;
use ecolb_cluster::sim::TimedRunReport;
use ecolb_metrics::report::Report;
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_metrics::DegradationSummary;

/// Everything a fault-injected run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyRunReport {
    /// The full timing-augmented report. When the plan was empty its
    /// `base` is byte-identical to
    /// [`Cluster::run`](ecolb_cluster::cluster::Cluster::run)'s report of
    /// the same seed.
    pub timed: TimedRunReport,
    /// The compact degradation answer (availability, SLA, consolidation,
    /// wasted energy).
    pub degradation: DegradationSummary,
    /// What the recovery protocol observed (failovers, retries, orphan
    /// re-admissions …).
    pub recovery: RecoveryStats,
    /// What the injector actually fired.
    pub injection: InjectionStats,
    /// Per-interval wasted energy, Joules (leaderless intervals plus
    /// aborted wake cycles).
    pub wasted_energy_series: TimeSeries,
    /// Total server-seconds spent crashed (windows clamped to the run).
    pub crashed_server_seconds: f64,
    /// Seconds orphaned VMs spent waiting for re-admission.
    pub orphan_downtime_seconds: f64,
    /// Election epoch at the end of the run (0 = the bootstrap leader
    /// survived).
    pub leader_epoch: u64,
    /// Host carrying the leader role at the end of the run.
    pub leader_host: ServerId,
    /// The reallocation interval length, seconds (needed to put the
    /// baseline's saturation count in the same units as
    /// [`DegradationSummary::sla_violation_seconds`]).
    pub realloc_interval_seconds: f64,
    /// The run seed (workload + cluster; fault streams key off the plan
    /// seed).
    pub seed: u64,
    /// Whether the plan injected nothing.
    pub plan_was_empty: bool,
}

impl FaultyRunReport {
    /// Flattens the run into the standard serialisable [`Report`] (the
    /// same JSON/CSV path every other ecolb experiment uses).
    pub fn to_report(&self, id: &str) -> Report {
        let mut r = Report::new(id, self.seed);
        let base = &self.timed.base;
        r.scalar("availability", self.degradation.availability)
            .scalar(
                "sla_violation_seconds",
                self.degradation.sla_violation_seconds,
            )
            .scalar(
                "failed_consolidations",
                self.degradation.failed_consolidations as f64,
            )
            .scalar("wasted_energy_j", self.degradation.wasted_energy_j)
            .scalar("lost_reports", self.degradation.lost_reports as f64)
            .scalar("crashed_server_seconds", self.crashed_server_seconds)
            .scalar("orphan_downtime_seconds", self.orphan_downtime_seconds)
            .scalar("failovers", self.recovery.failovers as f64)
            .scalar(
                "leaderless_intervals",
                self.recovery.leaderless_intervals as f64,
            )
            .scalar("leader_epoch", self.leader_epoch as f64)
            .scalar("reports_lost", self.recovery.reports_lost as f64)
            .scalar("report_retries", self.recovery.report_retries as f64)
            .scalar("reports_abandoned", self.recovery.reports_abandoned as f64)
            .scalar("wake_failures", self.recovery.wake_failures as f64)
            .scalar(
                "orphans_readmitted",
                self.recovery.orphans_readmitted as f64,
            )
            .scalar("servers_crashed", self.recovery.servers_crashed as f64)
            .scalar("servers_recovered", self.recovery.servers_recovered as f64)
            .scalar(
                "migrations_delayed",
                self.injection.migrations_delayed as f64,
            )
            .scalar(
                "injected_delay_seconds",
                self.injection.injected_delay_seconds,
            )
            .scalar("migrations", base.migrations as f64)
            .scalar("energy_j", base.energy.total_j() + base.migration_energy_j)
            .scalar("savings_fraction", base.savings_fraction())
            .scalar("ratio_mean", series_mean(&base.ratio_series))
            .scalar(
                "downtime_demand_seconds",
                self.timed.downtime_demand_seconds,
            )
            .scalar("saturation_violations", base.saturation_violations as f64);
        r.push_series(base.ratio_series.clone())
            .push_series(base.sleeping_series.clone())
            .push_series(self.wasted_energy_series.clone());
        r
    }
}

/// What a fault plan cost relative to the fault-free run of the same
/// seed. Positive overheads mean the faults hurt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultImpact {
    /// Fractional energy increase: `faulty / fault-free − 1`.
    pub energy_overhead_fraction: f64,
    /// Absolute drop in the energy-savings fraction.
    pub savings_delta: f64,
    /// Change in the mean in-cluster/local decision ratio (the paper's
    /// headline Figure 3 metric).
    pub ratio_mean_delta: f64,
    /// Availability of the faulty run (the fault-free run is 1.0).
    pub availability: f64,
    /// SLA-violation seconds added by the faults.
    pub extra_sla_violation_seconds: f64,
    /// Consolidations the faulty run failed to perform.
    pub failed_consolidations: u64,
    /// Extra demand-seconds of migration downtime.
    pub extra_downtime_demand_seconds: f64,
}

/// Comparison seam: implemented for the fault-free
/// [`TimedRunReport`] so experiments read
/// `baseline.fault_impact(&faulty)`.
pub trait CompareWithFaulty {
    /// Diffs `faulty` against `self` (the fault-free baseline of the same
    /// seed and configuration).
    fn fault_impact(&self, faulty: &FaultyRunReport) -> FaultImpact;
}

impl CompareWithFaulty for TimedRunReport {
    fn fault_impact(&self, faulty: &FaultyRunReport) -> FaultImpact {
        let base_energy = self.base.energy.total_j() + self.base.migration_energy_j;
        let faulty_energy =
            faulty.timed.base.energy.total_j() + faulty.timed.base.migration_energy_j;
        let energy_overhead_fraction = if base_energy > 0.0 {
            faulty_energy / base_energy - 1.0
        } else {
            0.0
        };
        let base_sla = self.base.saturation_violations as f64 * faulty.realloc_interval_seconds;
        let faulty_sla = faulty.degradation.sla_violation_seconds;
        FaultImpact {
            energy_overhead_fraction,
            savings_delta: faulty.timed.base.savings_fraction() - self.base.savings_fraction(),
            ratio_mean_delta: series_mean(&faulty.timed.base.ratio_series)
                - series_mean(&self.base.ratio_series),
            availability: faulty.degradation.availability,
            extra_sla_violation_seconds: faulty_sla - base_sla,
            failed_consolidations: faulty.degradation.failed_consolidations,
            extra_downtime_demand_seconds: faulty.timed.downtime_demand_seconds
                - self.downtime_demand_seconds,
        }
    }
}

/// Mean of a series; 0.0 (not NaN) when empty.
fn series_mean(ts: &TimeSeries) -> f64 {
    if ts.is_empty() {
        0.0
    } else {
        ts.values().iter().sum::<f64>() / ts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::sim::FaultyClusterSim;
    use ecolb_cluster::cluster::{Cluster, ClusterConfig};
    use ecolb_simcore::time::SimTime;
    use ecolb_workload::generator::WorkloadSpec;

    fn config(n: usize) -> ClusterConfig {
        ClusterConfig::paper(n, WorkloadSpec::paper_low_load())
    }

    /// The fault-free baseline: the driver on an empty plan, its capacity
    /// report checked against the engine-free `Cluster::run`.
    fn baseline(n: usize, seed: u64, intervals: u64) -> TimedRunReport {
        let empty = FaultPlan::empty(seed);
        let timed = FaultyClusterSim::new(config(n), seed, intervals, empty)
            .run()
            .timed;
        assert_eq!(timed.base, Cluster::new(config(n), seed).run(intervals));
        timed
    }

    #[test]
    fn report_flattens_with_the_headline_scalars() {
        let plan = FaultPlan::empty(4).with_leader_crash(SimTime::from_secs(900), None);
        let faulty = FaultyClusterSim::new(config(40), 13, 10, plan).run();
        let r = faulty.to_report("faults_leader_crash");
        assert_eq!(r.seed, 13);
        assert!(r.get("availability") < 1.0);
        assert!(r.get("failovers") >= 1.0);
        assert!(r.try_get("energy_j").is_some());
        assert!(r.find_series("wasted_energy_j").is_some());
        assert!(r.find_series("in_cluster_local_ratio").is_some() || !r.series.is_empty());
    }

    #[test]
    fn empty_plan_impact_is_all_zeroes() {
        let baseline = baseline(40, 13, 10);
        let faulty = FaultyClusterSim::new(config(40), 13, 10, FaultPlan::empty(0)).run();
        let impact = baseline.fault_impact(&faulty);
        assert_eq!(impact.energy_overhead_fraction, 0.0);
        assert_eq!(impact.savings_delta, 0.0);
        assert_eq!(impact.ratio_mean_delta, 0.0);
        assert_eq!(impact.availability, 1.0);
        assert_eq!(impact.failed_consolidations, 0);
        assert_eq!(impact.extra_downtime_demand_seconds, 0.0);
    }

    #[test]
    fn leader_crash_impact_shows_degradation() {
        let baseline = baseline(40, 13, 10);
        let plan = FaultPlan::empty(4).with_leader_crash(SimTime::from_secs(900), None);
        let faulty = FaultyClusterSim::new(config(40), 13, 10, plan).run();
        let impact = baseline.fault_impact(&faulty);
        assert!(impact.availability < 1.0);
        assert!(faulty.leader_epoch >= 1);
    }

    #[test]
    fn series_mean_is_nan_free() {
        assert_eq!(series_mean(&TimeSeries::new("empty")), 0.0);
        let mut ts = TimeSeries::new("xs");
        ts.push(1.0);
        ts.push(3.0);
        assert_eq!(series_mean(&ts), 2.0);
    }
}
