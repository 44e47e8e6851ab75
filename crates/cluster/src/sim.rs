//! Run recording: the one [`ClusterRunReport`] assembler, and the
//! timing report of the event-driven cluster simulation.
//!
//! [`Cluster`] applies balancing decisions *logically* at interval
//! boundaries: a migrated VM is removed from its donor and placed on its
//! receiver in the same instant (capacity reservation semantics). That is
//! the right model for capacity questions, but it hides the paper's §3
//! timing questions — *how much time it takes to migrate a VM* (question
//! 8) and *to switch a sleeping server to a running state* (question 4).
//! The timed driver (`ecolb-faults`' `FaultyClusterSim`; a fault-free
//! timed run is that driver on an empty plan) replays every interval's
//! migrations and wakes as engine events and reports the resulting
//! service interruption in a [`TimedRunReport`].
//!
//! Every driver — [`Cluster::run`], the timed driver and the serving
//! co-simulation — counts its intervals down and samples its series
//! through a [`RunRecorder`], the only code that builds a
//! [`ClusterRunReport`].

use crate::cluster::{Cluster, ClusterRunReport};
use ecolb_energy::regimes::RegimeCensus;
use ecolb_metrics::summary::OnlineStats;
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_simcore::engine::{Control, Scheduler};
use ecolb_trace::Tracer;

/// Records one cluster run: the initial census, the per-interval
/// sleeping/load series and the interval countdown.
#[derive(Debug, Clone)]
pub struct RunRecorder {
    initial_census: RegimeCensus,
    sleeping: TimeSeries,
    load: TimeSeries,
    intervals_left: u64,
}

impl RunRecorder {
    /// Starts recording a run of `intervals` reallocation intervals,
    /// taking `cluster`'s census before any balancing.
    pub fn new(cluster: &Cluster, intervals: u64) -> Self {
        RunRecorder {
            initial_census: cluster.census(),
            sleeping: TimeSeries::new("sleeping_servers"),
            load: TimeSeries::new("cluster_load"),
            intervals_left: intervals,
        }
    }

    /// Whether every interval has run. True from the start for a
    /// zero-interval run, whose driver must schedule no tick at all.
    pub fn done(&self) -> bool {
        self.intervals_left == 0
    }

    /// Samples the series after an interval and counts it down.
    pub(crate) fn record_interval(&mut self, cluster: &Cluster) {
        let (asleep, frac) = cluster.interval_stats();
        self.sleeping.push(asleep as f64);
        self.load.push(frac);
        self.intervals_left -= 1;
    }

    /// Closes a reallocation tick of an engine-driven run: records the
    /// interval, schedules the next tick while intervals remain, and
    /// otherwise stops once the last in-flight event has drained.
    pub fn end_tick<E, T: Tracer>(
        &mut self,
        cluster: &Cluster,
        sched: &mut Scheduler<'_, E, T>,
        tick: E,
    ) -> Control {
        self.record_interval(cluster);
        if !self.done() {
            sched.schedule_in(cluster.config().realloc_interval, tick);
            Control::Continue
        } else if sched.pending() == 0 {
            Control::Stop
        } else {
            Control::Continue
        }
    }

    /// Assembles the run report from the recording and `cluster`'s
    /// end-of-run state.
    pub fn finish(self, cluster: &Cluster) -> ClusterRunReport {
        let elapsed = cluster.now().as_secs_f64();
        ClusterRunReport {
            initial_census: self.initial_census,
            final_census: cluster.census(),
            ratio_series: cluster.ledger().ratio_series(),
            sleeping_series: self.sleeping,
            load_series: self.load,
            decision_totals: cluster.ledger().totals(),
            migrations: cluster.migrations(),
            energy: cluster.energy(),
            migration_energy_j: cluster.migration_energy_j(),
            reference_energy_j: cluster.reference_power_w() * elapsed,
            admission: cluster.admission_stats(),
            saturation_violations: cluster.saturation_violations(),
            undesirable_server_intervals: cluster.undesirable_server_intervals(),
        }
    }
}

/// Timing metrics collected on top of the capacity simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRunReport {
    /// The underlying capacity-level report (identical to the synchronous
    /// cluster's).
    pub base: ClusterRunReport,
    /// Demand-seconds of service interruption: Σ demand × transfer time
    /// over all migrations (§3 question 8 turned into a QoS cost).
    pub downtime_demand_seconds: f64,
    /// Per-migration transfer-time statistics, seconds.
    pub transfer_time_s: OnlineStats,
    /// Per-wake latency statistics, seconds (§3 question 4).
    pub wake_latency_s: OnlineStats,
    /// Largest number of VM images simultaneously on the wire.
    pub max_in_flight: usize,
    /// Total events the engine processed.
    pub events_processed: u64,
}

impl TimedRunReport {
    /// Mean service interruption per committed migration, demand-seconds.
    /// Zero (not NaN) for runs that commit no migrations.
    pub fn mean_downtime_per_migration(&self) -> f64 {
        if self.base.migrations == 0 {
            0.0
        } else {
            self.downtime_demand_seconds / self.base.migrations as f64
        }
    }

    /// Mean VM transfer time, seconds; zero for zero-migration runs.
    pub fn mean_transfer_time_s(&self) -> f64 {
        if self.transfer_time_s.count() == 0 {
            0.0
        } else {
            self.transfer_time_s.mean()
        }
    }

    /// Mean wake latency, seconds; zero when no server was ever woken.
    pub fn mean_wake_latency_s(&self) -> f64 {
        if self.wake_latency_s.count() == 0 {
            0.0
        } else {
            self.wake_latency_s.mean()
        }
    }

    /// Service interruption per reallocation interval, demand-seconds;
    /// zero for zero-interval runs.
    pub fn downtime_per_interval(&self) -> f64 {
        if self.base.ratio_series.is_empty() {
            0.0
        } else {
            self.downtime_demand_seconds / self.base.ratio_series.len() as f64
        }
    }
}
