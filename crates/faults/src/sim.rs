//! The timed cluster simulation, with a [`FaultPlan`] wired into every
//! seam.
//!
//! [`TimedCluster`] is the cluster half of every timed run. It owns the
//! §4 [`Cluster`], the [`FaultInjector`], the [`RunRecorder`] and the
//! timing and degradation ledger, and it handles one [`FaultSimEvent`]
//! at a time on the discrete-event engine of `ecolb-simcore`: one event
//! per reallocation tick, per VM arrival, per wake completion and per
//! scheduled fault. The paper's §3 timing questions (how long a
//! migration keeps a VM off the CPU, how long a wake takes) become the
//! service-interruption metrics of a [`TimedRunReport`]. A driver owns
//! the engine and its event enum (any `E: From<FaultSimEvent>`) and
//! reacts to what [`TimedCluster::handle`] reports back ([`ClusterStep`]):
//! a closed tick or a crashed server.
//!
//! [`FaultyClusterSim`] is the thin loop over it with no other layer; a
//! fault-free timed run is that loop on [`FaultPlan::empty`]. The serving
//! co-simulation (`ecolb-serve`'s `ServeSim`) is the other. The capacity
//! decisions equal [`Cluster::run`](ecolb_cluster::cluster::Cluster::run)'s
//! by construction: the same [`Cluster`] is driven, and the engine only
//! adds timing.
//!
//! Three injection points cover the plan's fault families:
//!
//! * **Scheduled crashes** become engine events; a crash orphans the
//!   host's VMs (re-admitted through the leader's admission queue), and a
//!   leader crash additionally exercises the heartbeat-timeout failover.
//! * **Report loss and wake failures** flow through the cluster's
//!   [`FaultHooks`](ecolb_cluster::recovery::FaultHooks) seam inside
//!   `run_interval_traced`.
//! * **Message delay** postpones a migration arrival on the wire: the
//!   arrival asks [`FaultInjector::arrival_delay`] and, when delayed,
//!   reschedules itself without the cluster ever knowing.
//!
//! On top of the usual timing metrics the faulty run keeps the
//! *degradation ledger*: crashed-server seconds (availability), orphan
//! waiting time (SLA), energy burned while leaderless or on aborted wake
//! transitions (wasted energy), and the recovery protocol's own counters.
//!
//! An **empty plan is a no-op**: the injector draws nothing and never
//! delays, so the report's `timed.base` equals
//! [`Cluster::run`](ecolb_cluster::cluster::Cluster::run)'s report of the
//! same seed byte for byte (asserted in this crate's tests and in the
//! workspace determinism suite).

use crate::inject::FaultInjector;
use crate::plan::{FaultEventKind, FaultPlan};
use crate::report::FaultyRunReport;
use ecolb_cluster::cluster::{Cluster, ClusterConfig};
use ecolb_cluster::server::ServerId;
use ecolb_cluster::sim::{RunRecorder, TimedRunReport};
use ecolb_metrics::summary::OnlineStats;
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_metrics::DegradationSummary;
use ecolb_simcore::engine::{Control, Engine, RunOutcome, Scheduler};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_trace::{NoTrace, TraceEventKind, Tracer};

/// Events of the timed simulation: reallocation ticks, migration
/// arrivals, wake completions and scheduled faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSimEvent {
    /// End of a reallocation interval.
    ReallocationTick,
    /// A migrated VM image finished its transfer (the event the plan's
    /// message-delay family postpones on the wire).
    MigrationArrive {
        /// The receiving server.
        to: ServerId,
    },
    /// A woken (or rebooting) server reaches C0.
    WakeComplete {
        /// The server that finished waking.
        server: ServerId,
    },
    /// A scheduled fault from the plan fires.
    Fault(FaultEventKind),
}

/// What a handled [`FaultSimEvent`] means for the driver's loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterStep {
    /// Cluster bookkeeping only; nothing for the driver to react to.
    Quiet,
    /// A reallocation tick closed. The control is the run recorder's:
    /// stop once the last interval ran and nothing is pending.
    TickClosed(Control),
    /// A scheduled fault crashed this server.
    Crashed(ServerId),
}

/// The timed, fault-injected event-driven cluster simulation.
#[derive(Debug)]
pub struct FaultyClusterSim {
    cluster: Cluster,
    seed: u64,
    intervals: u64,
    plan: FaultPlan,
}

impl FaultyClusterSim {
    /// Creates the simulation for `intervals` reallocation intervals with
    /// the given fault plan.
    pub fn new(config: ClusterConfig, seed: u64, intervals: u64, plan: FaultPlan) -> Self {
        FaultyClusterSim {
            cluster: Cluster::new(config, seed),
            seed,
            intervals,
            plan,
        }
    }

    /// Runs to completion and returns the degradation-augmented report.
    pub fn run(self) -> FaultyRunReport {
        self.run_traced(&mut NoTrace)
    }

    /// [`FaultyClusterSim::run`] with a tracer: injection decisions
    /// (dropped reports, delayed arrivals), scheduled crashes/recoveries
    /// and every cluster-interval event land in the trace. With
    /// [`NoTrace`] the run is structurally identical to
    /// [`FaultyClusterSim::run`].
    pub fn run_traced<T: Tracer>(self, tracer: &mut T) -> FaultyRunReport {
        // Pre-size the queue for the tick plus a typical interval's burst
        // of in-flight migration/wake events; the dispatch loop then never
        // reallocates it.
        let mut engine: Engine<FaultSimEvent> = Engine::with_capacity(64);
        let mut timed = TimedCluster::start(
            self.cluster,
            self.seed,
            self.intervals,
            &self.plan,
            &mut engine,
        );
        let outcome = engine.run_traced(&mut timed, tracer, |timed, sched, event| {
            match timed.handle(sched, event) {
                ClusterStep::TickClosed(control) => control,
                ClusterStep::Quiet | ClusterStep::Crashed(_) => Control::Continue,
            }
        });
        debug_assert!(matches!(outcome, RunOutcome::Stopped | RunOutcome::Drained));
        timed.finish(engine.events_processed())
    }
}

/// The cluster half of a timed run: the [`Cluster`], the plan's
/// [`FaultInjector`], the [`RunRecorder`] and the timing and degradation
/// ledger. See the module docs.
#[derive(Debug)]
pub struct TimedCluster {
    cluster: Cluster,
    injector: FaultInjector,
    recorder: RunRecorder,
    horizon: SimTime,
    seed: u64,
    plan_was_empty: bool,
    downtime_demand_seconds: f64,
    transfer_time_s: OnlineStats,
    wake_latency_s: OnlineStats,
    in_flight: usize,
    max_in_flight: usize,
    /// Open crash windows: when each currently-crashed server went down.
    crash_start: Vec<Option<SimTime>>,
    /// Closed crash windows `(down, back_up)`; clamped to the run length
    /// at report time.
    closed_windows: Vec<(SimTime, SimTime)>,
    orphan_downtime_seconds: f64,
    /// Per-interval energy burned while degraded (leaderless intervals
    /// plus aborted wake cycles), Joules.
    wasted_energy: TimeSeries,
    prev_energy_j: f64,
}

impl TimedCluster {
    /// Takes `cluster` (built from `seed`) through `intervals`
    /// reallocation intervals under `plan`, and schedules on `engine` the
    /// first tick and every plan fault up to the horizon. A zero-interval
    /// run schedules no tick.
    pub fn start<E: From<FaultSimEvent>>(
        cluster: Cluster,
        seed: u64,
        intervals: u64,
        plan: &FaultPlan,
        engine: &mut Engine<E>,
    ) -> Self {
        let n_servers = cluster.config().n_servers;
        let realloc_interval = cluster.config().realloc_interval;
        let recorder = RunRecorder::new(&cluster, intervals);
        if !recorder.done() {
            engine.schedule_at(
                SimTime::ZERO + realloc_interval,
                FaultSimEvent::ReallocationTick.into(),
            );
        }
        // Faults beyond the simulated horizon can never be observed by a
        // report; dropping them keeps the engine drain bounded.
        let horizon = SimTime::ZERO
            + SimDuration::from_ticks(realloc_interval.ticks().saturating_mul(intervals));
        for ev in &plan.events {
            if ev.at <= horizon {
                engine.schedule_at(ev.at, FaultSimEvent::Fault(ev.kind).into());
            }
        }
        TimedCluster {
            injector: FaultInjector::new(plan, n_servers),
            cluster,
            recorder,
            horizon,
            seed,
            plan_was_empty: plan.is_empty(),
            downtime_demand_seconds: 0.0,
            transfer_time_s: OnlineStats::new(),
            wake_latency_s: OnlineStats::new(),
            in_flight: 0,
            max_in_flight: 0,
            crash_start: vec![None; n_servers],
            closed_windows: Vec::new(),
            orphan_downtime_seconds: 0.0,
            wasted_energy: TimeSeries::new("wasted_energy_j"),
            prev_energy_j: 0.0,
        }
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The end of the last reallocation interval.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Whether every reallocation interval has run.
    pub fn done(&self) -> bool {
        self.recorder.done()
    }

    /// Handles one cluster event, scheduling its follow-ups through
    /// `sched`, and tells the driver what happened.
    pub fn handle<E: From<FaultSimEvent>, T: Tracer>(
        &mut self,
        sched: &mut Scheduler<'_, E, T>,
        event: FaultSimEvent,
    ) -> ClusterStep {
        match event {
            FaultSimEvent::ReallocationTick => ClusterStep::TickClosed(self.on_tick(sched)),
            FaultSimEvent::MigrationArrive { to } => {
                // A delayed transfer faces the same link again when it
                // is redelivered.
                if let Some(delay) = self.injector.arrival_delay(to) {
                    let now = sched.now().ticks();
                    sched.tracer().event(
                        now,
                        TraceEventKind::EventDelayed {
                            delay_us: delay.ticks(),
                        },
                    );
                    sched.schedule_in(delay, event.into());
                } else {
                    self.in_flight -= 1;
                }
                ClusterStep::Quiet
            }
            FaultSimEvent::WakeComplete { .. } => ClusterStep::Quiet,
            // Past the final tick no report observes the fault.
            FaultSimEvent::Fault(_) if self.recorder.done() => ClusterStep::Quiet,
            FaultSimEvent::Fault(kind) => self.apply_fault(sched, kind),
        }
    }

    fn on_tick<E: From<FaultSimEvent>, T: Tracer>(
        &mut self,
        sched: &mut Scheduler<'_, E, T>,
    ) -> Control {
        let now = sched.now();
        let was_leaderless = self.cluster.leaderless();
        let outcome = self
            .cluster
            .run_interval_traced(&mut self.injector, sched.tracer());

        // Degradation ledger: energy burned during a leaderless interval
        // is wasted (no balancing could act on it), and every aborted
        // wake cycle pays the full transition energy with nothing to
        // show.
        let energy_now = self.cluster.energy().total_j() + self.cluster.migration_energy_j();
        let mut wasted = if was_leaderless {
            energy_now - self.prev_energy_j
        } else {
            0.0
        };
        self.prev_energy_j = energy_now;
        for &failed in &outcome.wake_failures {
            let cstate = self.cluster.servers()[failed.index()].cstate();
            wasted += self.cluster.config().sleep.failed_wake_energy_j(cstate);
        }
        self.wasted_energy.push(wasted);

        // Timed effects of this interval's decisions: every VM transfer
        // (scaling + protocol) becomes an arrival event.
        for rec in self.cluster.interval_migrations() {
            self.in_flight += 1;
            self.max_in_flight = self.max_in_flight.max(self.in_flight);
            let transfer = rec.cost.duration;
            self.transfer_time_s.push(transfer.as_secs_f64());
            self.downtime_demand_seconds += rec.demand * transfer.as_secs_f64();
            sched.schedule_in(
                transfer,
                FaultSimEvent::MigrationArrive { to: rec.to }.into(),
            );
        }
        for &woken in &outcome.woken {
            if let Some(ready) = self.cluster.servers()[woken.index()].wake_ready_at() {
                self.wake_latency_s.push((ready - now).as_secs_f64());
                sched.schedule_at(ready, FaultSimEvent::WakeComplete { server: woken }.into());
            }
        }

        self.recorder
            .end_tick(&self.cluster, sched, FaultSimEvent::ReallocationTick.into())
    }

    fn apply_fault<E: From<FaultSimEvent>, T: Tracer>(
        &mut self,
        sched: &mut Scheduler<'_, E, T>,
        kind: FaultEventKind,
    ) -> ClusterStep {
        let now = sched.now();
        let (fault, server, recover_after) = match kind {
            FaultEventKind::ServerCrash {
                server,
                recover_after,
            } => ("server_crash", server, recover_after),
            FaultEventKind::LeaderCrash { recover_after } => {
                ("leader_crash", self.cluster.leader_host(), recover_after)
            }
            FaultEventKind::ServerRecover { server } => {
                if let Some(ready) = self.cluster.recover_server(server, now) {
                    sched.tracer().event(
                        now.ticks(),
                        TraceEventKind::ServerRecovered { server: server.0 },
                    );
                    if let Some(start) = self.crash_start[server.index()].take() {
                        self.closed_windows.push((start, ready));
                    }
                    self.wake_latency_s.push((ready - now).as_secs_f64());
                    sched.schedule_at(ready, FaultSimEvent::WakeComplete { server }.into());
                }
                return ClusterStep::Quiet;
            }
        };
        sched.tracer().event(
            now.ticks(),
            TraceEventKind::FaultInjected {
                fault,
                server: server.0,
            },
        );
        if self.cluster.servers()[server.index()].is_crashed() {
            return ClusterStep::Quiet;
        }
        sched.tracer().event(
            now.ticks(),
            TraceEventKind::ServerCrashed { server: server.0 },
        );
        let orphans = self.cluster.crash_server(server, now);
        // Orphans wait in the admission queue until the next reallocation
        // tick; that waiting time is SLA-violation time.
        let tau = self.cluster.config().realloc_interval.ticks().max(1);
        let next_tick = SimTime::from_ticks(now.ticks().div_ceil(tau).saturating_mul(tau));
        self.orphan_downtime_seconds +=
            orphans.len() as f64 * next_tick.saturating_sub(now).as_secs_f64();
        self.cluster.readmit_orphans(orphans);
        self.crash_start[server.index()] = Some(now);
        if let Some(delay) = recover_after {
            sched.schedule_in(
                delay,
                FaultSimEvent::Fault(FaultEventKind::ServerRecover { server }).into(),
            );
        }
        ClusterStep::Crashed(server)
    }

    /// Closes the run: clamps crash windows still open at the end and
    /// assembles the degradation-augmented report. `events_processed` is
    /// the driving engine's count.
    pub fn finish(mut self, events_processed: u64) -> FaultyRunReport {
        let end = self.cluster.now();
        let elapsed = end.as_secs_f64();
        // Close any crash-stop windows still open at the end of the run
        // and clamp crash-recover reboots that outlived the horizon.
        for slot in &mut self.crash_start {
            if let Some(start) = slot.take() {
                self.closed_windows.push((start, end));
            }
        }
        let crashed_server_seconds: f64 = self
            .closed_windows
            .iter()
            .map(|&(down, up)| up.min(end).saturating_sub(down).as_secs_f64())
            .sum();

        let n_servers = self.cluster.config().n_servers;
        let base = self.recorder.finish(&self.cluster);
        let recovery = self.cluster.recovery_stats();
        let wasted_energy_j: f64 = self.wasted_energy.values().iter().sum();
        let availability = if elapsed > 0.0 && n_servers > 0 {
            1.0 - crashed_server_seconds / (n_servers as f64 * elapsed)
        } else {
            1.0
        };
        let tau_s = self.cluster.config().realloc_interval.as_secs_f64();
        let degradation = DegradationSummary {
            availability,
            sla_violation_seconds: base.saturation_violations as f64 * tau_s
                + self.orphan_downtime_seconds,
            failed_consolidations: recovery.failed_consolidations,
            wasted_energy_j,
            lost_reports: recovery.reports_abandoned,
        };

        FaultyRunReport {
            timed: TimedRunReport {
                base,
                downtime_demand_seconds: self.downtime_demand_seconds,
                transfer_time_s: self.transfer_time_s,
                wake_latency_s: self.wake_latency_s,
                max_in_flight: self.max_in_flight,
                events_processed,
            },
            degradation,
            recovery,
            injection: self.injector.stats(),
            wasted_energy_series: self.wasted_energy,
            crashed_server_seconds,
            orphan_downtime_seconds: self.orphan_downtime_seconds,
            leader_epoch: self.cluster.leader_epoch(),
            leader_host: self.cluster.leader_host(),
            realloc_interval_seconds: tau_s,
            seed: self.seed,
            plan_was_empty: self.plan_was_empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_cluster::migration::MigrationCostModel;
    use ecolb_workload::generator::WorkloadSpec;

    fn config(n: usize) -> ClusterConfig {
        ClusterConfig::paper(n, WorkloadSpec::paper_low_load())
    }

    /// A fault-free timed run: the driver on an empty plan.
    fn timed(config: ClusterConfig, seed: u64, intervals: u64) -> TimedRunReport {
        FaultyClusterSim::new(config, seed, intervals, FaultPlan::empty(seed))
            .run()
            .timed
    }

    #[test]
    fn downtime_accrues_with_migrations() {
        let timed = timed(config(80), 3, 15);
        if timed.base.migrations > 0 {
            assert!(timed.downtime_demand_seconds > 0.0);
            assert!(timed.transfer_time_s.count() == timed.base.migrations);
            assert!(timed.mean_downtime_per_migration() > 0.0);
        }
    }

    #[test]
    fn instant_network_means_zero_downtime_duration() {
        // With an (almost) infinite link and no VM start latency the
        // transfer takes ~0 s, so downtime vanishes even though the same
        // migrations happen.
        let mut cfg = config(80);
        cfg.migration = MigrationCostModel {
            link_gbps: 1e12,
            transfer_overhead_w: 0.0,
            vm_start_energy_j: 0.0,
            vm_start_latency_s: 0.0,
            dirty_page_factor: 1.0,
        };
        let timed = timed(cfg, 3, 15);
        assert!(
            timed.downtime_demand_seconds < 1e-3,
            "downtime {}",
            timed.downtime_demand_seconds
        );
    }

    #[test]
    fn events_processed_counts_all_kinds() {
        let timed = timed(config(80), 7, 10);
        // At least one event per tick, plus one per migration arrival.
        assert!(timed.events_processed >= 10 + timed.base.migrations);
    }

    #[test]
    fn in_flight_peak_is_sane() {
        let timed = timed(config(80), 9, 10);
        assert!(timed.max_in_flight as u64 <= timed.base.migrations);
    }

    #[test]
    fn zero_migration_run_reports_zero_ratios_not_nan() {
        // Freeze demand and disable balancing: nothing ever migrates, so
        // every ratio metric must degrade to 0.0, never NaN.
        let mut cfg = config(20);
        cfg.growth_prob = 0.0;
        cfg.shrink_prob = 0.0;
        cfg.balance.enabled = false;
        let timed = timed(cfg, 13, 5);
        assert_eq!(timed.base.migrations, 0);
        for v in [
            timed.mean_downtime_per_migration(),
            timed.mean_transfer_time_s(),
            timed.mean_wake_latency_s(),
            timed.downtime_per_interval(),
        ] {
            assert!(v.is_finite(), "ratio metric must be finite, got {v}");
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let plan = || {
            FaultPlan::empty(77)
                .with_message_loss(0.05)
                .with_wake_failures(0.1)
                .with_leader_crash(SimTime::from_secs(1500), Some(SimDuration::from_secs(900)))
        };
        let a = FaultyClusterSim::new(config(40), 21, 10, plan()).run();
        let b = FaultyClusterSim::new(config(40), 21, 10, plan()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn crash_stop_window_runs_to_the_end_of_the_run() {
        let plan =
            FaultPlan::empty(5).with_server_crash(SimTime::from_secs(600), ServerId(7), None);
        let r = FaultyClusterSim::new(config(30), 9, 10, plan).run();
        // 10 intervals × 300 s = 3000 s; crashed from 600 s to the end.
        assert_eq!(r.recovery.servers_crashed, 1);
        assert_eq!(r.recovery.servers_recovered, 0);
        assert!((r.crashed_server_seconds - 2400.0).abs() < 1e-6);
        assert!(r.degradation.availability < 1.0);
        assert!(r.degradation.is_degraded());
    }

    #[test]
    fn crash_recover_window_is_bounded_by_the_repair_time() {
        let plan = FaultPlan::empty(5).with_server_crash(
            SimTime::from_secs(600),
            ServerId(7),
            Some(SimDuration::from_secs(600)),
        );
        let r = FaultyClusterSim::new(config(30), 9, 10, plan).run();
        assert_eq!(r.recovery.servers_crashed, 1);
        assert_eq!(r.recovery.servers_recovered, 1);
        // Down 600 s + the C6 reboot latency (200 s by default).
        let expected = 600.0 + 200.0;
        assert!(
            (r.crashed_server_seconds - expected).abs() < 1e-6,
            "window {} != {expected}",
            r.crashed_server_seconds
        );
        // Recovered well before the end: strictly less downtime than the
        // crash-stop variant of the same schedule.
        assert!(r.crashed_server_seconds < 2400.0);
    }

    #[test]
    fn faults_after_the_horizon_are_ignored() {
        let plan =
            FaultPlan::empty(5).with_server_crash(SimTime::from_secs(100_000), ServerId(0), None);
        let r = FaultyClusterSim::new(config(20), 3, 5, plan).run();
        assert_eq!(r.recovery.servers_crashed, 0);
        assert_eq!(r.degradation.availability, 1.0);
    }

    #[test]
    fn orphaned_vms_accrue_sla_time_when_crash_is_mid_interval() {
        // Crash at 450 s: orphans wait 150 s for the 600 s tick.
        let plan =
            FaultPlan::empty(5).with_server_crash(SimTime::from_secs(450), ServerId(2), None);
        let r = FaultyClusterSim::new(config(30), 9, 10, plan).run();
        assert_eq!(r.recovery.servers_crashed, 1);
        if r.recovery.orphans_readmitted > 0 {
            let expected = r.recovery.orphans_readmitted as f64 * 150.0;
            assert!(
                (r.orphan_downtime_seconds - expected).abs() < 1e-6,
                "orphan downtime {} != {expected}",
                r.orphan_downtime_seconds
            );
            assert!(r.degradation.sla_violation_seconds >= expected);
        }
    }

    #[test]
    fn message_delay_stretches_transfers_without_changing_decisions() {
        let base = FaultyClusterSim::new(config(60), 11, 12, FaultPlan::empty(1)).run();
        let delayed = FaultyClusterSim::new(
            config(60),
            11,
            12,
            FaultPlan::empty(1).with_message_delay(0.75, SimDuration::from_secs(120)),
        )
        .run();
        // The wire is slower but the capacity decisions are untouched:
        // the cluster never observes the delay.
        assert_eq!(base.timed.base, delayed.timed.base);
        if base.timed.base.migrations > 0 {
            assert!(delayed.injection.migrations_delayed > 0);
            assert!(delayed.injection.injected_delay_seconds > 0.0);
            assert!(delayed.timed.events_processed > base.timed.events_processed);
        }
    }

    #[test]
    fn each_delayed_transfer_costs_exactly_one_redelivery() {
        use ecolb_trace::RingTracer;
        let delay_only = || FaultPlan::empty(1).with_message_delay(0.5, SimDuration::from_secs(90));
        for seed in [11, 12, 13] {
            let base = FaultyClusterSim::new(config(60), seed, 12, FaultPlan::empty(1)).run();
            let delayed = FaultyClusterSim::new(config(60), seed, 12, delay_only()).run();
            assert!(delayed.injection.migrations_delayed > 0, "seed {seed}");
            assert_eq!(
                delayed.timed.events_processed,
                base.timed.events_processed + delayed.injection.migrations_delayed,
                "seed {seed}"
            );

            let mut tracer = RingTracer::with_capacity(1 << 20);
            let traced =
                FaultyClusterSim::new(config(60), seed, 12, delay_only()).run_traced(&mut tracer);
            assert_eq!(traced, delayed, "seed {seed}");
            assert_eq!(tracer.dropped(), 0);
            let recorded = tracer
                .events()
                .filter(|e| matches!(e.kind, TraceEventKind::EventDelayed { .. }))
                .count() as u64;
            assert_eq!(
                recorded, delayed.injection.migrations_delayed,
                "seed {seed}"
            );
        }
    }
}
