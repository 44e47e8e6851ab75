//! The timed cluster simulation, with a [`FaultPlan`] wired into every
//! seam.
//!
//! [`FaultyClusterSim`] runs the §4 cluster on the discrete-event engine
//! of `ecolb-simcore`, one event per reallocation tick, per VM arrival
//! and per wake completion, so the paper's §3 timing questions (how long
//! a migration keeps a VM off the CPU, how long a wake takes) become the
//! service-interruption metrics of a [`TimedRunReport`]. It is the only
//! timed cluster driver: a fault-free timed run is this simulation on
//! [`FaultPlan::empty`]. The capacity decisions equal
//! [`Cluster::run`](ecolb_cluster::cluster::Cluster::run)'s by
//! construction: the same [`Cluster`] is driven, and the engine only
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
//! * **Message delay** uses the engine's
//!   [`run_intercepted`](ecolb_simcore::engine::Engine::run_intercepted)
//!   seam: a migration-arrival event can be postponed on the wire without
//!   the cluster ever knowing.
//!
//! On top of the usual timing metrics the faulty run keeps the
//! *degradation ledger*: crashed-server seconds (availability), orphan
//! waiting time (SLA), energy burned while leaderless or on aborted wake
//! transitions (wasted energy), and the recovery protocol's own counters.
//!
//! An **empty plan is a no-op**: the injector draws nothing and the
//! interceptor always delivers, so the report's `timed.base` equals
//! [`Cluster::run`](ecolb_cluster::cluster::Cluster::run)'s report of the
//! same seed byte for byte (asserted in this crate's tests and in the
//! workspace determinism suite).

use crate::inject::FaultInjector;
use crate::plan::{FaultEventKind, FaultPlan};
use crate::report::FaultyRunReport;
use ecolb_cluster::balance::MigrationRecord;
use ecolb_cluster::cluster::{Cluster, ClusterConfig};
use ecolb_cluster::server::ServerId;
use ecolb_cluster::sim::{RunRecorder, TimedRunReport};
use ecolb_metrics::summary::OnlineStats;
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_metrics::DegradationSummary;
use ecolb_simcore::engine::{Control, Disposition, Engine, RunOutcome, Scheduler};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_trace::{NoTrace, TraceEventKind, Tracer};
use ecolb_workload::application::AppId;

/// Events of the timed simulation: reallocation ticks, migration
/// arrivals, wake completions and scheduled faults.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSimEvent {
    /// End of a reallocation interval.
    ReallocationTick,
    /// A migrated VM image finished its transfer (the event the plan's
    /// message-delay family postpones on the wire).
    MigrationArrive {
        /// The application whose VM arrived.
        app: AppId,
        /// The receiving server.
        to: ServerId,
        /// Demand suspended while in flight.
        demand: f64,
    },
    /// A woken (or rebooting) server reaches C0.
    WakeComplete {
        /// The server that finished waking.
        server: ServerId,
    },
    /// A scheduled fault from the plan fires.
    Fault(FaultEventKind),
}

/// The timed, fault-injected event-driven cluster simulation.
#[derive(Debug)]
pub struct FaultyClusterSim {
    cluster: Cluster,
    seed: u64,
    intervals: u64,
    plan: FaultPlan,
}

struct SimState {
    cluster: Cluster,
    injector: FaultInjector,
    recorder: RunRecorder,
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

    /// [`FaultyClusterSim::run`] with a tracer: injection dispositions
    /// (dropped reports, delayed arrivals), scheduled crashes/recoveries
    /// and every cluster-interval event land in the trace. With
    /// [`NoTrace`] the run is structurally identical to
    /// [`FaultyClusterSim::run`].
    pub fn run_traced<T: Tracer>(self, tracer: &mut T) -> FaultyRunReport {
        let n_servers = self.cluster.config().n_servers;
        let realloc_interval = self.cluster.config().realloc_interval;
        let horizon = SimTime::ZERO + mul_interval(realloc_interval, self.intervals);
        let plan_is_empty = self.plan.is_empty();

        // Pre-size the queue for the tick plus a typical interval's burst
        // of in-flight migration/wake events; the dispatch loop then never
        // reallocates it.
        let mut engine: Engine<FaultSimEvent> = Engine::with_capacity(64);
        let recorder = RunRecorder::new(&self.cluster, self.intervals);
        if !recorder.done() {
            engine.schedule_at(
                SimTime::ZERO + realloc_interval,
                FaultSimEvent::ReallocationTick,
            );
        }
        // Faults beyond the simulated horizon can never be observed by a
        // report; dropping them keeps the engine drain bounded.
        for ev in &self.plan.events {
            if ev.at <= horizon {
                engine.schedule_at(ev.at, FaultSimEvent::Fault(ev.kind));
            }
        }

        let mut state = SimState {
            injector: FaultInjector::new(&self.plan, n_servers),
            cluster: self.cluster,
            recorder,
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
        };

        let outcome = engine.run_intercepted_traced(
            &mut state,
            tracer,
            |state, _now, ev| match ev {
                FaultSimEvent::MigrationArrive { to, .. } => {
                    state.injector.arrival_disposition(*to)
                }
                _ => Disposition::Deliver,
            },
            |state, sched, event| match event {
                FaultSimEvent::ReallocationTick => {
                    let now = sched.now();
                    let was_leaderless = state.cluster.leaderless();
                    let SimState {
                        cluster, injector, ..
                    } = state;
                    let outcome = cluster.run_interval_traced(injector, sched.tracer());

                    // Degradation ledger: energy burned during a
                    // leaderless interval is wasted (no balancing could
                    // act on it), and every aborted wake cycle pays the
                    // full transition energy with nothing to show.
                    let energy_now =
                        state.cluster.energy().total_j() + state.cluster.migration_energy_j();
                    let mut wasted = if was_leaderless {
                        energy_now - state.prev_energy_j
                    } else {
                        0.0
                    };
                    state.prev_energy_j = energy_now;
                    for &failed in &outcome.wake_failures {
                        let cstate = state.cluster.servers()[failed.index()].cstate();
                        wasted += state.cluster.config().sleep.failed_wake_energy_j(cstate);
                    }
                    state.wasted_energy.push(wasted);

                    // Timed effects of this interval's decisions: every VM
                    // transfer (scaling + protocol) becomes an arrival
                    // event. `MigrationRecord` is `Copy`, so an index loop
                    // sidesteps both the borrow conflict and a copy of the
                    // whole record list.
                    for r in 0..state.cluster.interval_migrations().len() {
                        let rec = state.cluster.interval_migrations()[r];
                        schedule_arrival(state, sched, &rec);
                    }
                    for &woken in &outcome.woken {
                        if let Some(ready) = state.cluster.servers()[woken.index()].wake_ready_at()
                        {
                            state.wake_latency_s.push((ready - now).as_secs_f64());
                            sched.schedule_at(ready, FaultSimEvent::WakeComplete { server: woken });
                        }
                    }

                    state
                        .recorder
                        .end_tick(&state.cluster, sched, FaultSimEvent::ReallocationTick)
                }
                FaultSimEvent::MigrationArrive { .. } => {
                    state.in_flight -= 1;
                    Control::Continue
                }
                FaultSimEvent::WakeComplete { .. } => Control::Continue,
                FaultSimEvent::Fault(kind) => {
                    // Past the final tick no report observes the fault.
                    if !state.recorder.done() {
                        apply_fault(state, sched, kind, sched.now());
                    }
                    Control::Continue
                }
            },
        );
        debug_assert!(matches!(outcome, RunOutcome::Stopped | RunOutcome::Drained));

        let end = state.cluster.now();
        let elapsed = end.as_secs_f64();
        // Close any crash-stop windows still open at the end of the run
        // and clamp crash-recover reboots that outlived the horizon.
        for slot in &mut state.crash_start {
            if let Some(start) = slot.take() {
                state.closed_windows.push((start, end));
            }
        }
        let crashed_server_seconds: f64 = state
            .closed_windows
            .iter()
            .map(|&(down, up)| up.min(end).saturating_sub(down).as_secs_f64())
            .sum();

        let base = state.recorder.finish(&state.cluster);
        let recovery = state.cluster.recovery_stats();
        let wasted_energy_j: f64 = state.wasted_energy.values().iter().sum();
        let availability = if elapsed > 0.0 && n_servers > 0 {
            1.0 - crashed_server_seconds / (n_servers as f64 * elapsed)
        } else {
            1.0
        };
        let tau_s = realloc_interval.as_secs_f64();
        let degradation = DegradationSummary {
            availability,
            sla_violation_seconds: base.saturation_violations as f64 * tau_s
                + state.orphan_downtime_seconds,
            failed_consolidations: recovery.failed_consolidations,
            wasted_energy_j,
            lost_reports: recovery.reports_abandoned,
        };

        FaultyRunReport {
            timed: TimedRunReport {
                base,
                downtime_demand_seconds: state.downtime_demand_seconds,
                transfer_time_s: state.transfer_time_s,
                wake_latency_s: state.wake_latency_s,
                max_in_flight: state.max_in_flight,
                events_processed: engine.events_processed(),
            },
            degradation,
            recovery,
            injection: state.injector.stats(),
            wasted_energy_series: state.wasted_energy,
            crashed_server_seconds,
            orphan_downtime_seconds: state.orphan_downtime_seconds,
            leader_epoch: state.cluster.leader_epoch(),
            leader_host: state.cluster.leader_host(),
            realloc_interval_seconds: tau_s,
            seed: self.seed,
            plan_was_empty: plan_is_empty,
        }
    }
}

/// `interval × count` without floating-point round trips.
fn mul_interval(interval: SimDuration, count: u64) -> SimDuration {
    SimDuration::from_ticks(interval.ticks().saturating_mul(count))
}

fn schedule_arrival<T: Tracer>(
    state: &mut SimState,
    sched: &mut Scheduler<'_, FaultSimEvent, T>,
    rec: &MigrationRecord,
) {
    state.in_flight += 1;
    state.max_in_flight = state.max_in_flight.max(state.in_flight);
    let transfer = rec.cost.duration;
    state.transfer_time_s.push(transfer.as_secs_f64());
    state.downtime_demand_seconds += rec.demand * transfer.as_secs_f64();
    sched.schedule_in(
        transfer,
        FaultSimEvent::MigrationArrive {
            app: rec.app,
            to: rec.to,
            demand: rec.demand,
        },
    );
}

fn apply_fault<T: Tracer>(
    state: &mut SimState,
    sched: &mut Scheduler<'_, FaultSimEvent, T>,
    kind: FaultEventKind,
    now: SimTime,
) {
    match kind {
        FaultEventKind::ServerCrash {
            server,
            recover_after,
        } => {
            sched.tracer().event(
                now.ticks(),
                TraceEventKind::FaultInjected {
                    fault: "server_crash",
                    server: server.0,
                },
            );
            apply_crash(state, sched, server, recover_after, now)
        }
        FaultEventKind::LeaderCrash { recover_after } => {
            let leader = state.cluster.leader_host();
            sched.tracer().event(
                now.ticks(),
                TraceEventKind::FaultInjected {
                    fault: "leader_crash",
                    server: leader.0,
                },
            );
            apply_crash(state, sched, leader, recover_after, now);
        }
        FaultEventKind::ServerRecover { server } => {
            if let Some(ready) = state.cluster.recover_server(server, now) {
                sched.tracer().event(
                    now.ticks(),
                    TraceEventKind::ServerRecovered { server: server.0 },
                );
                if let Some(start) = state.crash_start[server.index()].take() {
                    state.closed_windows.push((start, ready));
                }
                state.wake_latency_s.push((ready - now).as_secs_f64());
                sched.schedule_at(ready, FaultSimEvent::WakeComplete { server });
            }
        }
    }
}

fn apply_crash<T: Tracer>(
    state: &mut SimState,
    sched: &mut Scheduler<'_, FaultSimEvent, T>,
    server: ServerId,
    recover_after: Option<SimDuration>,
    now: SimTime,
) {
    if state.cluster.servers()[server.index()].is_crashed() {
        return;
    }
    sched.tracer().event(
        now.ticks(),
        TraceEventKind::ServerCrashed { server: server.0 },
    );
    let orphans = state.cluster.crash_server(server, now);
    // Orphans wait in the admission queue until the next reallocation
    // tick; that waiting time is SLA-violation time.
    let tau = state.cluster.config().realloc_interval.ticks().max(1);
    let next_tick = SimTime::from_ticks(now.ticks().div_ceil(tau).saturating_mul(tau));
    state.orphan_downtime_seconds +=
        orphans.len() as f64 * next_tick.saturating_sub(now).as_secs_f64();
    state.cluster.readmit_orphans(orphans);
    state.crash_start[server.index()] = Some(now);
    if let Some(delay) = recover_after {
        sched.schedule_in(
            delay,
            FaultSimEvent::Fault(FaultEventKind::ServerRecover { server }),
        );
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
}
