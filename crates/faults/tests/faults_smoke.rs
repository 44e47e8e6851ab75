//! End-to-end acceptance scenarios for the fault-injection subsystem.

use ecolb_cluster::cluster::{Cluster, ClusterConfig};
use ecolb_cluster::server::ServerId;
use ecolb_faults::{CompareWithFaulty, FaultPlan, FaultyClusterSim};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::generator::WorkloadSpec;

fn config(n: usize) -> ClusterConfig {
    ClusterConfig::paper(n, WorkloadSpec::paper_low_load())
}

/// The determinism contract: an empty plan is a *structural* no-op — the
/// capacity report, energy included, is identical to the engine-free
/// synchronous driver's, and nothing degrades.
#[test]
fn empty_plan_run_is_byte_identical_to_the_plain_sim() {
    for seed in [1u64, 42, 1337] {
        let plain = Cluster::new(config(60), seed).run(15);
        let faulty = FaultyClusterSim::new(config(60), seed, 15, FaultPlan::empty(seed)).run();
        assert_eq!(plain, faulty.timed.base, "seed {seed} diverged");
        assert!(faulty.plan_was_empty);
        assert_eq!(faulty.degradation.availability, 1.0);
        assert!(!faulty.degradation.is_degraded());
        assert_eq!(faulty.leader_epoch, 0);
        assert_eq!(faulty.crashed_server_seconds, 0.0);
    }
}

/// The acceptance scenario from the issue: crash the leader mid-run.
/// The cluster must detect the silence, fail over to the lowest-id live
/// server, rebuild the directory, and keep running — at a measurable
/// degradation cost.
#[test]
fn leader_crash_completes_failover_and_records_degradation() {
    let plan = FaultPlan::empty(9).with_leader_crash(
        SimTime::from_secs(15 * 300 / 2), // midpoint of a 15-interval run
        None,
    );
    let faulty = FaultyClusterSim::new(config(60), 9, 15, plan).run();

    // Failover completed: new epoch, new leader host, an election on the
    // wire, and the bootstrap host (server 0) is out.
    assert!(faulty.recovery.failovers >= 1, "no failover happened");
    assert!(faulty.leader_epoch >= 1);
    assert_ne!(faulty.leader_host, ServerId(0));
    assert!(faulty.recovery.heartbeats_missed >= 1);

    // The crash-stop host costs availability for the rest of the run,
    // and the leaderless detection window loses consolidation work.
    assert!(faulty.degradation.availability < 1.0);
    assert!(faulty.recovery.leaderless_intervals >= 1);
    assert!(
        faulty.degradation.failed_consolidations > 0,
        "leaderless intervals should strand undesirable servers"
    );
    assert!(faulty.degradation.wasted_energy_j > 0.0);

    // The directory was rebuilt: the cluster keeps balancing after the
    // failover, so the run still ends with sleeping servers (the
    // low-load consolidation signature).
    assert!(faulty.timed.base.sleeping_series.values().last().copied() > Some(0.0));
}

/// Crash-recover: the host comes back through the C6 reboot path and the
/// downtime window is bounded by the repair time, not the run length.
#[test]
fn crashed_host_recovers_and_rejoins() {
    let plan = FaultPlan::empty(3).with_server_crash(
        SimTime::from_secs(900),
        ServerId(5),
        Some(SimDuration::from_secs(600)),
    );
    let faulty = FaultyClusterSim::new(config(40), 17, 12, plan).run();
    assert_eq!(faulty.recovery.servers_crashed, 1);
    assert_eq!(faulty.recovery.servers_recovered, 1);
    assert!(faulty.degradation.availability < 1.0);
    // Bounded window: 600 s down + 200 s C6 reboot out of 40 × 3600
    // server-seconds.
    let expected_unavailability = 800.0 / (40.0 * 3600.0);
    assert!(
        (1.0 - faulty.degradation.availability - expected_unavailability).abs() < 1e-9,
        "availability {}",
        faulty.degradation.availability
    );
}

/// 1 % message loss: the retry protocol absorbs almost all of it (three
/// attempts per report), the run stays deterministic, and the capacity
/// decisions degrade gracefully rather than collapse.
#[test]
fn one_percent_message_loss_is_absorbed_by_retries() {
    let mk = || FaultPlan::empty(23).with_message_loss(0.01);
    let a = FaultyClusterSim::new(config(60), 23, 15, mk()).run();
    let b = FaultyClusterSim::new(config(60), 23, 15, mk()).run();
    assert_eq!(a, b, "lossy run must be deterministic");

    assert!(
        a.recovery.reports_lost > 0,
        "1% over 900 reports should drop some"
    );
    assert!(a.recovery.report_retries > 0);
    assert!(a.recovery.retry_backoff_seconds > 0.0);
    // p(lose all 3 attempts) = 1e-6 — abandonment should be rare/absent.
    assert!(a.recovery.reports_abandoned <= a.recovery.reports_lost / 3 + 1);
    // The protocol held: no failover, full availability.
    assert_eq!(a.recovery.failovers, 0);
    assert_eq!(a.degradation.availability, 1.0);
}

/// The faulty-vs-fault-free diff on the same seed: the headline
/// comparison EXPERIMENTS.md publishes.
#[test]
fn fault_impact_diff_against_the_same_seed_baseline() {
    let baseline = FaultyClusterSim::new(config(60), 31, 15, FaultPlan::empty(31))
        .run()
        .timed;
    assert_eq!(baseline.base, Cluster::new(config(60), 31).run(15));

    let empty = FaultyClusterSim::new(config(60), 31, 15, FaultPlan::empty(7)).run();
    let none = baseline.fault_impact(&empty);
    assert_eq!(none.energy_overhead_fraction, 0.0);
    assert_eq!(none.availability, 1.0);
    assert_eq!(none.failed_consolidations, 0);

    let plan = FaultPlan::empty(31).with_leader_crash(SimTime::from_secs(2250), None);
    let crashed = FaultyClusterSim::new(config(60), 31, 15, plan).run();
    let impact = baseline.fault_impact(&crashed);
    assert!(impact.availability < 1.0);
    assert!(impact.failed_consolidations > 0);
}
