//! Cross-crate integration tests for the extension subsystems: the timed
//! (event-driven) simulation, admission control, federation, DVFS, and
//! heterogeneous server mixes.

use ecolb::prelude::*;
use ecolb_faults::{FaultPlan, FaultyClusterSim};

/// A fault-free timed run: the timed cluster driver on an empty plan.
fn timed(config: ClusterConfig, seed: u64, intervals: u64) -> TimedRunReport {
    FaultyClusterSim::new(config, seed, intervals, FaultPlan::empty(seed))
        .run()
        .timed
}

// ---------------------------------------------------------------------------
// Timed simulation
// ---------------------------------------------------------------------------

#[test]
fn timed_sim_agrees_with_synchronous_cluster_at_scale() {
    let config = ClusterConfig::paper(150, WorkloadSpec::paper_high_load());
    let timed = timed(config.clone(), 77, 20);
    let mut sync = Cluster::new(config, 77);
    let report = sync.run(20);
    assert_eq!(timed.base, report);
}

#[test]
fn zero_interval_runs_return_the_empty_report() {
    // `intervals = 0` schedules no tick: every driver returns the
    // untouched cluster's census with empty series, and the engine-driven
    // ones process no event at all.
    use ecolb_serve::picker::PickerKind;
    use ecolb_serve::sim::{ServeConfig, ServeSim};

    type Driver = fn(ClusterConfig) -> (ClusterRunReport, u64);
    let drivers: [(&str, Driver); 3] = [
        ("Cluster::run", |c| (Cluster::new(c, 3).run(0), 0)),
        ("FaultyClusterSim", |c| {
            let r = FaultyClusterSim::new(c, 3, 0, FaultPlan::empty(3)).run();
            (r.timed.base, r.timed.events_processed)
        }),
        ("ServeSim", |c| {
            let r = ServeSim::new(ServeConfig::paper(c, PickerKind::RoundRobin, 0), 3).run();
            (r.base, r.events_processed)
        }),
    ];
    let config = || ClusterConfig::paper(20, WorkloadSpec::paper_low_load());
    let census = Cluster::new(config(), 3).census();
    for (name, run) in drivers {
        let (report, events) = run(config());
        assert_eq!(events, 0, "{name} processed events");
        assert_eq!(report.initial_census, census, "{name}");
        assert_eq!(report.final_census, census, "{name}");
        assert_eq!(report.ratio_series.len(), 0, "{name}");
        assert_eq!(report.sleeping_series.len(), 0, "{name}");
        assert_eq!(report.load_series.len(), 0, "{name}");
        assert_eq!(report.migrations, 0, "{name}");
        assert_eq!(report.reference_energy_j, 0.0, "{name}");
    }
}

#[test]
fn timed_sim_measures_wake_latencies_when_wakes_happen() {
    // Force wakes: strict admission on a cluster with sleepers.
    let mut config = ClusterConfig::paper(100, WorkloadSpec::paper_low_load());
    config.arrivals = Some(ArrivalSpec::new(4.0, 0.10, 0.25));
    config.admission = AdmissionPolicy::DelayAndWake {
        wakes_per_interval: 2,
    };
    let timed = timed(config, 5, 30);
    // Sleepers exist at 30 % load; sustained arrivals should trigger at
    // least some admission wakes whose latency the timed layer observes
    // via events (the controller's wakes are tracked by admission stats).
    assert!(timed.base.admission.submitted > 0);
}

#[test]
fn slower_network_increases_downtime_not_decisions() {
    let fast_cfg = ClusterConfig::paper(120, WorkloadSpec::paper_low_load());
    let mut slow_cfg = fast_cfg.clone();
    slow_cfg.migration.link_gbps = 1.0; // 10× slower fabric
    let fast = timed(fast_cfg, 9, 15);
    let slow = timed(slow_cfg, 9, 15);
    // Same decision sequence (costs don't influence placement)…
    assert_eq!(fast.base.decision_totals, slow.base.decision_totals);
    // …but transfers take longer, so interruption grows.
    if fast.base.migrations > 0 {
        assert!(slow.downtime_demand_seconds > fast.downtime_demand_seconds);
        assert!(slow.transfer_time_s.mean() > fast.transfer_time_s.mean());
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[test]
fn arrival_stream_grows_the_cluster_load() {
    let mut with = ClusterConfig::paper(100, WorkloadSpec::paper_low_load());
    with.arrivals = Some(ArrivalSpec::new(5.0, 0.05, 0.15));
    let mut without = ClusterConfig::paper(100, WorkloadSpec::paper_low_load());
    without.arrivals = None;

    let mut a = Cluster::new(with, 11);
    let ra = a.run(20);
    let mut b = Cluster::new(without, 11);
    let rb = b.run(20);

    assert!(ra.admission.submitted > 0);
    assert!(ra.admission.admitted > 0);
    assert_eq!(rb.admission.submitted, 0);
    let last = |r: &ClusterRunReport| *r.load_series.values().last().unwrap();
    assert!(
        last(&ra) > last(&rb) + 0.05,
        "arrivals raise the load: {} vs {}",
        last(&ra),
        last(&rb)
    );
}

#[test]
fn threshold_admission_rejects_under_pressure() {
    let mut config = ClusterConfig::paper(60, WorkloadSpec::paper_high_load());
    config.arrivals = Some(ArrivalSpec::new(8.0, 0.10, 0.25));
    config.admission = AdmissionPolicy::CapacityThreshold { max_load: 0.65 };
    let mut cluster = Cluster::new(config, 13);
    let report = cluster.run(30);
    assert!(
        report.admission.rejected > 0,
        "a hot cluster under heavy arrivals must reject: {:?}",
        report.admission
    );
    // The threshold protects the cluster: load stays bounded.
    let max_load = report
        .load_series
        .values()
        .iter()
        .copied()
        .fold(0.0_f64, f64::max);
    assert!(
        max_load < 0.95,
        "admission control caps the load, saw {max_load}"
    );
}

#[test]
fn delay_and_wake_admits_more_than_threshold_rejects() {
    let base = {
        let mut c = ClusterConfig::paper(100, WorkloadSpec::paper_low_load());
        c.arrivals = Some(ArrivalSpec::new(6.0, 0.10, 0.25));
        c
    };
    let mut strict = base.clone();
    strict.admission = AdmissionPolicy::CapacityThreshold { max_load: 0.40 };
    let mut waking = base.clone();
    waking.admission = AdmissionPolicy::DelayAndWake {
        wakes_per_interval: 3,
    };

    let rs = Cluster::new(strict, 17).run(30);
    let rw = Cluster::new(waking, 17).run(30);
    assert!(rw.admission.admitted >= rs.admission.admitted);
    assert_eq!(rw.admission.rejected, 0, "delay-and-wake never rejects");
}

// ---------------------------------------------------------------------------
// Federation
// ---------------------------------------------------------------------------

#[test]
fn federation_narrows_the_load_spread() {
    let configs = vec![
        ClusterConfig::paper(80, WorkloadSpec::paper_high_load()),
        ClusterConfig::paper(80, WorkloadSpec::paper_low_load()),
    ];
    let fed_config = FederationConfig {
        high_watermark: 0.60,
        ..Default::default()
    };
    let mut fed = Federation::new(configs, fed_config, 23);
    let report = fed.run(25);
    assert!(report.cross_migrations > 0);
    let spread = report.load_spread.values();
    assert!(
        spread.last().unwrap() < &0.25,
        "spread should converge, got {:?}",
        spread.last()
    );
}

#[test]
fn federation_cross_moves_cost_more_than_local_ones() {
    let fed_config = FederationConfig::default();
    let intra = MigrationCostModel::default();
    let app =
        ecolb::workload::application::Application::new(ecolb::workload::AppId(0), 0.2, 0.01, 8.0);
    assert!(
        fed_config.inter_cluster_network.cost_of(&app).energy_j > intra.cost_of(&app).energy_j,
        "q_inter > q_intra"
    );
}

// ---------------------------------------------------------------------------
// DVFS
// ---------------------------------------------------------------------------

#[test]
fn dvfs_governed_cpu_is_a_valid_cluster_power_model() {
    let dvfs = DvfsGoverned {
        model: DvfsModel::typical_server_cpu(),
    };
    // Sanity across the PowerModel trait surface.
    assert!(dvfs.idle_power_w() > 0.0);
    assert!(dvfs.peak_power_w() > dvfs.idle_power_w());
    assert!((0.0..=1.0).contains(&dvfs.normalized_energy(0.5)));
    assert!(dvfs.optimal_utilization() > 0.0);
}

#[test]
fn dvfs_sweet_spot_beats_extremes_under_static_power() {
    let m = DvfsModel::typical_server_cpu();
    let best = m.most_efficient_f();
    assert!(m.energy_per_op(best) <= m.energy_per_op(m.f_min_ghz));
    assert!(m.energy_per_op(best) <= m.energy_per_op(m.f_max_ghz));
}

// ---------------------------------------------------------------------------
// Heterogeneous mixes
// ---------------------------------------------------------------------------

#[test]
fn enterprise_mix_burns_more_than_all_volume() {
    let mut hetero = ClusterConfig::paper(150, WorkloadSpec::paper_low_load());
    hetero.server_mix = ServerMix::typical_enterprise();
    let homo = ClusterConfig::paper(150, WorkloadSpec::paper_low_load());

    let rh = Cluster::new(hetero, 31).run(15);
    let rv = Cluster::new(homo, 31).run(15);
    assert!(
        rh.energy.total_j() > rv.energy.total_j(),
        "mid/high-end servers raise the bill: {} vs {}",
        rh.energy.total_j(),
        rv.energy.total_j()
    );
}

#[test]
fn energy_by_class_partitions_the_total() {
    let mut config = ClusterConfig::paper(120, WorkloadSpec::paper_low_load());
    config.server_mix = ServerMix::typical_enterprise();
    let mut cluster = Cluster::new(config, 37);
    cluster.run(10);
    let by_class: f64 = cluster.energy_by_class().iter().map(|&(_, j)| j).sum();
    let total = cluster.energy().total_j();
    assert!(
        (by_class - total).abs() < 1e-6,
        "class split {by_class} vs total {total}"
    );
    assert_eq!(cluster.server_classes().len(), 120);
}
