//! End-to-end determinism: the whole point of carrying our own PRNG is
//! that a seed fully determines every experiment artifact.

use ecolb::experiments::{run_cell, run_matrix, LoadLevel};
use ecolb::prelude::*;

#[test]
fn identical_seeds_give_bit_identical_matrices() {
    let a = run_matrix(99, &[50, 120], 12);
    let b = run_matrix(99, &[50, 120], 12);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = run_cell(1, 80, LoadLevel::Low, 10);
    let b = run_cell(2, 80, LoadLevel::Low, 10);
    assert_ne!(a.report.ratio_series, b.report.ratio_series);
}

#[test]
fn cells_are_independent_of_matrix_composition() {
    // A cell's result must not depend on which other cells ran before it.
    let solo = run_cell(7, 60, LoadLevel::High, 8);
    let matrix = run_matrix(7, &[30, 60], 8);
    let from_matrix = matrix
        .iter()
        .find(|c| c.size == 60 && c.load == LoadLevel::High)
        .expect("cell present");
    assert_eq!(&solo, from_matrix);
}

#[test]
fn cluster_clone_runs_identically() {
    let config = ClusterConfig::paper(60, WorkloadSpec::paper_low_load());
    let mut original = Cluster::new(config, 5);
    let mut fork = original.clone();
    assert_eq!(
        original.run(10),
        fork.run(10),
        "cloned state must replay identically"
    );
}

#[test]
fn policy_farm_is_deterministic() {
    let config = FarmConfig::default();
    let shape = TraceShape::Diurnal {
        base: 3000.0,
        amplitude: 2000.0,
        period: 300.0,
    };
    let rates = presample_rates(shape.clone(), 4, 400);
    let sizing = Sizing::new(config.per_server_rate, config.sla);
    let run = || {
        let arrivals = ArrivalProcess::new(
            TraceGenerator::new(shape.clone(), 4),
            8,
            config.step_seconds,
        );
        evaluate(Reactive { sizing }, arrivals, &rates, &config, 400)
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_matrix_is_byte_identical_at_any_thread_count() {
    // The hermetic `ecolb_simcore::par` fan-out must not perturb results:
    // every cell is seeded from its (base_seed, size, load) alone, and
    // results are reassembled in input order. Rendered reports — the
    // actual artifacts under `results/` — must match byte for byte.
    use ecolb_bench::run_matrix_threads;
    use ecolb_metrics::json::ToJson;

    let runs: Vec<Vec<ecolb::experiments::MatrixCell>> = [1, 2, 8]
        .iter()
        .map(|&t| run_matrix_threads(11, &[30, 60], 6, t))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[0], runs[2], "1 vs 8 threads");
    let json_of = |cells: &[ecolb::experiments::MatrixCell]| -> String {
        cells
            .iter()
            .map(|c| {
                let mut r = Report::new(format!("size{}_load{}", c.size, c.load.percent()), 11);
                r.push_series(c.report.ratio_series.clone());
                r.push_series(c.report.sleeping_series.clone());
                ToJson::to_json(&r)
            })
            .collect()
    };
    assert_eq!(
        json_of(&runs[0]),
        json_of(&runs[2]),
        "rendered reports byte-identical"
    );
}

#[test]
fn multi_seed_sweep_is_byte_identical_at_any_thread_count() {
    use ecolb_bench::sweep::{multi_seed_table2, render_sweep};
    let renders: Vec<String> = [1, 2, 8]
        .iter()
        .map(|&t| render_sweep(&multi_seed_table2(&[3, 4], &[40], 5, t), 2))
        .collect();
    assert_eq!(renders[0], renders[1], "1 vs 2 workers");
    assert_eq!(renders[0], renders[2], "1 vs 8 workers");
}

#[test]
fn empty_fault_plan_is_byte_identical_at_any_thread_count() {
    // The fault-injection layer's no-op contract, end to end: running the
    // timed simulation through `FaultyClusterSim` with an empty plan must
    // reproduce the engine-free `Cluster::run` report *byte for byte* —
    // at any `par` fan-out width — so the engine and the fault seams
    // (hooked balance rounds, intercepted engine loop) provably change
    // no capacity decision.
    use ecolb_faults::{FaultPlan, FaultyClusterSim};
    use ecolb_metrics::json::ToJson;
    use ecolb_simcore::par::map_indexed;

    let seeds: Vec<u64> = vec![2, 19, 77, 2014];
    let config = || ClusterConfig::paper(40, WorkloadSpec::paper_low_load());
    let plain: Vec<ClusterRunReport> = seeds
        .iter()
        .map(|&s| Cluster::new(config(), s).run(8))
        .collect();

    let render = |r: &ClusterRunReport, seed: u64| -> String {
        let mut rep = Report::new(format!("faultfree_seed{seed}"), seed);
        rep.scalar("energy_j", r.energy.total_j())
            .scalar("migrations", r.migrations as f64)
            .scalar("savings_fraction", r.savings_fraction())
            .push_series(r.ratio_series.clone())
            .push_series(r.sleeping_series.clone());
        ToJson::to_json(&rep)
    };

    for threads in [1usize, 2, 8] {
        let faulty = map_indexed(seeds.clone(), threads, |_, s| {
            FaultyClusterSim::new(config(), s, 8, FaultPlan::empty(s)).run()
        });
        for ((f, p), &seed) in faulty.iter().zip(&plain).zip(&seeds) {
            assert_eq!(
                &f.timed.base, p,
                "seed {seed} at {threads} threads diverged"
            );
            assert_eq!(
                render(&f.timed.base, seed),
                render(p, seed),
                "rendered report differs at {threads} threads"
            );
            assert!(f.plan_was_empty);
            assert_eq!(f.degradation.availability, 1.0);
        }
    }
}

#[test]
fn fault_plans_are_deterministic_and_seed_sensitive() {
    use ecolb_faults::{FaultPlan, FaultyClusterSim};
    use ecolb_simcore::time::SimTime;

    let config = || ClusterConfig::paper(40, WorkloadSpec::paper_low_load());
    let plan = |seed: u64| {
        FaultPlan::empty(seed)
            .with_message_loss(0.02)
            .with_leader_crash(SimTime::from_secs(1200), None)
    };
    let a = FaultyClusterSim::new(config(), 7, 8, plan(7)).run();
    let b = FaultyClusterSim::new(config(), 7, 8, plan(7)).run();
    assert_eq!(a, b, "same seed, same plan: must replay bit-identically");

    let c = FaultyClusterSim::new(config(), 7, 8, plan(8)).run();
    assert_ne!(
        a.recovery, c.recovery,
        "different fault seed should change the loss pattern"
    );
}

#[test]
fn rng_streams_are_stable_across_versions() {
    // Pin the generator output: if this test ever fails, every recorded
    // experiment result in EXPERIMENTS.md is invalidated and must be
    // regenerated deliberately.
    let mut rng = Rng::new(20140109);
    let outputs: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    assert_eq!(
        outputs,
        vec![
            9715365274293546859,
            999744840796493626,
            10885422128808924327
        ]
    );
}
