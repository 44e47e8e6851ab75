//! Runs one traced timed-cluster simulation and renders the trace: a
//! per-server regime timeline, the per-interval decision ledger (the
//! vertical-vs-horizontal metric behind Figure 4), and the span/counter
//! aggregates. The raw snapshot is written as deterministic JSON.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin trace_dump \
//!     [--seed N] [--servers N] [--intervals N] [--out DIR]
//! ```

use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_faults::{FaultPlan, FaultyClusterSim};
use ecolb_metrics::json::ToJson;
use ecolb_trace::{DecisionLedgerView, RegimeTimeline, RingTracer};
use ecolb_workload::generator::WorkloadSpec;

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut servers: usize = 24;
    let mut intervals: u64 = 12;
    let mut out_dir = String::from("results/trace");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a u64");
            }
            "--servers" => {
                servers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--servers needs a usize");
            }
            "--intervals" => {
                intervals = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--intervals needs a u64");
            }
            "--out" => {
                out_dir = args.next().expect("--out needs a directory");
            }
            other => panic!(
                "unknown argument {other:?} \
                 (supported: --seed N --servers N --intervals N --out DIR)"
            ),
        }
    }

    let config = ClusterConfig::paper(servers, WorkloadSpec::paper_low_load());
    let mut tracer = RingTracer::new();
    let report = FaultyClusterSim::new(config, seed, intervals, FaultPlan::empty(seed))
        .run_traced(&mut tracer)
        .timed;

    let id = format!("trace_seed{seed}");
    let snapshot = tracer.snapshot(&id, seed);

    println!(
        "traced run: {servers} servers, {intervals} intervals, seed {seed} — \
         {} events recorded ({} dropped), {} engine events, {} migrations",
        snapshot.recorded, snapshot.dropped, report.events_processed, report.base.migrations,
    );
    println!();
    println!("Per-server regime timeline (rows: servers, cols: intervals, 1–5 = R1–R5):");
    print!(
        "{}",
        RegimeTimeline::from_events(&snapshot.events).render(30)
    );
    println!();
    println!("Decision ledger (in-cluster vs local scaling, the Fig. 4 metric):");
    print!(
        "{}",
        DecisionLedgerView::from_events(&snapshot.events).render()
    );
    println!();
    println!("Span aggregates (simulated time):");
    for s in &snapshot.spans {
        println!(
            "  {:<10} count {:>6}  total {:>12.1} s",
            s.name,
            s.count,
            s.total_us as f64 / 1e6
        );
    }
    println!("Counters:");
    for (name, value) in &snapshot.counters {
        println!("  {name:<28} {value}");
    }

    std::fs::create_dir_all(&out_dir).expect("create trace output directory");
    let path = format!("{out_dir}/{id}.json");
    std::fs::write(&path, snapshot.to_json()).expect("write trace snapshot");
    println!("wrote {path}");
}
