//! Golden-trace regression: the full event log of a reference run is
//! pinned byte-for-byte.
//!
//! The trace layer's determinism contract is stronger than "same report
//! bytes": the *order* of every event, the sim-time stamp on each, and
//! the counter/span aggregates must all replay identically — at any
//! `par` fan-out width, since traces are recorded per-run and never
//! shared across workers. The golden file lives at
//! `tests/golden/trace_seed20140109.json`; regenerate it deliberately
//! with:
//!
//! ```text
//! ECOLB_BLESS=1 cargo test --test golden_trace
//! ```

use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::cluster::ClusterConfig;
use ecolb_faults::{FaultPlan, FaultyClusterSim};
use ecolb_metrics::json::ToJson;
use ecolb_simcore::par::map_indexed;
use ecolb_trace::{NoTrace, RingTracer, TraceSnapshot};
use ecolb_workload::generator::WorkloadSpec;

const SERVERS: usize = 24;
const INTERVALS: u64 = 6;
const GOLDEN_PATH: &str = "tests/golden/trace_seed20140109.json";

fn config() -> ClusterConfig {
    ClusterConfig::paper(SERVERS, WorkloadSpec::paper_low_load())
}

/// The reference run: the timed cluster driver on an empty fault plan.
fn sim(seed: u64) -> FaultyClusterSim {
    FaultyClusterSim::new(config(), seed, INTERVALS, FaultPlan::empty(seed))
}

fn traced_snapshot(seed: u64) -> TraceSnapshot {
    let mut tracer = RingTracer::new();
    let _ = sim(seed).run_traced(&mut tracer);
    tracer.snapshot("golden", seed)
}

fn golden_bytes() -> String {
    std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden trace missing — bless it with \
         `ECOLB_BLESS=1 cargo test --test golden_trace`",
    )
}

#[test]
fn golden_trace_is_byte_identical_at_any_thread_count() {
    let rendered = traced_snapshot(DEFAULT_SEED).to_json();

    // ecolb-lint: allow(no-env-reads, "deliberate bless seam for regenerating the golden file")
    if std::env::var_os("ECOLB_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden trace");
        eprintln!("blessed {GOLDEN_PATH} ({} bytes)", rendered.len());
        return;
    }

    let golden = golden_bytes();
    assert_eq!(
        rendered, golden,
        "trace diverged from {GOLDEN_PATH}; if the change is intended, \
         re-bless with ECOLB_BLESS=1"
    );

    // The same traced run inside the hermetic `par` fan-out, at every
    // supported width: worker scheduling must never leak into a trace.
    for threads in [1usize, 2, 8] {
        let snapshots = map_indexed(vec![DEFAULT_SEED; threads], threads, |_, seed| {
            traced_snapshot(seed).to_json()
        });
        for (worker, json) in snapshots.iter().enumerate() {
            assert_eq!(
                json, &golden,
                "worker {worker} of {threads} produced a different trace"
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_report() {
    // Structural no-op contract, end to end: the report of a traced run
    // equals the untraced one bit for bit — with the sealed `NoTrace`
    // *and* with a recording `RingTracer` (observation must not steer).
    let plain = sim(DEFAULT_SEED).run();
    let with_notrace = sim(DEFAULT_SEED).run_traced(&mut NoTrace);
    assert_eq!(plain, with_notrace, "NoTrace changed the report");

    let mut tracer = RingTracer::new();
    let with_ring = sim(DEFAULT_SEED).run_traced(&mut tracer);
    assert_eq!(plain, with_ring, "RingTracer changed the report");
    assert!(tracer.recorded() > 0, "the ring actually recorded events");
}

#[test]
fn golden_comparison_catches_a_single_event_reorder() {
    // The golden check must be order-sensitive, not just set-sensitive:
    // swapping one adjacent pair of events (keeping their payloads and
    // timestamps intact) has to break the byte comparison.
    let mut snapshot = traced_snapshot(DEFAULT_SEED);
    assert!(
        snapshot.events.len() >= 2,
        "need at least two events to reorder"
    );
    let mid = snapshot.events.len() / 2;
    snapshot.events.swap(mid - 1, mid);
    let mutated = snapshot.to_json();
    assert_ne!(
        mutated,
        golden_bytes(),
        "golden comparison failed to detect an event reorder"
    );
}
