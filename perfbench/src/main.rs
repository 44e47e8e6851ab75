//! `ecolb-perfbench`: the repository's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, the metrics
//! and which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_paper --seed 20140109 --seconds 35 --trace 0
//! ```
//!
//! Every run checks the simulator's outputs and prints, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed check makes the whole
//! run count as failed and the process exit with code 1.

mod layers;
mod report;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use ecolb_cluster::cluster::Cluster;
use ecolb_cluster::recovery::{NoFaults, RecoveryConfig};
use ecolb_serve::picker::PickerKind;
use ecolb_serve::sim::{ServeReport, ServeSim};
use ecolb_trace::{InvariantChecker, NoTrace, RingTracer, Tracer};

use layers::Search;
use report::{median, peak_rss_mb, quantile, timed, Metrics};
use workloads::{
    protocol_config, replay_cluster, serve_config, serve_setup, ProtocolSim, Workload,
    PROTOCOL_INTERVALS,
};

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 20140109;
/// Seconds an end-to-end run lasts when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 35.0;
/// Set-ups timed before each timed instance of an end-to-end run, so
/// the set-up samples spread over the whole run; the median is reported.
const SETUPS_PER_INSTANCE: usize = 6;
/// Rounds of (untraced, ring-traced, checker-traced) runs in the traced
/// pass; overheads compare the medians.
const TRACE_ROUNDS: usize = 3;
/// Fleet sizes of the leader query curve.
const LEADER_CURVE: [usize; 3] = [400, 4000, 16000];
/// Fleet sizes of the protocol scaling curve.
const SCALING_CURVE: [usize; 3] = [400, 1000, 4000];

const USAGE: &str = "usage: ecolb-perfbench --workload <protocol_4k|serve_paper|serve_faulted> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The run's metrics, its failed checks and the operations it simulated.
#[derive(Default)]
struct Run {
    metrics: Metrics,
    failures: Vec<String>,
    attempted: u64,
}

impl Run {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();
    if args.trace {
        traced_pass(&args, &mut run);
    } else {
        end_to_end(&args, &mut run);
    }
    for name in run.metrics.non_finite() {
        run.failures
            .push(format!("metric {name} is not a finite number"));
    }
    let correct = run.failures.is_empty();
    let attempted = run.attempted.max(1);
    let failed = if correct { 0 } else { attempted };
    println!(
        "{} seed {} ({} pass)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end-to-end" }
    );
    print!("{}", run.metrics.table());
    for f in &run.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", run.metrics.result_line(correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Seeds of the run's workload instances: the run seed itself first,
/// then splitmix64 mixes of it, so two run seeds share no instance.
fn instance_seeds(w: Workload, seed: u64) -> Vec<u64> {
    (0..w.instances() as u64)
        .map(|i| {
            if i == 0 {
                return seed;
            }
            let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// What one workload instance simulated.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    /// The cluster side: read off the protocol run itself, or off the
    /// replay of a serve run's cluster.
    cluster: ProtocolSim,
    /// The serve report (serve workloads only).
    serve: Option<ServeReport>,
}

impl Outcome {
    /// Simulated operations: requests admitted, or server-intervals.
    fn ops(&self) -> u64 {
        self.serve
            .as_ref()
            .map_or(self.cluster.server_intervals, |r| r.requests_admitted)
    }

    /// Operations that did not succeed: requests rejected or failed,
    /// or server-intervals spent saturated.
    fn failed_ops(&self) -> u64 {
        self.serve.as_ref().map_or(self.cluster.saturated, |r| {
            r.requests_rejected + r.requests_failed
        })
    }

    /// Total simulated energy, joules: cluster plus migrations for the
    /// protocol; cluster plus serve-side charges for a serve run.
    fn energy_j(&self) -> f64 {
        self.serve
            .as_ref()
            .map_or(self.cluster.energy_j, ServeReport::total_energy_j)
    }
}

/// One simulated instance: its outcome, the host seconds of the
/// simulation proper, and the host seconds of each reallocation
/// interval (for a serve run, timed on the cluster replay).
struct Simulated {
    outcome: Outcome,
    wall_s: f64,
    interval_s: Vec<f64>,
}

/// Simulates one instance of `w` under `tracer`.
fn simulate<T: Tracer>(w: Workload, seed: u64, tracer: &mut T) -> Simulated {
    if w == Workload::Protocol4k {
        let mut cluster = Cluster::new(protocol_config(), seed);
        let mut interval_s = Vec::with_capacity(PROTOCOL_INTERVALS as usize);
        let mut awake = 0;
        for _ in 0..PROTOCOL_INTERVALS {
            let (_, wall) = timed(|| cluster.run_interval_traced(&mut NoFaults, tracer));
            interval_s.push(wall);
            awake += workloads::awake_count(&cluster);
        }
        return Simulated {
            outcome: Outcome {
                cluster: ProtocolSim::of(&cluster, awake),
                serve: None,
            },
            wall_s: interval_s.iter().sum(),
            interval_s,
        };
    }
    let cfg = serve_config(w, seed);
    let (report, wall_s) = timed(|| ServeSim::new(cfg.clone(), seed).run_traced(tracer));
    let (cluster, awake, interval_s) = replay_cluster(&cfg, seed);
    Simulated {
        outcome: Outcome {
            cluster: ProtocolSim::of(&cluster, awake),
            serve: Some(report),
        },
        wall_s,
        interval_s,
    }
}

/// The checks every instance must pass on its own.
fn check_outcome(run: &mut Run, w: Workload, seed: u64, o: &Outcome) {
    let (servers, intervals) = (w.servers(), w.intervals());
    run.check(
        o.cluster.server_intervals == servers as u64 * intervals,
        || {
            format!(
                "seed {seed}: simulated {} server-intervals",
                o.cluster.server_intervals
            )
        },
    );
    let Some(r) = &o.serve else { return };
    run.check(
        r.requests_admitted == r.requests_completed + r.requests_rejected + r.requests_failed,
        || format!("seed {seed}: requests not conserved: admitted {} != completed {} + rejected {} + failed {}",
            r.requests_admitted, r.requests_completed, r.requests_rejected, r.requests_failed),
    );
    let c = &o.cluster;
    let b = &r.base;
    run.check(
        c.energy_j == b.energy.total_j() + b.migration_energy_j
            && c.migrations == b.migrations
            && c.decisions == b.decision_totals
            && c.saturated == b.saturation_violations
            && c.undesirable == b.undesirable_server_intervals,
        || format!("seed {seed}: the serving layer changed the cluster's decision stream"),
    );
}

/// Runs instance `seed` under the invariant checker; checks it found no
/// violation, validated one state digest per interval, and simulated
/// exactly what the untraced run did. Returns the outcome and the
/// checker's (digests, violations).
fn checked_run(run: &mut Run, w: Workload, seed: u64, untraced: &Outcome) -> (Simulated, u64, u64) {
    let mut checker = InvariantChecker::new(w.servers() as u32)
        .with_heartbeat_timeout(RecoveryConfig::default().heartbeat_timeout_intervals)
        .keep_running();
    let sim = simulate(w, seed, &mut checker);
    let (digests, violations) = (checker.digests_checked(), checker.total_violations());
    run.check(violations == 0, || {
        format!(
            "seed {seed}: {violations} invariant violations, first {:?}",
            checker.first_violation()
        )
    });
    let intervals = sim.interval_s.len() as u64;
    run.check(digests == intervals, || {
        format!("seed {seed}: {digests} state digests checked over {intervals} intervals")
    });
    run.check(sim.outcome == *untraced, || {
        format!(
            "seed {seed}: the checker-traced run simulated something else than the untraced run"
        )
    });
    run.attempted += sim.outcome.ops();
    (sim, digests, violations)
}

/// Host seconds of one set-up of instance `seed` of `w`.
fn setup_s(w: Workload, seed: u64) -> f64 {
    match w {
        Workload::Protocol4k => timed(|| black_box(Cluster::new(protocol_config(), seed))).1,
        _ => {
            let cfg = serve_config(w, seed);
            timed(|| black_box(serve_setup(&cfg, seed))).1
        }
    }
}

/// The end-to-end pass. Warm-up, untimed: the run seed's instance once
/// untraced and once under the invariant checker. Then untraced
/// instances, each after a few timed set-ups, until every instance ran
/// and the next one would end past `--seconds` from the start of the
/// run. Host metrics divide the simulated work of the whole timed loop
/// by its host time: contention on the shared host comes in bursts of
/// seconds, and a total over the loop averages them out better than a
/// median over instances does.
fn end_to_end(args: &Args, run: &mut Run) {
    let w = args.workload;
    let seeds = instance_seeds(w, args.seed);
    let n = seeds.len();
    let start = Instant::now();
    let warm = simulate(w, seeds[0], &mut NoTrace).outcome;
    check_outcome(run, w, seeds[0], &warm);
    run.attempted += warm.ops();
    checked_run(run, w, seeds[0], &warm);
    let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
    outcomes[0] = Some(warm);
    let mut setups = Vec::new();
    let (mut wall_s, mut ops, mut server_intervals) = (0.0, 0u64, 0u64);
    let mut k = 0;
    while k < n || start.elapsed().as_secs_f64() + wall_s / k as f64 <= args.seconds {
        let (i, seed) = (k % n, seeds[k % n]);
        for j in 0..SETUPS_PER_INSTANCE {
            setups.push(setup_s(w, seeds[(k + j) % n]));
        }
        let sim = simulate(w, seed, &mut NoTrace);
        let o = sim.outcome;
        wall_s += sim.wall_s;
        ops += o.ops();
        server_intervals += o.cluster.server_intervals;
        run.attempted += o.ops();
        match &outcomes[i] {
            None => {
                check_outcome(run, w, seed, &o);
                outcomes[i] = Some(o);
            }
            Some(first) => run.check(*first == o, || {
                format!("seed {seed}: a repeated run simulated something else")
            }),
        }
        k += 1;
    }
    let outcomes: Vec<Outcome> = outcomes.into_iter().flatten().collect();

    let sum = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>();
    let m = &mut run.metrics;
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push(
        "server_intervals_per_s",
        server_intervals as f64 / wall_s,
        "1/s",
    );
    m.push("ns_per_op", wall_s * 1e9 / ops as f64, "ns");
    m.push(
        "sim_energy_kj",
        sum(&|o| o.energy_j()) / 1e3 / outcomes.len() as f64,
        "kJ",
    );
    m.push(
        "sim_energy_vs_always_on",
        sum(&|o| o.cluster.energy_j) / sum(&|o| o.cluster.reference_j),
        "frac",
    );
    m.push(
        "sim_undesirable_frac",
        sum(&|o| o.cluster.undesirable as f64) / sum(&|o| o.cluster.awake_server_intervals as f64),
        "frac",
    );
    m.push(
        "sim_ok_frac",
        1.0 - sum(&|o| o.failed_ops() as f64) / sum(&|o| o.ops() as f64),
        "frac",
    );
}

/// The traced pass's runs of the run seed's instance.
struct Rounds {
    /// The first untraced run.
    first: Outcome,
    /// Host seconds of the untraced, ring-traced and checker-traced runs.
    off_s: Vec<f64>,
    ring_s: Vec<f64>,
    checker_s: Vec<f64>,
    /// Host seconds of every interval of the untraced runs.
    interval_s: Vec<f64>,
    /// The checker's state digests and violations on the last round.
    digests: u64,
    violations: u64,
}

/// Runs the run seed's instance once, then `TRACE_ROUNDS` rounds of
/// untraced, ring-traced and checker-traced runs, checking that every
/// run simulated exactly what the first did.
fn trace_rounds(run: &mut Run, w: Workload, seed: u64) -> Rounds {
    let first = simulate(w, seed, &mut NoTrace).outcome;
    check_outcome(run, w, seed, &first);
    run.attempted += first.ops();
    let mut r = Rounds {
        first,
        off_s: Vec::new(),
        ring_s: Vec::new(),
        checker_s: Vec::new(),
        interval_s: Vec::new(),
        digests: 0,
        violations: 0,
    };
    let same = |run: &mut Run, sim: &Simulated, how: &str| {
        run.check(sim.outcome == r.first, || {
            format!("seed {seed}: the {how} run simulated something else than the first run")
        });
        run.attempted += sim.outcome.ops();
    };
    for _ in 0..TRACE_ROUNDS {
        let sim = simulate(w, seed, &mut NoTrace);
        same(run, &sim, "repeated untraced");
        r.off_s.push(sim.wall_s);
        r.interval_s.extend(sim.interval_s);
        let sim = simulate(w, seed, &mut RingTracer::new());
        same(run, &sim, "ring-traced");
        r.ring_s.push(sim.wall_s);
        let (sim, digests, violations) = checked_run(run, w, seed, &r.first);
        r.checker_s.push(sim.wall_s);
        (r.digests, r.violations) = (digests, violations);
    }
    r
}

/// The traced pass: the rounds of [`trace_rounds`], then the layer
/// probes. Probes that need a serve fleet use the workload's own, or the
/// `serve_paper` fleet for `protocol_4k`, which routes nothing.
fn traced_pass(args: &Args, run: &mut Run) {
    let (w, seed) = (args.workload, args.seed);
    let rounds = trace_rounds(run, w, seed);
    let o = &rounds.first;
    let c = &o.cluster;
    let r = o.serve.as_ref();
    let fleet = match w {
        Workload::Protocol4k => serve_config(Workload::ServePaper, seed),
        _ => serve_config(w, seed),
    };
    let sources = serve_setup(&fleet, seed);
    let m = &mut run.metrics;

    // ecolb-cluster and its leader.
    m.push(
        "cluster.interval_ms.p50",
        quantile(&rounds.interval_s, 0.5) * 1e3,
        "ms",
    );
    m.push(
        "cluster.interval_ms.p90",
        quantile(&rounds.interval_s, 0.9) * 1e3,
        "ms",
    );
    for (search, label) in [
        (Search::Receivers, "find_receivers"),
        (Search::Donors, "find_donors"),
    ] {
        for n in LEADER_CURVE {
            let (ns, answer_len) = layers::leader_query_ns(n, seed, search);
            if answer_len < 1.0 {
                run.failures.push(format!(
                    "the {label} probe at n={n} found no partners to scan for"
                ));
            }
            m.push(format!("leader.{label}_ns.n{n}"), ns, "ns");
        }
    }
    for n in SCALING_CURVE {
        let ns = layers::ns_per_server_interval(n, seed, PROTOCOL_INTERVALS);
        m.push(format!("cluster.ns_per_server_interval.n{n}"), ns, "ns");
    }
    m.count("leader.partner_lists", c.messages.partner_lists);
    m.count("leader.assistance_requests", c.messages.assistance_requests);
    m.count("leader.wake_orders", c.messages.wake_orders);
    m.count("cluster.migrations", c.migrations);
    m.count("cluster.decisions.local", c.decisions.local);
    m.count("cluster.decisions.in_cluster", c.decisions.in_cluster);
    m.count("cluster.decisions.deferred", c.decisions.deferred);
    m.count("cluster.sleeping_final", c.sleeping_final);
    let saturation = c.saturated as f64 / c.server_intervals as f64;
    m.push("cluster.sim_saturation_frac", saturation, "frac");
    let savings = 1.0 - c.energy_j / c.reference_j;
    m.push("cluster.sim_savings_frac", savings, "frac");

    // ecolb-simcore's engine, at one pending arrival per source.
    let events = r.map_or(0, |r| r.events_processed);
    let admitted = r.map_or(0, |r| r.requests_admitted);
    let hold = layers::hold_ns(sources, seed);
    m.count("engine.events", events);
    let per_request = events as f64 / admitted.max(1) as f64;
    m.push("engine.events_per_request", per_request, "events/request");
    m.push("engine.hold_ns", hold, "ns");

    // ecolb-serve.
    let mut picker_ns = 0.0;
    for kind in PickerKind::all() {
        let ns = layers::pick_ns(kind, &fleet.cluster, seed);
        if r.is_some_and(|r| r.picker == kind.label()) {
            picker_ns = ns;
        }
        m.push(format!("serve.pick_ns.{}", kind.label()), ns, "ns");
    }
    let enqueue = layers::enqueue_ns(&fleet.cluster, seed);
    m.push("serve.enqueue_ns", enqueue, "ns");
    let refresh = layers::discover_refresh_ns(&fleet.cluster, seed);
    m.push("serve.discover_refresh_ns", refresh, "ns");
    let count = |f: fn(&ServeReport) -> u64| r.map_or(0, f);
    m.count("serve.admitted", admitted);
    m.count("serve.completed", count(|r| r.requests_completed));
    m.count("serve.rejected", count(|r| r.requests_rejected));
    m.count("serve.failed", count(|r| r.requests_failed));
    m.count("serve.deferred_sleeps", count(|r| r.deferred_sleeps));
    m.push("serve.sim_p99_s", r.map_or(0.0, ServeReport::p99_s), "s");
    let gold = r.map_or(0.0, |r| r.violation_seconds[0]);
    m.push("serve.sim_gold_violation_s", gold, "s");
    let reject = r.map_or(0.0, |_| o.failed_ops() as f64 / o.ops() as f64);
    m.push("serve.sim_reject_frac", reject, "frac");

    // The resilience layer.
    let res = r.map(|r| r.resilience).unwrap_or_default();
    m.count("resilience.retries", res.retries);
    m.count("resilience.retries_denied", res.retries_denied);
    m.count("resilience.hedges", res.hedges);
    m.count("resilience.shed", res.total_shed());
    m.count("resilience.breaker_opens", res.breaker_opens);
    m.count("resilience.deadline_misses", res.deadline_misses);
    let dispatches = admitted + res.retries + res.hedges;
    let useful = count(|r| r.requests_completed) as f64 / dispatches.max(1) as f64;
    m.push("resilience.useful_ratio", useful, "frac");

    // ecolb-workload, walking the serve horizon.
    let horizon_s = fleet.intervals as f64 * fleet.cluster.realloc_interval.as_secs_f64();
    let (gap_flat, gap_flash) = layers::gap_ns(&fleet.cluster, seed, horizon_s);
    m.push("workload.gap_ns.flat", gap_flat, "ns");
    m.push("workload.gap_ns.flash_crowd", gap_flash, "ns");

    // ecolb-trace.
    let off_s = median(&rounds.off_s);
    m.push(
        "trace.ring_overhead_frac",
        median(&rounds.ring_s) / off_s - 1.0,
        "frac",
    );
    m.push(
        "trace.checker_overhead_frac",
        median(&rounds.checker_s) / off_s - 1.0,
        "frac",
    );
    m.count("check.digests_checked", rounds.digests);
    m.count("check.violations", rounds.violations);

    // Attribution (computed, not measured): the share of a serve run's
    // untraced wall time the outside-in layer timings do not explain.
    let unattributed = if r.is_some() {
        let flash = (0..sources as u64)
            .filter(|&i| !fleet.modulation.profile_for(seed, i).is_flat())
            .count() as f64
            / sources as f64;
        let gap = gap_flat * (1.0 - flash) + gap_flash * flash;
        let explained_ns = (picker_ns + enqueue) * dispatches as f64
            + hold * events as f64
            + gap * admitted as f64;
        1.0 - explained_ns / (off_s * 1e9)
    } else {
        0.0
    };
    m.push("serve.unattributed_frac", unattributed, "frac");
}
