//! The three workloads: their configurations and set-up, the simulated
//! outcome of a cluster, and the cluster replay of a serve run.
//!
//! All three are open-loop: request arrivals (and demand evolution) come
//! from the simulator's keyed streams, so the offered load does not
//! depend on how fast the host runs the simulation.

use std::time::Instant;

use ecolb_cluster::cluster::{Cluster, ClusterConfig};
use ecolb_cluster::messages::MessageStats;
use ecolb_cluster::scaling::IntervalCounts;
use ecolb_faults::inject::FaultInjector;
use ecolb_faults::plan::{FaultEventKind, FaultPlan};
use ecolb_scenarios::spec::{FleetSpec, ResilienceSpec, ScenarioSpec, SlaSpec, SpotSpec};
use ecolb_serve::discover::ClusterDiscover;
use ecolb_serve::picker::PickerKind;
use ecolb_serve::sim::ServeConfig;
use ecolb_simcore::event::EventQueue;
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::generator::WorkloadSpec;
use ecolb_workload::processes::{FlashCrowdSpec, RateModulation};
use ecolb_workload::requests::RequestLoadSpec;

/// Servers in the protocol workload.
pub const PROTOCOL_SERVERS: usize = 4000;
/// Reallocation intervals one protocol run simulates.
pub const PROTOCOL_INTERVALS: u64 = 8;
/// Servers in both serve workloads.
pub const SERVE_SERVERS: usize = 400;
/// Reallocation intervals one serve run simulates.
pub const SERVE_INTERVALS: u64 = 6;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Cluster::run_interval` in a loop on 4000 paper low-load servers.
    Protocol4k,
    /// `ServeSim` with the paper's regime-aware picker, no faults.
    ServePaper,
    /// A compiled scenario: flash crowd, spot reclaims, full resilience.
    ServeFaulted,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Protocol4k,
        Workload::ServePaper,
        Workload::ServeFaulted,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Protocol4k => "protocol_4k",
            Workload::ServePaper => "serve_paper",
            Workload::ServeFaulted => "serve_faulted",
        }
    }

    /// Servers in the workload's fleet.
    pub fn servers(self) -> usize {
        match self {
            Workload::Protocol4k => PROTOCOL_SERVERS,
            _ => SERVE_SERVERS,
        }
    }

    /// Reallocation intervals one instance simulates.
    pub fn intervals(self) -> u64 {
        match self {
            Workload::Protocol4k => PROTOCOL_INTERVALS,
            _ => SERVE_INTERVALS,
        }
    }

    /// Instances one run simulates, each with its own seed derived from
    /// the run's seed. The simulated metrics pool all of them, so they
    /// vary less from one run seed to the next than one instance would.
    /// The costliest workload pools fewer, so that its warm-up and one
    /// pass over its instances fit in a run.
    pub fn instances(self) -> usize {
        match self {
            Workload::ServeFaulted => 10,
            _ => 12,
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The protocol workload's cluster.
pub fn protocol_config() -> ClusterConfig {
    ClusterConfig::paper(PROTOCOL_SERVERS, WorkloadSpec::paper_low_load())
}

/// The catalog's flash crowd (onset 300 s, 120 s ramp, 400 s decay)
/// at a 3× peak sweeping up half of the sources.
pub fn faulted_crowd() -> FlashCrowdSpec {
    FlashCrowdSpec {
        intensity: 1.0,
        onset_s: 300.0,
        ramp_s: 120.0,
        decay_s: 400.0,
        peak_multiplier: 3.0,
        participation: 0.5,
    }
}

/// The `serve_faulted` scenario: an enterprise fleet under a flash
/// crowd, losing 40 spot servers 15 s apart from t = 600 s (each back
/// 600 s later), with the full resilience stack.
pub fn faulted_scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "serve_faulted",
        fleet: FleetSpec::enterprise(SERVE_SERVERS),
        workload: WorkloadSpec::paper_low_load(),
        load: RequestLoadSpec::moderate(),
        sla: SlaSpec::moderate(),
        modulation: RateModulation::FlashCrowd(faulted_crowd()),
        spot: Some(SpotSpec {
            count: 40,
            first_reclaim_s: 600.0,
            spacing_s: 15.0,
            recover_after_s: Some(600.0),
        }),
        resilience: ResilienceSpec::Full,
        intervals: SERVE_INTERVALS,
    }
}

/// The serve configuration of a serve workload.
pub fn serve_config(w: Workload, seed: u64) -> ServeConfig {
    match w {
        Workload::ServePaper => ServeConfig::paper(
            ClusterConfig::paper(SERVE_SERVERS, WorkloadSpec::paper_low_load()),
            PickerKind::RegimeAware,
            SERVE_INTERVALS,
        ),
        Workload::ServeFaulted => faulted_scenario().compile(PickerKind::PowerOfTwo, true, seed),
        Workload::Protocol4k => unreachable!("protocol_4k has no serving layer"),
    }
}

/// What one protocol run simulated. Every field is exact for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSim {
    /// Cluster energy plus migration energy, joules.
    pub energy_j: f64,
    /// The always-on reference energy over the same span, joules.
    pub reference_j: f64,
    /// Server-intervals simulated (`servers × intervals`).
    pub server_intervals: u64,
    /// Σ over intervals of the servers awake at the interval's end.
    pub awake_server_intervals: u64,
    /// Server-intervals spent saturated.
    pub saturated: u64,
    /// Server-intervals spent in an undesirable regime (R1 or R5).
    pub undesirable: u64,
    /// The leader's message counters.
    pub messages: MessageStats,
    /// VM migrations committed.
    pub migrations: u64,
    /// Scaling decisions by kind.
    pub decisions: IntervalCounts,
    /// Servers asleep after the last interval.
    pub sleeping_final: u64,
}

impl ProtocolSim {
    /// Reads the simulated outcome off a cluster that has run.
    pub fn of(cluster: &Cluster, awake_server_intervals: u64) -> ProtocolSim {
        let elapsed_s = cluster.now().as_secs_f64();
        ProtocolSim {
            energy_j: cluster.energy().total_j() + cluster.migration_energy_j(),
            reference_j: cluster.reference_power_w() * elapsed_s,
            server_intervals: cluster.servers().len() as u64 * cluster.intervals_run(),
            awake_server_intervals,
            saturated: cluster.saturation_violations(),
            undesirable: cluster.undesirable_server_intervals(),
            messages: cluster.leader().stats(),
            migrations: cluster.migrations(),
            decisions: cluster.ledger().totals(),
            sleeping_final: cluster.sleeping_count() as u64,
        }
    }
}

/// Servers awake (not asleep, waking or crashed) right now.
pub fn awake_count(cluster: &Cluster) -> u64 {
    (cluster.servers().len() - cluster.interval_stats().0) as u64
}

/// The construction work `ServeSim::run` does before its first event,
/// through the same public constructors: the cluster, one arrival
/// source and one modulation profile per initial application,
/// discovery, the fault injector and the picker. Returns the source
/// count. (`ServeSim::run` itself cannot time set-up alone: with
/// `intervals = 0` its interval countdown never reaches zero.)
pub fn serve_setup(cfg: &ServeConfig, seed: u64) -> usize {
    let cluster = Cluster::new(cfg.cluster.clone(), seed);
    let mut sources = Vec::new();
    let mut profiles = Vec::new();
    for server in cluster.servers() {
        for app in server.apps() {
            let idx = sources.len() as u64;
            sources.push(cfg.load.source_for(seed, idx, app));
            profiles.push(cfg.modulation.profile_for(seed, idx));
        }
    }
    let plan = cfg.faults.clone().unwrap_or_else(|| FaultPlan::empty(seed));
    let injector = FaultInjector::new(&plan, cluster.servers().len());
    let discover = ClusterDiscover::new(&cluster);
    let picker = cfg.picker.build(seed);
    std::hint::black_box((&profiles, &injector, &discover, &picker));
    sources.len()
}

/// Events of the cluster replay, in the order `ServeSim` schedules them.
enum ReplayEvent {
    Tick,
    Fault(FaultEventKind),
}

/// Replays the cluster side of a serve run without the serving layer:
/// the same reallocation ticks and the same scheduled faults, in the
/// same order. The serving layer never mutates cluster state, so the
/// replayed cluster must end where the serve run's did; it also exposes
/// what the serve report does not carry (the leader's message counts).
/// Returns the cluster, its awake server-intervals and the host time of
/// each interval, seconds.
pub fn replay_cluster(cfg: &ServeConfig, seed: u64) -> (Cluster, u64, Vec<f64>) {
    let mut cluster = Cluster::new(cfg.cluster.clone(), seed);
    let n = cluster.servers().len();
    let tau = cluster.config().realloc_interval;
    let horizon = SimTime::ZERO + SimDuration::from_ticks(tau.ticks() * cfg.intervals);
    let plan = cfg.faults.clone().unwrap_or_else(|| FaultPlan::empty(seed));
    let mut injector = FaultInjector::new(&plan, n);
    let mut queue = EventQueue::new();
    queue.schedule(SimTime::ZERO + tau, ReplayEvent::Tick);
    for ev in plan.events.iter().filter(|ev| ev.at <= horizon) {
        queue.schedule(ev.at, ReplayEvent::Fault(ev.kind));
    }
    let mut left = cfg.intervals;
    let mut awake = 0;
    let mut interval_s = Vec::new();
    while let Some((now, event)) = queue.pop() {
        match event {
            ReplayEvent::Tick => {
                let start = Instant::now();
                cluster.run_interval_with_hooks(&mut injector);
                interval_s.push(start.elapsed().as_secs_f64());
                awake += awake_count(&cluster);
                left -= 1;
                if left > 0 {
                    queue.schedule(now + tau, ReplayEvent::Tick);
                }
            }
            ReplayEvent::Fault(_) if left == 0 => {}
            ReplayEvent::Fault(FaultEventKind::ServerRecover { server }) => {
                cluster.recover_server(server, now);
            }
            ReplayEvent::Fault(kind) => {
                let (server, recover_after) = match kind {
                    FaultEventKind::ServerCrash {
                        server,
                        recover_after,
                    } => (server, recover_after),
                    FaultEventKind::LeaderCrash { recover_after } => {
                        (cluster.leader_host(), recover_after)
                    }
                    FaultEventKind::ServerRecover { .. } => unreachable!("matched above"),
                };
                if cluster.servers()[server.index()].is_crashed() {
                    continue;
                }
                let orphans = cluster.crash_server(server, now);
                cluster.readmit_orphans(orphans);
                if let Some(delay) = recover_after {
                    queue.schedule(
                        now + delay,
                        ReplayEvent::Fault(FaultEventKind::ServerRecover { server }),
                    );
                }
            }
        }
    }
    (cluster, awake, interval_s)
}
