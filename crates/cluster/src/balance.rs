//! One round of the §4 load-balancing protocol.
//!
//! At the end of each reallocation interval every server evaluates its
//! regime and the leader brokers partners (paper §4, actions 1–5):
//!
//! 1. **Shed phase** — servers in R4/R5 migrate VMs to underloaded
//!    receivers until they re-enter the optimal band. Receivers are the
//!    leader's R1/R2 candidates; when none have room the search widens to
//!    R3 servers with headroom below `α^{opt,h}` (an implementation
//!    extension the 70 %-load experiments require — with every server above
//!    `α^{opt,l}` the paper's literal R1/R2 search finds nobody, yet its
//!    Figure 3(b) shows heavy early in-cluster traffic).
//! 2. **Drain phase** — servers left in R1 either *gather* work from
//!    remaining R4/R5 donors (preferred when donors exist) or *drain*:
//!    atomically transfer every hosted VM to R2 receivers, each filled at
//!    most to its `α^{opt,l}` edge, then switch to the sleep state chosen
//!    by the [`SleepPolicy`] (C6 below 60 % cluster load, C3 above).
//! 3. **Wake phase** — servers still in R5 with excess nobody accepted
//!    cause the leader to order sleeping servers awake (action 5).
//!
//! Every VM move is an **in-cluster (horizontal) decision** in the
//! [`DecisionLedger`]; the round driver in [`crate::cluster`] records the
//! **local (vertical)** ones during demand evolution.

use crate::leader::Leader;
use crate::messages::RetryPolicy;
use crate::migration::{MigrationCost, MigrationCostModel};
use crate::recovery::{FaultHooks, NoFaults, RecoveryStats};
use crate::scaling::{DecisionKind, DecisionLedger};
use crate::server::{Server, ServerId};
use ecolb_energy::regimes::OperatingRegime;
use ecolb_energy::sleep::{CState, SleepModel, SleepPolicy};
use ecolb_simcore::time::SimTime;
use ecolb_trace::{NoTrace, SpanKind, TraceEventKind, Tracer};
use ecolb_workload::application::{AppId, Application};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Tolerance for load/room comparisons: demands are sums of many f64
/// terms, so exact comparisons reject placements that fit by construction.
const EPS: f64 = 1e-9;

/// Where a receiver stops accepting transferred load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillLimit {
    /// Up to the lower edge of the optimal band `α^{opt,l}` —
    /// conservative; used when filling receivers from draining servers.
    OptLow,
    /// Up to the middle of the optimal band.
    OptTarget,
    /// Up to the upper edge of the optimal band `α^{opt,h}` — used when
    /// overloaded donors shed.
    OptHigh,
}

impl FillLimit {
    /// The load ceiling this limit imposes on `server`.
    pub fn ceiling(self, server: &Server) -> f64 {
        let b = server.boundaries();
        match self {
            FillLimit::OptLow => b.opt_low,
            FillLimit::OptTarget => b.optimal_target(),
            FillLimit::OptHigh => b.opt_high,
        }
    }
}

/// Tunables of one balancing round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceConfig {
    /// Master switch: disable to run the cluster with *no* load balancing
    /// at all (the "wasteful resource management policy when the servers
    /// are always on" the paper argues against — the natural baseline).
    pub enabled: bool,
    /// Sleep-state selection rule; [`SleepPolicy::NeverSleep`] is the
    /// no-sleep ablation (drained servers stay awake).
    pub sleep_policy: SleepPolicy,
    /// Fill ceiling for receivers of shed (overload) traffic.
    pub shed_fill: FillLimit,
    /// Fill ceiling for receivers of drain (consolidation) traffic.
    pub drain_fill: FillLimit,
    /// Cap on how many partners a server negotiates with per request;
    /// `None` means the full leader list. Models bounded peer-negotiation
    /// effort.
    pub max_partners: Option<usize>,
    /// Maximum sleeping servers woken per R5 emergency.
    pub wakes_per_emergency: usize,
    /// Maximum VMs an overloaded donor sheds per reallocation interval —
    /// peer negotiation and transfer bandwidth bound how much can move in
    /// one `τ`.
    pub shed_moves_per_donor: usize,
    /// Maximum VMs a draining R1 server transfers away per interval. A
    /// server sleeps only once *fully* drained, so a small budget stretches
    /// consolidation over several intervals — the source of the paper's
    /// multi-interval settling transient.
    pub drain_moves_per_candidate: usize,
    /// How many R1 consolidation requests the leader processes per
    /// interval (`None` = all). Overload assistance (R4/R5) is never
    /// throttled — undesirable-high is urgent; consolidation is
    /// housekeeping the single leader serialises. This is what makes large
    /// low-load clusters take ~20 intervals to settle, as in Figure 3.
    pub drain_candidates_per_interval: Option<usize>,
    /// Retry policy for regime reports lost on a faulty star link. Only
    /// exercised through the hooked entry points; fault-free runs never
    /// retry because nothing is ever lost.
    pub retry: RetryPolicy,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            enabled: true,
            sleep_policy: SleepPolicy::default(),
            shed_fill: FillLimit::OptHigh,
            drain_fill: FillLimit::OptLow,
            max_partners: None,
            wakes_per_emergency: 1,
            shed_moves_per_donor: 4,
            drain_moves_per_candidate: 1,
            drain_candidates_per_interval: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// A committed VM transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// Donor server.
    pub from: ServerId,
    /// Receiving server.
    pub to: ServerId,
    /// Application moved.
    pub app: AppId,
    /// Demand of the application at transfer time.
    pub demand: f64,
    /// Modelled migration cost.
    pub cost: MigrationCost,
}

/// Everything one balancing round did.
#[derive(Debug, Clone, Default)]
pub struct BalanceOutcome {
    /// VM transfers committed this round.
    pub migrations: Vec<MigrationRecord>,
    /// Servers that drained and went to sleep, with their chosen state.
    pub slept: Vec<(ServerId, CState)>,
    /// Sleeping servers ordered awake.
    pub woken: Vec<ServerId>,
    /// R5 servers whose excess could not be fully placed.
    pub unresolved_overloads: Vec<ServerId>,
    /// R1 servers that failed to drain (stayed awake, underloaded).
    pub failed_drains: Vec<ServerId>,
    /// Servers whose wake order was lost to an injected transition fault:
    /// they stay asleep despite the leader's (optimistic) directory update.
    pub wake_failures: Vec<ServerId>,
}

impl BalanceOutcome {
    /// Total energy charged to migrations this round, Joules.
    pub fn migration_energy_j(&self) -> f64 {
        self.migrations.iter().map(|m| m.cost.energy_j).sum()
    }
}

/// Fraction of total capacity in use across the whole cluster, counting
/// sleeping servers' capacity in the denominator (the paper's "overall
/// load of the cluster … of the cluster capacity").
pub fn cluster_load_fraction(servers: &[Server]) -> f64 {
    if servers.is_empty() {
        return 0.0;
    }
    servers.iter().map(Server::load).sum::<f64>() / servers.len() as f64
}

/// Lands `vm` on `to` as a transfer from `from`: the one commit every VM
/// move goes through, the balancing round's and the scaling decisions'
/// alike. `vm` is already off its origin, or was created for `to` by a
/// scale-out. Charges the migration cost, counts the arrival, places the
/// VM, traces the move and appends its record to `records`. The move is
/// instantaneous here; the timed drivers replay the records with delays.
#[allow(clippy::too_many_arguments)] // one argument per seam the move touches
pub(crate) fn land(
    servers: &mut [Server],
    from: ServerId,
    to: ServerId,
    vm: Application,
    model: &MigrationCostModel,
    now: SimTime,
    tracer: &mut dyn Tracer,
    records: &mut Vec<MigrationRecord>,
) -> MigrationRecord {
    let rec = MigrationRecord {
        from,
        to,
        app: vm.id,
        demand: vm.demand,
        cost: model.cost_of(&vm),
    };
    servers[to.index()].migrations_in += 1;
    servers[to.index()].place_app(vm);
    tracer.event(
        now.ticks(),
        TraceEventKind::Migration {
            from: from.0,
            to: to.0,
            app: rec.app.0,
            demand: rec.demand,
        },
    );
    records.push(rec);
    rec
}

/// Moves `app` off `from`, counting the departure, and [`land`]s it on
/// `to` with its demand grown by `growth` (a VM that outgrew its host;
/// balancing moves pass 0). `None` if `from` no longer hosts `app` —
/// callers treat that as "nothing to move", and the chaos invariant
/// checker would flag any VM imbalance it caused.
#[allow(clippy::too_many_arguments)] // one argument per seam the move touches
pub(crate) fn migrate(
    servers: &mut [Server],
    from: ServerId,
    to: ServerId,
    app: AppId,
    growth: f64,
    model: &MigrationCostModel,
    now: SimTime,
    tracer: &mut dyn Tracer,
    records: &mut Vec<MigrationRecord>,
) -> Option<MigrationRecord> {
    let mut vm = servers[from.index()].take_app(app)?;
    servers[from.index()].migrations_out += 1;
    vm.demand += growth;
    Some(land(servers, from, to, vm, model, now, tracer, records))
}

/// The partners a requester negotiates with: the members of `list` other
/// than itself, in list order, up to the configured negotiation budget.
fn negotiable<'a>(
    list: impl IntoIterator<Item = &'a ServerId>,
    requester: ServerId,
    config: &BalanceConfig,
) -> impl Iterator<Item = ServerId> {
    list.into_iter()
        .copied()
        .filter(move |&id| id != requester)
        .take(config.max_partners.unwrap_or(usize::MAX))
}

/// Reusable working buffers and partner indexes for the balancing phases.
///
/// The shed and drain phases build several short-lived sorted lists *per
/// donor / per candidate* (rosters, app working sets); with a few hundred
/// servers that used to mean thousands of heap allocations per
/// reallocation interval. A round-owned scratch turns them all into
/// clear-and-refill on buffers that reach steady-state capacity after the
/// first interval. Contents and iteration order are identical to the
/// fresh-`Vec` formulation, so reports and traces are byte-identical.
///
/// It also holds the phases' partner indexes, the round's just-woken
/// bitmap, and a tally of partner-search work. Every buffer starts empty
/// and grows on first use; the indexes' ordered sets allocate tree nodes
/// as entries come and go.
#[derive(Debug, Clone, Default)]
pub struct BalanceScratch {
    /// Donor / drain-candidate roster of the current phase.
    roster: Vec<ServerId>,
    /// `(app, demand)` working set of the server being relieved or drained.
    apps: Vec<(AppId, f64)>,
    /// Servers whose wake matured this round, by id.
    just_woken: Vec<bool>,
    /// Shed fallback receivers: awake optimal-band servers below their
    /// shed ceiling, keyed by load. Built on a shed phase's first
    /// fallback.
    optimal: ServerIndex,
    /// The same servers keyed by negated shed headroom: the first entry
    /// bounds the demand any fallback receiver can take.
    optimal_room: ServerIndex,
    /// Option B receivers: awake R2 servers below their drain ceiling,
    /// keyed by negated drain headroom (most headroom first).
    drain: ServerIndex,
    /// Option A donors that can still give. Built without a partner cap.
    live_donors: LiveDonors,
    /// Partner-search work so far: roster and index entries visited by the
    /// partner walks, index re-keys, and entries sorted or indexed by
    /// roster and index rebuilds. Deterministic, so it gates scaling
    /// exactly on any host.
    work: u64,
}

impl BalanceScratch {
    /// Partner-search work done by every round that used this scratch.
    pub(crate) fn partner_search_work(&self) -> u64 {
        self.work
    }
}

/// An index entry, ordered by key (`total_cmp`), then lowest id — the
/// order the per-query sorts gave.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: f64,
    id: ServerId,
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.total_cmp(&other.key).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Slot {}

/// Servers ordered by a per-server key, kept exact by re-keying every
/// server whose state changed.
#[derive(Debug, Clone, Default)]
struct ServerIndex {
    slots: BTreeSet<Slot>,
    /// Each server's key in `slots`, by id; `None` outside the index.
    keys: Vec<Option<f64>>,
}

impl ServerIndex {
    /// Rebuilds the index over the fleet, adding the entries indexed to
    /// `work`.
    fn build(&mut self, servers: &[Server], key: impl Fn(&Server) -> Option<f64>, work: &mut u64) {
        let keys = &mut self.keys;
        keys.clear();
        keys.resize(servers.len(), None);
        self.slots = servers
            .iter()
            .filter_map(|s| {
                let k = key(s)?;
                keys[s.id().index()] = Some(k);
                Some(Slot { key: k, id: s.id() })
            })
            .collect();
        *work += self.slots.len() as u64;
    }

    /// Moves `id` to `key` (`None` removes it), counting one re-key.
    fn rekey(&mut self, id: ServerId, key: Option<f64>, work: &mut u64) {
        *work += 1;
        let slot = &mut self.keys[id.index()];
        if let Some(old) = std::mem::replace(slot, key) {
            self.slots.remove(&Slot { key: old, id });
        }
        if let Some(key) = key {
            self.slots.insert(Slot { key, id });
        }
    }

    /// The entries other than `requester` in key order, up to the
    /// configured negotiation budget — the walk [`negotiable`] makes over
    /// a partner list.
    fn negotiable(
        &self,
        requester: ServerId,
        config: &BalanceConfig,
    ) -> impl Iterator<Item = Slot> + '_ {
        self.slots
            .iter()
            .copied()
            .filter(move |slot| slot.id != requester)
            .take(config.max_partners.unwrap_or(usize::MAX))
    }
}

/// `server`'s shed fallback key: its load, if it is an awake optimal-band
/// server below its shed ceiling.
fn optimal_key(server: &Server, config: &BalanceConfig) -> Option<f64> {
    (server.is_awake()
        && server.regime() == OperatingRegime::Optimal
        && server.load() < config.shed_fill.ceiling(server))
    .then(|| server.load())
}

/// `server`'s key in the shed fallback's headroom index: its negated shed
/// headroom, if it is a fallback receiver.
fn optimal_room_key(server: &Server, config: &BalanceConfig) -> Option<f64> {
    optimal_key(server, config).map(|load| -(config.shed_fill.ceiling(server) - load))
}

/// `server`'s Option B key: its negated drain headroom, if it is an awake
/// R2 server below its drain ceiling. Negation is exact and reverses
/// `total_cmp`, so ascending keys are descending headroom.
fn drain_key(server: &Server, config: &BalanceConfig) -> Option<f64> {
    let ceiling = config.drain_fill.ceiling(server);
    (server.is_awake()
        && server.regime() == OperatingRegime::SuboptimalLow
        && server.load() < ceiling)
        .then(|| -(ceiling - server.load()))
}

/// Whether `server` can still give load to a gathering candidate.
fn can_give(server: &Server) -> bool {
    server.is_awake() && server.shed_pressure() > 0.0
}

/// The members of the leader's donor roster that can still give, in
/// roster order.
#[derive(Debug, Clone, Default)]
struct LiveDonors {
    /// Live members by roster position.
    by_pos: BTreeMap<u32, ServerId>,
    /// Each server's roster position, by id; `u32::MAX` outside it.
    pos: Vec<u32>,
}

impl LiveDonors {
    /// Rebuilds the set from `roster` (empty under a partner cap), adding
    /// the entries indexed to `work`.
    fn build(&mut self, servers: &[Server], roster: &[ServerId], work: &mut u64) {
        self.pos.clear();
        self.pos.resize(servers.len(), u32::MAX);
        for (pos, &id) in roster.iter().enumerate() {
            self.pos[id.index()] = pos as u32;
        }
        self.by_pos = roster
            .iter()
            .enumerate()
            .filter(|&(_, &id)| can_give(&servers[id.index()]))
            .map(|(pos, &id)| (pos as u32, id))
            .collect();
        *work += self.by_pos.len() as u64;
    }

    /// Re-checks whether roster member `server` can still give.
    fn update(&mut self, server: &Server) {
        let pos = self.pos[server.id().index()];
        if pos == u32::MAX {
            return;
        }
        if can_give(server) {
            self.by_pos.insert(pos, server.id());
        } else {
            self.by_pos.remove(&pos);
        }
    }
}

/// Static label for a sleep state, for trace events.
fn cstate_label(state: CState) -> &'static str {
    match state {
        CState::C0 => "C0",
        CState::C1 => "C1",
        CState::C2 => "C2",
        CState::C3 => "C3",
        CState::C4 => "C4",
        CState::C5 => "C5",
        CState::C6 => "C6",
    }
}

/// Phase 1 — overloaded servers (R4, R5) shed VMs to underloaded
/// receivers.
#[allow(clippy::too_many_arguments)] // phases share the round's full context
fn shed_phase(
    servers: &mut [Server],
    leader: &mut Leader,
    ledger: &mut DecisionLedger,
    model: &MigrationCostModel,
    config: &BalanceConfig,
    now: SimTime,
    tracer: &mut dyn Tracer,
    scratch: &mut BalanceScratch,
    outcome: &mut BalanceOutcome,
) {
    let BalanceScratch {
        roster: donors,
        apps,
        optimal,
        optimal_room,
        work,
        ..
    } = scratch;
    // Donors sorted: R5 (urgent) first, then heaviest.
    donors.clear();
    donors.extend(
        servers
            .iter()
            .filter(|s| s.is_awake() && s.regime().is_overloaded())
            .map(Server::id),
    );
    donors.sort_by(|&a, &b| {
        let (sa, sb) = (&servers[a.index()], &servers[b.index()]);
        sb.regime()
            .index()
            .cmp(&sa.regime().index())
            .then(sb.load().total_cmp(&sa.load()))
            .then(a.cmp(&b))
    });
    // The highest shed ceiling in the fleet, once the fallback index is
    // built: no fallback receiver with a load above it less a demand can
    // take that demand.
    let mut top_ceiling = None;

    for &donor in donors.iter() {
        if !servers[donor.index()].regime().is_overloaded() {
            continue; // already relieved by an earlier donor's receiver churn
        }
        let donor_regime = servers[donor.index()].regime();
        leader.receive_assistance_request(donor, donor_regime);
        tracer.event(
            now.ticks(),
            TraceEventKind::AssistanceRequested {
                server: donor.0,
                regime: donor_regime.index() as u8,
            },
        );
        // Leader proposes R1/R2 receivers; fall back to R3 servers with
        // headroom, least loaded first, when the strict list is empty (see
        // module docs).
        leader.record_partner_list();
        let strict = leader.receiver_roster(work);
        let fallback = !strict.iter().any(|&id| id != donor);
        if fallback && top_ceiling.is_none() {
            optimal.build(servers, |s| optimal_key(s, config), work);
            optimal_room.build(servers, |s| optimal_room_key(s, config), work);
            top_ceiling = Some(
                servers
                    .iter()
                    .map(|s| config.shed_fill.ceiling(s))
                    .fold(f64::NEG_INFINITY, f64::max),
            );
        }
        let first_move = outcome.migrations.len();

        // Shed apps, largest first, until back inside the optimal band or
        // the per-interval negotiation budget runs out.
        let mut moves = 0usize;
        loop {
            if moves >= config.shed_moves_per_donor {
                break;
            }
            let donor_srv = &servers[donor.index()];
            let excess = donor_srv.shed_pressure();
            if excess <= 0.0 {
                break;
            }
            // Prefer the *smallest* app that clears the excess in one move
            // (minimal churn); apps too small to clear it come after,
            // largest first.
            apps.clear();
            apps.extend(donor_srv.apps().iter().map(|a| (a.id, a.demand)));
            apps.sort_by(|a, b| {
                let a_clears = a.1 + EPS >= excess;
                let b_clears = b.1 + EPS >= excess;
                b_clears
                    .cmp(&a_clears)
                    .then_with(|| {
                        if a_clears && b_clears {
                            a.1.total_cmp(&b.1)
                        } else {
                            b.1.total_cmp(&a.1)
                        }
                    })
                    .then(a.0.cmp(&b.0))
            });

            let fits = |rx: ServerId, demand: f64| {
                let s = &servers[rx.index()];
                s.is_awake() && s.load() + demand <= config.shed_fill.ceiling(s) + EPS
            };
            let placed = apps.iter().find_map(|&(app, demand)| {
                let rx = match top_ceiling.filter(|_| fallback) {
                    // Keys only understate the loads and overstate the
                    // headroom (moves made here only add load), and loads
                    // are O(1). So nobody can take a demand beyond the
                    // roomiest key, and no entry from the first one over
                    // `top` on can take `demand`.
                    Some(top) => optimal_room
                        .slots
                        .first()
                        .filter(|roomiest| -roomiest.key >= demand - 10.0 * EPS)
                        .and_then(|_| {
                            optimal
                                .negotiable(donor, config)
                                .take_while(|slot| slot.key + demand <= top + 10.0 * EPS)
                                .inspect(|_| *work += 1)
                                .map(|slot| slot.id)
                                .find(|&rx| fits(rx, demand))
                        }),
                    None => negotiable(strict, donor, config)
                        .inspect(|_| *work += 1)
                        .find(|&rx| fits(rx, demand)),
                };
                rx.map(|rx| (app, rx))
            });
            let records = &mut outcome.migrations;
            let moved = placed.and_then(|(app, rx)| {
                migrate(servers, donor, rx, app, 0.0, model, now, tracer, records)
            });
            if moved.is_none() {
                break; // nothing placeable anywhere
            }
            ledger.record(DecisionKind::InClusterHorizontal);
            moves += 1;
        }
        // The fallback walked the order the donor first saw; re-key now.
        if top_ceiling.is_some() {
            for rec in &outcome.migrations[first_move..] {
                for id in [rec.from, rec.to] {
                    let server = &servers[id.index()];
                    optimal.rekey(id, optimal_key(server, config), work);
                    optimal_room.rekey(id, optimal_room_key(server, config), work);
                }
            }
        }

        if servers[donor.index()].regime() == OperatingRegime::UndesirableHigh {
            outcome.unresolved_overloads.push(donor);
        }
    }
}

/// Option A for one drain candidate: takes from each of `donors` in turn
/// the largest app that fits the candidate, until the donor cannot give
/// or nothing of it fits, and stops once the candidate leaves R1. True if
/// anything moved.
#[allow(clippy::too_many_arguments)] // phases share the round's full context
fn gather(
    servers: &mut [Server],
    cand: ServerId,
    donors: impl Iterator<Item = ServerId>,
    ledger: &mut DecisionLedger,
    model: &MigrationCostModel,
    config: &BalanceConfig,
    now: SimTime,
    tracer: &mut dyn Tracer,
    outcome: &mut BalanceOutcome,
    work: &mut u64,
) -> bool {
    let mut gathered = false;
    for donor in donors {
        *work += 1;
        loop {
            let donor_srv = &servers[donor.index()];
            if !donor_srv.is_awake() || donor_srv.shed_pressure() <= 0.0 {
                break;
            }
            let cand_srv = &servers[cand.index()];
            let ceiling = config.shed_fill.ceiling(cand_srv);
            // Largest app that fits the candidate.
            let pick = donor_srv
                .apps()
                .iter()
                .filter(|a| cand_srv.load() + a.demand <= ceiling + EPS)
                .max_by(|x, y| x.demand.total_cmp(&y.demand))
                .map(|a| a.id);
            let records = &mut outcome.migrations;
            let moved = pick.and_then(|app| {
                migrate(servers, donor, cand, app, 0.0, model, now, tracer, records)
            });
            if moved.is_none() {
                break;
            }
            ledger.record(DecisionKind::InClusterHorizontal);
            gathered = true;
        }
        if servers[cand.index()].regime() != OperatingRegime::UndesirableLow {
            break; // candidate climbed out of R1
        }
    }
    gathered
}

/// Phase 2 — R1 servers gather from remaining donors or drain-and-sleep.
///
/// Partners come from the Option B receiver index and the live-donor set
/// built at the start of the phase (under a partner cap, from the leader's
/// donor roster instead of the set). After each candidate both endpoints
/// of its commits, and the candidate itself, are re-keyed, so the next
/// candidate sees the order a fresh scan-and-sort would give.
#[allow(clippy::too_many_arguments)] // phases share the round's full context
fn drain_phase(
    servers: &mut [Server],
    leader: &mut Leader,
    ledger: &mut DecisionLedger,
    model: &MigrationCostModel,
    sleep_model: &SleepModel,
    config: &BalanceConfig,
    now: SimTime,
    tracer: &mut dyn Tracer,
    scratch: &mut BalanceScratch,
    outcome: &mut BalanceOutcome,
) {
    let BalanceScratch {
        roster: candidates,
        apps,
        just_woken,
        drain,
        live_donors,
        work,
        ..
    } = scratch;
    let cluster_load = cluster_load_fraction(servers);
    // R1 candidates, emptiest first (cheapest to drain). A server whose
    // wake matured this round is exempt — it was woken to absorb load and
    // must not oscillate straight back to sleep.
    candidates.clear();
    candidates.extend(
        servers
            .iter()
            .filter(|s| {
                s.is_awake()
                    && s.regime() == OperatingRegime::UndesirableLow
                    && !just_woken[s.id().index()]
            })
            .map(Server::id),
    );
    // Heterogeneous fleets drain the least energy-proportional machines
    // first: idle wattage is exactly the draw a sleep removes, so a
    // high-end server asleep buys more joules than a volume server
    // asleep. Within a wattage tier, emptiest first (cheapest to drain).
    // Homogeneous fleets tie on idle wattage, preserving the paper's
    // original emptiest-first order byte-for-byte.
    candidates.sort_by(|&a, &b| {
        use ecolb_energy::power::PowerModel;
        servers[b.index()]
            .power()
            .idle_power_w()
            .total_cmp(&servers[a.index()].power().idle_power_w())
            .then(
                servers[a.index()]
                    .load()
                    .total_cmp(&servers[b.index()].load()),
            )
            .then(a.cmp(&b))
    });
    // The directory's donor roster changes during this phase only by
    // slept candidates leaving it, and a sleeping server cannot give, so
    // the live-donor set built from it now stays exact.
    let roster = match config.max_partners {
        None => leader.donor_roster(work),
        Some(_) => &[],
    };
    live_donors.build(servers, roster, work);
    drain.build(servers, |s| drain_key(s, config), work);

    let mut processed = 0usize;
    for &cand in candidates.iter() {
        if let Some(budget) = config.drain_candidates_per_interval {
            if processed >= budget {
                break; // leader defers remaining consolidation requests
            }
        }
        if servers[cand.index()].regime() != OperatingRegime::UndesirableLow
            || !servers[cand.index()].is_awake()
        {
            continue; // regime changed due to earlier drains landing here
        }
        processed += 1;
        leader.receive_assistance_request(cand, OperatingRegime::UndesirableLow);
        tracer.event(
            now.ticks(),
            TraceEventKind::AssistanceRequested {
                server: cand.0,
                regime: OperatingRegime::UndesirableLow.index() as u8,
            },
        );
        let first_move = outcome.migrations.len();

        // Option A: gather from remaining overloaded donors (paper gives
        // this branch when R4/R5 servers exist). Without a partner cap only
        // live donors are walked: a donor that cannot give breaks its loop
        // at once and leaves the candidate's regime as it was, so skipping
        // it changes nothing.
        leader.record_partner_list();
        let gathered = {
            let (mut live, mut capped);
            let donors: &mut dyn Iterator<Item = ServerId> = match config.max_partners {
                None => {
                    live = live_donors.by_pos.values().copied();
                    &mut live
                }
                Some(_) => {
                    capped = negotiable(leader.donor_roster(work), cand, config);
                    &mut capped
                }
            };
            let donors = donors.filter(|&id| id != cand);
            gather(
                servers, cand, donors, ledger, model, config, now, tracer, outcome, work,
            )
        };
        // Unless gathering resolved (or improved) this candidate, Option B:
        // drain into R2 receivers filled at most to the drain ceiling. The
        // per-interval transfer budget means a loaded server drains over
        // several intervals; it sleeps only once empty. Most spare drain
        // capacity first maximises placement success. The index is re-keyed
        // only after the move loop, so every move walks the order the
        // candidate first saw.
        if !gathered {
            let mut moved = 0usize;
            while moved < config.drain_moves_per_candidate {
                apps.clear();
                apps.extend(
                    servers[cand.index()]
                        .apps()
                        .iter()
                        .map(|a| (a.id, a.demand)),
                );
                apps.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                let placed = apps.iter().find_map(|&(app, demand)| {
                    drain
                        .negotiable(cand, config)
                        // Keys only overstate the headroom left (moves made
                        // here only add load) and loads are O(1), so no
                        // entry from the first one short of `demand` on can
                        // pass the fit test.
                        .take_while(|slot| -slot.key >= demand - 10.0 * EPS)
                        .inspect(|_| *work += 1)
                        .find(|slot| {
                            let s = &servers[slot.id.index()];
                            s.is_awake() && s.load() + demand <= config.drain_fill.ceiling(s) + EPS
                        })
                        .map(|slot| (app, slot.id))
                });
                let records = &mut outcome.migrations;
                let landed = placed.and_then(|(app, rx)| {
                    migrate(servers, cand, rx, app, 0.0, model, now, tracer, records)
                });
                if landed.is_none() {
                    break;
                }
                ledger.record(DecisionKind::InClusterHorizontal);
                moved += 1;
            }

            if servers[cand.index()].app_count() == 0 {
                if let Some(state) = config.sleep_policy.choose(cluster_load) {
                    servers[cand.index()].enter_sleep(now, state, sleep_model);
                    leader.receive_report(cand, OperatingRegime::UndesirableLow, 0.0, true);
                    tracer.event(
                        now.ticks(),
                        TraceEventKind::SleepEntered {
                            server: cand.0,
                            cstate: cstate_label(state),
                        },
                    );
                    outcome.slept.push((cand, state));
                }
            } else {
                outcome.failed_drains.push(cand);
            }
        }

        let moved = outcome.migrations[first_move..].iter();
        for id in std::iter::once(cand).chain(moved.flat_map(|rec| [rec.from, rec.to])) {
            let server = &servers[id.index()];
            drain.rekey(id, drain_key(server, config), work);
            live_donors.update(server);
        }
    }
}

/// Phase 3 — unresolved R5 servers trigger wake orders (action 5). Each
/// wake order passes through the fault hooks: an injected transition
/// failure loses the order and the server stays asleep.
#[allow(clippy::too_many_arguments)] // phases share the round's full context
fn wake_phase(
    servers: &mut [Server],
    leader: &mut Leader,
    sleep_model: &SleepModel,
    config: &BalanceConfig,
    now: SimTime,
    hooks: &mut dyn FaultHooks,
    stats: &mut RecoveryStats,
    tracer: &mut dyn Tracer,
    outcome: &mut BalanceOutcome,
) {
    if outcome.unresolved_overloads.is_empty() {
        return;
    }
    let still_critical = outcome
        .unresolved_overloads
        .iter()
        .filter(|id| servers[id.index()].regime() == OperatingRegime::UndesirableHigh)
        .count();
    for _ in 0..still_critical {
        let sleepers = leader.find_sleepers(servers);
        for id in sleepers.into_iter().take(config.wakes_per_emergency) {
            leader.issue_wake_order(id);
            tracer.event(now.ticks(), TraceEventKind::WakeOrdered { server: id.0 });
            if hooks.wake_fails(id) {
                stats.wake_failures += 1;
                tracer.event(now.ticks(), TraceEventKind::WakeFailed { server: id.0 });
                outcome.wake_failures.push(id);
            } else {
                servers[id.index()].begin_wake(now, sleep_model);
                outcome.woken.push(id);
            }
        }
    }
}

/// Per-interval reporting sweep through the fault hooks: every server's
/// report makes up to `retry.max_attempts` delivery attempts with
/// exponential backoff; a report that exhausts its budget leaves the
/// leader's previous directory entry stale until the next sweep. The
/// exhaustion is no longer silent: it counts toward
/// `RecoveryStats::reports_abandoned` (surfaced as the degradation
/// summary's `lost_reports`) and emits a `report_retries_exhausted`
/// trace event.
fn report_sweep_with_hooks(
    servers: &[Server],
    leader: &mut Leader,
    retry: &RetryPolicy,
    now: SimTime,
    hooks: &mut dyn FaultHooks,
    stats: &mut RecoveryStats,
    tracer: &mut dyn Tracer,
) {
    for s in servers {
        let mut delivered = false;
        for attempt in 1..=retry.max_attempts.max(1) {
            if attempt > 1 {
                stats.report_retries += 1;
                stats.retry_backoff_seconds += retry.backoff_before(attempt).as_secs_f64();
            }
            if hooks.report_lost(s.id(), attempt) {
                stats.reports_lost += 1;
                tracer.counter("balance.reports_lost", 1);
                continue;
            }
            leader.receive_report(s.id(), s.regime(), s.load(), s.is_sleeping());
            tracer.counter("balance.reports_delivered", 1);
            delivered = true;
            break;
        }
        if !delivered {
            stats.reports_abandoned += 1;
            tracer.event(
                now.ticks(),
                TraceEventKind::ReportRetriesExhausted {
                    server: s.id().0,
                    attempts: retry.max_attempts.max(1),
                },
            );
        }
    }
}

/// Runs one full balancing round at instant `now`. Servers whose pending
/// wake has completed by `now` are brought online first.
pub fn balance_round(
    servers: &mut [Server],
    leader: &mut Leader,
    ledger: &mut DecisionLedger,
    migration_model: &MigrationCostModel,
    sleep_model: &SleepModel,
    config: &BalanceConfig,
    now: SimTime,
) -> BalanceOutcome {
    balance_round_scratch(
        servers,
        leader,
        ledger,
        migration_model,
        sleep_model,
        config,
        now,
        &mut NoFaults,
        &mut RecoveryStats::default(),
        &mut NoTrace,
        &mut BalanceScratch::default(),
    )
}

/// [`balance_round`] with its seams exposed: report delivery and wake
/// orders pass through `hooks` (with [`NoFaults`] this is exactly the
/// fault-free round), recovery bookkeeping lands in `stats`, the round
/// is bracketed by a `balance` span and every protocol action lands in
/// `tracer`, and caller-owned [`BalanceScratch`] lets an interval-driving
/// loop pay the phases' working-buffer allocations once per simulation
/// instead of once per list per interval. Same results, byte for byte.
#[allow(clippy::too_many_arguments)] // one argument per seam
pub fn balance_round_scratch(
    servers: &mut [Server],
    leader: &mut Leader,
    ledger: &mut DecisionLedger,
    migration_model: &MigrationCostModel,
    sleep_model: &SleepModel,
    config: &BalanceConfig,
    now: SimTime,
    hooks: &mut dyn FaultHooks,
    stats: &mut RecoveryStats,
    tracer: &mut dyn Tracer,
    scratch: &mut BalanceScratch,
) -> BalanceOutcome {
    tracer.span_enter(now.ticks(), SpanKind::Balance);
    // Complete wakes that have matured.
    let just_woken = &mut scratch.just_woken;
    just_woken.clear();
    just_woken.resize(servers.len(), false);
    for s in servers.iter_mut() {
        if let Some(t) = s.wake_ready_at() {
            if t <= now {
                s.complete_wake(now);
                tracer.event(
                    now.ticks(),
                    TraceEventKind::WakeCompleted { server: s.id().0 },
                );
                just_woken[s.id().index()] = true;
            }
        }
    }
    report_sweep_with_hooks(servers, leader, &config.retry, now, hooks, stats, tracer);
    let mut outcome = BalanceOutcome::default();
    if !config.enabled {
        tracer.span_exit(now.ticks(), SpanKind::Balance);
        return outcome; // no-balancing baseline: report sweep only
    }
    shed_phase(
        servers,
        leader,
        ledger,
        migration_model,
        config,
        now,
        tracer,
        scratch,
        &mut outcome,
    );
    drain_phase(
        servers,
        leader,
        ledger,
        migration_model,
        sleep_model,
        config,
        now,
        tracer,
        scratch,
        &mut outcome,
    );
    wake_phase(
        servers,
        leader,
        sleep_model,
        config,
        now,
        hooks,
        stats,
        tracer,
        &mut outcome,
    );
    tracer.span_exit(now.ticks(), SpanKind::Balance);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerPowerSpec;
    use ecolb_energy::regimes::RegimeBoundaries;
    use ecolb_workload::application::Application;

    fn boundaries() -> RegimeBoundaries {
        RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8)
    }

    fn mk_cluster(loads: &[&[f64]]) -> (Vec<Server>, Leader) {
        let mut next_app = 0u64;
        let servers: Vec<Server> = loads
            .iter()
            .enumerate()
            .map(|(i, apps)| {
                let mut s = Server::new(
                    ServerId(i as u32),
                    boundaries(),
                    ServerPowerSpec::default(),
                    SimTime::ZERO,
                );
                for &d in *apps {
                    s.place_app(Application::new(AppId(next_app), d, 0.01, 4.0));
                    next_app += 1;
                }
                s
            })
            .collect();
        let n = servers.len();
        (servers, Leader::new(n))
    }

    fn run(servers: &mut [Server], leader: &mut Leader, config: &BalanceConfig) -> BalanceOutcome {
        let mut ledger = DecisionLedger::new();
        balance_round(
            servers,
            leader,
            &mut ledger,
            &MigrationCostModel::default(),
            &SleepModel::default(),
            config,
            SimTime::ZERO,
        )
    }

    #[test]
    fn overloaded_server_sheds_to_underloaded() {
        // Server 0: R5 at 0.9; server 1: R2 at 0.25.
        let (mut servers, mut leader) = mk_cluster(&[&[0.5, 0.4], &[0.25]]);
        assert_eq!(servers[0].regime(), OperatingRegime::UndesirableHigh);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert!(!out.migrations.is_empty());
        assert!(
            !servers[0].regime().is_overloaded(),
            "donor relieved: {}",
            servers[0].load()
        );
        assert!(
            servers[1].load() <= 0.7 + 1e-9,
            "receiver capped at opt_high"
        );
    }

    #[test]
    fn shed_falls_back_to_optimal_receivers() {
        // Donor at 0.9 (R5); only other server is R3 at 0.4 with headroom.
        let (mut servers, mut leader) = mk_cluster(&[&[0.6, 0.3], &[0.4]]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out.migrations.len(), 1);
        assert_eq!(out.migrations[0].to, ServerId(1));
        assert!((servers[1].load() - 0.7).abs() < 1e-9);
        assert!(!servers[0].regime().is_overloaded());
    }

    #[test]
    fn r1_server_drains_and_sleeps() {
        // Server 0: R1 at 0.1 (two small apps); servers 1, 2: R2 at 0.25
        // with drain room to opt_low = 0.3. A budget of 8 moves lets the
        // drain finish within one interval.
        let (mut servers, mut leader) = mk_cluster(&[&[0.05, 0.05], &[0.25], &[0.25]]);
        let config = BalanceConfig {
            drain_moves_per_candidate: 8,
            ..Default::default()
        };
        let out = run(&mut servers, &mut leader, &config);
        assert_eq!(out.slept.len(), 1);
        assert_eq!(out.slept[0].0, ServerId(0));
        assert!(servers[0].is_sleeping());
        assert_eq!(servers[0].app_count(), 0);
        // Low cluster load (≈ 0.2) → deep sleep C6.
        assert_eq!(out.slept[0].1, CState::C6);
        // Receivers never exceed opt_low.
        assert!(servers[1].load() <= 0.3 + 1e-9);
        assert!(servers[2].load() <= 0.3 + 1e-9);
    }

    #[test]
    fn drain_moves_only_what_fits() {
        // Candidate has one app too large for any receiver's drain room:
        // nothing moves, the candidate stays awake and is reported as a
        // failed drain (it will retry next interval).
        let (mut servers, mut leader) = mk_cluster(&[&[0.15], &[0.25], &[0.25]]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert!(out.slept.is_empty());
        assert!(out.migrations.is_empty());
        assert_eq!(out.failed_drains, vec![ServerId(0)]);
        assert!(servers[0].is_awake());
        assert_eq!(servers[0].app_count(), 1);
    }

    #[test]
    fn drain_budget_spreads_over_intervals() {
        // Two apps, budget 1: the first round moves one app and reports a
        // failed (incomplete) drain; the second round finishes and sleeps.
        let (mut servers, mut leader) = mk_cluster(&[&[0.05, 0.05], &[0.25], &[0.25]]);
        let out1 = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out1.migrations.len(), 1);
        assert!(out1.slept.is_empty());
        assert_eq!(out1.failed_drains, vec![ServerId(0)]);
        let out2 = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out2.slept.len(), 1);
        assert!(servers[0].is_sleeping());
    }

    #[test]
    fn mixed_fleet_drains_high_idle_wattage_servers_first() {
        // Two fully drainable R1 idlers — server 0 a volume-class machine,
        // server 1 a high-end machine whose idle draw is several times
        // larger — plus two receivers with drain room. A candidate budget
        // of 1 forces a choice: sleeping the high-end idler removes the
        // most wattage, so the leader must spend the budget there.
        use crate::mix::ServerMix;
        use ecolb_energy::server_class::ServerClass;
        let mix = ServerMix::typical_enterprise();
        let classes = [
            ServerClass::Volume,
            ServerClass::HighEnd,
            ServerClass::Volume,
            ServerClass::Volume,
        ];
        let loads: [&[f64]; 4] = [&[0.05], &[0.05], &[0.25], &[0.25]];
        let mut next_app = 0u64;
        let mut servers: Vec<Server> = classes
            .iter()
            .zip(loads)
            .enumerate()
            .map(|(i, (&class, apps))| {
                let mut s = Server::new(
                    ServerId(i as u32),
                    boundaries(),
                    mix.power_spec(class),
                    SimTime::ZERO,
                );
                for &d in apps {
                    s.place_app(Application::new(AppId(next_app), d, 0.01, 4.0));
                    next_app += 1;
                }
                s
            })
            .collect();
        {
            use ecolb_energy::power::PowerModel;
            assert!(
                servers[1].power().idle_power_w() > servers[0].power().idle_power_w(),
                "the high-end machine idles hotter than the volume one"
            );
        }
        let mut leader = Leader::new(servers.len());
        let config = BalanceConfig {
            drain_candidates_per_interval: Some(1),
            ..Default::default()
        };
        let out = run(&mut servers, &mut leader, &config);
        assert_eq!(out.slept.len(), 1);
        assert_eq!(
            out.slept[0].0,
            ServerId(1),
            "the high-end idler sleeps first"
        );
        assert!(servers[1].is_sleeping());
        assert!(servers[0].is_awake(), "the volume idler waits its turn");
    }

    #[test]
    fn r1_prefers_gathering_when_donors_exist() {
        // Server 0: R1 at 0.1; server 1: R5 at 0.9.
        let (mut servers, mut leader) = mk_cluster(&[&[0.1], &[0.5, 0.4]]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        // The shed phase already routes load to server 0 (it is the only
        // receiver), so server 0 must not sleep.
        assert!(out.slept.is_empty());
        assert!(servers[0].load() > 0.1);
        assert!(!servers[1].regime().is_overloaded());
    }

    #[test]
    fn busy_cluster_sleeps_shallow() {
        // Cluster load above 60 %: the drained server must pick C3.
        // Three heavily loaded servers plus one empty-ish one, with a
        // receiver that has drain room.
        let (mut servers, mut leader) =
            mk_cluster(&[&[0.05], &[0.28], &[0.69], &[0.69], &[0.69], &[0.69]]);
        // cluster load = (0.05+0.28+0.69*4)/6 = 0.515 → still C6. Push it up:
        servers[2].place_app(Application::new(AppId(90), 0.1, 0.01, 4.0));
        servers[3].place_app(Application::new(AppId(91), 0.1, 0.01, 4.0));
        servers[4].place_app(Application::new(AppId(92), 0.1, 0.01, 4.0));
        servers[5].place_app(Application::new(AppId(93), 0.1, 0.01, 4.0));
        // load = (0.05+0.28+0.79*4)/6 = 0.582 — close; add one more app.
        servers[2].place_app(Application::new(AppId(94), 0.2, 0.01, 4.0));
        let load = cluster_load_fraction(&servers);
        assert!(load > 0.6, "cluster load {load}");
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        if let Some(&(_, state)) = out.slept.first() {
            assert_eq!(state, CState::C3, "busy cluster must not use C6");
        }
    }

    #[test]
    fn unresolved_r5_wakes_a_sleeper() {
        let sleep_model = SleepModel::default();
        // Server 0: impossibly overloaded, single monolithic app nobody
        // can take; server 1 asleep.
        let (mut servers, mut leader) = mk_cluster(&[&[0.95], &[]]);
        servers[1].enter_sleep(SimTime::ZERO, CState::C3, &sleep_model);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        assert_eq!(out.woken, vec![ServerId(1)]);
        assert!(servers[1].wake_ready_at().is_some(), "wake in flight");
        assert!(out.unresolved_overloads.contains(&ServerId(0)));
    }

    #[test]
    fn matured_wakes_complete_at_round_start() {
        let sleep_model = SleepModel::default();
        let (mut servers, mut leader) = mk_cluster(&[&[0.5]]);
        let mut extra = Server::new(
            ServerId(1),
            boundaries(),
            ServerPowerSpec::default(),
            SimTime::ZERO,
        );
        extra.enter_sleep(SimTime::ZERO, CState::C3, &sleep_model);
        let ready = extra.begin_wake(SimTime::from_secs(1), &sleep_model);
        servers.push(extra);
        let mut leader2 = Leader::new(2);
        std::mem::swap(&mut leader, &mut leader2);
        let mut ledger = DecisionLedger::new();
        balance_round(
            &mut servers,
            &mut leader,
            &mut ledger,
            &MigrationCostModel::default(),
            &SleepModel::default(),
            &BalanceConfig::default(),
            ready + ecolb_simcore::time::SimDuration::from_secs(1),
        );
        assert!(servers[1].is_awake());
    }

    #[test]
    fn load_is_conserved_by_balancing() {
        let (mut servers, mut leader) =
            mk_cluster(&[&[0.5, 0.4], &[0.25], &[0.1], &[0.72], &[0.3, 0.3]]);
        let before: f64 = servers.iter().map(Server::load).sum();
        run(&mut servers, &mut leader, &BalanceConfig::default());
        let after: f64 = servers.iter().map(Server::load).sum();
        assert!(
            (before - after).abs() < 1e-9,
            "load conserved: {before} vs {after}"
        );
    }

    #[test]
    fn partner_cap_limits_negotiation() {
        // Donor must spread over two receivers, but the cap allows one.
        let (mut servers, mut leader) = mk_cluster(&[&[0.45, 0.45], &[0.25], &[0.25]]);
        let config = BalanceConfig {
            max_partners: Some(1),
            ..Default::default()
        };
        let out = run(&mut servers, &mut leader, &config);
        let targets: std::collections::BTreeSet<ServerId> =
            out.migrations.iter().map(|m| m.to).collect();
        assert!(
            targets.len() <= 1,
            "negotiated with more partners than allowed"
        );
    }

    /// Scripted injector: fails every wake order and drops the first
    /// `lose_first_attempts` delivery attempts of every report.
    struct Scripted {
        fail_wakes: bool,
        lose_first_attempts: u32,
    }

    impl FaultHooks for Scripted {
        fn report_lost(&mut self, _from: ServerId, attempt: u32) -> bool {
            attempt <= self.lose_first_attempts
        }
        fn wake_fails(&mut self, _server: ServerId) -> bool {
            self.fail_wakes
        }
    }

    fn run_hooked(
        servers: &mut [Server],
        leader: &mut Leader,
        config: &BalanceConfig,
        hooks: &mut dyn FaultHooks,
        stats: &mut RecoveryStats,
    ) -> BalanceOutcome {
        let mut ledger = DecisionLedger::new();
        balance_round_scratch(
            servers,
            leader,
            &mut ledger,
            &MigrationCostModel::default(),
            &SleepModel::default(),
            config,
            SimTime::ZERO,
            hooks,
            stats,
            &mut NoTrace,
            &mut BalanceScratch::default(),
        )
    }

    #[test]
    fn failed_wake_leaves_server_asleep() {
        let sleep_model = SleepModel::default();
        let (mut servers, mut leader) = mk_cluster(&[&[0.95], &[]]);
        servers[1].enter_sleep(SimTime::ZERO, CState::C3, &sleep_model);
        let mut hooks = Scripted {
            fail_wakes: true,
            lose_first_attempts: 0,
        };
        let mut stats = RecoveryStats::default();
        let out = run_hooked(
            &mut servers,
            &mut leader,
            &BalanceConfig::default(),
            &mut hooks,
            &mut stats,
        );
        assert_eq!(out.wake_failures, vec![ServerId(1)]);
        assert!(out.woken.is_empty());
        assert!(servers[1].is_sleeping());
        assert!(servers[1].wake_ready_at().is_none(), "no wake in flight");
        assert_eq!(stats.wake_failures, 1);
        assert_eq!(leader.stats().wake_orders, 1, "the order was still sent");
    }

    #[test]
    fn lost_reports_retry_with_backoff_then_deliver() {
        let (mut servers, mut leader) = mk_cluster(&[&[0.5], &[0.25]]);
        // Lose the first attempt of every report; the immediate retry
        // (attempt 2, backoff 100 ms) succeeds.
        let mut hooks = Scripted {
            fail_wakes: false,
            lose_first_attempts: 1,
        };
        let mut stats = RecoveryStats::default();
        run_hooked(
            &mut servers,
            &mut leader,
            &BalanceConfig::default(),
            &mut hooks,
            &mut stats,
        );
        assert_eq!(stats.reports_lost, 2);
        assert_eq!(stats.report_retries, 2);
        assert_eq!(stats.reports_abandoned, 0);
        assert!((stats.retry_backoff_seconds - 0.2).abs() < 1e-9);
        assert!(leader.entry(ServerId(0)).is_some(), "retry delivered");
    }

    #[test]
    fn exhausted_retries_leave_directory_stale() {
        let (mut servers, mut leader) = mk_cluster(&[&[0.5]]);
        let mut hooks = Scripted {
            fail_wakes: false,
            lose_first_attempts: u32::MAX,
        };
        let mut stats = RecoveryStats::default();
        run_hooked(
            &mut servers,
            &mut leader,
            &BalanceConfig::default(),
            &mut hooks,
            &mut stats,
        );
        assert_eq!(stats.reports_abandoned, 1);
        assert_eq!(stats.reports_lost, 3, "default budget is 3 attempts");
        assert!(
            leader.entry(ServerId(0)).is_none(),
            "never-delivered report leaves no entry"
        );
    }

    #[test]
    fn no_faults_hooks_match_plain_round() {
        let (mut a_servers, mut a_leader) =
            mk_cluster(&[&[0.5, 0.4], &[0.25], &[0.1], &[0.72], &[0.3, 0.3]]);
        let (mut b_servers, mut b_leader) =
            mk_cluster(&[&[0.5, 0.4], &[0.25], &[0.1], &[0.72], &[0.3, 0.3]]);
        let out_a = run(&mut a_servers, &mut a_leader, &BalanceConfig::default());
        let mut stats = RecoveryStats::default();
        let out_b = run_hooked(
            &mut b_servers,
            &mut b_leader,
            &BalanceConfig::default(),
            &mut NoFaults,
            &mut stats,
        );
        assert_eq!(out_a.migrations, out_b.migrations);
        assert_eq!(out_a.slept, out_b.slept);
        assert_eq!(out_a.woken, out_b.woken);
        assert_eq!(stats, RecoveryStats::default(), "no recovery work done");
        assert_eq!(a_leader.stats(), b_leader.stats());
        for (x, y) in a_servers.iter().zip(&b_servers) {
            assert_eq!(x.load(), y.load());
        }
    }

    /// `Server::take_app` uses `swap_remove`, so two servers hosting the
    /// same apps can store them in different orders depending on removal
    /// history (the cluster driver's evolve loop even breaks early over
    /// this, `cluster.rs`). Every selection loop in the balancing phases
    /// sorts its working set by `(demand, id)`, so in-memory order must
    /// never leak into decisions — pinned here by running one round over
    /// two clusters that differ *only* in app storage order and requiring
    /// byte-identical outcomes.
    #[test]
    fn app_storage_order_does_not_leak_into_decisions() {
        let mk = |shuffled: bool| {
            // Donor at 0.9 (R5) with three apps; two receivers.
            let (mut servers, leader) = mk_cluster(&[&[], &[0.25], &[0.25]]);
            let app = |id: u64, demand: f64| Application::new(AppId(id), demand, 0.01, 4.0);
            if shuffled {
                // Place a decoy between the real apps, then take it:
                // swap_remove leaves storage order [10, 12, 11].
                servers[0].place_app(app(10, 0.4));
                servers[0].place_app(app(99, 0.1));
                servers[0].place_app(app(11, 0.3));
                servers[0].place_app(app(12, 0.2));
                servers[0].take_app(AppId(99));
            } else {
                servers[0].place_app(app(10, 0.4));
                servers[0].place_app(app(11, 0.3));
                servers[0].place_app(app(12, 0.2));
            }
            (servers, leader)
        };
        let (mut a_servers, mut a_leader) = mk(false);
        let (mut b_servers, mut b_leader) = mk(true);
        assert_ne!(
            a_servers[0].apps().iter().map(|a| a.id).collect::<Vec<_>>(),
            b_servers[0].apps().iter().map(|a| a.id).collect::<Vec<_>>(),
            "precondition: storage orders actually differ"
        );
        let out_a = run(&mut a_servers, &mut a_leader, &BalanceConfig::default());
        let out_b = run(&mut b_servers, &mut b_leader, &BalanceConfig::default());
        assert!(!out_a.migrations.is_empty(), "round must do real work");
        assert_eq!(
            format!("{out_a:?}"),
            format!("{out_b:?}"),
            "outcome must be byte-identical across app storage orders"
        );
        for (x, y) in a_servers.iter().zip(&b_servers) {
            assert_eq!(x.load().to_bits(), y.load().to_bits());
        }
    }

    #[test]
    fn migration_records_carry_costs() {
        let (mut servers, mut leader) = mk_cluster(&[&[0.5, 0.4], &[0.25]]);
        let out = run(&mut servers, &mut leader, &BalanceConfig::default());
        for m in &out.migrations {
            assert!(m.cost.energy_j > 0.0);
            assert!(m.cost.duration.as_secs_f64() > 0.0);
            assert!(m.demand > 0.0);
        }
        assert!(out.migration_energy_j() > 0.0);
    }

    /// The scan-and-sort partner searches the drain index, the leader
    /// rosters and the live-donor set replaced, kept as test oracles:
    /// every phase as it was before the indexes, allocating freely.
    mod oracle {
        use super::*;

        /// Leader directory scan: awake entries in the given regimes other
        /// than `requester`, with their reported regime and load.
        fn directory_scan(
            leader: &Leader,
            requester: ServerId,
            wanted: fn(OperatingRegime) -> bool,
        ) -> Vec<(ServerId, OperatingRegime, f64)> {
            (0..leader.capacity() as u32)
                .map(ServerId)
                .filter_map(|id| {
                    let e = leader.entry(id)?;
                    (id != requester && !e.sleeping && wanted(e.regime))
                        .then_some((id, e.regime, e.load))
                })
                .collect()
        }

        /// The leader's receiver search as a scan and a sort.
        pub fn receivers(leader: &Leader, requester: ServerId) -> Vec<ServerId> {
            let mut found = directory_scan(leader, requester, OperatingRegime::is_underloaded);
            found.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
            found.into_iter().map(|(id, _, _)| id).collect()
        }

        /// The leader's donor search as a scan and a sort.
        pub fn donors(leader: &Leader, requester: ServerId) -> Vec<ServerId> {
            let mut found = directory_scan(leader, requester, OperatingRegime::is_overloaded);
            found.sort_by(|a, b| {
                b.1.index()
                    .cmp(&a.1.index())
                    .then(b.2.total_cmp(&a.2))
                    .then(a.0.cmp(&b.0))
            });
            found.into_iter().map(|(id, _, _)| id).collect()
        }

        /// Option B's receivers as a fleet scan and a sort.
        pub fn drain_receivers(
            servers: &[Server],
            cand: ServerId,
            config: &BalanceConfig,
        ) -> Vec<ServerId> {
            let mut found: Vec<ServerId> = servers
                .iter()
                .filter(|s| {
                    s.is_awake()
                        && s.id() != cand
                        && s.regime() == OperatingRegime::SuboptimalLow
                        && s.load() < config.drain_fill.ceiling(s)
                })
                .map(Server::id)
                .collect();
            found.sort_by(|&a, &b| {
                let ha = config.drain_fill.ceiling(&servers[a.index()]) - servers[a.index()].load();
                let hb = config.drain_fill.ceiling(&servers[b.index()]) - servers[b.index()].load();
                hb.total_cmp(&ha).then(a.cmp(&b))
            });
            found
        }

        /// The shed fallback's receivers as a fleet scan and a sort.
        pub fn optimal_receivers(
            servers: &[Server],
            donor: ServerId,
            config: &BalanceConfig,
        ) -> Vec<ServerId> {
            let mut found: Vec<ServerId> = servers
                .iter()
                .filter(|s| {
                    s.is_awake()
                        && s.id() != donor
                        && s.regime() == OperatingRegime::Optimal
                        && s.load() < config.shed_fill.ceiling(s)
                })
                .map(Server::id)
                .collect();
            found.sort_by(|&a, &b| {
                servers[a.index()]
                    .load()
                    .total_cmp(&servers[b.index()].load())
                    .then(a.cmp(&b))
            });
            found
        }

        fn cap(mut ids: Vec<ServerId>, config: &BalanceConfig) -> Vec<ServerId> {
            ids.truncate(config.max_partners.unwrap_or(usize::MAX));
            ids
        }

        fn commit(
            servers: &mut [Server],
            from: ServerId,
            to: ServerId,
            app: AppId,
            ledger: &mut DecisionLedger,
            outcome: &mut BalanceOutcome,
        ) -> bool {
            let (model, at) = (MigrationCostModel::default(), SimTime::ZERO);
            let records = &mut outcome.migrations;
            let moved = migrate(
                servers,
                from,
                to,
                app,
                0.0,
                &model,
                at,
                &mut NoTrace,
                records,
            );
            if moved.is_some() {
                ledger.record(DecisionKind::InClusterHorizontal);
            }
            moved.is_some()
        }

        fn shed(
            servers: &mut [Server],
            leader: &mut Leader,
            ledger: &mut DecisionLedger,
            config: &BalanceConfig,
            outcome: &mut BalanceOutcome,
        ) {
            let mut donors: Vec<ServerId> = servers
                .iter()
                .filter(|s| s.is_awake() && s.regime().is_overloaded())
                .map(Server::id)
                .collect();
            donors.sort_by(|&a, &b| {
                let (sa, sb) = (&servers[a.index()], &servers[b.index()]);
                sb.regime()
                    .index()
                    .cmp(&sa.regime().index())
                    .then(sb.load().total_cmp(&sa.load()))
                    .then(a.cmp(&b))
            });
            for donor in donors {
                if !servers[donor.index()].regime().is_overloaded() {
                    continue;
                }
                leader.receive_assistance_request(donor, servers[donor.index()].regime());
                leader.record_partner_list();
                let mut partners = receivers(leader, donor);
                if partners.is_empty() {
                    partners = optimal_receivers(servers, donor, config);
                }
                let receivers = cap(partners, config);
                let mut moves = 0usize;
                while moves < config.shed_moves_per_donor {
                    let excess = servers[donor.index()].shed_pressure();
                    if excess <= 0.0 {
                        break;
                    }
                    let mut apps: Vec<(AppId, f64)> = servers[donor.index()]
                        .apps()
                        .iter()
                        .map(|a| (a.id, a.demand))
                        .collect();
                    apps.sort_by(|a, b| {
                        let (a_clears, b_clears) = (a.1 + EPS >= excess, b.1 + EPS >= excess);
                        b_clears
                            .cmp(&a_clears)
                            .then_with(|| {
                                if a_clears && b_clears {
                                    a.1.total_cmp(&b.1)
                                } else {
                                    b.1.total_cmp(&a.1)
                                }
                            })
                            .then(a.0.cmp(&b.0))
                    });
                    let fit = apps.iter().find_map(|&(app, demand)| {
                        receivers
                            .iter()
                            .find(|rx| {
                                let s = &servers[rx.index()];
                                s.is_awake()
                                    && s.load() + demand <= config.shed_fill.ceiling(s) + EPS
                            })
                            .map(|&rx| (app, rx))
                    });
                    match fit {
                        Some((app, rx)) => {
                            if commit(servers, donor, rx, app, ledger, outcome) {
                                moves += 1;
                            }
                        }
                        None => break,
                    }
                }
                if servers[donor.index()].regime() == OperatingRegime::UndesirableHigh {
                    outcome.unresolved_overloads.push(donor);
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn drain(
            servers: &mut [Server],
            leader: &mut Leader,
            ledger: &mut DecisionLedger,
            sleep_model: &SleepModel,
            config: &BalanceConfig,
            now: SimTime,
            just_woken: &[ServerId],
            outcome: &mut BalanceOutcome,
        ) {
            use ecolb_energy::power::PowerModel;
            let cluster_load = cluster_load_fraction(servers);
            let mut candidates: Vec<ServerId> = servers
                .iter()
                .filter(|s| {
                    s.is_awake()
                        && s.regime() == OperatingRegime::UndesirableLow
                        && !just_woken.contains(&s.id())
                })
                .map(Server::id)
                .collect();
            candidates.sort_by(|&a, &b| {
                let (sa, sb) = (&servers[a.index()], &servers[b.index()]);
                sb.power()
                    .idle_power_w()
                    .total_cmp(&sa.power().idle_power_w())
                    .then(sa.load().total_cmp(&sb.load()))
                    .then(a.cmp(&b))
            });
            let mut processed = 0usize;
            for cand in candidates {
                if config
                    .drain_candidates_per_interval
                    .is_some_and(|budget| processed >= budget)
                {
                    break;
                }
                if servers[cand.index()].regime() != OperatingRegime::UndesirableLow
                    || !servers[cand.index()].is_awake()
                {
                    continue;
                }
                processed += 1;
                leader.receive_assistance_request(cand, OperatingRegime::UndesirableLow);
                leader.record_partner_list();
                let mut gathered = false;
                for donor in cap(donors(leader, cand), config) {
                    loop {
                        let donor_srv = &servers[donor.index()];
                        if !donor_srv.is_awake() || donor_srv.shed_pressure() <= 0.0 {
                            break;
                        }
                        let cand_srv = &servers[cand.index()];
                        let ceiling = config.shed_fill.ceiling(cand_srv);
                        let pick = donor_srv
                            .apps()
                            .iter()
                            .filter(|a| cand_srv.load() + a.demand <= ceiling + EPS)
                            .max_by(|x, y| x.demand.total_cmp(&y.demand))
                            .map(|a| a.id);
                        match pick {
                            Some(app) if commit(servers, donor, cand, app, ledger, outcome) => {
                                gathered = true;
                            }
                            _ => break,
                        }
                    }
                    if servers[cand.index()].regime() != OperatingRegime::UndesirableLow {
                        break;
                    }
                }
                if gathered {
                    continue;
                }
                let receivers = cap(drain_receivers(servers, cand, config), config);
                for _ in 0..config.drain_moves_per_candidate {
                    let mut apps: Vec<(AppId, f64)> = servers[cand.index()]
                        .apps()
                        .iter()
                        .map(|a| (a.id, a.demand))
                        .collect();
                    apps.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                    let fit = apps.iter().find_map(|&(app, demand)| {
                        receivers
                            .iter()
                            .find(|rx| {
                                let s = &servers[rx.index()];
                                s.is_awake()
                                    && s.load() + demand <= config.drain_fill.ceiling(s) + EPS
                            })
                            .map(|&rx| (app, rx))
                    });
                    match fit {
                        Some((app, rx)) if commit(servers, cand, rx, app, ledger, outcome) => {}
                        _ => break,
                    }
                }
                if servers[cand.index()].app_count() == 0 {
                    if let Some(state) = config.sleep_policy.choose(cluster_load) {
                        servers[cand.index()].enter_sleep(now, state, sleep_model);
                        leader.receive_report(cand, OperatingRegime::UndesirableLow, 0.0, true);
                        outcome.slept.push((cand, state));
                    }
                } else {
                    outcome.failed_drains.push(cand);
                }
            }
        }

        /// [`balance_round`] with every partner found by scan and sort.
        pub fn round(
            servers: &mut [Server],
            leader: &mut Leader,
            ledger: &mut DecisionLedger,
            config: &BalanceConfig,
            now: SimTime,
        ) -> BalanceOutcome {
            let sleep_model = SleepModel::default();
            let mut just_woken = Vec::new();
            for s in servers.iter_mut() {
                if s.wake_ready_at().is_some_and(|t| t <= now) {
                    s.complete_wake(now);
                    just_woken.push(s.id());
                }
            }
            leader.full_report_sweep(servers);
            let mut outcome = BalanceOutcome::default();
            if !config.enabled {
                return outcome;
            }
            shed(servers, leader, ledger, config, &mut outcome);
            drain(
                servers,
                leader,
                ledger,
                &sleep_model,
                config,
                now,
                &just_woken,
                &mut outcome,
            );
            wake_phase(
                servers,
                leader,
                &sleep_model,
                config,
                now,
                &mut NoFaults,
                &mut RecoveryStats::default(),
                &mut NoTrace,
                &mut outcome,
            );
            outcome
        }
    }

    /// A random fleet for the oracle properties: paper-sampled or fixed
    /// regime boundaries, sometimes busy, a few apps each, some servers asleep and some with a
    /// wake maturing at `now`. Demands come from a small grid so equal
    /// loads and equal headrooms exercise the id tie-breaks.
    fn random_fleet(g: &mut ecolb_simcore::proptest_lite::Gen, now: SimTime) -> Vec<Server> {
        let sleep = SleepModel::default();
        let n = g.usize_in(2, 40);
        let grid = g.rng().chance(0.5);
        // A busy fleet has no server below the optimal band, so every
        // shed takes the fallback to optimal-band receivers.
        const BUSY_FLOOR: f64 = 0.475;
        let busy = g.rng().chance(0.3);
        let mut next_app = 0u64;
        (0..n as u32)
            .map(|i| {
                // Grid boundaries make receivers whose headroom equals a
                // demand up to rounding, the edge of the fit test.
                let b = if grid {
                    boundaries()
                } else {
                    RegimeBoundaries::sample_paper(g.rng())
                };
                let mut s = Server::new(ServerId(i), b, ServerPowerSpec::default(), SimTime::ZERO);
                let mut room = g.f64_in(0.0, 1.0);
                if busy {
                    s.place_app(Application::new(AppId(next_app), BUSY_FLOOR, 0.01, 4.0));
                    next_app += 1;
                    room *= 1.0 - BUSY_FLOOR;
                }
                for _ in 0..g.usize_in(0, 5) {
                    let demand = f64::from(g.u8_in(1, 20)) / 40.0;
                    if demand <= room {
                        room -= demand;
                        s.place_app(Application::new(AppId(next_app), demand, 0.01, 4.0));
                        next_app += 1;
                    }
                }
                if s.app_count() == 0 && g.rng().chance(0.3) {
                    s.enter_sleep(SimTime::ZERO, CState::C3, &sleep);
                    if g.rng().chance(0.5) {
                        s.begin_wake(SimTime::ZERO, &sleep);
                        assert!(s.wake_ready_at().is_some_and(|t| t <= now));
                    }
                }
                s
            })
            .collect()
    }

    fn random_config(g: &mut ecolb_simcore::proptest_lite::Gen) -> BalanceConfig {
        const FILLS: [FillLimit; 3] = [FillLimit::OptLow, FillLimit::OptTarget, FillLimit::OptHigh];
        BalanceConfig {
            max_partners: g.rng().chance(0.5).then(|| g.usize_in(1, 5)),
            drain_moves_per_candidate: g.usize_in(1, 5),
            drain_candidates_per_interval: g.rng().chance(0.5).then(|| g.usize_in(1, 8)),
            shed_moves_per_donor: g.usize_in(1, 6),
            shed_fill: FILLS[g.usize_in(0, 3)],
            drain_fill: FILLS[g.usize_in(0, 3)],
            ..BalanceConfig::default()
        }
    }

    /// Over random fleets and configs — partner caps, candidate caps and
    /// several drain moves per candidate included — three consecutive
    /// rounds on one reused scratch make exactly the decisions the
    /// scan-and-sort oracle makes, leaving identical fleets, directories
    /// and message counts. Demands drift between rounds, so the leader's
    /// rosters go stale and the indexes are rebuilt from new state.
    #[test]
    fn indexed_round_matches_the_scan_and_sort_oracle() {
        // Rounding edges of the early stops need many cases to hit.
        ecolb_simcore::proptest_lite::check_cases("indexed_round_matches_oracle", 1024, |g| {
            let now = SimTime::from_secs(60);
            let config = random_config(g);
            let mut servers = random_fleet(g, now);
            let n = servers.len();
            let (mut leader, mut oracle_leader) = (Leader::new(n), Leader::new(n));
            let mut oracle_servers = servers.clone();
            let mut scratch = BalanceScratch::default();
            let (mut ledger, mut oracle_ledger) = (DecisionLedger::new(), DecisionLedger::new());
            for round in 0..3 {
                let at = now + ecolb_simcore::time::SimDuration::from_secs(round * 300);
                let got = balance_round_scratch(
                    &mut servers,
                    &mut leader,
                    &mut ledger,
                    &MigrationCostModel::default(),
                    &SleepModel::default(),
                    &config,
                    at,
                    &mut NoFaults,
                    &mut RecoveryStats::default(),
                    &mut NoTrace,
                    &mut scratch,
                );
                let want = oracle::round(
                    &mut oracle_servers,
                    &mut oracle_leader,
                    &mut oracle_ledger,
                    &config,
                    at,
                );
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "round {round}");
                assert_eq!(format!("{servers:?}"), format!("{oracle_servers:?}"));
                assert_eq!(leader.stats(), oracle_leader.stats());
                assert_eq!(format!("{ledger:?}"), format!("{oracle_ledger:?}"));
                for id in (0..n as u32).map(ServerId) {
                    assert_eq!(leader.entry(id), oracle_leader.entry(id));
                }
                // Demand drift: shrink one app per awake server a little.
                for (a, b) in servers.iter_mut().zip(oracle_servers.iter_mut()) {
                    if a.is_awake() && a.app_count() > 0 && g.rng().chance(0.5) {
                        let cut = f64::from(g.u8_in(1, 4)) / 100.0;
                        for s in [a, b] {
                            let app = &mut s.apps_mut()[0];
                            app.demand = (app.demand - cut).max(0.0);
                            s.refresh_load();
                        }
                    }
                }
            }
        });
    }

    /// Over random fleets and random commit and sleep sequences, the
    /// drain-receiver and shed-fallback indexes re-keyed at both endpoints
    /// of every commit (and at every sleep) hold exactly the receivers a
    /// fresh fleet scan-and-sort finds, and the live-donor set holds
    /// exactly the donor-roster members that can still give, in roster
    /// order.
    #[test]
    fn partner_indexes_match_the_scan_and_sort_oracle() {
        ecolb_simcore::proptest_lite::check_cases("partner_indexes_match_oracle", 512, |g| {
            let now = SimTime::from_secs(60);
            let config = random_config(g);
            let mut servers = random_fleet(g, now);
            for s in &mut servers {
                if s.wake_ready_at().is_some() {
                    s.complete_wake(now);
                }
            }
            let n = servers.len();
            let mut leader = Leader::new(n);
            leader.full_report_sweep(&servers);
            let nobody = ServerId(u32::MAX);
            let roster = oracle::donors(&leader, nobody);
            let (mut drain, mut optimal) = (ServerIndex::default(), ServerIndex::default());
            let mut optimal_room = ServerIndex::default();
            let mut live_donors = LiveDonors::default();
            let mut work = 0;
            drain.build(&servers, |s| drain_key(s, &config), &mut work);
            optimal.build(&servers, |s| optimal_key(s, &config), &mut work);
            optimal_room.build(&servers, |s| optimal_room_key(s, &config), &mut work);
            live_donors.build(&servers, &roster, &mut work);
            for _ in 0..g.usize_in(1, 30) {
                let from = ServerId(g.usize_in(0, n) as u32);
                let to = ServerId(g.usize_in(0, n) as u32);
                let app = servers[from.index()].apps().first().map(|a| a.id);
                let touched = match app {
                    Some(app) if from != to && servers[to.index()].is_awake() => {
                        let moved = migrate(
                            &mut servers,
                            from,
                            to,
                            app,
                            0.0,
                            &MigrationCostModel::default(),
                            now,
                            &mut NoTrace,
                            &mut Vec::new(),
                        );
                        assert!(moved.is_some());
                        vec![from, to]
                    }
                    _ if servers[from.index()].app_count() == 0
                        && servers[from.index()].is_awake() =>
                    {
                        let sleep = SleepModel::default();
                        servers[from.index()].enter_sleep(now, CState::C6, &sleep);
                        vec![from]
                    }
                    _ => continue,
                };
                for id in touched {
                    let s = &servers[id.index()];
                    drain.rekey(id, drain_key(s, &config), &mut work);
                    optimal.rekey(id, optimal_key(s, &config), &mut work);
                    optimal_room.rekey(id, optimal_room_key(s, &config), &mut work);
                    live_donors.update(s);
                }
                let ids = |index: &ServerIndex| -> Vec<ServerId> {
                    index.slots.iter().map(|slot| slot.id).collect()
                };
                assert_eq!(
                    ids(&drain),
                    oracle::drain_receivers(&servers, nobody, &config)
                );
                let mut roomiest = oracle::optimal_receivers(&servers, nobody, &config);
                assert_eq!(ids(&optimal), roomiest);
                let room = |id: &ServerId| {
                    let s = &servers[id.index()];
                    config.shed_fill.ceiling(s) - s.load()
                };
                roomiest.sort_by(|a, b| room(b).total_cmp(&room(a)).then(a.cmp(b)));
                assert_eq!(ids(&optimal_room), roomiest);
                let live: Vec<ServerId> = live_donors.by_pos.values().copied().collect();
                let want: Vec<ServerId> = roster
                    .iter()
                    .copied()
                    .filter(|id| can_give(&servers[id.index()]))
                    .collect();
                assert_eq!(live, want);
            }
        });
    }
}
