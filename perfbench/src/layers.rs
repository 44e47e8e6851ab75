//! Per-layer probes: each times one public entry point of one crate on
//! inputs built from the workload seed, from outside the crate.

use std::hint::black_box;

use ecolb_cluster::cluster::{Cluster, ClusterConfig};
use ecolb_cluster::leader::Leader;
use ecolb_cluster::server::ServerId;
use ecolb_serve::discover::{ClusterDiscover, Discover, InstanceSet};
use ecolb_serve::picker::PickerKind;
use ecolb_serve::queue::QueueModel;
use ecolb_simcore::event::EventQueue;
use ecolb_simcore::rng::Rng;
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::generator::WorkloadSpec;
use ecolb_workload::processes::{RateModulation, SourceProfile};
use ecolb_workload::requests::{RequestId, RequestLoadSpec};

use crate::report::{median, ns_per_call, timed};
use crate::workloads::faulted_crowd;

/// Which partner search a leader probe times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// `Leader::find_receivers_into` on a low-load directory, where
    /// most servers are underloaded receivers.
    Receivers,
    /// `Leader::find_donors_into` on a high-load directory, where the
    /// overloaded donors the search scans for exist (at low load the
    /// search answers from an empty counter without scanning).
    Donors,
}

/// Median ns per partner search on a directory filled by
/// `Leader::full_report_sweep` from a freshly built `n`-server cluster,
/// cycling the requester over every server. Also returns the mean
/// answer length, so a probe that hit the empty fast path shows.
pub fn leader_query_ns(n: usize, seed: u64, search: Search) -> (f64, f64) {
    let load = match search {
        Search::Receivers => WorkloadSpec::paper_low_load(),
        Search::Donors => WorkloadSpec::paper_high_load(),
    };
    let cluster = Cluster::new(ClusterConfig::paper(n, load), seed);
    let mut leader = Leader::new(n);
    leader.full_report_sweep(cluster.servers());
    let mut out = Vec::new();
    let (mut answers, mut answered) = (0u64, 0u64);
    let ns = ns_per_call(|i| {
        let requester = ServerId((i % n as u64) as u32);
        match search {
            Search::Receivers => leader.find_receivers_into(requester, &mut out),
            Search::Donors => leader.find_donors_into(requester, &mut out),
        }
        answers += out.len() as u64;
        answered += 1;
        black_box(&out);
    });
    (ns, answers as f64 / answered as f64)
}

/// Host ns per server-interval of `Cluster::run_interval` on an
/// `n`-server paper low-load cluster over intervals `1..=intervals`:
/// the median of three runs from the same freshly built cluster.
pub fn ns_per_server_interval(n: usize, seed: u64, intervals: u64) -> f64 {
    let fresh = Cluster::new(
        ClusterConfig::paper(n, WorkloadSpec::paper_low_load()),
        seed,
    );
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let mut cluster = fresh.clone();
            let ((), wall) = timed(|| {
                for _ in 0..intervals {
                    black_box(cluster.run_interval());
                }
            });
            wall * 1e9 / (n as u64 * intervals) as f64
        })
        .collect();
    median(&runs)
}

/// An instance set snapshotted from a freshly built cluster, and a
/// queue model primed with up to 2 s of backlog per instance.
fn routing_inputs(cluster: &ClusterConfig, seed: u64) -> (InstanceSet, QueueModel) {
    let cluster = Cluster::new(cluster.clone(), seed);
    let mut snapshot = Vec::new();
    cluster.instance_snapshot(&mut snapshot);
    let n = snapshot.len();
    let mut queues = QueueModel::new(n);
    let mut rng = Rng::new(seed);
    for s in 0..n {
        let backlog = SimDuration::from_secs_f64(2.0 * rng.next_f64());
        queues.enqueue(SimTime::ZERO, ServerId(s as u32), backlog);
    }
    (InstanceSet::from_instances(snapshot), queues)
}

/// Median ns per `Picker::pick` over the instances of `cluster`.
pub fn pick_ns(kind: PickerKind, cluster: &ClusterConfig, seed: u64) -> f64 {
    let (set, queues) = routing_inputs(cluster, seed);
    let view = queues.view(SimTime::ZERO);
    let mut picker = kind.build(seed);
    ns_per_call(|i| {
        black_box(picker.pick(&set, &view, RequestId(i)));
    })
}

/// Median ns per `QueueModel::enqueue` of a 250 ms request, spread
/// over the instances of `cluster` while the clock advances 1 ms a call.
pub fn enqueue_ns(cluster: &ClusterConfig, seed: u64) -> f64 {
    let (set, mut queues) = routing_inputs(cluster, seed);
    let n = set.len() as u64;
    let service = SimDuration::from_millis(250);
    ns_per_call(|i| {
        let now = SimTime::from_ticks(i * 1000);
        black_box(queues.enqueue(now, ServerId((i % n) as u32), service));
    })
}

/// Median ns per `ClusterDiscover::refresh` (which diffs the new
/// snapshot against the previous one with `diff_into`) plus the
/// `poll_changes` drain, alternating between a freshly built cluster
/// and the same cluster one reallocation interval later.
pub fn discover_refresh_ns(cluster: &ClusterConfig, seed: u64) -> f64 {
    let before = Cluster::new(cluster.clone(), seed);
    let mut after = before.clone();
    after.run_interval();
    let mut discover = ClusterDiscover::new(&before);
    let mut changes = Vec::new();
    ns_per_call(|i| {
        discover.refresh(if i % 2 == 0 { &after } else { &before });
        discover.poll_changes(&mut changes);
        black_box(&changes);
    })
}

/// Median ns per schedule+pop pair of the engine's event queue (the
/// hold model) at a steady population of `pending` events.
pub fn hold_ns(pending: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let mut queue = EventQueue::with_capacity(pending + 1);
    for k in 0..pending as u64 {
        queue.schedule(SimTime::from_ticks(rng.next_u64() % 1_000_000), k);
    }
    ns_per_call(|_| {
        let (at, k) = queue.pop().expect("the hold population never drains");
        let gap = SimDuration::from_ticks(1 + rng.next_u64() % 1_000_000);
        queue.schedule(at + gap, k);
    })
}

/// Median ns per `SourceProfile::next_gap_s` of one open-loop source
/// walking the serve horizon (`horizon_s`, then back to 0), for the
/// flat profile and for a flash-crowd profile of the `serve_faulted`
/// crowd. Returns `(flat, flash_crowd)`.
pub fn gap_ns(cluster: &ClusterConfig, seed: u64, horizon_s: f64) -> (f64, f64) {
    let cluster = Cluster::new(cluster.clone(), seed);
    let app = cluster
        .servers()
        .iter()
        .flat_map(|s| s.apps())
        .next()
        .expect("the fleet hosts applications");
    let load = RequestLoadSpec::moderate();
    let crowd = RateModulation::FlashCrowd(faulted_crowd());
    let flash = (0..)
        .map(|idx| crowd.profile_for(seed, idx))
        .find(|p| !p.is_flat())
        .expect("half of the sources join the crowd");
    let time = |profile: SourceProfile| {
        let mut source = load.source_for(seed, 0, app);
        let mut now_s = 0.0;
        ns_per_call(|_| {
            let gap = profile
                .next_gap_s(&mut source, now_s)
                .expect("sources are live");
            now_s = if now_s + gap < horizon_s {
                now_s + gap
            } else {
                0.0
            };
            black_box(gap);
        })
    };
    (time(SourceProfile::Flat), time(flash))
}
