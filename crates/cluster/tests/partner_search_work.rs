//! Exact scaling gate on the balancing round's partner search.
//!
//! `Cluster::partner_search_work` counts the roster and index entries the
//! partner walks visit, index re-keys, and entries sorted or indexed by
//! rebuilds. The count is deterministic, so comparing it per
//! server-interval at two fleet sizes catches a partner search that grows
//! faster than the fleet on any host, at any speed. Walking the whole
//! drain-receiver index for every drain candidate (dropping its early
//! stop) makes the ratio ~9.6; the indexed round stays at ~1.3.

use ecolb_cluster::cluster::{Cluster, ClusterConfig};
use ecolb_workload::generator::WorkloadSpec;

const SEED: u64 = 20140109;
const INTERVALS: u64 = 8;

/// Partner-search work per server-interval over `INTERVALS` paper
/// low-load intervals of an `n`-server cluster.
fn work_per_server_interval(n: usize) -> f64 {
    let config = ClusterConfig::paper(n, WorkloadSpec::paper_low_load());
    let mut cluster = Cluster::new(config, SEED);
    for _ in 0..INTERVALS {
        cluster.run_interval();
    }
    cluster.partner_search_work() as f64 / (n as u64 * INTERVALS) as f64
}

#[test]
fn partner_search_work_per_server_interval_is_flat_from_400_to_4000_servers() {
    let small = work_per_server_interval(400);
    let large = work_per_server_interval(4000);
    assert!(small > 0.0, "the tally must count the round's searches");
    assert!(
        large <= 2.0 * small,
        "partner search grows faster than the fleet: {large:.3} work per \
         server-interval at 4000 servers vs {small:.3} at 400"
    );
}
