//! The cluster leader.
//!
//! In the paper's clustered organisation every server reports its regime to
//! a **leader** over a star topology; the leader answers assistance
//! requests by searching its directory for suitable partners (§4). The
//! leader never moves load itself — servers *"negotiate directly with the
//! potential partners"* — it only brokers candidates and issues wake
//! orders.

use crate::messages::{Message, MessageStats};
use crate::server::{Server, ServerId};
use ecolb_energy::regimes::{OperatingRegime, RegimeCensus};

/// A directory entry: the last state a server reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectoryEntry {
    /// Reported operating regime.
    pub regime: OperatingRegime,
    /// Reported normalized load.
    pub load: f64,
    /// Whether the server reported itself asleep.
    pub sleeping: bool,
}

/// The cluster leader: regime directory + partner search + message
/// accounting.
///
/// Partner searches are on the per-donor / per-candidate hot path of the
/// balancing round, so the leader keeps each search's answer as a
/// **roster**: the matching directory entries, sorted by that search's key
/// in a reused buffer. A directory write marks a roster stale only when it
/// changes that roster's members or keys, and a stale roster is re-sorted
/// on its next query. The shed phase never writes the directory and a
/// sleeping-R1 report never touches the donor roster, so a balancing round
/// sorts each roster about once. A query copies the roster minus the
/// requester; the balancing round walks `receiver_roster` and
/// `donor_roster` lazily instead. Both rosters start empty and
/// grow on first use.
#[derive(Debug, Clone)]
pub struct Leader {
    directory: Vec<Option<DirectoryEntry>>,
    stats: MessageStats,
    /// Awake R1/R2 entries, heaviest first, then lowest id.
    receivers: Roster,
    /// Awake R4/R5 entries, R5 first, then heaviest, then lowest id.
    donors: Roster,
    /// Reusable sort buffer for roster rebuilds.
    scratch: Vec<SortInput>,
}

/// A roster member's sort input: id, reported regime, reported load.
type SortInput = (ServerId, OperatingRegime, f64);

/// One partner search's answer, requester not yet excluded.
#[derive(Debug, Clone, Default)]
struct Roster {
    /// Members in search order.
    ids: Vec<ServerId>,
    /// A directory write changed a member or a sort key since the last
    /// sort.
    stale: bool,
}

/// Receiver-roster membership: awake and reported in R1 or R2.
fn is_receiver(e: &DirectoryEntry) -> bool {
    !e.sleeping && e.regime.is_underloaded()
}

/// Donor-roster membership: awake and reported in R4 or R5.
fn is_donor(e: &DirectoryEntry) -> bool {
    !e.sleeping && e.regime.is_overloaded()
}

/// An entry's place in the receiver roster: its sort key if it is a
/// member.
fn receiver_key(e: &Option<DirectoryEntry>) -> Option<u64> {
    e.filter(is_receiver).map(|e| e.load.to_bits())
}

/// An entry's place in the donor roster: its sort key if it is a member.
fn donor_key(e: &Option<DirectoryEntry>) -> Option<(usize, u64)> {
    e.filter(is_donor)
        .map(|e| (e.regime.index(), e.load.to_bits()))
}

impl Roster {
    /// Re-sorts the roster from `directory` if a write made it stale,
    /// adding the number of entries sorted to `work`.
    fn refresh(
        &mut self,
        directory: &[Option<DirectoryEntry>],
        scratch: &mut Vec<SortInput>,
        member: fn(&DirectoryEntry) -> bool,
        order: fn(&SortInput, &SortInput) -> std::cmp::Ordering,
        work: &mut u64,
    ) -> &[ServerId] {
        if self.stale {
            scratch.clear();
            scratch.extend(directory.iter().enumerate().filter_map(|(i, e)| {
                let e = (*e)?;
                member(&e).then_some((ServerId(i as u32), e.regime, e.load))
            }));
            // The id tie-break makes the order total, so an unstable sort
            // gives the one possible answer.
            scratch.sort_unstable_by(order);
            *work += scratch.len() as u64;
            self.ids.clear();
            self.ids.extend(scratch.iter().map(|&(id, _, _)| id));
            self.stale = false;
        }
        &self.ids
    }
}

impl Leader {
    /// Creates a leader for a cluster of `n` servers.
    pub fn new(n: usize) -> Self {
        Leader {
            directory: vec![None; n],
            stats: MessageStats::default(),
            receivers: Roster::default(),
            donors: Roster::default(),
            scratch: Vec::new(),
        }
    }

    /// Number of directory slots.
    pub fn capacity(&self) -> usize {
        self.directory.len()
    }

    /// Overwrites one directory slot, marking each roster stale whose
    /// members or keys the write changes.
    fn set_entry(&mut self, id: ServerId, entry: Option<DirectoryEntry>) {
        let slot = &mut self.directory[id.index()];
        self.receivers.stale |= receiver_key(slot) != receiver_key(&entry);
        self.donors.stale |= donor_key(slot) != donor_key(&entry);
        *slot = entry;
    }

    /// Ingests a regime report (paper: "the leader is informed
    /// periodically about the regime of each server of the cluster").
    pub fn receive_report(
        &mut self,
        from: ServerId,
        regime: OperatingRegime,
        load: f64,
        sleeping: bool,
    ) {
        let msg = Message::RegimeReport { from, regime, load };
        self.stats.record(&msg);
        self.set_entry(
            from,
            Some(DirectoryEntry {
                regime,
                load,
                sleeping,
            }),
        );
    }

    /// Refreshes the whole directory from live server state — the
    /// per-interval reporting sweep.
    pub fn full_report_sweep(&mut self, servers: &[Server]) {
        for s in servers {
            self.receive_report(s.id(), s.regime(), s.load(), s.is_sleeping());
        }
    }

    /// The last-reported directory entry for a server.
    pub fn entry(&self, id: ServerId) -> Option<DirectoryEntry> {
        self.directory[id.index()]
    }

    /// Census of awake servers by regime, from the directory.
    pub fn census(&self) -> RegimeCensus {
        let mut census = RegimeCensus::new();
        for e in self.directory.iter().flatten() {
            if !e.sleeping {
                census.record(e.regime);
            }
        }
        census
    }

    /// Accounts one partner-list reply. The reply — possibly an empty list
    /// — always counts as one message; the variant counter is all
    /// `record` would update, so bump it directly instead of
    /// materialising a `Message::PartnerList` with a cloned candidate vec.
    pub(crate) fn record_partner_list(&mut self) {
        self.stats.partner_lists += 1;
    }

    /// The receiver roster: awake servers reported in R1 or R2, sorted by
    /// *descending* load, then ascending id. Re-sorted first if stale,
    /// adding the entries sorted to `work`. Accounts no message.
    pub(crate) fn receiver_roster(&mut self, work: &mut u64) -> &[ServerId] {
        self.receivers.refresh(
            &self.directory,
            &mut self.scratch,
            is_receiver,
            // total_cmp keeps the broker panic-free even if a load ever
            // went NaN; ordering for finite loads is identical to
            // partial_cmp.
            |a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)),
            work,
        )
    }

    /// The donor roster: awake servers reported in R4 or R5, R5 (urgent)
    /// first, then by descending load, then ascending id. Re-sorted first
    /// if stale, adding the entries sorted to `work`. Accounts no message.
    pub(crate) fn donor_roster(&mut self, work: &mut u64) -> &[ServerId] {
        self.donors.refresh(
            &self.directory,
            &mut self.scratch,
            is_donor,
            |a, b| {
                b.1.index()
                    .cmp(&a.1.index())
                    .then(b.2.total_cmp(&a.2))
                    .then(a.0.cmp(&b.0))
            },
            work,
        )
    }

    /// Searches for **receivers**: awake servers reported in R1 or R2,
    /// excluding `requester`. Sorted by *descending* load — filling the
    /// fullest underloaded server first concentrates the workload, which is
    /// the paper's consolidation objective. Accounts the partner-list
    /// message.
    pub fn find_receivers(&mut self, requester: ServerId) -> Vec<ServerId> {
        let mut out = Vec::new();
        self.find_receivers_into(requester, &mut out);
        out
    }

    /// [`Leader::find_receivers`], writing the ids into a caller-owned
    /// buffer so hot loops can reuse the allocation. `out` is cleared
    /// first.
    pub fn find_receivers_into(&mut self, requester: ServerId, out: &mut Vec<ServerId>) {
        self.record_partner_list();
        out.clear();
        let roster = self.receiver_roster(&mut 0);
        out.extend(roster.iter().copied().filter(|&id| id != requester));
    }

    /// Searches for **donors**: awake servers reported in R4 or R5,
    /// excluding `requester`. R5 (urgent) first, then by descending load.
    pub fn find_donors(&mut self, requester: ServerId) -> Vec<ServerId> {
        let mut out = Vec::new();
        self.find_donors_into(requester, &mut out);
        out
    }

    /// [`Leader::find_donors`], writing the ids into a caller-owned buffer
    /// so hot loops can reuse the allocation. `out` is cleared first.
    pub fn find_donors_into(&mut self, requester: ServerId, out: &mut Vec<ServerId>) {
        self.record_partner_list();
        out.clear();
        let roster = self.donor_roster(&mut 0);
        out.extend(roster.iter().copied().filter(|&id| id != requester));
    }

    /// Sleeping servers eligible for a wake order (§4 action 5), shallowest
    /// sleep first — C3 servers wake far faster and cheaper than C6.
    pub fn find_sleepers(&self, servers: &[Server]) -> Vec<ServerId> {
        let mut out: Vec<(ServerId, u8)> = servers
            .iter()
            .filter(|s| s.is_sleeping() && s.wake_ready_at().is_none() && !s.is_crashed())
            .map(|s| (s.id(), s.cstate().depth()))
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(id, _)| id).collect()
    }

    /// Issues (and accounts) a wake order.
    pub fn issue_wake_order(&mut self, to: ServerId) {
        self.stats.record(&Message::WakeOrder { to });
        if let Some(e) = self.directory[to.index()] {
            // Optimistic: the server is now waking.
            self.set_entry(
                to,
                Some(DirectoryEntry {
                    sleeping: false,
                    ..e
                }),
            );
        }
    }

    /// Drops a server from the directory — called when the host is known
    /// to have crashed, so the broker stops offering it as a partner until
    /// it reports again after recovery.
    pub fn mark_offline(&mut self, id: ServerId) {
        self.set_entry(id, None);
    }

    /// Forgets every directory entry while keeping message statistics.
    /// A freshly elected leader starts from an empty directory and must
    /// rebuild it with a [`Leader::full_report_sweep`].
    pub fn reset_directory(&mut self) {
        self.directory.fill(None);
        self.receivers.stale = true;
        self.donors.stale = true;
    }

    /// Records an assistance request from a server.
    pub fn receive_assistance_request(&mut self, from: ServerId, regime: OperatingRegime) {
        self.stats
            .record(&Message::AssistanceRequest { from, regime });
    }

    /// Records a server↔server negotiation message (for cluster-wide
    /// accounting; negotiation itself is peer-to-peer).
    pub fn observe(&mut self, msg: &Message) {
        self.stats.record(msg);
    }

    /// Cluster-wide message statistics.
    pub fn stats(&self) -> MessageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerPowerSpec;
    use ecolb_energy::regimes::RegimeBoundaries;
    use ecolb_energy::sleep::{CState, SleepModel};
    use ecolb_simcore::time::SimTime;
    use ecolb_workload::application::{AppId, Application};

    fn mk_server(id: u32, load: f64) -> Server {
        let mut s = Server::new(
            ServerId(id),
            RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8),
            ServerPowerSpec::default(),
            SimTime::ZERO,
        );
        if load > 0.0 {
            s.place_app(Application::new(AppId(id as u64), load, 0.01, 4.0));
        }
        s
    }

    #[test]
    fn report_sweep_builds_census() {
        let servers = vec![mk_server(0, 0.1), mk_server(1, 0.5), mk_server(2, 0.95)];
        let mut leader = Leader::new(3);
        leader.full_report_sweep(&servers);
        let census = leader.census();
        assert_eq!(census.count(OperatingRegime::UndesirableLow), 1);
        assert_eq!(census.count(OperatingRegime::Optimal), 1);
        assert_eq!(census.count(OperatingRegime::UndesirableHigh), 1);
        assert_eq!(leader.stats().regime_reports, 3);
    }

    #[test]
    fn receivers_are_underloaded_and_sorted_fullest_first() {
        let servers = vec![
            mk_server(0, 0.05),
            mk_server(1, 0.25),
            mk_server(2, 0.5),
            mk_server(3, 0.22),
        ];
        let mut leader = Leader::new(4);
        leader.full_report_sweep(&servers);
        let rx = leader.find_receivers(ServerId(2));
        // 0.25 (R2) then 0.22 (R2) then 0.05 (R1); the optimal server 2 is
        // the requester and excluded anyway.
        assert_eq!(rx, vec![ServerId(1), ServerId(3), ServerId(0)]);
        assert_eq!(leader.stats().partner_lists, 1);
    }

    #[test]
    fn requester_never_appears_in_its_own_list() {
        let servers = vec![mk_server(0, 0.1), mk_server(1, 0.1)];
        let mut leader = Leader::new(2);
        leader.full_report_sweep(&servers);
        let rx = leader.find_receivers(ServerId(0));
        assert_eq!(rx, vec![ServerId(1)]);
    }

    #[test]
    fn donors_put_r5_before_r4() {
        let servers = vec![mk_server(0, 0.75), mk_server(1, 0.9), mk_server(2, 0.78)];
        let mut leader = Leader::new(3);
        leader.full_report_sweep(&servers);
        let dn = leader.find_donors(ServerId(2));
        // Server 1 is R5; server 0 is R4. Requester 2 excluded.
        assert_eq!(dn, vec![ServerId(1), ServerId(0)]);
    }

    #[test]
    fn sleeping_servers_are_invisible_to_search() {
        let sm = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.0), mk_server(1, 0.25)];
        servers[0].enter_sleep(SimTime::ZERO, CState::C6, &sm);
        let mut leader = Leader::new(2);
        leader.full_report_sweep(&servers);
        let rx = leader.find_receivers(ServerId(1));
        assert!(
            rx.is_empty(),
            "sleeping server must not be offered as receiver"
        );
        assert_eq!(
            leader.census().total(),
            1,
            "census counts awake servers only"
        );
    }

    #[test]
    fn find_sleepers_orders_shallow_first() {
        let sm = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.0), mk_server(1, 0.0), mk_server(2, 0.5)];
        servers[0].enter_sleep(SimTime::ZERO, CState::C6, &sm);
        servers[1].enter_sleep(SimTime::ZERO, CState::C3, &sm);
        let leader = Leader::new(3);
        let sl = leader.find_sleepers(&servers);
        assert_eq!(sl, vec![ServerId(1), ServerId(0)], "C3 wakes before C6");
    }

    #[test]
    fn wake_order_updates_directory_and_stats() {
        let sm = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.0)];
        servers[0].enter_sleep(SimTime::ZERO, CState::C3, &sm);
        let mut leader = Leader::new(1);
        leader.full_report_sweep(&servers);
        assert!(leader.entry(ServerId(0)).unwrap().sleeping);
        leader.issue_wake_order(ServerId(0));
        assert!(!leader.entry(ServerId(0)).unwrap().sleeping);
        assert_eq!(leader.stats().wake_orders, 1);
    }

    #[test]
    fn mark_offline_hides_server_until_next_report() {
        let servers = vec![mk_server(0, 0.25), mk_server(1, 0.5)];
        let mut leader = Leader::new(2);
        leader.full_report_sweep(&servers);
        leader.mark_offline(ServerId(0));
        assert!(leader.entry(ServerId(0)).is_none());
        assert!(
            leader.find_receivers(ServerId(1)).is_empty(),
            "crashed host must not be brokered as a partner"
        );
        leader.full_report_sweep(&servers);
        assert!(leader.entry(ServerId(0)).is_some());
    }

    #[test]
    fn reset_directory_clears_entries_but_keeps_stats() {
        let servers = vec![mk_server(0, 0.25), mk_server(1, 0.5)];
        let mut leader = Leader::new(2);
        leader.full_report_sweep(&servers);
        let reports_before = leader.stats().regime_reports;
        leader.reset_directory();
        assert!(leader.entry(ServerId(0)).is_none());
        assert!(leader.entry(ServerId(1)).is_none());
        assert_eq!(leader.census().total(), 0);
        assert_eq!(
            leader.stats().regime_reports,
            reports_before,
            "message accounting survives failover"
        );
    }

    #[test]
    fn crashed_servers_are_not_wake_candidates() {
        let sm = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.0), mk_server(1, 0.0)];
        servers[0].enter_sleep(SimTime::ZERO, CState::C3, &sm);
        servers[1].crash(SimTime::ZERO);
        let leader = Leader::new(2);
        assert_eq!(
            leader.find_sleepers(&servers),
            vec![ServerId(0)],
            "a dead host cannot honour a wake order"
        );
    }

    /// The cached rosters must go stale on every directory mutation path
    /// that changes them (report, wake order, offline, reset) — a missed
    /// one would make searches silently answer from old state.
    #[test]
    fn rosters_track_directory_mutations() {
        let sm = SleepModel::default();
        let mut servers = vec![
            mk_server(0, 0.1),
            mk_server(1, 0.9),
            mk_server(2, 0.25),
            mk_server(3, 0.0),
        ];
        servers[3].enter_sleep(SimTime::ZERO, CState::C3, &sm);
        let mut leader = Leader::new(4);
        leader.full_report_sweep(&servers);
        // Re-reporting the same state must not change the answers.
        leader.full_report_sweep(&servers);
        assert_eq!(
            leader.find_receivers(ServerId(1)),
            vec![ServerId(2), ServerId(0)]
        );
        assert_eq!(leader.find_donors(ServerId(0)), vec![ServerId(1)]);
        // Waking server 3 makes its (unloaded ⇒ R1) entry visible.
        leader.issue_wake_order(ServerId(3));
        assert_eq!(
            leader.find_receivers(ServerId(1)),
            vec![ServerId(2), ServerId(0), ServerId(3)]
        );
        // Knocking out the only donor must drop the search to empty (and
        // the empty reply still counts as a partner-list message).
        leader.mark_offline(ServerId(1));
        let lists_before = leader.stats().partner_lists;
        assert!(leader.find_donors(ServerId(0)).is_empty());
        assert_eq!(leader.stats().partner_lists, lists_before + 1);
        leader.reset_directory();
        assert!(leader.find_receivers(ServerId(1)).is_empty());
        assert!(leader.find_donors(ServerId(0)).is_empty());
        // A fresh sweep rebuilds the rosters from scratch.
        leader.full_report_sweep(&servers);
        assert_eq!(leader.find_donors(ServerId(0)), vec![ServerId(1)]);
    }

    /// The scan-and-sort receiver search the roster replaced: the test
    /// oracle for [`Leader::receiver_roster`].
    fn oracle_receivers(leader: &Leader, requester: ServerId) -> Vec<ServerId> {
        let mut found: Vec<(ServerId, f64)> = (0..leader.capacity())
            .filter_map(|i| {
                let id = ServerId(i as u32);
                let e = leader.entry(id)?;
                (id != requester && !e.sleeping && e.regime.is_underloaded())
                    .then_some((id, e.load))
            })
            .collect();
        found.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        found.into_iter().map(|(id, _)| id).collect()
    }

    /// The scan-and-sort donor search the roster replaced: the test oracle
    /// for [`Leader::donor_roster`].
    fn oracle_donors(leader: &Leader, requester: ServerId) -> Vec<ServerId> {
        let mut found: Vec<(ServerId, OperatingRegime, f64)> = (0..leader.capacity())
            .filter_map(|i| {
                let id = ServerId(i as u32);
                let e = leader.entry(id)?;
                (id != requester && !e.sleeping && e.regime.is_overloaded())
                    .then_some((id, e.regime, e.load))
            })
            .collect();
        found.sort_by(|a, b| {
            b.1.index()
                .cmp(&a.1.index())
                .then(b.2.total_cmp(&a.2))
                .then(a.0.cmp(&b.0))
        });
        found.into_iter().map(|(id, _, _)| id).collect()
    }

    /// The balance round's lazy walk: the first `cap` roster members other
    /// than `requester`.
    fn walk(roster: &[ServerId], requester: ServerId, cap: usize) -> Vec<ServerId> {
        roster
            .iter()
            .copied()
            .filter(|&id| id != requester)
            .take(cap)
            .collect()
    }

    /// Over random directories and random interleavings of every directory
    /// mutation with queries, the cached rosters answer exactly what a
    /// fresh scan-and-sort would — through the copying searches and
    /// through the capped lazy walk alike — and every query accounts one
    /// partner-list message.
    #[test]
    fn rosters_match_the_scan_and_sort_oracle() {
        use ecolb_simcore::proptest_lite::{check_cases, Gen};
        const REGIMES: [OperatingRegime; 5] = [
            OperatingRegime::UndesirableLow,
            OperatingRegime::SuboptimalLow,
            OperatingRegime::Optimal,
            OperatingRegime::SuboptimalHigh,
            OperatingRegime::UndesirableHigh,
        ];
        // Few distinct loads, so equal keys exercise the id tie-break.
        fn random_load(g: &mut Gen) -> f64 {
            f64::from(g.u8_in(0, 12)) / 10.0
        }
        check_cases("rosters_match_the_scan_and_sort_oracle", 512, |g| {
            let n = g.usize_in(1, 30);
            let mut leader = Leader::new(n);
            for _ in 0..g.usize_in(0, 2 * n) {
                let id = ServerId(g.usize_in(0, n) as u32);
                let regime = REGIMES[g.usize_in(0, REGIMES.len())];
                let load = random_load(g);
                let sleeping = g.rng().chance(0.25);
                leader.receive_report(id, regime, load, sleeping);
            }
            for _ in 0..g.usize_in(1, 40) {
                let id = ServerId(g.usize_in(0, n) as u32);
                match g.usize_in(0, 10) {
                    0..=3 => {
                        let regime = REGIMES[g.usize_in(0, REGIMES.len())];
                        let load = random_load(g);
                        let sleeping = g.rng().chance(0.25);
                        leader.receive_report(id, regime, load, sleeping);
                    }
                    4 => leader.issue_wake_order(id),
                    5 => leader.mark_offline(id),
                    6 if g.rng().chance(0.2) => leader.reset_directory(),
                    _ => {
                        let cap = match g.usize_in(0, 3) {
                            0 => usize::MAX,
                            _ => g.usize_in(1, n + 2),
                        };
                        let (rx, dn) = (oracle_receivers(&leader, id), oracle_donors(&leader, id));
                        let lists = leader.stats().partner_lists;
                        assert_eq!(leader.find_receivers(id), rx);
                        assert_eq!(leader.find_donors(id), dn);
                        assert_eq!(leader.stats().partner_lists, lists + 2);
                        let mut work = 0;
                        let cap_rx = rx.iter().copied().take(cap).collect::<Vec<_>>();
                        assert_eq!(walk(leader.receiver_roster(&mut work), id, cap), cap_rx);
                        let cap_dn = dn.iter().copied().take(cap).collect::<Vec<_>>();
                        assert_eq!(walk(leader.donor_roster(&mut work), id, cap), cap_dn);
                        assert_eq!(work, 0, "the searches above already re-sorted");
                    }
                }
            }
        });
    }

    #[test]
    fn assistance_requests_counted() {
        let mut leader = Leader::new(1);
        leader.receive_assistance_request(ServerId(0), OperatingRegime::UndesirableHigh);
        assert_eq!(leader.stats().assistance_requests, 1);
    }
}
