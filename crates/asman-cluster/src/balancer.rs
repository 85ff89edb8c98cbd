//! Global placement policies.
//!
//! The balancer runs at every epoch boundary over a [`Snapshot`] of
//! per-host and per-VM telemetry and proposes up to a bounded number of
//! non-overlapping migrations per epoch ([`plan`]). The per-epoch move
//! budget (`--max-moves`, default `max(1, hosts/8)`) together with the
//! per-VM cooldown is the anti-thrash hysteresis: a placement change
//! must prove itself for a few epochs before the next one from the same
//! endpoints is allowed. A budget of 1 reproduces the historical
//! one-move-per-epoch behaviour bit-for-bit.
//!
//! All arithmetic is integer and all tie-breaks are by lowest index, so
//! a plan is a pure deterministic function of the snapshot, the budget,
//! and the per-host endpoint caps.

use serde::Serialize;

/// Placement policy of the cluster balancer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Policy {
    /// Never migrate: VMs stay where they were placed.
    Static,
    /// Classic VCPU-count balancing, blind to what the VCPUs do: move a
    /// VM from the most- to the least-overcommitted host when that
    /// strictly narrows the spread.
    LeastLoaded,
    /// ASMan's cluster-level generalization: use the per-VM VCRD/spin
    /// telemetry to identify *concurrent* VMs (gangs) and separate them
    /// onto hosts where each gang can be coscheduled without fighting
    /// another gang for PCPUs.
    VcrdAware,
}

impl Policy {
    /// Stable CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::LeastLoaded => "least-loaded",
            Policy::VcrdAware => "vcrd-aware",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "static" => Some(Policy::Static),
            "least-loaded" => Some(Policy::LeastLoaded),
            "vcrd-aware" => Some(Policy::VcrdAware),
            _ => None,
        }
    }

    /// Every policy, in CLI order.
    pub const ALL: [Policy; 3] = [Policy::Static, Policy::LeastLoaded, Policy::VcrdAware];
}

/// Per-host facts the balancer sees.
#[derive(Clone, Debug)]
pub struct HostView {
    /// Physical CPUs *as advertised*: a degraded host reports its
    /// derated capacity, so placement math shrinks with the host.
    pub pcpus: usize,
    /// Whether admission control accepts new VMs. Degraded and crashed
    /// hosts do not admit; their resident VMs may still be moved *off*.
    pub admit: bool,
}

/// Per-VM facts the balancer sees (deltas are over the last epoch).
#[derive(Clone, Debug)]
pub struct VmView {
    /// Host the VM currently resides on.
    pub host: usize,
    /// VCPU count.
    pub vcpus: usize,
    /// Cycles burned busy-waiting in the guest kernel last epoch.
    pub spin_delta: u64,
    /// Cycles the VMM saw the VM's VCRD held HIGH last epoch.
    pub vcrd_high_delta: u64,
    /// Still inside the post-migration cooldown window.
    pub cooling: bool,
}

/// One epoch's telemetry: everything a policy may consult.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Hosts by index.
    pub hosts: Vec<HostView>,
    /// VMs by cluster-wide id.
    pub vms: Vec<VmView>,
    /// Epoch length in cycles (normalizes the delta thresholds).
    pub epoch_cycles: u64,
}

/// A proposed migration: move cluster VM `vm` to host `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// Cluster-wide VM id.
    pub vm: usize,
    /// Destination host.
    pub to: usize,
}

impl Snapshot {
    /// Whether a VM behaved as a concurrent gang last epoch: its VCRD
    /// was HIGH for a meaningful share of the epoch, or it burned a
    /// meaningful share busy-waiting in the kernel.
    fn concurrent(&self, vm: usize) -> bool {
        let v = &self.vms[vm];
        v.vcrd_high_delta >= self.epoch_cycles / 16 || v.spin_delta >= self.epoch_cycles / 32
    }
}

/// Per-host aggregates, folded from the per-VM deltas in one O(VMs)
/// pass per decision. The policies used to recompute these inside every
/// per-host comparator — O(hosts × VMs) at the epoch barrier, which is
/// the serial section of the (otherwise parallel) cluster driver — so
/// the fold keeps the barrier O(hosts + VMs). Same integer math, same
/// tie-breaks, bit-identical decisions.
struct Aggregates {
    /// Total resident VCPUs per host.
    load: Vec<u64>,
    /// Total VCPUs of concurrent (gang) VMs per host — the PCPU demand
    /// of its gangs. While this exceeds `pcpus`, the gangs cannot all
    /// be coscheduled cleanly.
    gang: Vec<u64>,
}

impl Aggregates {
    fn fold(snap: &Snapshot) -> Self {
        let mut load = vec![0u64; snap.hosts.len()];
        let mut gang = vec![0u64; snap.hosts.len()];
        for (i, v) in snap.vms.iter().enumerate() {
            load[v.host] += v.vcpus as u64;
            if snap.concurrent(i) {
                gang[v.host] += v.vcpus as u64;
            }
        }
        Aggregates { load, gang }
    }

    /// Overcommit ratio in milli-VCPUs-per-PCPU.
    fn overcommit(&self, snap: &Snapshot, host: usize) -> u64 {
        self.load[host] * 1000 / snap.hosts[host].pcpus as u64
    }
}

/// One epoch's planning round: the accepted moves (in planning order)
/// plus how many candidates the per-host endpoint caps vetoed.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    /// Accepted moves, in the order they were planned. The driver
    /// executes them in this order inside the serial barrier.
    pub moves: Vec<Move>,
    /// Candidate moves rejected because their source or destination was
    /// already claimed this epoch — by a live retry chain or by an
    /// earlier move of the same plan.
    pub denied_conflict: u64,
}

/// A single balancer decision over a fresh snapshot: at most one move.
/// Equivalent to the first accepted move of a [`plan`] with budget 1
/// and no claimed endpoints.
pub fn decide(policy: Policy, snap: &Snapshot) -> Option<Move> {
    let bans = Bans::none(snap.hosts.len());
    decide_with(policy, snap, &Aggregates::fold(snap), &bans)
}

/// Hosts a planning round has ruled out as senders / receivers this
/// epoch. A denied candidate always blames a *host* (the endpoint caps
/// are per-host), so banning the endpoint — rather than the candidate
/// VM — lets the next decision fall through to the next-hottest source
/// or next-best destination instead of dead-ending on the claimed one.
struct Bans {
    src: Vec<bool>,
    dst: Vec<bool>,
}

impl Bans {
    fn none(hosts: usize) -> Bans {
        Bans {
            src: vec![false; hosts],
            dst: vec![false; hosts],
        }
    }
}

fn decide_with(policy: Policy, snap: &Snapshot, agg: &Aggregates, bans: &Bans) -> Option<Move> {
    match policy {
        Policy::Static => None,
        Policy::LeastLoaded => decide_least_loaded(snap, agg, bans),
        Policy::VcrdAware => decide_vcrd_aware(snap, agg, bans),
    }
}

/// Plan up to `budget` conflict-free moves for one epoch boundary.
///
/// `src_used[h]` / `dst_used[h]` say host `h` already sends / receives
/// a migration this epoch (a retry chain executed or still in flight);
/// the planner honours and extends them, so across chains and fresh
/// moves every host is the source of at most one migration and the
/// destination of at most one migration per epoch.
///
/// The planner iterates the single-move decision greedily: after each
/// accepted move the working snapshot re-homes the VM and marks it
/// cooling (so one VM is planned at most once), and the aggregates are
/// updated so later picks see the post-move shape. A candidate whose
/// endpoint is already claimed is counted in `denied_conflict`, the
/// claimed host is banned for the rest of the round (the caps are
/// per-host, so every other candidate through it would lose too), and
/// the search falls through to the next-hottest source or next-best
/// destination — the loop terminates because every iteration consumes
/// budget or bans a host. Pure integer math over a fixed iteration
/// order: the plan is bit-identical for every `--jobs` count.
pub fn plan(
    policy: Policy,
    snap: &Snapshot,
    budget: usize,
    src_used: &mut [bool],
    dst_used: &mut [bool],
) -> Plan {
    let mut out = Plan::default();
    if budget == 0 || policy == Policy::Static {
        return out;
    }
    let mut working = snap.clone();
    let mut agg = Aggregates::fold(&working);
    let mut bans = Bans::none(snap.hosts.len());
    while out.moves.len() < budget {
        let Some(mv) = decide_with(policy, &working, &agg, &bans) else {
            break;
        };
        let from = working.vms[mv.vm].host;
        if src_used[from] {
            out.denied_conflict += 1;
            bans.src[from] = true;
            continue;
        }
        if dst_used[mv.to] {
            out.denied_conflict += 1;
            bans.dst[mv.to] = true;
            continue;
        }
        src_used[from] = true;
        dst_used[mv.to] = true;
        let vcpus = working.vms[mv.vm].vcpus as u64;
        agg.load[from] -= vcpus;
        agg.load[mv.to] += vcpus;
        if working.concurrent(mv.vm) {
            agg.gang[from] -= vcpus;
            agg.gang[mv.to] += vcpus;
        }
        working.vms[mv.vm].host = mv.to;
        working.vms[mv.vm].cooling = true;
        out.moves.push(mv);
    }
    out
}

fn decide_least_loaded(snap: &Snapshot, agg: &Aggregates, bans: &Bans) -> Option<Move> {
    let n = snap.hosts.len();
    let hmax = (0..n)
        .filter(|&h| !bans.src[h])
        .max_by_key(|&h| (agg.overcommit(snap, h), std::cmp::Reverse(h)))?;
    // Only admitting hosts may receive; the source may be any host.
    let hmin = (0..n)
        .filter(|&h| snap.hosts[h].admit && !bans.dst[h])
        .min_by_key(|&h| (agg.overcommit(snap, h), h))?;
    // Bans can leave a destination at least as loaded as the source
    // (the hottest host banned as a source is still a destination);
    // nothing can narrow a spread that is not there.
    if agg.overcommit(snap, hmin) >= agg.overcommit(snap, hmax) {
        return None;
    }
    let spread = agg.overcommit(snap, hmax) - agg.overcommit(snap, hmin);
    // Largest movable VM on the hottest host (ties: lowest id).
    let vm = snap
        .vms
        .iter()
        .enumerate()
        .filter(|(_, v)| v.host == hmax && !v.cooling && v.vcpus <= snap.hosts[hmin].pcpus)
        .max_by_key(|(i, v)| (v.vcpus, std::cmp::Reverse(*i)))
        .map(|(i, _)| i)?;
    // Strict improvement only: simulate the move and demand the spread
    // narrows. Without this the balancer ping-pongs a VM between two
    // equally loaded hosts forever.
    let moved = snap.vms[vm].vcpus as u64 * 1000;
    let max_after = agg.overcommit(snap, hmax) - moved / snap.hosts[hmax].pcpus as u64;
    let min_after = agg.overcommit(snap, hmin) + moved / snap.hosts[hmin].pcpus as u64;
    let spread_after = max_after.abs_diff(min_after);
    if spread_after < spread {
        Some(Move { vm, to: hmin })
    } else {
        None
    }
}

fn decide_vcrd_aware(snap: &Snapshot, agg: &Aggregates, bans: &Bans) -> Option<Move> {
    let n = snap.hosts.len();
    // Hottest gang host: gangs demand more PCPUs than exist, so they
    // cannot co-run without lock-holder preemption.
    let src = (0..n)
        .filter(|&h| !bans.src[h] && agg.gang[h] > snap.hosts[h].pcpus as u64)
        .max_by_key(|&h| (agg.gang[h], std::cmp::Reverse(h)))?;
    // The most spin-burdened concurrent VM there (ties: lowest id).
    let vm = snap
        .vms
        .iter()
        .enumerate()
        .filter(|(i, v)| v.host == src && !v.cooling && snap.concurrent(*i))
        .max_by_key(|(i, v)| (v.spin_delta, v.vcrd_high_delta, std::cmp::Reverse(*i)))
        .map(|(i, _)| i)?;
    let need = snap.vms[vm].vcpus as u64;
    // Best destination: lowest gang pressure (then overcommit, then
    // index) among hosts where this gang still fits cleanly after the
    // move — its VCPUs must not push gang demand past the PCPUs.
    let dst = (0..n)
        .filter(|&h| {
            h != src
                && !bans.dst[h]
                && snap.hosts[h].admit
                && need as usize <= snap.hosts[h].pcpus
                && agg.gang[h] + need <= snap.hosts[h].pcpus as u64
        })
        .min_by_key(|&h| (agg.gang[h], agg.overcommit(snap, h), h))?;
    // Hysteresis margin: the move must genuinely relieve the source —
    // the destination's pressure (after the move) must stay below what
    // the source suffers now.
    if agg.gang[dst] + need < agg.gang[src] {
        Some(Move { vm, to: dst })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(hosts: Vec<usize>, vms: Vec<(usize, usize, u64, u64)>) -> Snapshot {
        Snapshot {
            hosts: hosts
                .into_iter()
                .map(|pcpus| HostView { pcpus, admit: true })
                .collect(),
            vms: vms
                .into_iter()
                .map(|(host, vcpus, spin, high)| VmView {
                    host,
                    vcpus,
                    spin_delta: spin,
                    vcrd_high_delta: high,
                    cooling: false,
                })
                .collect(),
            epoch_cycles: 1_000_000,
        }
    }

    #[test]
    fn static_never_moves() {
        let s = snap(vec![4, 4], vec![(0, 4, 999_999, 999_999), (0, 4, 0, 0)]);
        assert_eq!(decide(Policy::Static, &s), None);
    }

    #[test]
    fn least_loaded_balances_vcpu_counts_blindly() {
        // Host 0: 8 VCPUs, host 1: 2 — move the biggest VM over.
        let s = snap(
            vec![4, 4],
            vec![(0, 4, 0, 0), (0, 2, 0, 0), (0, 2, 0, 0), (1, 2, 0, 0)],
        );
        let mv = decide(Policy::LeastLoaded, &s).expect("should balance");
        assert_eq!(mv, Move { vm: 0, to: 1 });
    }

    #[test]
    fn least_loaded_holds_when_balanced() {
        let s = snap(vec![4, 4], vec![(0, 4, 0, 0), (1, 4, 0, 0)]);
        assert_eq!(decide(Policy::LeastLoaded, &s), None);
    }

    #[test]
    fn vcrd_aware_separates_fighting_gangs() {
        // Two spinning 3-VCPU gangs on a 4-PCPU host; a quiet big VM on
        // host 1. Least-loaded would move the big VM; vcrd-aware must
        // move the spinnier gang to the gang-free host.
        let s = snap(
            vec![4, 4],
            vec![(0, 3, 900_000, 0), (0, 3, 400_000, 0), (1, 4, 0, 0)],
        );
        let mv = decide(Policy::VcrdAware, &s).expect("should separate gangs");
        assert_eq!(mv, Move { vm: 0, to: 1 });
        // Least-loaded sees only VCPU counts: moving a 3-VCPU VM from
        // the 6-VCPU host to the 4-VCPU host would *widen* the spread,
        // so it refuses — and the spin persists.
        assert_eq!(decide(Policy::LeastLoaded, &s), None);
    }

    #[test]
    fn vcrd_aware_leaves_a_lone_gang_alone() {
        let s = snap(vec![4, 4], vec![(0, 3, 900_000, 0), (1, 4, 0, 0)]);
        assert_eq!(decide(Policy::VcrdAware, &s), None);
    }

    #[test]
    fn non_admitting_hosts_are_never_destinations() {
        // Same shape as the gang-separation test, but the would-be
        // destination no longer admits (degraded or crashed).
        let mut s = snap(
            vec![4, 4],
            vec![(0, 3, 900_000, 0), (0, 3, 400_000, 0), (1, 4, 0, 0)],
        );
        s.hosts[1].admit = false;
        assert_eq!(decide(Policy::VcrdAware, &s), None);
        // Least-loaded likewise: with every other host rejecting, the
        // overloaded host has nowhere to shed to.
        let mut s = snap(
            vec![4, 4],
            vec![(0, 4, 0, 0), (0, 2, 0, 0), (0, 2, 0, 0), (1, 2, 0, 0)],
        );
        s.hosts[1].admit = false;
        assert_eq!(decide(Policy::LeastLoaded, &s), None);
    }

    #[test]
    fn derated_capacity_shrinks_the_destination() {
        // A 4-PCPU host advertising only 2 effective PCPUs cannot take
        // a 3-VCPU gang even though it admits.
        let s = snap(vec![4, 2], vec![(0, 3, 900_000, 0), (0, 3, 400_000, 0)]);
        assert_eq!(decide(Policy::VcrdAware, &s), None);
    }

    #[test]
    fn plan_budget_one_matches_decide() {
        let s = snap(
            vec![4, 4],
            vec![(0, 3, 900_000, 0), (0, 3, 400_000, 0), (1, 4, 0, 0)],
        );
        for policy in Policy::ALL {
            let mut src = vec![false; 2];
            let mut dst = vec![false; 2];
            let p = plan(policy, &s, 1, &mut src, &mut dst);
            assert_eq!(p.moves.first().copied(), decide(policy, &s));
            assert_eq!(p.denied_conflict, 0);
        }
    }

    #[test]
    fn plan_picks_non_overlapping_moves_from_two_hot_hosts() {
        // Hosts 0 and 1 each carry two fighting gangs; hosts 2 and 3
        // are gang-free. One planning round should drain both hot
        // hosts, one gang each, to distinct destinations.
        let s = snap(
            vec![4, 4, 4, 4],
            vec![
                (0, 3, 900_000, 0),
                (0, 3, 400_000, 0),
                (1, 3, 800_000, 0),
                (1, 3, 300_000, 0),
                (2, 2, 0, 0),
                (3, 2, 0, 0),
            ],
        );
        let mut src = vec![false; 4];
        let mut dst = vec![false; 4];
        let p = plan(Policy::VcrdAware, &s, 4, &mut src, &mut dst);
        assert_eq!(
            p.moves.len(),
            2,
            "one gang off each hot host: {:?}",
            p.moves
        );
        assert_eq!(p.denied_conflict, 0);
        let (srcs, dsts): (Vec<usize>, Vec<usize>) =
            p.moves.iter().map(|m| (s.vms[m.vm].host, m.to)).unzip();
        assert_eq!(srcs, vec![0, 1], "hotter host drains first");
        assert_eq!(dsts, vec![2, 3], "distinct destinations");
        assert!(src[0] && src[1] && dst[2] && dst[3], "caps claimed");
    }

    #[test]
    fn plan_spreads_destinations_via_working_aggregates() {
        // Both hot hosts would prefer host 2 (lowest index among the
        // empty hosts); after the first move re-homes a gang there, the
        // updated aggregates fail the fit check and the second move
        // falls through to host 3.
        let s = snap(
            vec![4, 4, 4, 4],
            vec![
                (0, 3, 900_000, 0),
                (0, 3, 400_000, 0),
                (1, 3, 800_000, 0),
                (1, 3, 300_000, 0),
            ],
        );
        let mut src = vec![false; 4];
        let mut dst = vec![false; 4];
        let p = plan(Policy::VcrdAware, &s, 4, &mut src, &mut dst);
        assert_eq!(p.moves.len(), 2, "got {:?}", p.moves);
        let dsts: Vec<usize> = p.moves.iter().map(|m| m.to).collect();
        assert_eq!(dsts, vec![2, 3]);
    }

    #[test]
    fn plan_honours_preclaimed_endpoint_caps() {
        let s = snap(
            vec![4, 4],
            vec![(0, 3, 900_000, 0), (0, 3, 400_000, 0), (1, 4, 0, 0)],
        );
        // A live chain already sends from host 0: nothing else may.
        let mut src = vec![true, false];
        let mut dst = vec![false, false];
        let p = plan(Policy::VcrdAware, &s, 4, &mut src, &mut dst);
        assert!(p.moves.is_empty(), "got {:?}", p.moves);
        assert!(p.denied_conflict >= 1);
        // A live chain already lands on host 1: the only viable
        // destination is claimed.
        let mut src = vec![false, false];
        let mut dst = vec![false, true];
        let p = plan(Policy::VcrdAware, &s, 4, &mut src, &mut dst);
        assert!(p.moves.is_empty(), "got {:?}", p.moves);
        assert!(p.denied_conflict >= 1);
    }

    #[test]
    fn cooldown_vetoes_a_repeat_move() {
        let mut s = snap(
            vec![4, 4],
            vec![(0, 3, 900_000, 0), (0, 3, 400_000, 0), (1, 4, 0, 0)],
        );
        s.vms[0].cooling = true;
        let mv = decide(Policy::VcrdAware, &s).expect("second gang still movable");
        assert_eq!(mv.vm, 1, "cooling VM must be skipped");
        s.vms[1].cooling = true;
        assert_eq!(decide(Policy::VcrdAware, &s), None);
    }

    #[test]
    fn least_loaded_never_sends_to_a_hotter_host() {
        // Loads 8, 4, 1 and 0 VCPUs on four 4-PCPU hosts; hosts 1 and 2
        // do not admit. Live chains already send from host 0 and land on
        // host 3, so after those two denials host 1 is the hottest
        // unbanned source and host 0, the hottest host of all, is the
        // only destination left. Moving onto it only makes things worse.
        let mut s = snap(
            vec![4, 4, 4, 4],
            vec![
                (0, 4, 0, 0),
                (0, 4, 0, 0),
                (1, 2, 0, 0),
                (1, 2, 0, 0),
                (2, 1, 0, 0),
            ],
        );
        s.hosts[1].admit = false;
        s.hosts[2].admit = false;
        let mut src = vec![true, false, false, false];
        let mut dst = vec![false, false, false, true];
        let p = plan(Policy::LeastLoaded, &s, 2, &mut src, &mut dst);
        assert!(p.moves.is_empty(), "got {:?}", p.moves);
        assert_eq!(p.denied_conflict, 2);
    }
}
