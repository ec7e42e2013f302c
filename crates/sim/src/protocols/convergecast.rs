//! Convergecast (data gathering) over the **unicast** primitive.
//!
//! The paper's models expose two primitives — broadcast and unicast
//! (§3.2) — but its case study exercises only broadcast. This protocol
//! exercises unicast under the same CAM collision semantics: after a
//! dissemination phase establishes a BFS tree, every node forwards a
//! report to its parent, hop by hop, until all reports reach the source —
//! the data-gathering workload the paper's introduction motivates
//! (in-network processing, query responses).
//!
//! ARQ model: a sender retransmits its pending report until the parent
//! receives it cleanly, pacing retries with **binary exponential backoff**
//! — after each failed attempt the contention window doubles (up to a
//! cap) and the node sleeps a uniform number of phases from the window.
//! Without backoff the funnel around the source deadlocks at moderate
//! density: with `K` persistent contenders and `s` slots, the probability
//! of a clean slot decays like `K(1/s)(1−1/s)^{K−1}`, which is already
//! ~1e-6 at `K = 40, s = 3` (congestion collapse — observed, then fixed,
//! during development). Delivery feedback is idealized (the simulator
//! knows when the parent heard it); real ACKs would add the traffic
//! quantified by [`crate::protocols::ack_flood`]. Reports aggregate at
//! relays: a parent holding `k` child reports forwards them as one packet
//! (perfect aggregation).

use crate::medium::{Medium, MediumScratch};
use nss_model::comm::CommunicationModel;
use nss_model::ids::NodeId;
use nss_model::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a convergecast execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergecastConfig {
    /// Slots per phase.
    pub s: u32,
    /// Communication model (CAM by default).
    pub model: CommunicationModel,
    /// Hard cap on phases.
    pub max_phases: usize,
    /// Maximum backoff window in phases (binary exponential backoff
    /// doubles from 1 up to this cap after each failed attempt).
    pub max_backoff: u32,
}

impl Default for ConvergecastConfig {
    fn default() -> Self {
        ConvergecastConfig {
            s: 3,
            model: CommunicationModel::CAM,
            max_phases: 100_000,
            max_backoff: 256,
        }
    }
}

/// Outcome of a convergecast execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergecastOutcome {
    /// Nodes connected to the source (reports that could possibly arrive).
    pub reachable: usize,
    /// Reports that arrived at the source.
    pub delivered: usize,
    /// Unicast transmissions performed.
    pub transmissions: u64,
    /// Phases until completion (or the cap).
    pub phases: usize,
}

impl ConvergecastOutcome {
    /// Delivered fraction of the reachable reports.
    pub fn delivery_ratio(&self) -> f64 {
        if self.reachable == 0 {
            1.0
        } else {
            self.delivered as f64 / self.reachable as f64
        }
    }
}

/// Runs convergecast over the BFS tree rooted at the source.
pub fn run_convergecast(
    topo: &Topology,
    cfg: &ConvergecastConfig,
    seed: u64,
) -> ConvergecastOutcome {
    assert!(cfg.s >= 1, "need at least one slot");
    let n = topo.len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let medium = Medium::new(cfg.model);
    let mut scratch = MediumScratch::new(n);

    // BFS parents.
    let levels = topo.bfs_levels(NodeId::SOURCE);
    let mut parent = vec![u32::MAX; n];
    for u in 0..n as u32 {
        if levels[u as usize] == u32::MAX || u == NodeId::SOURCE.0 {
            continue;
        }
        // Parent: any neighbor one level closer (first by id, deterministic).
        for v in topo.neighbors(NodeId(u)) {
            if levels[v as usize] + 1 == levels[u as usize] {
                parent[u as usize] = v;
                break;
            }
        }
    }
    let reachable = (0..n)
        .filter(|&u| u != NodeId::SOURCE.index() && levels[u] != u32::MAX)
        .count();

    // pending[u] = number of reports buffered at u awaiting the uplink hop.
    let mut pending = vec![0u32; n];
    for u in 0..n {
        if u != NodeId::SOURCE.index() && levels[u] != u32::MAX {
            pending[u] = 1; // its own report
        }
    }
    let mut delivered = 0usize;
    let mut transmissions = 0u64;
    let mut phases = 0usize;
    let mut slots: Vec<Vec<u32>> = vec![Vec::new(); cfg.s as usize];
    // What each transmitter is trying to deliver this phase.
    let mut in_flight = vec![0u32; n];
    // Binary exponential backoff state: current window and phases left to
    // wait before the next attempt.
    let mut window = vec![1u32; n];
    let mut wait = vec![0u32; n];

    for _ in 0..cfg.max_phases {
        for sl in &mut slots {
            sl.clear();
        }
        let mut any = false;
        let mut attempted: Vec<u32> = Vec::new();
        for u in 0..n as u32 {
            let ui = u as usize;
            if pending[ui] == 0 || parent[ui] == u32::MAX {
                continue;
            }
            any = true; // work remains even while backing off
            if wait[ui] > 0 {
                wait[ui] -= 1;
                continue;
            }
            // Transmit the whole buffered aggregate as one packet.
            in_flight[ui] = pending[ui];
            slots[rng.random_range(0..cfg.s) as usize].push(u);
            attempted.push(u);
            transmissions += 1;
        }
        if !any {
            break;
        }
        phases += 1;

        // A transmitter's buffer drains only if the parent heard it; fresh
        // arrivals land in the parent's buffer for the next phase.
        let mut arrived: Vec<(usize, u32)> = Vec::new();
        let mut drained: Vec<usize> = Vec::new();
        for sl in &slots {
            medium.resolve_slot(topo, sl, &mut scratch, None, |rx, tx| {
                let txi = tx.index();
                if parent[txi] == rx.0 {
                    arrived.push((rx.index(), in_flight[txi]));
                    drained.push(txi);
                }
            });
        }
        for &txi in &drained {
            pending[txi] -= in_flight[txi];
            in_flight[txi] = 0;
            window[txi] = 1; // success resets the contention window
            wait[txi] = 0;
        }
        for u in attempted {
            let ui = u as usize;
            if in_flight[ui] > 0 {
                // Failed attempt: double the window (capped) and draw a
                // uniform backoff from it.
                in_flight[ui] = 0;
                window[ui] = (window[ui] * 2).min(cfg.max_backoff);
                wait[ui] = rng.random_range(0..window[ui]);
            }
        }
        for (rxi, count) in arrived {
            if rxi == NodeId::SOURCE.index() {
                delivered += count as usize;
            } else {
                pending[rxi] += count;
            }
        }
    }

    ConvergecastOutcome {
        reachable,
        delivered,
        transmissions,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_model::deployment::{DeployedNetwork, Deployment};
    use nss_model::geometry::Point2;

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    #[test]
    fn line_delivers_all_reports() {
        let topo = line(6);
        let out = run_convergecast(&topo, &ConvergecastConfig::default(), 4);
        assert_eq!(out.reachable, 5);
        assert_eq!(out.delivered, 5, "all reports must funnel to the source");
        // At least one hop per report per level: 5+4+3+2+1 = 15 successful
        // hops minimum.
        assert!(out.transmissions >= 15);
    }

    #[test]
    fn aggregation_bounds_transmissions_under_cfm() {
        // Under CFM (no collisions), every phase drains every buffer one
        // hop: a node at level L needs at most L phases for its report, and
        // each node transmits at most once per phase.
        let topo = line(5);
        let cfg = ConvergecastConfig {
            model: CommunicationModel::Cfm,
            ..ConvergecastConfig::default()
        };
        let out = run_convergecast(&topo, &cfg, 1);
        assert_eq!(out.delivered, 4);
        assert_eq!(out.phases, 4, "pipeline depth equals eccentricity");
        // Node i transmits for i phases? With aggregation: phases 4, tx per
        // phase ≤ 4 → ≤ 16.
        assert!(out.transmissions <= 16);
    }

    #[test]
    fn dense_network_congests_but_completes() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 30.0).sample(7));
        let out = run_convergecast(&topo, &ConvergecastConfig::default(), 7);
        assert!(
            out.delivery_ratio() > 0.99,
            "ARQ should eventually deliver everything: {}",
            out.delivery_ratio()
        );
        // Contention forces retransmissions: more transmissions than the
        // CFM lower bound (sum of BFS levels).
        let levels = topo.bfs_levels(NodeId::SOURCE);
        let lower: u64 = levels
            .iter()
            .filter(|&&l| l != u32::MAX)
            .map(|&l| u64::from(l))
            .sum();
        assert!(
            out.transmissions > lower,
            "CAM contention should cost retries: {} vs lower bound {}",
            out.transmissions,
            lower
        );
    }

    #[test]
    fn backoff_prevents_funnel_livelock() {
        // Without exponential backoff, ~60 persistent level-1 contenders in
        // 3 slots make the per-phase success probability ~1e-9 — the run
        // would exhaust max_phases with zero deliveries. Backoff must keep
        // both phases and per-report transmissions modest.
        let topo = Topology::build(&Deployment::disk(4, 1.0, 60.0).sample(4));
        let out = run_convergecast(&topo, &ConvergecastConfig::default(), 4);
        assert!(
            out.delivery_ratio() > 0.99,
            "delivery ratio {}",
            out.delivery_ratio()
        );
        assert!(
            out.phases < 5_000,
            "backoff should drain the funnel quickly: {} phases",
            out.phases
        );
        let per_report = out.transmissions as f64 / out.reachable.max(1) as f64;
        assert!(
            per_report < 50.0,
            "per-report transmissions too high: {per_report:.1}"
        );
    }

    #[test]
    fn disconnected_nodes_dont_count() {
        // Sparse disk with isolated nodes: delivery ratio is relative to
        // the connected component only.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 2.0).sample(13));
        let out = run_convergecast(&topo, &ConvergecastConfig::default(), 3);
        assert!(out.reachable < topo.len() - 1);
        assert_eq!(out.delivered, out.reachable);
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 25.0).sample(5));
        let a = run_convergecast(&topo, &ConvergecastConfig::default(), 8);
        let b = run_convergecast(&topo, &ConvergecastConfig::default(), 8);
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn singleton_trivially_complete() {
        let topo = line(1);
        let out = run_convergecast(&topo, &ConvergecastConfig::default(), 0);
        assert_eq!(out.reachable, 0);
        assert_eq!(out.delivered, 0);
        assert_eq!(out.delivery_ratio(), 1.0);
        assert_eq!(out.transmissions, 0);
    }
}
