//! Exact (exhaustive) analysis of PB_CAM on tiny topologies.
//!
//! For networks of up to ~10 nodes the full probability space of a PB_CAM
//! execution — every rebroadcast coin flip and every jitter-slot
//! assignment — can be enumerated exactly. This gives ground truth that
//! neither the mean-field ring model (an approximation) nor the Monte
//! Carlo simulator (an estimator) provides, and the workspace uses it to
//! validate both (see tests here and `tests/exact_validation.rs`).
//!
//! State space: `(informed, pending)` bitmask pairs. A phase transition
//! enumerates the `2^|pending|` coin outcomes and, for each transmitter
//! set, the `s^|tx|` slot assignments, resolving receptions under the
//! Assumption-6 collision rule. Memoization on the state pair keeps the
//! recursion tractable despite overlapping trajectories.

use nss_model::ids::NodeId;
use nss_model::topology::Topology;
use std::collections::HashMap;

/// Upper bound on the node count for exact analysis (the state and
/// per-phase enumeration are exponential).
pub const MAX_EXACT_NODES: usize = 12;

/// Exact expected *final* informed-node count (including the source) of
/// PB_CAM with rebroadcast probability `p` and `s` jitter slots, under the
/// transmission-range CAM collision rule.
pub fn exact_expected_informed(topo: &Topology, s: u32, p: f64) -> f64 {
    assert!(
        topo.len() <= MAX_EXACT_NODES,
        "exact analysis limited to {MAX_EXACT_NODES} nodes, got {}",
        topo.len()
    );
    assert!(s >= 1, "need at least one slot");
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let n = topo.len();
    if n == 0 {
        return 0.0;
    }
    // Adjacency as bitmasks.
    let adj: Vec<u32> = (0..n)
        .map(|u| {
            topo.neighbors(NodeId(u as u32))
                .fold(0u32, |m, v| m | (1 << v))
        })
        .collect();

    let mut memo: HashMap<(u32, u32), f64> = HashMap::new();
    let source_bit = 1u32 << NodeId::SOURCE.index();
    // Phase 1: the source transmits alone — all its neighbors receive.
    let informed = source_bit | adj[NodeId::SOURCE.index()];
    let pending = informed & !source_bit;
    expected(informed, pending, &adj, n, s, p, &mut memo)
}

/// Exact expected final reachability (fraction of all nodes).
///
/// ```
/// use nss_model::deployment::DeployedNetwork;
/// use nss_model::geometry::Point2;
/// use nss_model::topology::Topology;
/// use nss_sim::exact::exact_expected_reachability;
///
/// // A 3-node line: node 2 is reached iff node 1 rebroadcasts.
/// let pts = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(2.0, 0.0)];
/// let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
/// let r = exact_expected_reachability(&topo, 3, 0.5);
/// assert!((r - 2.5 / 3.0).abs() < 1e-12);
/// ```
pub fn exact_expected_reachability(topo: &Topology, s: u32, p: f64) -> f64 {
    exact_expected_informed(topo, s, p) / topo.len() as f64
}

fn expected(
    informed: u32,
    pending: u32,
    adj: &[u32],
    n: usize,
    s: u32,
    p: f64,
    memo: &mut HashMap<(u32, u32), f64>,
) -> f64 {
    if pending == 0 {
        return f64::from(informed.count_ones());
    }
    if let Some(&v) = memo.get(&(informed, pending)) {
        return v;
    }
    let pend: Vec<usize> = (0..n).filter(|&u| pending & (1 << u) != 0).collect();
    let k = pend.len();
    let mut total = 0.0f64;
    // Enumerate coin outcomes: which pending nodes transmit.
    for coin in 0..(1u32 << k) {
        let ntx = coin.count_ones();
        let prob_coin = p.powi(ntx as i32) * (1.0 - p).powi((k as u32 - ntx) as i32);
        if prob_coin == 0.0 {
            continue;
        }
        let tx: Vec<usize> = pend
            .iter()
            .enumerate()
            .filter(|&(i, _)| coin & (1 << i) != 0)
            .map(|(_, &u)| u)
            .collect();
        if tx.is_empty() {
            total += prob_coin * f64::from(informed.count_ones());
            continue;
        }
        // Enumerate slot assignments.
        let assignments = (s as u64).pow(tx.len() as u32);
        let prob_slot = 1.0 / assignments as f64;
        for code in 0..assignments {
            // Per-slot transmitter masks.
            let mut c = code;
            let mut slot_tx = vec![0u32; s as usize];
            for &u in &tx {
                slot_tx[(c % u64::from(s)) as usize] |= 1 << u;
                c /= u64::from(s);
            }
            // Resolve receptions (Assumption 6, transmission range).
            let mut newly = 0u32;
            for mask in &slot_tx {
                if *mask == 0 {
                    continue;
                }
                for (v, &adj_v) in adj.iter().enumerate() {
                    if informed & (1 << v) != 0 || newly & (1 << v) != 0 {
                        // Already informed nodes ignore duplicates; a node
                        // newly informed in an earlier slot of this phase
                        // likewise.
                        continue;
                    }
                    if (mask & adj_v).count_ones() == 1 {
                        newly |= 1 << v;
                    }
                }
            }
            let next_informed = informed | newly;
            total += prob_coin * prob_slot * expected(next_informed, newly, adj, n, s, p, memo);
        }
    }
    memo.insert((informed, pending), total);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::slotted::GossipConfig;
    use nss_model::deployment::DeployedNetwork;
    use nss_model::geometry::Point2;

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    /// Fully-connected triangle plus a far node reachable only through one
    /// relay — a shape with interesting collision structure.
    fn kite() -> Topology {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.8, 0.5),
            Point2::new(0.8, -0.5),
            Point2::new(1.7, 0.0),
        ];
        Topology::build(&DeployedNetwork::from_positions(pts, 1.05))
    }

    #[test]
    fn two_node_network_is_trivial() {
        let topo = line(2);
        for p in [0.0, 0.3, 1.0] {
            // Source informs node 1 in phase 1, always.
            assert!((exact_expected_informed(&topo, 3, p) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn three_node_line_closed_form() {
        // 0-1-2: node 1 informed in phase 1. Node 2 informed iff node 1
        // rebroadcasts (prob p) — no contention possible. E[informed] =
        // 2 + p.
        let topo = line(3);
        for p in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let e = exact_expected_informed(&topo, 3, p);
            assert!((e - (2.0 + p)).abs() < 1e-12, "p={p}: {e}");
        }
    }

    #[test]
    fn kite_collision_probability_closed_form() {
        // Kite with p=1, s slots: nodes 1, 2 informed in phase 1; both
        // transmit in phase 2. Node 3 hears both → informed iff they pick
        // different slots: P = (s−1)/s. E = 3 + (s−1)/s.
        let topo = kite();
        assert_eq!(topo.degree(NodeId(3)), 2, "kite wiring");
        for s in [1u32, 2, 3, 4] {
            let e = exact_expected_informed(&topo, s, 1.0);
            let expect = 3.0 + f64::from(s - 1) / f64::from(s);
            assert!((e - expect).abs() < 1e-12, "s={s}: {e} vs {expect}");
        }
    }

    #[test]
    fn kite_partial_probability() {
        // p < 1: node 3 is informed if exactly one of {1,2} transmits, or
        // both transmit in different slots. Then it never matters further.
        // P(reach 3) = 2p(1−p) + p²(s−1)/s.
        let topo = kite();
        let s = 3u32;
        for p in [0.2, 0.5, 0.8] {
            let e = exact_expected_informed(&topo, s, p);
            let reach3 = 2.0 * p * (1.0 - p) + p * p * (f64::from(s - 1) / f64::from(s));
            assert!((e - (3.0 + reach3)).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        // The simulator must estimate the exact value within Monte Carlo
        // error on a topology with real contention.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.3),
            Point2::new(0.9, -0.3),
            Point2::new(1.6, 0.4),
            Point2::new(1.6, -0.4),
            Point2::new(2.4, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let s = 3u32;
        let p = 0.6;
        let exact = exact_expected_reachability(&topo, s, p);

        let runs = 40_000u64;
        let mut cfg = GossipConfig::pb_cam(p);
        cfg.s = s;
        let mut total = 0.0;
        for seed in 0..runs {
            total += Executor::new(&topo)
                .gossip(cfg)
                .run(seed)
                .final_reachability();
        }
        let mc = total / runs as f64;
        // Std error ≈ 0.5/√runs ≈ 0.0025; allow 5σ.
        assert!(
            (mc - exact).abs() < 0.0125,
            "Monte Carlo {mc:.4} vs exact {exact:.4}"
        );
    }

    #[test]
    fn exact_monotone_in_slots() {
        let topo = kite();
        let mut prev = 0.0;
        for s in 1..=5u32 {
            let e = exact_expected_informed(&topo, s, 1.0);
            assert!(e >= prev - 1e-12, "more slots can't hurt: s={s}");
            prev = e;
        }
    }

    #[test]
    fn exact_bounds() {
        let topo = line(5);
        for p in [0.1, 0.5, 1.0] {
            let e = exact_expected_informed(&topo, 2, p);
            assert!((2.0 - 1e-12..=5.0 + 1e-12).contains(&e));
        }
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn large_networks_rejected() {
        let topo = line(MAX_EXACT_NODES + 1);
        let _ = exact_expected_informed(&topo, 3, 0.5);
    }
}
