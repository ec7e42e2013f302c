//! ACK-based reliable flooding: the naive CFM implementation over CAM.
//!
//! §3.2.1 of the paper sketches how CFM's reliable broadcast could be
//! implemented on a CSMA/CA-style substrate: "require acknowledgment from
//! all receivers of each broadcasting and re-transmit the packet if timeout
//! occurs", and warns that it "usually leads to significant network traffic
//! ... and hence high time and energy costs". This module quantifies that
//! warning.
//!
//! Protocol (slot-synchronous, CAM medium):
//!
//! * Every informed node must deliver the packet reliably to *all* its
//!   neighbors (flooding). A sender retransmits the data packet each phase
//!   (random slot) until every neighbor has acknowledged, or a retry cap.
//! * A node that cleanly receives a data packet from `u` enqueues a
//!   (unicast) ACK to `u`, transmitted in a random slot of the next phase.
//!   ACK transmissions contend with everything else (Assumption 6 applies
//!   to unicast too).
//! * ACKs are re-sent on duplicate data receptions, as real protocols do —
//!   a lost ACK otherwise deadlocks the sender.

use crate::bits::BitSet;
use crate::medium::{Medium, MediumScratch};
use nss_model::comm::CommunicationModel;
use nss_model::ids::NodeId;
use nss_model::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the ACK-based reliable flooding run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AckFloodConfig {
    /// Slots per phase.
    pub s: u32,
    /// Per-sender retransmission cap (phases of data transmission).
    pub max_retries: u32,
    /// Hard cap on phases.
    pub max_phases: usize,
}

impl Default for AckFloodConfig {
    fn default() -> Self {
        AckFloodConfig {
            s: 3,
            max_retries: 100,
            max_phases: 20_000,
        }
    }
}

/// Outcome of a reliable-flooding execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AckFloodOutcome {
    /// Total nodes.
    pub n_total: usize,
    /// Nodes that ended up informed (including the source).
    pub informed: usize,
    /// Data transmissions performed.
    pub data_tx: u64,
    /// ACK transmissions performed.
    pub ack_tx: u64,
    /// Phases executed.
    pub phases: usize,
    /// Senders that hit the retry cap with unacknowledged neighbors.
    pub gave_up: usize,
}

impl AckFloodOutcome {
    /// Total transmissions (data + ACK) — the energy proxy to compare with
    /// plain flooding's `M = informed count`.
    pub fn total_tx(&self) -> u64 {
        self.data_tx + self.ack_tx
    }

    /// Informed fraction.
    pub fn reachability(&self) -> f64 {
        self.informed as f64 / self.n_total as f64
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Frame {
    Data,
    Ack { to: u32 },
}

/// Runs reliable flooding over `topo` under the plain CAM medium.
pub fn run_ack_flood(topo: &Topology, cfg: &AckFloodConfig, seed: u64) -> AckFloodOutcome {
    assert!(cfg.s >= 1, "need at least one slot");
    let n = topo.len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let medium = Medium::new(CommunicationModel::CAM);
    let mut scratch = MediumScratch::new(n);

    let mut informed = BitSet::new(n);
    // Sender state: per-neighbor-position ACK bitmaps while actively flooding.
    let mut acked: Vec<BitSet> = (0..n).map(|_| BitSet::new(0)).collect();
    let mut retries = vec![0u32; n];
    let mut active = BitSet::new(n); // still retransmitting data
    let mut ack_queue: Vec<Vec<u32>> = vec![Vec::new(); n]; // pending ACK targets

    let src = NodeId::SOURCE.index();
    informed.set(src);
    active.set(src);
    acked[src] = BitSet::new(topo.degree(NodeId::SOURCE));

    let mut data_tx = 0u64;
    let mut ack_tx = 0u64;
    let mut gave_up = 0usize;
    let mut phases = 0usize;

    // Per-slot transmitter lists and what each node sends this phase.
    let mut slots: Vec<Vec<u32>> = vec![Vec::new(); cfg.s as usize];
    let mut frame: Vec<Frame> = vec![Frame::Data; n];

    for _phase in 0..cfg.max_phases {
        for sl in &mut slots {
            sl.clear();
        }
        let mut any = false;
        for u in 0..n as u32 {
            let ui = u as usize;
            // ACKs take priority: a node sends at most one frame per phase.
            if let Some(to) = ack_queue[ui].pop() {
                frame[ui] = Frame::Ack { to };
                slots[rng.random_range(0..cfg.s) as usize].push(u);
                ack_tx += 1;
                any = true;
            } else if active.get(ui) {
                if acked[ui].count_ones() == acked[ui].len() {
                    active.clear_bit(ui); // done: all neighbors acknowledged
                    continue;
                }
                if retries[ui] >= cfg.max_retries {
                    active.clear_bit(ui);
                    gave_up += 1;
                    continue;
                }
                retries[ui] += 1;
                frame[ui] = Frame::Data;
                slots[rng.random_range(0..cfg.s) as usize].push(u);
                data_tx += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
        phases += 1;

        let mut newly: Vec<u32> = Vec::new();
        for sl in &slots {
            medium.resolve_slot(topo, sl, &mut scratch, None, |rx, tx| {
                let rxi = rx.index();
                match frame[tx.index()] {
                    Frame::Data => {
                        // Every clean data reception triggers an ACK to the
                        // sender (duplicates included).
                        ack_queue[rxi].push(tx.0);
                        if !informed.get(rxi) {
                            informed.set(rxi);
                            newly.push(rx.0);
                        }
                    }
                    Frame::Ack { to } => {
                        if to == rx.0 {
                            // Mark the ACKing neighbor in rx's bitmap.
                            if let Some(pos) = topo.neighbors(rx).position(|v| v == tx.0) {
                                if pos < acked[rxi].len() {
                                    acked[rxi].set(pos);
                                }
                            }
                        }
                    }
                }
            });
        }
        for v in newly {
            let vi = v as usize;
            active.set(vi);
            acked[vi] = BitSet::new(topo.degree(NodeId(v)));
        }
    }

    AckFloodOutcome {
        n_total: n,
        informed: informed.count_ones(),
        data_tx,
        ack_tx,
        phases,
        gave_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::slotted::GossipConfig;
    use nss_model::deployment::{DeployedNetwork, Deployment};
    use nss_model::geometry::Point2;

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    #[test]
    fn line_becomes_fully_informed() {
        let topo = line(6);
        let out = run_ack_flood(&topo, &AckFloodConfig::default(), 3);
        assert_eq!(out.informed, 6);
        assert!(out.ack_tx > 0, "ACKs must flow");
        assert!(out.data_tx >= 6, "every node retransmits at least once");
    }

    #[test]
    fn reliable_flooding_costs_far_more_than_plain() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 25.0).sample(2));
        let plain = Executor::new(&topo)
            .gossip(GossipConfig::flooding_cam())
            .run(1);
        let reliable = run_ack_flood(&topo, &AckFloodConfig::default(), 1);
        assert!(
            reliable.total_tx() > 3 * plain.total_broadcasts(),
            "§3.2.1's warning should be visible: reliable {} vs plain {}",
            reliable.total_tx(),
            plain.total_broadcasts()
        );
        // ...but reliability pays in coverage.
        assert!(reliable.reachability() >= plain.final_reachability() - 0.05);
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 20.0).sample(8));
        let a = run_ack_flood(&topo, &AckFloodConfig::default(), 9);
        let b = run_ack_flood(&topo, &AckFloodConfig::default(), 9);
        assert_eq!(a.total_tx(), b.total_tx());
        assert_eq!(a.informed, b.informed);
    }

    #[test]
    fn retry_cap_terminates_dense_contention() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 60.0).sample(4));
        let cfg = AckFloodConfig {
            max_retries: 5,
            ..AckFloodConfig::default()
        };
        let out = run_ack_flood(&topo, &cfg, 0);
        assert!(out.phases < cfg.max_phases, "must terminate via caps");
        // With only 5 retries in a dense network, some senders give up.
        assert!(out.gave_up > 0, "expected give-ups under tight retry cap");
    }

    #[test]
    fn singleton_source_trivially_done() {
        let topo = line(1);
        let out = run_ack_flood(&topo, &AckFloodConfig::default(), 0);
        assert_eq!(out.informed, 1);
        assert_eq!(out.data_tx, 0, "no neighbors → nothing to send");
        assert_eq!(out.total_tx(), 0);
    }

    #[test]
    fn two_nodes_handshake() {
        let topo = line(2);
        let out = run_ack_flood(&topo, &AckFloodConfig::default(), 1);
        assert_eq!(out.informed, 2);
        // Source sends data (≥1), node 1 ACKs (≥1) and then floods to its
        // only neighbor (the source), which ACKs back.
        assert!(out.data_tx >= 2);
        assert!(out.ack_tx >= 2);
        assert_eq!(out.gave_up, 0);
    }
}
