//! Cross-version trace pin: full traces of four gossip configurations on
//! one 54,000-node field, hashed and compared against values recorded
//! before the topology stored nodes in grid-cell order.
//!
//! The hash covers `first_rx_phase` and every per-phase series, so any
//! change to the simulated statistics — a reordered neighbour row, a coin
//! keyed on the wrong id, a float sum taken in another order — changes it.
//! The sharded engine is checked at 1, 2, 3, 4 and 7 worker threads.

use nss::model::comm::{MediumBackend, SinrParams};
use nss::model::prelude::*;
use nss::sim::prelude::*;

/// FNV-1a over the trace's fields, each prefixed by its length.
fn trace_hash(t: &SimTrace) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
        fn series(&mut self, s: impl ExactSizeIterator<Item = u64>) {
            self.word(s.len() as u64);
            for w in s {
                self.word(w);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(t.n_total as u64);
    h.series(t.first_rx_phase.iter().map(|&p| u64::from(p)));
    h.series(t.broadcasts_by_phase.iter().map(|&b| u64::from(b)));
    h.series(t.deliveries_by_phase.iter().copied());
    h.series(t.collisions_by_phase.iter().copied());
    h.series(t.cs_deferrals_by_phase.iter().copied());
    h.series(
        t.success_rate_by_phase
            .iter()
            .map(|&(r, c)| r.to_bits() ^ u64::from(c).rotate_left(32)),
    );
    h.series(t.losses_by_phase.iter().copied());
    h.series(t.dead_drops_by_phase.iter().copied());
    h.series(t.alive_by_phase.iter().map(|&a| u64::from(a)));
    h.series(t.sinr_rejects_by_phase.iter().copied());
    h.0
}

/// A P = 30, ρ = 60 disk: 54,000 nodes.
fn field() -> Topology {
    let net = Deployment::disk(30, 1.0, 60.0).sample(2005);
    assert_eq!(net.len(), 54_000);
    Topology::build(&net)
}

const SEED: u64 = 77;
const FAULTS_SEED: u64 = 78;

/// The pinned configurations: name, gossip config, optional fault plan.
fn configs() -> Vec<(&'static str, GossipConfig, Option<FaultPlan>)> {
    let cam = GossipConfig::pb_cam(0.6);
    let cs = GossipConfig {
        model: CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R),
        ..cam
    };
    // Interference truncated at 2r rather than the default 3r halves the
    // cost of this, the slowest case, in unoptimised test builds.
    let sinr = cam.with_backend(MediumBackend::Sinr(SinrParams {
        interference_factor: 2.0,
        ..SinrParams::DEFAULT
    }));
    let plan = FaultPlan {
        link_loss: 0.1,
        dead_frac: 0.05,
        ..FaultPlan::default()
    };
    vec![
        ("cam", cam, None),
        ("cam-cs2r", cs, None),
        ("sinr", sinr, None),
        ("cam-faults", cam, Some(plan)),
    ]
}

fn executor<'a>(topo: &'a Topology, cfg: GossipConfig, plan: &Option<FaultPlan>) -> Executor<'a> {
    let ex = Executor::new(topo).gossip(cfg);
    match plan {
        Some(p) => ex.faults(p.clone()).faults_seed(FAULTS_SEED),
        None => ex,
    }
}

/// Hashes recorded on the pre-relabelling code, in `configs()` order.
const SHARDED: [u64; 4] = [
    0x5985_e57e_9202_0941,
    0xb756_ae4b_4547_4015,
    0xdfa9_59ca_c370_7b8b,
    0x3bd8_be5c_0aed_a155,
];
const SEQUENTIAL: [u64; 4] = [
    0xd88a_8090_18ae_7831,
    0x51e9_1964_5b4a_daeb,
    0x8dd4_7718_293b_cce5,
    0x7517_d67b_705c_3e51,
];

/// Checks configuration `i` of `configs()` on both engines.
fn check(i: usize) {
    let topo = field();
    let (name, cfg, plan) = configs().swap_remove(i);
    for threads in [1, 2, 3, 4, 7] {
        let shard = trace_hash(&executor(&topo, cfg, &plan).sharded(threads).run(SEED));
        assert_eq!(shard, SHARDED[i], "{name} sharded at {threads} threads");
    }
    let seq = trace_hash(&executor(&topo, cfg, &plan).sequential().run(SEED));
    assert_eq!(seq, SEQUENTIAL[i], "{name} sequential");
}

#[test]
fn cam_traces_match_the_recorded_hashes() {
    check(0);
}

#[test]
fn carrier_sense_traces_match_the_recorded_hashes() {
    check(1);
}

#[test]
fn sinr_traces_match_the_recorded_hashes() {
    check(2);
}

#[test]
fn faulty_traces_match_the_recorded_hashes() {
    check(3);
}
