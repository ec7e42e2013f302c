//! Executable specification of slot arbitration.
//!
//! [`Medium`] is the one implementation of the paper's reception rules:
//! CFM (§3.2, every neighbour hears every transmission), CAM Assumption 6
//! (a receiver decodes iff exactly one node within `r` transmitted), the
//! Appendix A carrier-sense rule (additionally, nothing in the annulus
//! `(r, f·r]`) and the SINR backend. This file restates each rule as a
//! brute-force O(n²) classifier written from pairwise distances alone —
//! no grid, no CSR, no first-touch bookkeeping — and checks on random
//! small fields, with and without a fault context, that:
//!
//! * [`Medium::resolve_slot`] reports exactly the spec's [`SlotStats`]
//!   and delivery set;
//! * running [`Medium::expose`] / [`Medium::classify`] over any split of
//!   the receivers into windows and merging the partials gives the same
//!   stats and deliveries as one window over every node. This is the
//!   property the sharded engine relies on (several windows per worker);
//! * a window's counters are reset by its classification, so a second
//!   slot through the same scratch resolves as on fresh scratch.

use nss_model::comm::{CollisionRule, CommunicationModel, MediumBackend, SinrParams};
use nss_model::deployment::DeployedNetwork;
use nss_model::geometry::Point2;
use nss_model::topology::Topology;
use nss_sim::bits::BitSet;
use nss_sim::faults::SlotFaults;
use nss_sim::medium::{Medium, MediumScratch, SlotStats};
use proptest::collection;
use proptest::prelude::*;

const R: f64 = 1.0;

/// One generated slot: node positions, the external ids transmitting, and
/// the hearing mask a fault context would use.
struct Slot {
    pts: Vec<Point2>,
    txs: Vec<u32>,
    alive: BitSet,
}

/// Builds a slot from `(x, y, flags)` draws on a `side × side` square:
/// bit 0 of `flags` marks a transmitter (node 0 when none is drawn), and
/// `flags / 2 == 0` marks a node the fault context treats as dead.
fn slot(nodes: &[(f64, f64, u32)], side: f64) -> Slot {
    let pts: Vec<Point2> = nodes
        .iter()
        .map(|&(x, y, _)| Point2::new(x * side, y * side))
        .collect();
    let mut txs: Vec<u32> = (0..nodes.len() as u32)
        .filter(|&i| nodes[i as usize].2 % 2 == 1)
        .collect();
    if txs.is_empty() {
        txs.push(0);
    }
    let alive: Vec<bool> = nodes.iter().map(|&(_, _, f)| f / 2 != 0).collect();
    Slot {
        pts,
        txs,
        alive: BitSet::from_bools(&alive),
    }
}

/// The medium under test: `kind` picks CFM, CAM-TR, CAM-CS (factor `f`)
/// or SINR; `sinr` supplies `(α, β, noise, κ)`.
fn medium(kind: u32, f: f64, sinr: (f64, f64, f64, f64)) -> Medium {
    match kind {
        0 => Medium::new(CommunicationModel::Cfm),
        1 => Medium::new(CommunicationModel::CAM),
        2 => Medium::new(CommunicationModel::Cam(CollisionRule::CarrierSense {
            factor: f,
        })),
        _ => Medium::with_backend(
            CommunicationModel::CAM,
            MediumBackend::Sinr(SinrParams {
                alpha: sinr.0,
                beta: sinr.1,
                noise: sinr.2,
                interference_factor: sinr.3,
            }),
        ),
    }
}

/// The spec: classifies every receiver of one slot from pairwise
/// distances. Returns the stats and the sorted `(receiver, transmitter)`
/// deliveries, in external ids.
fn spec(
    medium: &Medium,
    pts: &[Point2],
    txs: &[u32],
    faults: Option<&SlotFaults<'_>>,
) -> (SlotStats, Vec<(u32, u32)>) {
    let mut stats = SlotStats::default();
    let mut out = Vec::new();
    let mut deliver = |stats: &mut SlotStats, v: u32, t: u32| {
        if let Some(f) = faults {
            if !f.alive.get(v as usize) {
                stats.dead_drops += 1;
                return;
            }
            if !f.link_delivers(t, v) {
                stats.losses += 1;
                return;
            }
        }
        stats.deliveries += 1;
        out.push((v, t));
    };
    let d2 = |a: u32, b: u32| pts[a as usize].dist_sq(&pts[b as usize]);
    let r2 = R * R;
    let in_range = |v: u32| -> Vec<u32> {
        txs.iter()
            .copied()
            .filter(|&t| t != v && d2(t, v) <= r2)
            .collect()
    };
    for v in 0..pts.len() as u32 {
        let heard = in_range(v);
        match (medium.model(), medium.backend()) {
            (CommunicationModel::Cfm, _) => {
                for t in heard {
                    deliver(&mut stats, v, t);
                }
            }
            (CommunicationModel::Cam(_), MediumBackend::Sinr(p)) => {
                if heard.is_empty() {
                    continue;
                }
                let k2 = (p.interference_factor * R) * (p.interference_factor * R);
                let power = |t: u32| (r2 / d2(t, v).max(r2 * 1e-12)).powf(p.alpha * 0.5);
                let total: f64 = txs
                    .iter()
                    .filter(|&&t| t != v && d2(t, v) <= k2)
                    .map(|&t| power(t))
                    .sum();
                // Strongest in-range candidate; equal powers go to the
                // lower id.
                let best = heard
                    .iter()
                    .copied()
                    .reduce(|b, t| if power(t) > power(b) { t } else { b })
                    .unwrap_or(u32::MAX);
                let denom = p.noise + (total - power(best)).max(0.0);
                if denom <= 0.0 || power(best) / denom >= p.beta {
                    if heard.len() > 1 {
                        stats.sinr_captures += 1;
                    }
                    deliver(&mut stats, v, best);
                } else if heard.len() > 1 {
                    stats.collisions += 1;
                } else {
                    stats.sinr_rejects += 1;
                }
            }
            (CommunicationModel::Cam(rule), _) => {
                let annulus = match rule {
                    CollisionRule::CarrierSense { factor } => {
                        let f2 = (factor * R) * (factor * R);
                        txs.iter()
                            .filter(|&&t| t != v && d2(t, v) > r2 && d2(t, v) <= f2)
                            .count()
                    }
                    _ => 0,
                };
                match (heard.len(), annulus) {
                    (1, 0) => deliver(&mut stats, v, heard[0]),
                    (0, _) => {}
                    (1, _) => stats.cs_deferrals += 1,
                    _ => stats.collisions += 1,
                }
            }
        }
    }
    out.sort_unstable();
    (stats, out)
}

/// [`Medium::resolve_slot`] on fresh scratch, deliveries sorted.
fn resolve(
    medium: &Medium,
    topo: &Topology,
    txs: &[u32],
    faults: Option<&SlotFaults<'_>>,
) -> (SlotStats, Vec<(u32, u32)>) {
    let mut scratch = MediumScratch::new(topo.len());
    let mut out = Vec::new();
    let stats = medium.resolve_slot(topo, txs, &mut scratch, faults, |rx, tx| {
        out.push((rx.0, tx.0));
    });
    out.sort_unstable();
    (stats, out)
}

/// Runs both passes over the windows `bounds` of `scratch` (every
/// exposure before any classification, as the sharded engine does) and
/// merges the partials. `txs` are external ids; deliveries come back in
/// external ids, sorted.
fn windowed(
    medium: &Medium,
    topo: &Topology,
    scratch: &mut MediumScratch,
    bounds: &[u32],
    txs: &[u32],
    faults: Option<&SlotFaults<'_>>,
) -> (SlotStats, Vec<(u32, u32)>) {
    let (rank, ext) = (topo.rank(), topo.ext());
    let internal: Vec<u32> = txs.iter().map(|&t| rank[t as usize]).collect();
    let (mut windows, tx_bits) = scratch.windows(topo, bounds);
    for &t in &internal {
        tx_bits.set(t as usize);
    }
    for w in windows.iter_mut() {
        medium.expose(topo, &internal, w);
    }
    let mut stats = SlotStats::default();
    let mut out = Vec::new();
    for w in windows.iter_mut() {
        stats.absorb(
            medium.classify(topo, &internal, tx_bits, w, faults, |v, t| {
                out.push((ext[v as usize], ext[t as usize]));
            }),
        );
    }
    for &t in &internal {
        tx_bits.clear_bit(t as usize);
    }
    out.sort_unstable();
    (stats, out)
}

/// Window bounds `0 = b₀ ≤ … ≤ b_k = n` from raw cut draws (repeated cuts
/// give empty windows).
fn bounds(n: usize, cuts: &[u32]) -> Vec<u32> {
    let mut b: Vec<u32> = cuts.iter().map(|&c| c % (n as u32 + 1)).collect();
    b.push(0);
    b.push(n as u32);
    b.sort_unstable();
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `resolve_slot` agrees with the distance-only spec on every model,
    /// with and without a fault context.
    #[test]
    fn resolve_slot_matches_the_spec(
        nodes in collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u32..8), 2..48),
        side in 1.5f64..6.0,
        kind in 0u32..4,
        factor in 1.0f64..3.0,
        sinr in (2.0f64..6.0, 0.05f64..4.0, (0.0f64..0.5, 1.0f64..4.0)),
        faults in proptest::option::of((0.0f64..0.6, 0u64..1_000)),
    ) {
        let s = slot(&nodes, side);
        let topo = Topology::build(&DeployedNetwork::from_positions(s.pts.clone(), R));
        let m = medium(kind, factor, (sinr.0, sinr.1, sinr.2.0, sinr.2.1));
        let sf = faults.map(|(loss, seed)| SlotFaults::new(&s.alive, loss, seed, 3, 1));
        let got = resolve(&m, &topo, &s.txs, sf.as_ref());
        let want = spec(&m, &s.pts, &s.txs, sf.as_ref());
        prop_assert_eq!(got, want);
    }

    /// Any split of the receivers into windows merges to the whole-range
    /// result, and windows reset their counters for the next slot.
    #[test]
    fn receiver_windows_merge_to_the_whole_range(
        nodes in collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u32..8), 2..48),
        side in 1.5f64..6.0,
        kind in 0u32..4,
        factor in 1.0f64..3.0,
        sinr in (2.0f64..6.0, 0.05f64..4.0, (0.0f64..0.5, 1.0f64..4.0)),
        faults in proptest::option::of((0.0f64..0.6, 0u64..1_000)),
        cuts in collection::vec(0u32..1_000, 0..6),
    ) {
        let s = slot(&nodes, side);
        let n = s.pts.len();
        let topo = Topology::build(&DeployedNetwork::from_positions(s.pts.clone(), R));
        let m = medium(kind, factor, (sinr.0, sinr.1, sinr.2.0, sinr.2.1));
        let sf = faults.map(|(loss, seed)| SlotFaults::new(&s.alive, loss, seed, 3, 1));
        let whole = windowed(&m, &topo, &mut MediumScratch::new(n), &[0, n as u32], &s.txs, sf.as_ref());
        prop_assert_eq!(&whole, &resolve(&m, &topo, &s.txs, sf.as_ref()));

        let split = bounds(n, &cuts);
        let mut scratch = MediumScratch::new(n);
        prop_assert_eq!(&windowed(&m, &topo, &mut scratch, &split, &s.txs, sf.as_ref()), &whole);
        // A second slot (every other node transmitting) through the same
        // scratch resolves exactly as on fresh scratch.
        let others: Vec<u32> = (0..n as u32).filter(|&v| !s.txs.contains(&v)).collect();
        if !others.is_empty() {
            let again = windowed(&m, &topo, &mut scratch, &split, &others, sf.as_ref());
            prop_assert_eq!(again, resolve(&m, &topo, &others, sf.as_ref()));
        }
    }
}

#[test]
fn spec_reproduces_the_textbook_cases() {
    // Line 0-1-2-3 at unit spacing: 1 and 3 transmit, so 0 hears 1 alone
    // and 2 hears both (Assumption 6 collision); CFM delivers all three.
    let pts: Vec<Point2> = (0..4).map(|i| Point2::new(f64::from(i), 0.0)).collect();
    let (cam, d) = spec(&Medium::new(CommunicationModel::CAM), &pts, &[1, 3], None);
    assert_eq!(d, vec![(0, 1)]);
    assert_eq!(cam.collisions, 1);
    let (cfm, d) = spec(&Medium::new(CommunicationModel::Cfm), &pts, &[1, 3], None);
    assert_eq!(d, vec![(0, 1), (2, 1), (2, 3)]);
    assert_eq!(cfm.collisions, 0);
    // Receiver 0, its transmitter at 0.9 and an annulus interferer at 1.8:
    // the 2r carrier-sense rule defers the clean reception.
    let pts = vec![
        Point2::new(0.0, 0.0),
        Point2::new(0.9, 0.0),
        Point2::new(1.8, 0.0),
    ];
    let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
    let (st, d) = spec(&cs, &pts, &[1, 2], None);
    assert!(st.cs_deferrals >= 1 && !d.iter().any(|&(v, _)| v == 0));
}
