//! Per-slot medium arbitration: who receives what, under CFM or CAM.
//!
//! The slotted executor hands the medium the set of nodes transmitting in
//! one slot; the medium applies the communication model's reception rule
//! (§3.2 / Assumption 6 / Appendix A) and reports every clean delivery as a
//! `(receiver, transmitter)` pair:
//!
//! * **CFM** — every transmission reaches every neighbor (atomic, reliable).
//! * **CAM, transmission range** — `v` receives iff exactly one node within
//!   `r` of `v` transmitted in the slot.
//! * **CAM, carrier sense `f·r`** — additionally, no node in the annulus
//!   `(r, f·r]` of `v` may have transmitted.
//!
//! A second physical-layer *backend* replaces the unit-disk reception rule
//! with the SINR model (see [`MediumBackend::Sinr`]): normalized received
//! power `p = (r²/d²)^(α/2)` per transmitter, and `v` decodes its strongest
//! in-range candidate iff `p / (N + Σ interference) ≥ β`, with interference
//! summed over every other transmitter within `κ·r` of `v`. The sum is
//! accumulated per receiver in the spatial grid's canonical iteration
//! order, so results are bit-identical under any engine or thread count.
//!
//! Arbitration is one kernel of two passes over a *receiver window*, a
//! contiguous range of internal (grid-cell order) ids: [`Medium::expose`]
//! counts each owned receiver's exposure, and [`Medium::classify`] applies
//! the reception rule to it. [`Medium::resolve_slot`] runs both over one
//! window holding every node; the sharded engine runs them over disjoint
//! windows, each resolved by one worker, so no receiver has two writers.

use crate::bits::BitSet;
use crate::faults::SlotFaults;
use nss_model::comm::{CollisionRule, CommunicationModel, MediumBackend, SinrParams};
use nss_model::geometry::Point2;
use nss_model::ids::NodeId;
use nss_model::topology::Topology;

/// One receiver's exposure in the slot being resolved: transmitters
/// within `r` (`rx`), transmitters in the carrier-sense annulus (`cs`),
/// and the last in-range transmitter heard. Kept together so a touch
/// costs one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Exposure {
    rx: u16,
    cs: u16,
    last_tx: u32,
}

/// Reusable scratch buffers for slot resolution (sized to the topology).
///
/// Every buffer is indexed by the topology's *internal* (grid-cell order)
/// id. [`MediumScratch::windows`] splits the per-receiver exposure into
/// disjoint receiver windows, each resolved by one worker of a sharded
/// slot.
#[derive(Debug)]
pub struct MediumScratch {
    exposure: Vec<Exposure>,
    touched: Vec<u32>,
    txs: Vec<u32>,
    tx_bits: BitSet,
}

impl MediumScratch {
    /// Allocates scratch space for an `n`-node topology.
    pub fn new(n: usize) -> Self {
        MediumScratch {
            exposure: vec![Exposure::default(); n],
            touched: Vec::with_capacity(256),
            txs: Vec::new(),
            tx_bits: BitSet::new(n),
        }
    }

    /// Heap bytes held by the per-receiver exposure and the transmitter
    /// bitset (memory-footprint telemetry).
    pub(crate) fn bytes(&self) -> usize {
        self.exposure.len() * std::mem::size_of::<Exposure>() + self.tx_bits.bytes()
    }

    /// Splits the receivers at `bounds` into one [`Window`] per adjacent
    /// pair: window `i` owns internal ids `bounds[i]..bounds[i+1]` of
    /// `topo`. `bounds` must ascend from 0 to the node count. Each window
    /// records its receivers' bounding box, so [`Medium::expose`] skips
    /// transmitters too far away to reach any of them without reading
    /// their rows. The transmitter bitset [`Medium::classify`] reads under
    /// SINR comes back alongside, since the windows hold the rest of the
    /// scratch mutably.
    pub fn windows(&mut self, topo: &Topology, bounds: &[u32]) -> (Vec<Window<'_>>, &mut BitSet) {
        assert!(
            bounds.first() == Some(&0) && bounds.last() == Some(&(self.exposure.len() as u32)),
            "receiver windows must cover 0..n"
        );
        let mut rest = &mut self.exposure[..];
        let mut windows = Vec::with_capacity(bounds.len().saturating_sub(1));
        for pair in bounds.windows(2) {
            let (exposure, tail) =
                std::mem::take(&mut rest).split_at_mut((pair[1] - pair[0]) as usize);
            rest = tail;
            windows.push(Window {
                lo: pair[0],
                exposure,
                touched: Vec::new(),
                extent: Some(Extent::of(topo, pair[0]..pair[1])),
            });
        }
        (windows, &mut self.tx_bits)
    }
}

/// The receivers `lo..hi` of one slot resolution (internal ids): their
/// exposure, and the receivers touched this slot in first-touch order.
/// Windows of one scratch are disjoint, so each can be resolved on its own
/// thread without synchronization.
#[derive(Debug)]
pub struct Window<'a> {
    lo: u32,
    exposure: &'a mut [Exposure],
    touched: Vec<u32>,
    /// Bounding box of the owned receivers; `None` for a window holding
    /// every node, which every transmitter reaches.
    extent: Option<Extent>,
}

/// Axis-aligned bounding box of a set of node positions (inverted, so
/// nothing is near it, when the set is empty).
#[derive(Debug, Clone, Copy)]
struct Extent {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl Extent {
    fn of(topo: &Topology, ids: std::ops::Range<u32>) -> Self {
        let mut e = Extent {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        };
        for i in ids {
            let p = topo.internal_position(i);
            e.min_x = e.min_x.min(p.x);
            e.min_y = e.min_y.min(p.y);
            e.max_x = e.max_x.max(p.x);
            e.max_y = e.max_y.max(p.y);
        }
        e
    }

    /// Whether `p` lies within `reach` of the box (conservatively: a
    /// relative slack absorbs the rounding of the distance tests).
    #[inline]
    fn near(&self, p: Point2, reach: f64) -> bool {
        let d = reach * (1.0 + 1e-9);
        p.x >= self.min_x - d
            && p.x <= self.max_x + d
            && p.y >= self.min_y - d
            && p.y <= self.max_y + d
    }
}

impl Window<'_> {
    /// The exposure of internal id `v`, if this window owns it; records
    /// `v` as touched on its first exposure this slot.
    #[inline]
    fn touch(&mut self, v: u32) -> Option<&mut Exposure> {
        let e = self.exposure.get_mut(v.wrapping_sub(self.lo) as usize)?;
        if e.rx == 0 && e.cs == 0 {
            self.touched.push(v);
        }
        Some(e)
    }

    /// Whether this window owns internal id `v`.
    #[inline]
    fn owns(&self, v: u32) -> bool {
        (v.wrapping_sub(self.lo) as usize) < self.exposure.len()
    }

    /// Takes the exposure of touched receiver `v`, leaving it reset.
    #[inline]
    fn take(&mut self, v: u32) -> Exposure {
        std::mem::take(&mut self.exposure[(v - self.lo) as usize])
    }
}

/// Outcome accounting for one resolved slot.
///
/// Counts are per *(receiver, slot)* pair and pre-protocol-filtering: a
/// delivery to an already-informed or dead node still counts here —
/// duplicate suppression and failure injection are protocol logic layered
/// above the medium.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Clean deliveries reported via `on_delivery`.
    pub deliveries: u64,
    /// Receivers that heard ≥ 2 in-range transmissions garble each other
    /// (CAM Assumption 6: nobody wins).
    pub collisions: u64,
    /// Receivers whose single clean reception was destroyed by
    /// carrier-annulus interference (Appendix A rule only).
    pub cs_deferrals: u64,
    /// Clean receptions destroyed by the fault plan's independent
    /// link-loss coin (the packet still occupied the channel, so it
    /// collided like any other transmission before the coin was flipped).
    pub losses: u64,
    /// Clean receptions addressed to a node the fault plan had killed
    /// (crash schedule, duty-cycle sleep, thinning, energy exhaustion).
    pub dead_drops: u64,
    /// Sole-candidate receptions the SINR threshold test rejected: no
    /// concurrent in-range transmitter, but out-of-range interference (or
    /// noise) pushed SINR below β. Zero under the unit-disk backend.
    pub sinr_rejects: u64,
    /// Deliveries decoded *despite* ≥ 2 concurrent in-range transmitters —
    /// the SINR capture effect, impossible under unit-disk Assumption 6.
    pub sinr_captures: u64,
}

impl SlotStats {
    /// Accumulates another slot's counts.
    pub fn absorb(&mut self, other: SlotStats) {
        self.deliveries += other.deliveries;
        self.collisions += other.collisions;
        self.cs_deferrals += other.cs_deferrals;
        self.losses += other.losses;
        self.dead_drops += other.dead_drops;
        self.sinr_rejects += other.sinr_rejects;
        self.sinr_captures += other.sinr_captures;
    }
}

/// The arbitration engine for one communication model.
#[derive(Debug, Clone, Copy)]
pub struct Medium {
    model: CommunicationModel,
    backend: MediumBackend,
}

impl Medium {
    /// Creates a medium implementing the given communication model under
    /// the default unit-disk backend (the paper's reception rules).
    pub fn new(model: CommunicationModel) -> Self {
        Medium {
            model,
            backend: MediumBackend::UnitDisk,
        }
    }

    /// Creates a medium with an explicit physical-layer backend.
    ///
    /// The backend only affects CAM arbitration: CFM is reliable by
    /// assumption, so it ignores the physical layer entirely. Under
    /// [`MediumBackend::Sinr`] the CAM [`CollisionRule`] is subsumed by
    /// the interference sum and ignored.
    pub fn with_backend(model: CommunicationModel, backend: MediumBackend) -> Self {
        Medium { model, backend }
    }

    /// The model this medium implements.
    pub fn model(&self) -> CommunicationModel {
        self.model
    }

    /// The physical-layer backend this medium resolves slots under.
    pub fn backend(&self) -> MediumBackend {
        self.backend
    }

    /// The SINR parameters slots are resolved under: `Some` only for a
    /// SINR backend under CAM, since CFM ignores the physical layer. Every
    /// engine keys its SINR accounting (`sinr_rejects_by_phase`, the
    /// `sim.sinr.*` counters) off this one predicate.
    pub(crate) fn sinr_params(&self) -> Option<SinrParams> {
        match (self.model, self.backend) {
            (CommunicationModel::Cam(_), MediumBackend::Sinr(params)) => Some(params),
            _ => None,
        }
    }

    /// Resolves one slot: `transmitters` all transmit simultaneously;
    /// `on_delivery(receiver, transmitter)` fires for every clean delivery.
    /// Returns the slot's delivery/collision accounting (see [`SlotStats`]).
    ///
    /// Deliveries are reported for *all* in-range nodes, informed or not —
    /// duplicate-suppression is protocol logic, not medium logic. When a
    /// [`SlotFaults`] context is supplied, each *arbitration-clean* delivery
    /// is additionally gated by the receiver's liveness (`dead_drops`) and
    /// the independent link-loss coin (`losses`); arbitration itself is
    /// unaffected — a lost or unheard packet still occupied the channel.
    ///
    /// Ids here are external; the slot runs [`Medium::expose`] and
    /// [`Medium::classify`] over one window covering every node.
    pub fn resolve_slot(
        &self,
        topo: &Topology,
        transmitters: &[u32],
        scratch: &mut MediumScratch,
        faults: Option<&SlotFaults<'_>>,
        mut on_delivery: impl FnMut(NodeId, NodeId),
    ) -> SlotStats {
        if transmitters.is_empty() {
            return SlotStats::default();
        }
        let (rank, ext) = (topo.rank(), topo.ext());
        let mut txs = std::mem::take(&mut scratch.txs);
        txs.clear();
        txs.extend(transmitters.iter().map(|&t| rank[t as usize]));
        let sinr = self.sinr_params().is_some();
        if sinr {
            for &t in &txs {
                scratch.tx_bits.set(t as usize);
            }
        }
        let mut window = Window {
            lo: 0,
            exposure: &mut scratch.exposure,
            touched: std::mem::take(&mut scratch.touched),
            extent: None,
        };
        self.expose(topo, &txs, &mut window);
        let stats = self.classify(topo, &txs, &scratch.tx_bits, &mut window, faults, |v, t| {
            on_delivery(NodeId(ext[v as usize]), NodeId(ext[t as usize]))
        });
        scratch.touched = window.touched;
        if sinr {
            for &t in &txs {
                scratch.tx_bits.clear_bit(t as usize);
            }
        }
        scratch.txs = txs;
        nss_obs::counter!("sim.deliveries").add(stats.deliveries);
        nss_obs::counter!("sim.collisions").add(stats.collisions);
        nss_obs::counter!("sim.cs_deferrals").add(stats.cs_deferrals);
        if sinr {
            nss_obs::counter!("sim.sinr.rejects").add(stats.sinr_rejects);
            nss_obs::counter!("sim.sinr.captures").add(stats.sinr_captures);
        }
        if faults.is_some() {
            crate::faults::record_fault_obs(&stats);
        }
        stats
    }

    /// Exposure pass of one slot over one receiver window: walks every
    /// transmitter's neighbour row (and, under the Appendix A rule, its
    /// carrier-sense annulus `(r, f·r]`) and counts the exposure of the
    /// receivers `window` owns, recording them in first-touch order.
    /// Transmitters beyond reach of the window's bounding box are skipped
    /// unread. `txs` are internal ids. CFM needs no exposure, so this is a
    /// no-op there.
    pub fn expose(&self, topo: &Topology, txs: &[u32], window: &mut Window<'_>) {
        let cs_factor = match self.model {
            CommunicationModel::Cfm => return,
            CommunicationModel::Cam(CollisionRule::CarrierSense { factor })
                if !self.backend.is_sinr() =>
            {
                Some(factor)
            }
            CommunicationModel::Cam(_) => None,
        };
        let r = topo.comm_radius();
        let r2 = r * r;
        let reach = cs_factor.map_or(r, |f| f.max(1.0) * r);
        for &t in txs {
            if let Some(extent) = &window.extent {
                if !extent.near(topo.internal_position(t), reach) {
                    continue;
                }
            }
            for &v in topo.row(t) {
                if let Some(e) = window.touch(v) {
                    e.rx = e.rx.saturating_add(1);
                    e.last_tx = t;
                }
            }
            if let Some(factor) = cs_factor {
                let pos = topo.internal_position(t);
                topo.for_each_internal_within(&pos, factor * r, |v| {
                    if v != t && window.owns(v) && topo.internal_position(v).dist_sq(&pos) > r2 {
                        if let Some(e) = window.touch(v) {
                            e.cs = e.cs.saturating_add(1);
                        }
                    }
                });
            }
        }
    }

    /// Classification pass of one slot over one receiver window, after
    /// [`Medium::expose`] ran on it for the same `txs`: applies the
    /// reception rule (CFM, Assumption 6, Appendix A, or SINR) to every
    /// receiver the window owns, gates each clean reception through
    /// `faults`, and calls `on_delivery(receiver, transmitter)` (internal
    /// ids) for each delivery. Resets the window's counters as it goes.
    ///
    /// Under SINR, `tx_bits` must hold exactly the slot's transmitters
    /// (internal ids); the other rules ignore it.
    pub fn classify(
        &self,
        topo: &Topology,
        txs: &[u32],
        tx_bits: &BitSet,
        window: &mut Window<'_>,
        faults: Option<&SlotFaults<'_>>,
        mut on_delivery: impl FnMut(u32, u32),
    ) -> SlotStats {
        let ext = topo.ext();
        let mut stats = SlotStats::default();
        // Gate one arbitration-clean delivery through the fault plan, whose
        // liveness mask and link coins are keyed by external id.
        let mut deliver = |stats: &mut SlotStats, v: u32, t: u32| {
            if let Some(f) = faults {
                let ev = ext[v as usize];
                if !f.alive.get(ev as usize) {
                    stats.dead_drops += 1;
                    return;
                }
                if !f.link_delivers(ext[t as usize], ev) {
                    stats.losses += 1;
                    return;
                }
            }
            stats.deliveries += 1;
            on_delivery(v, t);
        };
        if let CommunicationModel::Cfm = self.model {
            // Reliable: every neighbour hears every transmission.
            for &t in txs {
                for &v in topo.row(t) {
                    if window.owns(v) {
                        deliver(&mut stats, v, t);
                    }
                }
            }
        } else if let Some(params) = self.sinr_params() {
            classify_sinr(topo, tx_bits, window, &params, &mut stats, deliver);
        } else {
            for i in 0..window.touched.len() {
                let v = window.touched[i];
                let Exposure { rx, cs, last_tx } = window.take(v);
                if rx == 1 && cs == 0 {
                    deliver(&mut stats, v, last_tx);
                } else if rx > 1 {
                    stats.collisions += 1;
                } else if rx == 1 {
                    stats.cs_deferrals += 1;
                }
            }
        }
        window.touched.clear();
        stats
    }
}

/// SINR classification of a window's touched receivers (nodes with ≥ 1
/// in-range transmitter — only they can possibly decode, since normalized
/// power is < 1 beyond `r` and β ≥ weakest-link power is required for the
/// model to deliver anything at unit range). Each receiver sweeps the
/// spatial grid once, accumulating the interference sum over every
/// transmitter within `κ·r` in the grid's canonical order and tracking the
/// strongest in-range candidate (ties broken toward the lower external
/// id). The candidate decodes iff `p / (noise + Σ others) ≥ β`.
fn classify_sinr(
    topo: &Topology,
    tx_bits: &BitSet,
    window: &mut Window<'_>,
    params: &SinrParams,
    stats: &mut SlotStats,
    mut deliver: impl FnMut(&mut SlotStats, u32, u32),
) {
    let ext = topo.ext();
    let r = topo.comm_radius();
    let r2 = r * r;
    // Floor d² at a tiny fraction of r² so co-located nodes don't produce
    // an infinite power (the result stays finite and deterministic).
    let d2_floor = r2 * 1e-12;
    for i in 0..window.touched.len() {
        let v = window.touched[i];
        let candidates = window.take(v).rx;
        let pos = topo.internal_position(v);
        let mut total = 0.0f64;
        let mut best_p = -1.0f64;
        let mut best = u32::MAX;
        topo.for_each_internal_within(&pos, params.interference_factor * r, |u| {
            if u == v || !tx_bits.get(u as usize) {
                return;
            }
            let d2 = topo.internal_position(u).dist_sq(&pos).max(d2_floor);
            let p = (r2 / d2).powf(params.alpha * 0.5);
            total += p;
            if d2 <= r2 && (p > best_p || (p == best_p && ext[u as usize] < ext[best as usize])) {
                best_p = p;
                best = u;
            }
        });
        if best == u32::MAX {
            continue; // touched implies an in-range candidate; defensive
        }
        let denom = params.noise + (total - best_p).max(0.0);
        // No noise and no interference: SINR is unbounded.
        let decodes = denom <= 0.0 || best_p / denom >= params.beta;
        if decodes {
            if candidates > 1 {
                stats.sinr_captures += 1;
            }
            deliver(stats, v, best);
        } else if candidates > 1 {
            stats.collisions += 1;
        } else {
            stats.sinr_rejects += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_model::deployment::DeployedNetwork;
    use nss_model::geometry::Point2;

    /// Line of nodes at unit spacing with radius 1: i—(i±1) adjacency.
    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    fn collect_deliveries(medium: &Medium, topo: &Topology, tx: &[u32]) -> Vec<(u32, u32)> {
        let mut scratch = MediumScratch::new(topo.len());
        let mut out = Vec::new();
        medium.resolve_slot(topo, tx, &mut scratch, None, |rx, t| out.push((rx.0, t.0)));
        out.sort_unstable();
        out
    }

    #[test]
    fn cfm_delivers_to_all_neighbors_despite_concurrency() {
        let topo = line(4); // 0-1-2-3
        let medium = Medium::new(CommunicationModel::Cfm);
        // 1 and 2 transmit concurrently: CFM delivers everything.
        let d = collect_deliveries(&medium, &topo, &[1, 2]);
        assert_eq!(d, vec![(0, 1), (1, 2), (2, 1), (3, 2)]);
    }

    #[test]
    fn cam_single_transmitter_reaches_neighbors() {
        let topo = line(4);
        let medium = Medium::new(CommunicationModel::CAM);
        let d = collect_deliveries(&medium, &topo, &[1]);
        assert_eq!(d, vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn cam_collision_at_common_neighbor() {
        let topo = line(4); // 0-1-2-3
        let medium = Medium::new(CommunicationModel::CAM);
        // 1 and 3 both cover node 2 → collision at 2; nodes 0 and 4... node
        // 0 hears only 1, node 2 hears both (collided).
        let d = collect_deliveries(&medium, &topo, &[1, 3]);
        assert_eq!(d, vec![(0, 1)]);
    }

    #[test]
    fn cam_all_concurrent_transmissions_collide() {
        // Assumption 6: *none* of the concurrent transmissions to a common
        // destination succeeds — not "one wins".
        let pts = vec![
            Point2::new(0.0, 0.0),  // receiver
            Point2::new(0.5, 0.0),  // tx A
            Point2::new(-0.5, 0.0), // tx B
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let medium = Medium::new(CommunicationModel::CAM);
        let d = collect_deliveries(&medium, &topo, &[1, 2]);
        // A and B hear each other cleanly (each hears exactly one tx);
        // the middle receiver hears both → nothing.
        assert_eq!(d, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn carrier_sense_blocks_annulus_interference() {
        // Receiver at 0; its neighbor tx at 0.9; interferer at 2.4 — outside
        // transmission range of the receiver but inside carrier range 2r
        // of the receiver (distance 2.4 ≤ 2? No — 2.4 > 2). Place at 1.8:
        // distance 1.8 ∈ (1, 2] → destroys reception under CS, not under TR.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.0),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let tr = Medium::new(CommunicationModel::CAM);
        let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
        // Under TR: node 0 hears only node 1 → delivery; node 2's packet to
        // node 1 collides with node 1's own tx? Node 1 is transmitting, but
        // the model doesn't forbid a transmitter from receiving — physical
        // half-duplex is a refinement the protocols enforce by ignoring
        // deliveries to transmitters.
        let d = collect_deliveries(&tr, &topo, &[1, 2]);
        assert!(d.contains(&(0, 1)), "TR should deliver 1→0: {d:?}");
        // Under CS: the interferer at 1.8 kills the delivery at 0.
        let d = collect_deliveries(&cs, &topo, &[1, 2]);
        assert!(
            !d.iter().any(|&(rx, _)| rx == 0),
            "CS must block 1→0: {d:?}"
        );
    }

    #[test]
    fn carrier_sense_equals_tr_when_no_annulus_interferers() {
        let topo = line(5);
        let tr = Medium::new(CommunicationModel::CAM);
        let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
        // Single transmitter: identical outcomes.
        assert_eq!(
            collect_deliveries(&tr, &topo, &[2]),
            collect_deliveries(&cs, &topo, &[2])
        );
    }

    #[test]
    fn carrier_sense_annulus_interferer_two_hops_away() {
        let topo = line(5); // 0-1-2-3-4, spacing 1
        let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
        // tx: 1 and 3. Node 2 hears both → collision either way. Node 0:
        // neighbor 1 transmits; node 3 is at distance 3 > 2 → clean. Node 4
        // symmetric.
        let d = collect_deliveries(&cs, &topo, &[1, 3]);
        assert_eq!(d, vec![(0, 1), (4, 3)]);
        // tx: 0 and 2. Node 1 hears both → collided. Node 3: neighbor 2
        // transmits, node 0 at distance 3 → clean. But wait: node 0 at
        // distance 2 from node 2's receiver... receiver 3: distance to tx 0
        // is 3 → outside 2r. Clean.
        let d = collect_deliveries(&cs, &topo, &[0, 2]);
        assert_eq!(
            d,
            vec![(1, 0), (3, 2)]
                .into_iter()
                .filter(|&(rx, _)| rx == 3)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_transmitter_set_is_noop() {
        let topo = line(3);
        let medium = Medium::new(CommunicationModel::CAM);
        assert!(collect_deliveries(&medium, &topo, &[]).is_empty());
    }

    fn slot_stats(medium: &Medium, topo: &Topology, tx: &[u32]) -> SlotStats {
        let mut scratch = MediumScratch::new(topo.len());
        medium.resolve_slot(topo, tx, &mut scratch, None, |_, _| {})
    }

    #[test]
    fn slot_stats_classify_outcomes() {
        let topo = line(4); // 0-1-2-3
        let cam = Medium::new(CommunicationModel::CAM);
        // 1 and 3 transmit: 0 hears 1 cleanly, 2 hears both → 1 collision.
        let s = slot_stats(&cam, &topo, &[1, 3]);
        assert_eq!(
            s,
            SlotStats {
                deliveries: 1,
                collisions: 1,
                ..SlotStats::default()
            }
        );
        // CFM never collides: 1 reaches {0, 2}, 3 reaches {2}.
        let cfm = Medium::new(CommunicationModel::Cfm);
        let s = slot_stats(&cfm, &topo, &[1, 3]);
        assert_eq!(s.deliveries, 3);
        assert_eq!(s.collisions, 0);
        // Empty slot: all zeros.
        assert_eq!(slot_stats(&cam, &topo, &[]), SlotStats::default());
    }

    #[test]
    fn slot_stats_count_cs_deferrals() {
        // Receiver 0, its tx at 0.9, and an annulus interferer at 1.8:
        // under carrier sense the single clean reception is deferred.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.0),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
        let s = slot_stats(&cs, &topo, &[1, 2]);
        assert!(s.cs_deferrals >= 1, "expected a cs deferral: {s:?}");
        let tr = Medium::new(CommunicationModel::CAM);
        assert_eq!(slot_stats(&tr, &topo, &[1, 2]).cs_deferrals, 0);
    }

    #[test]
    fn slot_stats_absorb_accumulates() {
        let mut a = SlotStats {
            deliveries: 1,
            collisions: 2,
            cs_deferrals: 3,
            losses: 4,
            dead_drops: 5,
            sinr_rejects: 6,
            sinr_captures: 7,
        };
        a.absorb(SlotStats {
            deliveries: 10,
            collisions: 20,
            cs_deferrals: 30,
            losses: 40,
            dead_drops: 50,
            sinr_rejects: 60,
            sinr_captures: 70,
        });
        assert_eq!(
            a,
            SlotStats {
                deliveries: 11,
                collisions: 22,
                cs_deferrals: 33,
                losses: 44,
                dead_drops: 55,
                sinr_rejects: 66,
                sinr_captures: 77,
            }
        );
    }

    #[test]
    fn faults_gate_clean_deliveries() {
        use crate::bits::BitSet;
        use crate::faults::SlotFaults;
        let topo = line(4); // 0-1-2-3
        let cam = Medium::new(CommunicationModel::CAM);
        let mut scratch = MediumScratch::new(topo.len());
        // Node 2 is dead: 1's transmission reaches 0 but drops at 2.
        let alive = BitSet::from_bools(&[true, true, false, true]);
        let f = SlotFaults::new(&alive, 0.0, 0, 1, 0);
        let mut out = Vec::new();
        let s = cam.resolve_slot(&topo, &[1], &mut scratch, Some(&f), |rx, t| {
            out.push((rx.0, t.0));
        });
        assert_eq!(out, vec![(0, 1)]);
        assert_eq!(s.deliveries, 1);
        assert_eq!(s.dead_drops, 1);
        assert_eq!(s.losses, 0);
        // Total link loss: every clean reception is destroyed.
        let alive = BitSet::filled(4);
        let f = SlotFaults::new(&alive, 1.0, 0, 1, 0);
        let s = cam.resolve_slot(&topo, &[1], &mut scratch, Some(&f), |_, _| {
            panic!("nothing should be delivered")
        });
        assert_eq!(s.deliveries, 0);
        assert_eq!(s.losses, 2);
        // CFM deliveries are gated by the same coins.
        let cfm = Medium::new(CommunicationModel::Cfm);
        let s = cfm.resolve_slot(&topo, &[1], &mut scratch, Some(&f), |_, _| {
            panic!("nothing should be delivered")
        });
        assert_eq!(s.losses, 2);
        // No fault context: behavior unchanged.
        let s = cam.resolve_slot(&topo, &[1], &mut scratch, None, |_, _| {});
        assert_eq!(s.deliveries, 2);
        assert_eq!(s.losses + s.dead_drops, 0);
    }

    #[test]
    fn lost_packets_still_collide() {
        use crate::bits::BitSet;
        use crate::faults::SlotFaults;
        // 1 and 3 both cover 2. Even with link_loss = 1 the collision at 2
        // is still a collision (arbitration precedes the loss coin), and 0's
        // clean reception becomes a loss, not a delivery.
        let topo = line(4);
        let cam = Medium::new(CommunicationModel::CAM);
        let mut scratch = MediumScratch::new(topo.len());
        let alive = BitSet::filled(4);
        let f = SlotFaults::new(&alive, 1.0, 0, 1, 0);
        let s = cam.resolve_slot(&topo, &[1, 3], &mut scratch, Some(&f), |_, _| {});
        assert_eq!(s.collisions, 1);
        assert_eq!(s.deliveries, 0);
        assert!(s.losses >= 1);
    }

    fn sinr(params: SinrParams) -> Medium {
        Medium::with_backend(CommunicationModel::CAM, MediumBackend::Sinr(params))
    }

    #[test]
    fn sinr_single_transmitter_matches_unit_disk() {
        // One transmitter, zero noise: denominator is 0 → unbounded SINR →
        // every neighbor decodes, exactly like the unit-disk rule.
        let topo = line(4);
        let m = sinr(SinrParams::DEFAULT);
        let d = collect_deliveries(&m, &topo, &[1]);
        assert_eq!(d, vec![(0, 1), (2, 1)]);
        let s = slot_stats(&m, &topo, &[1]);
        assert_eq!(s.sinr_rejects, 0);
        assert_eq!(s.sinr_captures, 0);
    }

    #[test]
    fn sinr_capture_effect_beats_assumption_6() {
        // Receiver 0 hears tx A (d=0.3) and tx B (d=1.0) concurrently.
        // Assumption 6 collides both; SINR decodes A: p_A ≈ 37 ≫ p_B = 1.
        let pts = vec![
            Point2::new(0.0, 0.0), // receiver
            Point2::new(0.3, 0.0), // tx A
            Point2::new(1.0, 0.0), // tx B
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let unit = Medium::new(CommunicationModel::CAM);
        let d = collect_deliveries(&unit, &topo, &[1, 2]);
        assert!(
            !d.iter().any(|&(rx, _)| rx == 0),
            "unit-disk collides: {d:?}"
        );
        let m = sinr(SinrParams::DEFAULT);
        let d = collect_deliveries(&m, &topo, &[1, 2]);
        assert!(d.contains(&(0, 1)), "SINR captures the stronger tx: {d:?}");
        let s = slot_stats(&m, &topo, &[1, 2]);
        assert_eq!(s.sinr_captures, 1);
        assert_eq!(s.collisions, 0);
    }

    #[test]
    fn sinr_out_of_range_interference_rejects_sole_candidate() {
        // Receiver 0's only in-range tx is at 0.9; an interferer at 1.8 is
        // outside the disk but inside κ·r = 3. SINR ≈ 8.0 — fine at β = 1,
        // rejected at β = 10 (where unit-disk TR would still deliver).
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.0),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let lenient = sinr(SinrParams::DEFAULT);
        let d = collect_deliveries(&lenient, &topo, &[1, 2]);
        assert!(d.contains(&(0, 1)), "β=1 decodes: {d:?}");
        let strict = sinr(SinrParams {
            beta: 10.0,
            ..SinrParams::DEFAULT
        });
        let s = slot_stats(&strict, &topo, &[1, 2]);
        assert!(s.sinr_rejects >= 1, "β=10 must reject 1→0: {s:?}");
        let d = collect_deliveries(&strict, &topo, &[1, 2]);
        assert!(!d.iter().any(|&(rx, _)| rx == 0), "no delivery at 0: {d:?}");
        // Unit-disk TR is oblivious to the annulus interferer.
        let unit = Medium::new(CommunicationModel::CAM);
        assert!(collect_deliveries(&unit, &topo, &[1, 2]).contains(&(0, 1)));
    }

    #[test]
    fn sinr_noise_floor_shrinks_effective_range() {
        // Neighbors in line(4) sit at exactly d = r, so p = 1. With noise 4
        // and β = 1 the edge of the disk no longer decodes.
        let topo = line(4);
        let noisy = sinr(SinrParams {
            noise: 4.0,
            ..SinrParams::DEFAULT
        });
        let s = slot_stats(&noisy, &topo, &[1]);
        assert_eq!(s.deliveries, 0);
        assert_eq!(s.sinr_rejects, 2);
        // A gentle noise floor (SINR = 1/0.5 = 2 ≥ β = 1) still decodes.
        let mild = sinr(SinrParams {
            noise: 0.5,
            ..SinrParams::DEFAULT
        });
        assert_eq!(slot_stats(&mild, &topo, &[1]).deliveries, 2);
    }

    #[test]
    fn sinr_deliveries_gated_by_faults() {
        use crate::bits::BitSet;
        use crate::faults::SlotFaults;
        let topo = line(4);
        let m = sinr(SinrParams::DEFAULT);
        let mut scratch = MediumScratch::new(topo.len());
        // Node 2 can't hear (dead or transmit-only): 1→2 becomes dead_drop.
        let hearing = BitSet::from_bools(&[true, true, false, true]);
        let f = SlotFaults::new(&hearing, 0.0, 0, 1, 0);
        let mut out = Vec::new();
        let s = m.resolve_slot(&topo, &[1], &mut scratch, Some(&f), |rx, t| {
            out.push((rx.0, t.0));
        });
        assert_eq!(out, vec![(0, 1)]);
        assert_eq!(s.deliveries, 1);
        assert_eq!(s.dead_drops, 1);
    }

    #[test]
    fn sinr_scratch_reuse_is_clean() {
        // tx_bits must be fully cleared between slots, or stale transmitter
        // marks would poison later interference sums.
        let topo = line(5);
        let m = sinr(SinrParams::DEFAULT);
        let mut scratch = MediumScratch::new(topo.len());
        let first = m.resolve_slot(&topo, &[2], &mut scratch, None, |_, _| {});
        for _ in 0..3 {
            let again = m.resolve_slot(&topo, &[2], &mut scratch, None, |_, _| {});
            assert_eq!(again, first);
        }
        // Alternate transmitter sets through the same scratch.
        let a = m.resolve_slot(&topo, &[0, 4], &mut scratch, None, |_, _| {});
        let b = m.resolve_slot(&topo, &[0, 4], &mut scratch, None, |_, _| {});
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_across_slots() {
        let topo = line(4);
        let medium = Medium::new(CommunicationModel::CAM);
        let mut scratch = MediumScratch::new(topo.len());
        for _ in 0..3 {
            let mut out = Vec::new();
            medium.resolve_slot(&topo, &[1], &mut scratch, None, |rx, t| {
                out.push((rx.0, t.0))
            });
            out.sort_unstable();
            assert_eq!(out, vec![(0, 1), (2, 1)]);
        }
    }
}
