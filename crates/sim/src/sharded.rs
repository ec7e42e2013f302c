//! Intra-replication parallel execution of phase-structured gossip.
//!
//! [`crate::slotted`] runs one replication on one thread; at 10⁶ nodes a
//! single broadcast wave touches hundreds of megabytes of adjacency and the
//! per-phase work dwarfs what replication-level parallelism can amortize.
//! This module shards the work *inside* a phase across threads while
//! keeping the result bitwise-identical for every thread count:
//!
//! 1. **Stateless randomness.** The sequential executor draws coins from
//!    one `SmallRng` whose consumption order bakes the thread schedule into
//!    the trace. Here every random decision — rebroadcast coin and slot
//!    jitter — is a pure hash of `(seed, phase, node)` (the same
//!    counter-based discipline [`crate::faults`] uses for link-loss coins),
//!    so any shard layout computes identical decisions.
//! 2. **Disjoint receiver windows.** Slot arbitration is the one kernel in
//!    [`crate::medium`]: the receivers are cut into contiguous windows of
//!    internal ids (`i·n/k..(i+1)·n/k`, two per worker when there is more
//!    than one), and the workers take windows one at a time until none is
//!    left. A window's resolution reads the row of every transmitter within
//!    reach of its receivers' bounding box, and counts and classifies only
//!    its own receivers through [`Medium::expose`] and [`Medium::classify`].
//!    No receiver has two writers, so the counters are plain integers and
//!    no atomic or election is needed.
//! 3. **Canonical merges.** Per-worker partial outputs (newly informed
//!    nodes, slot statistics) are merged in shard order and sorted where
//!    order is observable, collapsing every schedule to one trace.
//!
//! The engine works in the topology's *internal* (grid-cell order) id
//! space, so a slot's neighbour walks and per-receiver scratch writes stay
//! cache-local. It translates to the external id (sampling order) exactly
//! where an id is observable: the coin and slot hashes, every fault-state
//! call, the SINR equal-power tie-break, and `first_rx_phase`; the slot
//! fault gates and the tie-break live in [`Medium::classify`]. Traces are
//! therefore those of an engine running on external ids.
//!
//! The engine intentionally reuses the sequential executor's *semantics*
//! (Assumption 6 arbitration, fault gating order, phase/slot structure) but
//! not its RNG stream: the sequential and sharded engines produce
//! different — individually reproducible — traces. Under CFM with `p = 1`
//! the randomness is immaterial and the two engines agree exactly, which
//! the tests pin down.

use crate::bits::BitSet;
use crate::faults::FaultState;
use crate::medium::{Medium, MediumScratch, SlotStats};
use crate::slotted::GossipConfig;
use crate::trace::SimTrace;
use nss_model::comm::CommunicationModel;
use nss_model::error::ConfigError;
use nss_model::faults::{hash_unit, FaultPlan};
use nss_model::ids::NodeId;
use nss_model::rng::splitmix64;
use nss_model::topology::Topology;
use std::sync::{Mutex, PoisonError};

/// Salt separating the rebroadcast-coin stream from everything else.
const COIN_SALT: u64 = 0x8E44_55B6_ACD3_F1A9;
/// Salt separating the slot-jitter stream from the coin stream.
const SLOT_SALT: u64 = 0x5851_F42D_4C95_7F2D;
/// Receiver windows per worker of a multi-threaded run. More windows even
/// out the load; each costs a second read of the rows along its edges.
const WINDOWS_PER_WORKER: usize = 2;

/// Whitened per-phase key for one of the stateless decision streams.
fn phase_mix(seed: u64, phase: u32, salt: u64) -> u64 {
    let mut s = seed ^ u64::from(phase).wrapping_mul(salt);
    splitmix64(&mut s)
}

/// Checks the config features the sharded engine deliberately omits.
///
/// `track_success_rate` and the legacy `node_failure_per_phase` injection
/// both consume the sequential RNG stream in data-dependent order; porting
/// them would either break thread-count invariance or silently change
/// their meaning. Use the sequential engine (`Executor::sequential`) for
/// those studies.
pub fn validate_sharded(cfg: &GossipConfig) -> Result<(), ConfigError> {
    cfg.validate()?;
    if cfg.track_success_rate {
        return Err(ConfigError::Inconsistent {
            what: "track_success_rate requires the sequential engine (Executor::sequential)",
            at: None,
        });
    }
    if cfg.node_failure_per_phase > 0.0 {
        return Err(ConfigError::Inconsistent {
            what: "node_failure_per_phase requires the sequential engine (Executor::sequential)",
            at: None,
        });
    }
    Ok(())
}

/// Resolves a thread-count request against the available work.
fn resolve_workers(threads: usize, work: usize) -> usize {
    let t = match threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    };
    t.min(work.max(1))
}

/// Runs `f` on each of `parts` over `workers` threads (the calling thread
/// is one of them) and returns the per-part results **in part order**, so
/// downstream merges see the same partial sequence under any actual
/// parallelism. Each thread takes the next unclaimed part until none is
/// left, so a thread the host slows down hands its share to the others
/// instead of holding every other thread at the join.
///
/// `stage` labels this fan-out in the telemetry plane (no-op unless the
/// `obs` feature is live): one flight-recorder event spanning the call,
/// each thread's busy time into the `<stage>.shard.seconds` histogram, and
/// the max/mean busy-time ratio into the `<stage>.imbalance` gauge.
fn map_parts<P, T, F>(stage: &'static str, workers: usize, parts: Vec<P>, f: F) -> Vec<T>
where
    P: Send,
    T: Send,
    F: Fn(P) -> T + Sync,
{
    if parts.is_empty() {
        return Vec::new();
    }
    let start_ns = if nss_obs::enabled() {
        nss_obs::trace::now_ns()
    } else {
        0
    };
    let count = parts.len();
    let queue = Mutex::new(parts.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        let mut busy_ns = 0u64;
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, part)) = next else { break };
            let (out, ns) = timed_part(part, &f);
            busy_ns += ns;
            done.push((i, out));
        }
        (done, busy_ns)
    };
    let per_thread: Vec<(Vec<(usize, T)>, u64)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (1..workers.min(count)).map(|_| sc.spawn(work)).collect();
        let own = work();
        std::iter::once(own)
            .chain(handles.into_iter().map(|h| {
                // nss-lint: allow(panic-hygiene) — a panicking worker already poisoned the replication; propagating the panic is the only sound option
                h.join().expect("sharded worker panicked")
            }))
            .collect()
    });
    if nss_obs::enabled() {
        let busy: Vec<u64> = per_thread.iter().map(|&(_, ns)| ns).collect();
        record_stage(stage, start_ns, &busy);
    }
    let mut outs: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, out) in per_thread.into_iter().flat_map(|(done, _)| done) {
        outs[i] = Some(out);
    }
    // Every part was taken exactly once, so every entry is filled.
    outs.into_iter().flatten().collect()
}

/// Runs `f` on one part; with live instrumentation also measures the
/// part's wall time in nanoseconds (0 otherwise — the timing calls
/// const-fold away in disabled builds).
#[inline]
fn timed_part<P, T>(part: P, f: &(impl Fn(P) -> T + Sync)) -> (T, u64) {
    if !nss_obs::enabled() {
        return (f(part), 0);
    }
    let start = nss_obs::trace::now_ns();
    let out = f(part);
    (out, nss_obs::trace::now_ns().saturating_sub(start))
}

/// Publishes one sharded stage to the telemetry plane. Runs on the
/// coordinating replication thread *after* the workers have joined, so the
/// flight recorder sees one ring per replication — never one per
/// short-lived scoped worker — and the workers themselves stay
/// instrumentation-free. `busy_ns` holds each thread's busy time.
fn record_stage(stage: &'static str, start_ns: u64, busy_ns: &[u64]) {
    if busy_ns.is_empty() {
        return;
    }
    let end_ns = nss_obs::trace::now_ns();
    nss_obs::trace::record(
        nss_obs::trace::intern(stage),
        start_ns,
        end_ns.saturating_sub(start_ns),
    );
    let reg = nss_obs::registry::Registry::global();
    let shard_hist = reg.histogram(&format!("{stage}.shard.seconds"));
    let mut max_ns = 0u64;
    let mut sum_ns = 0u64;
    for &dur_ns in busy_ns {
        shard_hist.record(dur_ns as f64 * 1e-9);
        max_ns = max_ns.max(dur_ns);
        sum_ns += dur_ns;
    }
    let mean_ns = sum_ns as f64 / busy_ns.len() as f64;
    if mean_ns > 0.0 {
        // 1.0 = perfectly balanced shards; the slowest-shard multiple of
        // the mean is the wall-clock cost of the imbalance.
        reg.gauge(&format!("{stage}.imbalance"))
            .set(max_ns as f64 / mean_ns);
    }
}

/// Core sharded gossip loop; `threads = 0` uses all available cores,
/// `threads = 1` runs the identical algorithm sequentially. The returned
/// trace is bitwise-identical for every `threads` value. Public entry is
/// `Executor::sharded(threads)`.
pub(crate) fn run_sharded_with(
    topo: &Topology,
    cfg: &GossipConfig,
    seed: u64,
    faults: Option<(&FaultPlan, u64)>,
    threads: usize,
) -> SimTrace {
    validate_sharded(cfg)
        .unwrap_or_else(|e| panic!("invalid GossipConfig for sharded engine: {e}")); // nss-lint: allow(panic-hygiene) — documented contract: entry points panic on invalid configs; `validate_sharded()` is the fallible path
    let n = topo.len();
    let mut trace = SimTrace::new(n);
    if n == 0 {
        return trace;
    }
    let workers = resolve_workers(threads, n);
    let s = cfg.s as usize;
    let medium = Medium::with_backend(cfg.model, cfg.backend);
    let sinr = medium.sinr_params().is_some();
    let cfm = matches!(cfg.model, CommunicationModel::Cfm);

    // Ids below are internal; `ext` maps them to external ids wherever
    // one is observable.
    let ext = topo.ext();
    let source = topo.rank()[NodeId::SOURCE.index()];
    let mut fault_state = faults.map(|(plan, fseed)| FaultState::new(plan, fseed, n));
    let mut informed = BitSet::new(n);
    informed.set(source as usize);
    let mut pending: Vec<u32> = vec![source];

    // Arbitration scratch, split into receiver windows: several per worker
    // when there is more than one, so the workers can even out their load.
    // The transmitter bitset (SINR interference sweeps) is built and
    // cleared by the coordinator between slots.
    let mut scratch = MediumScratch::new(n);
    let scratch_bytes = scratch.bytes();
    let parts = if workers == 1 {
        1
    } else {
        (workers * WINDOWS_PER_WORKER).min(n)
    };
    let bounds: Vec<u32> = (0..=parts).map(|i| (i * n / parts) as u32).collect();
    let (mut windows, tx_bits) = scratch.windows(topo, &bounds);

    // Memory-footprint gauges: protocol bitsets vs. arbitration scratch,
    // so a scrape of a live million-node run shows where the resident
    // bytes are.
    nss_obs::gauge!("sim.bitset.bytes").set(informed.bytes() as f64);
    nss_obs::gauge!("sim.scratch.bytes").set(scratch_bytes as f64);

    for phase in 1..=cfg.max_phases as u32 {
        // Per-phase wall-clock histogram (`sim.phase.seconds`), surfaced in
        // OBS_METRICS.json and the bench_sim report, plus a flight-recorder
        // event per phase (this loop runs ~10² times per replication — a
        // mutex-sinked `span!` here would thrash; see the obs-hygiene lint).
        let _phase_span = nss_obs::trace_span!("sim.phase");
        if let Some(fs) = fault_state.as_mut() {
            fs.begin_phase(phase);
        }

        // Transmitter selection: stateless coins, sharded over `pending`.
        let mut slots: Vec<Vec<u32>> = vec![Vec::new(); s];
        if phase == 1 {
            // The source's initial broadcast: unconditional, uncontended.
            slots[0].push(source);
        } else {
            let coin_mix = phase_mix(seed, phase, COIN_SALT);
            let slot_mix = phase_mix(seed, phase, SLOT_SALT);
            let fs = fault_state.as_ref();
            let chunks = pending.chunks(pending.len().div_ceil(workers)).collect();
            let partials = map_parts("sim.txsel", workers, chunks, |chunk: &[u32]| {
                let mut local: Vec<Vec<u32>> = vec![Vec::new(); s];
                for &u in chunk {
                    let e = ext[u as usize];
                    if let Some(fs) = fs {
                        if !fs.is_alive(e as usize) {
                            continue; // down this phase: forfeits the rebroadcast
                        }
                    }
                    if cfg.prob >= 1.0 || hash_unit(coin_mix, u64::from(e)) < cfg.prob {
                        let sl =
                            ((hash_unit(slot_mix, u64::from(e)) * s as f64) as usize).min(s - 1);
                        local[sl].push(u);
                    }
                }
                local
            });
            for local in partials {
                for (sl, mut part) in local.into_iter().enumerate() {
                    slots[sl].append(&mut part);
                }
            }
        }
        let tx_count: u32 = slots.iter().map(|sl| sl.len() as u32).sum();
        if let Some(fs) = fault_state.as_mut() {
            for sl in &slots {
                for &u in sl {
                    fs.note_broadcast(ext[u as usize]);
                }
            }
        }
        trace.broadcasts_by_phase.push(tx_count);
        nss_obs::counter!("sim.broadcasts").add(u64::from(tx_count));

        // Slot resolution: slots are sequential; the work inside each is
        // sharded over the receiver windows, exposure then classification.
        let mut phase_stats = SlotStats::default();
        let mut phase_newly: Vec<u32> = Vec::new();
        for (si, txs) in slots.iter().enumerate() {
            if txs.is_empty() {
                continue;
            }
            let sf = fault_state.as_ref().map(|fs| fs.slot(phase, si as u32));
            if sinr {
                for &t in txs {
                    tx_bits.set(t as usize);
                }
            }
            if !cfm {
                map_parts(
                    "sim.slot.expose",
                    workers,
                    windows.iter_mut().collect(),
                    |w| medium.expose(topo, txs, w),
                );
            }
            let partials = map_parts(
                "sim.slot.classify",
                workers,
                windows.iter_mut().collect(),
                |w| {
                    let mut newly: Vec<u32> = Vec::new();
                    let stats = medium.classify(topo, txs, &*tx_bits, w, sf.as_ref(), |v, _| {
                        if !informed.get(v as usize) {
                            newly.push(v);
                        }
                    });
                    (stats, newly)
                },
            );
            if sinr {
                for &t in txs {
                    tx_bits.clear_bit(t as usize);
                }
            }
            let mut newly: Vec<u32> = Vec::new();
            for (stats, mut part) in partials {
                phase_stats.absorb(stats);
                newly.append(&mut part);
            }
            // Canonical order: ascending within the slot. Receivers informed
            // here are visible as duplicates to later slots of this phase.
            newly.sort_unstable();
            newly.dedup();
            for &v in &newly {
                informed.set(v as usize);
                trace.first_rx_phase[ext[v as usize] as usize] = phase;
            }
            phase_newly.append(&mut newly);
        }

        trace.deliveries_by_phase.push(phase_stats.deliveries);
        trace.collisions_by_phase.push(phase_stats.collisions);
        trace.cs_deferrals_by_phase.push(phase_stats.cs_deferrals);
        nss_obs::counter!("sim.deliveries").add(phase_stats.deliveries);
        nss_obs::counter!("sim.collisions").add(phase_stats.collisions);
        nss_obs::counter!("sim.cs_deferrals").add(phase_stats.cs_deferrals);
        if sinr {
            trace.sinr_rejects_by_phase.push(phase_stats.sinr_rejects);
            nss_obs::counter!("sim.sinr.rejects").add(phase_stats.sinr_rejects);
            nss_obs::counter!("sim.sinr.captures").add(phase_stats.sinr_captures);
        }
        if let Some(fs) = fault_state.as_ref() {
            trace.losses_by_phase.push(phase_stats.losses);
            trace.dead_drops_by_phase.push(phase_stats.dead_drops);
            trace.alive_by_phase.push(fs.alive_count());
            crate::faults::record_fault_obs(&phase_stats);
        }

        pending = phase_newly;
        if pending.is_empty() {
            break;
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use nss_model::comm::{MediumBackend, SinrParams};
    use nss_model::deployment::{DeployedNetwork, Deployment};
    use nss_model::geometry::Point2;

    // The former free-function entry points, reconstructed on top of the
    // `Executor` builder: every trace below exercises the public API.
    // `sharded(threads)` keeps the shim's `0 = all cores` semantics.
    fn run_gossip(topo: &Topology, cfg: &GossipConfig, seed: u64) -> SimTrace {
        Executor::new(topo).gossip(*cfg).run(seed)
    }

    fn run_gossip_sharded(
        topo: &Topology,
        cfg: &GossipConfig,
        seed: u64,
        threads: usize,
    ) -> SimTrace {
        Executor::new(topo).gossip(*cfg).sharded(threads).run(seed)
    }

    fn run_gossip_sharded_faulty(
        topo: &Topology,
        cfg: &GossipConfig,
        plan: &FaultPlan,
        seed: u64,
        faults_seed: u64,
        threads: usize,
    ) -> SimTrace {
        Executor::new(topo)
            .gossip(*cfg)
            .faults(plan.clone())
            .faults_seed(faults_seed)
            .sharded(threads)
            .run(seed)
    }

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    fn assert_traces_equal(a: &SimTrace, b: &SimTrace) {
        assert_eq!(a.first_rx_phase, b.first_rx_phase);
        assert_eq!(a.broadcasts_by_phase, b.broadcasts_by_phase);
        assert_eq!(a.deliveries_by_phase, b.deliveries_by_phase);
        assert_eq!(a.collisions_by_phase, b.collisions_by_phase);
        assert_eq!(a.cs_deferrals_by_phase, b.cs_deferrals_by_phase);
        assert_eq!(a.losses_by_phase, b.losses_by_phase);
        assert_eq!(a.dead_drops_by_phase, b.dead_drops_by_phase);
        assert_eq!(a.alive_by_phase, b.alive_by_phase);
    }

    #[test]
    fn thread_count_invariant_fault_free() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 60.0).sample(11));
        let cfg = GossipConfig::pb_cam(0.5);
        let base = run_gossip_sharded(&topo, &cfg, 42, 1);
        for threads in [2, 3, 4, 7] {
            let t = run_gossip_sharded(&topo, &cfg, 42, threads);
            assert_traces_equal(&base, &t);
        }
        // threads = 0 (auto) must also agree.
        assert_traces_equal(&base, &run_gossip_sharded(&topo, &cfg, 42, 0));
    }

    #[test]
    fn thread_count_invariant_carrier_sense() {
        use nss_model::comm::CollisionRule;
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(4));
        let mut cfg = GossipConfig::pb_cam(0.7);
        cfg.model = CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R);
        let base = run_gossip_sharded(&topo, &cfg, 9, 1);
        for threads in [2, 4] {
            assert_traces_equal(&base, &run_gossip_sharded(&topo, &cfg, 9, threads));
        }
        assert!(base.informed_count() > 1);
    }

    #[test]
    fn thread_count_invariant_under_faults() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(6));
        let cfg = GossipConfig::pb_cam(0.6);
        let mut plan = FaultPlan::lossy(0.3);
        plan.dead_frac = 0.2;
        let base = run_gossip_sharded_faulty(&topo, &cfg, &plan, 7, 70, 1);
        for threads in [2, 4] {
            let t = run_gossip_sharded_faulty(&topo, &cfg, &plan, 7, 70, threads);
            assert_traces_equal(&base, &t);
        }
        assert!(base.total_losses() > 0, "loss plan should drop packets");
        assert!(!base.alive_by_phase.is_empty());
    }

    #[test]
    fn empty_plan_matches_fault_free_path() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(3));
        let cfg = GossipConfig::pb_cam(0.5);
        let plain = run_gossip_sharded(&topo, &cfg, 5, 4);
        let faulted = run_gossip_sharded_faulty(&topo, &cfg, &FaultPlan::none(), 5, 99, 4);
        assert_traces_equal(&plain, &faulted);
        assert!(faulted.losses_by_phase.is_empty());
    }

    #[test]
    fn cfm_flooding_matches_sequential_engine() {
        // Under CFM with p = 1 no random decision affects the outcome:
        // information spreads in exact BFS layers, so the sharded engine
        // (hash coins) and the sequential engine (SmallRng) must agree on
        // every per-phase series despite their different RNG disciplines.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 45.0).sample(8));
        let cfg = GossipConfig {
            model: CommunicationModel::Cfm,
            ..GossipConfig::flooding_cam()
        };
        let seq = run_gossip(&topo, &cfg, 3);
        let shard = run_gossip_sharded(&topo, &cfg, 3, 4);
        assert_eq!(seq.first_rx_phase, shard.first_rx_phase);
        assert_eq!(seq.broadcasts_by_phase, shard.broadcasts_by_phase);
        assert_eq!(seq.deliveries_by_phase, shard.deliveries_by_phase);
        // And the informed set is the source's connected component.
        let expect = topo.reachable_fraction(NodeId::SOURCE);
        assert!((shard.final_reachability() - expect).abs() < 1e-12);
    }

    #[test]
    fn cfm_ignores_the_sinr_backend_in_both_engines() {
        // CFM is reliable by assumption and ignores the physical layer:
        // under a SINR backend neither engine may record the SINR series,
        // and with p = 1 both still match the plain CFM flood.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 45.0).sample(8));
        let cfm = GossipConfig {
            model: CommunicationModel::Cfm,
            ..GossipConfig::flooding_cam()
        };
        let sinr = cfm.with_backend(MediumBackend::Sinr(SinrParams::DEFAULT));
        let plain = run_gossip(&topo, &cfm, 3);
        let seq = run_gossip(&topo, &sinr, 3);
        let shard = run_gossip_sharded(&topo, &sinr, 3, 4);
        for t in [&seq, &shard] {
            assert!(t.sinr_rejects_by_phase.is_empty());
            assert_traces_equal(t, &plain);
        }
    }

    #[test]
    fn cam_collision_star_matches_semantics() {
        // Same construction as slotted's collision test: with s = 1 both
        // relays transmit in the only slot, so the far node must collide.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.6),
            Point2::new(0.9, -0.6),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.2));
        let mut cfg = GossipConfig::flooding_cam();
        cfg.s = 1;
        let t = run_gossip_sharded(&topo, &cfg, 0, 4);
        assert_eq!(t.informed_count(), 3);
        assert_eq!(t.first_rx_phase[3], crate::trace::NEVER);
        // Both the far node and the (already-informed) source hear the two
        // overlapping relays → two collided receivers.
        assert_eq!(t.collisions_by_phase[1], 2);
    }

    #[test]
    fn trace_series_valid_and_bounded() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 40.0).sample(2));
        for seed in 0..5 {
            let t = run_gossip_sharded(&topo, &GossipConfig::pb_cam(0.4), seed, 3);
            t.phase_series().validate().expect("invalid phase series");
            assert!(t.total_broadcasts() <= t.informed_count() as u64);
        }
    }

    #[test]
    fn zero_probability_stops_after_source() {
        let topo = line(5);
        let t = run_gossip_sharded(&topo, &GossipConfig::pb_cam(0.0), 3, 2);
        assert_eq!(t.informed_count(), 2);
        assert_eq!(t.total_broadcasts(), 1);
    }

    #[test]
    fn singleton_network() {
        let topo = line(1);
        let t = run_gossip_sharded(&topo, &GossipConfig::flooding_cam(), 0, 4);
        assert_eq!(t.informed_count(), 1);
        assert_eq!(t.total_broadcasts(), 1);
    }

    #[test]
    fn probability_thins_broadcasts() {
        // Statistical sanity for the stateless coin: p = 0.3 should yield
        // clearly fewer broadcasts than flooding on a dense field.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 70.0).sample(13));
        let mut flood = 0u64;
        let mut thin = 0u64;
        for seed in 0..5 {
            flood += run_gossip_sharded(&topo, &GossipConfig::flooding_cam(), seed, 2)
                .total_broadcasts();
            thin +=
                run_gossip_sharded(&topo, &GossipConfig::pb_cam(0.3), seed, 2).total_broadcasts();
        }
        assert!(
            thin * 2 < flood,
            "p=0.3 should cut broadcasts well below flooding: {thin} vs {flood}"
        );
    }

    #[test]
    fn validate_sharded_rejects_sequential_only_features() {
        let mut cfg = GossipConfig::pb_cam(0.5);
        cfg.track_success_rate = true;
        assert!(matches!(
            validate_sharded(&cfg),
            Err(ConfigError::Inconsistent { .. })
        ));
        let mut cfg = GossipConfig::pb_cam(0.5);
        cfg.node_failure_per_phase = 0.1;
        assert!(matches!(
            validate_sharded(&cfg),
            Err(ConfigError::Inconsistent { .. })
        ));
        assert!(validate_sharded(&GossipConfig::pb_cam(0.5)).is_ok());
    }

    #[test]
    #[should_panic(expected = "sharded engine")]
    fn sequential_only_config_panics_at_entry() {
        let topo = line(3);
        let mut cfg = GossipConfig::pb_cam(0.5);
        cfg.track_success_rate = true;
        let _ = run_gossip_sharded(&topo, &cfg, 0, 2);
    }

    /// With live instrumentation, a sharded run must leave a coherent
    /// telemetry footprint: per-stage shard timings, imbalance and memory
    /// gauges, and flight-recorder events.
    #[cfg(feature = "obs")]
    #[test]
    fn telemetry_footprint_is_coherent() {
        let reg = nss_obs::registry::Registry::global();
        let before = reg.snapshot();
        let topo = Topology::build(&Deployment::disk(5, 1.0, 60.0).sample(21));
        let _ = run_gossip_sharded(&topo, &GossipConfig::flooding_cam(), 17, 4);
        let delta = reg.snapshot().delta_since(&before);
        let hist = |name: &str| {
            delta
                .histograms
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, h)| h.count)
        };
        assert!(hist("sim.phase.seconds") > 0, "phase spans missing");
        assert!(
            hist("sim.slot.expose.shard.seconds") > 0,
            "shard timings missing"
        );
        for g in ["sim.bitset.bytes", "sim.slot.expose.imbalance"] {
            assert!(
                delta.gauges.iter().any(|(k, v)| k == g && *v > 0.0),
                "gauge {g} missing or zero"
            );
        }
        let (events, _) = nss_obs::trace::events();
        assert!(
            events
                .iter()
                .any(|e| nss_obs::trace::name_of(e.name_id) == "sim.phase"),
            "flight recorder saw no sim.phase events"
        );
    }

    #[test]
    fn thread_count_invariant_under_sinr() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 60.0).sample(11));
        let cfg = GossipConfig::pb_cam(0.5).with_backend(MediumBackend::Sinr(SinrParams {
            alpha: 3.0,
            beta: 0.5,
            noise: 0.05,
            interference_factor: 3.0,
        }));
        let base = run_gossip_sharded(&topo, &cfg, 42, 1);
        assert_eq!(base.sinr_rejects_by_phase.len(), base.phases());
        for threads in [2, 3, 4, 7] {
            let t = run_gossip_sharded(&topo, &cfg, 42, threads);
            assert_traces_equal(&base, &t);
            assert_eq!(base.sinr_rejects_by_phase, t.sinr_rejects_by_phase);
        }
        assert_traces_equal(&base, &run_gossip_sharded(&topo, &cfg, 42, 0));
    }

    #[test]
    fn sinr_flooding_single_slot_matches_sequential_engine() {
        // With s = 1 and p = 1 neither engine draws a consequential coin:
        // every informed node transmits in the only slot, and the SINR
        // interference sum is accumulated in the grid's canonical order by
        // both resolvers — the traces must agree exactly.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(8));
        let mut cfg =
            GossipConfig::flooding_cam().with_backend(MediumBackend::Sinr(SinrParams::DEFAULT));
        cfg.s = 1;
        let seq = run_gossip(&topo, &cfg, 3);
        for threads in [1, 4] {
            let shard = run_gossip_sharded(&topo, &cfg, 3, threads);
            assert_eq!(seq.first_rx_phase, shard.first_rx_phase);
            assert_eq!(seq.broadcasts_by_phase, shard.broadcasts_by_phase);
            assert_eq!(seq.deliveries_by_phase, shard.deliveries_by_phase);
            assert_eq!(seq.collisions_by_phase, shard.collisions_by_phase);
            assert_eq!(seq.sinr_rejects_by_phase, shard.sinr_rejects_by_phase);
        }
    }

    #[test]
    fn sinr_with_capability_classes_is_thread_invariant() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(6));
        let cfg = GossipConfig::pb_cam(0.6).with_backend(MediumBackend::Sinr(SinrParams::DEFAULT));
        let plan = FaultPlan {
            dead_frac: 0.1,
            tx_only_frac: 0.2,
            link_loss: 0.1,
            ..FaultPlan::default()
        };
        let base = run_gossip_sharded_faulty(&topo, &cfg, &plan, 7, 70, 1);
        for threads in [2, 4] {
            let t = run_gossip_sharded_faulty(&topo, &cfg, &plan, 7, 70, threads);
            assert_traces_equal(&base, &t);
        }
        // Tx-only receivers drop packets without dying.
        assert!(base.total_dead_drops() > 0);
        assert_eq!(base.alive_by_phase[0], {
            let dead = (0..topo.len() as u32)
                .filter(|&u| !plan.survives_thinning(u, 70))
                .count() as u32;
            topo.len() as u32 - dead
        });
    }

    #[test]
    fn faulty_runs_deterministic_per_seed_pair() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 45.0).sample(5));
        let cfg = GossipConfig::pb_cam(0.5);
        let plan = FaultPlan::lossy(0.4);
        let a = run_gossip_sharded_faulty(&topo, &cfg, &plan, 2, 20, 3);
        let b = run_gossip_sharded_faulty(&topo, &cfg, &plan, 2, 20, 3);
        assert_traces_equal(&a, &b);
        // Protocol stream unaffected by the faults seed: phase-1 broadcast
        // schedule (just the source) is identical.
        let c = run_gossip_sharded_faulty(&topo, &cfg, &plan, 2, 21, 3);
        assert_eq!(a.broadcasts_by_phase[0], c.broadcasts_by_phase[0]);
    }
}
