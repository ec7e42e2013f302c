//! `flood-1m`: one ρ = 140, P = 85 disk field (≈1.01M nodes), CSR-built,
//! then CAM flooding on the sharded engine.
//!
//! The adjacency (≈568 MB) is several times the last-level cache, so
//! `model.topology` and `sim.sharded` do nearly all the work. Set-up is
//! `Deployment::sample` + `Topology::try_build_with_threads`; the measured
//! operation is one full flood; `throughput_per_s` counts node-phases.

use crate::obsview::Window;
use crate::report::{median, quantile, tail_q, Outcome};
use crate::spans::{self, SpanLog, BENCH};
use crate::RunArgs;
use nss_model::deployment::Deployment;
use nss_model::ids::NodeId;
use nss_model::rng::derive_seed;
use nss_model::topology::Topology;
use nss_sim::executor::Executor;
use nss_sim::slotted::GossipConfig;
use nss_sim::trace::SimTrace;
use std::time::Instant;

pub const P_FACTOR: u32 = 85;
pub const RHO: f64 = 140.0;
pub const THREADS: usize = 2;
/// CAM flooding at ρ = 140 informs nearly every node of the source's
/// component; a run below this share of the field is wrong.
pub const REACH_FLOOR: f64 = 0.95;

pub fn deployment_seed(seed: u64) -> u64 {
    derive_seed(seed, "flood-1m.deployment", 0)
}

pub fn protocol_seed(seed: u64, flood: u64) -> u64 {
    derive_seed(seed, "flood-1m.protocol", flood)
}

/// Checks one flood against the source's component size and, in an
/// instrumented build, against the engine's own counters.
pub fn flood_ok(trace: &SimTrace, component: usize, counters: Option<[u64; 3]>) -> bool {
    let totals = [
        trace.total_broadcasts(),
        trace.total_deliveries(),
        trace.total_collisions(),
    ];
    trace.informed_count() <= component
        && trace.final_reachability() >= REACH_FLOOR
        && trace.phases() >= 2
        && trace.first_rx_phase.len() == trace.n_total
        && counters.is_none_or(|c| c == totals)
}

pub fn run(args: &RunArgs, log: &mut SpanLog) -> Outcome {
    let mut o = Outcome::default();
    log.span(BENCH, "flood-1m", |log| body(args, log, &mut o));
    o.layers
        .set("unattributed_frac", spans::unattributed_frac(&log.spans));
    o
}

/// Flood measurements accumulated over the set-up blocks of a run.
#[derive(Default)]
struct Floods {
    secs: Vec<f64>,
    rates: Vec<f64>,
    txsel: f64,
    expose: f64,
    classify: f64,
    expose_busy: f64,
    won: u64,
    contended: u64,
}

impl Floods {
    /// Runs floods on `topo`, checking each: at least one, then more while
    /// another would end nearer to `budget` seconds than stopping does.
    fn measure(
        &mut self,
        topo: &Topology,
        component: usize,
        seed: u64,
        budget: f64,
        log: &mut SpanLog,
        o: &mut Outcome,
    ) {
        let (mut spent, mut last) = (0.0, 0.0);
        while spent == 0.0 || spent + last / 2.0 < budget {
            let i = self.secs.len() as u64;
            let window = Window::open();
            let t0 = Instant::now();
            let trace = log.span("sim.sharded", "Executor::sharded.run", |_| {
                Executor::new(topo)
                    .gossip(GossipConfig::flooding_cam())
                    .sharded(THREADS)
                    .run(protocol_seed(seed, i))
            });
            let secs = t0.elapsed().as_secs_f64();
            let stats = window.close();
            (spent, last) = (spent + secs, secs);
            self.secs.push(secs);
            self.rates.push((topo.len() * trace.phases()) as f64 / secs);
            let counters = nss_obs::enabled().then(|| {
                ["sim.broadcasts", "sim.deliveries", "sim.collisions"].map(|c| stats.counter(c))
            });
            o.check(log.span(BENCH, "check.flood", |_| {
                flood_ok(&trace, component, counters)
            }));
            self.txsel += stats.event_seconds("sim.txsel");
            self.expose += stats.event_seconds("sim.slot.expose");
            self.classify += stats.event_seconds("sim.slot.classify");
            self.expose_busy += stats.histogram_sum("sim.slot.expose.shard.seconds");
            self.won += stats.counter("sim.claim.won");
            self.contended += stats.counter("sim.claim.contended");
            if i == 0 {
                let mut digest = crate::Digest::default();
                digest.add(&trace);
                digest.write(&mut o.layers);
            }
        }
    }
}

fn body(args: &RunArgs, log: &mut SpanLog, o: &mut Outcome) {
    let dep = Deployment::disk(P_FACTOR, 1.0, RHO);
    let dseed = deployment_seed(args.seed);
    let setups = args.setups.max(1);
    let mut setup_s = Vec::new();
    let (mut count_s, mut fill_s) = (0.0, 0.0);
    let mut shape = None;
    let mut component = None;
    let mut floods = Floods::default();
    // Set-ups and floods alternate, so both sample the whole run rather
    // than one stretch of it: host noise here comes in spells of seconds.
    for _ in 0..setups {
        let window = Window::open();
        let t0 = Instant::now();
        let net = log.span("model.deployment", "Deployment::sample", |_| {
            dep.sample(dseed)
        });
        let built = log.span("model.topology", "Topology::try_build_with_threads", |_| {
            Topology::try_build_with_threads(&net, THREADS)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        let stats = window.close();
        count_s += stats.event_seconds("topo.count");
        fill_s += stats.event_seconds("topo.fill");
        let Ok(topo) = built else {
            o.check(false);
            return;
        };
        // Every set-up samples the same field, so it must build the same graph.
        let this = (topo.len(), topo.edge_count(), topo.adjacency_bytes());
        o.check(topo.len() == net.len() && shape.is_none_or(|s| s == this));
        shape = Some(this);
        drop(net);
        let component = *component.get_or_insert_with(|| {
            log.span(BENCH, "check.component", |_| {
                topo.bfs_levels(NodeId::SOURCE)
                    .iter()
                    .filter(|&&l| l != u32::MAX)
                    .count()
            })
        });
        let budget = args.seconds / setups as f64;
        floods.measure(&topo, component, args.seed, budget, log, o);
        // Free the graph before the next set-up: peak memory is one field.
        log.span(BENCH, "drop", |_| drop(topo));
    }
    let (Some((n, _, bytes)), Some(component)) = (shape, component) else {
        return;
    };
    let Floods {
        secs: flood_s,
        rates,
        txsel,
        expose,
        classify,
        expose_busy,
        won,
        contended,
    } = floods;
    let measured: f64 = flood_s.iter().sum();
    let floods = flood_s.len() as f64;
    let mut sorted = flood_s.clone();
    sorted.sort_by(f64::total_cmp);
    o.e2e.set("setup_s", median(&setup_s));
    // The median flood's rate: one flood slowed by host noise does not move it.
    o.e2e.set("throughput_per_s", median(&rates));
    o.e2e.set("op_p50_ms", quantile(&sorted, 0.5) * 1e3);
    o.e2e
        .set("op_tail_ms", quantile(&sorted, tail_q(sorted.len())) * 1e3);
    o.note("nodes", n);
    o.note("source_component", component);
    o.note("floods", flood_s.len());
    o.note("setups", setup_s.len());
    o.note("flood_s", format!("{flood_s:?}"));
    o.note("setup_s", format!("{setup_s:?}"));

    let l = &mut o.layers;
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let build_s = mean(spans::durations(
        &log.spans,
        "Topology::try_build_with_threads",
    ));
    l.set(
        "deployment.sample_s",
        mean(spans::durations(&log.spans, "Deployment::sample")),
    );
    l.set("topology.build_s", build_s);
    if build_s > 0.0 {
        l.set("topology.build_nodes_per_s", n as f64 / build_s);
    }
    l.set("topology.count_s", count_s / setup_s.len() as f64);
    l.set("topology.fill_s", fill_s / setup_s.len() as f64);
    l.set("topology.adjacency_bytes", bytes as f64);
    l.set("sharded.run_s", measured / floods);
    l.set("sharded.txsel_s", txsel / floods);
    l.set("sharded.expose_s", expose / floods);
    l.set("sharded.classify_s", classify / floods);
    if expose_busy > 0.0 {
        l.set(
            "sharded.expose.imbalance",
            expose * THREADS as f64 / expose_busy,
        );
    }
    if won + contended > 0 {
        l.set(
            "sharded.claim_contended_ratio",
            contended as f64 / (won + contended) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_pure_and_distinct() {
        assert_eq!(deployment_seed(3), deployment_seed(3));
        assert_ne!(deployment_seed(3), deployment_seed(4));
        assert_ne!(protocol_seed(3, 0), protocol_seed(3, 1));
        assert_eq!(protocol_seed(9, 2), protocol_seed(9, 2));
    }

    #[test]
    fn a_corrupted_flood_fails_the_check() {
        let net = Deployment::disk(4, 1.0, RHO).sample(deployment_seed(1));
        let topo = Topology::try_build_with_threads(&net, THREADS).expect("small field");
        let component = topo
            .bfs_levels(NodeId::SOURCE)
            .iter()
            .filter(|&&l| l != u32::MAX)
            .count();
        let trace = Executor::new(&topo)
            .sharded(THREADS)
            .run(protocol_seed(1, 0));
        let totals = [
            trace.total_broadcasts(),
            trace.total_deliveries(),
            trace.total_collisions(),
        ];
        assert!(flood_ok(&trace, component, None));
        assert!(flood_ok(&trace, component, Some(totals)));
        // Counters that disagree with the trace, more informed nodes than
        // the component holds, or a short flood are all failures.
        assert!(!flood_ok(
            &trace,
            component,
            Some([totals[0] + 1, totals[1], totals[2]])
        ));
        assert!(!flood_ok(&trace, trace.informed_count() - 1, None));
        let mut cut = trace.clone();
        let keep = cut.informed_count() / 2;
        let mut seen = 0;
        for p in cut.first_rx_phase.iter_mut() {
            if *p != nss_sim::trace::NEVER {
                seen += 1;
                if seen > keep {
                    *p = nss_sim::trace::NEVER;
                }
            }
        }
        assert!(!flood_ok(&cut, component, None));
    }
}
