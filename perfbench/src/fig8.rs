//! `fig8-mc`: the paper's Fig. 8 protocol. PB_CAM `Replication::run` (30
//! runs, `threads = 2`) over ρ ∈ {20..140} × the 0.05..1.00 `p` grid on
//! P = 5 fields; each round also repeats ρ ∈ {20, 40, 60} under the SINR
//! medium with a non-empty `FaultPlan`.
//!
//! Thousands of small, cache-resident fields: per-replication fixed costs
//! (sampling, small CSR builds, the sequential engine, medium arbitration,
//! fault coins) dominate. The measured operation is one round of ten
//! 30-run cells; `throughput_per_s` counts replications.

use crate::obsview::Window;
use crate::report::{median, quantile, tail_q, Outcome};
use crate::spans::{self, SpanLog, BENCH};
use crate::{Digest, RunArgs};
use nss_model::comm::{MediumBackend, SinrParams};
use nss_model::deployment::Deployment;
use nss_model::faults::FaultPlan;
use nss_model::rng::{derive_seed, SeedFactory, Stream};
use nss_model::topology::Topology;
use nss_sim::executor::Executor;
use nss_sim::runner::Replication;
use nss_sim::slotted::GossipConfig;
use nss_sim::trace::{SimTrace, NEVER};
use std::time::Instant;

pub const RHOS: [f64; 7] = [20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0];
/// Densities repeated under SINR + faults in every round.
pub const STRESSED_RHOS: [f64; 3] = [20.0, 40.0, 60.0];
/// Cells per round: every density once, plus the stressed slice.
pub const ROUND: u64 = (RHOS.len() + STRESSED_RHOS.len()) as u64;
/// Visiting order of the 20 grid probabilities (index into 0.05..1.00):
/// a stride of 7 spreads cheap and costly `p` over any run of entries.
pub const P_ORDER: [usize; 20] = [
    0, 7, 14, 1, 8, 15, 2, 9, 16, 3, 10, 17, 4, 11, 18, 5, 12, 19, 6, 13,
];
pub const RUNS: u32 = 30;
pub const THREADS: usize = 2;

/// One Fig. 8 data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub rho: f64,
    pub prob: f64,
    /// SINR medium and the stress fault plan.
    pub stressed: bool,
    pub seed: u64,
}

/// The `k`-th cell of the schedule: a pure function of the workload seed.
///
/// Cell `j` of round `r` takes `p` from `P_ORDER[(r + j) mod 20]`, so each
/// round mixes ten different `p` and costs about as much as any other: a
/// run that completes one round more or less measures the same mix. Twenty
/// rounds visit every (ρ, p) pair of the grid once.
pub fn cell(seed: u64, k: u64) -> Cell {
    let round = (k / ROUND) as usize;
    let j = (k % ROUND) as usize;
    let prob = (P_ORDER[(round + j) % P_ORDER.len()] + 1) as f64 / 20.0;
    let (rho, stressed) = match RHOS.get(j) {
        Some(&rho) => (rho, false),
        None => (STRESSED_RHOS[j - RHOS.len()], true),
    };
    Cell {
        rho,
        prob,
        stressed,
        seed: derive_seed(seed, "fig8-mc.cell", k),
    }
}

/// Link loss and dead nodes for the stressed slice.
pub fn stress_plan() -> FaultPlan {
    FaultPlan {
        link_loss: 0.1,
        dead_frac: 0.05,
        ..FaultPlan::none()
    }
}

pub fn replication(c: &Cell) -> Replication {
    let rep = Replication::paper(
        Deployment::disk(5, 1.0, c.rho),
        GossipConfig::pb_cam(c.prob),
        c.seed,
    )
    .with_runs(RUNS)
    .with_threads(THREADS);
    if c.stressed {
        rep.with_medium(MediumBackend::Sinr(SinrParams::DEFAULT))
            .with_faults(stress_plan())
    } else {
        rep
    }
}

/// Replication `i` of `rep`, rebuilt from the public calls with the
/// runner's seed discipline; it must equal the runner's trace bit for bit.
/// Also returns the field's node count and adjacency bytes.
pub fn replay(rep: &Replication, i: u64, log: &mut SpanLog) -> (SimTrace, usize, usize) {
    let seeds = SeedFactory::new(rep.master_seed);
    let net = log.span("model.deployment", "Deployment::sample", |_| {
        rep.deployment.sample(seeds.seed(Stream::Deployment, i))
    });
    let topo = log.span("model.topology", "Topology::build", |_| {
        Topology::build(&net)
    });
    let trace = log.span("sim.slotted", "Executor::run", |_| {
        Executor::new(&topo)
            .gossip(rep.gossip)
            .faults(rep.faults.clone())
            .faults_seed(seeds.seed(Stream::Faults, i))
            .threads(rep.intra_threads)
            .run(seeds.seed(Stream::Protocol, i))
    });
    (trace, topo.len(), topo.adjacency_bytes())
}

/// Invariants every PB_CAM trace satisfies, whatever its seed.
pub fn trace_ok(t: &SimTrace) -> bool {
    let phases = t.phases();
    t.n_total >= 1
        && t.first_rx_phase.len() == t.n_total
        && t.first_rx_phase[0] == 0
        && phases >= 1
        && t.broadcasts_by_phase[0] == 1
        && t.total_broadcasts() <= t.informed_count() as u64
        && t.first_rx_phase
            .iter()
            .all(|&p| p == NEVER || p as usize <= phases)
}

/// Checks the runner's traces of `rep`: every one against [`trace_ok`],
/// and those `replay(i)` selects bit for bit against [`replay`]. Returns
/// the node count and adjacency bytes of each replayed field.
pub fn check_cell(
    o: &mut Outcome,
    rep: &Replication,
    traces: &[SimTrace],
    replay_it: impl Fn(u64) -> bool,
    log: &mut SpanLog,
) -> Vec<(usize, usize)> {
    let mut sizes = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let replayed = replay_it(i as u64).then(|| {
            let (trace, n, bytes) = replay(rep, i as u64, log);
            sizes.push((n, bytes));
            trace
        });
        let ok = log.span(BENCH, "check.trace", |_| {
            trace_ok(t) && replayed.as_ref().is_none_or(|r| r == t)
        });
        o.check(ok);
    }
    sizes
}

pub fn run(args: &RunArgs, log: &mut SpanLog) -> Outcome {
    let mut o = Outcome::default();
    log.span(BENCH, "fig8-mc", |log| body(args, log, &mut o));
    o.layers
        .set("unattributed_frac", spans::unattributed_frac(&log.spans));
    o
}

fn body(args: &RunArgs, log: &mut SpanLog, o: &mut Outcome) {
    // Set-up: a cold pass of two replications per density at p = 0.5.
    let mut setup_s = Vec::new();
    for s in 0..args.setups.max(1) as u64 {
        let t0 = Instant::now();
        for (ri, &rho) in RHOS.iter().enumerate() {
            let warm = Replication::paper(
                Deployment::disk(5, 1.0, rho),
                GossipConfig::pb_cam(0.5),
                derive_seed(args.seed, "fig8-mc.warm", s * RHOS.len() as u64 + ri as u64),
            )
            .with_runs(2)
            .with_threads(THREADS);
            let out = log.span("sim.runner", "Replication::run", |_| warm.run());
            for t in &out.traces {
                o.check(trace_ok(t));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let runner_window = Window::open();
    let mut cell_s = Vec::new();
    let mut digest = Digest::default();
    let (mut reps, mut measured, mut count_s, mut fill_s) = (0u64, 0.0, 0.0, 0.0);
    let (mut replays, mut nodes, mut adjacency) = (0u64, 0usize, 0usize);
    // Whole rounds only: a partial round would tilt the mix towards the
    // cheap unstressed cells at its start.
    let mut k = 0u64;
    while k < ROUND || measured < args.seconds || !k.is_multiple_of(ROUND) {
        let c = cell(args.seed, k);
        let rep = replication(&c);
        let t0 = Instant::now();
        let out = log.span("sim.runner", "Replication::run", |_| rep.run());
        let secs = t0.elapsed().as_secs_f64();
        measured += secs;
        cell_s.push(secs);
        reps += out.traces.len() as u64;
        o.check(out.traces.len() == RUNS as usize);
        // The traced run replays every replication, an untraced run one per
        // cell.
        let window = Window::open();
        let replay_all = log.enabled();
        let sizes = check_cell(
            o,
            &rep,
            &out.traces,
            |i| replay_all || i == k % u64::from(RUNS),
            log,
        );
        for (n, bytes) in sizes {
            (replays, nodes, adjacency) = (replays + 1, nodes + n, adjacency + bytes);
        }
        let stats = window.close();
        count_s += stats.event_seconds("topo.count");
        fill_s += stats.event_seconds("topo.fill");
        if k < ROUND {
            out.traces.iter().for_each(|t| digest.add(t));
        }
        k += 1;
    }
    let runner = runner_window.close();

    // Cell times cluster by density over two orders of magnitude, so a
    // run's median cell lands on either side of a gap by chance; rounds are
    // balanced slices of the grid, and their times are steady.
    let mut round_s: Vec<f64> = cell_s
        .chunks(ROUND as usize)
        .map(|r| r.iter().sum())
        .collect();
    round_s.sort_by(f64::total_cmp);
    o.e2e.set("setup_s", median(&setup_s));
    o.e2e.set("throughput_per_s", reps as f64 / measured);
    o.e2e.set("op_p50_ms", quantile(&round_s, 0.5) * 1e3);
    o.e2e.set(
        "op_tail_ms",
        quantile(&round_s, tail_q(round_s.len())) * 1e3,
    );
    o.note("cells", cell_s.len());
    o.note("rounds", round_s.len());
    o.note("replications", reps);
    o.note("replayed", replays);
    o.note("setup_s", format!("{setup_s:?}"));
    o.note("cell_s", format!("{cell_s:?}"));

    let l = &mut o.layers;
    digest.write(l);
    let replays = replays.max(1) as f64;
    let sum = |name: &str| spans::durations(&log.spans, name).iter().sum::<f64>();
    let build_s = sum("Topology::build");
    l.set("deployment.sample_s", sum("Deployment::sample") / replays);
    l.set("topology.build_s", build_s / replays);
    l.set("topology.count_s", count_s / replays);
    l.set("topology.fill_s", fill_s / replays);
    l.set("slotted.run_s", sum("Executor::run") / replays);
    if let Some(h) = runner.histogram("sim.replication_seconds") {
        l.set("runner.replication_p50_s", h.quantile(0.5).unwrap_or(0.0));
        l.set("runner.replication_p99_s", h.quantile(0.99).unwrap_or(0.0));
        l.set("runner.busy_frac", h.sum / (THREADS as f64 * measured));
    }
    l.set("topology.adjacency_bytes", adjacency as f64 / replays);
    if build_s > 0.0 {
        l.set("topology.build_nodes_per_s", nodes as f64 / build_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a: Vec<Cell> = (0..60).map(|k| cell(11, k)).collect();
        let b: Vec<Cell> = (0..60).map(|k| cell(11, k)).collect();
        let c: Vec<Cell> = (0..60).map(|k| cell(12, k)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Another seed changes the seeds, never the mix of work.
        for (x, y) in a.iter().zip(&c) {
            assert_eq!((x.rho, x.prob, x.stressed), (y.rho, y.prob, y.stressed));
            assert_ne!(x.seed, y.seed);
        }
        let round: Vec<&Cell> = a.iter().take(ROUND as usize).collect();
        assert_eq!(
            round.iter().filter(|c| c.stressed).count(),
            STRESSED_RHOS.len()
        );
        let mut probs: Vec<f64> = round.iter().map(|c| c.prob).collect();
        probs.sort_by(f64::total_cmp);
        probs.dedup();
        assert_eq!(probs.len(), ROUND as usize, "a round mixes distinct p");
        let mut pairs: Vec<(u64, u64)> = (0..20 * ROUND)
            .map(|k| cell(11, k))
            .filter(|c| !c.stressed)
            .map(|c| (c.rho as u64, (c.prob * 20.0).round() as u64))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), RHOS.len() * 20, "20 rounds cover the grid");
        let mut order = P_ORDER;
        order.sort_unstable();
        assert_eq!(
            order,
            std::array::from_fn(|i| i),
            "P_ORDER is a permutation"
        );
    }

    fn small(c: Cell) -> Replication {
        let mut rep = replication(&c).with_runs(3);
        rep.deployment = Deployment::disk(3, 1.0, c.rho);
        rep
    }

    #[test]
    fn replay_reproduces_the_runner_and_a_corrupted_trace_fails() {
        for stressed in [false, true] {
            let rep = small(Cell {
                rho: 20.0,
                prob: 0.6,
                stressed,
                seed: 5,
            });
            let traces = rep.run().traces;
            let mut log = SpanLog::new(true, 0);
            let mut o = Outcome::default();
            check_cell(&mut o, &rep, &traces, |_| true, &mut log);
            assert_eq!((o.attempted, o.failed), (3, 0), "stressed = {stressed}");

            // One wrong first-reception phase: invariants still hold, so
            // only the bit-for-bit replay can catch it.
            let mut corrupted = traces.clone();
            let informed = corrupted[1].first_rx_phase.iter().position(|&p| p == 1);
            corrupted[1].first_rx_phase[informed.expect("a phase-1 receiver")] = 2;
            let mut o = Outcome::default();
            check_cell(&mut o, &rep, &corrupted, |_| true, &mut log);
            assert_eq!((o.attempted, o.failed), (3, 1));
            // An untraced run replays one trace per cell; the invariants
            // still catch a broken trace it does not replay.
            corrupted[1].first_rx_phase[0] = 3;
            let mut o = Outcome::default();
            check_cell(&mut o, &rep, &corrupted, |i| i == 0, &mut log);
            assert_eq!((o.attempted, o.failed), (3, 1));
        }
    }
}
