//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! μ evaluation mode, quadrature resolution, sweep parallelism, spatial
//! indexing, and scratch reuse in the medium.

use criterion::{criterion_group, criterion_main, Criterion};
use nss_analysis::mu::MuMode;
use nss_analysis::ring_model::RingModel;
use nss_analysis::sweep::DensitySweep;
use nss_bench::{ring_cfg, topo};
use nss_model::comm::CommunicationModel;
use nss_model::deployment::Deployment;
use nss_model::geometry::Point2;
use nss_model::ids::NodeId;
use nss_model::topology::Topology;
use nss_sim::medium::{Medium, MediumScratch};
use std::hint::black_box;

fn bench_mu_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mu_mode");
    group.sample_size(20);
    for (name, mode) in [
        ("interpolate", MuMode::Interpolate),
        ("poisson", MuMode::Poisson),
    ] {
        group.bench_function(name, |b| {
            let mut cfg = ring_cfg(60.0, 0.2);
            cfg.mu_mode = mode;
            let model = RingModel::new(cfg);
            b.iter(|| model.run())
        });
    }
    group.finish();
}

fn bench_quadrature_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_quad_points");
    group.sample_size(20);
    for q in [16usize, 64, 256] {
        group.bench_function(format!("q{q}"), |b| {
            let mut cfg = ring_cfg(60.0, 0.2);
            cfg.quad_points = q;
            let model = RingModel::new(cfg);
            b.iter(|| model.run())
        });
    }
    group.finish();
}

fn bench_sweep_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sweep_threads");
    group.sample_size(10);
    let probs: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
    let mut base = ring_cfg(20.0, 0.0);
    base.quad_points = 24;
    for threads in [1usize, 4] {
        group.bench_function(format!("threads{threads}"), |b| {
            b.iter(|| DensitySweep::run(base, &[20.0, 60.0, 100.0], &probs, threads))
        });
    }
    group.finish();
}

fn bench_spatial_index(c: &mut Criterion) {
    // Neighbor enumeration with the grid index vs brute force over all
    // pairs — justifies the index for topology construction.
    let mut group = c.benchmark_group("ablation_spatial");
    group.sample_size(10);
    let net = Deployment::disk(5, 1.0, 60.0).sample(5);
    let t = Topology::build(&net);
    let positions: Vec<Point2> = net.positions().to_vec();
    let r = t.comm_radius();
    group.bench_function("indexed_range_queries", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for p in &positions {
                t.for_each_within(p, r, |_| count += 1);
            }
            count
        })
    });
    group.bench_function("brute_force_all_pairs", |b| {
        b.iter(|| {
            let r2 = r * r;
            let mut count = 0usize;
            for a in &positions {
                for bpt in &positions {
                    if a.dist_sq(bpt) <= r2 {
                        count += 1;
                    }
                }
            }
            count
        })
    });
    group.finish();
}

fn bench_scratch_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scratch");
    group.sample_size(20);
    let t = topo(60.0, 5);
    let medium = Medium::new(CommunicationModel::CAM);
    let transmitters: Vec<u32> = (0..t.len() as u32).step_by(10).collect();
    group.bench_function("reused_scratch", |b| {
        let mut scratch = MediumScratch::new(t.len());
        b.iter(|| {
            let mut n = 0u64;
            medium.resolve_slot(&t, &transmitters, &mut scratch, None, |_: NodeId, _| n += 1);
            black_box(n)
        })
    });
    group.bench_function("fresh_scratch_each_slot", |b| {
        b.iter(|| {
            let mut scratch = MediumScratch::new(t.len());
            let mut n = 0u64;
            medium.resolve_slot(&t, &transmitters, &mut scratch, None, |_: NodeId, _| n += 1);
            black_box(n)
        })
    });
    group.finish();
}

/// Short measurement windows: the suite's value is the recorded relative
/// numbers, not publication-grade confidence intervals.
fn fast_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench_mu_mode,
    bench_quadrature_resolution,
    bench_sweep_parallelism,
    bench_spatial_index,
    bench_scratch_reuse
}
criterion_main!(benches);
