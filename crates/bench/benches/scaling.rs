//! Scaling study: how IRA, its LP, and AAML grow with network size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrlc_bench::bench_graph;
use mrlc_core::MrlcInstance;
use std::hint::black_box;
use wsn_baselines::{aaml_tree, AamlConfig};
use wsn_model::{lifetime, EnergyModel};

fn bench_ira_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("ira_scaling");
    g.sample_size(10);
    for n in [8usize, 12, 16, 24, 32] {
        let net = bench_graph(n, 100 + n as u64);
        let model = EnergyModel::PAPER;
        // A mild bound: at most 4 children anywhere.
        let lc = lifetime::node_lifetime(3000.0, &model, 4) * 0.99;
        let inst = MrlcInstance::new(net, model, lc).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| black_box(mrlc_core::solve_ira(inst, &Default::default()).unwrap()))
        });
    }
    g.finish();
}

fn bench_aaml_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("aaml_scaling");
    g.sample_size(20);
    for n in [8usize, 16, 32, 48] {
        let net = bench_graph(n, 200 + n as u64);
        let model = EnergyModel::PAPER;
        g.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| black_box(aaml_tree(net, &model, None, &AamlConfig::default()).unwrap()))
        });
    }
    g.finish();
}

fn bench_separation_scaling(c: &mut Criterion) {
    use mrlc_core::separation::{violated_sets, FracEdge};
    let mut g = c.benchmark_group("separation_scaling");
    for n in [8usize, 16, 32] {
        let net = bench_graph(n, 300 + n as u64);
        // A fractional point spreading mass uniformly (forces the min-cut
        // oracle rather than the component pre-check).
        let m = net.num_edges();
        let x = (n as f64 - 1.0) / m as f64;
        let edges: Vec<FracEdge> =
            net.edges().map(|(_, l)| FracEdge { u: l.u().index(), v: l.v().index(), x }).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &edges, |b, edges| {
            b.iter(|| black_box(violated_sets(n, edges, 1e-7)))
        });
    }
    g.finish();
}

/// One core, many benches: shorter measurement windows keep the full suite
/// tractable while criterion still reports stable medians.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(10)
}

criterion_group!(
    name = scaling;
    config = quick_config();
    targets = bench_ira_scaling, bench_aaml_scaling, bench_separation_scaling
);
criterion_main!(scaling);
