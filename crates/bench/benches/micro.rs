//! Micro-benchmarks for the algorithmic building blocks: the LP solver,
//! the separation oracle's max-flow, Prüfer coding, MST, AAML, and one
//! simulated aggregation round.

use criterion::{criterion_group, criterion_main, Criterion};
use mrlc_bench::bench_graph;
use mrlc_core::{CutLp, MrlcInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use wsn_baselines::{aaml_tree, AamlConfig};
use wsn_graph::{mst_tree, FlowNetwork};
use wsn_model::EnergyModel;
use wsn_prufer::{CodedTree, PruferCode};
use wsn_sim::simulate_round;

fn bench_lp_spanning_tree(c: &mut Criterion) {
    let net = bench_graph(16, 42);
    let edges: Vec<mrlc_core::formulation::LpEdge> = net
        .edges()
        .map(|(e, l)| mrlc_core::formulation::LpEdge {
            u: l.u().index(),
            v: l.v().index(),
            cost: l.cost(),
            tag: e.index(),
        })
        .collect();
    c.bench_function("lp_subtour_spanning_tree_n16", |b| {
        b.iter(|| {
            let mut cut = CutLp::new();
            black_box(cut.solve(16, &edges, &[]).unwrap())
        })
    });
}

fn bench_lp_with_degree_caps(c: &mut Criterion) {
    let net = bench_graph(16, 43);
    let edges: Vec<mrlc_core::formulation::LpEdge> = net
        .edges()
        .map(|(e, l)| mrlc_core::formulation::LpEdge {
            u: l.u().index(),
            v: l.v().index(),
            cost: l.cost(),
            tag: e.index(),
        })
        .collect();
    let caps: Vec<(usize, f64)> = (0..16).map(|v| (v, 3.0)).collect();
    c.bench_function("lp_degree_capped_n16", |b| {
        b.iter(|| {
            let mut cut = CutLp::new();
            black_box(cut.solve(16, &edges, &caps).unwrap())
        })
    });
}

fn bench_maxflow(c: &mut Criterion) {
    c.bench_function("dinic_maxflow_64_nodes", |b| {
        b.iter(|| {
            let mut f = FlowNetwork::new(64);
            for i in 0..63 {
                f.add_edge(i, i + 1, (i % 7 + 1) as f64);
                if i + 5 < 64 {
                    f.add_edge(i, i + 5, 2.0);
                }
            }
            black_box(f.max_flow(0, 63))
        })
    });
}

fn bench_ira_dfl(c: &mut Criterion) {
    use wsn_radio::LinkModel;
    use wsn_testbed::{dfl_network, DflConfig};
    let net = dfl_network(&DflConfig::default(), &LinkModel::default(), 2015).unwrap();
    let model = EnergyModel::PAPER;
    let aaml = aaml_tree(&net, &model, None, &AamlConfig::default()).unwrap();
    let inst = MrlcInstance::new(net, model, aaml.lifetime * 0.7).unwrap();
    let mut g = c.benchmark_group("ira");
    g.sample_size(20);
    g.bench_function("ira_dfl_16_nodes", |b| {
        b.iter(|| black_box(mrlc_core::solve_ira(&inst, &Default::default()).unwrap()))
    });
    g.finish();
}

fn bench_prufer(c: &mut Criterion) {
    // A 64-node random tree.
    let mut parents = vec![None];
    let mut rng_state = 88172645463325252u64;
    for i in 1..64usize {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        parents.push(Some(wsn_model::NodeId::new(rng_state as usize % i)));
    }
    let tree = wsn_model::AggregationTree::from_parents(wsn_model::NodeId::SINK, parents).unwrap();
    c.bench_function("prufer_encode_n64", |b| {
        b.iter(|| black_box(PruferCode::encode(&tree).unwrap()))
    });
    let code = PruferCode::encode(&tree).unwrap();
    c.bench_function("prufer_decode_n64", |b| b.iter(|| black_box(code.decode().unwrap())));
    let coded = CodedTree::from_tree(&tree).unwrap();
    c.bench_function("prufer_parent_change_n64", |b| {
        b.iter(|| {
            let mut ct = coded.clone();
            // Move a leaf under the sink — always valid.
            let leaf =
                (1..64).map(wsn_model::NodeId::new).find(|&v| ct.child_count(v) == 0).unwrap();
            ct.change_parent(leaf, wsn_model::NodeId::SINK).unwrap();
            black_box(ct)
        })
    });
}

fn bench_mst_and_aaml(c: &mut Criterion) {
    let net = bench_graph(32, 44);
    c.bench_function("mst_prim_n32", |b| b.iter(|| black_box(mst_tree(&net).unwrap())));
    let model = EnergyModel::PAPER;
    let mut g = c.benchmark_group("aaml");
    g.sample_size(30);
    g.bench_function("aaml_n32", |b| {
        b.iter(|| black_box(aaml_tree(&net, &model, None, &AamlConfig::default()).unwrap()))
    });
    g.finish();
}

fn bench_round_sim(c: &mut Criterion) {
    let net = bench_graph(32, 45);
    let tree = mst_tree(&net).unwrap();
    let mut rng = StdRng::seed_from_u64(46);
    c.bench_function("aggregation_round_n32", |b| {
        b.iter(|| black_box(simulate_round(&net, &tree, &mut rng)))
    });
}

fn bench_exact_solver(c: &mut Criterion) {
    use mrlc_core::{solve_exact, ExactConfig};
    use wsn_model::lifetime;
    let net = bench_graph(12, 47);
    let model = EnergyModel::PAPER;
    let lc = lifetime::node_lifetime(3000.0, &model, 3) * 0.999;
    let inst = MrlcInstance::new(net, model, lc).unwrap();
    let mut g = c.benchmark_group("exact");
    g.sample_size(20);
    g.bench_function("branch_and_bound_n12", |b| {
        b.iter(|| black_box(solve_exact(&inst, &ExactConfig::default())))
    });
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    use wsn_proto::Message;
    let msg = Message::ParentChange {
        epoch: 7,
        seq: 42,
        child: wsn_model::NodeId::new(4),
        new_parent: wsn_model::NodeId::new(7),
    };
    c.bench_function("wire_encode_decode_parent_change", |b| {
        b.iter(|| {
            let frame = msg.encode();
            black_box(Message::decode(&frame).unwrap())
        })
    });
}

fn bench_network_sim_announce(c: &mut Criterion) {
    use wsn_proto::DistributedNetwork;
    let net = bench_graph(32, 49);
    let tree = mst_tree(&net).unwrap();
    c.bench_function("distributed_announce_n32", |b| {
        b.iter(|| {
            let mut d = DistributedNetwork::new(32);
            black_box(d.announce(&tree).unwrap())
        })
    });
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
    name = micro;
    config = quick_config();
    targets =
    bench_lp_spanning_tree,
    bench_lp_with_degree_caps,
    bench_maxflow,
    bench_ira_dfl,
    bench_prufer,
    bench_mst_and_aaml,
    bench_round_sim,
    bench_exact_solver,
    bench_wire_codec,
    bench_network_sim_announce,
);
criterion_main!(micro);
