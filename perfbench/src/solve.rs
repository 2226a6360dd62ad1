//! `solve-n160` and `batch-n40`: `solve_ira` called directly on seeded
//! random instances, one after another on the calling thread.

use crate::layers::{self, Layers};
use crate::stats::{another_pass_fits, ms_since, quantile, BestOf};
use crate::{parents, Outcome, Probe};
use mrlc_core::{solve_ira, verify_tree, IraConfig, MrlcInstance};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use wsn_model::{lifetime, AggregationTree, EnergyModel, NetworkBuilder, NodeId};
use wsn_obs::Obs;
use wsn_prufer::PruferCode;
use wsn_testbed::{random_graph, RandomGraphConfig};

/// One solve workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Nodes per instance.
    pub n: usize,
    /// Random-graph link probability.
    pub p: f64,
    /// When set, every run solves this one generator seed's network with
    /// its link list in `--seed`-derived orders, instead of fresh networks.
    pub base: Option<u64>,
    /// Instances generated at set-up: the operations of one pass.
    pub pool: usize,
    /// Solves in the determinism probe.
    pub probe_ops: usize,
}

/// Fresh random networks at n = 160 take 1–15 s each to solve, too spread
/// for a short run to average, so this workload fixes one network of
/// middling difficulty and varies only the order of its link list.
pub const SOLVE_N160: Spec = Spec { n: 160, p: 0.05, base: Some(2), pool: 12, probe_ops: 1 };
pub const BATCH_N40: Spec = Spec { n: 40, p: 0.2, base: None, pool: 768, probe_ops: 20 };

/// The lifetime bound every generated instance carries: at most four
/// children per node at 3000 J (the `bench-perf` ladder's LC).
pub fn default_lc() -> f64 {
    lifetime::node_lifetime(3000.0, &EnergyModel::PAPER, 4) * 0.99
}

/// `count` connected random instances derived from `seed`.
pub fn instances(n: usize, p: f64, count: usize, seed: u64) -> Vec<MrlcInstance> {
    let mut master = StdRng::seed_from_u64(seed);
    let gcfg = RandomGraphConfig { n, link_probability: p, ..RandomGraphConfig::default() };
    (0..count)
        .map(|_| {
            let mut rng = StdRng::seed_from_u64(master.random::<u64>());
            let net = random_graph(&gcfg, &mut rng).expect("connected random instance");
            MrlcInstance::new(net, EnergyModel::PAPER, default_lc()).expect("valid instance")
        })
        .collect()
}

pub fn setup(spec: &Spec, seed: u64) -> Vec<MrlcInstance> {
    match spec.base {
        Some(base) => {
            let network = instances(spec.n, spec.p, 1, base).pop().expect("one base instance");
            let mut rng = StdRng::seed_from_u64(seed);
            (0..spec.pool).map(|_| shuffle_links(&network, &mut rng)).collect()
        }
        None => instances(spec.n, spec.p, spec.pool, seed),
    }
}

/// `inst` with its link list in a random order: the same network, whose LP
/// columns the solver meets in a different order (so it takes a different
/// pivot path to the same optimum).
pub fn shuffle_links(inst: &MrlcInstance, rng: &mut StdRng) -> MrlcInstance {
    let net = inst.network();
    let mut order: Vec<usize> = (0..net.num_edges()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let mut b = NetworkBuilder::new(net.n());
    for v in (0..net.n()).map(NodeId::new) {
        b.set_energy(v, net.initial_energy(v)).expect("valid energy");
    }
    for &k in &order {
        b.add_link(net.links()[k]).expect("valid link");
    }
    let shuffled = b.build().expect("the same network is connected");
    MrlcInstance::new(shuffled, *inst.model(), inst.lc()).expect("valid instance")
}

/// Checks one returned tree: spanning, and `L(T) ≥ LC` unless the solve
/// says it relaxed to LC.
fn check(inst: &MrlcInstance, tree: &AggregationTree, relaxed: bool) -> Result<f64, String> {
    let v = {
        let _s = wsn_obs::span("verify_tree");
        verify_tree(inst, tree)
    };
    if !v.is_valid_spanning_tree {
        return Err("returned tree is not a spanning tree of the network".into());
    }
    if !v.meets_lc && !relaxed {
        return Err(format!("L(T) = {} < LC = {} without relaxed_to_lc", v.lifetime, inst.lc()));
    }
    Ok(v.paper_cost)
}

/// Solves the first `probe_ops` instances under `obs` and returns the
/// deterministic counters the run must reproduce.
pub fn probe(spec: &Spec, pool: &[MrlcInstance], obs: Arc<Obs>) -> Probe {
    let _g = wsn_obs::install(obs.clone());
    let t = Instant::now();
    let mut probe = Probe::default();
    for inst in pool.iter().take(spec.probe_ops) {
        match solve_ira(inst, &IraConfig::default()) {
            Ok(sol) => match check(inst, &sol.tree, sol.stats.relaxed_to_lc) {
                Ok(cost) => probe.tree_cost += cost,
                Err(e) => probe.failures.push(e),
            },
            Err(e) => probe.failures.push(e.to_string()),
        }
    }
    probe.wall_ms = ms_since(t);
    let reg = obs.registry();
    for name in ["lp.pivots", "ira.cut_rounds", "sep.min_cut_seeds", "ira.cuts_added"] {
        probe.counters.push((name.to_string(), reg.counter(name).get()));
    }
    probe
}

/// Solves the pool in passes until another pass would overrun `seconds`
/// (at least one pass). Each instance reports its fastest solve. With `obs`
/// tracing, also times Prüfer encode/decode of each tree and fills the
/// per-layer table.
pub fn run(pool: &[MrlcInstance], seconds: f64, obs: Arc<Obs>) -> Outcome {
    let traced = obs.tracing_enabled();
    let _g = wsn_obs::install(obs.clone());
    let cfg = IraConfig::default();
    let mut out = Outcome::default();
    let mut best = BestOf::new(pool.len());
    let mut costs = Vec::new();
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let (mut rows, mut cols) = (0i64, 0i64);
    let mut solve_ms = 0.0;
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for (k, inst) in pool.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let res = {
                let _s = wsn_obs::span("solve_ira");
                solve_ira(inst, &cfg)
            };
            let ms = ms_since(t);
            solve_ms += ms;
            let checked = res.map_err(|e| e.to_string()).and_then(|sol| {
                let cost = check(inst, &sol.tree, sol.stats.relaxed_to_lc)?;
                if traced {
                    let (enc, dec) = prufer_round_trip(&sol.tree)?;
                    encode_us.push(enc);
                    decode_us.push(dec);
                }
                Ok(cost)
            });
            match checked {
                Ok(cost) => {
                    best.record(k, ms);
                    if costs.len() < pool.len() {
                        costs.push(cost);
                    }
                }
                Err(e) => out.failures.push(format!("instance {k}: {e}")),
            }
            let reg = obs.registry();
            rows = rows.max(reg.gauge("lp.tableau_rows").get());
            cols = cols.max(reg.gauge("lp.tableau_cols").get());
        }
        if !another_pass_fits(start, pass.elapsed(), seconds) {
            break;
        }
    }
    out.latencies_ms = best.latencies_ms();
    out.throughput_per_s = best.throughput();
    out.tree_cost = crate::stats::mean(&costs);

    let lat = &out.latencies_ms;
    if lat.len() >= 200 {
        // p95 leaves at least ten samples above it only from 200 solves on.
        out.headline.push(("solve_p95_ms", quantile(lat, 0.95), "ms"));
    }
    out.headline.push(("solves_per_s", out.throughput_per_s, "1/s"));

    if traced {
        let mut l = Layers::default();
        layers::solver(&mut l, &obs, solve_ms);
        l.set("lp.rows", rows as f64);
        l.set("lp.cols", cols as f64);
        l.set("prufer.encode_us", quantile(&encode_us, 0.5));
        l.set("prufer.decode_us", quantile(&decode_us, 0.5));
        out.layers = l;
    }
    out
}

/// Encodes `tree` to its Prüfer code and decodes it back, checking the
/// round trip; returns the two times in microseconds.
fn prufer_round_trip(tree: &AggregationTree) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let code = {
        let _s = wsn_obs::span("PruferCode::encode");
        PruferCode::encode(tree).map_err(|e| format!("Prüfer encode: {e}"))?
    };
    let enc = ms_since(t) * 1e3;
    let t = Instant::now();
    let decoded = {
        let _s = wsn_obs::span("PruferCode::decode");
        code.decode().map_err(|e| format!("Prüfer decode: {e}"))?
    };
    let dec = ms_since(t) * 1e3;
    if parents(&decoded.tree) != parents(tree) {
        return Err("Prüfer decode does not reproduce the returned tree".into());
    }
    Ok((enc, dec))
}
