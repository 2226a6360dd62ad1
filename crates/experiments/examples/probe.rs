//! Tuning probe for the cut-pool separation engine: runs IRA on one
//! bench-ladder rung and sweeps the batch cap / strengthening margin.
//!
//! ```text
//! cargo run --release -p wsn-experiments --example probe -- <n> [K,K,...] [margin,...]
//! ```
//!
//! An empty K list (`probe 160 ""`) runs the single-cut baseline instead.
use mrlc_core::{solve_ira, IraConfig, MrlcInstance, SeparationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wsn_model::lifetime;
use wsn_model::EnergyModel;
use wsn_testbed::{random_graph, RandomGraphConfig};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(80);
    let model = EnergyModel::PAPER;
    let lc = lifetime::node_lifetime(3000.0, &model, 4) * 0.99;
    let p = match n {
        _ if n <= 40 => 0.7,
        _ if n <= 80 => 0.3,
        _ if n <= 160 => 0.15,
        _ => 0.06,
    };
    let gcfg = RandomGraphConfig { n, link_probability: p, ..RandomGraphConfig::default() };
    let mut rng = StdRng::seed_from_u64(4242 + n as u64);
    let net = random_graph(&gcfg, &mut rng).expect("connected");
    let inst = MrlcInstance::new(net, model, lc).expect("valid");

    let run = |label: &str, sep: SeparationConfig| {
        let obs = wsn_obs::Obs::detached();
        let _g = wsn_obs::install(obs.clone());
        let cfg = IraConfig { separation: sep, ..IraConfig::default() };
        let t = Instant::now();
        let sol = solve_ira(&inst, &cfg).expect("solves");
        let wall = t.elapsed().as_secs_f64() * 1e3;
        let reg = obs.registry();
        let lp_ms = reg.counter("ira.lp_ns").get() as f64 / 1e6;
        println!(
            "{label:>10}: iters {:3}  solves {:3}  rounds {:3}  cuts {:4}  pivots {:6}  pool_hits {:4}  scans {:3}  batched {:4}  pruned {:5}  wall {wall:9.1}ms  lp {lp_ms:9.1}ms  sep {:8.1}ms  cost {:.3}",
            sol.stats.iterations,
            sol.stats.lp_solves,
            sol.stats.cut_rounds,
            sol.stats.cuts_added,
            sol.stats.pivots,
            sol.stats.pool_hits,
            sol.stats.pool_scans,
            sol.stats.cuts_batched,
            sol.stats.seeds_pruned,
            sol.stats.sep_ms,
            sol.cost,
        );
    };

    let ks: Vec<usize> = std::env::args()
        .nth(2)
        .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![4, 8, 16, 32]);
    if ks.is_empty() {
        run("single", SeparationConfig::single_cut());
    }
    let margins: Vec<f64> = std::env::args()
        .nth(3)
        .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![SeparationConfig::default().strengthen_margin]);
    for &k in &ks {
        for &mg in &margins {
            let sep = SeparationConfig {
                max_cuts_per_round: k,
                strengthen_margin: mg,
                ..SeparationConfig::default()
            };
            run(&format!("K={k} m={mg}"), sep);
        }
    }
}
