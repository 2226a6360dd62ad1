//! `bench-perf` — the perf-trajectory suite behind `BENCH_ira.json`.
//!
//! Runs IRA on a fixed, seeded scaling ladder (the DFL-16 testbed topology
//! plus random graphs at n ∈ {20, 40, 80, 160, 320}) and records wall
//! time, LP solves, simplex pivots, cutting-plane rounds, separation time
//! and the cut-pool engine's counters per case — for the warm-started
//! batched engine and, where tractable, the single-cut-per-round
//! separation baseline (`SeparationConfig::single_cut`). The JSON file is the
//! machine-readable perf trajectory CI and humans diff across commits
//! (see `bench-check`); the rendered table is the human-readable snapshot.
//!
//! The baseline must decode the **same tree** as the engine path (distinct
//! seeded costs ⇒ unique LP optimum); `same_tree` records that check per
//! case so a perf win can never silently change answers.
//!
//! The vendored `serde` stub has no real serialization, so the JSON is
//! hand-rolled — the schema is documented in DESIGN.md §8.

use crate::table::{f, Table};
use mrlc_core::{solve_ira, IraConfig, MrlcInstance, SeparationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wsn_model::{lifetime, EnergyModel, NodeId};
use wsn_radio::LinkModel;
use wsn_testbed::{dfl_network, random_graph, DflConfig, RandomGraphConfig};

/// Suite parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Smoke mode: DFL-16 plus the n ≤ 80 rungs only (CI-speed). rand-80
    /// is the first rung whose wall clears `bench-check`'s noise floor,
    /// and most of it is separation, so the CI gate's wall rule can see a
    /// separation regression.
    pub smoke: bool,
    /// Run the single-cut separation baseline up to this node count (one
    /// cut round per violated set makes it the slowest path at scale).
    pub single_up_to: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { smoke: false, single_up_to: 160 }
    }
}

impl Config {
    /// The CI preset.
    pub fn smoke() -> Self {
        Config { smoke: true, ..Config::default() }
    }
}

/// Counters for one solver path on one case.
#[derive(Clone, Copy, Debug)]
pub struct PathStats {
    /// End-to-end IRA wall time, milliseconds.
    pub wall_ms: f64,
    /// Inner LP solves.
    pub lp_solves: usize,
    /// Simplex pivots across all solves.
    pub pivots: usize,
    /// Cutting-plane rounds.
    pub cut_rounds: usize,
    /// Separation wall time (pool screening + oracle), milliseconds.
    pub sep_ms: f64,
    /// LP-solve wall time, milliseconds (registry `ira.lp_ns`).
    pub lp_ms: f64,
    /// Prüfer-decode wall time, milliseconds (registry `ira.decode_ns`).
    pub decode_ms: f64,
    /// Warm solves that fell back to a cold rebuild (registry
    /// `lp.cold_fallbacks`).
    pub cold_fallbacks: usize,
    /// Cuts re-activated from the pool instead of re-derived by maxflow.
    pub pool_hits: usize,
    /// Pool screening passes.
    pub pool_scans: usize,
    /// Cuts added beyond the first of their round.
    pub cuts_batched: usize,
    /// Min-cut seeds skipped by the pruning short-circuits.
    pub seeds_pruned: usize,
}

/// The solution fingerprint used to prove the paths agree: parent vector
/// plus the paper's two tree metrics.
#[derive(Clone, Debug, PartialEq)]
struct TreeSig {
    parents: Vec<Option<usize>>,
    reliability: f64,
    lifetime: f64,
}

impl TreeSig {
    fn matches(&self, other: &TreeSig) -> bool {
        self.parents == other.parents
            && (self.reliability - other.reliability).abs() < 1e-9
            && (self.lifetime - other.lifetime).abs() < 1e-9
    }
}

/// One rung of the ladder.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Case label (`dfl-16`, `rand-80`, …).
    pub name: String,
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Warm-started batched-engine counters (the production path).
    pub warm: PathStats,
    /// Single-cut separation baseline (skipped above `single_up_to`).
    pub single: Option<PathStats>,
    /// True unless the single-cut baseline ran and decoded a different
    /// tree (parent vector or Q(T)/L(T)) than the engine path.
    pub same_tree: bool,
}

impl CaseResult {
    /// Single-cut/engine wall-time ratio, when the baseline ran.
    pub fn single_speedup(&self) -> Option<f64> {
        self.single.map(|s| s.wall_ms / self.warm.wall_ms.max(1e-9))
    }

    /// Single-cut/engine cut-round ratio — the batching win, when the
    /// baseline ran.
    pub fn round_ratio(&self) -> Option<f64> {
        self.single.map(|s| s.cut_rounds as f64 / self.warm.cut_rounds.max(1) as f64)
    }
}

fn run_path(inst: &MrlcInstance, sep: SeparationConfig) -> (PathStats, TreeSig) {
    // A private metrics-only registry per path run: the per-stage
    // breakdown comes from the same counters the whole pipeline publishes,
    // with no figure-style hand-threading of timings.
    let obs = wsn_obs::Obs::detached();
    let _ambient = wsn_obs::install(obs.clone());
    let cfg = IraConfig { separation: sep, ..IraConfig::default() };
    let start = Instant::now();
    let sol = solve_ira(inst, &cfg).expect("bench instance solves");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let reg = obs.registry();
    let ns_to_ms = |name: &str| reg.counter(name).get() as f64 / 1e6;
    let stats = PathStats {
        wall_ms,
        lp_solves: sol.stats.lp_solves,
        pivots: sol.stats.pivots,
        cut_rounds: sol.stats.cut_rounds,
        sep_ms: sol.stats.sep_ms,
        lp_ms: ns_to_ms("ira.lp_ns"),
        decode_ms: ns_to_ms("ira.decode_ns"),
        cold_fallbacks: reg.counter("lp.cold_fallbacks").get() as usize,
        pool_hits: sol.stats.pool_hits,
        pool_scans: sol.stats.pool_scans,
        cuts_batched: sol.stats.cuts_batched,
        seeds_pruned: sol.stats.seeds_pruned,
    };
    let n = inst.network().n();
    let sig = TreeSig {
        parents: (0..n).map(|v| sol.tree.parent(NodeId::new(v)).map(|p| p.index())).collect(),
        reliability: sol.reliability,
        lifetime: sol.lifetime,
    };
    (stats, sig)
}

fn run_case(name: &str, net: wsn_model::Network, lc: f64, with_single: bool) -> CaseResult {
    let n = net.n();
    let m = net.num_edges();
    let inst = MrlcInstance::new(net, EnergyModel::PAPER, lc).expect("valid instance");
    let (warm, warm_sig) = run_path(&inst, SeparationConfig::default());
    let mut same_tree = true;
    let single = with_single.then(|| {
        let (stats, sig) = run_path(&inst, SeparationConfig::single_cut());
        same_tree &= sig.matches(&warm_sig);
        stats
    });
    CaseResult { name: name.to_string(), n, m, warm, single, same_tree }
}

/// Everything one bench-perf invocation measures: the solver ladder plus
/// the service-fleet storm rung.
#[derive(Clone, Debug)]
pub struct BenchResults {
    /// The IRA scaling ladder.
    pub cases: Vec<CaseResult>,
    /// The solve-service request storm (throughput / latency tail).
    pub storm: crate::serve_storm::StormStats,
}

/// Runs the ladder and the storm rung. The storm is the full
/// 1000-request one in smoke mode too: `bench-check` compares storm p99
/// and throughput only between runs of the same request count.
pub fn run(config: &Config) -> BenchResults {
    let cases = run_cases(config);
    BenchResults { cases, storm: crate::serve_storm::run(&crate::serve_storm::Config::default()) }
}

/// Runs the IRA scaling ladder alone.
pub fn run_cases(config: &Config) -> Vec<CaseResult> {
    let model = EnergyModel::PAPER;
    // The scaling.rs pattern: a mild bound, at most 4 children anywhere.
    let lc = lifetime::node_lifetime(3000.0, &model, 4) * 0.99;

    let mut cases = Vec::new();
    let dfl =
        dfl_network(&DflConfig::default(), &LinkModel::default(), 2015).expect("DFL is connected");
    cases.push(run_case("dfl-16", dfl, lc, true));

    let rungs: &[usize] = if config.smoke { &[20, 40, 80] } else { &[20, 40, 80, 160, 320] };
    for &n in rungs {
        // Thin out dense rungs so edge counts (and LP columns) stay sane.
        let p = match n {
            _ if n <= 40 => 0.7,
            _ if n <= 80 => 0.3,
            _ if n <= 160 => 0.15,
            _ => 0.06,
        };
        let gcfg = RandomGraphConfig { n, link_probability: p, ..RandomGraphConfig::default() };
        let mut rng = StdRng::seed_from_u64(4242 + n as u64);
        let net = random_graph(&gcfg, &mut rng).expect("connected bench instance");
        cases.push(run_case(&format!("rand-{n}"), net, lc, n <= config.single_up_to));
    }
    cases
}

fn json_path(p: &PathStats) -> String {
    format!(
        "{{\"wall_ms\": {:.3}, \"lp_solves\": {}, \"pivots\": {}, \"cut_rounds\": {}, \
         \"sep_ms\": {:.3}, \"lp_ms\": {:.3}, \"decode_ms\": {:.3}, \"cold_fallbacks\": {}, \
         \"pool_hits\": {}, \"pool_scans\": {}, \"cuts_batched\": {}, \"seeds_pruned\": {}}}",
        p.wall_ms,
        p.lp_solves,
        p.pivots,
        p.cut_rounds,
        p.sep_ms,
        p.lp_ms,
        p.decode_ms,
        p.cold_fallbacks,
        p.pool_hits,
        p.pool_scans,
        p.cuts_batched,
        p.seeds_pruned
    )
}

fn json_ratio(r: Option<f64>) -> String {
    r.map_or("null".to_string(), |s| format!("{s:.2}"))
}

/// Serializes the results to the `BENCH_ira.json` schema (DESIGN.md §8).
///
/// Schema version 4 adds the `storm` block — the solve-service fleet's
/// throughput/p99 rung (see `serve_storm`) with its `all_typed` /
/// `no_leaked_workers` invariants. Version 3 added the cut-pool engine
/// counters (`pool_hits`, `pool_scans`, `cuts_batched`, `seeds_pruned`)
/// per path, the `single` baseline block with its `single_speedup` /
/// `round_ratio` comparisons, and the `same_tree` answer-identity check.
/// The retired cold-LP fields (`cold`, `speedup`) are no longer written;
/// `bench-check` ignores them in older files.
pub fn to_json(results: &BenchResults, smoke: bool) -> String {
    let cases = &results.cases;
    let mut out = String::from("{\n  \"suite\": \"bench-perf\",\n  \"schema_version\": 4,\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"cases\": [\n"));
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"m\": {}, \"warm\": {}, \"single\": {}, \
             \"single_speedup\": {}, \"round_ratio\": {}, \"same_tree\": {}}}{}\n",
            c.name,
            c.n,
            c.m,
            json_path(&c.warm),
            c.single.as_ref().map_or("null".to_string(), json_path),
            json_ratio(c.single_speedup()),
            json_ratio(c.round_ratio()),
            c.same_tree,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"storm\": {}\n}}\n", crate::serve_storm::to_json(&results.storm)));
    out
}

/// Renders the human-readable tables: the solver ladder, then the storm.
pub fn render(results: &BenchResults) -> String {
    format!("{}\n{}", render_cases(&results.cases), crate::serve_storm::render(&results.storm))
}

/// Renders the solver-ladder table alone.
pub fn render_cases(cases: &[CaseResult]) -> String {
    let mut t = Table::new([
        "case",
        "n",
        "m",
        "warm ms",
        "1-cut ms",
        "vs 1-cut",
        "rounds",
        "1-cut rnds",
        "pool hits",
        "batched",
        "pruned",
        "same tree",
    ]);
    for c in cases {
        t.push([
            c.name.clone(),
            c.n.to_string(),
            c.m.to_string(),
            f(c.warm.wall_ms, 1),
            c.single.map_or("-".into(), |p| f(p.wall_ms, 1)),
            c.single_speedup().map_or("-".into(), |s| format!("{s:.2}x")),
            c.warm.cut_rounds.to_string(),
            c.single.map_or("-".into(), |p| p.cut_rounds.to_string()),
            c.warm.pool_hits.to_string(),
            c.warm.cuts_batched.to_string(),
            c.warm.seeds_pruned.to_string(),
            if c.same_tree { "yes".into() } else { "NO".into() },
        ]);
    }
    format!("bench-perf — IRA solver trajectory (warm LP + cut-pool engine)\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_runs_and_serializes() {
        // The ladder alone: the storm rung has its own tests in
        // `serve_storm` and a small dedicated check below.
        let cases = run_cases(&Config::smoke());
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["dfl-16", "rand-20", "rand-40", "rand-80"]);
        for c in &cases {
            assert!(c.warm.wall_ms > 0.0);
            assert!(c.warm.lp_solves >= 1);
            assert!(c.warm.pivots > 0);
            assert!(c.warm.lp_ms > 0.0, "registry-backed LP stage timing is populated");
            assert!(c.warm.lp_ms <= c.warm.wall_ms, "a stage cannot exceed the whole");
            assert!(c.single.is_some(), "smoke rungs are all below single_up_to");
            assert!(c.same_tree, "{}: both paths must decode the same tree", c.name);
            let single = c.single.unwrap();
            assert!(single.cut_rounds >= c.warm.cut_rounds, "batching cannot add rounds");
            assert_eq!(single.pool_hits, 0, "the baseline never consults the pool");
        }
        let storm = crate::serve_storm::run(&crate::serve_storm::Config {
            requests: 20,
            distinct: 2,
            n: 16,
            ..crate::serve_storm::Config::fast()
        });
        let results = BenchResults { cases, storm };
        let json = to_json(&results, true);
        assert!(json.contains("\"suite\": \"bench-perf\""));
        assert!(json.contains("\"schema_version\": 4"));
        assert!(json.contains("\"smoke\": true"));
        assert!(json.contains("\"storm\": {\"requests\": 20"));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"no_leaked_workers\": true"));
        assert!(json.contains("\"name\": \"dfl-16\""));
        assert!(json.contains("\"pivots\""));
        assert!(json.contains("\"lp_ms\""));
        assert!(json.contains("\"decode_ms\""));
        assert!(json.contains("\"cold_fallbacks\""));
        assert!(json.contains("\"pool_hits\""));
        assert!(json.contains("\"cuts_batched\""));
        assert!(json.contains("\"seeds_pruned\""));
        assert!(json.contains("\"single_speedup\""));
        assert!(json.contains("\"round_ratio\""));
        assert!(json.contains("\"same_tree\": true"));
        // Valid JSON shape, end to end (the hand-rolled writer has no
        // serializer to lean on).
        assert!(wsn_obs::json::parse(&json).is_ok(), "BENCH json must parse:\n{json}");
        let table = render(&results);
        assert!(table.contains("1-cut"));
        assert!(table.contains("pool hits"));
        assert!(table.contains("p99 fresh-solve latency"));
    }

    #[test]
    fn counters_are_deterministic() {
        let a = run_cases(&Config::smoke());
        let b = run_cases(&Config::smoke());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.m, y.m);
            assert_eq!(x.warm.lp_solves, y.warm.lp_solves);
            assert_eq!(x.warm.pivots, y.warm.pivots);
            assert_eq!(x.warm.cut_rounds, y.warm.cut_rounds);
            assert_eq!(x.warm.pool_hits, y.warm.pool_hits);
            assert_eq!(x.warm.pool_scans, y.warm.pool_scans);
            assert_eq!(x.warm.cuts_batched, y.warm.cuts_batched);
            assert_eq!(x.warm.seeds_pruned, y.warm.seeds_pruned);
        }
    }
}
