//! The per-layer metric catalog and the readers that fill it from the
//! `wsn-obs` registry and from the profile of a wall-clock trace.

use crate::stats::histogram_quantile;
use std::collections::BTreeMap;
use wsn_obs::Obs;

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that does not load a layer reports that layer's metrics as 0.
pub const CATALOG: &[(&str, &str)] = &[
    ("ira.solve_ms", "ms"),
    ("ira.cut_rounds", "count"),
    ("ira.lp_solves", "count"),
    ("ira.cuts_added", "count"),
    ("ira.other_ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.busy_ms", "ms"),
    ("lp.share_pct", "%"),
    ("lp.us_per_pivot", "us"),
    ("lp.dual_repair_ms", "ms"),
    ("lp.primal_ms", "ms"),
    ("lp.cold_build_ms", "ms"),
    ("lp.warm_ratio", "ratio"),
    ("lp.cold_fallbacks", "count"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.pivots_per_solve_p99", "count"),
    ("sep.busy_ms", "ms"),
    ("sep.share_pct", "%"),
    ("sep.calls", "count"),
    ("sep.min_cut_seeds", "count"),
    ("sep.seeds_pruned", "count"),
    ("sep.pool_hits", "count"),
    ("sep.pool_scans", "count"),
    ("sep.violated_sets", "count"),
    ("sep.cuts_batched", "count"),
    ("sep.cuts_per_maxflow", "ratio"),
    ("sep.parallelism", "ratio"),
    ("maxflow.cpu_ms", "ms"),
    ("maxflow.us_p50", "us"),
    ("maxflow.us_p99", "us"),
    ("prufer.decode_ms", "ms"),
    ("prufer.encode_us", "us"),
    ("prufer.decode_us", "us"),
    ("proto.decide_us_p50", "us"),
    ("proto.flood_us_p50", "us"),
    ("proto.flood_us_p99", "us"),
    ("proto.frames", "count"),
    ("proto.frame_bytes", "bytes"),
    ("proto.change_ratio", "ratio"),
    ("proto.frames_per_change", "count"),
    ("proto.announce_ms", "ms"),
    ("svc.submit_us_p50", "us"),
    ("svc.submit_us_p99", "us"),
    ("svc.queue_depth_p50", "count"),
    ("svc.queue_depth_max", "count"),
    ("svc.queue_wait_ms", "ms"),
    ("svc.solved_ms_p50", "ms"),
    ("svc.solved_ms_p99", "ms"),
    ("svc.cache_hit_ratio", "ratio"),
    ("svc.cache_hits", "count"),
    ("svc.fresh_solves", "count"),
    ("svc.retries", "count"),
    ("svc.shed", "count"),
    ("svc.worker_restarts", "count"),
    ("svc.exact_share", "ratio"),
    ("svc.generator_lag_ms_p99", "ms"),
    ("svc.generator_lag_ms_max", "ms"),
    ("obs.overhead_pct", "%"),
];

/// Per-layer values of one traced run, keyed by catalog name.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(CATALOG.iter().any(|(n, _)| *n == name), "{name} is not in the catalog");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total wall time (ms) of the spans whose name is `name`, from the hotspot
/// profile of the collector's trace.
fn span_ms(profile: &wsn_obs::Profile, name: &str) -> f64 {
    let ns: u64 = profile
        .paths
        .iter()
        .filter(|p| p.path.last().is_some_and(|l| l == name))
        .map(|p| p.total)
        .sum();
    ns as f64 / 1e6
}

/// Fills the ira, lp, sep, maxflow and decode metrics from the counters
/// `solve_ira` published to `obs`. `solve_ms` is the summed wall time of
/// the `solve_ira` calls.
pub fn solver(l: &mut Layers, obs: &Obs, solve_ms: f64) {
    let reg = obs.registry();
    let c = |name: &str| reg.counter(name).get() as f64;
    let lp_ms = c("ira.lp_ns") / 1e6;
    let sep_ms = c("ira.sep_ns") / 1e6;
    let decode_ms = c("ira.decode_ns") / 1e6;
    let pivots = c("lp.pivots");
    l.set("ira.solve_ms", solve_ms);
    l.set("ira.cut_rounds", c("ira.cut_rounds"));
    l.set("ira.lp_solves", c("ira.lp_solves"));
    l.set("ira.cuts_added", c("ira.cuts_added"));
    l.set("ira.other_ms", solve_ms - lp_ms - sep_ms - decode_ms);
    l.set("lp.pivots", pivots);
    l.set("lp.busy_ms", lp_ms);
    l.set("lp.share_pct", 100.0 * ratio(lp_ms, solve_ms));
    l.set("lp.us_per_pivot", ratio(lp_ms * 1e3, pivots));
    l.set("lp.warm_ratio", ratio(c("lp.warm_solves"), c("lp.solves")));
    l.set("lp.cold_fallbacks", c("lp.cold_fallbacks"));
    l.set(
        "lp.pivots_per_solve_p99",
        histogram_quantile(&reg.histogram("lp.pivots_per_solve", &[1]), 0.99),
    );
    l.set("sep.busy_ms", sep_ms);
    l.set("sep.share_pct", 100.0 * ratio(sep_ms, solve_ms));
    // These are published under the same names.
    for name in [
        "sep.calls",
        "sep.min_cut_seeds",
        "sep.seeds_pruned",
        "sep.pool_hits",
        "sep.pool_scans",
        "sep.violated_sets",
        "sep.cuts_batched",
    ] {
        l.set(name, c(name));
    }
    l.set("sep.cuts_per_maxflow", ratio(c("ira.cuts_added"), c("sep.min_cut_seeds")));
    let maxflow_ms = c("sep.maxflow_ns") / 1e6;
    l.set("sep.parallelism", ratio(maxflow_ms, sep_ms));
    l.set("maxflow.cpu_ms", maxflow_ms);
    let mf = reg.histogram("sep.maxflow_us", &[1]);
    l.set("maxflow.us_p50", histogram_quantile(&mf, 0.5));
    l.set("maxflow.us_p99", histogram_quantile(&mf, 0.99));
    l.set("prufer.decode_ms", decode_ms);
}

/// Fills the LP sub-stage times, which exist only as spans inside
/// `wsn-lp`, from the hotspot profile of a traced run.
pub fn lp_stages(l: &mut Layers, profile: &wsn_obs::Profile) {
    l.set("lp.dual_repair_ms", span_ms(profile, "lp-dual-repair"));
    l.set("lp.primal_ms", span_ms(profile, "lp-primal"));
    l.set("lp.cold_build_ms", span_ms(profile, "lp-cold-build"));
}
