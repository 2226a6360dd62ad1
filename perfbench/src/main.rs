//! `perfbench` — the repository's workload benchmark.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-n160|batch-n40|service-n40|churn-n200> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed`, measures for `--seconds`,
//! checks every output, prints a human-readable table and, as its last
//! line, one JSON object. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs under a wall-clock `wsn-obs` trace collector, reports
//! the per-layer metrics, checks determinism and layer shares, and writes
//! the trace to `.bench_out/` for `obs-report hotspots`. The process exits
//! nonzero when any check fails. See `perfbench/README.md`.

mod churn;
mod layers;
mod service;
mod solve;
mod stats;

use layers::{Layers, CATALOG};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use wsn_model::{AggregationTree, NodeId};
use wsn_obs::{Clock, Obs};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Where traced runs write their JSONL traces, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    SolveN160,
    BatchN40,
    ServiceN40,
    ChurnN200,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::SolveN160, Workload::BatchN40, Workload::ServiceN40, Workload::ChurnN200];

    fn name(self) -> &'static str {
        match self {
            Workload::SolveN160 => "solve-n160",
            Workload::BatchN40 => "batch-n40",
            Workload::ServiceN40 => "service-n40",
            Workload::ChurnN200 => "churn-n200",
        }
    }
}

/// What a measured run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (solves, requests, link events, drains).
    pub attempted: u64,
    /// One message per failed operation or check.
    pub failures: Vec<String>,
    /// Latency of each successful operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Completed operations per second.
    pub throughput_per_s: f64,
    /// Mean paper cost `−1000·log₂ Q(T)` of the checked trees.
    pub tree_cost: f64,
    /// The workload's own end-to-end figures, for the table.
    pub headline: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
}

/// The deterministic fingerprint of a fixed slice of a workload.
#[derive(Debug, Default)]
pub struct Probe {
    pub counters: Vec<(String, u64)>,
    pub tree_cost: f64,
    pub wall_ms: f64,
    pub failures: Vec<String>,
}

/// A tree's parent vector, for exact tree comparison.
pub fn parents(t: &AggregationTree) -> Vec<Option<NodeId>> {
    (0..t.n()).map(|v| t.parent(NodeId::new(v))).collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// A workload's generated inputs (and, for the service, the started fleet).
enum Setup {
    Solve(solve::Spec, Vec<mrlc_core::MrlcInstance>),
    Service(service::Setup),
    Churn(churn::Setup),
}

impl Setup {
    fn new(w: Workload, seed: u64, seconds: f64) -> Setup {
        match w {
            Workload::SolveN160 => {
                Setup::Solve(solve::SOLVE_N160, solve::setup(&solve::SOLVE_N160, seed))
            }
            Workload::BatchN40 => {
                Setup::Solve(solve::BATCH_N40, solve::setup(&solve::BATCH_N40, seed))
            }
            Workload::ServiceN40 => Setup::Service(service::setup(seed, seconds)),
            Workload::ChurnN200 => Setup::Churn(churn::setup(seed)),
        }
    }

    /// A hash over every generated instance: equal seeds must give equal
    /// inputs, different seeds different ones.
    fn inputs_hash(&self) -> u64 {
        let hashes: Vec<u64> = match self {
            Setup::Solve(_, pool) => pool.iter().map(wsn_service::instance_hash).collect(),
            Setup::Service(s) => s.instances().map(wsn_service::instance_hash).collect(),
            Setup::Churn(s) => {
                let inst = mrlc_core::MrlcInstance::new(
                    s.network().clone(),
                    wsn_model::EnergyModel::PAPER,
                    solve::default_lc(),
                )
                .expect("valid instance");
                vec![wsn_service::instance_hash(&inst)]
            }
        };
        hashes.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
    }

    fn discard(self) {
        if let Setup::Service(s) = self {
            service::discard(s);
        }
    }

    fn probe(&self, seed: u64, obs: Arc<Obs>) -> Probe {
        match self {
            Setup::Solve(spec, pool) => solve::probe(spec, pool, obs),
            Setup::Service(s) => service::probe(s, seed, obs),
            Setup::Churn(s) => churn::probe(s, obs),
        }
    }

    fn run(self, seconds: f64, obs: Arc<Obs>) -> Outcome {
        match self {
            Setup::Solve(_, pool) => solve::run(&pool, seconds, obs),
            Setup::Service(s) => service::run(s, obs),
            Setup::Churn(s) => churn::run(&s, seconds, obs),
        }
    }
}

/// A JSON number with every digit; non-finite values are not numbers.
fn num(x: f64) -> Option<String> {
    x.is_finite().then(|| format!("{x:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let obs = if args.trace { Obs::with_trace(Clock::wall()) } else { Obs::detached() };

    // Set-up: generate the inputs (and start the service) several times;
    // keep the last and report the median time.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..repeats {
        let _g = wsn_obs::install(obs.clone());
        let t = Instant::now();
        let s = Setup::new(w, args.seed, args.seconds);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = setup.replace(s) {
            old.discard();
        }
    }
    let setup = setup.expect("at least one set-up");

    let mut checks = Vec::new();
    let mut probes = None;
    if args.trace {
        // Determinism: the same seed regenerates the same inputs and the
        // same counters (untraced and traced alike); the next seed does not
        // regenerate the same inputs.
        let again = Setup::new(w, args.seed, args.seconds);
        let next = Setup::new(w, args.seed.wrapping_add(1), args.seconds);
        if again.inputs_hash() != setup.inputs_hash() {
            checks.push("the same seed generated different inputs".to_string());
        }
        if next.inputs_hash() == setup.inputs_hash() {
            checks.push("a different seed generated the same inputs".to_string());
        }
        again.discard();
        next.discard();
        let plain = setup.probe(args.seed, Obs::detached());
        let traced = setup.probe(args.seed, Obs::with_trace(Clock::wall()));
        if plain.counters != traced.counters || plain.tree_cost != traced.tree_cost {
            checks.push(format!(
                "two runs of one seed disagree: {:?} cost {} vs {:?} cost {}",
                plain.counters, plain.tree_cost, traced.counters, traced.tree_cost
            ));
        }
        checks.extend(plain.failures.iter().chain(&traced.failures).cloned());
        probes = Some((plain, traced));
    }

    let mut out = setup.run(args.seconds, obs.clone());

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let trace = obs.trace_jsonl();
        let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", w.name(), args.seed);
        match std::fs::create_dir_all(TRACE_DIR).and_then(|_| std::fs::write(&path, &trace)) {
            Ok(()) => println!(
                "trace: {path} (render with `mrlc-experiments obs-report hotspots {path}`)"
            ),
            Err(e) => checks.push(format!("writing {path}: {e}")),
        }
        match wsn_obs::profile_trace(&trace) {
            Ok(profile) => {
                layers::lp_stages(&mut out.layers, &profile);
                println!("{}", profile.render(12));
            }
            Err(e) => checks.push(format!("trace does not profile: {e}")),
        }
        if let Some((plain, traced)) = &probes {
            out.layers.set("obs.overhead_pct", 100.0 * (traced.wall_ms / plain.wall_ms - 1.0));
        }
        if let Err(e) = layer_share(w, &out.layers) {
            checks.push(format!("layer-share check: {e}"));
        }
        println!("per-layer metrics ({}):", w.name());
        for (name, unit) in CATALOG {
            let v = out.layers.get(name);
            println!("  {name:<28} {v:>14.3} {unit}");
            metrics.push((name, v, unit));
        }
    } else {
        let lat = &out.latencies_ms;
        let rss = stats::peak_rss_mb();
        if rss.is_none() {
            out.failures.push("peak RSS is unavailable (/proc/self/status)".into());
        }
        metrics = vec![
            ("setup_s", stats::median(&setup_s), "s"),
            ("latency_p50_ms", stats::quantile(lat, 0.5), "ms"),
            ("latency_p90_ms", stats::quantile(lat, 0.9), "ms"),
            ("throughput_per_s", out.throughput_per_s, "1/s"),
            ("tree_cost", out.tree_cost, "cost"),
            ("peak_rss_mb", rss.unwrap_or(0.0), "MiB"),
        ];
        println!("end-to-end metrics ({}):", w.name());
        let failed_frac = (out.failures.len() as f64 / out.attempted.max(1) as f64).min(1.0);
        let table = metrics.iter().copied().chain(out.headline.iter().copied());
        for (name, v, unit) in table.chain([("failed_frac", failed_frac, "ratio")]) {
            println!("  {name:<28} {v:>14.4} {unit}");
        }
    }

    // A failed check counts as one more attempted and failed operation.
    let attempted = out.attempted.max(1) + checks.len() as u64;
    let failed = (out.failures.len() as u64 + checks.len() as u64).min(attempted);
    for f in out.failures.iter().chain(&checks).take(20) {
        eprintln!("FAILED: {f}");
    }
    let mut body = Vec::new();
    let mut correct = failed == 0;
    for (name, v, unit) in &metrics {
        let value = num(*v).unwrap_or_else(|| {
            correct = false;
            "0".into()
        });
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Asserts that a traced run loads the layer its workload claims to.
fn layer_share(w: Workload, l: &Layers) -> Result<(), String> {
    let g = |name| l.get(name);
    let (ok, claim) = match w {
        Workload::SolveN160 => (
            g("lp.busy_ms") >= 0.6 * g("ira.solve_ms"),
            "LP-bound (lp.busy_ms >= 60% of ira.solve_ms)",
        ),
        Workload::BatchN40 => {
            (g("sep.busy_ms") > g("lp.busy_ms"), "separation-bound (sep.busy_ms > lp.busy_ms)")
        }
        Workload::ServiceN40 => (
            g("svc.cache_hits") > 0.0 && g("svc.fresh_solves") > 0.0,
            "served from both the cache and fresh solves",
        ),
        Workload::ChurnN200 => (g("lp.pivots") == 0.0, "free of LP work (lp.pivots == 0)"),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{} should be {claim}; see the per-layer table", w.name()))
    }
}
