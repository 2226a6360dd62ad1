//! `churn-n200`: link-degradation churn handled by the Prüfer update
//! protocol, starting from the MST tree of one random network.
//!
//! Each event degrades the link from a random node to its current parent.
//! The node decides locally (`ProtocolState::handle_link_worse`); a parent
//! change is then flooded to every replica through
//! `DistributedNetwork::parent_change`. A pass replays a fixed, seed-derived
//! event list from the initial state, so every pass ends on the same tree.

use crate::layers::Layers;
use crate::stats::{another_pass_fits, median, ms_since, quantile, BestOf};
use crate::{parents, Outcome, Probe};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use wsn_model::{AggregationTree, EnergyModel, Network, NodeId, PaperCost};
use wsn_obs::Obs;
use wsn_proto::{DistributedNetwork, Message, ProtocolState};
use wsn_testbed::{random_graph, RandomGraphConfig};

const N: usize = 200;
const P: f64 = 0.05;
/// Link events per pass.
const EVENTS: usize = 2000;
/// Each event multiplies the link's PRR by this factor.
const DEGRADE: f64 = 0.8;
/// Events in the determinism probe.
const PROBE_EVENTS: usize = 500;

pub struct Setup {
    net: Network,
    tree: AggregationTree,
    /// The node whose parent link degrades, per event.
    events: Vec<NodeId>,
    /// The replicas after the initial announce (cloned for each pass).
    replicas: DistributedNetwork,
}

impl Setup {
    /// The generated network, as an instance (for input fingerprints).
    pub fn network(&self) -> &Network {
        &self.net
    }
}

pub fn setup(seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let gcfg = RandomGraphConfig { n: N, link_probability: P, ..RandomGraphConfig::default() };
    let net = random_graph(&gcfg, &mut rng).expect("connected churn network");
    let tree = wsn_graph::mst_tree(&net).expect("MST of a connected network");
    let events = (0..EVENTS).map(|_| NodeId::new(rng.random_range(1..N))).collect();
    let mut replicas = DistributedNetwork::new(N);
    replicas.announce(&tree).expect("MST announce");
    Setup { net, tree, events, replicas }
}

/// What one pass over (a prefix of) the event list produced.
#[derive(Default)]
struct Pass {
    update_ms: Vec<f64>,
    decide_us: Vec<f64>,
    flood_us: Vec<f64>,
    changes: usize,
    frames: usize,
    tree_cost: f64,
    failures: Vec<String>,
}

fn pass(s: &Setup, events: usize) -> Pass {
    let mut net = s.net.clone();
    let mut state = ProtocolState::new(&s.tree, crate::solve::default_lc(), EnergyModel::PAPER)
        .expect("MST is Prüfer-codable");
    let mut replicas = s.replicas.clone();
    let mut out = Pass::default();
    for (k, &child) in s.events.iter().take(events).enumerate() {
        let parent = state.coded().parent(child).expect("non-sink node has a parent");
        let e = net.find_edge(child, parent).expect("tree link exists");
        net.set_prr(e, net.link(e).prr().degraded(DEGRADE));

        let t0 = Instant::now();
        let outcome = {
            let _s = wsn_obs::span("ProtocolState::handle_link_worse");
            state.handle_link_worse(&net, child)
        };
        let decided = Instant::now();
        if outcome.changes > 0 {
            let new_parent = state.coded().parent(child).expect("re-homed node has a parent");
            let sent = {
                let _s = wsn_obs::span("DistributedNetwork::parent_change");
                replicas.parent_change(child, new_parent)
            };
            match sent {
                Ok(frames) => out.frames += frames,
                Err(e) => out.failures.push(format!("event {k}: parent_change: {e:?}")),
            }
            out.changes += 1;
        }
        let done = Instant::now();
        out.update_ms.push((done - t0).as_secs_f64() * 1e3);
        out.decide_us.push((decided - t0).as_secs_f64() * 1e6);
        if outcome.changes > 0 {
            out.flood_us.push((done - decided).as_secs_f64() * 1e6);
        }
        if !replicas.is_consistent() {
            out.failures.push(format!("event {k}: replicas diverged"));
        } else if parents(&replicas.tree()) != parents(&state.tree()) {
            out.failures.push(format!("event {k}: replica tree differs from the protocol state"));
        }
    }
    out.tree_cost = PaperCost::of_tree(&net, &state.tree()).0;
    out
}

/// Replays the first events under `obs` and returns the deterministic
/// counts the run must reproduce.
pub fn probe(s: &Setup, obs: Arc<Obs>) -> Probe {
    let _g = wsn_obs::install(obs.clone());
    let t = Instant::now();
    let p = pass(s, PROBE_EVENTS);
    let mut probe = Probe { wall_ms: ms_since(t), tree_cost: p.tree_cost, ..Probe::default() };
    probe.counters.push(("proto.frames".into(), p.frames as u64));
    probe.counters.push(("proto.changes".into(), p.changes as u64));
    probe.counters.push(("lp.pivots".into(), obs.registry().counter("lp.pivots").get()));
    probe.failures = p.failures;
    probe
}

/// Runs whole passes until another would overrun `seconds` (at least one
/// pass). Each event reports its fastest update over the passes.
pub fn run(s: &Setup, seconds: f64, obs: Arc<Obs>) -> Outcome {
    let traced = obs.tracing_enabled();
    let _g = wsn_obs::install(obs.clone());
    let mut out = Outcome::default();
    let mut best = BestOf::new(EVENTS);
    let mut all = Pass::default();
    let mut announce_ms = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        if traced {
            // The initial announce is set-up work; the traced run times it
            // once per pass on a fresh replica set.
            let mut fresh = DistributedNetwork::new(N);
            let t = Instant::now();
            let _s = wsn_obs::span("DistributedNetwork::announce");
            let _ = fresh.announce(&s.tree);
            announce_ms.push(ms_since(t));
        }
        let mut p = pass(s, EVENTS);
        if out.attempted == 0 {
            out.tree_cost = p.tree_cost;
        }
        out.attempted += EVENTS as u64;
        for (k, &ms) in p.update_ms.iter().enumerate() {
            best.record(k, ms);
        }
        all.decide_us.append(&mut p.decide_us);
        all.flood_us.append(&mut p.flood_us);
        all.changes += p.changes;
        all.frames += p.frames;
        out.failures.append(&mut p.failures);
        if !another_pass_fits(start, pass_start.elapsed(), seconds) {
            break;
        }
    }
    out.throughput_per_s = best.throughput();
    out.latencies_ms = best.latencies_ms();
    let frames_per_change = all.frames as f64 / all.changes.max(1) as f64;
    let lat_us: Vec<f64> = out.latencies_ms.iter().map(|ms| ms * 1e3).collect();
    out.headline.push(("update_p50_us", quantile(&lat_us, 0.5), "us"));
    out.headline.push(("update_p99_us", quantile(&lat_us, 0.99), "us"));
    out.headline.push(("messages_per_update", frames_per_change, "count"));

    if traced {
        let change_frame = Message::ParentChange {
            epoch: 0,
            seq: 0,
            child: NodeId::new(1),
            new_parent: NodeId::SINK,
        }
        .encoded_len();
        let mut l = Layers::default();
        l.set("proto.decide_us_p50", median(&all.decide_us));
        l.set("proto.flood_us_p50", median(&all.flood_us));
        l.set("proto.flood_us_p99", quantile(&all.flood_us, 0.99));
        l.set("proto.frames", all.frames as f64);
        l.set("proto.frame_bytes", (all.frames * change_frame) as f64);
        l.set("proto.change_ratio", all.changes as f64 / out.attempted as f64);
        l.set("proto.frames_per_change", frames_per_change);
        l.set("proto.announce_ms", median(&announce_ms));
        l.set("lp.pivots", obs.registry().counter("lp.pivots").get() as f64);
        out.layers = l;
    }
    out
}
