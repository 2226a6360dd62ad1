//! Separation oracle for the subtour constraints (Eq. 13).
//!
//! Given a fractional point `x` with `x(E(V)) = |V| − 1`, we must find a set
//! `S ⊆ V`, `|S| ≥ 2`, with `x(E(S)) > |S| − 1`, or certify none exists.
//!
//! Writing `w(v) = 1 − x(δ(v))/2` and using
//! `x(E(S)) = ½(Σ_{v∈S} x(δ(v)) − x(δ(S)))`, the violation functional is
//!
//! `|S| − 1 − x(E(S)) = Σ_{v∈S} w(v) + x(δ(S))/2 − 1`,
//!
//! a modular term plus a cut — minimized, for each forced seed `s ∈ S`, by
//! one s–t min-cut on an auxiliary network (the classical
//! project-selection transformation handles negative `w`). `S = V` attains
//! exactly 0 under the cardinality equality, so any value below `−tol`
//! certifies a genuine violation (Theorem 1 / \[12\]).
//!
//! # The separation engine
//!
//! [`SeedOracle`] is the stateful engine behind both entry points. The
//! auxiliary network's *topology* depends only on the instance `(n, edges)`
//! — the fractional point affects capacities alone — so the oracle keeps
//! one built network across calls. Each call re-declares only the
//! capacities that drifted beyond [`CAP_EPS`] (delta updates via
//! [`FlowNetwork::set_base_cap_undirected`]) instead of rebuilding it.
//!
//! The seeds share one **base flow**. Every seed network is the seedless
//! network (all `src → s` arcs at 0) with one arc opened to ∞, and raising
//! a source arc's capacity never makes an existing flow infeasible — the
//! monotonicity parametric max-flow rests on (Gallo, Grigoriadis & Tarjan
//! 1989). So the oracle solves the seedless network once per capacity
//! state and saves its residual with [`FlowNetwork::checkpoint`]; a seed
//! query then
//! [`FlowNetwork::restore`]s it, opens its arc and augments, and its flow
//! value is base + augment. This is exact: the flow value is the same as a
//! cold solve, and so is the reported set, because the nodes reachable
//! from `src` in the residual of any maximum flow form the unique
//! inclusion-minimal minimum cut. A capacity re-declared by a sync
//! invalidates the base. Seeds run serially on the one network, so the
//! output depends only on the instance, the point and the network's own
//! sync history — never on thread scheduling. Results are merged through a
//! `BTreeMap`, so the collection order is canonical.
//!
//! With pruning enabled ([`SeparationConfig::prune_seeds`]) three
//! sound short-circuits cut the per-call min-cut count well below `n`:
//!
//! * **component pre-check bound** — a violated set within a support
//!   component `C` needs `x(E(S)) > |S| − 1 ≥ 1`, and any violated set
//!   spanning several components implies a violated set inside one of
//!   them; components with `x(E(C)) ≤ 1 + tol` (singletons included:
//!   their mass is 0) therefore contain no violated set and all their
//!   seeds are skipped;
//! * **dense-pair shortcut** — a vertex pair whose aggregated edge mass
//!   exceeds `1 + tol` is itself a violated set and is reported without
//!   any min-cut;
//! * **covered-seed skip** — seeds already contained in a violated set
//!   found earlier this call are skipped. Coverage is updated once per
//!   fixed-width wave of [`SEED_CHUNK`] seeds, not after every seed.
//!
//! Skipping a covered seed can suppress *additional* violated sets, never
//! all of them: whenever a violated set exists, one within a single heavy
//! component exists, and that component's first uncovered seed finds a
//! violated set (or is covered because one was already found). The oracle
//! therefore still returns a nonempty result iff the point is infeasible.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use wsn_graph::{components, FlowEdgeId, FlowNetwork};
use wsn_obs::{Counter, Histogram, Registry};

/// Seeds are processed in waves of this width; violated sets found by
/// earlier waves veto covered seeds in later ones. The waves are what the
/// covered-seed skip is defined over: skipping per seed would run fewer
/// min-cuts but report fewer sets, and so change the cutting-plane
/// trajectory and every counter downstream of it.
const SEED_CHUNK: usize = 16;

/// Capacity drift below which a delta sync leaves an edge untouched.
const CAP_EPS: f64 = 1e-12;

/// An edge of the current LP together with its fractional value.
#[derive(Clone, Copy, Debug)]
pub struct FracEdge {
    /// Endpoint (dense index).
    pub u: usize,
    /// Endpoint (dense index).
    pub v: usize,
    /// LP value `x_e ∈ [0, 1]`.
    pub x: f64,
}

/// A violated subtour set together with its violation amount.
#[derive(Clone, Debug, PartialEq)]
pub struct ViolatedSet {
    /// Member nodes, sorted ascending.
    pub set: Vec<usize>,
    /// `x(E(S)) − (|S| − 1) > tol`.
    pub violation: f64,
}

/// How `CutLp` turns separated sets into LP rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutStrategy {
    /// Add exactly one (most violated) cut per round — the classical
    /// textbook loop, kept as the A/B baseline for benchmarks.
    SingleCut,
    /// Add the top-K most violated, non-nested cuts per round and park the
    /// rest in the cut pool for later reactivation.
    Batched,
}

/// Tuning knobs for the cut-pool separation engine (DESIGN.md §10).
#[derive(Clone, Copy, Debug)]
pub struct SeparationConfig {
    /// Row-addition policy per cut round.
    pub strategy: CutStrategy,
    /// Cap on cuts activated per round under [`CutStrategy::Batched`].
    pub max_cuts_per_round: usize,
    /// Keep separated-but-unactivated cuts in a pool and screen the pool
    /// against `x` (a dot-product scan, no maxflow) before calling the
    /// oracle.
    pub use_pool: bool,
    /// Enable the seed-pruning short-circuits (component pre-check bound,
    /// dense-pair shortcut, covered-seed skip).
    pub prune_seeds: bool,
    /// Deepen each oracle cut by violation-maximizing local search
    /// ([`strengthen`]) before batching it.
    pub strengthen_cuts: bool,
    /// Minimum violation gain a strengthening move must bring. Small
    /// margins absorb everything marginally attached and can bloat cuts;
    /// larger margins keep only decisive moves.
    pub strengthen_margin: f64,
}

impl Default for SeparationConfig {
    fn default() -> Self {
        SeparationConfig {
            strategy: CutStrategy::Batched,
            max_cuts_per_round: 64,
            use_pool: true,
            prune_seeds: true,
            strengthen_cuts: true,
            strengthen_margin: 0.25,
        }
    }
}

impl SeparationConfig {
    /// The pre-engine baseline: one cut per round, no pool, no pruning,
    /// no strengthening.
    pub fn single_cut() -> Self {
        SeparationConfig {
            strategy: CutStrategy::SingleCut,
            use_pool: false,
            prune_seeds: false,
            strengthen_cuts: false,
            ..SeparationConfig::default()
        }
    }
}

/// Counter handles for the oracle. The owner (`CutLp`, or the free
/// functions below) resolves these once from a metrics registry, so the
/// engine bumps plain `Arc` atomics instead of looking up an ambient
/// collector per seed.
#[derive(Clone, Debug)]
pub struct SepCounters {
    pub(crate) calls: Counter,
    pub(crate) min_cut_seeds: Counter,
    pub(crate) violated: Counter,
    pub(crate) seeds_pruned: Counter,
    /// Cumulative wall time inside maxflow calls: every base flow plus
    /// every seed's augment, so it covers all flow work of the oracle.
    pub(crate) maxflow_ns: Counter,
    /// Per-seed augment wall time (µs) — the profiler's attribution of
    /// oracle cost to individual seeds, not just the stage total. The
    /// shared base flow is in `maxflow_ns` only.
    pub(crate) maxflow_us: Histogram,
}

/// Per-seed maxflow wall-time buckets (µs, up to 100 ms then overflow).
const MAXFLOW_US_BUCKETS: &[u64] =
    &[10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000];

impl SepCounters {
    /// Resolves the `sep.*` handles from `reg`.
    pub fn from_registry(reg: &Registry) -> Self {
        SepCounters {
            calls: reg.counter("sep.calls"),
            min_cut_seeds: reg.counter("sep.min_cut_seeds"),
            violated: reg.counter("sep.violated_sets"),
            seeds_pruned: reg.counter("sep.seeds_pruned"),
            maxflow_ns: reg.counter("sep.maxflow_ns"),
            maxflow_us: reg.histogram("sep.maxflow_us", MAXFLOW_US_BUCKETS),
        }
    }

    fn ambient_or_detached() -> Self {
        SepCounters::from_registry(wsn_obs::current_or_detached().registry())
    }
}

/// Returns violated subtour sets (each as a sorted node list), or empty if
/// `x` satisfies every subtour constraint within `tol`.
///
/// The list is deduplicated and in canonical (sorted) order; each returned
/// `S` is verified to violate `x(E(S)) ≤ |S| − 1` by at least `tol` before
/// being reported.
///
/// This is a convenience wrapper that runs a throwaway [`SeedOracle`]
/// without seed pruning; long-lived callers (the cutting-plane loop) keep
/// their own oracle so the scratch network survives between calls.
pub fn violated_sets(n: usize, edges: &[FracEdge], tol: f64) -> Vec<Vec<usize>> {
    let counters = SepCounters::ambient_or_detached();
    let mut oracle = SeedOracle::new();
    oracle.separate(n, edges, tol, false, &counters).into_iter().map(|vs| vs.set).collect()
}

/// The reusable auxiliary network plus the edge ids needed to delta-update
/// and query it.
#[derive(Debug)]
struct SeedScratch {
    net: FlowNetwork,
    /// Per node `v`: `src → v` edge carrying `max(−w(v), 0)`.
    node_src: Vec<FlowEdgeId>,
    /// Per node `v`: `v → snk` edge carrying `max(w(v), 0)`.
    node_snk: Vec<FlowEdgeId>,
    /// Per instance edge: undirected edge carrying `x_e / 2`.
    graph_edges: Vec<FlowEdgeId>,
    /// Per seed `s`: `src → s` edge at 0, opened to ∞ for one query.
    seed_edges: Vec<FlowEdgeId>,
    /// The fractional point the capacities currently encode.
    last_x: Vec<f64>,
    last_w: Vec<f64>,
    /// Value of the seedless network's maximum flow, whose residual the
    /// network holds as its checkpoint; `None` until solved for the
    /// current capacities.
    base: Option<f64>,
    side: Vec<bool>,
}

impl SeedScratch {
    fn build(n: usize, edges: &[FracEdge], w: &[f64]) -> Self {
        let src = n;
        let snk = n + 1;
        let mut net = FlowNetwork::new(n + 2);
        // Both directions of every node weight are pre-declared (at most
        // one is nonzero at a time) so later sign flips of w(v) are plain
        // capacity updates, not topology changes.
        let node_src: Vec<FlowEdgeId> =
            (0..n).map(|v| net.add_edge(src, v, (-w[v]).max(0.0))).collect();
        let node_snk: Vec<FlowEdgeId> =
            (0..n).map(|v| net.add_edge(v, snk, w[v].max(0.0))).collect();
        // Every instance edge is declared even at x_e = 0: zero-capacity
        // edges carry no flow, and keeping them makes a later x_e > 0 a
        // capacity update too.
        let graph_edges: Vec<FlowEdgeId> =
            edges.iter().map(|e| net.add_undirected_edge(e.u, e.v, (e.x / 2.0).max(0.0))).collect();
        let seed_edges: Vec<FlowEdgeId> = (0..n).map(|s| net.add_edge(src, s, 0.0)).collect();
        SeedScratch {
            net,
            node_src,
            node_snk,
            graph_edges,
            seed_edges,
            last_x: edges.iter().map(|e| e.x).collect(),
            last_w: w.to_vec(),
            base: None,
            side: Vec::new(),
        }
    }

    /// Re-declares only the capacities that moved beyond [`CAP_EPS`]; any
    /// re-declaration invalidates the base flow.
    fn sync(&mut self, edges: &[FracEdge], w: &[f64]) {
        for (i, e) in edges.iter().enumerate() {
            if (e.x - self.last_x[i]).abs() > CAP_EPS {
                self.net.set_base_cap_undirected(self.graph_edges[i], (e.x / 2.0).max(0.0));
                self.last_x[i] = e.x;
                self.base = None;
            }
        }
        for (v, &wv) in w.iter().enumerate() {
            if (wv - self.last_w[v]).abs() > CAP_EPS {
                self.net.set_base_cap(self.node_src[v], (-wv).max(0.0));
                self.net.set_base_cap(self.node_snk[v], wv.max(0.0));
                self.last_w[v] = wv;
                self.base = None;
            }
        }
    }

    /// The seedless network's maximum flow value, solving and
    /// checkpointing it first if the capacities moved since the last one.
    /// The solve's wall time goes to `maxflow_ns`.
    fn base_flow(&mut self, counters: &SepCounters) -> f64 {
        if let Some(base) = self.base {
            return base;
        }
        let n = self.seed_edges.len();
        let start = Instant::now();
        self.net.reset();
        let base = self.net.max_flow(n, n + 1);
        self.net.checkpoint();
        counters.maxflow_ns.add(start.elapsed().as_nanos() as u64);
        self.base = Some(base);
        base
    }

    /// Maximum flow of the network with seed `s`'s arc open. Warm-starts
    /// from the base flow unless `cold`, which re-solves from zero (the
    /// reference the tests compare against).
    fn seed_flow(&mut self, s: usize, cold: bool, counters: &SepCounters) -> f64 {
        let n = self.seed_edges.len();
        let base = if cold {
            self.net.reset();
            0.0
        } else {
            let base = self.base_flow(counters);
            self.net.restore();
            base
        };
        self.net.set_cap(self.seed_edges[s], f64::INFINITY);
        let start = Instant::now();
        let augment = self.net.max_flow(n, n + 1);
        let elapsed = start.elapsed();
        counters.maxflow_ns.add(elapsed.as_nanos() as u64);
        counters.maxflow_us.observe(elapsed.as_micros() as u64);
        base + augment
    }
}

/// The stateful separation engine: one reusable auxiliary network keyed
/// to one instance topology, plus the pruned seeded-min-cut sweep.
///
/// Owned by `CutLp` so the network survives across cut rounds and IRA
/// shrink steps; a call with a different topology retargets transparently.
#[derive(Debug, Default)]
pub struct SeedOracle {
    n: usize,
    /// Edge endpoints of the instance the cached scratch was built for.
    sig: Vec<(usize, usize)>,
    scratch: Option<SeedScratch>,
    /// Solve every seed from zero instead of from the base flow: the
    /// reference the warm path is tested against.
    #[cfg(test)]
    cold_seeds: bool,
}

impl Clone for SeedOracle {
    fn clone(&self) -> Self {
        // The scratch is an allocation cache, not state: clones start cold.
        SeedOracle { n: self.n, sig: self.sig.clone(), ..SeedOracle::default() }
    }
}

impl SeedOracle {
    /// Creates an engine with no cached network.
    pub fn new() -> Self {
        SeedOracle::default()
    }

    /// Drops the cached scratch if the instance topology changed.
    fn retarget(&mut self, n: usize, edges: &[FracEdge]) {
        let matches = self.n == n
            && self.sig.len() == edges.len()
            && self.sig.iter().zip(edges).all(|(&(u, v), e)| u == e.u && v == e.v);
        if !matches {
            self.n = n;
            self.sig = edges.iter().map(|e| (e.u, e.v)).collect();
            self.scratch = None;
        }
    }

    /// The cached scratch, delta-synced to the point `(edges, w)`, or a
    /// fresh one.
    fn synced_scratch(&mut self, edges: &[FracEdge], w: &[f64]) -> &mut SeedScratch {
        match &mut self.scratch {
            Some(sc) => sc.sync(edges, w),
            None => self.scratch = Some(SeedScratch::build(self.n, edges, w)),
        }
        self.scratch.as_mut().expect("scratch was just synced or built")
    }

    /// Runs the separation oracle against the fractional point `edges`,
    /// reusing (and delta-updating) the cached network.
    ///
    /// Returns every violated set found — sorted members, canonical
    /// collection order, verified violation — or empty iff `x` satisfies
    /// all subtour constraints within `tol`. `prune` enables the seed
    /// short-circuits described in the module docs; they never change the
    /// empty/nonempty verdict, only how many distinct sets one call
    /// reports.
    pub fn separate(
        &mut self,
        n: usize,
        edges: &[FracEdge],
        tol: f64,
        prune: bool,
        counters: &SepCounters,
    ) -> Vec<ViolatedSet> {
        counters.calls.inc();
        self.retarget(n, edges);
        let mut found: BTreeMap<Vec<usize>, f64> = BTreeMap::new();

        // --- Pre-check: components of the support graph. ---
        let support: Vec<(usize, usize)> =
            edges.iter().filter(|e| e.x > tol).map(|e| (e.u, e.v)).collect();
        let (labels, k) = components(n, support.iter().copied());
        let mut comp_mass = vec![0.0f64; k];
        let mut comp_size = vec![0usize; k];
        for e in edges {
            if labels[e.u] == labels[e.v] {
                comp_mass[labels[e.u]] += e.x;
            }
        }
        for v in 0..n {
            comp_size[labels[v]] += 1;
        }
        if k > 1 {
            for comp in 0..k {
                let viol = comp_mass[comp] - (comp_size[comp] as f64 - 1.0);
                if comp_size[comp] >= 2 && viol > tol {
                    let set: Vec<usize> = (0..n).filter(|&v| labels[v] == comp).collect();
                    found.insert(set, viol);
                }
            }
            if !found.is_empty() {
                counters.violated.add(found.len() as u64);
                return collect(found);
            }
        }

        // --- Pruning pre-passes. ---
        let mut covered = vec![false; n];
        let mut pruned = 0u64;
        if prune {
            // Dense pairs: aggregated mass above 1 + tol is a violation of
            // the two-element subtour bound, no min-cut needed.
            let mut pair_mass: HashMap<(usize, usize), f64> = HashMap::new();
            for e in edges {
                if e.u != e.v {
                    *pair_mass.entry((e.u.min(e.v), e.u.max(e.v))).or_insert(0.0) += e.x;
                }
            }
            for (&(u, v), &m) in &pair_mass {
                if m > 1.0 + tol {
                    found.insert(vec![u, v], m - 1.0);
                    covered[u] = true;
                    covered[v] = true;
                }
            }
        }

        // --- Exact oracle: one min-cut per surviving seed. ---
        // Node weights w(v) = 1 − x(δ(v))/2.
        let mut half_deg = vec![0.0f64; n];
        for e in edges {
            half_deg[e.u] += e.x / 2.0;
            half_deg[e.v] += e.x / 2.0;
        }
        let w: Vec<f64> = (0..n).map(|v| 1.0 - half_deg[v]).collect();
        let p_neg: f64 = w.iter().filter(|&&x| x < 0.0).sum();

        #[cfg(test)]
        let cold = self.cold_seeds;
        #[cfg(not(test))]
        let cold = false;
        let sc = self.synced_scratch(edges, &w);
        let mut run_seed = |s: usize| -> Option<ViolatedSet> {
            counters.min_cut_seeds.inc();
            let flow = sc.seed_flow(s, cold, counters);
            let min_f = p_neg + flow - 1.0;
            if min_f >= -tol {
                return None;
            }
            let side = &mut sc.side;
            sc.net.min_cut_source_side_into(n, side);
            let size = side[..n].iter().filter(|&&b| b).count();
            if size < 2 || size >= n {
                return None;
            }
            // x(E(S)) summed in edge order, as `violation` does.
            let internal: f64 = edges.iter().filter(|e| side[e.u] && side[e.v]).map(|e| e.x).sum();
            let viol = internal - (size as f64 - 1.0);
            (viol > tol).then(|| ViolatedSet {
                set: (0..n).filter(|&v| side[v]).collect(),
                violation: viol,
            })
        };

        let mut wave = Vec::with_capacity(SEED_CHUNK);
        for first in (0..n).step_by(SEED_CHUNK) {
            for s in first..(first + SEED_CHUNK).min(n) {
                let skip = prune && (comp_mass[labels[s]] <= 1.0 + tol || covered[s]);
                if skip {
                    pruned += 1;
                } else if let Some(vs) = run_seed(s) {
                    wave.push(vs);
                }
            }
            for vs in wave.drain(..) {
                for &v in &vs.set {
                    covered[v] = true;
                }
                found.insert(vs.set, vs.violation);
            }
        }
        counters.violated.add(found.len() as u64);
        counters.seeds_pruned.add(pruned);
        collect(found)
    }
}

fn collect(found: BTreeMap<Vec<usize>, f64>) -> Vec<ViolatedSet> {
    found.into_iter().map(|(set, violation)| ViolatedSet { set, violation }).collect()
}

/// Violation-maximizing local strengthening of a separated set.
///
/// Every `S ⊆ V` yields a valid subtour row, so a separated set may be
/// traded for any deeper one. Greedy moves with strictly positive gain:
/// absorbing `v ∉ S` changes the violation by `x(v : S) − 1`, shedding
/// `v ∈ S` by `1 − x(v : S∖{v})` — the pass applies the best move until
/// none gains more than `eps`. Deeper cuts stay violated across more LP
/// reoptimizations, which is what lets the batched engine retire the
/// cutting loop in fewer rounds (DESIGN.md §10). Violation never
/// decreases, so a violated input stays violated. Returns the sorted set.
pub fn strengthen(n: usize, edges: &[FracEdge], set: &[usize], eps: f64) -> Vec<usize> {
    let mut in_set = vec![false; n];
    for &v in set {
        in_set[v] = true;
    }
    let mut size = set.len();
    // mass[v] = Σ x_e over edges between v and S∖{v}.
    let mut mass = vec![0.0f64; n];
    for e in edges {
        if e.u != e.v {
            if in_set[e.v] {
                mass[e.u] += e.x;
            }
            if in_set[e.u] {
                mass[e.v] += e.x;
            }
        }
    }
    // Each applied move raises the violation by at least `eps`, and the
    // violation is bounded by the total edge mass, so this terminates; the
    // explicit cap is belt-and-braces against float drift.
    for _ in 0..2 * n {
        let mut best = eps;
        let mut pick: Option<(usize, bool)> = None; // (node, absorb?)
        for v in 0..n {
            if in_set[v] {
                if size > 2 && 1.0 - mass[v] > best {
                    best = 1.0 - mass[v];
                    pick = Some((v, false));
                }
            } else if mass[v] - 1.0 > best {
                best = mass[v] - 1.0;
                pick = Some((v, true));
            }
        }
        let Some((v, absorb)) = pick else { break };
        in_set[v] = absorb;
        size = if absorb { size + 1 } else { size - 1 };
        for e in edges {
            if e.u == e.v {
                continue;
            }
            let delta = if absorb { e.x } else { -e.x };
            if e.u == v {
                mass[e.v] += delta;
            } else if e.v == v {
                mass[e.u] += delta;
            }
        }
    }
    (0..n).filter(|&v| in_set[v]).collect()
}

/// `x(E(S)) − (|S| − 1)`: positive means `S` violates the subtour bound.
pub fn violation(edges: &[FracEdge], set: &[usize]) -> f64 {
    let in_set: std::collections::HashSet<usize> = set.iter().copied().collect();
    let internal: f64 =
        edges.iter().filter(|e| in_set.contains(&e.u) && in_set.contains(&e.v)).map(|e| e.x).sum();
    internal - (set.len() as f64 - 1.0)
}

/// As [`violation`], for a **sorted** set, via binary search — the
/// allocation-free form the cut pool's screening scan uses.
pub fn violation_sorted(edges: &[FracEdge], set: &[usize]) -> f64 {
    debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
    let member = |v: usize| set.binary_search(&v).is_ok();
    let internal: f64 = edges.iter().filter(|e| member(e.u) && member(e.v)).map(|e| e.x).sum();
    internal - (set.len() as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(u: usize, v: usize, x: f64) -> FracEdge {
        FracEdge { u, v, x }
    }

    fn detached_counters() -> (std::sync::Arc<wsn_obs::Obs>, SepCounters) {
        let obs = wsn_obs::Obs::detached();
        let counters = SepCounters::from_registry(obs.registry());
        (obs, counters)
    }

    #[test]
    fn spanning_tree_point_has_no_violation() {
        // A path with x = 1 on each edge satisfies all subtour constraints.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(2, 3, 1.0)];
        assert!(violated_sets(4, &edges, 1e-7).is_empty());
    }

    #[test]
    fn integral_cycle_detected() {
        // Triangle with all ones plus isolated vertex covered by edge mass
        // elsewhere: x(E({0,1,2})) = 3 > 2.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(2, 3, 0.0)];
        let sets = violated_sets(4, &edges, 1e-7);
        assert!(!sets.is_empty());
        assert!(sets.iter().any(|s| s == &vec![0, 1, 2]));
    }

    #[test]
    fn fractional_violation_detected() {
        // x = 2/3 on each triangle edge: x(E(S)) = 2 > |S| − 1 = 2? No —
        // equals exactly 2... use 0.75: 2.25 > 2.
        let edges = vec![fe(0, 1, 0.75), fe(1, 2, 0.75), fe(0, 2, 0.75), fe(0, 3, 0.75)];
        let sets = violated_sets(4, &edges, 1e-7);
        assert!(sets.iter().any(|s| s == &vec![0, 1, 2]));
    }

    #[test]
    fn fractional_tight_is_not_violated() {
        // Exactly 2/3 each: x(E(S)) = 2 = |S| − 1; must NOT be reported.
        let x = 2.0 / 3.0;
        let edges = vec![fe(0, 1, x), fe(1, 2, x), fe(0, 2, x), fe(0, 3, 1.0)];
        let sets = violated_sets(4, &edges, 1e-6);
        assert!(sets.is_empty(), "tight sets are feasible: {sets:?}");
    }

    #[test]
    fn disconnected_support_flagged_by_precheck() {
        // Two cliques, each with too much internal mass; total = n−1 = 5.
        let edges = vec![
            fe(0, 1, 1.0),
            fe(1, 2, 1.0),
            fe(0, 2, 1.0), // component {0,1,2}: mass 3 > 2
            fe(3, 4, 1.0),
            fe(4, 5, 1.0), // component {3,4,5}: mass 2 = 2 (tight, fine)
        ];
        let sets = violated_sets(6, &edges, 1e-7);
        assert!(sets.iter().any(|s| s == &vec![0, 1, 2]));
    }

    #[test]
    fn violation_helper() {
        let edges = vec![fe(0, 1, 0.9), fe(1, 2, 0.9), fe(0, 2, 0.9)];
        assert!((violation(&edges, &[0, 1, 2]) - 0.7).abs() < 1e-12);
        assert!((violation(&edges, &[0, 1]) - (-0.1)).abs() < 1e-12);
        assert!((violation_sorted(&edges, &[0, 1, 2]) - 0.7).abs() < 1e-12);
        assert!((violation_sorted(&edges, &[0, 1]) - (-0.1)).abs() < 1e-12);
    }

    #[test]
    fn engine_reports_violation_amounts() {
        let (_obs, counters) = detached_counters();
        let edges = vec![fe(0, 1, 0.9), fe(1, 2, 0.9), fe(0, 2, 0.9), fe(0, 3, 0.3)];
        let mut oracle = SeedOracle::new();
        let sets = oracle.separate(4, &edges, 1e-7, false, &counters);
        let tri = sets.iter().find(|vs| vs.set == vec![0, 1, 2]).expect("triangle separated");
        assert!((tri.violation - 0.7).abs() < 1e-9, "got {}", tri.violation);
    }

    #[test]
    fn scratch_store_survives_and_retargets() {
        let (_obs, counters) = detached_counters();
        let edges = vec![fe(0, 1, 0.9), fe(1, 2, 0.9), fe(0, 2, 0.9), fe(0, 3, 0.3)];
        let mut oracle = SeedOracle::new();
        let first = oracle.separate(4, &edges, 1e-7, false, &counters);
        assert!(oracle.scratch.is_some(), "the call leaves its network cached");

        // Same topology, different point: the cached network is reused via
        // delta updates and must answer exactly like a fresh oracle.
        let moved = vec![fe(0, 1, 0.75), fe(1, 2, 0.75), fe(0, 2, 0.75), fe(0, 3, 0.75)];
        let warm = oracle.separate(4, &moved, 1e-7, false, &counters);
        let fresh = SeedOracle::new().separate(4, &moved, 1e-7, false, &counters);
        assert_eq!(warm, fresh);
        assert_ne!(warm, first);

        // New topology: the oracle retargets (old network dropped) and
        // answers like a fresh oracle again.
        let other = vec![fe(0, 1, 0.9), fe(1, 2, 0.9), fe(0, 2, 0.9), fe(2, 3, 0.3)];
        let retargeted = oracle.separate(4, &other, 1e-7, false, &counters);
        assert!(oracle.scratch.is_some());
        assert_eq!(retargeted, SeedOracle::new().separate(4, &other, 1e-7, false, &counters));
    }

    #[test]
    fn component_bound_prunes_light_components_and_singletons() {
        let (obs, counters) = detached_counters();
        // No support component is violated *as a whole* (so the
        // disconnected-support pre-check falls through), but component
        // {0,1,2,3} hides a violated triangle. The light pendant pair
        // {4,5} (mass 0.8 ≤ 1) and the singleton {6} (mass 0) are pruned
        // by the component bound without a single min-cut.
        let edges = vec![
            fe(0, 1, 0.9),
            fe(1, 2, 0.9),
            fe(0, 2, 0.9),
            fe(2, 3, 0.2), // component mass 2.9 ≤ |C| − 1 = 3: not violated
            fe(4, 5, 0.8),
        ];
        let mut oracle = SeedOracle::new();
        let sets = oracle.separate(7, &edges, 1e-7, true, &counters);
        assert!(sets.iter().any(|vs| vs.set == vec![0, 1, 2]));
        // Seeds 4, 5 (light component) and 6 (singleton) pruned; all seven
        // seeds fit one wave, so the four heavy-component seeds all run.
        assert_eq!(obs.registry().counter("sep.seeds_pruned").get(), 3);
        assert_eq!(obs.registry().counter("sep.min_cut_seeds").get(), 4);
    }

    #[test]
    fn dense_pair_shortcut_avoids_min_cuts_for_its_nodes() {
        let (obs, counters) = detached_counters();
        // Connected support (single component, so the component pre-check
        // does not intercept). Aggregated (0,1) mass 1.2 > 1 triggers the
        // dense-pair shortcut; seeds 0 and 1 are covered by the found set
        // and only seed 2 runs a min-cut.
        let edges = vec![fe(0, 1, 0.6), fe(0, 1, 0.6), fe(1, 2, 0.8)];
        let mut oracle = SeedOracle::new();
        let sets = oracle.separate(3, &edges, 1e-7, true, &counters);
        assert!(sets.iter().any(|vs| vs.set == vec![0, 1]));
        let pair = sets.iter().find(|vs| vs.set == vec![0, 1]).unwrap();
        assert!((pair.violation - 0.2).abs() < 1e-9);
        assert_eq!(obs.registry().counter("sep.min_cut_seeds").get(), 1);
        assert_eq!(obs.registry().counter("sep.seeds_pruned").get(), 2);
    }

    #[test]
    fn dense_pair_shortcut_needs_strict_excess() {
        let (_obs, counters) = detached_counters();
        // Pair mass exactly 1.0 is tight, not violated.
        let edges = vec![fe(0, 1, 0.5), fe(0, 1, 0.5), fe(1, 2, 1.0)];
        let mut oracle = SeedOracle::new();
        let sets = oracle.separate(3, &edges, 1e-7, true, &counters);
        assert!(sets.is_empty(), "tight pair must not be reported: {sets:?}");
    }

    #[test]
    fn covered_seed_skip_crosses_waves() {
        let (obs, counters) = detached_counters();
        // One connected component spanning 18 nodes (> SEED_CHUNK), with a
        // heavy triangle at {15,16,17}. Wave 1 (seeds 0..16) finds the
        // triangle via seed 15; wave 2's seeds 16 and 17 are covered and
        // skipped. The connecting path is light (0.1) so the component
        // stays heavy only through the triangle.
        let mut edges: Vec<FracEdge> = (0..15).map(|v| fe(v, v + 1, 0.1)).collect();
        edges.push(fe(15, 16, 0.9));
        edges.push(fe(16, 17, 0.9));
        edges.push(fe(15, 17, 0.9));
        let mut oracle = SeedOracle::new();
        let sets = oracle.separate(18, &edges, 1e-7, true, &counters);
        assert!(sets.iter().any(|vs| vs.set == vec![15, 16, 17]));
        assert_eq!(obs.registry().counter("sep.seeds_pruned").get(), 2, "wave-2 seeds covered");
        assert_eq!(obs.registry().counter("sep.min_cut_seeds").get(), 16);
    }

    #[test]
    fn strengthening_absorbs_a_heavily_attached_neighbor() {
        // Triangle {0,1,2} at x = 1 plus node 3 attached with mass 1.8:
        // absorbing it gains 0.8 > margin, raising the violation 1.0 → 1.8.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(0, 3, 0.9), fe(1, 3, 0.9)];
        let deep = strengthen(4, &edges, &[0, 1, 2], 0.25);
        assert_eq!(deep, vec![0, 1, 2, 3]);
        assert!((violation(&edges, &deep) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn strengthening_sheds_a_weakly_attached_member() {
        // Node 3 hangs off the violated triangle by mass 0.3: shedding it
        // gains 0.7, and the pendant edge to node 4 never matters.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(2, 3, 0.3), fe(3, 4, 0.4)];
        let deep = strengthen(5, &edges, &[0, 1, 2, 3], 0.25);
        assert_eq!(deep, vec![0, 1, 2]);
        assert!(violation(&edges, &deep) > violation(&edges, &[0, 1, 2, 3]));
    }

    #[test]
    fn strengthening_with_no_gaining_move_is_identity() {
        // Every outside node is attached by well under 1 + margin and every
        // member holds more than 1 − margin inside: no move fires.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(2, 3, 0.5)];
        assert_eq!(strengthen(4, &edges, &[0, 1, 2], 0.25), vec![0, 1, 2]);
    }

    #[test]
    fn strengthening_never_shrinks_below_a_pair() {
        // A violated pair with nothing worth absorbing stays a pair even
        // though both members hold less than 1 − margin... they cannot:
        // the shed guard requires |S| > 2.
        let edges = vec![fe(0, 1, 0.6), fe(0, 1, 0.6), fe(1, 2, 0.8)];
        let deep = strengthen(3, &edges, &[0, 1], 0.25);
        assert!(deep.len() >= 2);
        assert!(violation(&edges, &deep) >= violation(&edges, &[0, 1]) - 1e-12);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Brute-force check over all subsets (n ≤ 7).
        fn brute_violated(n: usize, edges: &[FracEdge], tol: f64) -> bool {
            (0u32..(1 << n)).any(|mask| {
                if mask.count_ones() < 2 {
                    return false;
                }
                let set: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
                violation(edges, &set) > tol
            })
        }

        /// Normalizes raw proptest edge tuples into a point with total mass
        /// `n − 1` (the cardinality equality the oracle assumes); `None`
        /// when the draw can't be normalized into [0, 1] values.
        fn normalized(n: usize, raw: Vec<(usize, usize, u32)>) -> Option<Vec<FracEdge>> {
            let mut edges: Vec<FracEdge> = raw
                .into_iter()
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, x)| fe(u.min(v), u.max(v), x as f64 / 100.0))
                .collect();
            if edges.is_empty() {
                return None;
            }
            let mass: f64 = edges.iter().map(|e| e.x).sum();
            if mass <= 1e-6 {
                return None;
            }
            let scale = (n as f64 - 1.0) / mass;
            for e in &mut edges {
                e.x *= scale;
            }
            edges.iter().all(|e| e.x <= 1.0 + 1e-9).then_some(edges)
        }

        /// The oracle with every seed solved from zero (reset, then one
        /// full max-flow) instead of from the shared base flow.
        fn cold_reference(
            n: usize,
            edges: &[FracEdge],
            tol: f64,
            prune: bool,
            counters: &SepCounters,
        ) -> Vec<ViolatedSet> {
            let mut oracle = SeedOracle { cold_seeds: true, ..SeedOracle::new() };
            oracle.separate(n, edges, tol, prune, counters)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn oracle_agrees_with_brute_force(
                raw in proptest::collection::vec((0usize..6, 0usize..6, 0u32..=100), 5..14)
            ) {
                let n = 6;
                let Some(edges) = normalized(n, raw) else { return Ok(()) };
                let tol = 1e-6;
                let sets = violated_sets(n, &edges, tol);
                let brute = brute_violated(n, &edges, tol);
                if brute {
                    // The oracle must find at least one genuinely violated set.
                    prop_assert!(!sets.is_empty(), "oracle missed a violation");
                }
                for s in &sets {
                    prop_assert!(violation(&edges, s) > tol, "bogus set {s:?}");
                }
            }

            #[test]
            fn pruned_oracle_matches_brute_force_verdict(
                raw in proptest::collection::vec((0usize..6, 0usize..6, 0u32..=100), 5..14)
            ) {
                let n = 6;
                let Some(edges) = normalized(n, raw) else { return Ok(()) };
                let tol = 1e-6;
                let (_obs, counters) = detached_counters();
                let sets = SeedOracle::new().separate(n, &edges, tol, true, &counters);
                let brute = brute_violated(n, &edges, tol);
                prop_assert_eq!(!sets.is_empty(), brute,
                    "pruning changed the feasibility verdict");
                for vs in &sets {
                    prop_assert!(violation(&edges, &vs.set) > tol, "bogus set {:?}", vs.set);
                    prop_assert!((violation(&edges, &vs.set) - vs.violation).abs() < 1e-9);
                }
            }

            #[test]
            fn warm_seed_flows_match_the_cold_reference(
                raw in proptest::collection::vec(
                    (0usize..9, 0usize..9, 0u32..=100, 0u32..=100), 8..24),
                prune in any::<bool>(),
            ) {
                let n = 9;
                let first = raw.iter().map(|&(u, v, x, _)| (u, v, x)).collect();
                let second = raw.iter().map(|&(u, v, _, x)| (u, v, x)).collect();
                let (Some(a), Some(b)) = (normalized(n, first), normalized(n, second)) else {
                    return Ok(());
                };
                let (_obs, counters) = detached_counters();
                let tol = 1e-6;
                let mut warm = SeedOracle::new();
                let sets = warm.separate(n, &a, tol, prune, &counters);
                prop_assert_eq!(&sets, &cold_reference(n, &a, tol, prune, &counters));

                // Same topology, another point: the delta-synced network
                // (and its re-solved base flow) answers like a fresh one.
                let synced = warm.separate(n, &b, tol, prune, &counters);
                prop_assert_eq!(&synced, &SeedOracle::new().separate(n, &b, tol, prune, &counters));
                prop_assert_eq!(&synced, &cold_reference(n, &b, tol, prune, &counters));
            }

            #[test]
            fn strengthening_is_monotone_and_well_formed(
                raw in proptest::collection::vec((0usize..7, 0usize..7, 0u32..=100), 6..18),
                mask in 3u32..(1 << 7),
                margin in 1u32..50,
            ) {
                let n = 7;
                let Some(edges) = normalized(n, raw) else { return Ok(()) };
                let set: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
                if set.len() < 2 {
                    return Ok(());
                }
                let deep = strengthen(n, &edges, &set, margin as f64 / 100.0);
                prop_assert!(deep.len() >= 2);
                prop_assert!(deep.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
                prop_assert!(
                    violation(&edges, &deep) >= violation(&edges, &set) - 1e-9,
                    "strengthening lowered the violation: {set:?} -> {deep:?}"
                );
            }
        }
    }

    #[test]
    fn forty_cycle_is_separated() {
        // x = 1 on every edge of a 40-cycle violates the subtour bound on
        // the full... no — S = V attains exactly 0; put the cycle on a
        // 39-node subset and attach the last node by a fractional edge so
        // total mass is n − 1. Forty seeds span three waves.
        let n = 40usize;
        let mut edges: Vec<FracEdge> = (0..n - 1).map(|v| fe(v, (v + 1) % (n - 1), 1.0)).collect();
        // mass so far = 39 = n − 1; steal mass from one cycle edge for the
        // attachment so the equality still holds.
        edges[0].x = 0.5;
        edges.push(fe(0, n - 1, 0.5));
        let sets = violated_sets(n, &edges, 1e-7);
        let expected: Vec<usize> = (0..n - 1).collect();
        assert!(sets.iter().any(|s| s == &expected), "cycle must be separated");
        let (_obs, counters) = detached_counters();
        let cold = SeedOracle { cold_seeds: true, ..SeedOracle::new() }
            .separate(n, &edges, 1e-7, false, &counters);
        assert_eq!(sets, cold.into_iter().map(|vs| vs.set).collect::<Vec<_>>());
    }
}
