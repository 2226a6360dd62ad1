//! Graph-algorithm substrate for the MRLC reproduction.
//!
//! The paper's algorithms lean on a handful of classical building blocks:
//!
//! * **minimum spanning trees** (the MST baseline \[18\] and the final
//!   integral step of IRA),
//! * **max-flow / min-cut** (the polynomial-time separation oracle for the
//!   subtour constraints, Theorem 1),
//! * **union-find, traversal, components** (support-graph bookkeeping in the
//!   cutting-plane loop),
//! * **reference spanning trees** (random / BFS / shortest-path trees used
//!   as AAML starting points and simulation workloads).
//!
//! All algorithms here are deterministic given their inputs (randomized
//! builders take an explicit RNG), which keeps experiments reproducible.

pub mod maxflow;
pub mod mst;
pub mod spanning;
pub mod traversal;
pub mod unionfind;

pub use maxflow::{FlowEdgeId, FlowNetwork};
pub use mst::{kruskal, mst_tree, prim, WeightedEdge};
pub use spanning::{bfs_tree, random_spanning_tree, shortest_path_tree};
pub use traversal::components;
pub use unionfind::UnionFind;
