//! Hierarchical self-profiling derived from span nesting.
//!
//! [`profile_trace`] walks a JSONL trace and aggregates time by *span
//! path* — the stack of span names from the root to the span — rather
//! than by bare name, so `ira-attempt;lp-solve;lp-primal` is attributed
//! separately from a hypothetical `lp-primal` reached some other way.
//! Per path it keeps the instance count, total (end − start) time, and
//! self time (total minus time covered by child spans). The result
//! renders two ways: a top-K hotspot table ([`Profile::render`]) and
//! flamegraph-compatible folded stacks ([`Profile::folded`], one
//! `a;b;c value` line per path, consumable by `flamegraph.pl` or
//! `inferno`).

use crate::json::{parse, Json};
use crate::report::validate_header;
use std::collections::{BTreeMap, HashMap};

/// Aggregate over every span instance sharing one root-to-leaf name path.
#[derive(Clone, Debug)]
pub struct HotPath {
    /// Span names from root to this span.
    pub path: Vec<String>,
    /// Instances closed on this path.
    pub count: u64,
    /// Sum of (end − start) over the instances.
    pub total: u64,
    /// Total minus time covered by child spans.
    pub self_time: u64,
}

/// A profiled trace: path-keyed aggregates plus bookkeeping.
#[derive(Clone, Debug)]
pub struct Profile {
    /// `"wall"` (nanoseconds) or `"virtual"` (ticks).
    pub clock: String,
    /// Path-sorted aggregates (lexicographic on the path).
    pub paths: Vec<HotPath>,
    /// Malformed or unknown record lines skipped.
    pub skipped: usize,
    /// Spans left open at end of input (truncated trace); their partial
    /// time is dropped.
    pub unclosed: usize,
}

struct OpenSpan {
    path: Vec<String>,
    start: u64,
    parent: Option<u64>,
    child_time: u64,
}

/// Profiles `text` (a JSONL trace from [`crate::Obs::trace_jsonl`] or a
/// [`crate::merge_traces`] output). Lenient on record lines — damage is
/// counted, not fatal — but a missing or malformed header is an error.
pub fn profile_trace(text: &str) -> Result<Profile, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty trace: missing header line")?;
    let clock = validate_header(header)?;

    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    let mut aggs: BTreeMap<Vec<String>, HotPath> = BTreeMap::new();
    let mut skipped = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Ok(rec) = parse(line) else {
            skipped += 1;
            continue;
        };
        let Some(t) = rec.get("t").and_then(Json::as_u64) else {
            skipped += 1;
            continue;
        };
        match rec.get("type").and_then(Json::as_str) {
            Some("span_start") => {
                let (Some(id), Some(name)) =
                    (rec.get("id").and_then(Json::as_u64), rec.get("name").and_then(Json::as_str))
                else {
                    skipped += 1;
                    continue;
                };
                let parent = rec.get("parent").and_then(Json::as_u64);
                let mut path = match parent.and_then(|p| open.get(&p)) {
                    Some(p) => p.path.clone(),
                    None => Vec::new(),
                };
                path.push(name.to_string());
                open.insert(id, OpenSpan { path, start: t, parent, child_time: 0 });
            }
            Some("span_end") => {
                let Some(span) =
                    rec.get("id").and_then(Json::as_u64).and_then(|id| open.remove(&id))
                else {
                    skipped += 1;
                    continue;
                };
                let dur = t.saturating_sub(span.start);
                if let Some(parent) = span.parent.and_then(|p| open.get_mut(&p)) {
                    parent.child_time += dur;
                }
                let agg = aggs.entry(span.path.clone()).or_insert_with(|| HotPath {
                    path: span.path.clone(),
                    count: 0,
                    total: 0,
                    self_time: 0,
                });
                agg.count += 1;
                agg.total += dur;
                agg.self_time += dur.saturating_sub(span.child_time);
            }
            Some("event") => {}
            _ => skipped += 1,
        }
    }
    let unclosed = open.len();
    Ok(Profile { clock, paths: aggs.into_values().collect(), skipped, unclosed })
}

impl Profile {
    /// Sum of self time over every path (the profiled "wall" of the trace).
    pub fn total_self(&self) -> u64 {
        self.paths.iter().map(|p| p.self_time).sum()
    }

    /// Fraction of the total time of spans named `name` that is covered by
    /// their direct child spans — i.e. how much of the stage is attributed
    /// to named sub-stages. `None` when no such span closed (or its total
    /// is zero).
    pub fn attributed_fraction(&self, name: &str) -> Option<f64> {
        let total: u64 = self
            .paths
            .iter()
            .filter(|p| p.path.last().map(String::as_str) == Some(name))
            .map(|p| p.total)
            .sum();
        if total == 0 {
            return None;
        }
        let children: u64 = self
            .paths
            .iter()
            .filter(|p| p.path.len() >= 2 && p.path[p.path.len() - 2] == name)
            .map(|p| p.total)
            .sum();
        Some(children as f64 / total as f64)
    }

    /// Folded-stack text: one `root;child;leaf self_time` line per path in
    /// lexicographic path order — the flamegraph collapse format.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            out.push_str(&format!("{} {}\n", p.path.join(";"), p.self_time));
        }
        out
    }

    /// Top-`top_k` hotspot table, ranked by self time descending (path
    /// lexicographic on ties). Deterministic for a deterministic trace.
    pub fn render(&self, top_k: usize) -> String {
        let unit = if self.clock == "virtual" { "ticks" } else { "ns" };
        let total_self = self.total_self().max(1);
        let mut ranked: Vec<&HotPath> = self.paths.iter().collect();
        ranked.sort_by(|a, b| b.self_time.cmp(&a.self_time).then_with(|| a.path.cmp(&b.path)));
        let mut out = format!(
            "hotspots: {} path(s), {} clock{}{}\n\n",
            self.paths.len(),
            self.clock,
            if self.skipped > 0 {
                format!(", {} line(s) skipped", self.skipped)
            } else {
                String::new()
            },
            if self.unclosed > 0 {
                format!(", {} span(s) unclosed", self.unclosed)
            } else {
                String::new()
            },
        );
        out.push_str(&format!(
            "{:>14} {:>14} {:>8} {:>7}  path\n",
            format!("self ({unit})"),
            format!("total ({unit})"),
            "count",
            "self%"
        ));
        for p in ranked.iter().take(top_k) {
            out.push_str(&format!(
                "{:>14} {:>14} {:>8} {:>6.1}%  {}\n",
                p.self_time,
                p.total,
                p.count,
                100.0 * p.self_time as f64 / total_self as f64,
                p.path.join(";")
            ));
        }
        if self.paths.len() > top_k {
            out.push_str(&format!("... and {} more path(s)\n", self.paths.len() - top_k));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::trace::{install, span, Obs};

    fn nested_trace() -> String {
        let obs = Obs::with_trace(Clock::virtual_ticks());
        let guard = install(obs.clone());
        {
            let _solve = span("lp-solve");
            {
                let _r = span("lp-dual-repair");
            }
            {
                let _p = span("lp-primal");
            }
        }
        {
            let _other = span("separation");
        }
        drop(guard);
        obs.trace_jsonl()
    }

    #[test]
    fn paths_nest_and_self_time_subtracts_children() {
        let profile = profile_trace(&nested_trace()).unwrap();
        assert_eq!(profile.clock, "virtual");
        assert_eq!(profile.skipped, 0);
        let find = |path: &[&str]| {
            profile
                .paths
                .iter()
                .find(|p| p.path.iter().map(String::as_str).collect::<Vec<_>>() == path)
                .unwrap_or_else(|| panic!("missing path {path:?}"))
        };
        let solve = find(&["lp-solve"]);
        let repair = find(&["lp-solve", "lp-dual-repair"]);
        let primal = find(&["lp-solve", "lp-primal"]);
        assert_eq!(solve.count, 1);
        assert_eq!(solve.self_time, solve.total - repair.total - primal.total);
        find(&["separation"]);
    }

    #[test]
    fn attribution_fraction_counts_direct_children() {
        let profile = profile_trace(&nested_trace()).unwrap();
        let f = profile.attributed_fraction("lp-solve").unwrap();
        assert!(f > 0.0 && f < 1.0, "partially attributed: {f}");
        assert!(
            profile.attributed_fraction("separation").is_none()
                || profile.attributed_fraction("separation") == Some(0.0),
            "leaf spans attribute nothing"
        );
        assert!(profile.attributed_fraction("nonexistent").is_none());
    }

    #[test]
    fn folded_output_is_flamegraph_shaped() {
        let profile = profile_trace(&nested_trace()).unwrap();
        let folded = profile.folded();
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("stack <space> value");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("numeric value");
        }
        assert!(folded.contains("lp-solve;lp-dual-repair "), "{folded}");
        assert_eq!(profile.folded(), folded, "deterministic");
    }

    #[test]
    fn render_ranks_by_self_time() {
        let profile = profile_trace(&nested_trace()).unwrap();
        let text = profile.render(10);
        assert!(text.contains("hotspots:"), "{text}");
        assert!(text.contains("lp-solve;lp-primal"), "{text}");
        let short = profile.render(1);
        assert!(short.contains("more path(s)"), "{short}");
    }

    #[test]
    fn profiler_requires_a_trace_header_but_tolerates_damage() {
        assert!(profile_trace("").is_err());
        assert!(profile_trace("{\"type\":\"event\",\"t\":1}\n").is_err());
        let text = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n\
                    garbage\n\
                    {\"type\":\"span_start\",\"id\":1,\"t\":1,\"name\":\"a\"}\n\
                    {\"type\":\"span_start\",\"id\":2,\"t\":2,\"name\":\"b\",\"parent\":1}\n\
                    {\"type\":\"span_end\",\"id\":2,\"t\":3}\n";
        let profile = profile_trace(text).unwrap();
        assert_eq!(profile.skipped, 1);
        assert_eq!(profile.unclosed, 1, "truncated outer span is reported");
        assert_eq!(profile.paths.len(), 1, "only the closed child aggregates");
        assert_eq!(profile.paths[0].path, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn profiles_merged_traces() {
        let mk = || {
            let obs = Obs::with_trace(Clock::virtual_ticks());
            let guard = install(obs.clone());
            {
                let _s = span("svc.job");
                let _inner = span("lp-solve");
            }
            drop(guard);
            obs.trace_jsonl()
        };
        let merged =
            crate::report::merge_traces(&[("w0".to_string(), mk()), ("w1".to_string(), mk())])
                .unwrap();
        let profile = profile_trace(&merged).unwrap();
        let job = profile
            .paths
            .iter()
            .find(|p| p.path == vec!["svc.job".to_string(), "lp-solve".to_string()])
            .unwrap();
        assert_eq!(job.count, 2);
    }
}
