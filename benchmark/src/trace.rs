//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A query's
//! spans share its sequence number: root `query` → `plan`, one `subquery`
//! per partial result (child `node.proc`, placed at arrival − `proc_s`),
//! `merge`. Control spans (`store_batch`, `set_p`) have no parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the start of the measured window.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Sequence number of the query (or control operation) it belongs to.
    pub query: u64,
}

/// The run's span store, shared by the client and control tasks.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Append one operation's spans; `parent` indices are relative to
    /// `local` and are rebased onto the shared list.
    pub fn record(&self, local: Vec<Span>) {
        let mut all = self.spans.lock().expect("tracer poisoned");
        let base = all.len();
        all.extend(local.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("tracer poisoned")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (parallel
/// sub-queries) and may stick out of the parent; overlap is counted once
/// and the excess is clipped.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_us, spans[p].end_us);
            let (a, b) = (s.start_us.max(lo), s.end_us.min(hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

/// Total duration and self time per span name, microseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times_us(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_us - s.start_us;
        e.2 += self_us;
    }
    out
}

/// The trace file: every span, plus the per-name totals for a quick look.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"us since measured window start\", \"by_name\": {{"
    );
    for (i, (name, (count, total, self_us))) in totals_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"count\": {count}, \"total_us\": {total:.1}, \"self_us\": {self_us:.1}}}"
        );
    }
    out.push_str("}, \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}, \"query\": {}}}{sep}",
            s.name, s.start_us, s.end_us, s.query
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: a,
            end_us: b,
            parent,
            query: 1,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // query 0..100; plan 0..10; two parallel sub-queries 10..60 and
        // 30..90 (overlap 30..60); merge 90..100
        let spans = vec![
            span("query", 0.0, 100.0, None),
            span("plan", 0.0, 10.0, Some(0)),
            span("subquery", 10.0, 60.0, Some(0)),
            span("subquery", 30.0, 90.0, Some(0)),
            span("merge", 90.0, 100.0, Some(0)),
            span("node.proc", 40.0, 85.0, Some(3)),
        ];
        let selfs = self_times_us(&spans);
        // children cover 0..100 entirely
        assert_eq!(selfs[0], 0.0);
        assert_eq!(selfs[1], 10.0);
        assert_eq!(selfs[2], 50.0);
        // 60 long, node.proc covers 45 of it
        assert_eq!(selfs[3], 15.0);
        assert_eq!(selfs[5], 45.0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_keeps_gaps() {
        let spans = vec![
            span("query", 10.0, 50.0, None),
            span("subquery", 0.0, 20.0, Some(0)), // sticks out on the left
            span("subquery", 30.0, 70.0, Some(0)), // and on the right
            span("subquery", 80.0, 90.0, Some(0)), // entirely outside
        ];
        // covered: 10..20 and 30..50 → self = 40 − 30
        assert_eq!(self_times_us(&spans)[0], 10.0);
    }

    #[test]
    fn record_rebases_parents() {
        let t = Tracer::default();
        t.record(vec![span("set_p", 0.0, 1.0, None)]);
        t.record(vec![
            span("query", 0.0, 5.0, None),
            span("plan", 0.0, 1.0, Some(0)),
        ]);
        let spans = t.into_spans();
        assert_eq!(spans[2].parent, Some(1));
        let json = to_json("w", 13, &spans);
        assert!(json.contains("\"name\": \"plan\""));
        assert!(json.contains("\"parent\": 1"));
        assert_eq!(totals_by_name(&spans)["query"], (1, 5.0, 4.0));
    }
}
