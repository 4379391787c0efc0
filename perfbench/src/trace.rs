//! The traced run's span recorder. The benchmark wraps each call it
//! makes into a layer's public functions in a span; spans stay in
//! memory and are written once when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crowder_obs::json::{JsonReport, JsonRow};

/// Layer name of the benchmark's own grouping spans (a round, a job's
/// checks). Their self time is the benchmark's glue, so coverage
/// leaves them out.
pub const BENCH: &str = "bench";

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The job, round or batch the call served.
    pub request: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread when on; a pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    last: Option<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(on: bool, origin: Instant, thread: u32) -> Self {
        Tracer {
            on,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            last: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. Spans opened by `f` through the tracer it
    /// receives become children of this one.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        self.last = Some(id);
        out
    }

    /// Rename the span closed last, once its call's report shows which
    /// kind of call it was.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(id) = self.last {
            self.spans[id].name = name;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merge per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Row {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The per-layer self-time table, keyed by `(layer, name)`.
pub fn table(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Row> {
    let mut rows: BTreeMap<_, Row> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry((s.layer, s.name)).or_default();
        row.calls += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += own;
    }
    rows
}

/// Summed self time of every layer span (the benchmark's own grouping
/// spans excluded) over `wall_ns`.
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let layered: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.layer != BENCH)
        .map(|(_, own)| own)
        .sum();
    layered as f64 / wall_ns.max(1) as f64
}

/// The trace file: every span, then the self-time table with each
/// row's share of `wall_ns`.
pub fn render(workload: &str, seed: u64, wall_ns: u64, spans: &[Span]) -> String {
    let rows = table(spans);
    JsonReport::new()
        .str("workload", workload)
        .num("seed", seed)
        .num("wall_ns", wall_ns)
        .rows(
            "layers",
            rows.iter().map(|((layer, name), r)| {
                JsonRow::new()
                    .str("layer", layer)
                    .str("name", name)
                    .num("calls", r.calls)
                    .num("total_ns", r.total_ns)
                    .num("self_ns", r.self_ns)
                    .num("self_share", r.self_ns as f64 / wall_ns.max(1) as f64)
                    .build()
            }),
        )
        .rows(
            "spans",
            spans.iter().enumerate().map(|(i, s)| {
                JsonRow::new()
                    .num("id", i)
                    .str("layer", s.layer)
                    .str("name", s.name)
                    .num("start_ns", s.start_ns)
                    .num("end_ns", s.end_ns)
                    .num("parent", s.parent.map_or(-1, |p| p as i64))
                    .num("request", s.request)
                    .num("thread", s.thread)
                    .build()
            }),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "l",
            name: "n",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // 0: [0, 100] with children 1: [10, 40] and 2: [50, 70];
        // 1 has a grandchild 3: [20, 30], which counts against 1 only.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 70, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10, 60] and [40, 80] cover [10, 80]; a child that
        // overhangs the parent's end is clipped to it.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_coverage_skips_bench_spans() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let v = t.span(BENCH, "round", 7, |t| {
            t.span("stream", "insert", 7, |_| 1) + t.span("stream", "remove", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let rows = table(&spans);
        assert_eq!(rows[&("stream", "insert")].calls, 1);
        // Layer spans' self time never exceeds the root's wall time.
        let wall = spans[0].duration_ns();
        assert!(coverage(&spans, wall) <= 1.0);
        // An untraced recorder passes calls through and keeps nothing.
        let mut off = Tracer::new(false, Instant::now(), 0);
        assert_eq!(off.span("stream", "insert", 0, |_| 5), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span(0, 10, None), span(1, 2, Some(0))];
        let b = vec![span(0, 10, None), span(3, 4, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
    }
}
