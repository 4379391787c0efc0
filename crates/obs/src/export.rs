//! Snapshot and journal exporters: the Prometheus text exposition
//! format and a one-line-per-event journal rendering.

use crate::hist::bucket_high;
use crate::journal::{Event, EventKind};
use crate::registry::Snapshot;

/// Map a dotted metric key to a Prometheus-legal name: `[a-zA-Z0-9_:]`
/// survives, everything else (the dots, mainly) becomes `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format:
/// counters and gauges as single samples, histograms as cumulative
/// `_bucket{le="..."}` series (log2 boundaries, empty tail elided)
/// plus `_sum` and `_count`.
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
    }
    for (name, hist) in &snapshot.histograms {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let last = hist.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (b, &c) in hist.buckets.iter().enumerate().take(last + 1) {
            cumulative += c;
            out.push_str(&format!(
                "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_high(b)
            ));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", hist.count));
        out.push_str(&format!("{n}_sum {}\n", hist.sum));
        out.push_str(&format!("{n}_count {}\n", hist.count));
    }
    out
}

/// Render a journal window as one line per event:
/// `seq=12 t=1042ns span core.stream.round dur=991203ns` /
/// `seq=13 t=2044ns mark core.stream.round value=3`.
pub fn journal_text(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        match e.kind {
            EventKind::SpanEnd => out.push_str(&format!(
                "seq={} t={}ns span {} dur={}ns\n",
                e.seq, e.t_ns, e.name, e.dur_ns
            )),
            EventKind::Mark => out.push_str(&format!(
                "seq={} t={}ns mark {} value={}\n",
                e.seq, e.t_ns, e.name, e.value
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("simjoin.funnel.candidates").add(100);
        r.gauge("stream.resolver.live_hits").set(7);
        let h = r.histogram("durable.wal.fsync_ns");
        for v in [100u64, 200, 300, 50_000] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE simjoin_funnel_candidates counter"));
        assert!(text.contains("simjoin_funnel_candidates 100"));
        assert!(text.contains("stream_resolver_live_hits 7"));
        assert!(text.contains("# TYPE durable_wal_fsync_ns histogram"));
        assert!(text.contains("durable_wal_fsync_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("durable_wal_fsync_ns_count 4"));
        assert!(text.contains("durable_wal_fsync_ns_sum 50600"));
        // Cumulative bucket counts never decrease.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("durable_wal_fsync_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(prometheus_name("9bad.name-x"), "_9bad_name_x");
    }

    #[test]
    fn journal_text_renders_both_kinds() {
        let j = crate::Journal::new(8);
        j.push(EventKind::SpanEnd, "a.b.c", 10, 5, 0);
        j.push(EventKind::Mark, "a.b.d", 11, 0, 3);
        let text = journal_text(&j.events());
        assert!(text.contains("seq=0 t=10ns span a.b.c dur=5ns"));
        assert!(text.contains("seq=1 t=11ns mark a.b.d value=3"));
    }
}
