//! End-to-end benchmark of the CrowdER pipeline.
//!
//! ```text
//! crowder-perfbench --workload <batch-hybrid|stream-giant|serve-open>
//!                   --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! A run generates its inputs from `--seed`, sets up (three times, to
//! report the median set-up time), measures its workload for about
//! `--seconds`, checks the outputs, and prints its workload properties,
//! its metrics by name with their units, and as the last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the benchmark records a span around every call it makes into a
//! layer, writes the spans and the per-layer self-time table under
//! `--out`, and reports the per-layer metrics. The exit code is 0 only
//! if every check passed.

mod batch;
mod corpus;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crowder_obs::json::JsonRow;

use crate::trace::Span;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// The per-layer metrics every traced run reports, with their units.
/// `*.share` is a call's summed self time over the measured wall time;
/// counts are per job (batch-hybrid), per round (stream-giant) or per
/// batch (serve-open). A layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("simjoin.tokenize.share", "fraction"),
    ("simjoin.join.share", "fraction"),
    ("simjoin.candidates", "count"),
    ("simjoin.verified", "count"),
    ("simjoin.results", "count"),
    ("simjoin.yield", "ratio"),
    ("hitgen.generate.share", "fraction"),
    ("hitgen.hits", "count"),
    ("hitgen.pairs_per_hit", "ratio"),
    ("crowd.simulate.share", "fraction"),
    ("crowd.assignments", "count"),
    ("aggregate.dawid_skene.share", "fraction"),
    ("core.self.share", "fraction"),
    ("stream.insert.share", "fraction"),
    ("stream.rerank_insert.share", "fraction"),
    ("stream.candidates_per_insert", "ratio"),
    ("stream.query.share", "fraction"),
    ("stream.remove.share", "fraction"),
    ("stream.update.share", "fraction"),
    ("stream.evidence.share", "fraction"),
    ("stream.regen.share", "fraction"),
    ("stream.dirty_clusters", "count"),
    ("stream.hits_created", "count"),
    ("stream.splits", "count"),
    ("serve.submit.share", "fraction"),
    ("serve.resolve.share", "fraction"),
    ("serve.queue_depth", "count"),
    ("serve.rejected", "count"),
    ("durable.fsync.share", "fraction"),
    ("durable.wal.batch_ops", "ratio"),
    ("durable.wal.bytes_per_record", "ratio"),
    ("durable.preload.setup_share", "fraction"),
    ("durable.recover.setup_share", "fraction"),
    ("obs.trace_overhead", "ratio"),
    ("obs.coverage", "fraction"),
];

/// How far the traced run's summed layer self time may be from its
/// wall time, as a share of it.
pub const COVERAGE_TOLERANCE: f64 = 0.1;

/// Set-ups per run; the run reports their median.
pub const SETUPS: usize = 9;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed or refused (the error rate's
    /// numerator and denominator).
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each set-up, seconds.
    pub setups_s: Vec<f64>,
    /// `throughput_per_s`, `latency_p50_ms`, `latency_tail_ms`.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The workload's own metrics under their workload-specific names.
    pub detail: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs); missing ones read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Properties of the input the layers' costs depend on.
    pub props: Vec<(&'static str, String)>,
    /// Output checks; any error fails the run.
    pub checks: Vec<(&'static str, Result<(), String>)>,
    /// Traced runs: the measured wall time and every span.
    pub trace: Option<(u64, Vec<Span>)>,
}

impl Outcome {
    pub fn prop(&mut self, name: &'static str, value: impl ToString) {
        self.props.push((name, value.to_string()));
    }

    pub fn check(&mut self, name: &'static str, result: Result<(), String>) {
        self.checks.push((name, result));
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.detail.push((name, value, unit));
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "batch-hybrid" => batch::run(&args),
        "stream-giant" => stream::run(&args),
        "serve-open" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        if let Some((wall_ns, spans)) = out.trace.take() {
            let coverage = *out
                .layers
                .entry("obs.coverage")
                .or_insert_with(|| trace::coverage(&spans, wall_ns));
            out.prop("spans", spans.len());
            for ((layer, name), row) in trace::table(&spans) {
                out.props.push((
                    "layer_self_time",
                    format!(
                        "{layer} {name}: {} calls, {:.3} ms self, {:.4} of wall",
                        row.calls,
                        row.self_ns as f64 / 1e6,
                        row.self_ns as f64 / wall_ns.max(1) as f64
                    ),
                ));
            }
            // Where one thread makes every call, the layers' self times
            // must account for the measured wall time.
            if args.workload != "serve-open" {
                out.check(
                    "trace_coverage_within_10_percent",
                    if (coverage - 1.0).abs() <= COVERAGE_TOLERANCE {
                        Ok(())
                    } else {
                        Err(format!(
                            "layer self time covers {coverage:.3} of the wall time"
                        ))
                    },
                );
            }
            out.trace = Some((wall_ns, spans));
        }
        for (name, unit) in PER_LAYER {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
    } else {
        let setup = stats::median(&out.setups_s);
        let own: BTreeMap<&str, f64> = out.end_to_end.iter().copied().collect();
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => setup,
                "peak_rss_mb" => peak_rss_mb(),
                _ => own.get(name).copied().unwrap_or(f64::NAN),
            };
            metrics.push((name, value, unit));
        }
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    out.check(
        "metrics_measured",
        if finite {
            Ok(())
        } else {
            Err("a metric could not be measured".into())
        },
    );

    for (name, value) in &out.props {
        println!("property {name} = {value}");
    }
    for (name, value, unit) in &out.detail {
        println!("metric {name} = {value:.6} {unit}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let mut correct = true;
    for (name, result) in &out.checks {
        match result {
            Ok(()) => println!("check {name}: ok"),
            Err(e) => {
                correct = false;
                println!("check {name}: FAILED: {e}");
            }
        }
    }
    if let Err(e) = write_records(&args, &out, &metrics, correct) {
        eprintln!("perfbench: writing the run record failed: {e}");
        correct = false;
    }
    println!(
        "elapsed {:.3} s (workload {}, seed {}, trace {})",
        started.elapsed().as_secs_f64(),
        args.workload,
        args.seed,
        args.trace as u8
    );
    if !finite {
        eprintln!("perfbench: a metric could not be measured");
        return ExitCode::from(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| metric_json(n, *v, u))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Write the run record (properties, metrics, checks) and, for a
/// traced run, the spans with the per-layer self-time table.
fn write_records(
    args: &Args,
    out: &Outcome,
    metrics: &[(&str, f64, &str)],
    correct: bool,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let rows = out
        .props
        .iter()
        .map(|(n, v)| JsonRow::new().str("property", n).str("value", v).build())
        .chain(out.detail.iter().chain(metrics).map(|(n, v, u)| {
            JsonRow::new()
                .str("metric", n)
                .num(
                    "value",
                    if v.is_finite() {
                        v.to_string()
                    } else {
                        "null".into()
                    },
                )
                .str("unit", u)
                .build()
        }))
        .chain(out.checks.iter().map(|(n, r)| {
            JsonRow::new()
                .str("check", n)
                .str("result", r.as_ref().err().map_or("ok", |e| e.as_str()))
                .build()
        }));
    let record = crowder_obs::json::JsonReport::new()
        .str("workload", &args.workload)
        .num("seed", args.seed)
        .num("trace", args.trace as u8)
        .num("correct", correct as u8)
        .num("attempted", out.attempted)
        .num("failed", out.failed)
        .rows("rows", rows)
        .build();
    std::fs::write(args.out.join(format!("{tag}.json")), record)?;
    if let Some((wall_ns, spans)) = &out.trace {
        let file = args
            .out
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(
            file,
            trace::render(&args.workload, args.seed, *wall_ns, spans),
        )?;
    }
    Ok(())
}
