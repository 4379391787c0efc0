//! Machine-readable serving-layer benchmark: drives the concurrent
//! `ResolverService` through an N ingest × M query thread matrix and
//! writes `BENCH_serve.json` (see `crowder_bench::serveperf` for the
//! schema): sustained records/sec, query p50/p99, and backpressure
//! rejections per cell, recorded for replay — on 1-CPU machines the
//! matrix measures queueing, not parallel speedup.
//!
//! ```text
//! bench_serve [--quick] [--out PATH]   generate a report
//! bench_serve --check PATH             validate a report
//! ```
//!
//! `--quick` uses the Restaurant corpus and a reduced matrix (the CI
//! smoke configuration); the default uses Product. `--check` parses an
//! existing report and enforces the schema plus per-cell sanity,
//! exiting non-zero on any violation.

use crowder_bench::serveperf::{validate_serve_report_json, write_serve_report, SERVE_REPORT_PATH};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = SERVE_REPORT_PATH.to_string();
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--out needs a path"));
            }
            "--check" => {
                i += 1;
                check = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--check needs a path")),
                );
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if let Some(path) = check {
        let content = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        match validate_serve_report_json(&content) {
            Ok(cells) => println!("{path}: OK ({cells} matrix cells)"),
            Err(e) => die(&format!("{path}: validation failure: {e}")),
        }
        return;
    }

    let (corpus, dataset, matrix): (&str, _, &[(usize, usize)]) = if quick {
        (
            "restaurant",
            crowder_bench::harness::restaurant_full(),
            &[(1, 1), (2, 1)],
        )
    } else {
        (
            "product",
            crowder_bench::harness::product_full(),
            &[(1, 1), (2, 1), (2, 2), (4, 2)],
        )
    };
    let report = write_serve_report(&out, corpus, &dataset, matrix)
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    print!("{}", report.render());
    println!("\nwrote {out}");
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: bench_serve [--quick] [--out PATH] | --check PATH");
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
