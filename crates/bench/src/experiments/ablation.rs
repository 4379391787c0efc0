//! Ablations of the design choices DESIGN.md calls out — beyond the
//! paper, quantifying what each component buys:
//!
//! 1. the top tier's min-outdegree tie-break (Algorithm 2, line 8),
//! 2. the bottom tier's bin-completion search vs plain first-fit-decreasing,
//! 3. Dawid–Skene EM vs majority vote under increasing spam,
//! 4. assignment replication (1 / 3 / 5) vs quality and cost.

use crate::harness;
use crowder::prelude::*;
use crowder_hitgen::TwoTieredConfig;
use crowder_packing::PackingConfig;

fn tiebreak_and_packing(dataset: &Dataset) -> AsciiTable {
    let mut table = AsciiTable::new([
        "tau",
        "full two-tiered",
        "no outdegree tie-break",
        "FFD-only packing",
    ]);
    for tau in [0.3, 0.2, 0.1] {
        let pairs = harness::pairs_at(dataset, tau);
        let count = |config: TwoTieredConfig| {
            TwoTieredGenerator::with_config(config)
                .generate(&pairs, 10)
                .expect("generation succeeds")
                .len()
        };
        table.row([
            format!("{tau:.1}"),
            count(TwoTieredConfig::default()).to_string(),
            count(TwoTieredConfig {
                disable_outdegree_tiebreak: true,
                ..Default::default()
            })
            .to_string(),
            count(TwoTieredConfig {
                packing: PackingConfig { ffd_only: true },
                ..Default::default()
            })
            .to_string(),
        ]);
    }
    table
}

fn aggregation_vs_spam(dataset: &Dataset) -> AsciiTable {
    let mut table = AsciiTable::new(["spammer fraction", "majority-vote F1", "Dawid-Skene F1"]);
    for spam in [0.0, 0.2, 0.4] {
        let pool = WorkerPopulation::generate(
            &PopulationConfig {
                spammer_fraction: spam,
                ..Default::default()
            },
            harness::CROWD_SEED,
        );
        let f1 = |aggregation: Aggregation| {
            let config = HybridConfig {
                likelihood_threshold: 0.2,
                cluster_size: 10,
                aggregation,
                ..HybridConfig::default()
            };
            let outcome = run_hybrid(dataset, &pool, &config).expect("workflow runs");
            pr_curve(&outcome.ranked, &dataset.gold).max_f1()
        };
        table.row([
            harness::pct(spam),
            format!("{:.3}", f1(Aggregation::MajorityVote)),
            format!("{:.3}", f1(Aggregation::DawidSkene)),
        ]);
    }
    table
}

fn replication_sweep(dataset: &Dataset) -> AsciiTable {
    let pool = harness::worker_pool(harness::CROWD_SEED);
    let mut table = AsciiTable::new(["assignments/HIT", "F1", "cost"]);
    for assignments in [1usize, 3, 5] {
        let config = HybridConfig {
            likelihood_threshold: 0.2,
            cluster_size: 10,
            crowd: CrowdConfig {
                assignments_per_hit: assignments,
                seed: harness::CROWD_SEED,
                ..CrowdConfig::default()
            },
            ..HybridConfig::default()
        };
        let outcome = run_hybrid(dataset, &pool, &config).expect("workflow runs");
        table.row([
            assignments.to_string(),
            format!("{:.3}", pr_curve(&outcome.ranked, &dataset.gold).max_f1()),
            format!("${:.2}", outcome.sim.cost_dollars),
        ]);
    }
    table
}

/// Run the ablation battery (on a mid-sized Product so the full battery
/// stays fast).
pub fn run() -> String {
    let mut out = harness::header(
        "Ablations: what each design choice buys",
        "dataset = Product (mid-size); k = 10; tau as stated",
    );
    let dataset = product(&ProductConfig {
        one_to_one: 400,
        one_to_two: 10,
        two_to_two: 3,
        unmatched_a: 10,
        unmatched_b: 5,
        family_probability: 0.45,
        seed: 4242,
    });
    out.push_str("1) HIT counts: tie-break and packing ablations (fewer is better)\n");
    out.push_str(&tiebreak_and_packing(&dataset).render());
    out.push_str("\n2) Aggregation robustness under spam (higher F1 is better)\n");
    out.push_str(&aggregation_vs_spam(&dataset).render());
    out.push_str("\n3) Assignment replication: quality vs cost\n");
    out.push_str(&replication_sweep(&dataset).render());
    out.push_str(
        "\nMeasured in 1): each ablation removes one piece of the full two-tiered\n\
         generator, the top tier's min-outdegree tie-break (Algorithm 2, line 8) or the\n\
         bottom tier's bin-completion search after FFD. Here at k = 10 the search saves\n\
         no HIT at any tau; the tie-break saves 1 HIT at tau 0.2 and costs 2 at tau 0.1.\n\
         Expected: EM's margin over majority vote grows with spam; replication 3 is the\n\
         paper's cost/quality sweet spot.\n",
    );
    out
}
