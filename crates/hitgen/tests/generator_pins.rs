//! Pins the exact HIT lists of every cluster generator on the paper's
//! two datasets: for Restaurant and Product at τ ∈ {0.2, 0.3} and
//! k ∈ {4, 10}, the HIT count and an order-sensitive digest of the HIT
//! list of Random and Approximation (fixed seeds), BFS, DFS and
//! Two-tiered (both Algorithm 2 tie-break modes).
//!
//! A change to the generators' data structures must leave every pin
//! as it is: the figures of §7.2 and every downstream digest depend on
//! the exact HITs, not just their number. A change that moves a pin on
//! purpose re-pins it and says why.

use crowder_datagen::{product, restaurant, ProductConfig, RestaurantConfig};
use crowder_hitgen::{
    ApproxGenerator, BfsGenerator, ClusterGenerator, DfsGenerator, Hit, RandomGenerator,
    TwoTieredConfig, TwoTieredGenerator,
};
use crowder_simjoin::{prefix_join, TokenTable};
use crowder_types::{Dataset, Pair};

/// FNV-1a over every HIT's records in order, with a separator after
/// each HIT, so both the HIT order and each HIT's contents count.
fn digest(hits: &[Hit]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for hit in hits {
        for r in hit.records() {
            eat(r.0);
        }
        eat(u32::MAX);
    }
    h
}

fn pairs_at(dataset: &Dataset, threshold: f64) -> Vec<Pair> {
    let tokens = TokenTable::build(dataset);
    prefix_join(dataset, &tokens, threshold, 1)
        .iter()
        .map(|s| s.pair)
        .collect()
}

fn generators() -> Vec<(&'static str, Box<dyn ClusterGenerator>)> {
    vec![
        ("random", Box::new(RandomGenerator::new(7))),
        ("dfs", Box::new(DfsGenerator)),
        ("bfs", Box::new(BfsGenerator)),
        ("approx", Box::new(ApproxGenerator::new(7))),
        ("two-tiered", Box::new(TwoTieredGenerator::new())),
        (
            "two-tiered-id",
            Box::new(TwoTieredGenerator::with_config(TwoTieredConfig {
                disable_outdegree_tiebreak: true,
                ..TwoTieredConfig::default()
            })),
        ),
    ]
}

/// `(dataset, τ, k, generator, HIT count, digest)`.
const PINS: &[(&str, f64, usize, &str, usize, u64)] = &[
    ("restaurant", 0.2, 4, "random", 6185, 0xb0e9ef95dcb1f8be),
    ("restaurant", 0.2, 4, "dfs", 4323, 0x35c733472ba7005a),
    ("restaurant", 0.2, 4, "bfs", 3751, 0x75c042a55a16bd5f),
    ("restaurant", 0.2, 4, "approx", 4622, 0x90b8d5dc68592d62),
    ("restaurant", 0.2, 4, "two-tiered", 2703, 0x8491e822d4891889),
    (
        "restaurant",
        0.2,
        4,
        "two-tiered-id",
        2761,
        0xf1f89c5cdf1871f5,
    ),
    ("restaurant", 0.2, 10, "random", 2200, 0x2c8f7e28e399a3da),
    ("restaurant", 0.2, 10, "dfs", 1425, 0xfcd61d6ea2e64092),
    ("restaurant", 0.2, 10, "bfs", 872, 0xaa577d9be49cf432),
    ("restaurant", 0.2, 10, "approx", 1541, 0x3bdaa1a0a56eb03b),
    ("restaurant", 0.2, 10, "two-tiered", 604, 0x72ad8372e29308fe),
    (
        "restaurant",
        0.2,
        10,
        "two-tiered-id",
        607,
        0x1309990635e8574d,
    ),
    ("restaurant", 0.3, 4, "random", 421, 0x4d3de31bc6694d88),
    ("restaurant", 0.3, 4, "dfs", 306, 0x5197e19d308f8afa),
    ("restaurant", 0.3, 4, "bfs", 288, 0x5f81924e43b7eee4),
    ("restaurant", 0.3, 4, "approx", 528, 0xf492823b13ff5eb7),
    ("restaurant", 0.3, 4, "two-tiered", 276, 0x530d5ceff690ede6),
    (
        "restaurant",
        0.3,
        4,
        "two-tiered-id",
        280,
        0x54fb1c103930affe,
    ),
    ("restaurant", 0.3, 10, "random", 166, 0x3bb27c20d2696a0d),
    ("restaurant", 0.3, 10, "dfs", 99, 0x668cb941ee1ad9be),
    ("restaurant", 0.3, 10, "bfs", 93, 0x1f40629759b00d2f),
    ("restaurant", 0.3, 10, "approx", 176, 0xda08311d7fef2d5b),
    ("restaurant", 0.3, 10, "two-tiered", 85, 0x9482d5ef486d4eab),
    (
        "restaurant",
        0.3,
        10,
        "two-tiered-id",
        87,
        0xf184fc22ecad113e,
    ),
    ("product", 0.2, 4, "random", 1561, 0x95d119e5b180271c),
    ("product", 0.2, 4, "dfs", 1108, 0x383989c126f3fe35),
    ("product", 0.2, 4, "bfs", 1076, 0x21a4be6f63545463),
    ("product", 0.2, 4, "approx", 1728, 0xbc74affe66021fff),
    ("product", 0.2, 4, "two-tiered", 1018, 0x940b53ec20c3e058),
    ("product", 0.2, 4, "two-tiered-id", 1020, 0x1e0e976c13b1b58f),
    ("product", 0.2, 10, "random", 617, 0x74b8edee7dd209c1),
    ("product", 0.2, 10, "dfs", 329, 0x67689caac0d19d3e),
    ("product", 0.2, 10, "bfs", 302, 0xda8c2a50e8de4b7e),
    ("product", 0.2, 10, "approx", 576, 0x81eed383fecbea87),
    ("product", 0.2, 10, "two-tiered", 268, 0x34cd7ff90ca0af38),
    ("product", 0.2, 10, "two-tiered-id", 273, 0xa4af0ae76081ac01),
    ("product", 0.3, 4, "random", 710, 0xe7f7a7fb949aae99),
    ("product", 0.3, 4, "dfs", 566, 0xeddeb477f718fd17),
    ("product", 0.3, 4, "bfs", 555, 0xba178752c16abfb1),
    ("product", 0.3, 4, "approx", 1030, 0xa5032c201c9ecbe7),
    ("product", 0.3, 4, "two-tiered", 530, 0xccdeb6f01b75e08f),
    ("product", 0.3, 4, "two-tiered-id", 526, 0x22293fafb3680ee1),
    ("product", 0.3, 10, "random", 283, 0xc70ad2a147aa2b33),
    ("product", 0.3, 10, "dfs", 189, 0xae053f510d8b5bfd),
    ("product", 0.3, 10, "bfs", 186, 0x9ec29343c7beb914),
    ("product", 0.3, 10, "approx", 344, 0x0d5a46b169ecab97),
    ("product", 0.3, 10, "two-tiered", 172, 0x63e9989d240dc205),
    ("product", 0.3, 10, "two-tiered-id", 172, 0xee34eadedaba50ff),
];

#[test]
fn every_generator_reproduces_its_pinned_hits() {
    let datasets = [
        ("restaurant", restaurant(&RestaurantConfig::default())),
        ("product", product(&ProductConfig::default())),
    ];
    let mut got = Vec::new();
    for (name, dataset) in &datasets {
        for threshold in [0.2, 0.3] {
            let pairs = pairs_at(dataset, threshold);
            for k in [4, 10] {
                for (generator, g) in generators() {
                    let hits = g.generate(&pairs, k).unwrap();
                    got.push((*name, threshold, k, generator, hits.len(), digest(&hits)));
                }
            }
        }
    }
    let listing: String = got
        .iter()
        .map(|(d, t, k, g, n, x)| {
            format!("    (\"{d}\", {t:.1}, {k}, \"{g}\", {n}, 0x{x:016x}),\n")
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "pins:\n{listing}");
    for (got, want) in got.iter().zip(PINS) {
        assert_eq!(got, want, "pins:\n{listing}");
    }
}
