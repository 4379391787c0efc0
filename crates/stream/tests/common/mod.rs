//! HIT invariants shared by the stream crate's integration tests and,
//! through a `#[path]` module, the durable crate's contract fixture.

use crowder_stream::{HitDelta, IncrementalResolver};
use crowder_types::Pair;
use std::collections::HashSet;

/// The pairs awaiting crowd verification, recomputed from the public
/// state: machine-surfaced, both records alive, neither committed nor
/// vetoed.
pub fn listed_pairs(resolver: &IncrementalResolver) -> HashSet<Pair> {
    let ledger = resolver.ledger();
    resolver
        .pairs()
        .iter()
        .map(|sp| sp.pair)
        .filter(|p| {
            !ledger.committed(p)
                && !ledger.vetoed(p)
                && resolver.is_alive(p.lo())
                && resolver.is_alive(p.hi())
        })
        .collect()
}

/// The invariants every flush must leave behind, given the listed set
/// at the previous flush and this flush's delta:
///
/// * every listed pair is covered by a live HIT;
/// * every live HIT holds live records of one cluster and covers at
///   least one listed pair;
/// * every pair listed since the previous flush is covered by a HIT
///   this flush created (checked for the pairs absent from the previous
///   listed set — a pair unlisted and re-listed in between is invisible
///   from outside).
///
/// Returns the current listed set, the next call's `previous`.
pub fn check_hit_invariants(
    resolver: &IncrementalResolver,
    previous: &HashSet<Pair>,
    delta: &HitDelta,
) -> Result<HashSet<Pair>, String> {
    let listed = listed_pairs(resolver);
    let live = resolver.live_hits();
    let mut covered: HashSet<Pair> = HashSet::new();
    for (id, hit) in live.iter() {
        let records = hit.records();
        if !records.iter().all(|&r| resolver.is_alive(r)) {
            return Err(format!("{id} holds a dead record"));
        }
        let cluster = resolver.cluster_of(records[0]);
        if !records.iter().all(|&r| resolver.cluster_of(r) == cluster) {
            return Err(format!("{id} spans clusters"));
        }
        let pairs = hit.coverable_pairs();
        if !pairs.iter().any(|p| listed.contains(p)) {
            return Err(format!("{id} covers no listed pair"));
        }
        covered.extend(pairs);
    }
    if let Some(p) = listed.iter().find(|p| !covered.contains(p)) {
        return Err(format!(
            "pair {p} awaits verification but no live HIT covers it"
        ));
    }
    let mut created: HashSet<Pair> = HashSet::new();
    for &id in &delta.created {
        let hit = live
            .get(id)
            .ok_or_else(|| format!("created {id} is not live"))?;
        created.extend(hit.coverable_pairs());
    }
    if let Some(p) = listed
        .iter()
        .find(|p| !previous.contains(p) && !created.contains(p))
    {
        return Err(format!(
            "pair {p} was listed since the last flush but no HIT of this flush covers it"
        ));
    }
    Ok(listed)
}
