//! Tunable-clustering-coefficient edge generation (the paper's extension).
//!
//! "We have implemented an edge generator which allows tuning the average
//! clustering coefficient of the resulting friendship graph. The method
//! relies on constructing a graph with a core-periphery community
//! structure." (Section 2.5.1)
//!
//! The construction: a sorted block is cut into *communities*. A community
//! wires its members with an internal density `p` chosen from the target
//! clustering coefficient (in a dense random subgraph the probability that
//! two of a vertex's neighbours are themselves connected is ≈ the internal
//! density, so `p ≈ target_cc`). Community *size* is derived from the
//! members' degree budgets — a member that needs `d` intra-community
//! friends under density `p` needs a community of roughly `d/p` members —
//! which preserves the degree distribution while hitting the density.
//! Within a community the first 50% of members form the *core* and are wired
//! at boosted density; the remainder form the *periphery* at reduced
//! density, giving the core–periphery shape the paper describes (and, as in
//! real social networks, a small diameter once consecutive communities are
//! bridged).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::person::{Dimension, Person};

/// Density boost for core–core pairs and damping for periphery pairs.
/// Chosen to keep the *average* internal density at `p` when the core is
/// half the community: 0.25·boost + 0.5·mixed + 0.25·damp = 1.
const CORE_BOOST: f64 = 1.5;
const MIXED_FACTOR: f64 = 1.0;
const PERIPHERY_DAMP: f64 = 0.5;

/// Generates one community-structured pass over a block.
///
/// Returns `(src, dst)` person-id pairs; duplicates across passes are
/// possible and removed by the flow's merge step.
pub fn community_pass(
    persons: &[Person],
    block: &[u32],
    dim: Dimension,
    target_cc: f64,
    rng: &mut SmallRng,
) -> Vec<(u64, u64)> {
    let p = target_cc.clamp(0.02, 0.95);
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut prev_first: Option<u64> = None;
    while start < block.len() {
        // Community size from the degree budget of its would-be first
        // member: d_intra members wired at density p need ~d/p peers.
        let first = &persons[block[start] as usize];
        let d_intra = (first.target_degree as f64 * dim.degree_fraction()).max(1.0);
        // At least a triangle, but never past the block: a tail of one or
        // two persons forms a community of its own.
        let remaining = block.len() - start;
        let size = ((d_intra / p).ceil() as usize + 1).max(3).min(remaining);
        let end = start + size;
        let members = &block[start..end];
        wire_community(persons, members, p, &mut out, rng);
        // Bridge consecutive communities so they are "weakly connected to
        // each other" rather than disconnected cliques.
        let this_first = persons[members[0] as usize].id;
        if let Some(prev) = prev_first {
            if prev != this_first {
                out.push((prev, this_first));
            }
        }
        prev_first = Some(this_first);
        start = end;
    }
    out
}

/// Wires one community with core–periphery densities averaging `p`.
fn wire_community(
    persons: &[Person],
    members: &[u32],
    p: f64,
    out: &mut Vec<(u64, u64)>,
    rng: &mut SmallRng,
) {
    let s = members.len();
    if s < 2 {
        return;
    }
    let core = s.div_ceil(2);
    for i in 0..s {
        for j in (i + 1)..s {
            let factor = match (i < core, j < core) {
                (true, true) => CORE_BOOST,
                (false, false) => PERIPHERY_DAMP,
                _ => MIXED_FACTOR,
            };
            if rng.random::<f64>() < (p * factor).min(1.0) {
                let (a, b) = (persons[members[i] as usize].id, persons[members[j] as usize].id);
                out.push((a, b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::generate_persons;
    use graphalytics_core::graph::{GraphBuilder, GraphStats};
    use rand::SeedableRng;

    fn generate_and_measure(target_cc: f64, n: u64) -> GraphStats {
        let persons = generate_persons(n, 12.0, 60, 17);
        let block: Vec<u32> = (0..n as u32).collect();
        let mut rng = SmallRng::seed_from_u64(23);
        let edges = community_pass(&persons, &block, Dimension::University, target_cc, &mut rng);
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(n);
        b.dedup_edges(true);
        for (s, d) in edges {
            if s != d {
                b.add_edge(s, d);
            }
        }
        GraphStats::compute(&b.build().unwrap().to_csr())
    }

    #[test]
    fn clustering_tracks_target() {
        let low = generate_and_measure(0.05, 800);
        let high = generate_and_measure(0.30, 800);
        assert!(
            high.avg_clustering_coefficient > low.avg_clustering_coefficient + 0.08,
            "low {:.3} vs high {:.3}",
            low.avg_clustering_coefficient,
            high.avg_clustering_coefficient
        );
        // Rough absolute agreement (single pass, isolated vertices drag the
        // mean down, so allow generous bounds).
        assert!(high.avg_clustering_coefficient > 0.15);
        assert!(low.avg_clustering_coefficient < 0.15);
    }

    #[test]
    fn communities_are_bridged() {
        let s = generate_and_measure(0.3, 500);
        // Bridging keeps the block from fragmenting into one component per
        // community: nearly everything is in one weak component.
        assert!(
            (s.components as f64) < 0.05 * 500.0,
            "too many components: {}",
            s.components
        );
    }

    #[test]
    fn short_block_tail_forms_its_own_community() {
        // Dense targets size communities at three persons; a block of
        // 3k + 1 or 3k + 2 persons leaves a tail shorter than that.
        let persons = generate_persons(8, 1.0, 2, 5);
        for len in 1..=8u32 {
            let block: Vec<u32> = (0..len).collect();
            let mut rng = SmallRng::seed_from_u64(1);
            let edges = community_pass(&persons, &block, Dimension::University, 0.95, &mut rng);
            let ids: Vec<u64> = block.iter().map(|&i| persons[i as usize].id).collect();
            assert!(edges.iter().all(|(s, d)| ids.contains(s) && ids.contains(d)), "len={len}");
        }
    }

    #[test]
    fn higher_target_cc_means_denser_communities() {
        let persons = generate_persons(400, 10.0, 50, 3);
        let block: Vec<u32> = (0..400).collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let sparse =
            community_pass(&persons, &block, Dimension::Interest, 0.05, &mut rng).len();
        let mut rng = SmallRng::seed_from_u64(1);
        let dense = community_pass(&persons, &block, Dimension::Interest, 0.4, &mut rng).len();
        // Density p rises but community size shrinks as 1/p, so the edge
        // count stays the same order of magnitude; both must be non-trivial.
        assert!(sparse > 100 && dense > 100);
    }
}
