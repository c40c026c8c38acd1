//! The six Graphalytics algorithms as Pregel vertex programs.

use std::sync::Arc;

use graphalytics_core::algorithms::cdlp::mode_label;
use graphalytics_core::algorithms::lcc::intersect_count;
use graphalytics_core::{Csr, VertexId};

use super::{ComputeCtx, VertexProgram};

/// BFS: propagate minimum hop counts from the root.
pub struct BfsProgram {
    pub root: u32,
}

impl VertexProgram for BfsProgram {
    type Message = i64;
    type Value = i64;

    fn init(&self, _u: u32, _csr: &Csr) -> i64 {
        i64::MAX
    }

    fn compute(
        &self,
        superstep: u64,
        u: u32,
        csr: &Csr,
        value: &mut i64,
        messages: &[i64],
        _agg: f64,
        ctx: &mut ComputeCtx<'_, i64>,
    ) -> bool {
        if superstep == 0 {
            if u == self.root {
                *value = 0;
                relax_out(csr, u, 1, ctx);
            }
            return false;
        }
        if let Some(&best) = messages.iter().min() {
            if best < *value {
                *value = best;
                relax_out(csr, u, best + 1, ctx);
            }
        }
        false
    }
}

fn relax_out(csr: &Csr, u: u32, depth: i64, ctx: &mut ComputeCtx<'_, i64>) {
    let out = csr.out_neighbors(u);
    ctx.scan_edges(out.len() as u64);
    for &v in out {
        ctx.send(v, depth);
    }
}

/// PageRank with dangling-mass redistribution through the aggregator.
pub struct PageRankProgram {
    pub iterations: u32,
    pub damping: f64,
    pub n: f64,
}

impl VertexProgram for PageRankProgram {
    type Message = f64;
    type Value = f64;

    fn init(&self, _u: u32, _csr: &Csr) -> f64 {
        1.0 / self.n
    }

    fn compute(
        &self,
        superstep: u64,
        u: u32,
        csr: &Csr,
        value: &mut f64,
        messages: &[f64],
        prev_aggregate: f64,
        ctx: &mut ComputeCtx<'_, f64>,
    ) -> bool {
        if self.iterations == 0 {
            return false;
        }
        if superstep > 0 {
            let sum: f64 = messages.iter().sum();
            *value = (1.0 - self.damping) / self.n
                + self.damping * (sum + prev_aggregate / self.n);
        }
        if superstep < self.iterations as u64 {
            let out = csr.out_neighbors(u);
            if out.is_empty() {
                // Dangling: contribute rank to the aggregator; every vertex
                // receives it (divided by n) next superstep.
                ctx.aggregate(*value);
            } else {
                ctx.scan_edges(out.len() as u64);
                let share = *value / out.len() as f64;
                for &v in out {
                    ctx.send(v, share);
                }
            }
            true
        } else {
            false
        }
    }

    fn max_supersteps(&self) -> u64 {
        self.iterations as u64 + 1
    }
}

/// WCC: minimum-label propagation over both edge directions.
pub struct WccProgram;

impl VertexProgram for WccProgram {
    type Message = VertexId;
    type Value = VertexId;

    fn init(&self, u: u32, csr: &Csr) -> VertexId {
        csr.id_of(u)
    }

    fn compute(
        &self,
        superstep: u64,
        u: u32,
        csr: &Csr,
        value: &mut VertexId,
        messages: &[VertexId],
        _agg: f64,
        ctx: &mut ComputeCtx<'_, VertexId>,
    ) -> bool {
        if superstep == 0 {
            send_both_directions(csr, u, *value, ctx);
            return false;
        }
        if let Some(&best) = messages.iter().min() {
            if best < *value {
                *value = best;
                send_both_directions(csr, u, best, ctx);
            }
        }
        false
    }
}

fn send_both_directions(csr: &Csr, u: u32, label: VertexId, ctx: &mut ComputeCtx<'_, VertexId>) {
    let out = csr.out_neighbors(u);
    ctx.scan_edges(out.len() as u64);
    for &v in out {
        ctx.send(v, label);
    }
    if csr.is_directed() {
        let inn = csr.in_neighbors(u);
        ctx.scan_edges(inn.len() as u64);
        for &v in inn {
            ctx.send(v, label);
        }
    }
}

/// CDLP: synchronous, deterministic label propagation; each in- and
/// out-edge contributes one vote per iteration.
pub struct CdlpProgram {
    pub iterations: u32,
}

impl VertexProgram for CdlpProgram {
    type Message = VertexId;
    type Value = VertexId;

    fn init(&self, u: u32, csr: &Csr) -> VertexId {
        csr.id_of(u)
    }

    fn compute(
        &self,
        superstep: u64,
        u: u32,
        csr: &Csr,
        value: &mut VertexId,
        messages: &[VertexId],
        _agg: f64,
        ctx: &mut ComputeCtx<'_, VertexId>,
    ) -> bool {
        if self.iterations == 0 {
            return false;
        }
        if superstep > 0 {
            ctx.random_access(messages.len() as u64);
            let votes = ctx.scratch();
            votes.clear();
            votes.extend_from_slice(messages);
            if let Some(best) = mode_label(votes) {
                *value = best;
            }
        }
        if superstep < self.iterations as u64 {
            send_both_directions(csr, u, *value, ctx);
        }
        false
    }

    fn max_supersteps(&self) -> u64 {
        self.iterations as u64 + 1
    }
}

/// Messages of the two-phase Pregel LCC.
#[derive(Clone)]
pub enum LccMessage {
    /// `from`'s full neighbourhood, shared to avoid deep copies.
    List { from: u32, list: Arc<Vec<u32>> },
    /// Number of edges from the replier into the requester's
    /// neighbourhood.
    Count(u64),
}

impl Default for LccMessage {
    fn default() -> Self {
        LccMessage::Count(0)
    }
}

/// LCC: superstep 0 ships each vertex's neighbourhood to its neighbours;
/// superstep 1 intersects and replies counts; superstep 2 folds counts
/// into the coefficient. The neighbourhood-list messages are exactly the
/// memory blow-up that makes LCC fail on message-buffering platforms
/// (Section 4.2).
pub struct LccProgram;

impl VertexProgram for LccProgram {
    type Message = LccMessage;
    type Value = f64;

    fn init(&self, _u: u32, _csr: &Csr) -> f64 {
        0.0
    }

    fn compute(
        &self,
        superstep: u64,
        u: u32,
        csr: &Csr,
        value: &mut f64,
        messages: &[LccMessage],
        _agg: f64,
        ctx: &mut ComputeCtx<'_, LccMessage>,
    ) -> bool {
        match superstep {
            0 => {
                let neigh = Arc::new(csr.neighborhood_union(u));
                if neigh.len() >= 2 {
                    let bytes = 8 + 4 * neigh.len() as u64;
                    for &v in neigh.iter() {
                        ctx.send_sized(v, LccMessage::List { from: u, list: Arc::clone(&neigh) }, bytes);
                    }
                }
                false
            }
            1 => {
                for msg in messages {
                    if let LccMessage::List { from, list } = msg {
                        let count = intersect_count(csr.out_neighbors(u), list);
                        ctx.scan_edges(csr.out_degree(u) as u64 + list.len() as u64);
                        ctx.send(*from, LccMessage::Count(count));
                    }
                }
                false
            }
            _ => {
                let links: u64 = messages
                    .iter()
                    .map(|m| match m {
                        LccMessage::Count(c) => *c,
                        LccMessage::List { .. } => 0,
                    })
                    .sum();
                let d = csr.union_degree(u) as f64;
                if d >= 2.0 {
                    *value = links as f64 / (d * (d - 1.0));
                }
                false
            }
        }
    }

    fn max_supersteps(&self) -> u64 {
        3
    }
}

/// SSSP: distance relaxation with weights.
pub struct SsspProgram {
    pub root: u32,
}

impl VertexProgram for SsspProgram {
    type Message = f64;
    type Value = f64;

    fn init(&self, _u: u32, _csr: &Csr) -> f64 {
        f64::INFINITY
    }

    fn compute(
        &self,
        superstep: u64,
        u: u32,
        csr: &Csr,
        value: &mut f64,
        messages: &[f64],
        _agg: f64,
        ctx: &mut ComputeCtx<'_, f64>,
    ) -> bool {
        let relax = |dist: f64, ctx: &mut ComputeCtx<'_, f64>| {
            let out = csr.out_neighbors(u);
            let weights = csr.out_weights(u);
            ctx.scan_edges(out.len() as u64);
            for (&v, &w) in out.iter().zip(weights) {
                ctx.send(v, dist + w);
            }
        };
        if superstep == 0 {
            if u == self.root {
                *value = 0.0;
                relax(0.0, ctx);
            }
            return false;
        }
        let best = messages.iter().copied().fold(f64::INFINITY, f64::min);
        if best < *value {
            *value = best;
            relax(best, ctx);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::pool::WorkerPool;
    use crate::pregel::run_pregel;
    use crate::sharded::Lanes;
    use graphalytics_cluster::WorkCounters;
    use graphalytics_core::GraphBuilder;

    /// `run_pregel` on a monolithic upload's lanes.
    fn run<P: VertexProgram>(
        csr: &Csr,
        program: &P,
        pool: &WorkerPool,
        c: &mut WorkCounters,
    ) -> Vec<P::Value> {
        run_pregel(csr, program, &Lanes::new(csr.num_vertices(), pool, None), c)
    }

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        b.set_weighted(true);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 4.0);
        b.add_weighted_edge(1, 3, 1.0);
        b.add_weighted_edge(2, 3, 1.0);
        b.build().unwrap().to_csr()
    }

    #[test]
    fn bfs_program_matches_reference() {
        let csr = diamond();
        let mut c = WorkCounters::new();
        let depths = run(&csr, &BfsProgram { root: 0 }, &WorkerPool::new(2), &mut c);
        assert_eq!(depths, graphalytics_core::algorithms::bfs(&csr, 0));
        assert!(c.supersteps >= 3);
        assert!(c.messages > 0);
        // Framework iterates all vertices each superstep.
        assert_eq!(c.vertices_processed, 4 * c.supersteps);
    }

    #[test]
    fn sssp_program_matches_reference() {
        let csr = diamond();
        let mut c = WorkCounters::new();
        let dist = run(&csr, &SsspProgram { root: 0 }, &WorkerPool::inline(), &mut c);
        let expected = graphalytics_core::algorithms::sssp(&csr, 0);
        for (a, b) in dist.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pagerank_program_matches_reference() {
        let csr = diamond();
        let mut c = WorkCounters::new();
        let pr = run(
            &csr,
            &PageRankProgram { iterations: 10, damping: 0.85, n: 4.0 },
            &WorkerPool::new(2),
            &mut c,
        );
        let expected = graphalytics_core::algorithms::pagerank(&csr, 10, 0.85);
        for (a, b) in pr.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert_eq!(c.supersteps, 11);
    }

    #[test]
    fn wcc_and_cdlp_match_reference() {
        let csr = diamond();
        let mut c = WorkCounters::new();
        let labels = run(&csr, &WccProgram, &WorkerPool::new(2), &mut c);
        assert_eq!(labels, graphalytics_core::algorithms::wcc(&csr));

        let mut c = WorkCounters::new();
        let cd = run(&csr, &CdlpProgram { iterations: 5 }, &WorkerPool::new(2), &mut c);
        assert_eq!(cd, graphalytics_core::algorithms::cdlp(&csr, 5));
    }

    #[test]
    fn lcc_program_matches_reference() {
        // Use an undirected graph with triangles.
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(5);
        for (s, d) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            b.add_edge(s, d);
        }
        let csr = b.build().unwrap().to_csr();
        let mut c = WorkCounters::new();
        let lcc = run(&csr, &LccProgram, &WorkerPool::new(2), &mut c);
        let expected = graphalytics_core::algorithms::lcc(&csr);
        for (a, b) in lcc.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert!(c.message_bytes > 0);
    }

    #[test]
    fn min_propagation_runs_past_ten_thousand_supersteps() {
        // A directed path 0 -> 1 -> ... -> 10 049: BFS and SSSP from 0
        // settle one hop per superstep and halt by vote alone.
        let n = 10_050u64;
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(n);
        b.set_weighted(true);
        for v in 0..n - 1 {
            b.add_weighted_edge(v, v + 1, 1.0);
        }
        let csr = b.build().unwrap().to_csr();
        let pool = WorkerPool::new(1);
        let mut c = WorkCounters::new();
        let depths = run(&csr, &BfsProgram { root: 0 }, &pool, &mut c);
        let last = depths.len() - 1;
        assert!(depths == graphalytics_core::algorithms::bfs(&csr, 0), "BFS: depth {}", depths[last]);
        assert_eq!(c.supersteps, n);
        let mut c = WorkCounters::new();
        let dist = run(&csr, &SsspProgram { root: 0 }, &pool, &mut c);
        assert!(dist == graphalytics_core::algorithms::sssp(&csr, 0), "SSSP: distance {}", dist[last]);
        assert_eq!(c.supersteps, n);
    }

    #[test]
    fn intersect_count_works() {
        assert_eq!(intersect_count(&[1, 3, 5], &[2, 3, 5, 9]), 2);
        assert_eq!(intersect_count(&[], &[1]), 0);
    }
}
