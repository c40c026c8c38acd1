//! The benchmark algorithms as GAS programs.

use graphalytics_core::algorithms::cdlp::mode_label;
use graphalytics_core::{Csr, VertexId};

use super::{EdgeSet, GasProgram};

/// BFS: gather = min over in-neighbours of (depth + 1); scatter activates
/// out-neighbours on improvement.
pub struct BfsGas {
    pub root: u32,
}

impl GasProgram for BfsGas {
    type Value = i64;
    type Gather = i64;

    fn init(&self, u: u32, _csr: &Csr) -> i64 {
        if u == self.root {
            0
        } else {
            i64::MAX
        }
    }

    fn initial_active(&self, csr: &Csr) -> Option<Vec<u32>> {
        // The root's depth is fixed at init; its out-neighbours start.
        Some(csr.out_neighbors(self.root).to_vec())
    }

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::In
    }

    fn gather_identity(&self) -> i64 {
        i64::MAX
    }

    fn gather(&self, total: &mut i64, _u: u32, _nbr: u32, _w: f64, nbr_value: &i64, _csr: &Csr) {
        *total = (*total).min(nbr_value.saturating_add(1));
    }

    fn apply(&self, _u: u32, value: &i64, total: &mut i64, _aux: f64) -> (i64, bool) {
        let total = *total;
        if total < *value {
            (total, true)
        } else {
            (*value, false)
        }
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }
}

/// SSSP: weighted BFS with `f64` distances.
pub struct SsspGas {
    pub root: u32,
}

impl GasProgram for SsspGas {
    type Value = f64;
    type Gather = f64;

    fn init(&self, u: u32, _csr: &Csr) -> f64 {
        if u == self.root {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn initial_active(&self, csr: &Csr) -> Option<Vec<u32>> {
        Some(csr.out_neighbors(self.root).to_vec())
    }

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::In
    }

    fn gather_identity(&self) -> f64 {
        f64::INFINITY
    }

    fn gather(&self, total: &mut f64, _u: u32, _nbr: u32, w: f64, nbr_value: &f64, _csr: &Csr) {
        *total = total.min(nbr_value + w);
    }

    fn apply(&self, _u: u32, value: &f64, total: &mut f64, _aux: f64) -> (f64, bool) {
        let total = *total;
        if total < *value {
            (total, true)
        } else {
            (*value, false)
        }
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn gather_bytes(&self) -> u64 {
        12
    }
}

/// WCC: minimum-label diffusion over both directions.
pub struct WccGas;

impl GasProgram for WccGas {
    type Value = VertexId;
    type Gather = VertexId;

    fn init(&self, u: u32, csr: &Csr) -> VertexId {
        csr.id_of(u)
    }

    fn initial_active(&self, _csr: &Csr) -> Option<Vec<u32>> {
        None // all
    }

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Both
    }

    fn gather_identity(&self) -> VertexId {
        VertexId::MAX
    }

    fn gather(
        &self,
        total: &mut VertexId,
        _u: u32,
        _nbr: u32,
        _w: f64,
        nbr_value: &VertexId,
        _csr: &Csr,
    ) {
        *total = (*total).min(*nbr_value);
    }

    fn apply(&self, _u: u32, value: &VertexId, total: &mut VertexId, _aux: f64) -> (VertexId, bool) {
        let total = *total;
        if total < *value {
            (total, true)
        } else {
            (*value, false)
        }
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Both
    }
}

/// PageRank: gather = Σ rank/out-degree over in-edges; the engine-level
/// auxiliary carries the dangling mass; fixed iteration count.
pub struct PageRankGas {
    pub iterations: u32,
    pub damping: f64,
    pub n: f64,
}

impl GasProgram for PageRankGas {
    type Value = f64;
    type Gather = f64;

    fn init(&self, _u: u32, _csr: &Csr) -> f64 {
        1.0 / self.n
    }

    fn initial_active(&self, _csr: &Csr) -> Option<Vec<u32>> {
        None
    }

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::In
    }

    fn gather_identity(&self) -> f64 {
        0.0
    }

    fn gather(&self, total: &mut f64, _u: u32, nbr: u32, _w: f64, nbr_value: &f64, csr: &Csr) {
        *total += nbr_value / csr.out_degree(nbr) as f64;
    }

    fn apply(&self, _u: u32, _value: &f64, total: &mut f64, aux: f64) -> (f64, bool) {
        let rank = (1.0 - self.damping) / self.n + self.damping * (*total + aux / self.n);
        (rank, false)
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::None
    }

    fn fixed_iterations(&self) -> Option<u32> {
        Some(self.iterations)
    }

    fn compute_aux(&self, values: &[f64], csr: &Csr) -> f64 {
        (0..values.len() as u32)
            .filter(|&u| csr.out_degree(u) == 0)
            .map(|u| values[u as usize])
            .sum()
    }
}

/// CDLP: the gather monoid is a label multiset (kept as a plain list of
/// votes) — authentic PowerGraph histogram gathering; apply selects the
/// deterministic mode.
pub struct CdlpGas {
    pub iterations: u32,
}

impl GasProgram for CdlpGas {
    type Value = VertexId;
    type Gather = Vec<VertexId>;

    fn init(&self, u: u32, csr: &Csr) -> VertexId {
        csr.id_of(u)
    }

    fn initial_active(&self, _csr: &Csr) -> Option<Vec<u32>> {
        None
    }

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Both
    }

    fn gather_identity(&self) -> Vec<VertexId> {
        Vec::new()
    }

    fn gather(
        &self,
        total: &mut Vec<VertexId>,
        _u: u32,
        _nbr: u32,
        _w: f64,
        nbr_value: &VertexId,
        _csr: &Csr,
    ) {
        total.push(*nbr_value);
    }

    fn apply(
        &self,
        _u: u32,
        value: &VertexId,
        total: &mut Vec<VertexId>,
        _aux: f64,
    ) -> (VertexId, bool) {
        (mode_label(total).unwrap_or(*value), false)
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::None
    }

    fn fixed_iterations(&self) -> Option<u32> {
        Some(self.iterations)
    }

    fn gather_bytes(&self) -> u64 {
        12
    }

    fn random_accesses_per_contribution(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::pool::WorkerPool;
    use crate::gas::run_gas;
    use graphalytics_cluster::WorkCounters;
    use graphalytics_core::GraphBuilder;

    #[test]
    fn bfs_gas_unreachable_stays_max() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.add_edge(0, 1);
        b.add_edge(2, 1);
        let csr = b.build().unwrap().to_csr();
        let mut c = WorkCounters::new();
        let depths = run_gas(&csr, &BfsGas { root: 0 }, &WorkerPool::inline(), &mut c);
        assert_eq!(depths, vec![0, 1, i64::MAX]);
    }

    #[test]
    fn pagerank_gas_zero_iterations() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        b.add_edge(0, 1);
        let csr = b.build().unwrap().to_csr();
        let mut c = WorkCounters::new();
        let pr = run_gas(&csr, &PageRankGas { iterations: 0, damping: 0.85, n: 4.0 }, &WorkerPool::inline(), &mut c);
        assert_eq!(pr, vec![0.25; 4]);
        assert_eq!(c.supersteps, 0);
    }

    #[test]
    fn cdlp_gather_merges_multisets() {
        let csr = GraphBuilder::new(true).build().unwrap().to_csr();
        let p = CdlpGas { iterations: 1 };
        let mut total = p.gather_identity();
        for label in [5u64, 7, 5, 7, 5] {
            p.gather(&mut total, 0, 0, 1.0, &label, &csr);
        }
        assert_eq!(total.len(), 5, "one vote per contribution");
        assert_eq!(p.apply(0, &9, &mut total, 0.0), (5, false));
        // Tie: the smallest label wins; no votes: the vertex keeps its own.
        let mut tie = vec![7u64, 5];
        assert_eq!(p.apply(0, &9, &mut tie, 0.0), (5, false));
        assert_eq!(p.apply(0, &9, &mut p.gather_identity(), 0.0), (9, false));
    }
}
