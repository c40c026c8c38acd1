//! The Graphalytics dataset registry (Tables 3 and 4 of the paper).
//!
//! Each entry records the paper-published size (`|V|`, `|E|`, scale, class)
//! plus *structural traits* — degree-distribution family, pseudo-diameter,
//! BFS reachability from the prescribed root, component count, clustering —
//! that drive two things downstream:
//!
//! 1. **proxy generation** — the real-world graphs of Table 3 are not
//!    redistributable, so the harness regenerates structure-matched
//!    synthetic stand-ins from the [`ProxyRecipe`] at a configurable
//!    fraction of the published size (see DESIGN.md, substitution table);
//! 2. **analytic work estimation** — paper-scale experiments estimate
//!    algorithm work (edges scanned, supersteps, message volume) from these
//!    traits instead of executing billion-edge graphs.
//!
//! Trait values for real graphs are estimates assembled from the paper
//! (e.g. Section 4.1 notes BFS on R2 covers ~10% of vertices) and from the
//! public SNAP/KONECT descriptions of the original datasets; they are
//! documented per-dataset below.

use crate::params::SourceSelection;
use crate::scale::{class_of, scale_of, SizeClass};

/// Degree-distribution families used by the registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegreeDistribution {
    /// Kronecker/R-MAT power law (Graph500): extreme hubs, many low-degree
    /// vertices.
    PowerLaw,
    /// Facebook-like social degree distribution (Datagen): skewed but
    /// bounded, no extreme hubs.
    Social,
    /// Dense, comparatively uniform (e.g. the gaming match graphs).
    NearUniform,
}

/// Structural traits of a dataset, as used by proxies and by the analytic
/// performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphTraits {
    pub degree_distribution: DegreeDistribution,
    /// BFS pseudo-diameter from the prescribed root.
    pub pseudo_diameter: u32,
    /// Fraction of vertices the benchmark BFS reaches from its root.
    pub reachable_fraction: f64,
    /// Approximate number of weakly connected components, as a fraction of
    /// |V| (0.0 = single giant component).
    pub component_fraction: f64,
    /// Average local clustering coefficient.
    pub avg_clustering: f64,
    /// Max-degree / mean-degree skew proxy (drives replication factors and
    /// LCC cost in the models).
    pub degree_skew: f64,
}

/// Recipe for regenerating a structure-matched synthetic stand-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProxyRecipe {
    /// Graph500 Kronecker generator at the given scale/edge factor.
    Graph500 { scale: u32, edge_factor: u32 },
    /// R-MAT with explicit seed probabilities (used for real-graph proxies
    /// whose skew differs from the Graph500 defaults).
    Rmat { a: f64, b: f64, c: f64 },
    /// LDBC Datagen social network with a target clustering coefficient
    /// (`None` = Datagen's natural clustering).
    Datagen { target_cc: Option<f64> },
}

/// One dataset of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Table identifier, e.g. `R1(2XS)` → `"R1"`, `D300(L)` → `"D300"`.
    pub id: &'static str,
    /// Dataset name as in the paper, e.g. `wiki-talk`, `datagen-300`.
    pub name: &'static str,
    /// Published vertex count.
    pub vertices: u64,
    /// Published edge count.
    pub edges: u64,
    pub directed: bool,
    pub weighted: bool,
    /// Application domain (Table 3) or `Synthetic`.
    pub domain: Domain,
    pub traits_: GraphTraits,
    pub recipe: ProxyRecipe,
    /// Root selection for BFS/SSSP.
    pub source: SourceSelection,
    /// PageRank iterations prescribed for this dataset.
    pub pagerank_iterations: u32,
    /// CDLP iterations prescribed for this dataset.
    pub cdlp_iterations: u32,
}

/// Application domain of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Knowledge,
    Gaming,
    Social,
    Synthetic,
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Domain::Knowledge => "Knowledge",
            Domain::Gaming => "Gaming",
            Domain::Social => "Social",
            Domain::Synthetic => "Synthetic",
        };
        f.write_str(s)
    }
}

impl DatasetSpec {
    /// Benchmark scale, `log10(|V| + |E|)` rounded to one decimal.
    pub fn scale(&self) -> f64 {
        scale_of(self.vertices, self.edges)
    }

    /// T-shirt size class.
    pub fn class(&self) -> SizeClass {
        class_of(self.vertices, self.edges)
    }

    /// `id(CLASS)` display form used in the paper, e.g. `R4(S)`.
    pub fn display_id(&self) -> String {
        format!("{}({})", self.id, self.class())
    }

    /// Mean degree `|E| / |V|` of the published sizes.
    pub fn mean_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }
}

macro_rules! traits_ {
    ($dist:ident, diam: $d:expr, reach: $r:expr, comp: $c:expr, cc: $cc:expr, skew: $s:expr) => {
        GraphTraits {
            degree_distribution: DegreeDistribution::$dist,
            pseudo_diameter: $d,
            reachable_fraction: $r,
            component_fraction: $c,
            avg_clustering: $cc,
            degree_skew: $s,
        }
    };
}

/// The six real-world datasets of Table 3.
///
/// Trait notes: R2's 10% BFS coverage comes from Section 4.1 of the paper
/// (it explains OpenG's queue-based BFS win); R1/R3 are weakly connected
/// sparse knowledge graphs; R4 is a dense match graph; R5/R6 are
/// billion-edge social graphs with a giant component.
pub const REAL_DATASETS: [DatasetSpec; 6] = [
    DatasetSpec {
        id: "R1",
        name: "wiki-talk",
        vertices: 2_390_000,
        edges: 5_020_000,
        directed: true,
        weighted: false,
        domain: Domain::Knowledge,
        traits_: traits_!(PowerLaw, diam: 9, reach: 0.10, comp: 0.40, cc: 0.05, skew: 2.4e4),
        recipe: ProxyRecipe::Rmat { a: 0.62, b: 0.19, c: 0.19 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "R2",
        name: "kgs",
        vertices: 830_000,
        edges: 17_900_000,
        directed: false,
        weighted: false,
        domain: Domain::Gaming,
        traits_: traits_!(NearUniform, diam: 8, reach: 0.10, comp: 0.55, cc: 0.25, skew: 4.0e2),
        recipe: ProxyRecipe::Rmat { a: 0.45, b: 0.22, c: 0.22 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "R3",
        name: "cit-patents",
        vertices: 3_770_000,
        edges: 16_500_000,
        directed: true,
        weighted: false,
        domain: Domain::Knowledge,
        traits_: traits_!(NearUniform, diam: 22, reach: 0.05, comp: 0.01, cc: 0.08, skew: 1.6e2),
        recipe: ProxyRecipe::Rmat { a: 0.40, b: 0.25, c: 0.25 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "R4",
        name: "dota-league",
        vertices: 610_000,
        edges: 50_900_000,
        directed: false,
        weighted: true,
        domain: Domain::Gaming,
        traits_: traits_!(NearUniform, diam: 4, reach: 1.0, comp: 0.0, cc: 0.45, skew: 6.0e1),
        recipe: ProxyRecipe::Rmat { a: 0.35, b: 0.25, c: 0.25 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "R5",
        name: "com-friendster",
        vertices: 65_600_000,
        edges: 1_810_000_000,
        directed: false,
        weighted: false,
        domain: Domain::Social,
        traits_: traits_!(Social, diam: 21, reach: 0.99, comp: 0.0, cc: 0.16, skew: 1.9e2),
        recipe: ProxyRecipe::Datagen { target_cc: None },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "R6",
        name: "twitter_mpi",
        vertices: 52_600_000,
        edges: 1_970_000_000,
        directed: true,
        weighted: false,
        domain: Domain::Social,
        traits_: traits_!(PowerLaw, diam: 15, reach: 0.85, comp: 0.02, cc: 0.07, skew: 8.0e4),
        recipe: ProxyRecipe::Rmat { a: 0.52, b: 0.23, c: 0.19 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
];

/// The ten synthetic datasets of Table 4 (five Datagen, five Graph500).
pub const SYNTHETIC_DATASETS: [DatasetSpec; 10] = [
    DatasetSpec {
        id: "D100",
        name: "datagen-100",
        vertices: 1_670_000,
        edges: 102_000_000,
        directed: false,
        weighted: true,
        domain: Domain::Synthetic,
        traits_: traits_!(Social, diam: 8, reach: 1.0, comp: 0.0, cc: 0.10, skew: 2.0e1),
        recipe: ProxyRecipe::Datagen { target_cc: None },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "D100'",
        name: "datagen-100-cc0.05",
        vertices: 1_670_000,
        edges: 103_000_000,
        directed: false,
        weighted: true,
        domain: Domain::Synthetic,
        traits_: traits_!(Social, diam: 8, reach: 1.0, comp: 0.0, cc: 0.05, skew: 2.0e1),
        recipe: ProxyRecipe::Datagen { target_cc: Some(0.05) },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "D100\"",
        name: "datagen-100-cc0.15",
        vertices: 1_670_000,
        edges: 103_000_000,
        directed: false,
        weighted: true,
        domain: Domain::Synthetic,
        traits_: traits_!(Social, diam: 8, reach: 1.0, comp: 0.0, cc: 0.15, skew: 2.0e1),
        recipe: ProxyRecipe::Datagen { target_cc: Some(0.15) },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "D300",
        name: "datagen-300",
        vertices: 4_350_000,
        edges: 304_000_000,
        directed: false,
        weighted: true,
        domain: Domain::Synthetic,
        traits_: traits_!(Social, diam: 9, reach: 1.0, comp: 0.0, cc: 0.10, skew: 2.0e1),
        recipe: ProxyRecipe::Datagen { target_cc: None },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "D1000",
        name: "datagen-1000",
        vertices: 12_800_000,
        edges: 1_010_000_000,
        directed: false,
        weighted: true,
        domain: Domain::Synthetic,
        traits_: traits_!(Social, diam: 9, reach: 1.0, comp: 0.0, cc: 0.10, skew: 2.0e1),
        recipe: ProxyRecipe::Datagen { target_cc: None },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "G22",
        name: "graph500-22",
        vertices: 2_400_000,
        edges: 64_200_000,
        directed: false,
        weighted: false,
        domain: Domain::Synthetic,
        traits_: traits_!(PowerLaw, diam: 7, reach: 0.98, comp: 0.02, cc: 0.18, skew: 4.0e3),
        recipe: ProxyRecipe::Graph500 { scale: 22, edge_factor: 16 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "G23",
        name: "graph500-23",
        vertices: 4_610_000,
        edges: 129_000_000,
        directed: false,
        weighted: false,
        domain: Domain::Synthetic,
        traits_: traits_!(PowerLaw, diam: 7, reach: 0.98, comp: 0.02, cc: 0.16, skew: 6.5e3),
        recipe: ProxyRecipe::Graph500 { scale: 23, edge_factor: 16 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "G24",
        name: "graph500-24",
        vertices: 8_870_000,
        edges: 260_000_000,
        directed: false,
        weighted: false,
        domain: Domain::Synthetic,
        traits_: traits_!(PowerLaw, diam: 7, reach: 0.98, comp: 0.02, cc: 0.15, skew: 1.1e4),
        recipe: ProxyRecipe::Graph500 { scale: 24, edge_factor: 16 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "G25",
        name: "graph500-25",
        vertices: 17_100_000,
        edges: 524_000_000,
        directed: false,
        weighted: false,
        domain: Domain::Synthetic,
        traits_: traits_!(PowerLaw, diam: 8, reach: 0.98, comp: 0.02, cc: 0.13, skew: 1.8e4),
        recipe: ProxyRecipe::Graph500 { scale: 25, edge_factor: 16 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
    DatasetSpec {
        id: "G26",
        name: "graph500-26",
        vertices: 32_800_000,
        edges: 1_050_000_000,
        directed: false,
        weighted: false,
        domain: Domain::Synthetic,
        traits_: traits_!(PowerLaw, diam: 8, reach: 0.98, comp: 0.02, cc: 0.12, skew: 3.0e4),
        recipe: ProxyRecipe::Graph500 { scale: 26, edge_factor: 16 },
        source: SourceSelection::MaxOutDegree,
        pagerank_iterations: 10,
        cdlp_iterations: 10,
    },
];

/// All sixteen datasets, real first, in table order.
pub fn all_datasets() -> Vec<&'static DatasetSpec> {
    REAL_DATASETS.iter().chain(SYNTHETIC_DATASETS.iter()).collect()
}

/// Looks a dataset up by id (`"R4"`) or by name (`"dota-league"`).
pub fn dataset(key: &str) -> Option<&'static DatasetSpec> {
    all_datasets().into_iter().find(|d| d.id == key || d.name == key)
}

/// Datasets with scale class at most `max`, in ascending scale order —
/// the "all datasets up to class L" selection of the baseline experiments.
pub fn datasets_up_to(max: SizeClass) -> Vec<&'static DatasetSpec> {
    let mut v: Vec<_> = all_datasets().into_iter().filter(|d| d.class() <= max).collect();
    v.sort_by(|a, b| a.scale().total_cmp(&b.scale()).then(a.id.cmp(b.id)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_tables() {
        // Spot checks from Table 3.
        let r1 = dataset("R1").unwrap();
        assert_eq!(r1.scale(), 6.9);
        assert_eq!(r1.class(), SizeClass::Xxs);
        assert_eq!(r1.display_id(), "R1(2XS)");
        let r4 = dataset("dota-league").unwrap();
        assert_eq!(r4.scale(), 7.7);
        assert_eq!(r4.class(), SizeClass::S);
        assert!(r4.weighted);
        let r5 = dataset("R5").unwrap();
        assert_eq!(r5.scale(), 9.3);
        assert_eq!(r5.class(), SizeClass::Xl);
        // Table 4.
        let d300 = dataset("D300").unwrap();
        assert_eq!(d300.scale(), 8.5);
        assert_eq!(d300.class(), SizeClass::L);
        let g22 = dataset("G22").unwrap();
        assert_eq!(g22.scale(), 7.8);
        assert_eq!(g22.class(), SizeClass::S);
        let d1000 = dataset("D1000").unwrap();
        assert_eq!(d1000.class(), SizeClass::Xl);
        let g26 = dataset("G26").unwrap();
        assert_eq!(g26.scale(), 9.0);
    }

    #[test]
    fn sixteen_unique_datasets() {
        let all = all_datasets();
        assert_eq!(all.len(), 16);
        let mut ids: Vec<_> = all.iter().map(|d| d.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 16);
    }

    #[test]
    fn up_to_class_l_excludes_xl() {
        let sel = datasets_up_to(SizeClass::L);
        assert!(sel.iter().all(|d| d.class() <= SizeClass::L));
        assert!(sel.iter().any(|d| d.id == "D300"));
        assert!(!sel.iter().any(|d| d.id == "D1000"));
        assert!(!sel.iter().any(|d| d.id == "R5"));
        // Ascending scale order.
        for w in sel.windows(2) {
            assert!(w[0].scale() <= w[1].scale());
        }
    }

    #[test]
    fn lookup_by_both_keys() {
        assert!(dataset("G25").is_some());
        assert!(dataset("graph500-25").is_some());
        assert!(dataset("nope").is_none());
    }

    #[test]
    fn traits_are_sane() {
        for d in all_datasets() {
            let t = d.traits_;
            assert!(t.reachable_fraction > 0.0 && t.reachable_fraction <= 1.0, "{}", d.id);
            assert!(t.avg_clustering >= 0.0 && t.avg_clustering <= 1.0, "{}", d.id);
            assert!(t.pseudo_diameter >= 1, "{}", d.id);
            assert!(t.degree_skew >= 1.0, "{}", d.id);
            assert!(d.mean_degree() > 1.0, "{}", d.id);
        }
    }
}
