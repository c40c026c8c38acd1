//! Smoke tests guarding the `repro` binary against bit-rot: the same
//! library code paths `repro table2` and `repro fig2` drive, at
//! tiny scale, asserted instead of printed.

use graphalytics_core::algorithms::louvain;
use graphalytics_core::datasets::all_datasets;
use graphalytics_core::graph::GraphStats;
use graphalytics_core::SizeClass;
use graphalytics_datagen::DatagenConfig;
use graphalytics_harness::report::TextTable;

/// `repro table2` logic: the Table 2 scale-class ladder and the
/// Tables 3-4 dataset registry.
#[test]
fn table2_scale_classes_and_dataset_registry() {
    // Table 2 defines seven T-shirt classes in ascending scale order.
    assert_eq!(SizeClass::ALL.len(), 7);
    let labels: Vec<&str> = SizeClass::ALL.iter().map(|c| c.label()).collect();
    assert_eq!(labels, ["2XS", "XS", "S", "M", "L", "XL", "2XL"]);

    // Every registry dataset renders a well-formed row: positive sizes
    // and a scale consistent with its class.
    let datasets = all_datasets();
    assert!(!datasets.is_empty(), "dataset registry must not be empty");
    let mut table = TextTable::new(
        "Tables 3-4 (smoke)",
        &["ID", "name", "scale", "class"],
    );
    for d in &datasets {
        assert!(d.vertices > 0 && d.edges > 0, "{}: empty sizes", d.id);
        assert_eq!(
            d.class(),
            SizeClass::of_scale(d.scale()),
            "{}: class/scale mismatch",
            d.id
        );
        table.add_row(vec![
            d.id.to_string(),
            d.name.to_string(),
            format!("{:.1}", d.scale()),
            d.class().label().to_string(),
        ]);
    }
    let rendered = table.render();
    for d in &datasets {
        assert!(rendered.contains(d.name), "row for {} missing", d.id);
    }
}

/// `repro fig2` logic: Datagen with a clustering-coefficient target,
/// communities detected by Louvain (paper Section 2.5.1, Figure 2).
#[test]
fn fig2_cc_tuning_and_louvain_at_tiny_scale() {
    let mut measured = Vec::new();
    for target in [0.05, 0.3] {
        let graph = DatagenConfig::with_persons(400).with_target_cc(target).generate();
        let csr = graph.to_csr();
        let stats = GraphStats::compute(&csr);
        let communities = louvain(&csr);
        assert!(communities.community_count >= 1);
        assert!(
            (-1.0..=1.0).contains(&communities.modularity),
            "modularity {} out of range",
            communities.modularity
        );
        assert!((0.0..=1.0).contains(&stats.avg_clustering_coefficient));
        measured.push(stats.avg_clustering_coefficient);
    }
    // The paper's Figure 2 finding: raising the cc target yields a more
    // clustered graph. Direction must hold even at tiny scale.
    assert!(
        measured[1] > measured[0],
        "cc target 0.3 should measure above target 0.05 ({measured:?})"
    );
}

/// The shared banner helper all 15 binaries call first.
#[test]
fn banner_prints_without_panicking() {
    graphalytics_bench::banner("smoke", "no section");
}
