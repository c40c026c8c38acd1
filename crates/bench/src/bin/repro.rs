//! Reproduces one table or figure of the paper — or, with `all`, the
//! whole evaluation (Section 4) in paper order.

use std::sync::OnceLock;

use graphalytics_bench::{banner, quiet_suite, suite};
use graphalytics_core::algorithms::louvain;
use graphalytics_core::datasets::all_datasets;
use graphalytics_core::graph::GraphStats;
use graphalytics_core::SizeClass;
use graphalytics_datagen::{DatagenConfig, FlowKind, HadoopCluster};
use graphalytics_harness::experiments::{
    algorithm_variety, baseline, datagen_selftest, stress, strong, variability, vertical, weak,
};
use graphalytics_harness::report::TextTable;
use graphalytics_harness::survey::{selected_workload, SurveyKind, SURVEY};

/// Every artefact, in paper order.
const ARTEFACTS: &[(&str, fn())] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("table8", table8),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table9", table9),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table10", table10),
    ("table11", table11),
    ("fig10", fig10),
];

/// The evaluation starts here; Tables 1–4 and Figure 2 describe the
/// benchmark itself and are not part of `all`.
const FIRST_EVALUATION_ARTEFACT: &str = "fig4";

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg == "all" {
        for (_, reproduce) in
            ARTEFACTS.iter().skip_while(|(name, _)| *name != FIRST_EVALUATION_ARTEFACT)
        {
            reproduce();
            println!();
        }
    } else if let Some((_, reproduce)) = ARTEFACTS.iter().find(|(name, _)| *name == arg) {
        reproduce();
    } else {
        let names: Vec<&str> = ARTEFACTS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: repro <artefact>");
        eprintln!("  one of: {}", names.join(" "));
        eprintln!("  or `all`: {FIRST_EVALUATION_ARTEFACT} … fig10, the Section 4 evaluation");
        std::process::exit(2);
    }
}

/// The dataset-variety experiment behind Figures 4–5 and Table 8, run
/// once however many of them are printed.
fn dataset_variety() -> &'static baseline::DatasetVariety {
    static RUN: OnceLock<baseline::DatasetVariety> = OnceLock::new();
    RUN.get_or_init(|| baseline::run(&suite()))
}

/// The vertical-scalability experiment behind Figure 7 and Table 9.
fn vertical_scalability() -> &'static vertical::VerticalScalability {
    static RUN: OnceLock<vertical::VerticalScalability> = OnceLock::new();
    RUN.get_or_init(|| vertical::run(&quiet_suite()))
}

/// Table 1: results of the two algorithm surveys and the workload the
/// two-stage selection process yields.
fn table1() {
    banner("Table 1: surveys of graph algorithms", "Section 2.2.2, Table 1");
    for (kind, label) in [
        (SurveyKind::Unweighted, "Unweighted survey (124 articles)"),
        (SurveyKind::Weighted, "Weighted survey (44 articles)"),
    ] {
        let mut table = TextTable::new(label, &["class", "selected", "#", "%"]);
        for class in SURVEY.iter().filter(|c| c.survey == kind) {
            let selected: Vec<String> =
                class.selected.iter().map(|a| a.acronym().to_uppercase()).collect();
            table.add_row(vec![
                class.name.to_string(),
                if selected.is_empty() { "-".into() } else { selected.join(", ") },
                class.count.to_string(),
                format!("{:.1}%", class.percent),
            ]);
        }
        println!("{}", table.render());
    }
    let workload: Vec<&str> = selected_workload().iter().map(|a| a.acronym()).collect();
    println!("Two-stage selection yields the core workload: {}", workload.join(", "));
}

/// Tables 2-4: scale classes and the dataset registry.
fn table2() {
    banner(
        "Tables 2-4: T-shirt scale classes and datasets",
        "Section 2.2.4, Tables 2, 3 and 4",
    );

    let mut t2 = TextTable::new("Table 2: scale ranges to labels", &["scale range", "label"]);
    let bounds =
        ["< 7.0", "[7.0, 7.5)", "[7.5, 8.0)", "[8.0, 8.5)", "[8.5, 9.0)", "[9.0, 9.5)", ">= 9.5"];
    for (class, range) in SizeClass::ALL.iter().zip(bounds) {
        t2.add_row(vec![range.to_string(), class.label().to_string()]);
    }
    println!("{}", t2.render());

    let mut t34 = TextTable::new(
        "Tables 3-4: Graphalytics datasets",
        &["ID", "name", "|V|", "|E|", "scale", "class", "domain", "directed", "weighted"],
    );
    for d in all_datasets() {
        t34.add_row(vec![
            d.id.to_string(),
            d.name.to_string(),
            format!("{:.2}M", d.vertices as f64 / 1e6),
            format!("{:.2}M", d.edges as f64 / 1e6),
            format!("{:.1}", d.scale()),
            d.class().label().to_string(),
            d.domain.to_string(),
            if d.directed { "yes" } else { "no" }.into(),
            if d.weighted { "yes" } else { "no" }.into(),
        ]);
    }
    println!("{}", t34.render());
}

/// Figure 2: Datagen graphs generated with different target clustering
/// coefficients, with communities detected by the Louvain method.
///
/// The paper renders two small graphs visually; we generate them for real
/// and report the measured statistics instead: average clustering
/// coefficient, Louvain community count and modularity. The finding to
/// reproduce: both graphs exhibit community structure, and the higher
/// cc-target yields the better-defined communities (higher modularity).
fn fig2() {
    banner("Figure 2: Datagen with tunable clustering coefficient", "Section 2.5.1, Figure 2");
    let mut table = TextTable::new(
        "Datagen (1000 persons), Louvain community detection",
        &["target cc", "measured avg cc", "communities", "modularity", "components"],
    );
    for target in [0.05, 0.3] {
        let graph = DatagenConfig::with_persons(1000).with_target_cc(target).generate();
        let csr = graph.to_csr();
        let stats = GraphStats::compute(&csr);
        let communities = louvain(&csr);
        table.add_row(vec![
            format!("{target:.2}"),
            format!("{:.3}", stats.avg_clustering_coefficient),
            communities.community_count.to_string(),
            format!("{:.3}", communities.modularity),
            stats.components.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Finding check: the cc=0.3 graph should show higher modularity\n\
         (better-defined communities), as in the paper's right-hand panel."
    );
}

/// Figure 4: dataset variety — T_proc for BFS and PageRank.
fn fig4() {
    banner("Figure 4: dataset variety (Tproc)", "Section 4.1, Figure 4");
    println!("{}", dataset_variety().render_fig4());
}

/// Figure 5: dataset variety — EPS and EVPS for BFS.
fn fig5() {
    banner("Figure 5: EPS and EVPS for BFS", "Section 4.1, Figure 5");
    println!("{}", dataset_variety().render_fig5());
}

/// Table 8: T_proc and makespan for BFS on D300(L).
fn table8() {
    banner("Table 8: Tproc vs makespan", "Section 4.1, Table 8");
    println!("{}", dataset_variety().render_table8());
    println!("\nPaper values: makespan 276.6/298.3/214.7/22.8/5.4/268.7 s;");
    println!("              Tproc    22.3/101.5/2.1/0.3/1.8/0.5 s.");
}

/// Figure 6: algorithm variety on R4(S) and D300(L).
fn fig6() {
    banner("Figure 6: algorithm variety (Tproc)", "Section 4.2, Figure 6");
    println!("{}", algorithm_variety::run(&suite()).render_fig6());
    println!("F = failed (out of memory / SLA); NA = not implemented (LCC on PGX.D).");
}

/// Figure 7: vertical scalability — T_proc vs threads on D300(L).
fn fig7() {
    banner("Figure 7: vertical scalability", "Section 4.3, Figure 7");
    println!("{}", vertical_scalability().render_fig7());
}

/// Table 9: maximum vertical speedups (1-32 threads).
fn table9() {
    banner("Table 9: vertical speedups", "Section 4.3, Table 9");
    println!("{}", vertical_scalability().render_table9());
    println!("\nPaper values: BFS 6.0/4.5/11.8/6.9/6.3/15.0; PR 8.1/2.9/10.3/11.3/6.4/13.9.");
}

/// Figure 8: strong horizontal scalability on D1000(XL), plus the
/// measured shard sweep.
fn fig8() {
    banner("Figure 8: strong scalability", "Section 4.4, Figure 8");
    let suite = suite();
    println!("{}", strong::run(&suite).render_fig8());
    println!("F = failure (PGX.D exceeds single-machine memory; GraphX needs >= 2 machines).");
    println!();
    println!("{}", strong::run_measured(&suite, 1 << 12).render_fig8_measured());
    println!("NA = no sharded execution path; ism = inter-shard messages.");
}

/// Figure 9: weak horizontal scalability on graph500-22..26, plus the
/// measured shard sweep.
fn fig9() {
    banner("Figure 9: weak scalability", "Section 4.5, Figure 9");
    let suite = suite();
    println!("{}", weak::run(&suite).render_fig9());
    println!("Ideal weak scaling would be a constant row; slowdowns are the paper's metric.");
    println!();
    println!("{}", weak::run_measured(&suite, 1 << 14).render_fig9_measured());
    println!("NA = no sharded execution path; ism = inter-shard messages.");
}

/// Table 10: stress test — smallest dataset failing BFS per platform.
fn table10() {
    banner("Table 10: stress test", "Section 4.6, Table 10");
    println!("{}", stress::render_table10(&stress::run(&suite())));
    println!("\nPaper values: Giraph G26(9.0), GraphX G25(8.7), P'graph R5(9.3),");
    println!("              G'Mat G26(9.0), OpenG R5(9.3), PGX.D G25(8.7).");
}

/// Table 11: performance variability (mean and CV over 10 runs).
fn table11() {
    banner("Table 11: variability", "Section 4.7, Table 11");
    println!("{}", variability::render_table11(&variability::run(&suite())));
    println!("\nPaper CVs: S 5.0/2.6/1.5/9.7/4.8/8.2 %; D 9.8/4.5/4.5/5.7/-/7.1 %.");
}

/// Figure 10: Datagen execution time — old vs new flow, and cluster
/// scaling. Also runs a real small-scale generation to show both flows
/// produce identical graphs.
fn fig10() {
    banner("Figure 10: Datagen self-test", "Section 4.8, Figure 10");
    println!("{}", datagen_selftest::render_fig10());
    println!("Paper: v0.2.6 speedups 1.16/1.33/1.83/2.15/2.9x; SF1000@16m = 44 min (old 95).\n");

    // Real execution at small scale: both flows, identical output.
    println!("Real small-scale validation (SF 0.02, executed locally):");
    let cluster = HadoopCluster::das4(16);
    for flow in [FlowKind::Old, FlowKind::New] {
        let cfg = DatagenConfig::with_scale_factor(0.02).with_flow(flow);
        let (graph, report) = cfg.generate_with_report(&cluster);
        println!(
            "  {flow}: |V|={} |E|={} wall={:.2}s sim={:.0}s (dedup {} -> {})",
            graph.vertex_count(),
            graph.edge_count(),
            report.wall_seconds,
            report.sim_seconds,
            report.edges_before_dedup,
            report.edges_after_dedup,
        );
    }
}
