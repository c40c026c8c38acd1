//! Baseline experiment: dataset variety (Section 4.1, Figures 4–5,
//! Table 8).
//!
//! BFS and PageRank on every dataset up to class L, single machine.
//! Reports T_proc per platform (Figure 4), EPS/EVPS (Figure 5), and the
//! makespan/T_proc breakdown for BFS on D300(L) (Table 8).

use graphalytics_cluster::ClusterSpec;
use graphalytics_core::datasets::{datasets_up_to, DatasetSpec};
use graphalytics_core::{Algorithm, SizeClass};

use crate::driver::JobResult;
use crate::report::{fmt_secs, throughput_cell, tproc_cell, TextTable};

use super::ExperimentSuite;

/// Results of the dataset-variety experiment.
pub struct DatasetVariety {
    /// Platform labels (columns).
    pub platforms: Vec<String>,
    /// `(dataset, algorithm, per-platform results)` rows.
    pub rows: Vec<(&'static DatasetSpec, Algorithm, Vec<JobResult>)>,
}

/// Runs BFS + PR over all datasets up to class L on one machine.
pub fn run(suite: &ExperimentSuite) -> DatasetVariety {
    // The paper's Figure 4 shows a representative subset; we run them all.
    let datasets = datasets_up_to(SizeClass::L);
    let mut rows = Vec::new();
    for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
        for dataset in &datasets {
            let results = suite
                .platforms
                .iter()
                .map(|p| {
                    suite.run_analytic(
                        p.as_ref(),
                        dataset,
                        algorithm,
                        ClusterSpec::single_machine(),
                        0,
                    )
                })
                .collect();
            rows.push((*dataset, algorithm, results));
        }
    }
    DatasetVariety { platforms: suite.platform_labels(), rows }
}

impl DatasetVariety {
    /// Figure 4: T_proc for BFS and PR across datasets.
    pub fn render_fig4(&self) -> String {
        let mut out = String::new();
        for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
            let mut headers = vec!["dataset".to_string()];
            headers.extend(self.platforms.clone());
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!("Figure 4 ({}): Tproc, 1 machine", algorithm),
                &headers_ref,
            );
            for (dataset, alg, results) in &self.rows {
                if *alg != algorithm {
                    continue;
                }
                let mut cells = vec![dataset.display_id()];
                cells.extend(results.iter().map(tproc_cell));
                table.add_row(cells);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Figure 5: EPS and EVPS for BFS.
    pub fn render_fig5(&self) -> String {
        let mut out = String::new();
        for (metric, f) in [
            ("EPS", Box::new(|r: &JobResult| r.eps()) as Box<dyn Fn(&JobResult) -> f64>),
            ("EVPS", Box::new(|r: &JobResult| r.evps())),
        ] {
            let mut headers = vec!["dataset".to_string()];
            headers.extend(self.platforms.clone());
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table =
                TextTable::new(format!("Figure 5 (BFS): {metric}, 1 machine"), &headers_ref);
            for (dataset, alg, results) in &self.rows {
                if *alg != Algorithm::Bfs {
                    continue;
                }
                let mut cells = vec![dataset.display_id()];
                cells.extend(results.iter().map(|r| throughput_cell(r, f(r))));
                table.add_row(cells);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Table 8: makespan vs T_proc for BFS on D300(L).
    pub fn render_table8(&self) -> String {
        let mut table = TextTable::new(
            "Table 8: Tproc and makespan for BFS on D300(L)",
            &["time", "Giraph", "GraphX", "P'Graph", "G'Mat(S)", "OpenG", "PGX.D"],
        );
        if let Some((_, _, results)) = self
            .rows
            .iter()
            .find(|(d, a, _)| d.id == "D300" && *a == Algorithm::Bfs)
        {
            let mut makespan = vec!["Makespan".to_string()];
            let mut tproc = vec!["Tproc".to_string()];
            let mut ratio = vec!["Ratio".to_string()];
            for r in results {
                makespan.push(fmt_secs(r.makespan_secs));
                tproc.push(fmt_secs(r.processing_secs));
                ratio.push(format!("{:.1}%", 100.0 * r.processing_secs / r.makespan_secs));
            }
            table.add_row(makespan);
            table.add_row(tproc);
            table.add_row(ratio);
        }
        table.render()
    }

    /// Raw BFS D300 results (the paper-vs-model rows).
    pub fn bfs_d300(&self) -> Option<&Vec<JobResult>> {
        self.rows
            .iter()
            .find(|(d, a, _)| d.id == "D300" && *a == Algorithm::Bfs)
            .map(|(_, _, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::JobStatus;

    #[test]
    fn dataset_variety_reproduces_section_4_1_findings() {
        let suite = ExperimentSuite::without_noise();
        let dv = run(&suite);
        // Key finding: GraphMat and PGX.D significantly outperform;
        // Giraph and GraphX are ~2 orders of magnitude slower.
        let results = dv.bfs_d300().expect("D300 BFS present");
        let by = |analog: &str| {
            results.iter().find(|r| r.paper_analog == analog).unwrap().processing_secs
        };
        assert!(by("GraphMat") < by("PowerGraph"));
        assert!(by("PGX.D") < by("PowerGraph"));
        assert!(by("Giraph") > 10.0 * by("GraphMat"));
        assert!(by("GraphX") > 50.0 * by("GraphMat"));
        // Every job on the datasets Figure 4 displays completes on one
        // machine. (The full ≤L sweep includes G25, where GraphX and
        // PGX.D fail exactly as Table 10 prescribes.)
        let fig4 = ["R1", "R2", "R3", "R4", "G23", "D300"];
        for (d, _, results) in &dv.rows {
            if !fig4.contains(&d.id) {
                continue;
            }
            for r in results {
                assert_eq!(r.status, JobStatus::Completed, "{} on {}", r.paper_analog, r.dataset);
            }
        }
        // Tables render.
        assert!(dv.render_fig4().contains("Figure 4"));
        assert!(dv.render_fig5().contains("EVPS"));
        assert!(dv.render_table8().contains("Makespan"));
    }

    #[test]
    fn table8_overhead_shape_matches_paper() {
        // The paper: overhead between 66% and 99.8% of makespan; OpenG
        // and GraphMat have the smallest makespans.
        let suite = ExperimentSuite::without_noise();
        let dv = run(&suite);
        let results = dv.bfs_d300().unwrap();
        for r in results {
            let overhead = 1.0 - r.processing_secs / r.makespan_secs;
            assert!(
                (0.3..1.0).contains(&overhead),
                "{}: overhead {overhead:.2} out of range",
                r.paper_analog
            );
        }
        let makespan = |analog: &str| {
            results.iter().find(|r| r.paper_analog == analog).unwrap().makespan_secs
        };
        assert!(makespan("OpenG") < makespan("Giraph"));
        assert!(makespan("OpenG") < makespan("PGX.D"));
        assert!(makespan("GraphMat") < makespan("GraphX"));
    }
}
