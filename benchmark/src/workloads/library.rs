//! The two library workloads: `load_cold` (upload path) and `kernels_warm`
//! (processing only). Every job is validated against `run_reference`
//! under `validation::validate`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::{Recorder, Sample, Sizes, Workload};
use crate::catalog::SHARDED_ALGORITHMS;
use crate::layers::{
    self, Algorithm, AlgorithmOutput, AlgorithmParams, Csr, GraphFiles, LoadedGraph, Platform,
    PoolSnapshot, WorkerPool, ENGINES, SHARDED_ENGINES,
};
use crate::stats::Rng;

fn all_platforms() -> Vec<(&'static str, Box<dyn Platform>)> {
    ENGINES
        .iter()
        .map(|name| (*name, layers::platform(name)))
        .collect()
}

/// Pool telemetry over the traced run, as counts the report turns into
/// `pool.*`.
fn count_pool_delta(rec: &mut Recorder, before: PoolSnapshot, pool: &WorkerPool) {
    let after = layers::pool_snapshot(pool);
    rec.count("pool.busy_secs", after.busy_secs - before.busy_secs);
    rec.count(
        "pool.dispatch_wait_secs",
        after.dispatch_wait_secs - before.dispatch_wait_secs,
    );
    rec.count(
        "pool.dispatch_wakeups",
        after.dispatch_wakeups - before.dispatch_wakeups,
    );
}

// --- load_cold ---------------------------------------------------------------

struct LoadFile {
    graph: String,
    files: GraphFiles,
    edges: u64,
    resident_bytes: u64,
    /// Native BFS reference on this file's graph.
    reference: AlgorithmOutput,
}

/// Job = `read_graph_with` → `to_csr_with` → `Platform::upload` on all six
/// engines → native BFS → validate → delete, alternating between a
/// weighted undirected Graph500 file and an unweighted directed R-MAT
/// file (a weight-parse shortcut shows on one and not the other).
pub struct LoadCold {
    pool: Arc<WorkerPool>,
    seed: u64,
    platforms: Vec<(&'static str, Box<dyn Platform>)>,
    files: Vec<LoadFile>,
    dir: PathBuf,
    pool_before: PoolSnapshot,
}

impl LoadCold {
    pub fn set_up(sizes: &Sizes, seed: u64, scratch: &Path) -> Result<LoadCold, String> {
        let pool = layers::pool();
        let dir = scratch.join(format!("load_cold-{}", std::process::id()));
        let graphs = [
            (
                format!("g500-{}w", sizes.load_scale),
                layers::generate_graph500(sizes.load_scale, seed, true, &pool),
            ),
            (
                format!("rmat-{}d", sizes.load_scale),
                layers::generate_rmat_directed(sizes.load_scale, seed, &pool),
            ),
        ];
        let mut files = Vec::new();
        for (name, graph) in graphs {
            let written =
                layers::write_graph_files(&graph, &dir, &name).map_err(|e| e.to_string())?;
            let csr = layers::build_csr(&graph, &pool)?;
            let reference = layers::reference(&csr, Algorithm::Bfs, &layers::params_for(&csr))?;
            files.push(LoadFile {
                graph: name,
                files: written,
                edges: layers::edge_count(&graph),
                resident_bytes: csr.resident_bytes(),
                reference,
            });
        }
        Ok(LoadCold {
            pool,
            seed,
            platforms: all_platforms(),
            files,
            dir,
            pool_before: PoolSnapshot::default(),
        })
    }

    fn job(&self, file: &LoadFile, rec: &mut Recorder) {
        rec.begin_job();
        let pool: &WorkerPool = &self.pool;
        let mut sample = Sample {
            engine: "native".into(),
            graph: file.graph.clone(),
            algorithm: Some(Algorithm::Bfs),
            ..Sample::default()
        };
        let mut load_secs = 0.0;
        let (outcome, makespan) = rec
            .tracer
            .scope("job", |t| -> Result<(f64, u64, u64), String> {
                let (graph, secs) = t.scope("io.parse", |_| layers::read_graph(&file.files, pool));
                load_secs += secs;
                let graph = graph?;
                let (csr, secs) = t.scope("csr.build", |_| layers::build_csr(&graph, pool));
                load_secs += secs;
                let csr = csr?;
                let mut loaded = Vec::with_capacity(self.platforms.len());
                for (name, platform) in &self.platforms {
                    let (upload, secs) = t.scope(&format!("engines.{name}.upload"), |_| {
                        layers::upload(platform.as_ref(), &csr, 1, self.seed, pool)
                    });
                    load_secs += secs;
                    loaded.push(upload?);
                }
                let params = layers::params_for(&csr);
                let native = ENGINES
                    .iter()
                    .position(|e| *e == "native")
                    .expect("native engine");
                let (run, _) = t.scope("engines.native.bfs.run", |_| {
                    layers::run(
                        self.platforms[native].1.as_ref(),
                        loaded[native].as_ref(),
                        Algorithm::Bfs,
                        &params,
                        pool,
                    )
                });
                let run = run?;
                t.scope("validation.compare", |_| {
                    layers::validate(&file.reference, &run.output)
                })
                .0?;
                t.scope("engines.delete", |_| {
                    for ((_, platform), graph) in self.platforms.iter().zip(loaded) {
                        platform.delete(graph);
                    }
                });
                Ok((
                    run.tproc_secs,
                    layers::checksum(&run.output),
                    layers::vertices_plus_edges(&csr),
                ))
            });
        sample.makespan_secs = makespan;
        match outcome {
            Ok((tproc, checksum, vpe)) => {
                sample.tproc_secs = Some(tproc);
                sample.vertices_plus_edges = vpe;
                sample.load = Some((file.edges, load_secs));
                sample.failure = rec.check_fingerprint(&sample.cell(), checksum).err();
                rec.count("io.parse.edges", file.edges as f64);
                rec.count("io.parse.bytes", file.files.bytes as f64);
                rec.count("csr.build.edges", file.edges as f64);
            }
            Err(e) => sample.failure = Some(e),
        }
        rec.end_job(sample);
    }
}

impl Workload for LoadCold {
    fn pass(&mut self, rng: &mut Rng, rec: &mut Recorder) {
        let mut order: Vec<usize> = (0..self.files.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            self.job(&self.files[i], rec);
        }
    }

    /// The sequential twins of the pool parse and the pool build, and the
    /// vertex file on its own.
    fn probes(&mut self, rec: &mut Recorder) {
        let inline = layers::inline_pool();
        for file in &self.files {
            let _ = rec
                .tracer
                .scope("io.vertex_parse", |_| layers::read_vertices(&file.files));
            let (graph, _) = rec
                .tracer
                .scope("io.parse_seq", |_| layers::read_graph(&file.files, &inline));
            rec.count("io.parse_seq.edges", file.edges as f64);
            if let Ok(graph) = graph {
                let _ = rec
                    .tracer
                    .scope("csr.build_seq", |_| layers::build_csr(&graph, &inline));
                rec.count("csr.build_seq.edges", file.edges as f64);
            }
        }
    }

    fn begin_traced(&mut self, _rec: &mut Recorder) {
        self.pool_before = layers::pool_snapshot(&self.pool);
    }

    fn end_traced(&mut self, rec: &mut Recorder) {
        count_pool_delta(rec, self.pool_before, &self.pool);
    }

    fn memory_pass(&self) -> u64 {
        30
    }

    fn working_set(&self) -> Vec<(String, u64)> {
        self.files
            .iter()
            .map(|f| (f.graph.clone(), f.resident_bytes))
            .collect()
    }
}

impl Drop for LoadCold {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// --- kernels_warm ------------------------------------------------------------

struct WarmGraph {
    name: String,
    csr: Arc<Csr>,
    params: AlgorithmParams,
    /// Reference output per algorithm acronym.
    references: BTreeMap<&'static str, AlgorithmOutput>,
}

struct WarmCell {
    /// Engine, with `-s2` for the two-shard upload.
    engine: String,
    platform: usize,
    upload: usize,
    graph: usize,
    algorithm: Algorithm,
    /// Runs per pass: cells well under 50 ms get three.
    reps: usize,
}

/// Job = one `Platform::run` on a graph uploaded in set-up, validated
/// after the clock stops. Cells: every supported engine × algorithm on a
/// weighted undirected and an unweighted directed graph (LCC on a smaller
/// one), plus the two-shard uploads of the sharded engines.
pub struct KernelsWarm {
    pool: Arc<WorkerPool>,
    platforms: Vec<(&'static str, Box<dyn Platform>)>,
    graphs: Vec<WarmGraph>,
    uploads: Vec<Box<dyn LoadedGraph>>,
    cells: Vec<WarmCell>,
    pool_before: PoolSnapshot,
}

/// Engines whose BFS/PR/WCC/SSSP kernels take a few milliseconds at the
/// benchmark's scale.
const LIGHT_ENGINES: [&str; 5] = ["gas", "spmv", "native", "pushpull", "pushpull-s2"];

impl KernelsWarm {
    pub fn set_up(sizes: &Sizes, seed: u64) -> Result<KernelsWarm, String> {
        use Algorithm::{Bfs, Cdlp, Lcc, PageRank, Sssp, Wcc};
        let pool = layers::pool();
        let specs: [(String, _, &[Algorithm]); 3] = [
            (
                format!("g500-{}w", sizes.scale),
                layers::generate_graph500(sizes.scale, seed, true, &pool),
                &[Bfs, PageRank, Wcc, Cdlp, Sssp],
            ),
            (
                format!("rmat-{}d", sizes.scale),
                layers::generate_rmat_directed(sizes.scale, seed, &pool),
                &[Bfs, PageRank, Wcc, Cdlp],
            ),
            (
                format!("g500-{}w", sizes.lcc_scale),
                layers::generate_graph500(sizes.lcc_scale, seed, true, &pool),
                &[Lcc],
            ),
        ];
        let platforms = all_platforms();
        let (mut graphs, mut uploads, mut cells) = (Vec::new(), Vec::new(), Vec::new());
        for (name, graph, algorithms) in specs {
            let csr = layers::build_csr(&graph, &pool)?;
            let params = layers::params_for(&csr);
            let mut references = BTreeMap::new();
            for algorithm in algorithms {
                references.insert(
                    algorithm.acronym(),
                    layers::reference(&csr, *algorithm, &params)?,
                );
            }
            for (p, (engine, platform)) in platforms.iter().enumerate() {
                let sharded = SHARDED_ENGINES.contains(engine) && !algorithms.contains(&Lcc);
                for shards in if sharded { 1..=2 } else { 1..=1 } {
                    uploads.push(layers::upload(
                        platform.as_ref(),
                        &csr,
                        shards,
                        seed,
                        &pool,
                    )?);
                    let engine_key = if shards == 1 {
                        engine.to_string()
                    } else {
                        format!("{engine}-s{shards}")
                    };
                    for algorithm in algorithms {
                        let in_shard_mix = SHARDED_ALGORITHMS.contains(&algorithm.acronym());
                        if !platform.supports(*algorithm) || (shards > 1 && !in_shard_mix) {
                            continue;
                        }
                        let light = LIGHT_ENGINES.contains(&engine_key.as_str())
                            && matches!(algorithm, Bfs | PageRank | Wcc | Sssp);
                        cells.push(WarmCell {
                            engine: engine_key.clone(),
                            platform: p,
                            upload: uploads.len() - 1,
                            graph: graphs.len(),
                            algorithm: *algorithm,
                            reps: if light { 3 } else { 1 },
                        });
                    }
                }
            }
            graphs.push(WarmGraph {
                name,
                csr,
                params,
                references,
            });
        }
        Ok(KernelsWarm {
            pool,
            platforms,
            graphs,
            uploads,
            cells,
            pool_before: PoolSnapshot::default(),
        })
    }

    fn job(&self, cell: &WarmCell, rec: &mut Recorder) {
        rec.begin_job();
        let graph = &self.graphs[cell.graph];
        let mut sample = Sample {
            engine: cell.engine.clone(),
            graph: graph.name.clone(),
            algorithm: Some(cell.algorithm),
            vertices_plus_edges: layers::vertices_plus_edges(&graph.csr),
            ..Sample::default()
        };
        let name = format!("engines.{}.{}.run", cell.engine, cell.algorithm);
        let (run, makespan) = rec.tracer.scope("job", |t| {
            t.scope(&name, |_| {
                layers::run(
                    self.platforms[cell.platform].1.as_ref(),
                    self.uploads[cell.upload].as_ref(),
                    cell.algorithm,
                    &graph.params,
                    &self.pool,
                )
            })
            .0
        });
        sample.makespan_secs = makespan;
        // The clock has stopped: T_proc excludes validation.
        match run {
            Ok(run) => {
                sample.tproc_secs = Some(run.tproc_secs);
                let reference = &graph.references[cell.algorithm.acronym()];
                let valid = rec
                    .tracer
                    .scope("validation.compare", |_| {
                        layers::validate(reference, &run.output)
                    })
                    .0;
                let checked = valid.and_then(|()| {
                    rec.check_fingerprint(&sample.cell(), layers::checksum(&run.output))
                });
                if checked == Ok(true) {
                    rec.count_work(
                        cell.algorithm,
                        run.edges_scanned,
                        run.messages,
                        run.supersteps,
                    );
                }
                sample.failure = checked.err();
            }
            Err(e) => sample.failure = Some(e),
        }
        rec.end_job(sample);
    }
}

impl Workload for KernelsWarm {
    fn pass(&mut self, rng: &mut Rng, rec: &mut Recorder) {
        let mut order: Vec<usize> = self
            .cells
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.reps))
            .collect();
        rng.shuffle(&mut order);
        for i in order {
            self.job(&self.cells[i], rec);
        }
    }

    /// The reference implementations, once per algorithm (LCC on its own
    /// graph, the rest on the first).
    fn probes(&mut self, rec: &mut Recorder) {
        for graph in [&self.graphs[0], &self.graphs[2]] {
            for algorithm in layers::ALGORITHMS {
                if graph.references.contains_key(algorithm.acronym()) {
                    let _ = rec.tracer.scope(&format!("reference.{algorithm}"), |_| {
                        layers::reference(&graph.csr, algorithm, &graph.params)
                    });
                }
            }
        }
    }

    fn begin_traced(&mut self, _rec: &mut Recorder) {
        self.pool_before = layers::pool_snapshot(&self.pool);
    }

    fn end_traced(&mut self, rec: &mut Recorder) {
        count_pool_delta(rec, self.pool_before, &self.pool);
    }

    fn memory_pass(&self) -> u64 {
        2
    }

    fn working_set(&self) -> Vec<(String, u64)> {
        self.graphs
            .iter()
            .map(|g| (g.name.clone(), g.csr.resident_bytes()))
            .collect()
    }
}
