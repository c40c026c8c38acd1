//! The benchmark's correctness contract: every platform's output is
//! equivalent to the reference implementation (Section 2.2.3), for every
//! algorithm, on directed and undirected graphs from both generators —
//! and the platform lifecycle (upload once, execute many, delete) never
//! changes an answer.

use std::sync::Arc;

use graphalytics::prelude::*;

fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rmat = graphalytics::graph500::RmatConfig {
        scale: 9,
        edge_factor: 8,
        a: 0.5,
        b: 0.2,
        c: 0.2,
        seed: 11,
        directed: true,
        weighted: true,
        keep_isolated: false,
    };
    let directed = rmat.generate();
    rmat.directed = false;
    rmat.seed = 12;
    let undirected_kron = rmat.generate();
    let social = DatagenConfig::with_persons(500).with_seed(13).generate();
    vec![
        ("directed-rmat", directed),
        ("undirected-kronecker", undirected_kron),
        ("datagen-social", social),
    ]
}

#[test]
fn every_engine_matches_reference_on_every_algorithm() {
    let pool = WorkerPool::new(2);
    for (name, graph) in graphs() {
        let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
        let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
        let params = AlgorithmParams {
            source_vertex: Some(root),
            pagerank_iterations: 7,
            damping_factor: 0.85,
            cdlp_iterations: 4,
        };
        for platform in all_platforms() {
            // One upload per (platform, graph) serves every algorithm.
            let loaded = platform.upload(csr.clone(), &pool).unwrap();
            for algorithm in Algorithm::ALL {
                let mut ctx = RunContext::new(&pool);
                if !platform.supports(algorithm) {
                    assert!(
                        platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).is_err(),
                        "{}: unsupported algorithms must error",
                        platform.name()
                    );
                    continue;
                }
                let reference = run_reference(&csr, algorithm, &params).unwrap();
                let run = platform
                    .run(loaded.as_ref(), algorithm, &params, &mut ctx)
                    .unwrap_or_else(|e| panic!("{} {algorithm} on {name}: {e}", platform.name()));
                validate(&reference, &run.output)
                    .unwrap()
                    .into_result()
                    .unwrap_or_else(|e| panic!("{} {algorithm} on {name}: {e}", platform.name()));
                assert!(
                    run.counters.total_work() > 0,
                    "{} {algorithm} on {name}: counters must be populated",
                    platform.name()
                );
            }
            platform.delete(loaded);
        }
    }
}

#[test]
fn upload_once_execute_many_matches_fresh_upload_per_run() {
    // The lifecycle contract: reusing one uploaded representation across
    // repeated runs (and across algorithms) is bit-identical to paying a
    // fresh upload before every run, for all six engines.
    let graph = Graph500Config::new(9).with_seed(31).with_weights(true).generate();
    let pool = WorkerPool::new(2);
    let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
    let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
    let params = AlgorithmParams::with_source(root);
    for platform in all_platforms() {
        let shared = platform.upload(csr.clone(), &pool).unwrap();
        for algorithm in Algorithm::ALL {
            if !platform.supports(algorithm) {
                continue;
            }
            // Three runs on the shared upload...
            let mut shared_outputs = Vec::new();
            for _ in 0..3 {
                let mut ctx = RunContext::new(&pool);
                let run = platform.run(shared.as_ref(), algorithm, &params, &mut ctx).unwrap();
                shared_outputs.push(run.output);
            }
            // ...must equal three runs each on its own fresh upload.
            for (rep, shared_output) in shared_outputs.iter().enumerate() {
                let fresh = platform.upload(csr.clone(), &pool).unwrap();
                let mut ctx = RunContext::new(&pool);
                let run = platform.run(fresh.as_ref(), algorithm, &params, &mut ctx).unwrap();
                platform.delete(fresh);
                assert_eq!(
                    *shared_output,
                    run.output,
                    "{} {algorithm} rep {rep}: shared upload changed the output",
                    platform.name()
                );
            }
            // Repeated runs on one upload are also identical to each
            // other (engines are deterministic; state never leaks
            // between runs).
            for output in &shared_outputs[1..] {
                assert_eq!(shared_outputs[0], *output, "{}", platform.name());
            }
        }
        platform.delete(shared);
    }
}

#[test]
fn outputs_bit_identical_across_pool_widths() {
    // The execution-runtime determinism contract, checked end to end:
    // every engine, every algorithm, pools of width 1 (inline), 2, 4 and
    // 8 — outputs must be *equal*, not merely epsilon-equivalent, and
    // the upload (CSR build + engine preprocessing) must be too. Two
    // instances: a registry proxy dataset (G22, unweighted) and a
    // weighted Graph500 instance so SSSP's f64 relaxations are covered
    // as well.
    let spec = graphalytics::core::datasets::dataset("G22").unwrap();
    let proxy = graphalytics::harness::proxy::materialize(spec, 1 << 14, 21);
    let weighted = Graph500Config::new(9).with_seed(21).with_weights(true).generate();
    let baseline_pool = WorkerPool::inline();
    for (name, graph) in [("G22-proxy", &proxy), ("graph500-9w", &weighted)] {
        let csr = Arc::new(graph.to_csr_with(&baseline_pool).unwrap());
        let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
        let params = AlgorithmParams::with_source(root);
        for platform in all_platforms() {
            let baseline_loaded = platform.upload(csr.clone(), &baseline_pool).unwrap();
            for algorithm in Algorithm::ALL {
                if !platform.supports(algorithm)
                    || (algorithm.needs_weights() && !csr.is_weighted())
                {
                    continue;
                }
                let mut ctx = RunContext::new(&baseline_pool);
                let baseline =
                    platform.run(baseline_loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
                for threads in [2u32, 4, 8] {
                    let pool = WorkerPool::new(threads);
                    let wide_csr = Arc::new(graph.to_csr_with(&pool).unwrap());
                    let loaded = platform.upload(wide_csr, &pool).unwrap();
                    let mut ctx = RunContext::new(&pool);
                    let run = platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
                    platform.delete(loaded);
                    assert_eq!(
                        baseline.output,
                        run.output,
                        "{} {algorithm} on {name}: pool width {threads} changed the output",
                        platform.name()
                    );
                    // Deterministic work accounting too (same algorithmic work).
                    assert_eq!(
                        baseline.counters.supersteps,
                        run.counters.supersteps,
                        "{} {algorithm} on {name} supersteps at width {threads}",
                        platform.name()
                    );
                    assert_eq!(
                        baseline.counters.edges_scanned,
                        run.counters.edges_scanned,
                        "{} {algorithm} on {name} edges_scanned at width {threads}",
                        platform.name()
                    );
                }
            }
            platform.delete(baseline_loaded);
        }
    }
}

#[test]
fn engines_differ_in_work_pattern_not_in_results() {
    // The paper's premise: same answers, very different work. On a BFS
    // with limited reachability, the native queue engine must touch far
    // fewer vertices than the Pregel engine.
    let graph = graphalytics::graph500::RmatConfig {
        scale: 10,
        edge_factor: 4,
        a: 0.6,
        b: 0.18,
        c: 0.18,
        seed: 33,
        directed: true,
        weighted: false,
        keep_isolated: false,
    }
    .generate();
    let csr = Arc::new(graph.to_csr());
    let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
    let params = AlgorithmParams::with_source(root);

    let native = platform_by_name("OpenG").unwrap();
    let pregel = platform_by_name("Giraph").unwrap();
    let pool = WorkerPool::new(2);
    let native_run = run_once(native.as_ref(), &csr, Algorithm::Bfs, &params, &pool).unwrap();
    let pregel_run = run_once(pregel.as_ref(), &csr, Algorithm::Bfs, &params, &pool).unwrap();
    validate(&native_run.output, &pregel_run.output).unwrap().into_result().unwrap();
    assert!(
        pregel_run.counters.vertices_processed > 2 * native_run.counters.vertices_processed,
        "pregel iterates all vertices per superstep ({} vs {})",
        pregel_run.counters.vertices_processed,
        native_run.counters.vertices_processed
    );
    assert_eq!(native_run.counters.messages, 0);
    assert!(pregel_run.counters.messages > 0);
}
