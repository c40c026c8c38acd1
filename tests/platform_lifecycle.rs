//! The execute-phase contract every engine's `Platform::run` honours —
//! what the harness may rely on whatever engine it drives:
//!
//! * (a) a successful run records exactly one `ProcessGraph` phase, and
//!   its seconds are the `Execution::wall_seconds` it returns;
//! * (b) SSSP on an unweighted upload and (c) BFS/SSSP with a missing or
//!   undeclared source fail with the reference implementation's messages;
//! * (d) a cancelled run keeps no spans and leaves no collector behind,
//!   so the next traced run on the thread holds only its own spans;
//! * (e) a graph uploaded by one engine is refused by every other;
//! * (f) push–pull declines LCC as `Error::Unsupported`;
//! * (g) with tracing off, nothing is collected.

use std::sync::Arc;

use graphalytics::core::datasets::dataset;
use graphalytics::core::error::Error;
use graphalytics::core::fault::{self, CancelToken, FaultKind, FaultScript, FaultSite, Injection};
use graphalytics::engines::{upload_with_shards, Execution};
use graphalytics::harness::proxy;
use graphalytics::prelude::*;

/// A weighted undirected proxy and an unweighted directed one.
fn proxies(pool: &WorkerPool) -> Vec<(&'static str, Arc<Csr>)> {
    ["R4", "R1"]
        .into_iter()
        .map(|id| {
            let spec = dataset(id).unwrap();
            (id, Arc::new(proxy::materialize_with(spec, 4096, 7, pool).to_csr()))
        })
        .collect()
}

fn source_params(csr: &Csr) -> AlgorithmParams {
    AlgorithmParams::with_source(SourceSelection::MaxOutDegree.resolve(csr).unwrap())
}

/// Shard counts an engine's uploads come in.
fn shard_counts(platform: &dyn Platform) -> &'static [u32] {
    if platform.supports_sharded() {
        &[1, 2]
    } else {
        &[1]
    }
}

fn run(
    platform: &dyn Platform,
    loaded: &dyn LoadedGraph,
    algorithm: Algorithm,
    params: &AlgorithmParams,
    ctx: &mut RunContext<'_>,
) -> Result<Execution, Error> {
    platform.run(loaded, algorithm, params, ctx)
}

fn phase_names(ctx: &RunContext<'_>) -> Vec<&'static str> {
    ctx.phases().iter().map(|p| p.name).collect()
}

#[test]
fn one_process_graph_phase_and_the_reference_input_rules() {
    let pool = WorkerPool::new(2);
    for (id, csr) in proxies(&pool) {
        let params = source_params(&csr);
        let missing = AlgorithmParams { source_vertex: None, ..params };
        let undeclared = AlgorithmParams { source_vertex: Some(u64::MAX), ..params };
        for platform in all_platforms() {
            for &shards in shard_counts(platform.as_ref()) {
                let loaded =
                    upload_with_shards(platform.as_ref(), csr.clone(), shards, 3, &pool).unwrap();
                let cell = |alg: Algorithm| format!("{} s{shards} {alg} on {id}", platform.name());
                for algorithm in Algorithm::ALL {
                    let mut ctx = RunContext::new(&pool);
                    let outcome =
                        run(platform.as_ref(), loaded.as_ref(), algorithm, &params, &mut ctx);
                    if !platform.supports(algorithm) {
                        assert!(
                            matches!(outcome, Err(Error::Unsupported { .. })),
                            "{}: {outcome:?}",
                            cell(algorithm)
                        );
                        assert!(ctx.phases().is_empty(), "{}", cell(algorithm));
                        continue;
                    }
                    let reference = run_reference(&csr, algorithm, &params);
                    match (outcome, reference) {
                        // (a) one ProcessGraph phase, timed by the run's own clock.
                        (Ok(exec), Ok(expected)) => {
                            assert_eq!(phase_names(&ctx), ["ProcessGraph"], "{}", cell(algorithm));
                            assert_eq!(
                                ctx.phases()[0].secs.to_bits(),
                                exec.wall_seconds.to_bits(),
                                "{}",
                                cell(algorithm)
                            );
                            assert_eq!(exec.output.algorithm, algorithm);
                            assert_eq!(exec.output.values.len(), expected.values.len());
                        }
                        // (b) the reference's input rule, word for word.
                        (Err(got), Err(want)) => {
                            assert!(
                                matches!(
                                    (&got, &want),
                                    (Error::InvalidParameters(g), Error::InvalidParameters(w))
                                        if g == w && g == "SSSP requires a weighted graph"
                                ),
                                "{}: {got:?} vs reference {want:?}",
                                cell(algorithm)
                            );
                            assert!(ctx.phases().is_empty(), "{}", cell(algorithm));
                        }
                        (got, want) => {
                            panic!("{}: engine {got:?} vs reference {want:?}", cell(algorithm))
                        }
                    }
                }
                // (c) a missing or undeclared root, for both rooted algorithms.
                for algorithm in [Algorithm::Bfs, Algorithm::Sssp] {
                    for bad in [&missing, &undeclared] {
                        let mut ctx = RunContext::new(&pool);
                        let got = run(platform.as_ref(), loaded.as_ref(), algorithm, bad, &mut ctx)
                            .unwrap_err();
                        let want = run_reference(&csr, algorithm, bad).unwrap_err();
                        assert!(
                            matches!(got, Error::InvalidParameters(_)),
                            "{}: {got:?}",
                            cell(algorithm)
                        );
                        assert_eq!(got.to_string(), want.to_string(), "{}", cell(algorithm));
                        assert!(ctx.phases().is_empty() && ctx.spans().is_empty());
                    }
                }
                platform.delete(loaded);
            }
        }
    }
}

/// Span names of one traced run, top level and children.
fn span_shape(ctx: &RunContext<'_>) -> Vec<(String, usize)> {
    ctx.spans().iter().map(|s| (s.name.clone(), s.children.len())).collect()
}

#[test]
fn cancelled_and_aborted_runs_leave_no_spans_behind() {
    let pool = WorkerPool::new(2);
    let (_, csr) = proxies(&pool).remove(0);
    let params = source_params(&csr);
    let mut traced_cells = 0;
    for platform in all_platforms() {
        for &shards in shard_counts(platform.as_ref()) {
            let loaded =
                upload_with_shards(platform.as_ref(), csr.clone(), shards, 3, &pool).unwrap();
            for algorithm in Algorithm::ALL.into_iter().filter(|&a| platform.supports(a)) {
                let cell = format!("{} s{shards} {algorithm}", platform.name());
                let mut clean = RunContext::new(&pool);
                run(platform.as_ref(), loaded.as_ref(), algorithm, &params, &mut clean).unwrap();
                let shape = span_shape(&clean);
                traced_cells += usize::from(!shape.is_empty());

                // (d) cancelled before it starts: nothing kept.
                let token = CancelToken::new();
                token.cancel();
                let mut cancelled = RunContext::new(&pool);
                cancelled.set_cancel(token);
                let err =
                    run(platform.as_ref(), loaded.as_ref(), algorithm, &params, &mut cancelled)
                        .unwrap_err();
                assert!(matches!(err, Error::Cancelled), "{cell}: {err:?}");
                assert!(cancelled.spans().is_empty(), "{cell}: a cancelled run keeps no spans");
                assert!(cancelled.phases().is_empty(), "{cell}");

                // Aborted at the first superstep: whatever was recorded is
                // the aborted run's, and no collector outlives it.
                let guard = fault::install(
                    CancelToken::new(),
                    FaultScript::new(vec![Injection::new(
                        FaultSite::Superstep,
                        0,
                        FaultKind::Alloc,
                    )]),
                );
                let mut aborted = RunContext::new(&pool);
                let err = run(platform.as_ref(), loaded.as_ref(), algorithm, &params, &mut aborted)
                    .unwrap_err();
                drop(guard);
                assert!(matches!(err, Error::Injected { .. }), "{cell}: {err:?}");
                assert!(aborted.phases().is_empty(), "{cell}");

                let mut next = RunContext::new(&pool);
                run(platform.as_ref(), loaded.as_ref(), algorithm, &params, &mut next).unwrap();
                assert_eq!(
                    span_shape(&next),
                    shape,
                    "{cell}: the next run holds only its own spans"
                );
            }
            platform.delete(loaded);
        }
    }
    // Native WCC is one union–find pass with no superstep to lap; every
    // other cell traces.
    assert!(traced_cells > 30, "{traced_cells} cells traced");
}

#[test]
fn tracing_off_collects_nothing() {
    // (g)
    let pool = WorkerPool::new(2);
    for (id, csr) in proxies(&pool) {
        let params = source_params(&csr);
        for platform in all_platforms() {
            for &shards in shard_counts(platform.as_ref()) {
                let loaded =
                    upload_with_shards(platform.as_ref(), csr.clone(), shards, 3, &pool).unwrap();
                for algorithm in Algorithm::ALL.into_iter().filter(|&a| platform.supports(a)) {
                    if algorithm == Algorithm::Sssp && !csr.is_weighted() {
                        continue;
                    }
                    let mut ctx = RunContext::new(&pool);
                    ctx.set_tracing(false);
                    run(platform.as_ref(), loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
                    assert!(
                        ctx.spans().is_empty(),
                        "{} s{shards} {algorithm} on {id}",
                        platform.name()
                    );
                    assert_eq!(phase_names(&ctx), ["ProcessGraph"]);
                }
                platform.delete(loaded);
            }
        }
    }
}

#[test]
fn foreign_graphs_are_refused_by_every_other_engine() {
    // (e) all 30 ordered (uploader, runner) pairs.
    let pool = WorkerPool::new(2);
    let (_, csr) = proxies(&pool).remove(0);
    let params = source_params(&csr);
    let platforms = all_platforms();
    let mut pairs = 0;
    for uploader in &platforms {
        let loaded = uploader.upload(csr.clone(), &pool).unwrap();
        for runner in platforms.iter().filter(|p| p.name() != uploader.name()) {
            let mut ctx = RunContext::new(&pool);
            let err = run(runner.as_ref(), loaded.as_ref(), Algorithm::Bfs, &params, &mut ctx)
                .unwrap_err();
            assert!(
                err.to_string().contains("not uploaded"),
                "{} on a {} upload: {err}",
                runner.name(),
                uploader.name()
            );
            assert!(ctx.phases().is_empty() && ctx.spans().is_empty());
            pairs += 1;
        }
        uploader.delete(loaded);
    }
    assert_eq!(pairs, 30);
}

#[test]
fn pushpull_declines_lcc() {
    let pool = WorkerPool::new(2);
    let (_, csr) = proxies(&pool).remove(0);
    let params = source_params(&csr);
    let pushpull = platform_by_name("pushpull").unwrap();
    let loaded = pushpull.upload(csr, &pool).unwrap();

    // (f)
    let mut ctx = RunContext::new(&pool);
    let err =
        run(pushpull.as_ref(), loaded.as_ref(), Algorithm::Lcc, &params, &mut ctx).unwrap_err();
    assert!(matches!(err, Error::Unsupported { .. }), "{err:?}");
    assert!(ctx.phases().is_empty(), "a declined run records no phase");
    pushpull.delete(loaded);
}
