//! Platform comparison on real executions: runs BFS and PageRank through
//! all six engines on the same proxy graph, validates every output, and
//! prints measured wall time plus simulated single-machine T_proc —
//! a miniature, *measured* version of the paper's Figure 4.
//!
//! ```text
//! cargo run --release --example platform_comparison
//! ```

use std::sync::Arc;
use std::time::Instant;

use graphalytics::cluster::cost::processing_time;
use graphalytics::cluster::PerfProfile;
use graphalytics::harness::proxy;
use graphalytics::prelude::*;

fn main() {
    // A scaled-down proxy of the paper's G22 dataset (divisor 2^8).
    let spec = graphalytics::core::datasets::dataset("G22").expect("registry dataset");
    let graph = proxy::materialize(spec, 1 << 8, 42);
    let csr = Arc::new(graph.to_csr());
    println!(
        "proxy of {} at 1/256 scale: |V| = {}, |E| = {}\n",
        spec.name,
        csr.num_vertices(),
        csr.num_edges()
    );

    let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
    let params = AlgorithmParams::with_source(root);
    let cluster = ClusterSpec::single_machine();
    let pool = WorkerPool::new(2);

    // Lifecycle: each platform uploads once; both algorithms then run on
    // the same uploaded representation.
    for platform in all_platforms() {
        let profile = PerfProfile::of(platform.name()).expect("every engine has a profile");
        let upload_start = Instant::now();
        let loaded = platform.upload(csr.clone(), &pool).expect("upload succeeds");
        println!(
            "-- {} (upload {:.2} ms) --",
            profile.paper_analog,
            upload_start.elapsed().as_secs_f64() * 1e3
        );
        println!(
            "{:<6} {:>12} {:>14} {:>12} {:>10}",
            "alg", "wall (ms)", "sim Tproc", "messages", "valid"
        );
        for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
            let reference = run_reference(&csr, algorithm, &params).unwrap();
            let mut ctx = RunContext::new(&pool);
            let run =
                platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).expect("supported");
            let valid = validate(&reference, &run.output).unwrap().is_valid();
            let sim = processing_time(&profile.cost, &run.counters, &cluster, 0.0);
            println!(
                "{:<6} {:>12.2} {:>13.3}s {:>12} {:>10}",
                algorithm.acronym(),
                run.wall_seconds * 1e3,
                sim.total(),
                run.counters.messages,
                valid,
            );
        }
        platform.delete(loaded);
        println!();
    }
    println!(
        "Both columns should show the paper's ordering: the native/SpMV\n\
         engines lead, the Pregel and dataflow engines trail by orders of\n\
         magnitude."
    );
}
