//! `overhead_gate` — the two "observability is nearly free" assert gates
//! CI runs (performance itself is measured by `benchmark/`, see its
//! README):
//!
//! * **monitor** — the Granula-monitor gate: the same sharded kernels
//!   with per-superstep tracing off vs on. Outputs must be bit-identical
//!   and the EVPS cost of tracing must stay under 3% (both asserted);
//! * **fault plane** — the same shape: the same kernels with the
//!   fault/cancellation scope absent vs installed with an empty script
//!   and an unfired token. Outputs bit-identical, armed-but-idle
//!   checkpoint cost under 3% EVPS (both asserted).
//!
//! ```text
//! cargo run --release -p graphalytics-bench --bin overhead_gate
//! ```
//!
//! No arguments, no output file: exit 0 and the printed percentages are
//! the signal.

use std::sync::Arc;
use std::time::Instant;

use graphalytics_core::fault::{self, CancelToken, FaultScript};
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::{Algorithm, Csr};
use graphalytics_engines::{platform_by_name, Execution, RunContext, ShardPlan};
use graphalytics_graph500::Graph500Config;

/// Instance size. The per-superstep span and checkpoint are fixed costs:
/// at tiny scales they compete with pure dispatch noise and the 3% bound
/// stops measuring anything real. Scale 12 gives every superstep enough
/// edge work that the ratio is meaningful.
const SCALE: u32 = 12;
/// A/B/A rounds per trial.
const ROUNDS: usize = 16;

/// EVPS cost, in percent, of running `algorithm` with the feature `on`
/// rather than off.
///
/// A 3% bound needs sub-percent measurement noise, which single
/// millisecond-scale wall timings do not give on a shared host (±2–3%
/// jitter, much of it *low-frequency*: multi-second load bursts that
/// cover many consecutive samples). Three defenses: batched samples
/// (each timing spans ≥100 ms of back-to-back runs, averaging per-run
/// jitter), A/B/A drift correction (each `on` batch is ratioed against
/// the mean of its two *surrounding* `off` batches, cancelling slow
/// drift that plain off/on alternation turns into bias), and a median
/// over all rounds.
fn overhead_pct(gate: &str, algorithm: Algorithm, vpe: f64, run: impl Fn(bool) -> Execution) -> f64 {
    let t = Instant::now();
    std::hint::black_box(run(false));
    let single = t.elapsed().as_secs_f64().max(1e-6);
    let batch = ((0.1 / single).ceil() as usize).clamp(1, 64);
    let time_batch = |on: bool| {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(run(on));
        }
        t.elapsed().as_secs_f64() / batch as f64
    };
    let measure = || {
        time_batch(true); // warm the `on` side
        let mut offs = Vec::with_capacity(ROUNDS + 1);
        let mut ons = Vec::with_capacity(ROUNDS);
        offs.push(time_batch(false));
        for _ in 0..ROUNDS {
            ons.push(time_batch(true));
            offs.push(time_batch(false));
        }
        let mut ratios: Vec<f64> =
            (0..ROUNDS).map(|i| 2.0 * ons[i] / (offs[i] + offs[i + 1])).collect();
        ratios.sort_by(|a, b| a.total_cmp(b));
        let off_best = offs.iter().copied().fold(f64::INFINITY, f64::min);
        let on_best = ons.iter().copied().fold(f64::INFINITY, f64::min);
        (off_best, on_best, (ratios[ratios.len() / 2] - 1.0) * 100.0)
    };
    // Up to three independent trials, keeping the cleanest: a real >3%
    // overhead fails every trial, while a noise spike has to hit all
    // three to produce a false failure.
    let mut best = measure();
    for trial in 2..=3 {
        if best.2 <= 3.0 {
            break;
        }
        eprintln!("{gate}: {algorithm} measured {:.2}% — trial {trial} of 3", best.2);
        let next = measure();
        if next.2 < best.2 {
            best = next;
        }
    }
    let (secs_off, secs_on, pct) = best;
    println!(
        "{gate}: {algorithm} off {:.3e} EVPS, on {:.3e} EVPS, overhead {pct:.2}%",
        vpe / secs_off,
        vpe / secs_on
    );
    pct
}

fn main() {
    let graph = Graph500Config::new(SCALE).with_seed(11).with_weights(true).generate();
    let csr: Arc<Csr> = Arc::new(graph.try_to_csr().unwrap());
    let vpe = (csr.num_vertices() + csr.num_edges()) as f64;
    let params = AlgorithmParams {
        source_vertex: Some(csr.id_of(0)),
        pagerank_iterations: 10,
        damping_factor: 0.85,
        cdlp_iterations: 5,
    };
    let pool = WorkerPool::new(4);
    let platform = platform_by_name("pregel").unwrap();
    let loaded = platform.upload_sharded(csr.clone(), &ShardPlan::new(2), &pool).unwrap();
    println!(
        "overhead_gate: pregel, 2 shards, pool width 4, graph500-{SCALE} \
         ({} vertices, {} edges), host parallelism {}",
        csr.num_vertices(),
        csr.num_edges(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // The Granula-monitor gate. The monitor must be data-plane passive —
    // outputs bit-identical with tracing off or on — and cheap.
    let run_traced = |tracing: bool, algorithm: Algorithm| {
        let mut ctx = RunContext::new(&pool);
        ctx.set_tracing(tracing);
        platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap()
    };
    let mut worst_pct = 0.0f64;
    for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
        let off = run_traced(false, algorithm);
        let on = run_traced(true, algorithm);
        assert_eq!(off.output, on.output, "monitoring must not perturb {algorithm} output");
        let pct = overhead_pct("monitor_overhead", algorithm, vpe, |on| run_traced(on, algorithm));
        worst_pct = worst_pct.max(pct);
    }
    assert!(
        worst_pct <= 3.0,
        "per-superstep tracing costs {worst_pct:.2}% EVPS; the monitor budget is 3%"
    );

    // The fault-plane gate: scope absent vs installed with an empty
    // script and a live (never-fired) token. The armed-but-idle plane is
    // pure per-superstep checkpoint cost, so "cancellation is free until
    // you use it" is re-proved on every run.
    let run_armed = |armed: bool, algorithm: Algorithm| {
        let _guard = armed.then(|| fault::install(CancelToken::new(), FaultScript::empty()));
        let mut ctx = RunContext::new(&pool);
        platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap()
    };
    let mut worst_pct = 0.0f64;
    for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
        let off = run_armed(false, algorithm);
        let on = run_armed(true, algorithm);
        assert_eq!(
            off.output, on.output,
            "an idle fault plane must not perturb {algorithm} output"
        );
        let pct =
            overhead_pct("fault_plane_overhead", algorithm, vpe, |on| run_armed(on, algorithm));
        worst_pct = worst_pct.max(pct);
    }
    assert!(
        worst_pct <= 3.0,
        "the armed-but-idle fault plane costs {worst_pct:.2}% EVPS; the budget is 3%"
    );
    platform.delete(loaded);
    println!("overhead_gate: OK (both gates within the 3% budget, outputs bit-identical)");
}
