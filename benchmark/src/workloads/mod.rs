//! The five workloads and the closed loop that drives them.
//!
//! | workload | path | why it exists |
//! |---|---|---|
//! | `load_cold` | library | parse → CSR → upload dominates; `core::graph::io` changes show here only |
//! | `kernels_warm` | library | `Platform::run` alone on resident uploads; engine/pool changes show, load changes must not |
//! | `service_warm` | daemon | resident graphs, small cells: per-job overheads (HTTP, queue, re-upload, validation, JSON) dominate |
//! | `service_cold` | daemon | nothing resident (`capacity_bytes: 1`): generator + CSR build + LRU dominate |
//! | `service_mutate` | daemon | mutation batches beside reads: delta log apply/materialize/compact |
//!
//! All load comes from one closed-loop client: the next job is sent only
//! after the previous one is validated. The host has two cores; with two
//! clients the spread is the scheduler's, not the program's.

pub mod library;
pub mod service;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::layers::Algorithm;
use crate::stats::Rng;
use crate::trace::Tracer;

/// Graph sizes of one run. `full` is what `BENCHMARK.json` measures;
/// `smoke` runs the same code on tiny graphs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Graph500 / R-MAT scale of the files `load_cold` parses.
    pub load_scale: u32,
    /// Scale of the graphs `kernels_warm` runs on (its slowest cells take
    /// a second at the load scale).
    pub scale: u32,
    /// Scale of the graph LCC runs on (LCC is quadratic in the hub degrees).
    pub lcc_scale: u32,
    /// `scale_divisor` of the daemon per service workload.
    pub warm_divisor: u64,
    pub cold_divisor: u64,
    pub mutate_divisor: u64,
    /// Edge insertions, and as many deletions, per mutation batch.
    pub mutate_batch: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            load_scale: 15,
            scale: 14,
            lcc_scale: 12,
            warm_divisor: 256,
            cold_divisor: 256,
            mutate_divisor: 64,
            mutate_batch: 10_000,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            load_scale: 9,
            scale: 9,
            lcc_scale: 8,
            warm_divisor: 8192,
            cold_divisor: 8192,
            mutate_divisor: 4096,
            mutate_batch: 200,
        }
    }
}

/// One job (or mutation batch) as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Engine, with `-s2` for the two-shard cells; empty for mutation ops.
    pub engine: String,
    pub graph: String,
    pub algorithm: Option<Algorithm>,
    /// Client-observed seconds from the first byte of work to the
    /// validated result.
    pub makespan_secs: f64,
    /// Measured `T_proc` of one `Platform::run`, when the job ran one.
    pub tproc_secs: Option<f64>,
    /// `|V| + |E|` of the graph the job ran on.
    pub vertices_plus_edges: u64,
    /// Edges made runnable and the seconds that took, for jobs that load.
    pub load: Option<(u64, f64)>,
    /// Edge mutations applied and the client-observed seconds.
    pub mutations: Option<(u64, f64)>,
    /// Why the job does not count as completed and validated.
    pub failure: Option<String>,
}

impl Sample {
    /// A cell is one (engine, graph, algorithm) or one op type.
    pub fn cell(&self) -> String {
        match self.algorithm {
            Some(algorithm) => format!("{}/{}/{algorithm}", self.engine, self.graph),
            None => format!("mutate/{}", self.graph),
        }
    }
}

/// Everything one timed run collects.
pub struct Recorder {
    pub tracer: Tracer,
    pub samples: Vec<Sample>,
    /// Totals at layer boundaries (requests, bytes, store hits, …).
    pub counts: BTreeMap<String, f64>,
    /// Per-call observations that are not spans (sizes, daemon-side times).
    pub series: BTreeMap<String, Vec<f64>>,
    /// Output checksum (library) or work counters (service) of the first
    /// repetition of each cell; later repetitions must match.
    fingerprints: BTreeMap<String, u64>,
    next_job: u64,
    /// Seconds of the timed loop and the whole passes it made.
    pub elapsed_secs: f64,
    pub passes: u64,
    /// Seconds of each pass (jobs only, without the traced run's probes).
    pub pass_secs: Vec<f64>,
    /// `VmHWM` when the workload's memory pass ended.
    pub peak_rss_mb: f64,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            tracer: Tracer::new(traced),
            samples: Vec::new(),
            counts: BTreeMap::new(),
            series: BTreeMap::new(),
            fingerprints: BTreeMap::new(),
            next_job: 0,
            elapsed_secs: 0.0,
            passes: 0,
            pass_secs: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Starts a job: following spans carry its identifier.
    pub fn begin_job(&mut self) {
        self.tracer.set_job(self.next_job);
        self.next_job += 1;
    }

    /// Ends the job: following spans (probes) belong to no job.
    pub fn end_job(&mut self, sample: Sample) {
        self.tracer.set_job(crate::trace::NO_JOB);
        self.samples.push(sample);
    }

    pub fn count(&mut self, name: &str, n: f64) {
        match self.counts.get_mut(name) {
            Some(total) => *total += n,
            None => drop(self.counts.insert(name.to_string(), n)),
        }
    }

    pub fn observe(&mut self, name: &str, value: f64) {
        match self.series.get_mut(name) {
            Some(values) => values.push(value),
            None => drop(self.series.insert(name.to_string(), vec![value])),
        }
    }

    /// The exact work counts of one run, added once per cell.
    pub fn count_work(
        &mut self,
        algorithm: Algorithm,
        edges_scanned: u64,
        messages: u64,
        supersteps: u64,
    ) {
        self.count(
            &format!("engines.{algorithm}.edges_scanned"),
            edges_scanned as f64,
        );
        self.count(&format!("engines.{algorithm}.messages"), messages as f64);
        self.count(
            &format!("engines.{algorithm}.supersteps"),
            supersteps as f64,
        );
    }

    /// `Ok(true)` for the first repetition of `cell`, `Ok(false)` when
    /// `fingerprint` repeats it, `Err` when it differs.
    pub fn check_fingerprint(&mut self, cell: &str, fingerprint: u64) -> Result<bool, String> {
        match self.fingerprints.get(cell) {
            None => {
                self.fingerprints.insert(cell.to_string(), fingerprint);
                Ok(true)
            }
            Some(first) if *first == fingerprint => Ok(false),
            Some(_) => Err(format!("output of {cell} differs between repetitions")),
        }
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.failure.is_some()).count()
    }
}

/// A workload after set-up.
pub trait Workload {
    /// One pass over the workload's cells, in an order drawn from `rng`.
    fn pass(&mut self, rng: &mut Rng, rec: &mut Recorder);

    /// Traced run only, after each pass: calls that are on no job's path
    /// (sequential twins, replays of daemon-side layers).
    fn probes(&mut self, _rec: &mut Recorder) {}

    /// Traced run only: counter snapshots around the timed loop.
    fn begin_traced(&mut self, _rec: &mut Recorder) {}
    fn end_traced(&mut self, _rec: &mut Recorder) {}

    /// The pass after which peak memory is read: a fixed number of jobs,
    /// a little over half of what a run completes. The daemon keeps every
    /// result and archive, so memory read at the end of the run would
    /// grow with the jobs a faster build completes in the same time.
    fn memory_pass(&self) -> u64;

    /// Resident bytes per graph the workload touches (computed from array
    /// sizes, for the host facts).
    fn working_set(&self) -> Vec<(String, u64)>;
}

/// Set-up of `name`: generate graphs, write files, start the daemon, warm
/// fills, precompute references. `with_replay` keeps what only the traced
/// run needs.
pub fn set_up(
    name: &str,
    sizes: &Sizes,
    seed: u64,
    scratch: &Path,
    with_replay: bool,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "load_cold" => Box::new(library::LoadCold::set_up(sizes, seed, scratch)?),
        "kernels_warm" => Box::new(library::KernelsWarm::set_up(sizes, seed)?),
        "service_warm" => Box::new(service::ServiceBench::warm(sizes, seed)?),
        "service_cold" => Box::new(service::ServiceBench::cold(sizes, seed)?),
        "service_mutate" => Box::new(service::ServiceBench::mutate(sizes, seed, with_replay)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// The closed loop: whole passes until `seconds` have gone by, rounded to
/// the nearest pass so that every run measures the same mix of cells.
pub fn timed_run(workload: &mut dyn Workload, seconds: f64, seed: u64, traced: bool) -> Recorder {
    let mut rec = Recorder::new(traced);
    let mut rng = Rng::new(seed);
    if traced {
        workload.begin_traced(&mut rec);
    }
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        workload.pass(&mut rng, &mut rec);
        rec.pass_secs.push(pass_started.elapsed().as_secs_f64());
        rec.passes += 1;
        if rec.passes == workload.memory_pass() {
            rec.peak_rss_mb = crate::host::peak_rss_mb();
        }
        if traced {
            workload.probes(&mut rec);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / rec.passes as f64 / 2.0 >= seconds {
            rec.elapsed_secs = elapsed;
            break;
        }
    }
    if rec.passes < workload.memory_pass() {
        rec.peak_rss_mb = crate::host::peak_rss_mb();
    }
    if traced {
        workload.end_traced(&mut rec);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sleepy(u64);

    impl Workload for Sleepy {
        fn pass(&mut self, _rng: &mut Rng, rec: &mut Recorder) {
            rec.begin_job();
            std::thread::sleep(std::time::Duration::from_millis(self.0));
            rec.end_job(Sample {
                graph: "g".into(),
                ..Sample::default()
            });
        }
        fn memory_pass(&self) -> u64 {
            2
        }
        fn working_set(&self) -> Vec<(String, u64)> {
            Vec::new()
        }
    }

    #[test]
    fn timed_run_makes_whole_passes_near_the_requested_time() {
        let rec = timed_run(&mut Sleepy(20), 0.1, 1, false);
        assert!((4..=6).contains(&rec.passes), "{} passes", rec.passes);
        assert_eq!(rec.samples.len() as u64, rec.passes);
        assert!(rec.elapsed_secs >= 0.08 && rec.elapsed_secs < 0.2);
        assert_eq!(rec.samples[0].cell(), "mutate/g");
        assert!(rec.peak_rss_mb > 0.0);
    }

    #[test]
    fn fingerprints_must_repeat_per_cell() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.check_fingerprint("a", 1), Ok(true));
        assert_eq!(rec.check_fingerprint("b", 2), Ok(true));
        assert_eq!(rec.check_fingerprint("a", 1), Ok(false));
        assert!(rec.check_fingerprint("a", 3).is_err());
    }
}
