//! The three service workloads: one closed-loop client against an
//! in-process daemon over loopback HTTP.
//!
//! A job is `POST /jobs`, then `GET /jobs/:id` on a fixed 2 ms schedule
//! until the state is terminal (`Client::wait` backs off exponentially
//! from 10 ms, which would quantise short jobs by up to 2×). It counts as
//! completed only if `state` and `result.status` are both `completed`
//! and the result reports the |V| and |E| the benchmark computed
//! in-process for the dataset at the daemon's divisor and seed.
//!
//! The traced run adds, after each job's clock has stopped: the daemon's
//! other public outputs (`/metrics` deltas, the Granula archive) and an
//! in-process replay of the layers the daemon does not report on
//! (reference run, comparison, driver bookkeeping, store, generator,
//! delta log), laid out as spans inside the client-observed window.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{Recorder, Sample, Sizes, Workload};
use crate::layers::{
    self, Algorithm, Client, Csr, DatasetSpec, DeltaMirror, GraphStoreConfig, Json, Measured,
    Service, WorkerPool, ENGINES,
};
use crate::stats::Rng;

const POLL_INTERVAL_SECS: f64 = 0.002;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Warm,
    Cold,
    Mutate,
}

/// The benchmark's own copy of a dataset the daemon serves.
struct Resident {
    spec: &'static DatasetSpec,
    csr: Arc<Csr>,
    vertices: u64,
    edges: u64,
}

struct MutateState {
    batch: u64,
    /// |E| the daemon must report next, from the batch responses so far.
    expected_edges: u64,
    /// Kept in step with the daemon's delta log when a traced run follows.
    mirror: Option<DeltaMirror>,
}

pub struct ServiceBench {
    kind: Kind,
    // Declared before the pool and the graphs so the daemon stops first.
    service: Service,
    client: Client,
    config: GraphStoreConfig,
    pool: Arc<WorkerPool>,
    datasets: BTreeMap<&'static str, Resident>,
    cells: Vec<(&'static str, &'static str, Algorithm)>,
    mutate: Option<MutateState>,
    /// Cold: the dataset of the previous job (the store's one exempt entry).
    last_dataset: Option<&'static str>,
    /// Traced run: `/metrics` at its start and after the previous job.
    metrics_at_start: Option<Json>,
    metrics_previous: Option<Json>,
    private_store: Option<layers::GraphStore>,
}

/// What the client observed of one job, in tracer seconds.
struct Observed {
    daemon_id: u64,
    submitted: f64,
    acked: f64,
    /// Start of the first poll that no longer saw `queued`.
    left_queue: f64,
    terminal_start: f64,
    terminal_end: f64,
    checked: f64,
    measured: Measured,
}

/// A daemon-side layer of one job: its name, its measured seconds, and
/// the layers measured inside it.
type DaemonLayer = (String, f64, Vec<(String, f64)>);

fn path_f64(json: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(json, |j, key| j.get(key))
        .and_then(Json::as_f64)
}

/// `field` of the entry called `name` in one of the `/metrics` monitor's
/// lists (`"histograms"`, `"counters"`); 0 when it is not there yet.
fn monitor_entry(metrics: &Json, list: &str, name: &str, field: &str) -> f64 {
    metrics
        .get("monitor")
        .and_then(|m| m.get(list))
        .and_then(Json::as_arr)
        .and_then(|entries| {
            entries
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|e| e.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn archive_ops(op: &Json) -> f64 {
    1.0 + op
        .get("children")
        .and_then(Json::as_arr)
        .map_or(0.0, |c| c.iter().map(archive_ops).sum())
}

impl ServiceBench {
    fn start(
        kind: Kind,
        config: GraphStoreConfig,
        dataset_ids: &[&'static str],
        cells: Vec<(&'static str, &'static str, Algorithm)>,
    ) -> Result<ServiceBench, String> {
        let pool = layers::pool();
        let mut datasets = BTreeMap::new();
        for id in dataset_ids {
            let spec = layers::dataset(id);
            let graph = layers::materialize(spec, config.scale_divisor, config.seed, &pool);
            let csr = layers::build_csr(&graph, &pool)?;
            let (vertices, edges) = (csr.num_vertices() as u64, csr.num_edges() as u64);
            datasets.insert(
                *id,
                Resident {
                    spec,
                    csr,
                    vertices,
                    edges,
                },
            );
        }
        let service = layers::start_daemon(&config).map_err(|e| format!("daemon start: {e}"))?;
        let client = layers::client(&service);
        Ok(ServiceBench {
            kind,
            service,
            client,
            config,
            pool,
            datasets,
            cells,
            mutate: None,
            last_dataset: None,
            metrics_at_start: None,
            metrics_previous: None,
            private_store: None,
        })
    }

    /// One native BFS per dataset so the store holds it before the clock
    /// starts.
    fn warm_fill(&mut self) -> Result<(), String> {
        let mut scratch = Recorder::new(false);
        let ids: Vec<&'static str> = self.datasets.keys().copied().collect();
        for id in ids {
            self.run_job("native", id, Algorithm::Bfs, &mut scratch);
        }
        match scratch.samples.iter().find_map(|s| s.failure.clone()) {
            Some(failure) => Err(format!("warm fill: {failure}")),
            None => Ok(()),
        }
    }

    /// Resident graphs; 6 engines × {bfs, pr, wcc, cdlp} on G22 and
    /// × {bfs, pr, wcc, cdlp, sssp} on the weighted R4.
    pub fn warm(sizes: &Sizes, seed: u64) -> Result<ServiceBench, String> {
        use Algorithm::{Bfs, Cdlp, PageRank, Sssp, Wcc};
        let mut cells = Vec::new();
        for (dataset, algorithms) in [
            ("G22", &[Bfs, PageRank, Wcc, Cdlp][..]),
            ("R4", &[Bfs, PageRank, Wcc, Cdlp, Sssp][..]),
        ] {
            for engine in ENGINES {
                cells.extend(algorithms.iter().map(|a| (engine, dataset, *a)));
            }
        }
        let config = GraphStoreConfig {
            scale_divisor: sizes.warm_divisor,
            capacity_bytes: 1 << 30,
            seed,
        };
        let mut bench = Self::start(Kind::Warm, config, &["G22", "R4"], cells)?;
        bench.warm_fill()?;
        Ok(bench)
    }

    /// Nothing resident: a one-byte store evicts on every insertion, so
    /// every job pays generator + CSR build.
    pub fn cold(sizes: &Sizes, seed: u64) -> Result<ServiceBench, String> {
        let ids = ["G22", "R4", "D100", "R3", "R1"];
        let cells = ids
            .iter()
            .map(|id| ("native", *id, Algorithm::Bfs))
            .collect();
        let config = GraphStoreConfig {
            scale_divisor: sizes.cold_divisor,
            capacity_bytes: 1,
            seed,
        };
        Self::start(Kind::Cold, config, &ids, cells)
    }

    /// Cycles of one mutation batch and three reads on the resident R4.
    pub fn mutate(sizes: &Sizes, seed: u64, with_replay: bool) -> Result<ServiceBench, String> {
        let cells = vec![
            ("pushpull", "R4", Algorithm::Wcc),
            ("pushpull", "R4", Algorithm::PageRank),
            ("native", "R4", Algorithm::Sssp),
        ];
        let config = GraphStoreConfig {
            scale_divisor: sizes.mutate_divisor,
            capacity_bytes: 1 << 30,
            seed,
        };
        let mut bench = Self::start(Kind::Mutate, config, &["R4"], cells)?;
        bench.warm_fill()?;
        let base = &bench.datasets["R4"];
        bench.mutate = Some(MutateState {
            batch: sizes.mutate_batch,
            expected_edges: base.edges,
            mirror: with_replay.then(|| DeltaMirror::new(base.csr.clone())),
        });
        Ok(bench)
    }

    /// One HTTP round trip; returns its start, its end and the body.
    fn call(
        &self,
        rec: &mut Recorder,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(f64, f64, String), String> {
        let start = rec.tracer.now();
        let answer = self.client.request_raw(method, path, body);
        let end = rec.tracer.now();
        rec.count("service.http.requests", 1.0);
        match answer {
            Ok((status, text)) if status < 400 => Ok((start, end, text)),
            Ok((status, text)) => Err(format!("{method} {path} refused with {status}: {text}")),
            Err(e) => Err(format!("{method} {path}: {e}")),
        }
    }

    /// `json::parse` of a response body, counted towards `json.parse_mbps`.
    fn parse(rec: &mut Recorder, text: &str) -> Result<Json, String> {
        let started = Instant::now();
        let parsed = Json::parse(text);
        rec.count("json.parse.secs", started.elapsed().as_secs_f64());
        rec.count("json.parse.bytes", text.len() as f64);
        parsed.map_err(|e| format!("bad response body: {e}"))
    }

    fn expected_size(&self, dataset: &str) -> (u64, u64) {
        let resident = &self.datasets[dataset];
        match &self.mutate {
            Some(state) => (resident.vertices, state.expected_edges),
            None => (resident.vertices, resident.edges),
        }
    }

    fn observe_job(
        &self,
        engine: &str,
        dataset: &str,
        algorithm: Algorithm,
        rec: &mut Recorder,
    ) -> Result<Observed, String> {
        let body = Json::obj(vec![
            ("platform", Json::str(engine)),
            ("dataset", Json::str(dataset)),
            ("algorithm", Json::str(algorithm.acronym())),
            ("mode", Json::str("measured")),
            ("repetitions", Json::Num(1.0)),
        ]);
        let (submitted, acked, text) = self.call(rec, "POST", "/jobs", Some(&body))?;
        let daemon_id = Self::parse(rec, &text)?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("submission response carries no id")?;
        let path = format!("/jobs/{daemon_id}");
        let mut left_queue = None;
        let (terminal_start, terminal_end, record) = loop {
            let (start, end, text) = self.call(rec, "GET", &path, None)?;
            rec.observe("service.http.roundtrip_ms", (end - start) * 1e3);
            let record = Self::parse(rec, &text)?;
            match record.get("state").and_then(Json::as_str) {
                Some("queued") => {}
                Some("running") => {
                    left_queue.get_or_insert(start);
                }
                Some(_) => {
                    rec.observe("service.result_bytes", text.len() as f64);
                    break (start, end, record);
                }
                None => return Err("job record carries no state".into()),
            }
            // Polls are due every 2 ms from the acknowledgement on.
            let since_ack = rec.tracer.now() - acked;
            let due = (since_ack / POLL_INTERVAL_SECS).floor() + 1.0;
            std::thread::sleep(Duration::from_secs_f64(
                due * POLL_INTERVAL_SECS - since_ack,
            ));
        };
        let measured = layers::measured_result(&record)?;
        let expected = self.expected_size(dataset);
        if (measured.vertices, measured.edges) != expected {
            return Err(format!(
                "{dataset} has |V|={} |E|={}, expected |V|={} |E|={}",
                measured.vertices, measured.edges, expected.0, expected.1
            ));
        }
        Ok(Observed {
            daemon_id,
            submitted,
            acked,
            left_queue: left_queue.unwrap_or(terminal_start),
            terminal_start,
            terminal_end,
            checked: rec.tracer.now(),
            measured,
        })
    }

    fn run_job(
        &mut self,
        engine: &'static str,
        dataset: &'static str,
        algorithm: Algorithm,
        rec: &mut Recorder,
    ) {
        rec.begin_job();
        let mut sample = Sample {
            engine: engine.into(),
            graph: dataset.into(),
            algorithm: Some(algorithm),
            ..Sample::default()
        };
        let started = rec.tracer.now();
        match self.observe_job(engine, dataset, algorithm, rec) {
            Ok(seen) => {
                let m = &seen.measured;
                sample.makespan_secs = seen.checked - started;
                sample.tproc_secs = Some(m.tproc_secs);
                sample.vertices_plus_edges = m.vertices + m.edges;
                if self.kind == Kind::Cold {
                    let run_secs = m.tproc_secs * m.repetitions as f64;
                    sample.load = Some((m.edges, sample.makespan_secs - run_secs));
                }
                rec.observe("service.upload_ms", m.upload_secs * 1e3);
                rec.observe("service.run_ms", m.tproc_secs * m.repetitions as f64 * 1e3);
                // The mutated graph changes between repetitions of a cell:
                // nothing to compare there.
                let work = match self.kind {
                    Kind::Mutate => 0,
                    _ => {
                        m.edges_scanned ^ m.messages.rotate_left(21) ^ m.supersteps.rotate_left(42)
                    }
                };
                let checked = rec.check_fingerprint(&sample.cell(), work);
                if checked == Ok(true) {
                    rec.count_work(algorithm, m.edges_scanned, m.messages, m.supersteps);
                }
                sample.failure = checked.err();
                if rec.traced() && sample.failure.is_none() {
                    sample.failure = self.trace_job(engine, dataset, algorithm, &seen, rec).err();
                }
            }
            Err(e) => {
                sample.makespan_secs = rec.tracer.now() - started;
                sample.failure = Some(e);
            }
        }
        self.last_dataset = Some(dataset);
        rec.end_job(sample);
    }

    /// After the job's clock has stopped: the daemon's other outputs, the
    /// in-process replay, and the job's span tree.
    fn trace_job(
        &mut self,
        engine: &str,
        dataset: &'static str,
        algorithm: Algorithm,
        seen: &Observed,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let m = &seen.measured;
        // The daemon's clock for the whole job: `job_seconds` grew by it.
        let (_, _, text) = self.call(rec, "GET", "/metrics", None)?;
        let metrics = Self::parse(rec, &text)?;
        let job_seconds = |m: &Json| monitor_entry(m, "histograms", "job_seconds", "sum_secs");
        let worker_secs =
            job_seconds(&metrics) - self.metrics_previous.as_ref().map_or(0.0, job_seconds);
        self.metrics_previous = Some(metrics);
        rec.observe("service.worker_job_ms", worker_secs * 1e3);

        let (start, end, text) = self.call(
            rec,
            "GET",
            &format!("/jobs/{}/archive", seen.daemon_id),
            None,
        )?;
        rec.tracer.record("service.archive_fetch", start, end, None);
        rec.observe("service.archive_bytes", text.len() as f64);
        let archive = Self::parse(rec, &text)?;
        rec.observe(
            "driver.archive_ops",
            archive.get("root").map_or(0.0, archive_ops),
        );

        let handle_secs =
            layers::handle_in_process(&self.service, "GET", &format!("/jobs/{}", seen.daemon_id))?;
        let now = rec.tracer.now();
        rec.tracer
            .record("service.http.handle", now - handle_secs, now, None);

        // Replay of what the daemon does not report on.
        let resident = &self.datasets[dataset];
        let spec = resident.spec;
        let mut inside_daemon: Vec<DaemonLayer> = Vec::new();
        let csr = match self.kind {
            Kind::Warm => resident.csr.clone(),
            Kind::Cold => {
                let store = self
                    .private_store
                    .get_or_insert_with(|| layers::private_store(&self.config, &self.pool));
                let started = Instant::now();
                let csr = layers::store_get(store, spec);
                let cold_secs = started.elapsed().as_secs_f64();
                let started = Instant::now();
                let _ = layers::store_get(store, spec);
                let warm_secs = started.elapsed().as_secs_f64();
                let now = rec.tracer.now();
                rec.tracer
                    .record("service.store.get_warm", now - warm_secs, now, None);

                let started = Instant::now();
                let graph = layers::materialize(
                    spec,
                    self.config.scale_divisor,
                    self.config.seed,
                    &self.pool,
                );
                let materialize_secs = started.elapsed().as_secs_f64();
                let started = Instant::now();
                layers::build_csr(&graph, &self.pool)?;
                let build_secs = started.elapsed().as_secs_f64();
                let recipe = layers::recipe_name(spec);
                rec.count(&format!("proxy.materialize.{recipe}.edges"), m.edges as f64);
                rec.count("csr.build.edges", m.edges as f64);
                inside_daemon.push((
                    "service.store.get_cold".into(),
                    cold_secs,
                    vec![
                        (format!("proxy.materialize.{recipe}"), materialize_secs),
                        ("csr.build".into(), build_secs),
                    ],
                ));
                csr
            }
            Kind::Mutate => {
                let mirror = self
                    .mutate
                    .as_ref()
                    .and_then(|s| s.mirror.as_ref())
                    .ok_or("no delta mirror")?;
                let started = Instant::now();
                let csr = Arc::new(mirror.materialize(&self.pool)?);
                inside_daemon.push((
                    "delta.materialize".into(),
                    started.elapsed().as_secs_f64(),
                    Vec::new(),
                ));
                csr
            }
        };
        let params = layers::dataset_params(spec, algorithm, &csr);
        let started = Instant::now();
        let reference = layers::reference(&csr, algorithm, &params)?;
        let reference_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        layers::validate(&reference, &reference)?;
        let compare_secs = started.elapsed().as_secs_f64();
        let replay =
            layers::driver_replay(engine, spec, algorithm, &csr, self.config.seed, &self.pool)?;
        let now = rec.tracer.now();
        rec.tracer
            .record("driver.job", now - replay.job_secs, now, None);
        let driver_self = (replay.job_secs
            - replay.upload_secs
            - replay.run_secs
            - reference_secs
            - compare_secs)
            .max(0.0);
        // The daemon pretty-prints every JSON body it serves.
        let started = Instant::now();
        let mut bytes = replay.result_json.to_string_pretty().len();
        bytes += replay
            .archive_json
            .as_ref()
            .map_or(0, |a| a.to_string_pretty().len());
        rec.count(
            "json.serialize.secs",
            replay.result_json_secs + started.elapsed().as_secs_f64(),
        );
        rec.count("json.serialize.bytes", bytes as f64);

        inside_daemon.extend([
            (
                format!("engines.{engine}.upload"),
                m.upload_secs,
                Vec::new(),
            ),
            (
                format!("engines.{engine}.{algorithm}.run"),
                m.tproc_secs * m.repetitions as f64,
                Vec::new(),
            ),
            (format!("reference.{algorithm}"), reference_secs, Vec::new()),
            ("validation.compare".into(), compare_secs, Vec::new()),
            ("driver.self".into(), driver_self, Vec::new()),
        ]);
        rec.observe("service.validate_ms", (reference_secs + compare_secs) * 1e3);

        // The span tree. Client-side spans carry the client's clock;
        // daemon-side spans are durations from the daemon's clocks and the
        // replay, laid out back to back from where the job left the queue,
        // so their starts are approximate and their lengths are not.
        let t = &mut rec.tracer;
        let job = t.record("job", seen.submitted, seen.checked, None);
        t.record("service.submit", seen.submitted, seen.acked, job);
        let wait = t.record("service.wait", seen.acked, seen.terminal_start, job);
        t.record("service.queue_wait", seen.acked, seen.left_queue, wait);
        let daemon_start = seen.left_queue;
        let daemon = t.record("daemon", daemon_start, daemon_start + worker_secs, wait);
        let mut cursor = daemon_start;
        for (name, secs, children) in inside_daemon {
            let parent = t.record(&name, cursor, cursor + secs, daemon);
            let mut inner = cursor;
            for (child, child_secs) in children {
                t.record(&child, inner, inner + child_secs, parent);
                inner += child_secs;
            }
            cursor += secs;
        }
        t.record(
            "service.result_fetch",
            seen.terminal_start,
            seen.terminal_end,
            job,
        );
        t.record("client.check", seen.terminal_end, seen.checked, job);
        Ok(())
    }

    /// `POST /graphs/:id/mutations` with a generated batch.
    fn run_mutation(&mut self, dataset: &'static str, seed: u64, rec: &mut Recorder) {
        rec.begin_job();
        let batch = self.mutate.as_ref().expect("mutate state").batch;
        let mut sample = Sample {
            graph: dataset.into(),
            ..Sample::default()
        };
        let body = Json::obj(vec![(
            "generate",
            Json::obj(vec![
                ("insert", Json::Num(batch as f64)),
                ("delete", Json::Num(batch as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        )]);
        let started = rec.tracer.now();
        let outcome = self
            .call(
                rec,
                "POST",
                &format!("/graphs/{dataset}/mutations"),
                Some(&body),
            )
            .and_then(|(start, end, text)| Ok((start, end, Self::parse(rec, &text)?)));
        let checked = rec.tracer.now();
        sample.makespan_secs = checked - started;
        match outcome {
            Ok((start, end, report)) => {
                let field = |key: &str| path_f64(&report, &[key]).unwrap_or(0.0);
                let (inserted, deleted, apply_secs) =
                    (field("inserted"), field("deleted"), field("apply_secs"));
                let state = self.mutate.as_mut().expect("mutate state");
                state.expected_edges = (state.expected_edges as f64 + inserted - deleted) as u64;
                sample.mutations = Some(((inserted + deleted) as u64, sample.makespan_secs));
                rec.count("delta.apply.mutations", inserted + deleted);
                rec.observe("delta.apply_s", apply_secs);
                if let Some(mirror) = state.mirror.as_mut() {
                    // Outside the clock: keep the mirror in step.
                    sample.failure = mirror
                        .apply_generated(batch, batch, seed, &self.pool)
                        .and_then(|_| {
                            (mirror.num_edges() == state.expected_edges)
                                .then_some(())
                                .ok_or_else(|| {
                                    "delta mirror and daemon disagree on |E|".to_string()
                                })
                        })
                        .err();
                }
                let job = rec.tracer.record("job", started, checked, None);
                let post = rec.tracer.record("service.mutate", start, end, job);
                rec.tracer
                    .record("delta.apply", start, start + apply_secs, post);
            }
            Err(e) => sample.failure = Some(e),
        }
        rec.end_job(sample);
    }
}

impl Workload for ServiceBench {
    fn pass(&mut self, rng: &mut Rng, rec: &mut Recorder) {
        let mut order = self.cells.clone();
        match self.kind {
            Kind::Warm => rng.shuffle(&mut order),
            Kind::Cold => {
                rng.shuffle(&mut order);
                // The store never evicts its newest entry: a back-to-back
                // repeat would be a hit.
                if Some(order[0].1) == self.last_dataset {
                    order.swap(0, 1);
                }
            }
            // One batch, then the three reads on the snapshot it forces.
            Kind::Mutate => self.run_mutation("R4", rng.next_u64() >> 32, rec),
        }
        for (engine, dataset, algorithm) in order {
            self.run_job(engine, dataset, algorithm, rec);
        }
    }

    fn begin_traced(&mut self, rec: &mut Recorder) {
        if let Ok((_, _, text)) = self.call(rec, "GET", "/metrics", None) {
            self.metrics_at_start = Json::parse(&text).ok();
            self.metrics_previous = self.metrics_at_start.clone();
        }
    }

    /// `/metrics` deltas over the traced run.
    fn end_traced(&mut self, rec: &mut Recorder) {
        let (Some(before), Ok((_, _, text))) = (
            self.metrics_at_start.take(),
            self.call(rec, "GET", "/metrics", None),
        ) else {
            return;
        };
        let Ok(after) = Json::parse(&text) else {
            return;
        };
        let delta = |path: &[&str]| {
            path_f64(&after, path).unwrap_or(0.0) - path_f64(&before, path).unwrap_or(0.0)
        };
        for key in ["hits", "misses", "generations", "evictions"] {
            rec.count(&format!("service.store.{key}"), delta(&["store", key]));
        }
        for (name, key) in [
            ("delta.compactions", "compactions"),
            ("delta.compact_secs", "compact_secs"),
            ("delta.snapshot_builds", "snapshot_builds"),
        ] {
            rec.count(name, delta(&["mutations", key]));
        }
        for (name, key) in [
            ("pool.busy_secs", "busy_secs"),
            ("pool.dispatch_wait_secs", "dispatch_wait_secs"),
            ("pool.dispatch_wakeups", "dispatch_wakeups"),
        ] {
            rec.count(name, delta(&["monitor", "utilization", key]));
        }
        for (name, counter) in [
            ("service.jobs.rejected", "jobs_rejected_total"),
            ("service.jobs.retried", "jobs_retried_total"),
        ] {
            rec.count(
                name,
                monitor_entry(&after, "counters", counter, "value")
                    - monitor_entry(&before, "counters", counter, "value"),
            );
        }
    }

    fn memory_pass(&self) -> u64 {
        match self.kind {
            Kind::Warm => 2,
            Kind::Cold => 20,
            Kind::Mutate => 40,
        }
    }

    fn working_set(&self) -> Vec<(String, u64)> {
        self.datasets
            .iter()
            .map(|(id, r)| (id.to_string(), r.csr.resident_bytes()))
            .collect()
    }
}
