//! # graphalytics-service
//!
//! Benchmark-as-a-service: a long-running daemon that wraps the
//! Graphalytics harness stack behind an HTTP/JSON API. Where the paper's
//! harness (Fig. 1) runs one batch and exits, the service keeps graphs
//! and results resident and executes many jobs concurrently — the
//! architecture the GRAL graph-analytics engine (single-process RAM-only
//! server + `grupload` client) converges on.
//!
//! Four pieces:
//!
//! * [`store`] — the cached graph store, one owner for each dataset:
//!   proxy datasets are generated at most once, kept resident keyed by
//!   dataset, and evicted LRU-first by resident bytes. A dataset's first
//!   `POST /graphs/:id/mutations` wraps its graph in a streaming delta log
//!   (batched edge insertions/deletions, compacted into a fresh base once
//!   the log fills), and measured jobs on a mutated dataset run on its
//!   current graph: the base, or a snapshot materialized once per batch;
//! * [`jobs`] — the asynchronous, *bounded* job queue: submit a
//!   `(platform, dataset, algorithm)` job (optionally with a deadline),
//!   poll its state, cancel while queued **or running** (a running job's
//!   cancellation token aborts the driver at the next superstep
//!   boundary); a worker pool drains the queue through the harness
//!   `Driver`, retrying jobs that fail on injected transient faults with
//!   jittered backoff. The job table is the results database: each
//!   finished job's result, Granula archive included, is kept once, in
//!   its record;
//! * [`http`] + [`api`] + [`server`] — a std-only HTTP/1.1 daemon over
//!   `std::net::TcpListener` serving `POST /jobs`, `GET /jobs/:id`,
//!   `GET /results`, `GET /graphs` and `GET /metrics` (EPS/EVPS
//!   aggregates), serialized via `graphalytics_granula::json`;
//! * [`client`] — the blocking client library behind the `graphctl` CLI
//!   (in `graphalytics-bench`) and the loopback integration tests.
//!
//! ```no_run
//! use graphalytics_service::{Client, JobMode, Service, ServiceConfig};
//! use std::time::Duration;
//!
//! let service = Service::start(ServiceConfig::default()).unwrap();
//! let client = Client::new(service.addr().to_string());
//! let id = client.submit("native", "G22", "bfs", JobMode::Measured).unwrap();
//! let record = client.wait(id, Duration::from_secs(60)).unwrap();
//! assert_eq!(record.get("state").and_then(|s| s.as_str()), Some("completed"));
//! service.shutdown();
//! ```

pub mod api;
pub mod client;
pub mod http;
pub mod jobs;
pub mod server;
pub mod store;

pub use client::{Client, ClientError, ClientResult, RetryPolicy};
pub use jobs::{JobMode, JobQueue, JobRecord, JobRequest, JobState, SubmitError};
pub use server::{Service, ServiceConfig, ServiceState};
pub use store::{BatchReport, GraphStore, GraphStoreConfig, MutationMetrics, StoreMetrics};
