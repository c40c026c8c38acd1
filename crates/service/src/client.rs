//! The client library (`grupload` analog): a thin, blocking HTTP client
//! for the service API, used by the `graphctl` CLI and the loopback
//! integration tests.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use graphalytics_core::fault::Backoff;
use graphalytics_granula::json::Json;

use crate::http::read_response;
use crate::jobs::JobMode;

/// Client-side retry of *transient transport* failures: connect refusals
/// and, for idempotent `GET`s, mid-response read failures. Retries use
/// jittered exponential backoff seeded deterministically, so test runs
/// are reproducible. `POST`/`DELETE` bodies that already reached the
/// server are never replayed (no double submission).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connection attempts per call (1 = no retry).
    pub attempts: u32,
    /// Base delay of the jittered exponential backoff.
    pub base: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 3, base: Duration::from_millis(25), seed: 0xC11E }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, failures surface immediately.
    pub fn none() -> Self {
        RetryPolicy { attempts: 1, ..RetryPolicy::default() }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server answered, but not with what the protocol promises.
    Protocol(String),
    /// The server rejected the request (4xx/5xx) with an error message.
    Api {
        status: u16,
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Api { status, message } => write!(f, "server error {status}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

pub type ClientResult<T> = Result<T, ClientError>;

/// A blocking API client. One TCP connection per call (the server closes
/// after each response), so the client itself is stateless and cheap.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    retry: RetryPolicy,
}

impl Client {
    /// A client for `addr` (`"127.0.0.1:8077"` or anything
    /// `TcpStream::connect` accepts), with the default retry policy.
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into(), retry: RetryPolicy::default() }
    }

    /// Replaces the transport retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// The target address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One raw round trip: status code + body text, no JSON expectations
    /// (the Prometheus exposition endpoint serves plain text). Transient
    /// transport failures are retried per the client's [`RetryPolicy`]:
    /// connect failures for every method (the request never left this
    /// process), post-connect failures only for `GET` (anything else may
    /// have already mutated server state and must not be replayed).
    pub fn request_raw(
        &self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> ClientResult<(u16, String)> {
        let payload = body.map(Json::to_string_compact).unwrap_or_default();
        let attempts = self.retry.attempts.max(1);
        let backoff = Backoff::new(self.retry.base, Duration::from_secs(1), self.retry.seed);
        let mut attempt = 0u32;
        loop {
            let connected = std::cell::Cell::new(false);
            let result = self.attempt_raw(method, path, &payload, &connected);
            match result {
                Ok(response) => return Ok(response),
                Err(e) => {
                    let retryable = !connected.get() || method == "GET";
                    if !retryable || attempt + 1 >= attempts {
                        return Err(e.into());
                    }
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                }
            }
        }
    }

    fn attempt_raw(
        &self,
        method: &str,
        path: &str,
        payload: &str,
        connected: &std::cell::Cell<bool>,
    ) -> std::io::Result<(u16, String)> {
        let stream = TcpStream::connect(&self.addr)?;
        connected.set(true);
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut writer = BufWriter::new(&stream);
        write!(
            writer,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            self.addr,
            payload.len(),
        )?;
        writer.flush()?;
        let mut reader = BufReader::new(&stream);
        read_response(&mut reader)
    }

    /// One round trip. 4xx/5xx responses become [`ClientError::Api`] with
    /// the server's `error` message.
    pub fn request(&self, method: &str, path: &str, body: Option<&Json>) -> ClientResult<Json> {
        let (status, text) = self.request_raw(method, path, body)?;
        let json = if text.is_empty() {
            Json::Null
        } else {
            Json::parse(&text)
                .map_err(|e| ClientError::Protocol(format!("bad response body: {e}")))?
        };
        if status >= 400 {
            let message = json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("(no error message)")
                .to_string();
            return Err(ClientError::Api { status, message });
        }
        Ok(json)
    }

    /// Submits a single-repetition job and returns its id.
    pub fn submit(
        &self,
        platform: &str,
        dataset: &str,
        algorithm: &str,
        mode: JobMode,
    ) -> ClientResult<u64> {
        self.submit_repeated(platform, dataset, algorithm, mode, 1)
    }

    /// Submits a job whose execute phase repeats `repetitions` times on
    /// the uploaded graph (the benchmark's mean-of-N) and returns its id.
    pub fn submit_repeated(
        &self,
        platform: &str,
        dataset: &str,
        algorithm: &str,
        mode: JobMode,
        repetitions: u32,
    ) -> ClientResult<u64> {
        self.submit_with_timeout(platform, dataset, algorithm, mode, repetitions, None)
    }

    /// Submits a job with an optional per-job deadline: a run still going
    /// after `timeout_secs` is aborted at the next superstep boundary and
    /// lands in the `timed-out` terminal state.
    pub fn submit_with_timeout(
        &self,
        platform: &str,
        dataset: &str,
        algorithm: &str,
        mode: JobMode,
        repetitions: u32,
        timeout_secs: Option<f64>,
    ) -> ClientResult<u64> {
        let mut fields = vec![
            ("platform", Json::str(platform)),
            ("dataset", Json::str(dataset)),
            ("algorithm", Json::str(algorithm)),
            ("mode", Json::str(mode.as_str())),
            ("repetitions", Json::Num(repetitions as f64)),
        ];
        if let Some(secs) = timeout_secs {
            fields.push(("timeout_secs", Json::Num(secs)));
        }
        let body = Json::obj(fields);
        let response = self.request("POST", "/jobs", Some(&body))?;
        response
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("submission response carries no id".to_string()))
    }

    /// One job's current record.
    pub fn job(&self, id: u64) -> ClientResult<Json> {
        self.request("GET", &format!("/jobs/{id}"), None)
    }

    /// Polls until the job reaches a terminal state or `timeout` elapses.
    /// Polling backs off exponentially (10 ms doubling to a 1 s ceiling):
    /// every poll is a fresh connection and a server thread, so waiting on
    /// an hours-long job must not hammer the daemon 100× a second.
    pub fn wait(&self, id: u64, timeout: Duration) -> ClientResult<Json> {
        let deadline = Instant::now() + timeout;
        let mut interval = Duration::from_millis(10);
        loop {
            let record = self.job(id)?;
            match record.get("state").and_then(Json::as_str) {
                Some("queued" | "running") => {}
                Some(_) => return Ok(record),
                None => {
                    return Err(ClientError::Protocol("job record carries no state".to_string()))
                }
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Protocol(format!(
                    "job {id} still not finished after {timeout:?}"
                )));
            }
            std::thread::sleep(interval);
            interval = (interval * 2).min(Duration::from_secs(1));
        }
    }

    /// Cancels a queued or running job. A queued job cancels immediately;
    /// a running one has its token signalled and reaches the `cancelled`
    /// terminal state at its next superstep boundary ([`Client::wait`]).
    pub fn cancel(&self, id: u64) -> ClientResult<Json> {
        self.request("DELETE", &format!("/jobs/{id}"), None)
    }

    /// All jobs.
    pub fn jobs(&self) -> ClientResult<Json> {
        self.request("GET", "/jobs", None)
    }

    /// The results of the completed jobs, in job-id order.
    pub fn results(&self) -> ClientResult<Json> {
        self.request("GET", "/results", None)
    }

    /// The resident graph listing.
    pub fn graphs(&self) -> ClientResult<Json> {
        self.request("GET", "/graphs", None)
    }

    /// Applies one mutation batch to a resident graph's delta log. The
    /// body follows `POST /graphs/:id/mutations`: explicit `insert` /
    /// `delete` edge rows, or a `generate` shorthand (see
    /// [`Client::mutate_generated`]).
    pub fn mutate(&self, dataset: &str, body: &Json) -> ClientResult<Json> {
        self.request("POST", &format!("/graphs/{dataset}/mutations"), Some(body))
    }

    /// Applies one server-generated mutation batch (`insertions` new
    /// edges, `deletions` removed edges, drawn deterministically from
    /// `seed`) to a resident graph's delta log.
    pub fn mutate_generated(
        &self,
        dataset: &str,
        insertions: u64,
        deletions: u64,
        seed: u64,
    ) -> ClientResult<Json> {
        let body = Json::obj(vec![(
            "generate",
            Json::obj(vec![
                ("insert", Json::Num(insertions as f64)),
                ("delete", Json::Num(deletions as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        )]);
        self.mutate(dataset, &body)
    }

    /// Service metrics.
    pub fn metrics(&self) -> ClientResult<Json> {
        self.request("GET", "/metrics", None)
    }

    /// Service metrics in the Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> ClientResult<String> {
        let (status, text) = self.request_raw("GET", "/metrics?format=prometheus", None)?;
        if status >= 400 {
            return Err(ClientError::Api { status, message: text });
        }
        Ok(text)
    }

    /// A finished job's full Granula archive.
    pub fn archive(&self, id: u64) -> ClientResult<graphalytics_granula::PerformanceArchive> {
        let json = self.request("GET", &format!("/jobs/{id}/archive"), None)?;
        graphalytics_granula::PerformanceArchive::from_json(&json)
            .map_err(|e| ClientError::Protocol(format!("bad archive body: {e}")))
    }

    /// Liveness probe.
    pub fn health(&self) -> ClientResult<Json> {
        self.request("GET", "/health", None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_failure_is_io_error() {
        // Reserved port 1 on loopback: nothing listens there. Retries are
        // exhausted (bounded) and the terminal error is still Io.
        let client = Client::new("127.0.0.1:1");
        match client.health() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        // A no-retry policy fails fast with the same error class.
        let client = Client::new("127.0.0.1:1").with_retry(RetryPolicy::none());
        match client.health() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn get_retries_after_dropped_connection() {
        use std::io::{Read as _, Write as _};
        // A listener that slams the first connection shut (transient
        // transport failure) and serves a real response on the second:
        // an idempotent GET must transparently retry and succeed.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let body = r#"{"status":"ok"}"#;
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len(),
            );
            stream.write_all(response.as_bytes()).unwrap();
        });
        let client = Client::new(addr.to_string());
        let health = client.health().expect("second attempt succeeds");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        server.join().unwrap();
    }

    #[test]
    fn error_display_forms() {
        let e = ClientError::Api { status: 400, message: "unknown dataset R99".into() };
        assert_eq!(e.to_string(), "server error 400: unknown dataset R99");
        let e = ClientError::Protocol("no id".into());
        assert!(e.to_string().contains("no id"));
    }
}
