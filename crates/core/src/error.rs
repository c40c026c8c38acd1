//! Error type shared across the Graphalytics crates.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by graph construction, I/O, and benchmark execution.
#[derive(Debug)]
pub enum Error {
    /// A graph violated a data-model invariant (Section 2.2.1): duplicate
    /// edge, self loop, or an edge endpoint that is not a declared vertex.
    InvalidGraph(String),
    /// A malformed vertex/edge file.
    Parse { file: String, line: u64, message: String },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An algorithm was asked to run with missing or inconsistent
    /// parameters (e.g. SSSP on an unweighted graph).
    InvalidParameters(String),
    /// A platform does not implement the requested algorithm
    /// (e.g. LCC on PGX.D in the paper's evaluation).
    Unsupported { platform: String, algorithm: String },
    /// The (simulated) system ran out of memory; maps to the paper's
    /// crash-type SLA violations (Sections 2.3 and 4.6).
    OutOfMemory { required_bytes: u64, available_bytes: u64 },
    /// A benchmark job exceeded its SLA makespan budget (Section 2.3).
    SlaViolation { makespan_secs: f64, limit_secs: f64 },
    /// Output validation against the reference implementation failed.
    ValidationFailed(String),
    /// The run observed cooperative cancellation at a checkpoint
    /// (operator `DELETE /jobs/:id`, or a scripted cancel fault).
    Cancelled,
    /// The run's armed deadline passed before completion.
    DeadlineExceeded { timeout_secs: f64 },
    /// A fault deliberately injected by the fault plane (`core::fault`).
    /// Transient faults are retried by the service with bounded backoff;
    /// permanent ones are terminal.
    Injected { site: &'static str, transient: bool },
    /// Anything else.
    Other(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidGraph(msg) => write!(f, "invalid graph: {msg}"),
            Error::Parse { file, line, message } => {
                write!(f, "parse error in {file}:{line}: {message}")
            }
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            Error::Unsupported { platform, algorithm } => {
                write!(f, "platform {platform} does not support algorithm {algorithm}")
            }
            Error::OutOfMemory { required_bytes, available_bytes } => write!(
                f,
                "out of memory: required {required_bytes} B, available {available_bytes} B"
            ),
            Error::SlaViolation { makespan_secs, limit_secs } => write!(
                f,
                "SLA violation: makespan {makespan_secs:.1}s exceeds limit {limit_secs:.1}s"
            ),
            Error::ValidationFailed(msg) => write!(f, "output validation failed: {msg}"),
            Error::Cancelled => f.write_str("cancelled"),
            Error::DeadlineExceeded { timeout_secs } => {
                write!(f, "deadline exceeded: run did not finish within {timeout_secs:.3}s")
            }
            Error::Injected { site, transient } => {
                let class = if *transient { "transient" } else { "permanent" };
                write!(f, "injected {class} fault at {site}")
            }
            Error::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// True when the error counts as a *failed job* under the benchmark SLA
    /// (crash or timeout), as opposed to a configuration/user error.
    pub fn breaks_sla(&self) -> bool {
        matches!(self, Error::OutOfMemory { .. } | Error::SlaViolation { .. })
    }

    /// True for injected-transient faults — the only class the service
    /// retries with backoff.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Injected { transient: true, .. })
    }

    /// True for errors produced by the fault/cancellation plane itself
    /// (as opposed to genuine configuration or data errors).
    pub fn is_fault_control(&self) -> bool {
        matches!(self, Error::Cancelled | Error::DeadlineExceeded { .. } | Error::Injected { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::OutOfMemory { required_bytes: 10, available_bytes: 5 };
        assert!(e.to_string().contains("out of memory"));
        assert!(e.breaks_sla());
        let e = Error::SlaViolation { makespan_secs: 4000.0, limit_secs: 3600.0 };
        assert!(e.breaks_sla());
        let e = Error::InvalidGraph("self loop".into());
        assert!(!e.breaks_sla());
        assert!(e.to_string().contains("self loop"));
    }

    #[test]
    fn io_error_source() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
    }
}
