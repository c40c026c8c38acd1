//! Shared engine infrastructure: the worker-pool execution runtime, the
//! partitioned-map helpers, and the frontier (active-set) structure.

pub mod frontier;
pub mod par;
pub mod pool;

pub use frontier::Frontier;
pub use par::{map_vertices, triangle_lcc};
pub use pool::WorkerPool;
