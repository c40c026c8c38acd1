//! Shared engine infrastructure: the worker-pool execution runtime, the
//! partitioned-map helpers, the frontier (active-set) and dense-key grouping.

pub mod frontier;
pub mod grouped;
pub mod par;
pub mod pool;

pub use frontier::Frontier;
pub use grouped::Grouped;
pub use par::{map_vertices, triangle_lcc};
pub use pool::WorkerPool;
