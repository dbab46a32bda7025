//! The repository benchmark. Three workloads drive the public APIs of
//! the runtime, the workload models, persistence and the fleet
//! aggregator; see `METRICS.md` for what each metric means.

pub mod fleet;
pub mod paper;
pub mod report;
pub mod server;
pub mod spans;
