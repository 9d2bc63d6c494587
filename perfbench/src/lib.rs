//! The bdrst benchmark: seeded workloads sent through an in-process check
//! server and timed request to response, plus a traced run that
//! attributes the time to the repository's layers. See `README.md`.

pub mod client;
pub mod families;
pub mod ledger;
pub mod report;
pub mod stats;
pub mod workload;
