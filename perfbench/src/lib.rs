//! The repository benchmark: fixed-seed workloads driven through the
//! metaopt library's public API, timed end to end, with a separate traced
//! run that attributes one rep's time to the library's layers.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! what each is predicted to move.

pub mod ledger;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;
