//! End-to-end and per-layer benchmark of the simulated GPU memory
//! managers. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it.

pub mod check;
pub mod hist;
pub mod layers;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
