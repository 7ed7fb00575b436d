//! `bench_e2e`: the end-to-end + per-layer performance ledger of the
//! Spyker reproduction. See `README.md` for the metric tables, the
//! workloads and how to run, trace and compare.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod ledger;
pub mod measure;
pub mod micro;
pub mod stats;
pub mod trace;
pub mod workloads;
