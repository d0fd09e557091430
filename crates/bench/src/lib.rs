//! The curated rvhpc benchmark suite.
//!
//! [`harness`] runs the suite — deterministic iteration counts,
//! monotonic-clock timing, exact min/median/p99 per target — and
//! [`record`] turns a run into a versioned `rvhpc-bench/1` document
//! (`results/BENCH_<n>.json`) plus rvr-style markdown tables. That is
//! the committed benchmark trajectory `reproduce bench` appends to and
//! `obsdiff` gates in CI. Paper tables and figures are regenerated by
//! `reproduce tableN|figN|extensions`, not here.

pub mod harness;
pub mod record;
