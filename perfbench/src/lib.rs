//! Statistics and span tracing shared by the benchmark binary and its
//! tests. The binary (`src/main.rs`) drives the workloads; everything here
//! is plain arithmetic over recorded samples, so it can be tested without
//! a server.

pub mod stats;
pub mod trace;
