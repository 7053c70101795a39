//! The benchmark's workload generators, shared by the `perfbench` binary
//! and its tests.

pub mod gen;
pub mod rng;
