//! # arpshield-testkit
//!
//! The workspace's in-tree, zero-registry-dependency correctness and
//! performance toolkit:
//!
//! * [`rng`] — a seeded PCG32 generator ([`TestRng`]) for deterministic
//!   test-input streams, independent of the simulator's own RNG.
//! * [`prop`] — a proptest-lite property runner: [`Strategy`]
//!   combinators, the [`properties!`] block macro, seeded case
//!   generation, and greedy shrinking that reports the seed and the
//!   minimal counterexample.
//! * [`bench`] — a criterion-lite harness behind the same
//!   `criterion_group!`/`criterion_main!` surface, timing with
//!   calibration + warmup + fixed-iteration sampling and writing
//!   median/mean/throughput JSON to `results/bench/<name>.json` through
//!   `arpshield_trace::json`.
//!
//! The point of the crate (see the "Zero registry dependencies" section
//! of the top-level README): `cargo build && cargo test && cargo bench`
//! must work from a bare Rust toolchain with no network and no vendored
//! registry, because this environment has neither.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod prop;
pub mod rng;

pub use bench::{BenchConfig, Bencher, BenchmarkGroup, BenchmarkId, Criterion, Throughput};
pub use prop::{Strategy, TestCaseError, TestCaseResult};
pub use rng::TestRng;

/// Everything a property-test file needs, proptest-prelude-style.
pub mod prelude {
    pub use crate::prop::{any, collection, Config, Just, OneOf, Strategy};
    pub use crate::rng::TestRng;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, properties};
}
