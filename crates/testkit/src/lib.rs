//! # arpshield-testkit
//!
//! The workspace's in-tree, zero-registry-dependency test toolkit:
//!
//! * [`rng`] — a seeded PCG32 generator ([`TestRng`]) for deterministic
//!   test-input streams, independent of the simulator's own RNG.
//! * [`prop`] — a proptest-lite property runner: [`Strategy`]
//!   combinators, the [`properties!`] block macro, seeded case
//!   generation, and greedy shrinking that reports the seed and the
//!   minimal counterexample.
//!
//! The point of the crate (see the "Zero registry dependencies" section
//! of the top-level README): `cargo build && cargo test` must work from
//! a bare Rust toolchain with no network and no vendored registry. It
//! depends on nothing, not even the crates it tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prop;
pub mod rng;

pub use prop::{Strategy, TestCaseError, TestCaseResult};
pub use rng::TestRng;

/// Everything a property-test file needs, proptest-prelude-style.
pub mod prelude {
    pub use crate::prop::{any, collection, Config, Just, OneOf, Strategy};
    pub use crate::rng::TestRng;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, properties};
}
