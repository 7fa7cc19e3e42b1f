//! A proptest-lite property-test runner: strategies, a seeded case
//! runner, and greedy input shrinking — with zero registry dependencies.
//!
//! The surface deliberately mirrors the subset of `proptest` the
//! workspace uses, so porting a suite is a handful of `use` edits:
//! [`any`], range strategies, [`collection::vec`], [`Just`],
//! [`prop_oneof!`](crate::prop_oneof), `prop_map`, and the
//! [`properties!`](crate::properties) block macro with
//! [`prop_assert!`](crate::prop_assert)-style assertions.
//!
//! Every run is deterministic: case `i` of property `name` draws from a
//! [`TestRng`] stream derived from `(seed, name, i)`. On failure the
//! runner greedily shrinks the input and panics with the seed, the case
//! index, and both the original and shrunk inputs.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{RandomValue, TestRng};

/// Default number of cases per property (override with `TESTKIT_CASES`).
pub const DEFAULT_CASES: u32 = 128;

/// Default base seed (override with `TESTKIT_SEED`).
pub const DEFAULT_SEED: u64 = 0x5eed_0001_ca11_ab1e;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A generator of test inputs plus a shrinking rule for them.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value: Clone + fmt::Debug;

    /// Draws one value from the strategy.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Proposes strictly-simpler candidates for a failing value, most
    /// aggressive first. An empty list means the value is minimal (or the
    /// strategy cannot shrink, e.g. after [`prop_map`](Strategy::prop_map)).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Transforms generated values. The mapped strategy does not shrink
    /// (the transform is not invertible in general).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { source: self, f }
    }

    /// Type-erases the strategy, for heterogeneous collections such as
    /// [`prop_oneof!`](crate::prop_oneof).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Clone + fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

/// Values with an obvious "simpler than" ordering, so [`any`] and range
/// strategies can shrink toward a floor.
pub trait Shrink: Sized {
    /// Candidates strictly simpler than `self`, most aggressive first.
    fn shrink_candidates(&self) -> Vec<Self>;
}

macro_rules! impl_shrink_uint {
    ($($ty:ty),+ $(,)?) => {$(
        impl Shrink for $ty {
            fn shrink_candidates(&self) -> Vec<Self> {
                let v = *self;
                if v == 0 {
                    return Vec::new();
                }
                let mut out = vec![0, v / 2, v - 1];
                out.dedup();
                out.retain(|&c| c != v);
                out
            }
        }
    )+};
}

impl_shrink_uint!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_shrink_int {
    ($($ty:ty),+ $(,)?) => {$(
        impl Shrink for $ty {
            fn shrink_candidates(&self) -> Vec<Self> {
                let v = *self;
                if v == 0 {
                    return Vec::new();
                }
                let towards_zero = if v > 0 { v - 1 } else { v + 1 };
                let mut out = vec![0, v / 2, towards_zero];
                out.dedup();
                out.retain(|&c| c != v);
                out
            }
        }
    )+};
}

impl_shrink_int!(i8, i16, i32, i64, i128, isize);

impl Shrink for bool {
    fn shrink_candidates(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Shrink for f64 {
    fn shrink_candidates(&self) -> Vec<Self> {
        let v = *self;
        if v == 0.0 || !v.is_finite() {
            return Vec::new();
        }
        vec![0.0, v / 2.0]
    }
}

impl Shrink for f32 {
    fn shrink_candidates(&self) -> Vec<Self> {
        let v = *self;
        if v == 0.0 || !v.is_finite() {
            return Vec::new();
        }
        vec![0.0, v / 2.0]
    }
}

impl<T: Shrink + Clone, const N: usize> Shrink for [T; N] {
    fn shrink_candidates(&self) -> Vec<Self> {
        // One candidate per position: that element's most aggressive shrink.
        let mut out = Vec::new();
        for i in 0..N {
            if let Some(simpler) = self[i].shrink_candidates().into_iter().next() {
                let mut copy = self.clone();
                copy[i] = simpler;
                out.push(copy);
            }
        }
        out
    }
}

/// The strategy behind [`any`].
pub struct Any<T>(PhantomData<T>);

/// Generates an unconstrained value of a primitive type or array thereof.
pub fn any<T: RandomValue + Shrink + Clone + fmt::Debug>() -> Any<T> {
    Any(PhantomData)
}

impl<T: RandomValue + Shrink + Clone + fmt::Debug> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink_candidates()
    }
}

macro_rules! impl_strategy_for_ranges {
    ($($ty:ty),+ $(,)?) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                shrink_toward!($ty, self.start, *value)
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                shrink_toward!($ty, *self.start(), *value)
            }
        }
    )+};
}

/// Candidates between a range's floor and the failing value: the floor
/// itself, the midpoint, and one step down.
macro_rules! shrink_toward {
    ($ty:ty, $lo:expr, $v:expr) => {{
        let (lo, v): ($ty, $ty) = ($lo, $v);
        if v <= lo {
            Vec::new()
        } else {
            let mut out = vec![lo, lo + (v - lo) / 2, v - 1];
            out.dedup();
            out.retain(|&c| c >= lo && c < v);
            out
        }
    }};
}

impl_strategy_for_ranges!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let lo = self.start;
        if *value <= lo {
            return Vec::new();
        }
        let mid = lo + (*value - lo) / 2.0;
        let mut out = vec![lo, mid];
        out.retain(|c| *c >= lo && *c < *value);
        out
    }
}

/// A strategy that always produces the same value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Maps a strategy's output through a function. See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.source.generate(rng))
    }
}

/// Chooses uniformly among several strategies producing the same type.
/// Usually built with [`prop_oneof!`](crate::prop_oneof).
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: Clone + fmt::Debug> OneOf<T> {
    /// Builds the union strategy; panics on an empty option list.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        OneOf { options }
    }
}

impl<T: Clone + fmt::Debug> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.gen_range(0..self.options.len());
        self.options[idx].generate(rng)
    }
}

macro_rules! impl_strategy_for_tuples {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut copy = value.clone();
                        copy.$idx = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    )+};
}

impl_strategy_for_tuples! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10, L: 11)
}

/// Collection strategies (`vec`).
pub mod collection {
    use super::*;

    /// An inclusive length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty length range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty length range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Generates `Vec`s whose elements come from `element` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// The strategy behind [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let len = value.len();
            // Structural shrinks first: shorter vectors are always simpler.
            if len > self.size.lo {
                let half = (len / 2).max(self.size.lo);
                if half < len {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..len - 1].to_vec());
            }
            // Then element-wise: each position's most aggressive shrink.
            for i in 0..len {
                if let Some(simpler) = self.element.shrink(&value[i]).into_iter().next() {
                    let mut copy = value.clone();
                    copy[i] = simpler;
                    out.push(copy);
                }
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// A failed assertion inside a property body; created by the
/// [`prop_assert!`](crate::prop_assert) family.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Wraps an assertion message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// What a property body returns: `Ok(())` or the first failed assertion.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration: base seed, case count, shrink budget.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Base seed; case streams derive from this, the property name, and
    /// the case index.
    pub seed: u64,
    /// Maximum number of candidate evaluations during shrinking.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: DEFAULT_CASES, seed: DEFAULT_SEED, max_shrink_steps: 16_384 }
    }
}

impl Config {
    /// Reads `TESTKIT_CASES` and `TESTKIT_SEED` (decimal or `0x`-hex)
    /// over the defaults.
    pub fn from_env() -> Self {
        let mut config = Config::default();
        if let Ok(cases) = std::env::var("TESTKIT_CASES") {
            if let Ok(n) = cases.parse() {
                config.cases = n;
            }
        }
        if let Ok(seed) = std::env::var("TESTKIT_SEED") {
            let parsed = seed
                .strip_prefix("0x")
                .map_or_else(|| seed.parse(), |hex| u64::from_str_radix(hex, 16));
            if let Ok(s) = parsed {
                config.seed = s;
            }
        }
        config
    }
}

/// A property failure: the seed to replay it, the case that tripped it,
/// and the original and shrunk inputs.
#[derive(Debug)]
pub struct PropertyFailure<V> {
    /// The property's name.
    pub name: String,
    /// The base seed the run used (`TESTKIT_SEED` replays it).
    pub seed: u64,
    /// Index of the failing case.
    pub case: u32,
    /// The input as originally generated.
    pub original: V,
    /// The input after greedy shrinking.
    pub shrunk: V,
    /// The failure message of the shrunk input.
    pub message: String,
    /// How many shrink candidates were evaluated.
    pub shrink_steps: u32,
}

impl<V: fmt::Debug> fmt::Display for PropertyFailure<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "property `{}` failed (case #{})", self.name, self.case)?;
        writeln!(f, "  seed: {:#018x} (set TESTKIT_SEED to replay)", self.seed)?;
        writeln!(f, "  original input: {:?}", self.original)?;
        writeln!(f, "  shrunk input ({} steps): {:?}", self.shrink_steps, self.shrunk)?;
        write!(f, "  error: {}", self.message)
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Silences the default panic hook while the runner probes candidate
/// inputs, so shrinking a panicking property does not spam stderr.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

struct QuietGuard;

impl QuietGuard {
    fn new() -> Self {
        install_quiet_panic_hook();
        QUIET_PANICS.with(|q| q.set(true));
        QuietGuard
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        QUIET_PANICS.with(|q| q.set(false));
    }
}

fn run_case<V, F>(f: &F, value: &V) -> Result<(), String>
where
    V: Clone,
    F: Fn(V) -> TestCaseResult,
{
    match panic::catch_unwind(AssertUnwindSafe(|| f(value.clone()))) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.0),
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Runs `config.cases` seeded cases of the property `f` over inputs from
/// `strategy`. Returns the number of cases run, or the shrunk failure.
///
/// This is the engine under the [`properties!`](crate::properties) macro;
/// call it directly to assert *on* a failure (as the testkit's own
/// shrinking tests do).
pub fn check<S, F>(
    name: &str,
    strategy: &S,
    config: &Config,
    f: F,
) -> Result<u32, Box<PropertyFailure<S::Value>>>
where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    for case in 0..config.cases {
        let mut rng = TestRng::with_stream(config.seed ^ fnv1a(name), u64::from(case) + 1);
        let original = strategy.generate(&mut rng);
        let guard = QuietGuard::new();
        if let Err(first_message) = run_case(&f, &original) {
            let (shrunk, message, shrink_steps) = shrink_failure(
                strategy,
                original.clone(),
                first_message,
                &f,
                config.max_shrink_steps,
            );
            drop(guard);
            return Err(Box::new(PropertyFailure {
                name: name.to_string(),
                seed: config.seed,
                case,
                original,
                shrunk,
                message,
                shrink_steps,
            }));
        }
        drop(guard);
    }
    Ok(config.cases)
}

/// Greedy shrinking: repeatedly replace the failing input with its first
/// still-failing shrink candidate until none fails or the budget runs out.
fn shrink_failure<S, F>(
    strategy: &S,
    mut current: S::Value,
    mut message: String,
    f: &F,
    max_steps: u32,
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    let mut steps = 0;
    'progress: while steps < max_steps {
        for candidate in strategy.shrink(&current) {
            steps += 1;
            if let Err(m) = run_case(f, &candidate) {
                current = candidate;
                message = m;
                continue 'progress;
            }
            if steps >= max_steps {
                break;
            }
        }
        break;
    }
    (current, message, steps)
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares a block of property tests, proptest-style:
///
/// ```rust
/// use arpshield_testkit::prelude::*;
///
/// // In a test file each property carries `#[test]`, exactly like
/// // proptest's block macro.
/// arpshield_testkit::properties! {
///     fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
///         prop_assert_eq!(u64::from(a) + u64::from(b), u64::from(b) + u64::from(a));
///     }
/// }
/// addition_commutes();
/// ```
#[macro_export]
macro_rules! properties {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let strategy = ($($strat,)+);
            let config = $crate::prop::Config::from_env();
            let outcome = $crate::prop::check(stringify!($name), &strategy, &config, |($($arg,)+)| {
                $body
                Ok(())
            });
            if let Err(failure) = outcome {
                panic!("{failure}");
            }
        }
    )*};
}

/// Asserts a condition inside a property body, failing the case (and
/// triggering shrinking) instead of aborting the whole run.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::TestCaseError::fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::prop::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion for property bodies; see [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::prop::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                left,
                right,
                file!(),
                line!()
            )));
        }
    }};
}

/// Inequality assertion for property bodies; see [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err($crate::prop::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                left,
                file!(),
                line!()
            )));
        }
    }};
}

/// Chooses uniformly among several strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::prop::OneOf::new(vec![$($crate::prop::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(cases: u32) -> Config {
        Config { cases, seed: DEFAULT_SEED, max_shrink_steps: 65_536 }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let ran = check("tautology", &(any::<u32>(),), &config(64), |(x,)| {
            prop_assert_eq!(x, x);
            Ok(())
        })
        .expect("tautology must pass");
        assert_eq!(ran, 64);
    }

    #[test]
    fn planted_failure_shrinks_to_minimal_counterexample() {
        // Fails exactly when x >= 1000: the unique minimal counterexample
        // is 1000, and greedy shrinking must land on it.
        let failure = check("planted_threshold", &(0u32..10_000,), &config(256), |(x,)| {
            prop_assert!(x < 1000, "x = {x} crossed the threshold");
            Ok(())
        })
        .expect_err("property must fail");
        assert_eq!(failure.shrunk.0, 1000);
        assert!(failure.original.0 >= 1000);
        assert!(failure.message.contains("threshold"));
    }

    #[test]
    fn failure_report_names_seed_case_and_shrunk_input() {
        let failure = check("planted_report", &(0u64..1_000_000,), &config(128), |(x,)| {
            prop_assert!(x < 10);
            Ok(())
        })
        .expect_err("property must fail");
        let report = failure.to_string();
        assert!(report.contains("seed: 0x5eed0001ca11ab1e"), "report: {report}");
        assert!(report.contains("shrunk input"), "report: {report}");
        assert!(report.contains("10"), "report: {report}");
        assert!(report.contains("TESTKIT_SEED"), "report: {report}");
    }

    #[test]
    fn vec_shrinking_minimizes_both_length_and_elements() {
        let strategy = (collection::vec(any::<u8>(), 0..100),);
        let failure = check("planted_vec", &strategy, &config(256), |(v,)| {
            prop_assert!(v.len() < 5);
            Ok(())
        })
        .expect_err("property must fail");
        assert_eq!(failure.shrunk.0, vec![0u8; 5], "minimal: shortest failing length, zeroed");
    }

    #[test]
    fn shrinking_handles_panicking_properties() {
        let failure = check("planted_panic", &(0u32..5_000,), &config(256), |(x,)| {
            assert!(x < 700, "boom at {x}");
            Ok(())
        })
        .expect_err("property must fail");
        assert_eq!(failure.shrunk.0, 700);
        assert!(failure.message.contains("boom"), "message: {}", failure.message);
    }

    #[test]
    fn failures_are_deterministic_for_a_fixed_seed() {
        let run = || {
            check("planted_det", &(0u32..1 << 20,), &config(512), |(x,)| {
                prop_assert!(x % 7 != 3);
                Ok(())
            })
            .expect_err("property must fail")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.case, b.case);
        assert_eq!(a.original.0, b.original.0);
        assert_eq!(a.shrunk.0, b.shrunk.0);
        assert_eq!(a.shrunk.0 % 7, 3);
    }

    #[test]
    fn tuple_strategies_shrink_componentwise() {
        let failure =
            check("planted_tuple", &((0u32..100, 0u32..100),), &config(512), |((a, b),)| {
                prop_assert!(a < 10 || b < 10);
                Ok(())
            })
            .expect_err("property must fail");
        let (a, b) = failure.shrunk.0;
        assert_eq!((a, b), (10, 10));
    }

    #[test]
    fn oneof_and_just_generate_only_their_options() {
        let strategy = (prop_oneof![Just(2u8), Just(5u8), Just(9u8)],);
        let mut seen = std::collections::BTreeSet::new();
        check("oneof_members", &strategy, &config(256), |(x,)| {
            prop_assert!([2u8, 5, 9].contains(&x));
            Ok(())
        })
        .expect("members only");
        let mut rng = TestRng::new(1);
        for _ in 0..100 {
            seen.insert(strategy.0.generate(&mut rng));
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![2, 5, 9]);
    }

    #[test]
    fn prop_map_transforms_generated_values() {
        let doubled = (0u32..50).prop_map(|x| x * 2);
        let mut rng = TestRng::new(3);
        for _ in 0..100 {
            assert_eq!(doubled.generate(&mut rng) % 2, 0);
        }
    }

    properties! {
        /// The macro itself: argument binding, strategies, assertions.
        #[test]
        fn macro_binds_arguments(a in any::<u16>(), v in collection::vec(any::<u8>(), 0..10)) {
            prop_assert!(v.len() < 10);
            prop_assert_eq!(u32::from(a) * 2, u32::from(a) + u32::from(a));
            prop_assert_ne!(v.len(), 11);
        }
    }
}
