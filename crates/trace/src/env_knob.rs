//! Shared parsing for `ARPSHIELD_*` environment knobs.
//!
//! Every knob in the workspace has the same contract: a missing
//! variable silently yields the default, and *anything else that does
//! not parse cleanly* yields the default plus a warning string for the
//! caller to surface — no knob may panic, abort the run, or silently
//! swallow garbage. Centralising the parse here keeps that contract
//! uniform instead of each call site improvising.
//!
//! Warnings are returned as values (not printed) so call sites can
//! route them into an installed [`TraceCollector`](crate::TraceCollector)
//! for deterministic manifest export, falling back to stderr via
//! [`report`] when no collector is installed.

/// A snapshot of one environment variable, ready to parse.
///
/// Obtain with [`knob`]; the value is read once at construction so
/// repeated parses observe a consistent snapshot.
#[derive(Debug, Clone)]
pub struct EnvKnob {
    name: &'static str,
    raw: Option<String>,
    non_unicode: bool,
}

/// Reads `name` from the environment into an [`EnvKnob`].
pub fn knob(name: &'static str) -> EnvKnob {
    match std::env::var(name) {
        Ok(raw) => EnvKnob { name, raw: Some(raw), non_unicode: false },
        Err(std::env::VarError::NotPresent) => EnvKnob { name, raw: None, non_unicode: false },
        Err(std::env::VarError::NotUnicode(_)) => EnvKnob { name, raw: None, non_unicode: true },
    }
}

impl EnvKnob {
    /// The variable name this knob snapshots.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Parses the knob as a `T`, or `None` when unset. A set-but-garbage
    /// value (unparseable, failing `valid`, or non-unicode) yields
    /// `None` plus a warning mentioning `expected`.
    pub fn parse_opt<T: std::str::FromStr>(
        &self,
        expected: &str,
        valid: impl FnOnce(&T) -> bool,
    ) -> (Option<T>, Option<String>) {
        if self.non_unicode {
            return (None, Some(format!("ignoring non-unicode {}", self.name)));
        }
        let Some(raw) = &self.raw else {
            return (None, None);
        };
        match raw.trim().parse::<T>() {
            Ok(v) if valid(&v) => (Some(v), None),
            _ => (None, Some(format!("ignoring {}={raw:?}: expected {expected}", self.name))),
        }
    }

    /// Parses the knob as a `T`, falling back to `default` when unset
    /// or garbage (the garbage case also returns a warning).
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        default: T,
        expected: &str,
        valid: impl FnOnce(&T) -> bool,
    ) -> (T, Option<String>) {
        let (value, warning) = self.parse_opt(expected, valid);
        (value.unwrap_or(default), warning)
    }

    /// Parses a comma-separated list of `T`, falling back to `default`
    /// when unset or when *any* element is garbage (all-or-nothing, so
    /// a typo cannot silently shrink a sweep).
    pub fn parse_list_or<T: std::str::FromStr>(
        &self,
        default: Vec<T>,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> (Vec<T>, Option<String>) {
        if self.non_unicode {
            return (default, Some(format!("ignoring non-unicode {}", self.name)));
        }
        let Some(raw) = &self.raw else {
            return (default, None);
        };
        let parsed: Option<Vec<T>> =
            raw.split(',').map(|part| part.trim().parse::<T>().ok().filter(|v| valid(v))).collect();
        match parsed {
            Some(list) if !list.is_empty() => (list, None),
            _ => (default, Some(format!("ignoring {}={raw:?}: expected {expected}", self.name))),
        }
    }

    /// Interprets the knob as a boolean flag. `1`/`true`/`yes`/`on`
    /// (case-insensitive) are true; unset, empty, `0`/`false`/`no`/`off`
    /// are false; anything else is false plus a warning.
    pub fn flag(&self) -> (bool, Option<String>) {
        if self.non_unicode {
            return (false, Some(format!("ignoring non-unicode {}", self.name)));
        }
        let Some(raw) = &self.raw else {
            return (false, None);
        };
        match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "yes" | "on" => (true, None),
            "" | "0" | "false" | "no" | "off" => (false, None),
            _ => (
                false,
                Some(format!(
                    "ignoring {}={raw:?}: expected a boolean (1/0/true/false/yes/no/on/off)",
                    self.name
                )),
            ),
        }
    }
}

/// Routes a knob warning to the installed [`TraceCollector`](crate::TraceCollector)
/// (so it lands in the deterministic manifest) or to stderr when no
/// collector is installed. A `None` warning is a no-op, so call sites
/// can pass the tuple member through unconditionally.
pub fn report(warning: Option<String>) {
    let Some(warning) = warning else { return };
    match crate::current() {
        Some(collector) => collector.warn(warning),
        None => crate::stderr_line(format_args!("warning: {warning}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns a distinct variable name: tests in one binary run
    // concurrently and the process environment is shared state.

    #[test]
    fn unset_yields_default_silently() {
        let k = knob("ARPSHIELD_TEST_KNOB_UNSET");
        assert_eq!(k.parse_or(7usize, "a positive integer", |n| *n >= 1), (7, None));
        assert_eq!(k.flag(), (false, None));
        let (list, warning) = k.parse_list_or(vec![1u32, 2], "sizes", |_| true);
        assert_eq!(list, vec![1, 2]);
        assert!(warning.is_none());
    }

    #[test]
    fn valid_values_parse_without_warning() {
        std::env::set_var("ARPSHIELD_TEST_KNOB_VALID", " 42 ");
        let k = knob("ARPSHIELD_TEST_KNOB_VALID");
        assert_eq!(k.parse_or(0usize, "a positive integer", |n| *n >= 1), (42, None));
        std::env::remove_var("ARPSHIELD_TEST_KNOB_VALID");
    }

    #[test]
    fn garbage_warns_and_defaults() {
        std::env::set_var("ARPSHIELD_TEST_KNOB_GARBAGE", "lots");
        let k = knob("ARPSHIELD_TEST_KNOB_GARBAGE");
        let (n, warning) = k.parse_or(5usize, "a positive integer", |n| *n >= 1);
        assert_eq!(n, 5);
        let warning = warning.unwrap();
        assert!(warning.contains("ARPSHIELD_TEST_KNOB_GARBAGE"));
        assert!(warning.contains("lots"));
        assert!(warning.contains("a positive integer"));
        std::env::remove_var("ARPSHIELD_TEST_KNOB_GARBAGE");
    }

    #[test]
    fn failing_the_validator_counts_as_garbage() {
        std::env::set_var("ARPSHIELD_TEST_KNOB_RANGE", "0");
        let k = knob("ARPSHIELD_TEST_KNOB_RANGE");
        let (n, warning) = k.parse_or(3usize, "a positive integer", |n| *n >= 1);
        assert_eq!(n, 3);
        assert!(warning.is_some());
        std::env::remove_var("ARPSHIELD_TEST_KNOB_RANGE");
    }

    #[test]
    fn lists_are_all_or_nothing() {
        std::env::set_var("ARPSHIELD_TEST_KNOB_LIST", "10, 20 ,30");
        let k = knob("ARPSHIELD_TEST_KNOB_LIST");
        let (list, warning) = k.parse_list_or(vec![1usize], "sizes", |n| *n >= 1);
        assert_eq!(list, vec![10, 20, 30]);
        assert!(warning.is_none());

        std::env::set_var("ARPSHIELD_TEST_KNOB_LIST", "10,oops,30");
        let k = knob("ARPSHIELD_TEST_KNOB_LIST");
        let (list, warning) = k.parse_list_or(vec![1usize], "sizes", |n| *n >= 1);
        assert_eq!(list, vec![1], "one bad element rejects the whole list");
        assert!(warning.unwrap().contains("oops"));
        std::env::remove_var("ARPSHIELD_TEST_KNOB_LIST");
    }

    #[test]
    fn flags_accept_common_spellings() {
        for (raw, want, warns) in [
            ("1", true, false),
            ("TRUE", true, false),
            ("yes", true, false),
            ("on", true, false),
            ("0", false, false),
            ("off", false, false),
            ("", false, false),
            ("maybe", false, true),
        ] {
            std::env::set_var("ARPSHIELD_TEST_KNOB_FLAG", raw);
            let (got, warning) = knob("ARPSHIELD_TEST_KNOB_FLAG").flag();
            assert_eq!(got, want, "flag({raw:?})");
            assert_eq!(warning.is_some(), warns, "flag({raw:?}) warning");
        }
        std::env::remove_var("ARPSHIELD_TEST_KNOB_FLAG");
    }
}
