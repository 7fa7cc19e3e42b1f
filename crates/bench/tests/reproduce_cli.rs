//! The `reproduce` binary's JSON readers on hostile input.
//!
//! `validate-trace`, `profile-report` and `inspect`'s `.index.json`
//! sidecar all read JSON that arpshield may not have written. A
//! document nested far deeper than any manifest must be refused with a
//! message and a nonzero exit code, not abort the process on a stack
//! overflow.

use std::path::PathBuf;
use std::process::Command;

use arpshield_trace::pcapng::PcapngWriter;

/// 400 KB of `[`, then as many `]`: 200,000 levels of nesting.
fn deeply_nested() -> String {
    format!("{}{}", "[".repeat(200_000), "]".repeat(200_000))
}

/// A fresh directory for one test's files.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arpshield-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `reproduce args…` and checks it exited with a nonzero code (so
/// no signal killed it) and named the nesting problem on stderr.
fn assert_refused(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code();
    assert!(
        matches!(code, Some(c) if c != 0),
        "{args:?}: expected a nonzero exit code, got {:?}; stderr: {stderr}",
        out.status
    );
    assert!(stderr.contains("nesting deeper than"), "{args:?}: stderr: {stderr}");
}

#[test]
fn deeply_nested_json_is_an_error_not_an_abort() {
    let dir = scratch_dir("nested");
    let nested = dir.join("nested.json");
    std::fs::write(&nested, deeply_nested()).unwrap();
    let nested = nested.to_str().unwrap();
    assert_refused(&["validate-trace", nested]);
    assert_refused(&["profile-report", nested]);

    // `inspect` reads the sidecar after the capture itself parses.
    let mut writer = PcapngWriter::new("arpshield-test");
    writer.add_interface("run");
    let capture = dir.join("run.pcapng");
    std::fs::write(&capture, writer.finish()).unwrap();
    std::fs::write(dir.join("run.index.json"), deeply_nested()).unwrap();
    assert_refused(&["inspect", capture.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
}
