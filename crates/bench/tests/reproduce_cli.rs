//! The `reproduce` binary's readers on damaged or hostile input.
//!
//! `validate-trace`, `profile-report` and `inspect`'s sidecar read
//! manifests through one loader, and a manifest may not be one arpshield
//! wrote. A document nested far deeper than any manifest, or one whose
//! fields have the wrong type, must be refused with a message and a
//! nonzero exit code, not abort the process. A capture cut mid-block is
//! not an error: `inspect` shows its complete packets, as `ingest`
//! does, and warns about the cut. Nor is a reader that closes stdout
//! early: the command ends quietly. A reader that closes stderr early
//! costs a run its diagnostics and nothing else.
//!
//! The behavioural contract lives here too: the digests of every file
//! that `reproduce --trace --capture --defend` and an `ingest` replay of
//! its t3 capture write.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use arpshield_crypto::sha256;
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetEmit, Ipv4Addr, MacAddr, WireEmit};
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

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().unwrap()
}

/// Runs `reproduce args…` and checks it exited with a nonzero code (so
/// no signal killed it) and said `needle` on stderr.
fn assert_refused(args: &[&str], needle: &str) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code();
    assert!(
        matches!(code, Some(c) if c != 0),
        "{args:?}: expected a nonzero exit code, got {:?}; stderr: {stderr}",
        out.status
    );
    assert!(stderr.contains(needle), "{args:?}: expected {needle:?} on stderr: {stderr}");
}

/// An empty capture with one run, so `inspect` reaches its sidecar.
fn empty_capture(dir: &std::path::Path) -> String {
    let mut writer = PcapngWriter::new("arpshield-test");
    writer.add_interface("run");
    let capture = dir.join("run.pcapng");
    std::fs::write(&capture, writer.finish()).unwrap();
    capture.to_str().unwrap().to_string()
}

/// Writes `manifest` as `run.json` and runs all three readers on it:
/// `validate-trace` and `profile-report` on the file, `inspect` on the
/// capture beside it.
fn assert_all_readers_refuse(dir: &std::path::Path, manifest: &str, needle: &str) {
    let path = dir.join("run.json");
    std::fs::write(&path, manifest).unwrap();
    let path = path.to_str().unwrap();
    assert_refused(&["validate-trace", path], needle);
    assert_refused(&["profile-report", path], needle);
    // `inspect` reads the sidecar after the capture itself parses.
    assert_refused(&["inspect", &empty_capture(dir)], needle);
}

#[test]
fn deeply_nested_json_is_an_error_not_an_abort() {
    let dir = scratch_dir("nested");
    assert_all_readers_refuse(&dir, &deeply_nested(), "nesting deeper than");
    std::fs::remove_dir_all(&dir).ok();
}

/// A minimal manifest with one run carrying `event`, plus `extra`
/// top-level members.
fn manifest(event: &str, extra: &str) -> String {
    format!(
        r#"{{"schema":"arpshield-trace/1","experiment":"t0","time_unit":"ns","totals":{{}},"warnings":[],{extra}"runs":[{{"label":"run","counters":{{}},"frames_evicted":0,"events":[{event}]}}]}}"#
    )
}

const VERDICT: &str = r#"{"at_ns":1000000,"category":"scheme.verdict","actor":"passive","detail":"kind=binding_changed","frames":[1]}"#;

const WALL: &str = r#""wall":{"wall_ns":1000,"self_total_ns":900,"spans":[{"path":"job","name":"job","count":1,"total_ns":900,"self_ns":900,"child_ns":0}],"gauges":[]},"#;

/// `runs`, `events` and `wall.spans` of the wrong type: every reader
/// refuses the manifest with a message naming the field.
#[test]
fn wrongly_typed_sections_are_refused_by_every_reader() {
    let dir = scratch_dir("types");
    let runs = r#"{"schema":"arpshield-trace/1","experiment":"t0","time_unit":"ns","totals":{},"warnings":[],"runs":{"label":"run"}}"#;
    assert_all_readers_refuse(&dir, runs, "missing array field `runs`");
    let events = manifest(VERDICT, "").replace(&format!("[{VERDICT}]"), "\"none\"");
    assert_all_readers_refuse(&dir, &events, "run 0: missing array field `events`");
    let spans = manifest(VERDICT, &WALL.replace(r#""spans":["#, r#""spans":7,"x":["#));
    assert_all_readers_refuse(&dir, &spans, "wall: missing array field `spans`");
    std::fs::remove_dir_all(&dir).ok();
}

/// `profile-report` needs the `wall` section, and `inspect` a sidecar
/// that is a manifest.
#[test]
fn readers_refuse_manifests_without_what_they_read() {
    let dir = scratch_dir("missing");
    let path = dir.join("run.json");
    std::fs::write(&path, manifest(VERDICT, "")).unwrap();
    let path = path.to_str().unwrap();
    assert_eq!(reproduce(&["validate-trace", path]).status.code(), Some(0));
    assert_refused(&["profile-report", path], "no `wall` section");

    std::fs::write(path, manifest(VERDICT, WALL)).unwrap();
    let out = reproduce(&["profile-report", path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("90.0% coverage"));

    // A document in another schema: not a manifest.
    let other = manifest(VERDICT, "").replace("arpshield-trace/1", "arpshield-bench-v1");
    std::fs::write(path, other).unwrap();
    assert_refused(&["inspect", &empty_capture(&dir)], "unknown schema \"arpshield-bench-v1\"");
    std::fs::remove_dir_all(&dir).ok();
}

/// Two gratuitous replies claiming 10.0.0.1, the second cut off mid-
/// block, beside a manifest naming a verdict that cites the first.
#[test]
fn inspect_shows_the_complete_packets_of_a_cut_capture() {
    let dir = scratch_dir("cut");
    let mut writer = PcapngWriter::new("arpshield-test");
    let interface = writer.add_interface("run");
    for (id, station) in [(1u64, 1u32), (2, 66)] {
        let mac = MacAddr::from_index(station);
        let arp = ArpPacket::gratuitous(ArpOp::Reply, mac, Ipv4Addr::new(10, 0, 0, 1));
        let frame = EthernetEmit::new(MacAddr::BROADCAST, mac, EtherType::ARP, &arp).encode();
        let comment = format!("id={id} kind=deliver src=h{station}:0 dst=sw:1");
        writer.add_packet(interface, id * 1_000_000, &frame, &comment);
    }
    let full = writer.finish();
    let capture = dir.join("run.pcapng");
    std::fs::write(&capture, &full[..full.len() - 10]).unwrap();
    let capture = capture.to_str().unwrap();
    std::fs::write(dir.join("run.json"), manifest(VERDICT, r#""ring_capacity":2,"#)).unwrap();

    let out = reproduce(&["inspect", capture]);
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("truncated"), "stderr: {stderr}");
    assert!(stdout.contains("(1 frame(s) captured, 0 evicted, 1 event(s))"), "{stdout}");
    assert!(stdout.contains("#1 "), "the complete packet is shown: {stdout}");
    assert!(stdout.contains("gratuitous ARP 10.0.0.1 is-at"), "{stdout}");
    assert!(!stdout.contains("#2 "), "the cut packet is not: {stdout}");
    assert!(stdout.contains("kind=binding_changed  <= frames #1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every JSON file `reproduce` writes is a manifest: with all three
/// telemetry flags, `validate-trace` passes the whole output directory,
/// and the capture and profile land beside the trace, not in
/// directories of their own.
#[test]
fn validate_trace_passes_everything_reproduce_writes() {
    let dir = scratch_dir("all-flags");
    let out_dir = dir.to_str().unwrap();
    let run = reproduce(&["--trace", "--capture", "--profile", "t2", "--out", out_dir]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    for name in ["t2.json", "t2.csv", "t2.hist.csv", "t2.pcapng"] {
        assert!(dir.join("trace").join(name).is_file(), "trace/{name} missing");
    }
    assert!(!dir.join("capture").exists() && !dir.join("profile").exists());
    let out = reproduce(&["validate-trace", out_dir]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stdout.lines().count(), 1, "one manifest: {stdout}");
    assert!(stdout.contains("t2.json: valid arpshield-trace/1 manifest"), "{stdout}");
    let report = reproduce(&["profile-report", dir.join("trace/t2.json").to_str().unwrap()]);
    assert_eq!(report.status.code(), Some(0), "{}", String::from_utf8_lossy(&report.stderr));

    // The walk stays strict: a JSON file that is not a manifest, such as
    // a report in some other schema, fails it by name.
    let stray = r#"{"schema":"arpshield-bench-v1","results":[]}"#;
    std::fs::write(dir.join("report.json"), stray).unwrap();
    let out = reproduce(&["validate-trace", out_dir]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("report.json"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `reproduce args…` with its stdout on a pipe, reads one line and
/// closes the pipe: the command must end with exit 0 and say nothing on
/// stderr, as a table piped into `head -1` does.
fn assert_quiet_on_a_closed_pipe(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "{args:?}: no first line");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!((out.status.code(), stderr.as_ref()), (Some(0), ""), "{args:?}");
}

/// Both tables run far past a pipe's 64 KiB buffer, so each command is
/// still writing when the reader goes: `inspect`'s timeline of 4,000
/// frames and `profile-report`'s table of 4,000 spans.
#[test]
fn a_closed_stdout_ends_inspect_and_profile_report_quietly() {
    let dir = scratch_dir("closed-pipe");
    let mut writer = PcapngWriter::new("arpshield-test");
    let interface = writer.add_interface("run");
    let mac = MacAddr::from_index(1);
    let arp = ArpPacket::gratuitous(ArpOp::Reply, mac, Ipv4Addr::new(10, 0, 0, 1));
    let frame = EthernetEmit::new(MacAddr::BROADCAST, mac, EtherType::ARP, &arp).encode();
    for id in 1..=4000u64 {
        writer.add_packet(interface, id * 1000, &frame, &format!("id={id} kind=deliver"));
    }
    let capture = dir.join("run.pcapng");
    std::fs::write(&capture, writer.finish()).unwrap();
    let span = r#"{"path":"job","name":"job","count":1,"total_ns":900,"self_ns":900,"child_ns":0}"#;
    let spans = vec![span; 4000].join(",");
    let wall = WALL.replace(&format!("[{span}]"), &format!("[{spans}]"));
    let manifest_path = dir.join("run.json");
    std::fs::write(&manifest_path, manifest(VERDICT, &wall)).unwrap();

    assert_quiet_on_a_closed_pipe(&["inspect", capture.to_str().unwrap()]);
    assert_quiet_on_a_closed_pipe(&["profile-report", manifest_path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes stderr at once, as `2>&1 >/dev/null | head -1`
/// does, drops the progress lines and nothing else: the sweep exits 0
/// and writes the CSVs it writes with stderr open.
#[test]
fn a_closed_stderr_drops_diagnostics_and_changes_no_output() {
    let dir = scratch_dir("closed-stderr");
    let sweep = |name: &str| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_reproduce"));
        command
            .args(["t6s", "--out", dir.join(name).to_str().unwrap()])
            .env("ARPSHIELD_T6S_HOSTS", "2000,3000")
            .env("ARPSHIELD_THREADS", "1")
            .env_remove("ARPSHIELD_QUIET");
        command
    };
    let csvs = |name: &str| {
        ["t6s_0.csv", "t6s_1.csv"].map(|f| std::fs::read(dir.join(name).join(f)).unwrap())
    };

    let open = sweep("open").output().unwrap();
    let stderr = String::from_utf8_lossy(&open.stderr);
    assert_eq!(open.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains(": done "), "the sweep has lines to drop: {stderr}");

    let mut child = sweep("closed").stdout(Stdio::null()).stderr(Stdio::piped()).spawn().unwrap();
    drop(child.stderr.take());
    assert_eq!(child.wait().unwrap().code(), Some(0));
    assert!(csvs("closed") == csvs("open"), "the CSVs differ");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file under `dir`, as a path relative to it with `/` between
/// components, in sorted order.
fn files_under(dir: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(&next).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let relative = path.strip_prefix(dir).unwrap().components();
                let names: Vec<_> = relative.map(|c| c.as_os_str().to_string_lossy()).collect();
                files.push(names.join("/"));
            }
        }
    }
    files.sort();
    files
}

/// The behavioural contract. `results/contract.sha256` pins the SHA-256
/// of every file two commands write. `reproduce --trace --capture
/// --defend` runs the whole grid, the scale sweep at 300 and 2,100
/// stations (a partial leaf and three VIDs) and with a 256-frame ring:
/// 33 CSVs, and each of 16 experiments' trace CSV, histogram CSV,
/// manifest and pcapng. `reproduce ingest` then replays t3's capture
/// through the passive monitor, writing three more files under
/// `trace/`. The digests hold at any worker-thread count.
fn assert_the_contract_holds_at(threads: &str) {
    let contract_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/contract.sha256");
    let contract = std::fs::read_to_string(contract_path).unwrap();
    let expected: Vec<(&str, &str)> =
        contract.lines().map(|line| line.split_once("  ").expect("`DIGEST  PATH`")).collect();
    assert_eq!(expected.len(), 100, "{contract}");
    let dir = scratch_dir(&format!("contract-{threads}"));
    let out = dir.to_str().unwrap();
    let capture = dir.join("trace/t3.pcapng");
    let capture = capture.to_str().unwrap();
    let grid = ["--trace", "--capture", "--defend", "--out", out];
    let replay =
        ["ingest", capture, "--scheme", "passive", "--vantage", "passive-monitor", "--out", out];
    for args in [&grid[..], &replay[..]] {
        let run = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .env("ARPSHIELD_T6S_HOSTS", "300,2100")
            .env("ARPSHIELD_RECORD_FRAMES", "256")
            .env("ARPSHIELD_THREADS", threads)
            .output()
            .unwrap();
        assert_eq!(
            run.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let mut want: Vec<&str> = expected.iter().map(|(_, path)| *path).collect();
    want.sort_unstable();
    assert_eq!(files_under(&dir), want, "files written at {threads} thread(s)");
    let changed: Vec<&str> = expected
        .iter()
        .filter(|(digest, path)| {
            let bytes = std::fs::read(dir.join(path)).unwrap();
            let got: String = sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect();
            got != *digest
        })
        .map(|(_, path)| *path)
        .collect();
    assert!(changed.is_empty(), "at {threads} thread(s), these files changed: {changed:?}");
    std::fs::remove_dir_all(&dir).ok();
}

// One test per thread count, so the two runs overlap.
#[test]
fn the_grid_writes_the_contracted_bytes_at_one_thread() {
    assert_the_contract_holds_at("1");
}

#[test]
fn the_grid_writes_the_contracted_bytes_at_four_threads() {
    assert_the_contract_holds_at("4");
}
