//! The `reproduce` binary's readers on damaged or hostile input.
//!
//! `validate-trace`, `profile-report` and `inspect`'s `.index.json`
//! sidecar all read JSON that arpshield may not have written. A
//! document nested far deeper than any manifest must be refused with a
//! message and a nonzero exit code, not abort the process on a stack
//! overflow. A capture cut mid-block is not an error: `inspect` shows
//! its complete packets, as `ingest` does, and warns about the cut.

use std::path::PathBuf;
use std::process::{Command, Output};

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
/// no signal killed it) and named the nesting problem on stderr.
fn assert_refused(args: &[&str]) {
    let out = reproduce(args);
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

/// Two gratuitous replies claiming 10.0.0.1, the second cut off mid-
/// block, with an index naming a verdict that cites the first.
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

    // One run whose verdict cites frame 1; a `/1` index also carries
    // the frame table `/2` dropped.
    let event = r#"{"at_ns":1000000,"category":"scheme.verdict","actor":"passive","detail":"kind=binding_changed","frames":[1]}"#;
    let table = r#""frames":[{"id":1,"at_ns":1000000,"kind":"deliver","src":"h1:0","dst":"sw:1","len":60,"pinned":true}],"#;
    let index = |schema: &str, frames: &str| {
        format!(
            r#"{{"schema":"arpshield-capture/{schema}","runs":[{{"label":"run","frames_evicted":0,{frames}"events":[{event}]}}]}}"#
        )
    };
    let mut shown = Vec::new();
    for (schema, frames) in [("2", ""), ("1", table)] {
        std::fs::write(dir.join("run.index.json"), index(schema, frames)).unwrap();
        let out = reproduce(&["inspect", capture]);
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(0), "/{schema}: stderr: {stderr}");
        assert!(stderr.contains("truncated"), "/{schema}: stderr: {stderr}");
        assert!(stdout.contains("(1 frame(s) captured, 0 evicted, 1 event(s))"), "{stdout}");
        assert!(stdout.contains("#1 "), "the complete packet is shown: {stdout}");
        assert!(stdout.contains("gratuitous ARP 10.0.0.1 is-at"), "{stdout}");
        assert!(!stdout.contains("#2 "), "the cut packet is not: {stdout}");
        assert!(stdout.contains("kind=binding_changed  <= frames #1"), "{stdout}");
        shown.push(stdout.into_owned());
    }
    assert_eq!(shown[0], shown[1], "both index schemas render the same timeline");
    std::fs::remove_dir_all(&dir).ok();
}
