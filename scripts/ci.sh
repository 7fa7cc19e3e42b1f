#!/usr/bin/env bash
# The offline CI gate. Everything must pass with no registry access and
# with warnings promoted to errors.
#
#   scripts/ci.sh
#
# Steps: rustfmt check, release build, a check that the `reproduce`
# crate links no test code, clippy over every target with lints denied,
# rustdoc over the workspace with warnings denied (broken or ambiguous
# intra-doc links), full test suite (the allocation floors in
# tests/alloc_floors.rs included), a build and self-test of perfbench
# (its own workspace, built against the library crates by path, so
# removing API it uses fails here), a 5 s perfbench run of every workload (its oracles must
# hold, its peak memory must stay within 5% of
# results/perfbench-<workload>.json, and its frames_per_quiet_s may
# fall no more than BENCHMARK.json's bound below it), a smoke run of the t5r
# loss-resilience sweep, a `--trace` smoke (manifest emission +
# validation), a `--profile` smoke (the manifest's `wall` section +
# report rendering), a `--capture` smoke (pcapng beside the manifest,
# forensic `inspect` timeline with verdict provenance, `inspect` on a
# capture cut mid-block), a closed-pipe smoke (`inspect` and
# `profile-report` piped into `head -1` end quietly with exit 0), an
# all-flags run whose output directory must validate as manifests only,
# an `ingest` smoke (capture re-ingest through the standalone detector,
# checking live vs re-ingested verdict-counter parity), a re-derivation
# of the committed t6s/t6sd rows at 1k-10k hosts, and a lines-of-code
# gate: no crate's non-test lines may exceed its row in the committed
# results/loc.txt.
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="-D warnings"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> arpshield-bench links no test code (no dependency on arpshield-testkit)"
bench_deps="$(cargo tree --offline -e normal -p arpshield-bench)"
if grep -q "arpshield-testkit" <<<"$bench_deps"; then
    echo "arpshield-bench has a normal dependency on arpshield-testkit" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --workspace --no-deps --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "==> cargo test perfbench (benchmark build + self-tests)"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> perfbench --workload all --seconds 5 (oracles, peak memory and throughput vs results/perfbench-*.json)"
# Every workload's oracle checks must pass (`failed` is 0), no
# workload's peak_rss_mb may exceed its committed value by more than
# PEAK_RSS_BOUND below, finer than BENCHMARK.json's 10%, and no
# workload's frames_per_quiet_s may fall below its committed value by
# more than BENCHMARK.json's bound (25%). quiet_wall_s and setup_s are
# printed beside their committed values but not gated: in ten
# unchanged runs, fabric-flat-100k's millisecond set-up read 1.33x its
# committed value once.
perf_out="$(mktemp)"
cargo run --release --offline --quiet --locked --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 5 | tee "$perf_out"
python3 - "$perf_out" <<'PY'
import json
import sys

# Ten back-to-back unchanged runs on a shared 2-vCPU host exceeded the
# committed peak memory by at most 1.0%; 32 bytes of padding in the
# timing wheel's node adds 6-10% on both 100k fabrics.
PEAK_RSS_BOUND = 0.05

summary = json.loads(open(sys.argv[1]).read().splitlines()[-1])
spec = json.load(open("BENCHMARK.json"))
failed = summary["failed"] > 0
print(f"perfbench gate: {'FAIL' if failed else 'ok'} {summary['failed']} of "
      f"{summary['attempted']} checks failed")
for workload in (w["name"] for w in spec["workloads"]):
    committed = json.load(open(f"results/perfbench-{workload}.json"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        now = summary["metrics"][f"{workload}/{name}"]["value"]
        was = committed["metrics"][name]["value"]
        line = f"{workload} {name} {now:.6g} against {was:.6g} at {committed['commit']}"
        if name == "peak_rss_mb":
            over = now > was * (1 + PEAK_RSS_BOUND)
            failed |= over
            print(f"perfbench gate: {'FAIL' if over else 'ok'} {line} (bound +{PEAK_RSS_BOUND:.0%})")
        elif name == "frames_per_quiet_s":
            # Ten unchanged runs read 0.92-1.10x of the committed value.
            under = now < was * (1 - metric["bound"])
            failed |= under
            print(f"perfbench gate: {'FAIL' if under else 'ok'} {line} (bound -{metric['bound']:.0%})")
        else:
            print(f"perfbench, not gated: {line}")
sys.exit(1 if failed else 0)
PY
rm -f "$perf_out"

echo "==> reproduce t5r smoke (loss-resilience sweep)"
t5r_out="$(mktemp -d)"
./target/release/reproduce t5r --out "$t5r_out" >/dev/null
test -s "$t5r_out/t5r.csv"
rm -rf "$t5r_out"

# Runs a command whose stdout `head -1` closes after one line: under
# pipefail the pipeline fails unless the command exits 0, and it must
# say nothing on stderr.
closed_pipe() {
    local stderr
    stderr="$(mktemp)"
    "$@" 2>"$stderr" | head -1 >/dev/null
    test ! -s "$stderr"
    rm -f "$stderr"
}

echo "==> reproduce --trace smoke (run manifest emission + validation)"
trace_out="$(mktemp -d)"
./target/release/reproduce --trace t2 --out "$trace_out" >/dev/null
test -s "$trace_out/t2.csv"
test -s "$trace_out/trace/t2.json"
test -s "$trace_out/trace/t2.csv"
test -s "$trace_out/trace/t2.hist.csv"
./target/release/reproduce validate-trace "$trace_out/trace/t2.json"
# The directory form must find and validate the same manifest.
./target/release/reproduce validate-trace "$trace_out/trace"
rm -rf "$trace_out"

echo "==> reproduce --profile smoke (the manifest's wall section + report rendering)"
profile_out="$(mktemp -d)"
./target/release/reproduce --profile t3 --out "$profile_out" >/dev/null
test -s "$profile_out/t3.csv"
test -s "$profile_out/trace/t3.json"
python3 - "$profile_out/trace/t3.json" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
wall = doc["wall"]
if doc["schema"] != "arpshield-trace/1" or not wall["spans"] or wall["wall_ns"] <= 0:
    sys.exit(f"profile: FAIL {sys.argv[1]}: no usable wall section")
print(f"profile: ok {sys.argv[1]}: {len(wall['spans'])} span path(s) in the wall section")
PY
./target/release/reproduce profile-report "$profile_out/trace/t3.json" \
    >"$profile_out/report.txt"
grep -q "^profile: t3 " "$profile_out/report.txt"
# At least one span row with real samples: the simulator's dispatch
# span fires for every delivered frame in every t3 cell.
grep -q "sim.deliver" "$profile_out/report.txt"
closed_pipe ./target/release/reproduce profile-report "$profile_out/trace/t3.json"
# A non-manifest file, and a manifest without a wall section, must be
# rejected with a nonzero exit.
if ./target/release/reproduce profile-report "$profile_out/t3.csv" >/dev/null 2>&1; then
    echo "profile-report accepted a non-manifest file" >&2
    exit 1
fi
./target/release/reproduce --trace t2 --out "$profile_out/plain" >/dev/null
if ./target/release/reproduce profile-report "$profile_out/plain/trace/t2.json" \
    >/dev/null 2>"$profile_out/plain.stderr"; then
    echo "profile-report accepted a manifest without a wall section" >&2
    exit 1
fi
grep -q "no \`wall\` section" "$profile_out/plain.stderr"
rm -rf "$profile_out"

echo "==> reproduce --capture smoke (pcapng beside the manifest + inspect timeline)"
capture_out="$(mktemp -d)"
ARPSHIELD_RECORD_FRAMES=256 ./target/release/reproduce --capture t2 t3 \
    --out "$capture_out" >/dev/null
for id in t2 t3; do
    test -s "$capture_out/trace/$id.pcapng"
    test -s "$capture_out/trace/$id.json"
done
# The capture writes into the manifest's directory and nowhere else,
# and the two manifests are the only JSON files written.
test ! -e "$capture_out/capture"
test ! -e "$capture_out/profile"
test "$(find "$capture_out" -name '*.json' | wc -l)" -eq 2
# The manifest carries the ring capacity and each run's eviction count;
# the frames themselves live only in the pcapng, so no run has a
# `frames` table.
python3 - "$capture_out/trace/t2.json" "$capture_out/trace/t3.json" <<'PY'
import json
import sys

for path in sys.argv[1:]:
    doc = json.load(open(path))
    if doc["schema"] != "arpshield-trace/1" or doc.get("ring_capacity") != 256:
        sys.exit(f"capture manifest: FAIL {path}: schema or ring_capacity")
    if not all("frames_evicted" in run for run in doc["runs"]):
        sys.exit(f"capture manifest: FAIL {path}: a run lacks frames_evicted")
    if any("frames" in run for run in doc["runs"]):
        sys.exit(f"capture manifest: FAIL {path}: a run carries a frame table")
    print(f"capture manifest: ok {path}: {len(doc['runs'])} run(s), no frame table")
PY
./target/release/reproduce inspect "$capture_out/trace/t2.pcapng" >/dev/null
closed_pipe ./target/release/reproduce inspect "$capture_out/trace/t2.pcapng"
# A capture cut mid-block still inspects: its complete packets plus a
# `truncated` warning, and exit 0.
t2_size="$(wc -c <"$capture_out/trace/t2.pcapng")"
head -c "$((t2_size - 2))" "$capture_out/trace/t2.pcapng" >"$capture_out/cut.pcapng"
cp "$capture_out/trace/t2.json" "$capture_out/cut.json"
./target/release/reproduce inspect "$capture_out/cut.pcapng" \
    >"$capture_out/cut.timeline" 2>"$capture_out/cut.stderr"
grep -q "truncated" "$capture_out/cut.stderr"
grep -q "== run: " "$capture_out/cut.timeline"
# t3 runs defended cells: the timeline must surface verdicts with their
# pinned provenance frames.
./target/release/reproduce inspect "$capture_out/trace/t3.pcapng" \
    --verdict binding_changed >"$capture_out/t3.timeline"
grep -q "scheme.verdict" "$capture_out/t3.timeline"
rm -rf "$capture_out"

echo "==> reproduce --trace --capture --profile: every JSON written is a manifest"
all_out="$(mktemp -d)"
./target/release/reproduce --trace --capture --profile t2 --out "$all_out" >/dev/null
./target/release/reproduce validate-trace "$all_out"
rm -rf "$all_out"

echo "==> reproduce t6s --defend smoke (scale sweep, thread/profile byte identity)"
t6s_out="$(mktemp -d)"
# Small host counts so the smoke stays fast; the published sweep runs
# the full 1k-100k grid. `--defend` additionally runs the VLAN fabric
# with in-fabric DAI (id t6sd). All CSVs — undefended and defended —
# must be byte-identical whether the sweep points fan out over one
# worker or four, and whether or not the wall-clock profiler is armed
# (its data is quarantined to the manifests under trace/ and stderr).
ARPSHIELD_T6S_HOSTS=300,900 ARPSHIELD_THREADS=1 \
    ./target/release/reproduce t6s --defend --out "$t6s_out/one" >/dev/null 2>&1
ARPSHIELD_T6S_HOSTS=300,900 ARPSHIELD_THREADS=4 \
    ./target/release/reproduce t6s --defend --out "$t6s_out/four" >/dev/null 2>&1
# The same sweep with the profiler armed, at both thread counts; the
# second run checks ARPSHIELD_QUIET silences the progress lines.
ARPSHIELD_T6S_HOSTS=300,900 ARPSHIELD_THREADS=1 \
    ./target/release/reproduce t6s --defend --profile --out "$t6s_out/one-prof" \
    >/dev/null 2>"$t6s_out/one-prof.stderr"
ARPSHIELD_T6S_HOSTS=300,900 ARPSHIELD_THREADS=4 ARPSHIELD_QUIET=1 \
    ./target/release/reproduce t6s --defend --profile --out "$t6s_out/four-prof" \
    >/dev/null 2>"$t6s_out/four-prof.stderr"
test -s "$t6s_out/one/t6s_0.csv"
test -s "$t6s_out/one/t6s_1.csv"
# Defended series: open/DAI throughput plus denial and work counters.
for i in 0 1 2 3; do
    test -s "$t6s_out/one/t6sd_$i.csv"
done
# DAI must actually deny the smoke's spoofed frames at every size.
awk -F',' 'NR > 1 && $2 + 0 <= 0 { exit 1 }' "$t6s_out/one/t6sd_2.csv"
# Byte identity across worker count and profiler arming; the trace/
# manifests hold the wall-clock data and are excluded from the
# comparison.
diff -r "$t6s_out/one" "$t6s_out/four"
diff -r -x trace "$t6s_out/one" "$t6s_out/one-prof"
diff -r -x trace "$t6s_out/one" "$t6s_out/four-prof"
# Each sweep point ends with a done summary, and quiet mode silences it.
grep -q "arpshield t6s hosts=900: done" "$t6s_out/one-prof.stderr"
test ! -s "$t6s_out/four-prof.stderr"
# Coverage gate: span self times must account for >=90% of each run's
# measured wall time (job-level root spans make sum(self) telescope to
# the work actually executed; with >1 worker it can exceed wall time).
python3 - "$t6s_out/one-prof/trace/t6s.json" \
    "$t6s_out/one-prof/trace/t6sd.json" \
    "$t6s_out/four-prof/trace/t6s.json" \
    "$t6s_out/four-prof/trace/t6sd.json" <<'PY'
import json
import sys

failed = False
for path in sys.argv[1:]:
    doc = json.load(open(path))
    if doc["schema"] != "arpshield-trace/1" or "wall" not in doc:
        print(f"profile coverage: FAIL {path}: no wall section in {doc['schema']!r}")
        failed = True
        continue
    wall = doc["wall"]
    coverage = 100.0 * wall["self_total_ns"] / max(wall["wall_ns"], 1)
    verdict = "ok" if coverage >= 90.0 else "FAIL"
    failed |= coverage < 90.0
    print(f"profile coverage: {verdict} {path}: {coverage:.1f}% of wall accounted")
sys.exit(1 if failed else 0)
PY
rm -rf "$t6s_out"

echo "==> reproduce ingest smoke (capture re-ingest + verdict parity)"
ingest_out="$(mktemp -d)"
# Live t3 with a ring large enough that no frame is evicted: re-ingest
# parity needs the monitor's complete vantage on disk.
ARPSHIELD_RECORD_FRAMES=200000 ./target/release/reproduce t3 --trace --capture \
    --out "$ingest_out" >/dev/null
./target/release/reproduce ingest "$ingest_out/trace/t3.pcapng" \
    --scheme passive --vantage passive-monitor --out "$ingest_out" >/dev/null
test -s "$ingest_out/trace/ingest.json"
test -s "$ingest_out/trace/ingest.csv"
./target/release/reproduce validate-trace "$ingest_out/trace/ingest.json"
# The standalone detector must reproduce the live passive runs' verdict
# counters exactly from the recorded vantage.
live_verdicts="$(awk -F',' '/scheme=passive/ && /scheme\.verdict\./ {sum+=$NF} END {print sum+0}' \
    "$ingest_out/trace/t3.csv")"
ingest_verdicts="$(awk -F',' '/detector=passive/ && /scheme\.verdict\./ {sum+=$NF} END {print sum+0}' \
    "$ingest_out/trace/ingest.csv")"
test "$live_verdicts" -gt 0
test "$live_verdicts" = "$ingest_verdicts"
rm -rf "$ingest_out"

echo "==> reproduce t6s --defend rows (re-derive the committed sweep's first rows)"
t6s_rows="$(mktemp -d)"
# The committed results/t6s*_*.csv come from the full 1k-100k sweep.
# Its first four sizes run in about a second; each of the six series
# must reproduce the committed header and first four rows byte for byte.
ARPSHIELD_T6S_HOSTS=1000,2000,5000,10000 \
    ./target/release/reproduce t6s --defend --out "$t6s_rows" >/dev/null 2>&1
for series in t6s_0 t6s_1 t6sd_0 t6sd_1 t6sd_2 t6sd_3; do
    head -n 5 "results/$series.csv" | cmp - "$t6s_rows/$series.csv"
done
rm -rf "$t6s_rows"

echo "==> scripts/loc.sh (no crate's non-test lines above results/loc.txt)"
# results/loc.txt is the committed table. A change that must grow a
# crate's non-test code updates the table and says why in CHANGES.md.
loc_now="$(scripts/loc.sh)"
echo "$loc_now"
awk '
    NR == FNR { if (FNR > 1) committed[$1] = $3; next }
    FNR == 1 { next }
    !($1 in committed) {
        printf "loc gate: FAIL %s: no row in results/loc.txt\n", $1
        failed = 1
        next
    }
    $3 > committed[$1] {
        printf "loc gate: FAIL %s: %d non-test lines, %d committed\n", $1, $3, committed[$1]
        failed = 1
    }
    END { exit failed }
' results/loc.txt - <<<"$loc_now"

echo "==> ci.sh: all gates passed"
