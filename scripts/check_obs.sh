#!/usr/bin/env bash
# Smoke-checks the instrumentation layer end to end: runs one small CPU
# figure and one simulated-GPU figure with PASTA_TRACE=spans against a
# throwaway cache, then the CPU figure again with PASTA_TRACE unset, and
# validates everything the obs subsystem promised to emit:
#   - <stem>.trace.json is valid JSON in Chrome trace-event form
#     (traceEvents array of "ph":"X" complete events)
#   - <stem>.spans.jsonl parses line by line
#   - the suite CSV carries the obs columns (variant, obs_flops,
#     obs_bytes, obs_ai, roofline_pct) with nonzero counter totals
#   - the run journal carries obs_flops/obs_bytes per trial
#   - untraced, no span file is written, yet every CSV row and journal
#     entry still has nonzero obs_flops/obs_bytes/obs_ai and a variant
#     (TS, which dispatches no SIMD path, is the one kernel without):
#     kernel counters are always recorded
#
# Pass a sanitizer build dir (see scripts/check_sanitizers.sh) to run
# the same checks under ASan/UBSan; the script only needs the bench
# binaries to exist in ${BUILD_DIR}.
#
# Usage: scripts/check_obs.sh [build-dir]
#   build-dir  defaults to build
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
for target in bench_fig4_cpu_bluesky bench_fig6_gpu_p100; do
    if [[ ! -x "${BUILD_DIR}/bench/${target}" ]]; then
        cmake -B "${BUILD_DIR}" -S .
        cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${target}"
    fi
done

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT

PASTA_TRACE=spans \
PASTA_CACHE="${WORK_DIR}/cache" \
PASTA_CSV_DIR="${WORK_DIR}" \
PASTA_TRACE_DIR="${WORK_DIR}" \
PASTA_SCALE=2e-5 \
PASTA_RUNS=1 \
PASTA_LOG=warn \
    "${BUILD_DIR}/bench/bench_fig4_cpu_bluesky" > /dev/null

PASTA_TRACE=spans \
PASTA_CACHE="${WORK_DIR}/cache" \
PASTA_CSV_DIR="${WORK_DIR}" \
PASTA_TRACE_DIR="${WORK_DIR}" \
PASTA_SCALE=2e-5 \
PASTA_RUNS=1 \
PASTA_LOG=warn \
    "${BUILD_DIR}/bench/bench_fig6_gpu_p100" > /dev/null

UNTRACED_DIR="${WORK_DIR}/untraced"
mkdir -p "${UNTRACED_DIR}"
env -u PASTA_TRACE \
PASTA_CACHE="${UNTRACED_DIR}/cache" \
PASTA_CSV_DIR="${UNTRACED_DIR}" \
PASTA_TRACE_DIR="${UNTRACED_DIR}" \
PASTA_SCALE=2e-5 \
PASTA_RUNS=1 \
PASTA_LOG=warn \
    "${BUILD_DIR}/bench/bench_fig4_cpu_bluesky" > /dev/null

python3 - "${WORK_DIR}" "${UNTRACED_DIR}" <<'EOF'
import csv
import glob
import json
import os
import sys

work, untraced = sys.argv[1], sys.argv[2]
failures = []

traces = glob.glob(os.path.join(work, "*.trace.json"))
if not traces:
    failures.append("no .trace.json written")
for path in traces:
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        failures.append(f"{path}: empty or missing traceEvents")
        continue
    for ev in events:
        if ev.get("ph") not in ("X", "C"):
            failures.append(f"{path}: unexpected phase {ev.get('ph')}")
            break
        if ev["ph"] == "X" and ("name" not in ev or "ts" not in ev
                                or "dur" not in ev):
            failures.append(f"{path}: X event missing name/ts/dur")
            break
    print(f"ok: {os.path.basename(path)} ({len(events)} events)")

jsonls = glob.glob(os.path.join(work, "*.spans.jsonl"))
if not jsonls:
    failures.append("no .spans.jsonl written")
for path in jsonls:
    n = 0
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            if "pastaMeta" in span:
                continue  # writer-identity header, not a span
            if "name" not in span or "dur_us" not in span:
                failures.append(f"{path}: span missing name/dur_us")
                break
            n += 1
    print(f"ok: {os.path.basename(path)} ({n} spans)")

obs_cols = {"variant", "obs_flops", "obs_bytes", "obs_ai",
            "roofline_pct"}
for path in glob.glob(os.path.join(work, "*.csv")):
    if path.endswith("_failures.csv"):
        continue
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = obs_cols - set(reader.fieldnames or [])
        if missing:
            failures.append(f"{path}: missing columns {sorted(missing)}")
            continue
        rows = list(reader)
    live = [r for r in rows if float(r["obs_flops"]) > 0]
    if not live:
        failures.append(f"{path}: no row carries counter-derived flops")
    print(f"ok: {os.path.basename(path)} "
          f"({len(live)}/{len(rows)} rows with counters)")

journals = glob.glob(os.path.join(work, "cache", "*.journal.jsonl"))
if not journals:
    failures.append("no run journal written")
for path in journals:
    with open(path) as f:
        entries = [json.loads(line) for line in f if line.strip()]
    bad = [e for e in entries
           if "obs_flops" not in e or "obs_bytes" not in e]
    if bad:
        failures.append(f"{path}: {len(bad)} entries missing obs fields")
    print(f"ok: {os.path.basename(path)} ({len(entries)} entries)")

# Untraced run: no spans, but every trial still carries its counters.
if glob.glob(os.path.join(untraced, "*.trace.json")) or \
        glob.glob(os.path.join(untraced, "*.spans.jsonl")):
    failures.append("untraced run wrote span output")


def unfilled(rows):
    """Rows missing a counter-derived column (TS has no variant)."""
    return [r for r in rows
            if float(r["obs_flops"]) <= 0 or float(r["obs_bytes"]) <= 0
            or ("obs_ai" in r and float(r["obs_ai"]) <= 0)
            or (not r["variant"] and r["kernel"] != "TS")]


csvs = [p for p in glob.glob(os.path.join(untraced, "*.csv"))
        if not p.endswith("_failures.csv")]
if not csvs:
    failures.append("untraced run wrote no CSV")
for path in csvs:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    bad = unfilled(rows)
    if not rows or bad:
        failures.append(f"{path}: {len(bad)}/{len(rows)} untraced rows "
                        "without variant/obs_flops/obs_bytes/obs_ai")
    print(f"ok: untraced {os.path.basename(path)} ({len(rows)} rows filled)")
journals = glob.glob(os.path.join(untraced, "cache", "*.journal.jsonl"))
if not journals:
    failures.append("untraced run wrote no journal")
for path in journals:
    with open(path) as f:
        entries = [json.loads(line) for line in f if line.strip()]
    bad = unfilled([{k: str(v) for k, v in e.items()} for e in entries])
    if not entries or bad:
        failures.append(f"{path}: {len(bad)}/{len(entries)} untraced "
                        "entries without variant/obs_flops/obs_bytes")
    print(f"ok: untraced {os.path.basename(path)} "
          f"({len(entries)} entries filled)")

if failures:
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    sys.exit(1)
EOF

echo "obs smoke run passed"
