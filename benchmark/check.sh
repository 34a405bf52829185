#!/usr/bin/env bash
# Tooling check, under a minute: builds s3perf offline, runs its unit tests'
# cheaper cousin (--smoke) on all four workloads with --trace 0 and
# --trace 1, and checks that
#   - every run is correct and its metric names are exactly BENCHMARK.json's
#     end_to_end (trace 0) or per_layer (trace 1) lists, units included;
#   - the corrupted-output self-test reports "correct": false.
# Run from anywhere: benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/s3perf"

python3 - "$bin" <<'PY'
import json, subprocess, sys

bin_path = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))

def run(*args):
    out = subprocess.run([bin_path, *args, "--smoke"], capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])

for w in (x["name"] for x in spec["workloads"]):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        r = run("--workload", w, "--trace", trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        if got != want:
            sys.exit(f"{w} --trace {trace}: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
        if not r["correct"] or r["failed"] or r["attempted"] < 1:
            sys.exit(f"{w} --trace {trace}: {r['failed']} of {r['attempted']} failed, correct={r['correct']}")
        print(f"ok  {w} --trace {trace}: {r['attempted']} jobs, {len(got)} metrics")
    r = run("--workload", w, "--corrupt")
    if r["correct"] or r["failed"] != 1:
        sys.exit(f"{w} --corrupt: one flipped record must fail exactly one job, got correct={r['correct']} failed={r['failed']}")
    print(f"ok  {w} --corrupt: correct=false, 1 of {r['attempted']} failed")
PY
