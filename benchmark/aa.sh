#!/usr/bin/env bash
# A/A check: does the benchmark agree with itself?
#
# Runs two interleaved sets (A, B) of three full runs of the same build on
# every workload and prints, for every workload x end-to-end metric, how
# much worse the worse set's median is than the other's, next to the
# metric's bound from BENCHMARK.json. Exits non-zero when any difference
# exceeds its bound. A metric whose three runs within one set already differ
# by more than the bound is marked UNRESOLVED: the sets may agree, but these
# runs cannot show it. Warns when a run's bench.calib_spread_pct was above
# 5: the host was noisy, run it again.
#
# About 14 minutes. Run from anywhere: benchmark/aa.sh
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/s3perf"

python3 - "$bin" <<'PY'
import json, re, statistics, subprocess, sys

bin_path = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
runs = {(s, w): [] for s in "AB" for w in workloads}
noisy = []
for rep in range(3):
    for s in "AB":
        for w in workloads:
            cmd = [bin_path, "--workload", w, "--seed", str(31 + rep), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w}: run reported correct={result['correct']} failed={result['failed']}")
            runs[(s, w)].append({k: v["value"] for k, v in result["metrics"].items()})
            calib = float(re.search(r"bench\.calib_spread_pct\s+([0-9.]+)", out).group(1))
            if calib > 5:
                noisy.append((s, w, rep, calib))
            print(f"set {s} run {rep + 1} {w}: done", file=sys.stderr)

failed = False
print(f"{'workload':<18} {'metric':<16} {'median A':>12} {'median B':>12} {'worse by':>9} {'bound':>6} {'spread A':>9} {'spread B':>9}")
for w in workloads:
    for m in metrics:
        sets = [[r[m["name"]] for r in runs[(s, w)]] for s in "AB"]
        a, b = (statistics.median(v) for v in sets)
        lo, hi = sorted((a, b))
        # How much worse the worse set is, as a share of the better one.
        diff = (hi - lo) / (lo if m["better"] == "lower" else hi)
        # How far apart the runs of one set are: (max - min) / median.
        spread = [(max(v) - min(v)) / statistics.median(v) for v in sets]
        over = diff > m["bound"]
        failed |= over
        note = "  OVER" if over else "  UNRESOLVED" if max(spread) > m["bound"] else ""
        print(f"{w:<18} {m['name']:<16} {a:>12.4f} {b:>12.4f} {diff:>8.2%} {m['bound']:>6.2f} {spread[0]:>8.2%} {spread[1]:>8.2%}{note}")
for s, w, rep, calib in noisy:
    print(f"WARNING: set {s} run {rep + 1} of {w}: bench.calib_spread_pct {calib:.1f} > 5, the host was noisy")
sys.exit(1 if failed else 0)
PY
