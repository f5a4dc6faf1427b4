#!/usr/bin/env bash
# Diffs fresh BENCH_*.json files (produced by the bench-baseline lane)
# against the committed baselines in bench-baselines/, printing a
# per-bench mean delta. Records whose id ends in `ops_per_sec` carry a
# throughput in `mean_ns` and regress when they fall; every other
# record is a time and regresses when it rises. Warn-only: hardware differs across machines and
# hosted runners, so a regression never fails the lane — the point is a
# visible, comparable perf trajectory from PR to PR.
#
#   scripts/bench_compare.sh                      # all BENCH_*.json in cwd/repo root
#   scripts/bench_compare.sh BENCH_aae.json ...   # specific files
#   BENCH_COMPARE_THRESHOLD=40 scripts/bench_compare.sh   # custom warn %
set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${BENCH_COMPARE_THRESHOLD:-25}"
files=("$@")
if [ ${#files[@]} -eq 0 ]; then
    shopt -s nullglob
    files=(BENCH_*.json)
    shopt -u nullglob
fi
if [ ${#files[@]} -eq 0 ]; then
    echo "[bench-compare] no BENCH_*.json files found — run the bench lane first" >&2
    exit 0
fi
if ! command -v python3 >/dev/null 2>&1; then
    echo "[bench-compare] python3 unavailable, skipping comparison" >&2
    exit 0
fi

python3 - "$threshold" "${files[@]}" <<'PYEOF'
import json
import os
import sys

threshold = float(sys.argv[1])
warned = 0
for fresh_path in sys.argv[2:]:
    base_path = os.path.join("bench-baselines", os.path.basename(fresh_path))
    if not os.path.exists(fresh_path):
        print(f"[bench-compare] {fresh_path}: missing, skipped")
        continue
    if not os.path.exists(base_path):
        print(f"[bench-compare] {fresh_path}: no committed baseline "
              f"({base_path}), skipped")
        continue
    with open(fresh_path) as f:
        fresh = {r["id"]: r["mean_ns"] for r in json.load(f)}
    with open(base_path) as f:
        base = {r["id"]: r["mean_ns"] for r in json.load(f)}
    print(f"[bench-compare] {fresh_path} vs {base_path}")
    for bid in sorted(fresh):
        mean = fresh[bid]
        if bid not in base:
            print(f"  NEW  {bid}: {mean:,.0f} ns")
            continue
        ref = base[bid]
        delta = (mean - ref) / ref * 100.0 if ref else 0.0
        if bid.endswith("ops_per_sec"):
            regressed, unit = delta < -threshold, "ops/s"
        else:
            regressed = delta > threshold
            unit = "us" if bid.endswith("_us") else "ns"
        flag = "WARN" if regressed else "ok  "
        if regressed:
            warned += 1
        print(f"  {flag} {bid}: {ref:,.0f} -> {mean:,.0f} {unit} ({delta:+.1f}%)")
    for bid in sorted(set(base) - set(fresh)):
        print(f"  GONE {bid} (in baseline, not in fresh run)")
if warned:
    print(f"[bench-compare] {warned} bench(es) regressed past "
          f"{threshold:.0f}% (warn-only)")
PYEOF
echo "[bench-compare] done (warn-only; threshold ${threshold}%)"
