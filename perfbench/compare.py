#!/usr/bin/env python3
"""Compare perfbench result documents in each metric's own direction.

Usage:
    python3 perfbench/compare.py --base OLD.json [OLD2.json ...] --new NEW.json [NEW2.json ...]

Each file is a document written by `perfbench --out FILE`. Every metric
carries its `better` direction (`higher` or `lower`); a change counts as
worse only in the wrong direction, so a throughput collapse is flagged
and a speed-up is not. With several files per side the
medians are compared. Bounds come from the `end_to_end` list of
BENCHMARK.json (next to this directory, or `--bounds FILE`); a metric
without a bound is reported but never fails the comparison.

Failures are judged as absolute values, not against a relative bound: a
base without failures gives a relative change of nothing. The
comparison fails when the new median share of failed cycles is above
the base's, both as each document's `failed` / `attempted` counts and
as its `fail_frac` metric.

The script refuses (exit 2) to compare documents from different hosts
(nproc, CPU model or kernel) or different workloads or trace modes. It
exits 1 when a bounded metric got worse by more than its bound or the
failure share rose, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu", "kernel")
# Metrics any rise of which fails the comparison, whatever the bounds.
ABSOLUTE = {"fail_frac"}


def load(paths):
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("schema") != "perfbench-result/1":
            sys.exit(f"{path}: not a perfbench result document")
        if not doc.get("correct"):
            sys.exit(f"{path}: run failed its correctness gate; nothing to compare")
        docs.append((path, doc))
    return docs


def identity(doc):
    host = tuple(doc["host"][k] for k in HOST_KEYS)
    workload = (doc["workload"]["name"], doc["workload"]["trace"])
    return host, workload


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--bounds", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args()

    base, new = load(args.base), load(args.new)
    ref_host, ref_workload = identity(base[0][1])
    for path, doc in base + new:
        host, workload = identity(doc)
        if host != ref_host:
            print(f"refusing to compare across hosts: {path} ran on {host}, {base[0][0]} on {ref_host}")
            return 2
        if workload != ref_workload:
            print(f"refusing to compare different workloads: {path} is {workload}, not {ref_workload}")
            return 2
    rustcs = {doc["host"]["rustc"] for _, doc in base + new}
    if len(rustcs) > 1:
        print(f"note: results come from different compilers: {sorted(rustcs)}")

    bounds = {}
    if os.path.exists(args.bounds):
        with open(args.bounds, encoding="utf-8") as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f).get("end_to_end", [])}

    def fail_share(doc):
        return doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0

    old = statistics.median(fail_share(d) for _, d in base)
    cur = statistics.median(fail_share(d) for _, d in new)
    failed = cur > old
    print(f"{'metric':40} {'base':>14} {'new':>14} {'change':>9} {'better':>8}  verdict")
    verdict = "WORSE: failure share rose" if failed else "ok"
    print(f"{'failed/attempted':40} {old:14.6g} {cur:14.6g} {cur - old:+9.2g} {'lower':>8}  {verdict}")
    for name, meta in base[0][1]["metrics"].items():
        old_vals = [d["metrics"][name]["value"] for _, d in base if name in d["metrics"]]
        new_vals = [d["metrics"][name]["value"] for _, d in new if name in d["metrics"]]
        if not new_vals:
            continue
        old, cur = statistics.median(old_vals), statistics.median(new_vals)
        better = meta["better"]
        change = (cur - old) / old if old else (0.0 if cur == old else float("inf"))
        worse_by = -change if better == "higher" else change
        bound = bounds.get(name)
        if worse_by <= 0:
            verdict = "ok" if worse_by == 0 else "better"
        elif name in ABSOLUTE:
            verdict = "WORSE: any rise fails"
            failed = True
        elif bound is not None and worse_by > bound:
            verdict = f"WORSE beyond bound {bound}"
            failed = True
        else:
            verdict = "worse" + (f" (within bound {bound})" if bound is not None else " (no bound)")
        print(f"{name:40} {old:14.6g} {cur:14.6g} {change:+9.2%} {better:>8}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
