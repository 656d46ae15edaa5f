#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs the benchmark once per seed on each named workload, in one or more
sets, and prints per end-to-end metric and set the median, the quartiles
(statistics.quantiles with n=4) and the spread: the inter-quartile distance
as a share of the median. With --sets 2 or more the sets are interleaved —
each seed runs once per set, back to back, alternating which set goes
first — and every later set's median is compared with the first set's
against the metric's bound in BENCHMARK.json. Run it from the repository
root:

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 --json out.json trace-advise repair-migrate

Every run must report correct; a run's failed count is recorded, not
rejected.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "x" in spec:
        seed, _, times = spec.partition("x")
        return [int(seed)] * int(times)
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: {res}")
    return res, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="a range like 1-10, or a repeated seed like 3x5")
    ap.add_argument("--sets", type=int, default=1, help="interleaved sets of runs over the same seeds")
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--json")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bench = {m["name"]: m for m in spec["end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    # runs[set][workload] = list of (result, wall)
    runs = [{w: [] for w in args.workloads} for _ in range(args.sets)]
    for k, s in enumerate(seeds(args.seeds)):
        for w in args.workloads:
            order = list(range(args.sets))
            if k % 2:
                order.reverse()
            for i in order:
                res, wall = run(w, s, args.seconds)
                runs[i][w].append((res, wall))
                print(f"set {i + 1} {w} seed {s}: {wall:.1f} s failed {res['failed']}/{res['attempted']} " +
                      " ".join(f"{m}={v['value']:.6g}" for m, v in sorted(res["metrics"].items())), flush=True)

    report = {"sets": []}
    for i, sets in enumerate(runs):
        out = {}
        for w, rs in sets.items():
            values = {}
            for res, _ in rs:
                for m, v in res["metrics"].items():
                    values.setdefault(m, []).append(v["value"])
            out[w] = {"runs": len(rs), "wall_s": summarize([wall for _, wall in rs]),
                      "failed": [f"{res['failed']}/{res['attempted']}" for res, _ in rs],
                      "metrics": {m: dict(summarize(v), values=v) for m, v in sorted(values.items())}}
            for m, v in out[w]["metrics"].items():
                print(f"  set {i + 1} {w} {m}: median {v['median']:.6g} q1 {v['q1']:.6g} q3 {v['q3']:.6g} "
                      f"spread {100 * v['spread']:.1f}%", flush=True)
        report["sets"].append(out)

    # Each later set against the first: how much worse its median is, as a
    # share of the first set's median, next to the metric's bound.
    first = report["sets"][0]
    report["versus_first"] = []
    for i, later in enumerate(report["sets"][1:], start=2):
        cmp = {}
        for w in args.workloads:
            cmp[w] = {}
            for m, spec in bench.items():
                a, b = first[w]["metrics"][m], later[w]["metrics"][m]
                worse = (b["median"] - a["median"]) / a["median"]
                if spec["better"] == "higher":
                    worse = -worse
                widest = max(a["spread"], b["spread"])
                cmp[w][m] = {"bound": spec["bound"], "widest_spread": widest, "worse_than_first": worse,
                             "within_bound": worse <= spec["bound"] and (m == "setup_s" or widest <= spec["bound"])}
                print(f"  set {i} vs 1 {w} {m}: worse by {100 * worse:+.1f}%, widest spread "
                      f"{100 * widest:.1f}%, bound {100 * spec['bound']:.0f}%"
                      f"{'' if cmp[w][m]['within_bound'] else '  OVER BOUND'}", flush=True)
        report["versus_first"].append(cmp)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
