#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread across seeds.

Runs perfbench/run.sh once per (workload, seed), one run at a time, and
prints for every metric and workload the median, the quartiles (Python's
statistics.quantiles(n=4)), n, and the interquartile range as a share of
the median next to the metric's bound from BENCHMARK.json. Run it from the
repository root:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --workloads hourly-ech --seeds 1-5 --trace 1

--json FILE also writes every collected value; --report FILE prints the
table again from such a file, and --compare A.json B.json checks that the
second set's medians are no worse than the first's by more than each
metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def collect(spec, workloads, seeds, seconds, trace):
    runs = {}
    for wl in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {seed}: incorrect output\n{out.stdout}")
            for name, m in res["metrics"].items():
                runs.setdefault(wl, {}).setdefault(name, []).append(m["value"])
            print(f"# {wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())
                if not k.startswith(("cpu_pct.", "alloc_pct."))), file=sys.stderr)
    return runs


def report(spec, runs):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("| workload | metric | unit | n | median | Q1 | Q3 | IQR/median | bound | IQR < bound/3 |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for wl, metrics in runs.items():
        for name in sorted(metrics, key=lambda n: (n not in bounds, n)):
            vals = metrics[name]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            flag = "" if b is None else ("ok" if spread < b / 3 else "WIDE")
            print(f"| {wl} | {name} | {units.get(name, '')} | {len(vals)} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {spread:.4f} | {'' if b is None else b} | {flag} |")


def compare(spec, a, b):
    print("| workload | metric | median A | median B | B worse than A by | bound | ok |")
    print("|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        for wl in a:
            ma = statistics.median(a[wl][m["name"]])
            mb = statistics.median(b[wl][m["name"]])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = "ok" if worse <= m["bound"] else "WORSE"
            print(f"| {wl} | {m['name']} | {ma:.6g} | {mb:.6g} | {worse:+.4f} | {m['bound']} | {ok} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--json", help="also write the collected values here")
    ap.add_argument("--report", metavar="FILE", help="report from a --json file instead of running")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --json files")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.report:
        with open(args.report) as f:
            report(spec, json.load(f))
        return
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            compare(spec, json.load(fa), json.load(fb))
        return
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = collect(spec, workloads, args.seeds, args.seconds or spec["run_seconds"], args.trace)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    report(spec, runs)


if __name__ == "__main__":
    main()
