"""Run-to-run steadiness of the end-to-end metrics.

Usage: python3 perfbench/steadiness.py --workload NAME [--seeds 1-10]
                                       [--save FILE] [--against FILE]

Runs ``perfbench/run.py`` once per seed (``run_seconds`` from
BENCHMARK.json, tracing off) and prints, per end-to-end metric, the
median and the quartile spread (q3 - q1) / median of the runs next to
the metric's bound.  A spread at most a third of the bound is "steady".
``--save`` keeps the values; ``--against`` compares these medians with a
saved set: a median worse by more than the bound is a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    results = []
    for seed in args.seeds:
        res = run(args.workload, seed, bench["run_seconds"])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in res["metrics"].items()), flush=True)
    values = {m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
              for m in bench["end_to_end"]}
    failed_share = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: all correct={all(r['correct'] for r in results)}"
          f", failed shares {failed_share}")

    previous = None
    if args.against:
        with open(args.against) as fh:
            previous = json.load(fh)
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = ("steady" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "TOO WIDE")
        line = (f"  {name:12s} median {med:.6g}  spread {spread:7.2%}  "
                f"bound {bound:.0%}  {verdict}")
        if previous is not None:
            old = statistics.median(previous[name])
            worse = (med - old) / old
            if metric["better"] == "higher":
                worse = -worse
            line += (f"  vs saved median {old:.6g}: {worse:+.2%} "
                     f"({'REGRESSION' if worse > bound else 'ok'})")
        print(line)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(values, fh, indent=1)


if __name__ == "__main__":
    main()
