#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 [--workloads static8_4k,...]

Runs perfbench/run.py --trace 0 once per seed (1..runs, or --first-seed
onwards) on each workload of BENCHMARK.json (or those named) and prints,
per metric, the median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. A spread of a third of the bound or more is marked and
makes the exit status 1. Raw values go to .bench_build/spread.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(gated))
    args = ap.parse_args()

    values = {}
    ok = True
    for w in args.workloads.split(","):
        if w not in gated:
            ap.error("unknown workload %s" % w)
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not res.get("correct"):
                print("%s seed %d: exit %d, correct %s" %
                      (w, seed, proc.returncode, res.get("correct")))
                for line in lines:
                    if "check failed" in line:
                        print("  " + line)
                ok = False
                continue
            if res["failed"]:
                print("%s seed %d: %d of %d failed" %
                      (w, seed, res["failed"], res["attempted"]))
            for m, v in res["metrics"].items():
                values.setdefault(w, {}).setdefault(m, []).append(v["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (m, v["value"]) for m, v in res["metrics"].items())),
                flush=True)
    (ROOT / ".bench_build" / "spread.json").write_text(json.dumps(values, indent=1))

    print("\n%-14s %-16s %12s %8s %6s" % ("workload", "metric", "median",
                                          "spread", "bound"))
    for w, per in values.items():
        for m in spec["end_to_end"]:
            v = per.get(m["name"], [])
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= m["bound"] / 3:
                flag = "  > bound/3"
                ok = False
            print("%-14s %-16s %12.6g %8.4f %6.3f%s" % (
                w, m["name"], med, spread, m["bound"], flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
