#!/usr/bin/env python3
"""Self-check of the benchmark itself, on the held-out seed.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it makes three tiny runs through
perfbench/run.py: the untraced run, the traced run, and an untraced run
on a single-threaded pool (--threads 1). It asserts that each passes its
output checks, that the untraced run prints exactly BENCHMARK.json's
end-to-end metrics and the traced run exactly its per-layer metrics,
obs.overhead_frac included, each with its unit, and that all three runs
report the same output digest. Last, it copies only
BENCHMARK.json and perfbench/ into a scratch directory and asserts that
run.py refuses to run there: non-zero exit and no result line.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines()


def digest_of(lines):
    for line in lines:
        if line.startswith("# ") and " digest " in line:
            return line.rsplit(" digest ", 1)[1].strip()
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    seed = str(design["seeds"]["held_out"])
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    for w in (w["name"] for w in spec["workloads"]):
        base = ["--workload", w, "--seed", seed, "--seconds", "2", "--tiny"]
        digests = {}
        for label, extra in (("untraced", ["--trace", "0"]),
                             ("traced", ["--trace", "1"]),
                             ("threads=1", ["--trace", "0", "--threads", "1"])):
            code, lines = run(base + extra)
            where = "%s %s" % (w, label)
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append("%s: no result line (exit %d)" % (where, code))
                continue
            if code != 0 or not res["correct"]:
                failures.append("%s: exit %d, correct %s" % (where, code, res["correct"]))
                failures += ["%s: %s" % (where, l) for l in lines if "check failed" in l]
            want = layers if label == "traced" else e2e
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                failures.append("%s: metric names/units differ from BENCHMARK.json: "
                                "missing %s, extra %s" % (
                                    where, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want))))
            if label == "traced" and "obs.overhead_frac" not in res["metrics"]:
                failures.append("%s: obs.overhead_frac not reported" % where)
            digests[label] = digest_of(lines)
        if len(set(digests.values())) != 1 or None in digests.values():
            failures.append("%s: digests differ: %s" % (w, digests))
        print("%s: digests %s" % (w, digests), flush=True)

    # A directory holding only BENCHMARK.json and the benchmark's paths.
    bare = ROOT / ".bench_build" / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(["--workload", spec["workloads"][0]["name"], "--seed",
                       seed, "--seconds", "1", "--trace", "0"], cwd=bare,
                      script=bare / "perfbench" / "run.py")
    if code == 0 or any(l.startswith("{") for l in lines):
        failures.append("bare directory: exit %d with output %s" % (code, lines))
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL " + f)
    print("selfcheck: %s" % ("PASS" if not failures else "FAIL"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
