#!/usr/bin/env python3
"""The w4k benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload mobile12_144p --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the w4kbench driver plus the src/ libraries it links) into
.bench_build/ and trains the quality model into .bench_build/ once per
build of w4kbench; later runs reuse both. --trace 0 prints the end-to-end metrics measured with
telemetry off; --trace 1 prints the per-layer metrics of a traced pass (and
of an untraced pass of the same seed, for obs.overhead_frac and the digest
comparison). BENCHMARK.json says why each workload exists; perfbench/
design.json defines the metrics and which layer metric should move which
end-to-end metric.

Exit status: 0 with a result line when the run completed and every output
check passed; 1 with a result line carrying "correct": false when a check
failed; 2 without a result line when the benchmark cannot run at all (for
example when the checkout has no src/ tree to build).
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "w4kbench"
MODEL = BUILD / "w4k_quality_model.cache"
MODEL_TRAIN = BUILD / "model_train.json"
RUN_LIMIT_S = 170.0

# Workload names and metric units come from BENCHMARK.json; every other
# workload setting lives in w4kbench.cpp (workload_spec).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# One frame's sender critical path (ROADMAP's first budget): decide, MCS
# selection and transmission. emu.* spans nest inside session.transmit.
SENDER_SPANS = ("session.beamform", "session.allocate", "session.unitmap",
                "session.mcs", "session.transmit")
FRAME_BUDGET_MS = 1000.0 / 30.0


class Unrunnable(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, logfile, timeout):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        tail = Path(logfile).read_text().splitlines()[-30:]
        raise Unrunnable("command failed: %s\n%s" % (cmd[0], "\n".join(tail)))


def build():
    """Configures (first run only) and incrementally builds w4kbench."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise Unrunnable("no src/ tree under %s to build" % ROOT)
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], logfile, 600)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD), "--target", "w4kbench",
                "-j", jobs], logfile, 850)


def driver(args, timeout):
    """Runs w4kbench and returns (exit code, parsed RESULT object or None)."""
    proc = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.stderr:
        log(proc.stderr.rstrip())
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("RESULT "):
            return proc.returncode, json.loads(line[len("RESULT "):])
    return proc.returncode, None


def warm_model():
    """Trains the quality model into the build directory, so no timed run
    pays for it, and keeps the cold cost as setup.model_train_s. The cache
    belongs to the w4kbench build that trained it: a rebuilt binary (new
    training code, data or features) trains afresh."""
    build_id = hashlib.sha256(BINARY.read_bytes()).hexdigest()
    if MODEL.is_file() and MODEL_TRAIN.is_file():
        record = json.loads(MODEL_TRAIN.read_text())
        if record.get("build") == build_id:
            return record["model_train_s"]
    MODEL.unlink(missing_ok=True)  # train cold, not from an older cache
    code, res = driver(["--mode", "train", "--model", str(MODEL)], 600)
    if code != 0 or res is None:
        raise Unrunnable("quality-model training failed")
    MODEL_TRAIN.write_text(json.dumps({"build": build_id,
                                       "model_train_s": res["model_train_s"]}))
    return res["model_train_s"]


def quantile(values, q):
    """Linear-interpolated quantile, the same rule as w4kbench's."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def ratio(num, den):
    return num / den if den > 0 else 0.0


def check_pass(p, label, problems):
    """Output oracle on one pass as w4kbench reported it."""
    for e in p["errors"]:
        problems.append("%s: %s" % (label, e))
    if p["attempted"] < 1:
        problems.append("%s: nothing attempted" % label)
    for key in ("ssim_mean", "ssim_worst_user"):
        if not (math.isfinite(p[key]) and 0.0 < p[key] <= 1.0):
            problems.append("%s: %s = %r out of (0, 1]" % (label, key, p[key]))
    if p["frame_samples"] < 1 or p["deliver_samples"] < 1:
        problems.append("%s: no timed samples" % label)


def end_to_end(res):
    p = res["plain"]
    return {
        "setup_s": statistics.median(p["setup_s"]),
        "frame_ms_p50": p["frame_ms_p50"],
        "frame_ms_p90": p["frame_ms_p90"],
        "deliver_ms_p50": p["deliver_ms_p50"],
        "deliver_ms_p90": p["deliver_ms_p90"],
        "ssim_mean": p["ssim_mean"],
        "ssim_worst_user": p["ssim_worst_user"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def frame_spans(trace_file, timed_from_us):
    """For each timed frame (a bench.step_into span that starts at or after
    the first timed frame): the summed duration of every span name nested
    in it, and their self time, i.e. duration minus the part the direct
    child spans cover. Times in ms."""
    trace = json.loads(Path(trace_file).read_text())
    by_tid = {}
    for e in trace["traceEvents"]:
        if e.get("ph") == "X":
            by_tid.setdefault(e["tid"], []).append(e)
    frames = []
    for events in by_tid.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack, nodes = [], []
        for e in events:
            # ts and dur are rounded to the ns separately in the trace.
            while stack and stack[-1]["end"] <= e["ts"] + 1e-3:
                stack.pop()
            parent = stack[-1] if stack else None
            frame = parent["frame"] if parent else None
            if e["name"] == "bench.step_into" and e["ts"] >= timed_from_us:
                frame = {"total": {}, "self": {}}
                frames.append(frame)
            node = {"e": e, "end": e["ts"] + e["dur"], "cover": 0.0,
                    "frame": frame}
            if parent:
                parent["cover"] += e["dur"]
            stack.append(node)
            nodes.append(node)
        for n in nodes:
            f, name, dur = n["frame"], n["e"]["name"], n["e"]["dur"]
            if f is not None:
                f["total"][name] = f["total"].get(name, 0.0) + dur / 1e3
                f["self"][name] = f["self"].get(name, 0.0) + (dur - n["cover"]) / 1e3
    return frames


def per_layer(res, trace_file):
    """Per-layer metrics of a traced run. A layer the workload does not
    exercise (serve and fec on the emulator workloads, core, sched, emu,
    quality and pool on serve_room64) reads 0."""
    plain, traced, ctr = res["plain"], res["traced"], res["counters"]
    layer = traced["layer"]
    frames = max(1, traced["timed_frames"])
    users = layer["users"]
    m = {}

    def c(name):
        return ctr.get(name, 0.0)

    def sum_c(suffix):
        return sum(v for k, v in ctr.items()
                   if k.startswith("serve.w") and k.endswith(suffix))

    def pct(prefix, values):
        m[prefix + "_p50"] = quantile(values, 0.5)
        m[prefix + "_p90"] = quantile(values, 0.9)

    if res["workload"] == "serve_room64":
        m["serve.publish_ms_p50"] = traced["frame_ms_p50"]
        m["serve.publish_ms_p90"] = traced["frame_ms_p90"]
        m["serve.fanout_ms_p50"] = layer["fanout_ms_p50"]
        m["serve.fanout_ms_p90"] = layer["fanout_ms_p90"]
        m["serve.drain_ms_per_frame"] = layer["drain_ms_per_frame"]
        m["serve.cpu_ms_per_frame"] = layer["cpu_ms_per_frame"]
        m["serve.gen_late_ms_p99"] = layer["gen_late_ms_p99"]
        m["serve.pool_free_min"] = layer["pool_free_min"]
        sent, errors = sum_c(".packets_sent"), sum_c(".send_errors")
        m["serve.pkts_per_batch"] = ratio(sent, sum_c(".batches"))
        m["serve.send_error_ratio"] = ratio(errors, sent + errors)
        m["serve.ring_stalls"] = c("serve.pub.ring_stalls")
        m["serve.pool_exhausted"] = c("serve.pub.pool_exhausted")
        m["serve.worker_drops"] = c("serve.pub.worker_drops")
        m["fec.decode_ms_per_unit"] = layer["decode_ms_per_unit"]
        m["fec.decode_MBps"] = layer["decode_MBps"]
        base = "deliver_ms_p50"
    else:
        spans = frame_spans(trace_file, traced["timed_from_us"])
        if not spans:
            raise ValueError("trace holds no timed bench.step_into spans")

        def series(name, kind="total"):
            return [f[kind].get(name, 0.0) for f in spans]

        sender = [sum(f["total"].get(n, 0.0) for n in SENDER_SPANS)
                  for f in spans]
        pct("core.frame_self_ms", series("session.frame", "self"))
        pct("core.mcs_ms", series("session.mcs"))
        pct("core.sender_ms", sender)
        m["core.sender_budget_miss_frac"] = ratio(
            sum(1 for s in sender if s > FRAME_BUDGET_MS), len(sender))
        pct("sched.beamform_ms", series("session.beamform"))
        pct("sched.allocate_ms", series("session.allocate"))
        pct("sched.unitmap_ms", series("session.unitmap"))
        pct("emu.transmit_ms", series("session.transmit"))
        pct("quality.eval_ms", series("session.quality"))
        pct("quality.eval_ms_per_user",
            [v / users for v in series("session.quality")])
        hit, miss = c("sched.beam_cache.hit"), c("sched.beam_cache.miss")
        m["sched.beam_cache_hit_ratio"] = ratio(hit, hit + miss)
        warm, cold = c("sched.warm_start.hits"), c("sched.warm_start.fallbacks")
        m["sched.warm_start_hit_ratio"] = ratio(warm, warm + cold)
        m["sched.iterations_per_frame"] = c("sched.iterations") / frames
        m["sched.groups_evaluated_per_frame"] = c("sched.groups_evaluated") / frames
        m["emu.packets_sent_per_frame"] = c("emu.packets_sent") / frames
        m["emu.makeup_ratio"] = ratio(c("emu.makeup_packets"), c("emu.packets_sent"))
        m["emu.queue_drop_ratio"] = ratio(c("emu.packets_dropped_queue"),
                                          c("emu.packets_offered"))
        m["quality.redundancy"] = layer["quality_redundancy"]
        m["pool.parallel_for_per_frame"] = c("pool.parallel_for") / frames
        m["pool.chunks_per_frame"] = c("pool.chunks") / frames
        base = "frame_ms_p50"
        m["setup.contexts_s"] = statistics.median(traced["contexts_s"])
        m["setup.trace_s"] = statistics.median(traced["trace_s"])
        m["setup.model_load_s"] = statistics.median(traced["model_s"])
    m["setup.session_s"] = statistics.median(traced["session_s"])
    m["obs.overhead_frac"] = ratio(traced[base], plain[base]) - 1.0
    unknown = set(m) - set(PER_LAYER)
    if unknown:
        raise ValueError("not in BENCHMARK.json per_layer: %s" % sorted(unknown))
    return {name: m.get(name, 0.0) for name in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and one set-up (perfbench/selfcheck.py)")
    ap.add_argument("--threads", type=int, default=0,
                    help="shared-pool size instead of the workload's own")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        train_s = warm_model()
    except (Unrunnable, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--model", str(MODEL)]
    trace_file = BUILD / ("trace_%s_%d.json" % (args.workload, args.seed))
    if args.trace:
        common += ["--mode", "traced", "--trace-out", str(trace_file)]
    else:
        common += ["--mode", "plain"]
    if args.tiny:
        common.append("--tiny")
    if args.threads:
        common += ["--threads", str(args.threads)]
    try:
        code, res = driver(common, RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        code, res = -1, None  # subprocess.run killed and reaped it

    problems = []
    if res is None:
        problems.append("w4kbench exited %d without a result" % code)
        passes = []
    else:
        if code != 0:
            problems.append("w4kbench exited %d" % code)
        passes = [("plain", res["plain"])]
        if args.trace:
            passes.append(("traced", res["traced"]))
    for label, p in passes:
        check_pass(p, label, problems)

    metrics, units = {}, END_TO_END
    if res is not None and not args.trace:
        metrics = end_to_end(res)
    elif res is not None:
        units = PER_LAYER
        if res["plain"]["digest"] != res["traced"]["digest"]:
            problems.append("digest differs: untraced %s, traced %s" %
                            (res["plain"]["digest"], res["traced"]["digest"]))
        if res["counters"].get("verify.violations", 0) != 0:
            problems.append("verify.violations = %d" % res["counters"]["verify.violations"])
        try:
            metrics = per_layer(res, trace_file)
        except (ValueError, KeyError, OSError) as e:
            problems.append("per-layer analysis failed: %s" % e)
        if not problems:
            (BUILD / ("layers_%s_%d.json" % (args.workload, args.seed))).write_text(
                json.dumps(metrics, indent=1, sort_keys=True))

    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(p["failed"] for _, p in passes)
    if res is not None:
        print("# %s seed %d trace %d: pool_threads %d, nproc %d, gf256 %s, digest %s"
              % (args.workload, args.seed, args.trace, res["pool_threads"],
                 res["nproc"], res["gf256_tier"], res["plain"]["digest"]))
    print("# fail_frac %.6g (%d of %d %s failed)" % (
        ratio(failed, attempted), failed, attempted,
        "(frame, subscriber) pairs" if args.workload == "serve_room64" else "frames"))
    if args.trace:
        print("# setup.model_train_s %.6g s (cold, measured once per build)"
              % train_s)
    for name in units:
        if name in metrics:
            print("%-36s %14.6g %s" % (name, metrics[name], units[name]))
    for p in problems:
        print("# check failed: %s" % p)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed if res is not None else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
