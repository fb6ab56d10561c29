#!/usr/bin/env python3
"""Build and run the GridRM end-to-end benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload local_fresh --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all            # every workload, one table

The first call builds perfbench/ (and the GridRM sources it compiles)
with CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset.
Each workload runs in its own gridbench process, so process-global
counters never leak from one workload into another.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json.
--trace 1 runs an untraced reference for half the time and a traced run
for the other half, and prints the per-layer metrics, including the
tracing overhead (traced against untraced p50 latency and throughput).
After the runs, the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed check exits 1
after printing it; a failed build or run exits 1 and prints nothing.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["local_fresh", "monitor_ingest", "federated_grid"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build gridbench; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "gridbench")
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out, "-j", jobs],
        ]
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                log(r.stdout[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))
    return binary


def run_binary(binary, workload, seed, seconds, trace, trace_out=None):
    """Run one gridbench process; returns (exit code, human lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.stderr:
        log(r.stderr.strip())
    if not lines:
        raise RuntimeError("gridbench printed nothing (exit %d)" % r.returncode)
    return r.returncode, lines[:-1], json.loads(lines[-1])


def pick(result, names, units):
    metrics = {}
    for name in names:
        m = result["metrics"].get(name)
        if m is None:
            raise RuntimeError("gridbench did not report metric " + name)
        metrics[name] = {"value": m["value"], "unit": units[name]}
    return metrics


def checks_ok(code, result):
    return code == 0 and result["correct"] and result["failed"] == 0


def run_one(binary, workload, seed, seconds, trace):
    bench = spec()
    if not trace:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        code, human, result = run_binary(binary, workload, seed, seconds, False)
        print("\n".join(human))
        return checks_ok(code, result), result, pick(result, names, units)

    names = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    half = max(1.0, seconds / 2.0)
    code0, _, ref = run_binary(binary, workload, seed, half, False)
    trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-seed%d.jsonl" % (workload, seed))
    code1, human, result = run_binary(binary, workload, seed, half, True, trace_out)
    print("\n".join(human))
    print("  trace written to " + os.path.relpath(trace_out))
    rm, tm = ref["metrics"], result["metrics"]
    result["metrics"]["trace.overhead_p50_frac"] = {
        "value": tm["op_p50_us"]["value"] / rm["op_p50_us"]["value"] - 1.0, "unit": "fraction"}
    result["metrics"]["trace.overhead_ops_frac"] = {
        "value": rm["ops_per_s"]["value"] / tm["ops_per_s"]["value"] - 1.0, "unit": "fraction"}
    ok = checks_ok(code0, ref) and checks_ok(code1, result)
    return ok, result, pick(result, names, units)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]

    try:
        binary = build()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        all_ok, attempted, failed, metrics = True, 0, 0, {}
        for w in workloads:
            ok, result, picked = run_one(binary, w, args.seed, seconds, args.trace == 1)
            all_ok = all_ok and ok
            attempted += result["attempted"]
            failed += result["failed"]
            if len(workloads) == 1:
                metrics = picked
            else:
                metrics.update({w + "." + k: v for k, v in picked.items()})
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
