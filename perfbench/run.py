#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the harness from source on first use (CMake,
into $CARGO_TARGET_DIR or .bench_build), runs the harness self-test,
then the workload in its own process. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Full results and Chrome traces go to .bench_out/.
Exits non-zero, printing no result, when anything fails.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # every run, builds aside, ends within 180 s


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then (re)builds incrementally; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "perfbench", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode == 0


def repeat_marks(out_dir, workload, names):
    """Per-op counts equal in every traced result of this workload."""
    runs = []
    for path in sorted(glob.glob(os.path.join(out_dir,
                                              workload + "-seed*-trace.json"))):
        try:
            with open(path) as f:
                runs.append(json.load(f)["metrics"])
        except (OSError, ValueError, KeyError):
            continue
    if len(runs) < 2:
        return None, len(runs)
    same = [n for n in names
            if all(n in r and r[n]["value"] == runs[0][n]["value"]
                   for r in runs)]
    return same, len(runs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              capture_output=True, text=True)
    log(selftest.stdout.strip())
    if selftest.returncode != 0:
        log("self-test failed")
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", out_dir]
    # A fresh checkout's build may take long; the workload itself keeps
    # to the per-run deadline.
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DEADLINE_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 1
    if run.returncode != 0:
        log("workload exited with %d" % run.returncode)
        return 1
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or in another unit" % m["name"])
            return 1
        metrics[m["name"]] = got
    if args.trace == "0":
        calib = {k: round(v["value"], 3) for k, v in result["metrics"].items()
                 if k.startswith("core.calib.")}
        print("calibration: " + json.dumps(calib))
    else:
        path = os.path.join(out_dir, "%s-seed%d-trace.json"
                            % (args.workload, args.seed))
        with open(path) as f:
            notes = json.load(f)["notes"]
        for key in sorted(k for k in notes if k.startswith("self_ms.")):
            print("self time %-22s %s ms" % (key[len("self_ms."):],
                                            notes[key]))
        counts = [m["name"] for m in wanted
                  if m["unit"] in ("count/op", "B/op")]
        same, n = repeat_marks(out_dir, args.workload, counts)
        if same is not None:
            print("counts repeating exactly over %d traced runs: %s"
                  % (n, ",".join(same) or "none"))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
