#!/usr/bin/env python3
"""Builds and runs the BG3 end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload follow --seed 1 --seconds 22 --trace 0

The first run configures and builds perfbench/ (the BG3 libraries from src/
plus perfbench.cc) into .bench_build/. Every run prints each metric by name
with its unit and sample count, saves the full result (metrics, run
metadata, check failures) to .bench_build/results/, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Exits 1 when the build fails, a correctness check
fails, or a listed metric is missing or in another unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bg3_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "bg3_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def source_digest():
    """sha256 over src/ and perfbench/, identifying the measured code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        log("benchmark exited with %d" % proc.returncode)
        return 1
    with open(out) as f:
        result = json.load(f)
    result["config"]["git_commit"] = git_commit()
    result["config"]["source_sha256"] = source_digest()
    with open(out, "w") as f:
        json.dump(result, f, indent=2)

    metrics = result["metrics"]
    for name, m in sorted(metrics.items()):
        print("%s %-44s %14.6g %-9s n=%d" %
              (args.workload, name, m["value"], m["unit"], m["samples"]))
    for failure in result["check_failures"] + result["op_failures"]:
        print("%s FAILED %s" % (args.workload, failure))
    config = result["config"]
    print("%s host contended_frac %s (set-up %s, steal %s)" %
          (args.workload, config["host.contended_frac"],
           config["host.contended_frac_setup"], config["host.steal_frac"]))
    if config["host_contended"] == "true":
        print("%s HOST CONTENDED: other guests or processes took CPU time "
              "during the measured windows; do not compare this run's "
              "timings" % args.workload)
    print("%s result: %s" % (args.workload, out))

    bad = [m["name"] for m in wanted
           if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if bad:
        log("metrics missing or not in BENCHMARK.json's unit: %s" %
            ", ".join(bad))
        return 1
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": metrics[m["name"]]["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
