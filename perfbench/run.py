#!/usr/bin/env python3
"""Builds and runs the detector benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload offline_table1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

Builds perfbench/ (which compiles the repository's src/ tree) into
$CARGO_TARGET_DIR/ftbench, default .bench_build/ftbench, then runs the
ftbench binary once per workload. A single-workload run ends its standard
output with ftbench's JSON result line. Results files and spans land in
<build dir>/results. The exit code is non-zero when a build fails or any
correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["offline_table1", "online_mix", "online_sync"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "ftbench"


def build(out):
    """Configures (once) and builds ftbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no detector sources (src/CMakeLists.txt) in %s" % ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ftbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: %s" % " ".join(cmd))
            return None
    return out / "ftbench"


def stamps():
    """The commit (when this is a git checkout) and a digest of the sources."""
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_one(binary, workload, args, results):
    """Runs one workload in its own process.

    Returns (exit code, parsed result line or None, stdout lines).
    """
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(results)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        return 3, None, []
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    commit, digest = stamps()
    os.environ["FTBENCH_COMMIT"] = commit
    os.environ["FTBENCH_SOURCE_DIGEST"] = digest
    results = out / "results"

    if args.workload != "all":
        code, result, lines = run_one(binary, args.workload, args, results)
        for line in lines:
            print(line)
        if result is None:
            log("run.py: %s printed no result line" % args.workload)
            return code or 3
        return code

    summary, failed = {}, False
    for workload in WORKLOADS:
        code, result, lines = run_one(binary, workload, args, results)
        for line in lines[:-1]:
            print("[%s] %s" % (workload, line))
        if result is None:
            log("run.py: %s printed no result line" % workload)
            failed = True
            continue
        failed = failed or code != 0 or not result["correct"]
        summary[workload] = result
        for name, metric in result["metrics"].items():
            print("%-16s %-40s %.6g %s" % (workload, name, metric["value"],
                                          metric["unit"]))
        if "ops_ok_frac" in result["metrics"]:
            print("%-16s %-40s %.6g %s" % (
                workload, "ops_failed_frac",
                1 - result["metrics"]["ops_ok_frac"]["value"], "frac"))
        print("%-16s correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"],
            result["failed"]))
    results.mkdir(parents=True, exist_ok=True)
    (results / "summary.json").write_text(json.dumps(
        {"commit": commit, "source_digest": digest, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace,
         "workloads": summary}, indent=1) + "\n")
    print(json.dumps({"correct": not failed, "workloads": sorted(summary)}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
