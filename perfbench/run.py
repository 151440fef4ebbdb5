#!/usr/bin/env python3
"""End-to-end benchmark for sisyphus: one command per workload.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 15 --trace 0

Builds the benchmark and the reference program (table1_ixp_synth_control)
from the checkout's sources into .bench_build/, runs the reference program
once per scale (cached by binary hash), then runs the workload. The last
line of stdout is the benchmark's JSON result; the exit code is 0 only when
every correctness check passed. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
# Campaign scale per workload: tests/day multiplier of table1's vantages.
SCALES = {"stream": 40, "audited": 40, "durable": 5, "refit": 1}
# Pinned parallel lanes. At more lanes the per-step pool regions of the
# campaign loop swing by 2x with other tenants' load on a shared host; the
# traced run reports run_s at 1, 2 and min(4, nproc) lanes.
LANES = 1
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    log = BUILD_ROOT / "perfbench-build.log"
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(BUILD_JOBS),
                  "--target", "perfbench_sisyphus", "table1_ixp_synth_control"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = Path(log).read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")


def reference(scale):
    """Runs table1_ixp_synth_control --streaming at `scale` (its own seed)
    and keeps its stdout and panel.csv, keyed by the binary's hash."""
    exe = BUILD / "table1_ixp_synth_control"
    digest = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    done = BUILD_ROOT / "perfbench-reference" / f"{digest}-scale{scale}"
    if (done / "panel.csv").exists():
        return done
    tmp = done.with_name(done.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    result = subprocess.run(
        [str(exe), "--streaming", "--scale", str(scale), "--threads",
         str(LANES), "--export-dir", str(tmp / "export")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=RUN_TIMEOUT_S)
    if result.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"reference program failed with exit code {result.returncode}")
    (tmp / "stdout.txt").write_text(result.stdout)
    shutil.move(str(tmp / "export" / "panel.csv"), str(tmp / "panel.csv"))
    shutil.rmtree(tmp / "export")
    shutil.rmtree(done, ignore_errors=True)
    tmp.rename(done)
    return done


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    ref = reference(SCALES[args.workload])
    work = BUILD_ROOT / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    trace_out = BUILD_ROOT / "perfbench-trace" / f"{args.workload}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "perfbench_sisyphus"), "--threads", str(LANES),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(SCALES[args.workload]), "--reference", str(ref),
               "--work-dir", str(work), "--trace-out", str(trace_out)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = result.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(result.stdout)
        fail(f"benchmark exited {result.returncode} without a result")
    print("\n".join(lines[:-1]))
    outcome = json.loads(lines[-1])
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(outcome["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(outcome['metrics']) ^ expected)}")
    print(json.dumps(outcome))
    sys.exit(0 if result.returncode == 0 and outcome["correct"] else 1)


if __name__ == "__main__":
    main()
