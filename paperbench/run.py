#!/usr/bin/env python3
"""Build bench_paper from this checkout's sources and run it once.

    python3 paperbench/run.py --workload ablation --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
`bench_paper` (and the library it links) under .bench_build/paperbench;
later calls rebuild incrementally. The run's working files (behavior-store
directories) live under .bench_build/ and are removed afterwards.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1 (0 for a layer the workload does not
exercise). Exits nonzero, printing no result, when the build fails or the
run produces no usable output (an end-to-end metric missing, or a metric
printed in another unit than BENCHMARK.json lists).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "paperbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build bench_paper; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no library sources next to paperbench/ (is this a checkout?)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "bench_paper", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log: %s)" % log_path)
    return BUILD / "bench_paper"


def parse(stdout):
    """Metric lines `name value unit`, attempted / failed / correct, and the
    host line's key=value pairs."""
    metrics, fields, host = {}, {}, {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == "host":
            host = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
        elif len(parts) == 2 and parts[0] in ("attempted", "failed", "correct"):
            fields[parts[0]] = int(parts[1])
        elif len(parts) == 3:
            try:
                metrics[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
            except ValueError:
                pass
    return metrics, fields, host


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run (with its workload, "
                        "seed and every metric) to this JSON-lines file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    binary = build()
    workdir = ROOT / ".bench_build" / ("run-%d" % os.getpid())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_paper did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        fail("bench_paper exited with %d" % proc.returncode)
    metrics, fields, host = parse(proc.stdout)
    if set(fields) != {"attempted", "failed", "correct"}:
        fail("incomplete output; missing %s" % sorted(fields))
    # BENCHMARK.json is the list of metrics: every end-to-end metric must be
    # printed, a per-layer metric the workload does not exercise reads 0,
    # and a printed metric must carry the unit listed for it.
    selected = {}
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not printed" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s printed in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        selected[m["name"]] = got

    result = {
        "correct": bool(fields["correct"]) and proc.returncode == 0,
        "attempted": fields["attempted"],
        "failed": fields["failed"],
        "metrics": selected,
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "host": host,
                                "result": result, "all_metrics": metrics})
                    + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
