#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout. The first run configures and builds
perfbench/perf_kernel.cpp and the simulator sources under src/ into
.bench_build/perfbench (Release); later runs only rebuild what changed.
The benchmark's stdout is passed through; its last line is one JSON
object {correct, attempted, failed, metrics}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones;
--smoke runs a quarter-size load (see perfbench/gate.py --smoke).

Each run's simulated-results digest is recorded per workload and seed
in .bench_build/perfbench/digests.json. A later run of the same binary
whose digest differs is marked incorrect: the simulation must be
deterministic across runs, traced or not. A rebuilt binary starts a
fresh record.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perf_kernel"
DIGESTS = BUILD / "digests.json"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"),
                        "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perf_kernel", "-j", jobs],
                   check=True, stdout=sys.stderr)


def check_digest(key, digest):
    """Record @p digest under @p key for the current binary; False if it
    contradicts an earlier run of the same binary."""
    stamp = BINARY.stat().st_mtime_ns
    record = {"binary": stamp, "digests": {}}
    if DIGESTS.is_file():
        record = json.loads(DIGESTS.read_text())
        if record.get("binary") != stamp:
            record = {"binary": stamp, "digests": {}}
    seen = record["digests"]
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, DIGESTS)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: perf_kernel exited {proc.returncode} "
                 "without a result")
    for line in lines[:-1]:
        print(line)

    digest = next((line.split()[1] for line in lines
                   if line.startswith("digest ")), None)
    key = f"{args.workload}:{args.seed}" + (":smoke" if args.smoke else "")
    if digest is None or not check_digest(key, digest):
        print(f"CHECK FAILED: digest of {key} differs from an earlier run")
        result["correct"] = False

    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
