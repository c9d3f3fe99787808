#!/usr/bin/env python3
"""The perf gate over the repository benchmark.

    python3 perfbench/gate.py [--runs N] [--seed S] [--seconds S] [--trace]
                              [--smoke | --rebaseline | --self-test]
                              [--workload W ...]

Runs every workload of BENCHMARK.json --runs times (default 5), each
run in its own process through perfbench/run.py with the same seed,
and prints every metric by name and unit as the median and quartiles
of the runs, beside the workload's simulated-results digest. Every
run checks its own correctness, and run.py fails a run whose digest
differs from an earlier run of the same binary, workload and seed,
traced or not; the digest is never compared with a checked-in value,
so a model change stays possible and a host-only change proves itself
by an unchanged digest. The report goes to
.bench_build/perfbench/report.json (schema indra-perf-kernel-v2).

An untraced, full-size gate compares each end-to-end median with
perfbench/baseline.json, recorded at one seed, and fails when one is
worse than its baseline by more than the metric's bound in
BENCHMARK.json. A metric whose own spread over the runs (quartile
distance over median) exceeds its bound cannot be judged: it is
reported as unresolved and fails the gate too. Host times are in
reference seconds (see perfbench/perf_kernel.cpp), which removes only
part of a shared host's drift: on a 4-vCPU VM the same build read
10-20% faster an hour after its baseline was recorded. After a
deliberate performance change, on another host, or when the host has
drifted, run --rebaseline and commit the baseline with the change
that explains it.

--self-test proves the gate's sensitivity without that drift: it runs
each workload --runs times plainly and --runs times under
INDRA_PERF_SYNTHETIC_SLOWDOWN=0.3 (rates cut by 30%, resident set up
by the matching share), alternating the two, judges the slowed medians
against the plain ones, and passes only if every metric the slowdown
moved fails.

--smoke runs a quarter-size load once per workload, untraced and
traced, and checks the result schema; every traced run checks itself
that step self times plus hook times add up to the step total.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BASELINE = HERE / "baseline.json"
REPORT = BUILD / "report.json"
SLOWDOWN = "INDRA_PERF_SYNTHETIC_SLOWDOWN"


def run_once(workload, seed, seconds, trace, smoke, env=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env=env)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perf gate: {workload} seed {seed} failed its run")
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return result, digest


def check_schema(result, expected):
    names = [m["name"] for m in expected]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, result["failed"]
    assert list(result["metrics"]) == names, list(result["metrics"])
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m


def host_info():
    compiler = "unknown"
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
            out = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                                 text=True)
            compiler = out.stdout.splitlines()[0] if out.stdout else path
    return {"build_type": "Release", "compiler": compiler,
            "cpus": os.cpu_count(), "machine": platform.machine()}


def summarize(results, expected):
    """Median, quartiles and n of every expected metric over @p results."""
    out = {}
    for m in expected:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else values * 3)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "n": len(values), "unit": m["unit"],
                          "better": m["better"], "bound": m.get("bound")}
    return out


def show(workload, digest, runs, seed, metrics):
    print(f"{workload}  digest {digest}  ({runs} run(s), seed {seed})")
    for name, s in metrics.items():
        print(f"  {name:34} {s['median']:14.6g} "
              f"[{s['q1']:.6g}, {s['q3']:.6g}] {s['unit']}")


def judge(metrics, base):
    """{(workload, metric): message} for medians in @p metrics worse
    than @p base by more than their bound, or too spread to judge."""
    failures = {}
    for w, entry in metrics.items():
        for name, s in entry.items():
            ref = base.get(w, {}).get(name)
            if ref is None:
                continue
            spread = (s["q3"] - s["q1"]) / s["median"]
            worse = (ref - s["median"] if s["better"] == "higher"
                     else s["median"] - ref)
            if worse > s["bound"] * ref:
                failures[w, name] = (
                    f"{w}: {name} {s['median']:.6g} {s['unit']} is "
                    f"{worse / ref:.1%} worse than baseline {ref:.6g} "
                    f"(bound {s['bound']:.0%})")
            elif spread > s["bound"]:
                failures[w, name] = (
                    f"{w}: {name} unresolved: spread {spread:.1%} over "
                    f"the runs exceeds its bound {s['bound']:.0%}")
    return failures


def self_test(args, expected, workloads):
    plain = {k: v for k, v in os.environ.items() if k != SLOWDOWN}
    slowed = dict(plain, **{SLOWDOWN: "0.3"})
    base, slow = {}, {}
    for w in workloads:
        runs = {False: [], True: []}
        for i in range(args.runs):
            # Alternate which side runs first, so host drift cancels.
            for is_slow in ((False, True) if i % 2 == 0 else (True, False)):
                result, digest = run_once(w, args.seed, args.seconds, False,
                                          False, slowed if is_slow else plain)
                check_schema(result, expected)
                runs[is_slow].append(result)
        plain_metrics = summarize(runs[False], expected)
        base[w] = {k: v["median"] for k, v in plain_metrics.items()}
        slow[w] = summarize(runs[True], expected)
        show(w, digest, args.runs, args.seed, plain_metrics)
        print(f"  under {SLOWDOWN}=0.3:")
        show(w, digest, args.runs, args.seed, slow[w])
    failures = judge(slow, base)
    moved = [(w, name) for w in workloads for name in slow[w]
             if slow[w][name]["median"] != base[w][name]]
    missed = [pair for pair in moved if pair not in failures]
    for w, name in moved:
        print(f"{'caught' if (w, name) in failures else 'MISSED'}: "
              f"{failures.get((w, name), f'{w}: {name}')}")
    print(f"self-test: {len(moved) - len(missed)} of {len(moved)} moved "
          f"metric(s) failed the gate")
    return not missed


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--rebaseline", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if args.trace and (args.rebaseline or args.self_test):
        ap.error("--rebaseline and --self-test judge untraced runs")

    workloads = args.workload or names
    if args.self_test:
        sys.exit(0 if self_test(args, spec["end_to_end"], workloads) else 1)

    modes = [False, True] if args.smoke else [args.trace]
    runs = 1 if args.smoke else args.runs
    seconds = 0.1 if args.smoke else args.seconds
    report = {"schema": "indra-perf-kernel-v2", "seed": args.seed,
              "runs": runs, "seconds": seconds, "smoke": args.smoke,
              "host": None, "workloads": {}}
    for trace in modes:
        expected = spec["per_layer" if trace else "end_to_end"]
        for w in workloads:
            results = []
            for _ in range(runs):
                result, digest = run_once(w, args.seed, seconds, trace,
                                          args.smoke)
                check_schema(result, expected)
                results.append(result)
            metrics = summarize(results, expected)
            entry = report["workloads"].setdefault(
                w, {"digest": digest, "metrics": {}})
            entry["metrics"].update(metrics)
            show(w, digest, runs, args.seed, metrics)
    report["host"] = host_info()
    REPORT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report: {REPORT.relative_to(ROOT)}")

    failures = {}
    if args.rebaseline:
        base = {"schema": "indra-perf-baseline-v2",
                "note": ("medians of a perfbench/gate.py run; refresh with "
                         "--rebaseline after a deliberate performance "
                         "change or on another host"),
                "seed": args.seed, "runs": runs, "host": report["host"],
                "workloads": {w: {k: v["median"]
                                  for k, v in e["metrics"].items()}
                              for w, e in report["workloads"].items()}}
        BASELINE.write_text(json.dumps(base, indent=2) + "\n")
        print(f"rebaselined {BASELINE.relative_to(ROOT)}")
    elif not args.smoke and not args.trace and BASELINE.is_file():
        base = json.loads(BASELINE.read_text())
        assert base["schema"] == "indra-perf-baseline-v2", base["schema"]
        if base["seed"] != args.seed:
            sys.exit(f"perf gate: the baseline was recorded at seed "
                     f"{base['seed']}, not {args.seed}")
        failures = judge({w: e["metrics"]
                          for w, e in report["workloads"].items()},
                         base["workloads"])
    for f in failures.values():
        print(f"PERF GATE FAILED: {f}")
    if failures:
        sys.exit(1)
    print("perf gate passed")


if __name__ == "__main__":
    main()
