#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs a workload.

Run from the root of the source tree:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: serve_read, serve_write, serve_routed, allpairs (see
perfbench/WORKLOADS.md). The build goes to $CARGO_TARGET_DIR, or
.bench_build when unset. Before running, the harness's helper tests run and
its metric catalogue is checked against BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The exit status is non-zero when the
build fails, an answer was wrong, or the harness overran its time limit.

Deterministic counters of a traced run are remembered per workload and
seed under the build directory; a later traced run of the same seed whose
counters differ is flagged on stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve_read", "serve_write", "serve_routed", "allpairs"]
# Counters that must repeat exactly for a given seed and build.
DETERMINISTIC = [
    "core.oip_sr.adds", "core.oip_sr.set_ops",
    "core.oip_dsr.adds", "core.oip_dsr.set_ops",
    "json.row_bytes", "updater.walks_resimulated",
    "updater.steps_resimulated",
]
HARNESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds the harness; returns False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_harness", "perfbench_helpers_test"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def check_catalogue(harness, root):
    """The harness's metric list must equal BENCHMARK.json's."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    listed = subprocess.run([harness, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    emitted = {tuple(line.split()) for line in listed if line.strip()}
    if declared != emitted:
        log("perfbench: BENCHMARK.json and the harness disagree on metrics: "
            f"only declared {sorted(declared - emitted)}, "
            f"only emitted {sorted(emitted - declared)}")
        return False
    return True


def run_harness(harness, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    workdir = os.path.join(build_dir, f"work-{os.getpid()}-{workload}")
    command = [harness, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {HARNESS_TIMEOUT_S}s")
        return 3, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.strip().split("\n")


def flag_counter_drift(build_dir, workload, seed, metrics):
    """Compares this traced run's deterministic counters with the last
    traced run of the same workload and seed."""
    counters = {name: metrics[name]["value"] for name in DETERMINISTIC
                if name in metrics}
    store = os.path.join(build_dir, "counters")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-seed{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        for name, value in counters.items():
            if name in previous and previous[name] != value:
                log(f"perfbench: COUNTER DRIFT {workload} seed {seed} {name}: "
                    f"{previous[name]} -> {value}")
    with open(path, "w") as f:
        json.dump(counters, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(bench_dir, build_dir):
        return 1
    harness = os.path.join(build_dir, "perfbench_harness")
    helpers_test = os.path.join(build_dir, "perfbench_helpers_test")
    if subprocess.run([helpers_test], stdout=sys.stderr).returncode:
        log("perfbench: helper tests failed")
        return 1
    if not check_catalogue(harness, root):
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, lines = run_harness(harness, build_dir, workload, args.seed,
                                  args.seconds, args.trace)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            log(f"perfbench: {workload} printed no result (exit {code})")
            return code or 1
        if args.trace:
            flag_counter_drift(build_dir, workload, args.seed,
                               result["metrics"])
        if len(workloads) == 1:
            print("\n".join(lines), flush=True)
            return code
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        for name, metric in result["metrics"].items():
            print(f"[{workload}] metric {name} {metric['value']} "
                  f"{metric['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        status = status or code
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
