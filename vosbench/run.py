#!/usr/bin/env python3
"""vosbench launcher: builds the benchmark, runs one workload, prints one result.

usage: python3 vosbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/vosbench (default .bench_build/vosbench). Each iteration runs
in a fresh process pinned to one CPU, under a host-time watchdog, with its own
input seed derived from --seed; the number of iterations follows from
--seconds. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics for
--trace 0 and the per-layer metrics for --trace 1 (see vosbench/README.md).
A per-run report with every iteration goes to vosbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# Host seconds one iteration takes on a 4-vCPU x86 host, pinned; a run makes
# --seconds / NOMINAL_S iterations, so its length tracks --seconds while the
# iteration count (and with it every virtual-time result) depends on the
# arguments alone.
NOMINAL_S = {"kv_http": 2.5, "kv_lossy": 1.0, "fs_mix": 1.0, "media_mix": 2.0}
# An iteration still running after this many host seconds is killed and
# counted as failed.
WATCHDOG_S = 60
# The per-iteration results each run reports as its end-to-end metrics.
E2E = [
    ("setup_s", "s", "host"),
    ("host_rss_mb", "MB", "host"),
    ("ops_per_s", "1/s", "virt"),
    ("op_p50_us", "us", "virt"),
    ("op_p99_us", "us", "virt"),
]


def load_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def build():
    """Configures and builds vosbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "vos", "system.h")):
        print("vosbench: no vos sources next to the benchmark", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "vosbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            print(r.stderr[-4000:], file=sys.stderr)
            return None
    binary = os.path.join(bdir, "vosbench")
    return binary if os.path.isfile(binary) else None


def pin_to_one_cpu():
    # vos runs one host thread at a time; on one CPU host time measures the
    # simulator rather than cross-CPU wakeups.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def run_iteration(binary, workload, seed, traced, spans=None, scale=None):
    """Runs one iteration in a fresh process; returns its result dict or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if spans:
        cmd += ["--spans", spans]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=WATCHDOG_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        print(f"vosbench: {workload} seed {seed} killed after {WATCHDOG_S} s", file=sys.stderr)
        return None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        print(f"vosbench: {workload} seed {seed} exited {r.returncode}: {r.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def iteration_seed(seed, i):
    return seed * 1000 + i


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    layer_units = load_layer_units()
    binary = build()
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)

    traced = args.trace == 1
    n = max(1, int(args.seconds / NOMINAL_S[args.workload]))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(OUT_DIR, f"{args.workload}.trace.json") if traced else None
    iters = []
    for i in range(n):
        res = run_iteration(binary, args.workload, iteration_seed(args.seed, i), traced,
                            spans if i == 0 else None)
        iters.append(res)
    ok = [r for r in iters if r is not None]

    # A traced run also repeats its first input untraced: spans cost no
    # virtual time, so every virtual-time result must match, and the host
    # time difference is the tracing overhead.
    same_as_untraced = True
    overhead = 0.0
    if traced:
        plain = run_iteration(binary, args.workload, iteration_seed(args.seed, 0), False)
        first = iters[0]
        same_as_untraced = (plain is not None and first is not None
                            and plain["virt"] == first["virt"]
                            and all(first["layers"].get(k) == v
                                    for k, v in plain["layers"].items())
                            and plain["attempted"] == first["attempted"])
        if plain is not None and first is not None and plain["host"]["cpu_s"] > 0:
            overhead = 100 * (first["host"]["cpu_s"] / plain["host"]["cpu_s"] - 1)

    attempted = sum(r["attempted"] for r in ok) + (n - len(ok))
    failed = sum(r["failed"] for r in ok) + (n - len(ok))
    correct = (len(ok) == n and failed == 0 and same_as_untraced
               and all(all(r["checks"].values()) for r in ok))

    def agg(section, name):
        # Host times are noisy: take their median. Virtual-time results are
        # exact for each input: take their mean over the run's inputs.
        vals = [r[section].get(name, 0.0) for r in ok]
        if not vals:
            return 0.0
        return statistics.median(vals) if section == "host" else statistics.fmean(vals)

    metrics = {}
    if not traced:
        for name, unit, section in E2E:
            metrics[name] = {"value": agg(section, name), "unit": unit}
    else:
        derived = {
            "fail_frac": failed / max(attempted, 1),
            "host.trace_overhead_pct": overhead,
        }
        for name, unit in layer_units:
            if name in derived:
                v = derived[name]
            else:
                section = next((s for s in ("virt", "host") if any(name in r[s] for r in ok)),
                               "layers")
                v = agg(section, name)
            metrics[name] = {"value": v, "unit": unit}

    report = {"args": vars(args), "iterations": iters, "same_as_untraced": same_as_untraced,
              "trace_overhead_pct": overhead, "metrics": metrics}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    if ok:
        print(f"vosbench: {len(ok)}/{n} iterations, sim_speed {agg('host', 'sim_speed'):.4g} vs/s "
              f"(median)", file=sys.stderr)
    failing = sorted({k for r in ok for k, v in r["checks"].items() if not v})
    if failing:
        print("vosbench: failed checks: " + ", ".join(failing), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    start = time.monotonic()
    rc = main()
    print(f"vosbench: {time.monotonic() - start:.1f} s", file=sys.stderr)
    sys.exit(rc)
