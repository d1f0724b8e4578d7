#!/usr/bin/env python3
"""Synthesis ledger: the amsyn benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the amsyn libraries and the ledger binary from this checkout's
sources (CMake, into .bench_build/perfbench), runs one workload through the
public API for the given time, checks what the calls return, and prints the
ledger followed by one JSON line {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics, from a separate traced repetition of the
same calls.  Exits non-zero when an output check fails, and without a
result when the sources are missing or the build fails.

Workloads (all closed loop, one client issuing calls back to back):
  flow_legacy      synthesizeAmplifier near the quickstart spec, legacy
                   topology space, pool width 1
  robust_corners   robustSynthesize on the two-stage corner model, width 1
  corner_hunt_sim  worstCaseCorner hunt + audit on a simulation model,
                   width 4
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import ledger_stats  # noqa: E402

WORKLOADS = ("flow_legacy", "robust_corners", "corner_hunt_sim")
SETUP_PROBES = 40  # extra fresh processes timed for setup_s
RUN_DEADLINE_S = 170  # a run must end within 180 s once the binary is built
# End-to-end figures the ledger prints but BENCHMARK.json does not gate:
# across seeds they spread wider than any bound (perfbench/README.md).
LEDGER_ONLY_UNITS = {"designs_per_s": "1/s", "call_s_p90": "s", "peak_rss_mb": "MB",
                     "designs_failed_frac": "ratio", "area_lambda2_geomean": "lambda^2"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("amsyn sources (src/) not found next to perfbench/; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed; see {log_path}")
    return os.path.join(BUILD_DIR, "ledger")


def pinned_env():
    """This process's environment without AMSYN_* knobs, and the knobs found.
    The ledger pins every knob itself; stripping them guarantees no code
    path that still consults the environment can move the numbers."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMSYN_")}
    found = {k: v for k, v in sorted(os.environ.items()) if k.startswith("AMSYN_")}
    return env, found


def run_ledger(binary, args, env, deadline):
    kind = "setup" if "--setup-only" in args else "run"
    out = os.path.join(BUILD_DIR, "raw", f"{args[1]}-{kind}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the run finished")
    try:
        proc = subprocess.run([binary, *args, "--out", out], env=env, timeout=remaining,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("ledger binary exceeded the run deadline")
    if proc.returncode != 0:
        fail(f"ledger binary failed ({proc.returncode}): {proc.stderr.strip()}")
    with open(out) as f:
        return json.load(f)


def fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_counters(raw, traced):
    exact = ledger_stats.exact_counters(raw["pass_counters"],
                                        raw.get("call_counters") if traced else None)
    first = raw["call_counters"] if traced else raw["pass_counters"][0]
    print("work counters of input set 0 (exact = the same in each of its "
          f"{3 if traced else 2} repetitions):")
    for name in sorted(first):
        if first[name]:
            print(f"  {name:<40} {first[name]:>14}  {'exact' if exact[name] else 'not exact'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    env, amsyn_env = pinned_env()

    setups = [run_ledger(binary, ["--workload", args.workload, "--setup-only"], env,
                         deadline)["setup"]["total_s"] for _ in range(SETUP_PROBES)]
    raw = run_ledger(binary, ["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, deadline)
    setups.append(raw["setup"]["total_s"])

    checks = list(raw["checks"])
    mode = "traced" if args.trace else "untraced"
    print(f"== synthesis ledger: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {mode} ==")
    print("pinned knobs:", ", ".join(f"{k}={v}" for k, v in raw["knobs"].items()))
    print("AMSYN_* environment (removed before the run):",
          ", ".join(f"{k}={v}" for k, v in amsyn_env.items()) or "none")
    print(f"repetitions: {raw['passes']} over a pool of {raw['input_sets']} input sets; "
          f"designs attempted {raw['designs_attempted']}, failed {raw['designs_failed']} "
          f"(each design counted once; {raw['designs_run']} runs of them in all)")
    for reason, count in raw["failure_reasons"].items():
        print(f"  failed x{count}: {reason}")
    if "robust.margins_audited" in raw["values"]:
        print("robust designs' worst-corner margins below 0 (accepted down to -1e-3): "
              f"{raw['values'].get('robust.margins_below_zero', 0):g} of "
              f"{raw['values']['robust.margins_audited']:g}")

    if args.trace:
        values = ledger_stats.per_layer(raw)
        declared = bench["per_layer"]
        error = ledger_stats.residual_identity_error(raw["spans"])
        checks.append({"name": "stage_spans_plus_residual_equal_call_time",
                       "ok": error < 1e-6, "detail": f"off by {error:.3g} s"})
        print("per-layer metrics (null = ratio with a zero denominator):")
        for name, value in values.items():
            print(f"  {name:<45} {fmt(value)}")
        v = raw["values"]
        print("corner ratios (sec. 2.2): time "
              f"{fmt(values['manufacture.corner_to_nominal_time_ratio'])} = "
              f"{fmt(v.get('manufacture.corner_search_s', 0.0))} s / "
              f"{fmt(v.get('manufacture.nominal_s', 0.0))} s; evaluations "
              f"{fmt(values['manufacture.corner_to_nominal_eval_ratio'])} = "
              f"{fmt(v.get('manufacture.robust_evals', 0.0))} / "
              f"{fmt(v.get('manufacture.nominal_evals', 0.0))}")
    else:
        values = ledger_stats.end_to_end(raw, setups)
        declared = bench["end_to_end"]
        n = values["_samples"]
        units = {m["name"]: m["unit"] for m in declared}
        units.update(LEDGER_ONLY_UNITS)
        print("end-to-end metrics (* = declared in BENCHMARK.json):")
        for name, unit in units.items():
            mark = "*" if any(m["name"] == name for m in declared) else " "
            print(f" {mark} {name:<22} {fmt(values[name]):>12} {unit}")
        print(f"  samples: {n['calls']} calls ({n['beyond_p90']} beyond p90), "
              f"{n['setup']} set-ups, {n['designs']} returned designs; "
              f"failed {raw['designs_failed']} of {raw['designs_attempted']}")
    print_counters(raw, args.trace)

    metrics = {}
    for m in declared:
        value = values[m["name"]]
        if value is None:
            checks.append({"name": f"metric_{m['name']}_defined", "ok": False,
                           "detail": "no value"})
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(checks) and all(c["ok"] for c in checks)
    print("checks:")
    for c in checks:
        print(f"  {'ok  ' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}")
    print(json.dumps({"correct": correct, "attempted": raw["designs_attempted"],
                      "failed": raw["designs_failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
