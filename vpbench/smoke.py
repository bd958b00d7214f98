#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage (from the root of a checkout): python3 vpbench/smoke.py

Runs every workload briefly, untraced and traced, through run.py —
the BENCHMARK.json workloads and `fleet`, which the command still runs
though BENCHMARK.json does not list it — and asserts that:
  - the last stdout line is the contract JSON object (correct,
    attempted, failed, metrics) and the run passed (correct, 0 failed);
  - it names exactly the BENCHMARK.json end-to-end metrics (untraced)
    or per-layer metrics (traced), each with its declared unit and a
    finite value;
  - every correctness check of that workload ran at least once and
    passed (the "checks:" tally line);
  - the workload-specific metric names (full_minsts_per_s, ack_p99_us,
    ...) are printed above the JSON;
  - a traced run wrote a span file that parses and holds spans;
  - the constants the program compiles in (layer-sum tolerance, leg
    noise allowance, HTTP rate) equal the values design.json states.
Exits 0 when all pass, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Long enough for the fleet workload's 1000-sample p99 floor at its
# HTTP rate; the traced legs run their minimum repetitions regardless.
SECONDS = "4"
SEED = "1"

FLEET_CHECKS = ["fleet_setup_job", "fleet_prefill", "delta_acked",
                "http_replies", "fleet_snapshot_identical",
                "fleet_persisted_identical", "fleet_daemon_loop"]
LAYER_CHECKS = ["profile_job", "layer_leg_output", "layer_leg_counts",
                "layer_leg_order", "layer_sum", "stats_json", "wire_roundtrip",
                "persist_saved", "http_render", "adapt_output",
                "adapt_bindings", "span_file_written"] + FLEET_CHECKS
CHECKS = {
    ("profile", "0"): ["profile_job"],
    ("fleet", "0"): FLEET_CHECKS + ["p99_samples"],
    ("adapt", "0"): ["adapt_output", "adapt_installed"],
    ("profile", "1"): LAYER_CHECKS,
    ("fleet", "1"): LAYER_CHECKS,
    ("adapt", "1"): LAYER_CHECKS + ["adapt_installed"],
}
WORKLOAD_NAMES = {
    "profile": ["full_minsts_per_s", "sampled_minsts_per_s"],
    "fleet": ["ingest_deltas_per_s", "ack_p50_us", "ack_p99_us",
              "query_p50_us", "query_p99_us", "loadgen.late_us_p99"],
    "adapt": ["adapt_calls_per_s"],
}
COMMON_NAMES = ["setup_s", "failed_frac"]


def design_constants(design, workload, trace):
    """Printed line name -> the value design.json states for it."""
    if trace == "1":
        return {"profile.layer_sum_tolerance": design["layer_sum_tolerance"],
                "profile.leg_noise": design["leg_noise"]}
    if workload == "fleet":
        return {"loadgen.offered_rate":
                design["workloads"]["fleet"]["http_rate_per_s"]}
    return {}


def run_one(bench, design, workload, trace):
    errors = []
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", SEED, "--seconds", SECONDS, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["exit %d, stderr: %s" % (proc.returncode,
                                         proc.stderr[-1000:])]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("JSON keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0 \
            or result.get("attempted", 0) < 1:
        errors.append("run not clean: correct=%s attempted=%s failed=%s"
                      % (result.get("correct"), result.get("attempted"),
                         result.get("failed")))
    want = bench["per_layer" if trace == "1" else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in want):
        errors.append("metric names differ: missing %s, extra %s" % (
            sorted({m["name"] for m in want} - set(metrics)),
            sorted(set(metrics) - {m["name"] for m in want})))
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append("%s unit %r, want %r" % (m["name"],
                                                    got.get("unit"),
                                                    m["unit"]))
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append("%s value %r" % (m["name"], got.get("value")))

    tally = {}
    for line in lines:
        if line.startswith("checks:"):
            for item in line.split()[1:]:
                name, frac = item.split("=")
                passed, total = frac.split("/")
                tally[name] = (int(passed), int(total))
    for name in CHECKS[(workload, trace)]:
        passed, total = tally.get(name, (0, 0))
        if total == 0 or passed != total:
            errors.append("check %s ran %d, passed %d" % (name, total,
                                                         passed))
    for name, (passed, total) in tally.items():
        if passed != total:
            errors.append("check %s failed %d of %d" % (name,
                                                        total - passed,
                                                        total))

    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 2:
            try:
                printed[fields[0]] = float(fields[1])
            except ValueError:
                pass
    names = COMMON_NAMES + (WORKLOAD_NAMES[workload] if trace == "0" else [])
    for name in names:
        if name not in printed and name not in metrics:
            errors.append("%s not printed" % name)
    for name, want in design_constants(design, workload, trace).items():
        if printed.get(name) != want:
            errors.append("%s is %s, design.json states %s"
                          % (name, printed.get(name), want))

    if trace == "1":
        path = os.path.join(ROOT, ".bench_out",
                            "trace-%s-%s.json" % (workload, SEED))
        try:
            with open(path) as f:
                spans = json.load(f)["traceEvents"]
            if not any(e.get("ph") == "X" for e in spans):
                errors.append("span file holds no spans")
        except (OSError, ValueError, KeyError) as e:
            errors.append("span file %s: %s" % (path, e))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    failed = False
    names = [w["name"] for w in bench["workloads"]]
    for w in names + [w for w in ("fleet",) if w not in names]:
        for trace in ("0", "1"):
            errors = run_one(bench, design, w, trace)
            status = "ok" if not errors else "FAIL"
            print("%-8s trace=%s %s" % (w, trace, status))
            for e in errors:
                print("    " + e)
            failed = failed or bool(errors)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
