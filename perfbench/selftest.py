"""Self-test of the benchmark at toy size (about a minute).

    python3 perfbench/selftest.py

Runs every workload through ``run.py --toy`` (one root step, small root
grid), untraced and traced, and checks that

* the result line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and every run passed its correctness checks;
* every end-to-end (untraced) or per-layer (traced) metric that
  ``BENCHMARK.json`` names appears, with its unit, as a finite number;
* the traced self times add up to ``trace.spans_s``, the summed duration
  of the outermost spans (so time booked twice or lost in the child-time
  subtraction shows), no layer's self time is negative, and the spans lie
  inside the traced wall time (``other.s`` is not negative).

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, spec: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    try:
        res = run(workload, trace)
    except (AssertionError, subprocess.TimeoutExpired) as exc:
        return [f"{where}: {exc}"]
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        errors.append(f"{where}: correctness check failed: {res}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = res.get("metrics", {})
    for m in named:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')!r} "
                          f"!= {m['unit']!r}")
        elif not (isinstance(got.get("value"), (int, float))
                  and math.isfinite(got["value"])):
            errors.append(f"{where}: {m['name']} value {got.get('value')!r}")
    if set(metrics) != {m["name"] for m in named}:
        errors.append(f"{where}: unnamed metrics "
                      f"{sorted(set(metrics) - {m['name'] for m in named})}")
    if trace and not errors:
        value = {k: v["value"] for k, v in metrics.items()}
        negative = [b for b in spans.BUCKETS if value[b] < 0]
        if negative:
            errors.append(f"{where}: negative self time in {negative}")
        total = sum(value[b] for b in spans.BUCKETS)
        top = value["trace.spans_s"]
        if abs(total - top) > 1e-9 * max(top, 1.0):
            errors.append(f"{where}: self times sum to {total!r}, "
                          f"outermost spans last {top!r}")
        if value["other.s"] < -1e-6:
            errors.append(f"{where}: self times exceed the traced wall")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        print(f"selftest: BENCHMARK.json workloads {spec['workloads']}")
        return 1
    errors = []
    for workload in workloads.NAMES:
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload:9s} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
