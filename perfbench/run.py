"""The repo benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload collapse|subgrids|sedov \
        --seed N --seconds S --trace 0|1

Each episode is a fresh process (``episode.py``) that sets the workload up
from the seed, evolves a fixed amount of simulated work, and checks the
result.  Episodes repeat until ``--seconds`` have passed (at least
``MIN_EPISODES``); every metric is the median over episodes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced episodes and prints the per-layer ledger of the traced
episode with the median wall time, the trace overhead, and the paper's
Sec. 5 profile beside the measured one.  The last stdout line is always
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.

Every episode must pass its checks: finite state, proper nesting, particle
mass (and for sedov gas mass) conserved, the fingerprint equal to the
recorded one at the default seed, identical fingerprints across episodes
(traced or not), and identical exact counts across traced episodes.  A
failed check counts as a failed operation, never as a slow one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXPECTED = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 0
MIN_EPISODES = 3
#: every episode of a run must end within this many seconds of its start
RUN_BUDGET_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "REPRO_KERNELS_CACHE": os.path.join(BUILD, "repro-kernels"),
        # numpy's BLAS/OpenMP pools stay single-threaded: the run is serial
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(args: list, timeout: float) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "episode.py")] + args,
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


# ---------------------------------------------------------------- envelope
def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "missing"


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _source_sha256() -> str:
    """Digest of the program's sources; identifies it without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def envelope(workload: str, seed: int, episodes: list) -> dict:
    """What every result records about the program, host and inputs."""
    first = episodes[0] if episodes else {}
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "cffi": _version("cffi"),
        "kernel_tier": first.get("kernel_tier"),
        "exec_backend": first.get("exec_backend"),
        "workload": workload,
        "config": first.get("config"),
        "seed": seed,
    }


# ---------------------------------------------------------------- episodes
def episodes(workload: str, seed: int, seconds: float, trace: bool,
             toy: bool) -> list:
    """Run episodes until ``seconds`` have passed; returns their results.

    With tracing, episodes alternate traced / untraced, starting traced,
    and at least two are traced so their exact counts can be compared.
    """
    out = []
    t0 = time.monotonic()
    n = 0
    while True:
        traced = trace and n % 2 == 0
        run_dir = os.path.join(BUILD, "perfbench", f"run-{os.getpid()}-{n}")
        args = ["--workload", workload, "--seed", str(seed),
                "--run-dir", run_dir]
        args += ["--trace"] if traced else []
        args += ["--toy"] if toy else []
        try:
            code, result, err = run_child(
                args, max(1.0, t0 + RUN_BUDGET_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            code, result, err = 1, None, "episode timed out"
        if code == 3:
            raise SystemExit(f"run.py: cannot measure: {err.strip()}")
        if result is None:
            result = {"ok": False, "problems": [f"episode exited {code}: "
                                                f"{err.strip()[-2000:]}"]}
        result["traced"] = traced
        out.append(result)
        n += 1
        if n >= MIN_EPISODES and time.monotonic() - t0 >= seconds:
            return out


def cross_checks(workload: str, seed: int, eps: list, toy: bool) -> list:
    """Checks that need several episodes or the recorded fingerprint."""
    problems = []
    prints = {e.get("fingerprint") for e in eps if e.get("ok")}
    if len(prints) > 1:
        problems.append(f"fingerprints differ across episodes "
                        f"(traced and untraced): {sorted(prints)}")
    if not toy and seed == DEFAULT_SEED and prints:
        with open(EXPECTED) as fh:
            expected = json.load(fh)[workload]
        if prints != {expected}:
            problems.append(f"fingerprint {sorted(prints)} != recorded "
                            f"{expected} at seed {DEFAULT_SEED}")
    counts = [spans.exact_counts(e["ledger"]) for e in eps
              if e.get("ok") and "ledger" in e]
    for other in counts[1:]:
        diff = sorted(k for k in counts[0] if counts[0][k] != other.get(k))
        if diff:
            problems.append(f"nondeterministic exact counts: {diff}")
    return problems


def median_episode(eps: list) -> dict:
    ordered = sorted(eps, key=lambda e: e["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> dict:
    eps = episodes(workload, seed, seconds, trace, toy)
    bad = [e for e in eps if not e.get("ok")]
    run_level = cross_checks(workload, seed, eps, toy)
    problems = [p for e in bad for p in e.get("problems", [])] + run_level
    good = [e for e in eps if e.get("ok")] or [e for e in eps if "wall_s" in e]
    plain = [e for e in good if not e["traced"]]
    traced = [e for e in good if e["traced"]]
    if not (traced if trace else plain):
        raise SystemExit("run.py: no episode produced a measurement:\n"
                         + "\n".join(problems))
    report = {
        "envelope": envelope(workload, seed, good),
        "episodes": len(eps),
        "problems": problems,
        "fingerprint": good[0].get("fingerprint"),
    }
    if plain:
        report["end_to_end"] = {
            "wall_s": statistics.median(e["wall_s"] for e in plain),
            "cell_updates_per_s": statistics.median(
                e["cell_updates"] / e["wall_s"] for e in plain),
            "setup_s": statistics.median(e["setup_s"] for e in plain),
            "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in plain),
        }
    if traced:
        rep = median_episode(traced)
        ledger = dict(rep["ledger"])
        # with no good untraced episode the run is already marked failed
        ledger["trace.overhead_frac"] = (
            statistics.median(e["wall_s"] for e in traced)
            / report["end_to_end"]["wall_s"] - 1.0 if plain else 0.0)
        report["ledger"] = ledger
        report["profile"] = rep["profile"]
    # a run-level check failing (fingerprint, determinism) fails every
    # episode it compared; otherwise only the episodes that failed count
    report["attempted"] = len(eps)
    report["failed"] = len(eps) if run_level else len(bad)
    report["correct"] = not problems
    return report


def result_line(report: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names, each with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        named = json.load(fh)["per_layer" if trace else "end_to_end"]
    values = report["ledger" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in named}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes (one root step, small root grid)")
    args = ap.parse_args(argv)

    code, built, err = run_child(["--build"], timeout=900)
    if built is None:
        print(f"run.py: build failed (exit {code}): {err.strip()}",
              file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), toy=args.toy)
    print("envelope " + json.dumps(report["envelope"]))
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        print(spans.render_profile(args.workload, report["profile"]))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
