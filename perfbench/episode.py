"""One benchmark episode in a fresh process: set up, evolve, check.

Run by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/episode.py --workload sedov --seed 0 --run-dir DIR \
        [--trace] [--toy]
    python3 perfbench/episode.py --build     # compile and load the cffi tier

Exit code 0 means the episode ran; its checks may still have failed, which
the JSON reports.  Exit code 3 means the program could not be measured at
all (no source tree, or the cffi kernel tier did not load).
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: the tier behind every committed kernel number
KERNEL_TIER = "cffi"
EXEC_BACKEND = "serial"


class SetupError(RuntimeError):
    """The program cannot be measured as specified."""


def pin_kernels() -> str:
    try:
        from repro.kernels import dispatch
    except ImportError as exc:
        raise SetupError(f"cannot import the program: {exc}") from exc
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            tier = dispatch.set_backend(KERNEL_TIER)
        except RuntimeWarning as exc:
            raise SetupError(f"kernel tier {KERNEL_TIER!r} fell back: {exc}") from exc
    if tier != KERNEL_TIER or dispatch.active_backend() != KERNEL_TIER:
        raise SetupError(f"kernel tier resolved to {tier!r}, not {KERNEL_TIER!r}")
    return tier


class StepCounter:
    """The evolver's ``stats`` recorder, counting level steps and cells.

    Delegates to the problem's own recorder, so the program does the same
    work as in any run.  Called after each level step with that level's
    grids unchanged, so their interior cells are the cells just stepped.
    """

    def __init__(self, inner):
        self.inner = inner
        self.levels: dict = {}

    def record_step(self, hierarchy, level, dt, time):
        info = self.levels.setdefault(int(level),
                                      {"steps": 0, "cell_updates": 0})
        info["steps"] += 1
        info["cell_updates"] += sum(g.n_cells
                                    for g in hierarchy.level_grids(level))
        if hasattr(self.inner, "record_step"):
            self.inner.record_step(hierarchy, level, dt, time)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def episode(args) -> dict:
    tier = pin_kernels()
    import spans
    import workloads
    from repro.kernels import dispatch

    cfg = workloads.config(args.workload, toy=args.toy)
    os.makedirs(args.run_dir, exist_ok=True)
    work = workloads.WORKLOADS[args.workload](cfg, args.seed, args.run_dir)
    counter = StepCounter(work.evolver.stats)
    work.evolver.stats = counter
    backend = work.evolver.engine.config.backend
    if backend != EXEC_BACKEND:
        raise SetupError(f"exec backend is {backend!r}, not {EXEC_BACKEND!r}")
    if dispatch.active_backend() != tier:
        raise SetupError(f"kernel tier changed to {dispatch.active_backend()!r}")
    before = workloads.initial_invariants(work.evolver.hierarchy)
    setup_s = perf_counter() - T_START

    tracer = None
    if args.trace:
        tracer = spans.Tracer(work.evolver.hierarchy.nghost)
        tracer.install()
    kernels0 = dispatch.counters_totals()
    error = None
    t0 = perf_counter()
    try:
        work.evolve()
    except Exception:  # a crashed evolve is a failed operation
        error = traceback.format_exc(limit=8)
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    hierarchy = work.evolver.hierarchy
    problems = [f"evolve raised:\n{error}"] if error else []
    if not error:
        problems += workloads.final_checks(args.workload, hierarchy, before)
    cell_updates = sum(v["cell_updates"] for v in counter.levels.values())
    out = {
        "ok": not problems,
        "problems": problems,
        "fingerprint": None if error else hierarchy.fingerprint(),
        "setup_s": setup_s,
        "wall_s": wall,
        "cell_updates": cell_updates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_tier": tier,
        "exec_backend": backend,
        "config": cfg,
    }
    if tracer is not None:
        kernels = {}
        for name, (calls, seconds) in dispatch.counters_totals().items():
            c0, s0 = kernels0.get(name, (0, 0.0))
            kernels[name] = (calls - c0, seconds - s0)
        m = spans.ledger(tracer, wall, counter.levels, kernels)
        out["ledger"] = m
        out["profile"] = spans.profile(tracer, m)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--run-dir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--build", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.build:
            print(json.dumps({"kernel_tier": pin_kernels()}))
            return 0
        result = episode(args)
    except SetupError as exc:
        print(f"episode: {exc}", file=sys.stderr)
        return 3
    finally:
        if args.run_dir and not args.build:
            shutil.rmtree(args.run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
