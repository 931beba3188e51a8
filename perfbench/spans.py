"""Span tracer and per-layer ledger, recorded from outside ``src/``.

The tracer wraps each layer's public functions at the name their caller
looks up (a module global such as ``repro.amr.evolve.set_boundary_values``
or a class attribute such as ``PPMSolver.step``) and restores every one on
``uninstall``.  Each call becomes a span on a stack; when it closes, its
self time (duration minus the time its child spans cover) is booked to
its bucket and to the AMR level whose ``evolve`` span is innermost.  The
durations of the outermost spans are summed separately (``trace.spans_s``)
and ``other.s`` is the traced wall time minus that sum, so the self times
add up to ``trace.spans_s`` only if the child-time bookkeeping is right --
a check ``selftest.py`` makes.

Counts are taken at the same boundaries.  Those listed in ``EXACT_COUNTS``
are exact: they must repeat bit for bit across repeats of one seed.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

#: deepest level reported (the collapse workloads run max_level=4)
MAX_LEVEL = 4

#: additive self-time buckets: they sum to trace.spans_s, the time in spans
BUCKETS = (
    "evolve.s", "hydro.s", "chemistry.s", "gravity.solve_s",
    "gravity.accel_s", "gravity.fft_s", "nbody.s", "boundary.s",
    "topology.s", "rebuild.s", "flux_correction.s", "projection.s",
    "timestep.s", "defense.s", "exec.s", "io.save_s", "io.load_s",
    "runtime.self_s",
)

#: counts later count-based claims may rest on; checked for determinism
EXACT_COUNTS = (
    "nbody.particles_scanned", "hydro.ghost_ratio", "chemistry.cells",
    "gravity.mg_vcycles", "rebuild.grids_reused", "topology.builds",
)

#: paper Sec. 5 usage table (percent of wall time); None = not booked
PAPER_SHARES = {
    "hydro": 36, "gravity": 17, "boundary": 15, "chemistry": 11,
    "rebuild": 9, "nbody": 1, "io": None, "exec": None, "topology": None,
    "flux_correction": None, "projection": None, "other": 11,
}
#: which buckets make up each Sec. 5 category ("other" takes the rest)
CATEGORIES = {
    "hydro": ("hydro.s",),
    "gravity": ("gravity.solve_s", "gravity.accel_s", "gravity.fft_s"),
    "boundary": ("boundary.s",),
    "chemistry": ("chemistry.s",),
    "rebuild": ("rebuild.s",),
    "nbody": ("nbody.s",),
    "io": ("io.save_s", "io.load_s"),
    "exec": ("exec.s",),
    "topology": ("topology.s",),
    "flux_correction": ("flux_correction.s",),
    "projection": ("projection.s",),
}


class Tracer:
    """Stack of open spans plus the aggregated ledger."""

    def __init__(self, nghost: int):
        self.nghost = int(nghost)
        self._stack: list[list] = []  # [bucket, level, t0, child_seconds]
        self._patches: list[tuple] = []
        self.self_s: dict = defaultdict(float)      # bucket -> seconds
        self.level_self: dict = defaultdict(float)  # (level, bucket) -> s
        self.calls: dict = defaultdict(int)         # bucket -> calls
        self.counts: dict = defaultdict(int)        # exact integer counts
        self.sums: dict = defaultdict(float)        # measured non-exact sums
        self.top_s = 0.0                            # outermost span durations

    # ---------------------------------------------------------------- spans
    def _open(self, bucket: str, level) -> None:
        if level is None:
            level = self._stack[-1][1] if self._stack else None
        self._stack.append([bucket, level, perf_counter(), 0.0])

    def _close(self) -> None:
        t1 = perf_counter()
        bucket, level, t0, child = self._stack.pop()
        dur = t1 - t0
        self.self_s[bucket] += dur - child
        self.level_self[(level, bucket)] += dur - child
        self.calls[bucket] += 1
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.top_s += dur

    def wrap(self, owner, attr: str, bucket: str, *, level=None, pre=None,
             post=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``level(args)`` names the AMR level a span opens (evolve spans
        only); ``pre(args)`` runs before the call and its result is handed
        to ``post(args, result, token)``, which books counts.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            tracer._open(bucket, level(args) if level is not None else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if post is not None:
                post(args, out, token)
            return out

        traced.__wrapped__ = fn
        setattr(owner, attr, kind(traced) if kind else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every layer boundary the benchmark records."""
        import repro.amr.evolve as evolve
        import repro.amr.gravity as amr_gravity
        import repro.amr.hierarchy as hierarchy
        import repro.runtime.controller as controller
        from repro.amr.defense import DefenseLadder
        from repro.amr.evolve import HierarchyEvolver
        from repro.amr.gravity import HierarchyGravity
        from repro.chemistry.network import ChemistryNetwork
        from repro.exec.engine import ExecutionEngine
        from repro.gravity.multigrid import MultigridSolver
        from repro.hydro.ppm import PPMSolver
        from repro.nbody.particles import ParticleSet
        from repro.runtime.checkpoint_policy import RunState

        c, s = self.counts, self.sums
        w = self.wrap

        # evolve: one span per level step tree; self time = the glue
        w(HierarchyEvolver, "advance_root_step", "evolve.s",
          level=lambda a: 0)
        w(HierarchyEvolver, "evolve_level", "evolve.s",
          level=lambda a: int(a[1]))
        w(HierarchyEvolver, "compute_timestep", "timestep.s")

        # hydro: interior vs allocated cells, exact
        ng2 = 2 * self.nghost

        def hydro_cells(args, out, token):
            shape = args[1]["density"].shape
            c["hydro.allocated_cells"] += int(shape[0] * shape[1] * shape[2])
            c["hydro.interior_cells"] += int(
                (shape[0] - ng2) * (shape[1] - ng2) * (shape[2] - ng2))
        w(PPMSolver, "step", "hydro.s", post=hydro_cells)

        def chem_stats(args, out, token):
            c["chemistry.cells"] += int(out.get("cells", 0))
            c["chemistry.substeps"] += int(out.get("substeps_total", 0))
        w(ChemistryNetwork, "advance_fields", "chemistry.s", post=chem_stats)

        # gravity
        w(HierarchyGravity, "solve_level", "gravity.solve_s")
        w(HierarchyGravity, "acceleration", "gravity.accel_s")
        w(amr_gravity, "solve_periodic", "gravity.fft_s")

        def mg_cycles(args, out, token):
            c["gravity.mg_solves"] += 1
            c["gravity.mg_vcycles"] += int(args[0].last_cycles)
        w(MultigridSolver, "solve", "gravity.solve_s", post=mg_cycles)

        # N-body
        def scanned(args, out, token):
            c["nbody.in_region_calls"] += 1
            c["nbody.particles_scanned"] += len(args[0])
        w(ParticleSet, "in_region", "nbody.s", post=scanned)
        w(HierarchyGravity, "particle_accelerations", "nbody.s")
        w(HierarchyEvolver, "_advance_particles", "nbody.s")
        w(hierarchy.Hierarchy, "finest_level_of_particles", "nbody.s")

        def deposit_done(args, out, t0):
            s["nbody.deposit_s"] += perf_counter() - t0
        for module in (evolve, amr_gravity):
            w(module, "cic_deposit", "nbody.s",
              pre=lambda a: perf_counter(), post=deposit_done)

        # AMR structure
        w(evolve, "set_boundary_values", "boundary.s")
        w(hierarchy, "build_sibling_map", "topology.s")

        def rebuild_pre(args):
            h = args[0]
            return h.grids_created, h.grids_reused

        def rebuild_post(args, out, token):
            h = args[0]
            c["rebuild.grids_created"] += h.grids_created - token[0]
            c["rebuild.grids_reused"] += h.grids_reused - token[1]
        w(evolve, "rebuild_hierarchy", "rebuild.s", pre=rebuild_pre,
          post=rebuild_post)
        w(evolve, "correct_level", "flux_correction.s")
        w(evolve, "project_level", "projection.s")

        for name in ("begin_root_step", "note_floors", "validate_grid",
                     "rescue_hydro", "rescue_chemistry", "record_event",
                     "drain_events"):
            w(DefenseLadder, name, "defense.s")

        def exec_report(args, report, token):
            c["exec.tasks"] += report.n_tasks
            s["exec.overhead_s"] += report.overhead
        w(ExecutionEngine, "run", "exec.s", post=exec_report)

        # I/O and run control
        def saved(args, out, token):
            c["io.saves"] += 1
            c["io.save_bytes"] += os.path.getsize(args[1])

        def state_saved(args, out, token):
            c["io.save_bytes"] += os.path.getsize(args[1])

        def loaded(args, out, token):
            c["io.load_bytes"] += os.path.getsize(args[0])
        w(controller, "save_hierarchy", "io.save_s", post=saved)
        w(RunState, "save", "io.save_s", post=state_saved)
        w(controller, "write_digest", "io.save_s")
        w(controller, "load_hierarchy", "io.load_s", post=loaded)
        w(controller, "verify_digest", "io.load_s")
        w(controller.RunController, "run", "runtime.self_s")
        w(controller.RunController, "resume", "runtime.self_s")


# ------------------------------------------------------------------ ledger
def ledger(tracer: Tracer, wall: float, levels: dict, kernels: dict) -> dict:
    """Per-layer metrics of one traced episode.

    ``levels`` maps level -> {"steps", "cell_updates"} from the step
    recorder; ``kernels`` is the episode's ``counters_totals`` delta.
    """
    from repro.kernels.dispatch import KERNEL_NAMES

    t, c, s = tracer.self_s, tracer.counts, tracer.sums
    m = {b: t.get(b, 0.0) for b in BUCKETS}
    m["other.s"] = wall - tracer.top_s
    m["trace.spans_s"] = tracer.top_s
    m["trace.wall_s"] = wall
    for lvl in range(MAX_LEVEL + 1):
        busy = sum(v for (l, _), v in tracer.level_self.items() if l == lvl)
        info = levels.get(lvl, {"steps": 0, "cell_updates": 0})
        m[f"level{lvl}.self_s"] = busy
        m[f"level{lvl}.steps"] = info["steps"]
        m[f"level{lvl}.cell_updates"] = info["cell_updates"]
        m[f"level{lvl}.cell_updates_per_s"] = (
            info["cell_updates"] / busy if busy > 0 else 0.0)
    interior = c.get("hydro.interior_cells", 0)
    m["hydro.calls"] = tracer.calls.get("hydro.s", 0)
    m["hydro.ns_per_interior_cell"] = (
        1e9 * m["hydro.s"] / interior if interior else 0.0)
    m["hydro.ghost_ratio"] = (
        c.get("hydro.allocated_cells", 0) / interior if interior else 0.0)
    hydro_kernels = 0.0
    for name in KERNEL_NAMES:
        calls, seconds = kernels.get(name, (0, 0.0))
        m[f"kernels.{name}.calls"] = calls
        m[f"kernels.{name}.s"] = seconds
        if not name.startswith("chem."):
            hydro_kernels += seconds
    m["kernels.share_of_hydro"] = (
        hydro_kernels / m["hydro.s"] if m["hydro.s"] > 0 else 0.0)
    for key in ("chemistry.cells", "chemistry.substeps", "gravity.mg_solves",
                "gravity.mg_vcycles", "nbody.in_region_calls",
                "nbody.particles_scanned", "rebuild.grids_created",
                "rebuild.grids_reused", "exec.tasks", "io.saves",
                "io.save_bytes", "io.load_bytes"):
        m[key] = c.get(key, 0)
    m["nbody.deposit_s"] = s.get("nbody.deposit_s", 0.0)
    m["exec.overhead_s"] = s.get("exec.overhead_s", 0.0)
    m["boundary.calls"] = tracer.calls.get("boundary.s", 0)
    m["topology.builds"] = tracer.calls.get("topology.s", 0)
    m["rebuild.calls"] = tracer.calls.get("rebuild.s", 0)
    made = m["rebuild.grids_created"] + m["rebuild.grids_reused"]
    m["rebuild.reuse_rate"] = m["rebuild.grids_reused"] / made if made else 0.0
    return m


def exact_counts(m: dict) -> dict:
    out = {k: m[k] for k in EXACT_COUNTS}
    out.update({k: v for k, v in m.items()
                if k.startswith("kernels.") and k.endswith(".calls")})
    return out


def profile(tracer: Tracer, m: dict) -> dict:
    """Sec. 5 shares, overall and per level: {row: {category: share}}."""
    def shares(seconds: dict, total: float) -> dict:
        out = {}
        booked = 0.0
        for cat, buckets in CATEGORIES.items():
            v = sum(seconds.get(b, 0.0) for b in buckets)
            out[cat] = v / total if total > 0 else 0.0
            booked += v
        out["other"] = (total - booked) / total if total > 0 else 0.0
        return out

    rows = {"all": shares(m, m["trace.wall_s"])}
    for lvl in range(MAX_LEVEL + 1):
        per = defaultdict(float)
        for (l, bucket), v in tracer.level_self.items():
            if l == lvl:
                per[bucket] += v
        if m[f"level{lvl}.steps"] > 0:
            rows[f"level{lvl}"] = shares(per, m[f"level{lvl}.self_s"])
    return rows


def render_profile(workload: str, rows: dict) -> str:
    cats = list(PAPER_SHARES)
    head = f"{'Sec.5 profile: ' + workload:<24}" + "".join(
        f"{c[:10]:>11}" for c in cats)
    lines = [head, f"{'paper (%)':<24}" + "".join(
        f"{'-' if PAPER_SHARES[c] is None else PAPER_SHARES[c]:>11}"
        for c in cats)]
    for row, sh in rows.items():
        lines.append(f"{row + ' (%)':<24}" + "".join(
            f"{100 * sh[c]:>11.1f}" for c in cats))
    return "\n".join(lines)
