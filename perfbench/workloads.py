"""The benchmark's three workloads: set-up, timed evolve phase, checks.

Each workload builds its inputs from the workload seed only, runs serially
(the ``serial`` exec backend) and exposes the hierarchy it evolved so the
episode can check it.  ``FULL`` sizes are what ``run.py`` measures;
``TOY`` sizes (one root step, small root grid) are what ``selftest.py``
runs.

Why inputs come from a fixed base realisation: a fresh Zel'dovich
realisation per seed changes the work by up to 2.5x between seeds (6 root
steps of the collapse took 4.3 s to 11.0 s over seeds 1-6 on a 2-core
Xeon host), far outside any usable regression bound.  The collapse-type
workloads therefore evolve the base realisation (the problem's default
seed, 7) under the seed's symmetry of the cube -- an axis permutation
and reflections, 48 in all.  These map root cells onto root cells, so
the refined regions keep their shape and the work stays that of one
realisation, while different seeds get different input arrays.  Periodic
shifts are left out: they move clusters across the box faces, where
clustering splits them, and that alone spread peak memory by 10 %
between seeds.
"""

from __future__ import annotations

import itertools

import numpy as np

#: the realisation every collapse-type input is a symmetry image of
BASE_REALISATION_SEED = 7

COLLAPSE = {
    "n_root": 32, "max_level": 4, "mass_refine_factor": 8.0,
    "amplitude_boost": 4.0, "z_init": 100.0,
    "run_steps": 5, "resume_steps": 1, "checkpoint_every": 5,
}
SUBGRIDS = {
    "n_root": 32, "max_level": 4, "mass_refine_factor": 4.0,
    "amplitude_boost": 4.0, "z_init": 100.0, "root_steps": 1,
}
SEDOV = {"n_root": 64, "root_steps": 8, "perturbation": 0.01}

FULL = {"collapse": COLLAPSE, "subgrids": SUBGRIDS, "sedov": SEDOV}
TOY = {
    "collapse": dict(COLLAPSE, n_root=8, run_steps=1, resume_steps=1,
                     checkpoint_every=1),
    "subgrids": dict(SUBGRIDS, n_root=8, root_steps=1),
    "sedov": dict(SEDOV, n_root=16, root_steps=1),
}

NAMES = tuple(FULL)

#: a redshift no run reaches: the step counts, not the clock, end a run
Z_END = 10.0


def config(name: str, toy: bool = False) -> dict:
    if name not in FULL:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return dict((TOY if toy else FULL)[name])


# ------------------------------------------------------------------ inputs
def box_symmetry(seed: int):
    """The seed's symmetry of the cube: (axis permutation, reflected axes).

    Seeds 0-47 name the 48 symmetries once each (seed 0 is the identity,
    the base realisation itself); the map repeats with period 48.
    """
    index = seed % 48
    perm = np.array(list(itertools.permutations(range(3)))[index // 8])
    flip = np.array([(index >> bit) & 1 for bit in range(3)], dtype=bool)
    return perm, flip


def apply_box_symmetry(problem, seed: int) -> None:
    """Map the problem's root gas and particles through the seed's symmetry.

    New axis ``i`` is old axis ``perm[i]``, reflected about the box centre
    when ``flip[i]``.  Velocity components move with their axes and change
    sign under reflection.  Particle positions are mapped in double-double
    arithmetic, both words, and keep their ids.  The identity (seed 0)
    leaves the problem untouched.
    """
    from repro.amr.boundary import set_boundary_values
    from repro.nbody.particles import ParticleSet
    from repro.precision.position import PositionDD

    h = problem.hierarchy
    perm, flip = box_symmetry(seed)
    if (perm == np.arange(3)).all() and not flip.any():
        return

    def image(a):
        return np.flip(np.transpose(a, perm),
                       axis=tuple(int(i) for i in np.nonzero(flip)[0]))

    root = h.root
    sl = root.interior
    old = {k: v[sl].copy() for k, v in root.fields.array_items()}
    vel = ("vx", "vy", "vz")
    for k, a in old.items():
        if k not in vel:
            root.fields[k][sl] = image(a)
    for i, k in enumerate(vel):
        a = image(old[vel[perm[i]]])
        root.fields[k][sl] = -a if flip[i] else a
    set_boundary_values(h, 0)

    parts = h.particles
    if len(parts):
        hi = parts.positions.hi[:, perm]
        lo = parts.positions.lo[:, perm]
        v = parts.velocities[:, perm]
        hi[:, flip], lo[:, flip], v[:, flip] = \
            -hi[:, flip], -lo[:, flip], -v[:, flip]
        # x -> 1 - x on reflected axes; a particle at exactly 0 reflects
        # to 1, which the periodic wrap maps back to 0
        pos = PositionDD(hi, lo).translate(flip.astype(float)).wrap_periodic()
        h.particles = ParticleSet(pos, v, parts.masses.copy(),
                                  parts.ids.copy())


def density_perturbation(seed: int, shape, amplitude: float) -> np.ndarray:
    """Multiplicative ambient-density perturbation ``1 + amplitude*U(-1/2, 1/2)``."""
    rng = np.random.default_rng(seed)
    return 1.0 + amplitude * (rng.random(shape) - 0.5)


# --------------------------------------------------------------- workloads
class Collapse:
    """``repro run``'s production path: controller run, then a resume leg."""

    def __init__(self, cfg: dict, seed: int, run_dir: str):
        from repro.problems import PrimordialCollapse
        from repro.runtime import CheckpointPolicy

        self.cfg = cfg
        self.run_dir = run_dir
        self.problem = PrimordialCollapse(
            n_root=cfg["n_root"], max_level=cfg["max_level"],
            mass_refine_factor=cfg["mass_refine_factor"],
            amplitude_boost=cfg["amplitude_boost"], z_init=cfg["z_init"],
            seed=BASE_REALISATION_SEED, exec_backend="serial",
        )
        apply_box_symmetry(self.problem, seed)
        self.problem.initial_rebuild()
        self.t_end = self.problem.code_time_of_redshift(Z_END)
        self._policy = lambda: CheckpointPolicy(
            every_steps=cfg["checkpoint_every"], keep_last=2)
        self.controller = self.problem.make_controller(
            run_dir, policy=self._policy())

    @property
    def evolver(self):
        return self.problem.evolver

    def evolve(self) -> None:
        steps = self.cfg["run_steps"]
        self.controller.run(self.t_end, max_root_steps=steps)
        # a fresh controller restarts from the newest checkpoint on disk
        resumed = self.problem.make_controller(self.run_dir,
                                               policy=self._policy())
        resumed.resume(max_root_steps=steps + self.cfg["resume_steps"])


class Subgrids:
    """Many small level-1 subgrids from step one, stepped root step by step."""

    def __init__(self, cfg: dict, seed: int, run_dir: str):
        from repro.problems import PrimordialCollapse

        self.cfg = cfg
        self.problem = PrimordialCollapse(
            n_root=cfg["n_root"], max_level=cfg["max_level"],
            mass_refine_factor=cfg["mass_refine_factor"],
            amplitude_boost=cfg["amplitude_boost"], z_init=cfg["z_init"],
            seed=BASE_REALISATION_SEED, exec_backend="serial",
        )
        apply_box_symmetry(self.problem, seed)
        self.problem.initial_rebuild()
        self.t_end = self.problem.code_time_of_redshift(Z_END)

    @property
    def evolver(self):
        return self.problem.evolver

    def evolve(self) -> None:
        p = self.problem
        for _ in range(self.cfg["root_steps"]):
            # the expansion tracking RunController's pre_step hook does
            p.criteria.a = p.clock.a_of(p.hierarchy.root.time)
            if p.evolver.advance_root_step(self.t_end) is None:
                raise RuntimeError("root clock reached t_end early")


class Sedov:
    """Hydro only: one 64^3 PPM grid with characteristic tracing."""

    def __init__(self, cfg: dict, seed: int, run_dir: str):
        from repro.problems.sedov import SedovBlast

        self.cfg = cfg
        self.problem = SedovBlast(n_root=cfg["n_root"], max_level=0,
                                  solver="ppm", characteristic_tracing=True,
                                  exec_backend="serial")
        sim = self.problem.sim
        root = sim.hierarchy.root
        rho = root.fields["density"]
        rho[root.interior] *= density_perturbation(
            seed, tuple(int(d) for d in root.dims), cfg["perturbation"])
        # re-run initialize() so the ghosts see the perturbed ambient gas
        sim.initialize()

    @property
    def evolver(self):
        return self.problem.sim.evolver

    def evolve(self) -> None:
        ev = self.evolver
        for _ in range(self.cfg["root_steps"]):
            if ev.advance_root_step(self.problem.default_t_end) is None:
                raise RuntimeError("root clock reached t_end early")


WORKLOADS = {"collapse": Collapse, "subgrids": Subgrids, "sedov": Sedov}


# ------------------------------------------------------------------ checks
def gas_mass(hierarchy) -> float:
    root = hierarchy.root
    return float(root.field_view("density").sum()) * root.dx**3


def particle_mass(hierarchy) -> float:
    return float(hierarchy.particles.masses.sum()) if len(hierarchy.particles) else 0.0


def final_checks(name: str, hierarchy, before: dict) -> list[str]:
    """Invariants every seed must satisfy; returns the failed ones.

    Boundaries are filled on every level first, so the state checked (and
    fingerprinted afterwards) is what the physics reads.
    """
    from repro.amr.boundary import set_boundary_values

    for level in range(len(hierarchy.levels)):
        set_boundary_values(hierarchy, level)
    problems = []
    for g in hierarchy.all_grids():
        arrays = [a for _, a in g.fields.array_items()]
        if g.phi is not None:
            arrays.append(g.phi)
        if not all(np.isfinite(a).all() for a in arrays):
            problems.append(f"non-finite state on grid {g.grid_id} "
                            f"(level {g.level})")
            break
    parts = hierarchy.particles
    if len(parts) and not (np.isfinite(parts.positions.hi).all()
                           and np.isfinite(parts.velocities).all()):
        problems.append("non-finite particles")
    if not hierarchy.validate_nesting():
        problems.append("validate_nesting() failed")
    if particle_mass(hierarchy) != before["particle_mass"]:
        problems.append(f"particle mass {particle_mass(hierarchy)!r} != "
                        f"{before['particle_mass']!r}")
    if name == "sedov":
        m0, m1 = before["gas_mass"], gas_mass(hierarchy)
        if abs(m1 - m0) > 1e-12 * abs(m0):
            problems.append(f"sedov gas mass {m1!r} != {m0!r}")
    return problems


def initial_invariants(hierarchy) -> dict:
    return {"particle_mass": particle_mass(hierarchy),
            "gas_mass": gas_mass(hierarchy)}
