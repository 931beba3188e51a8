"""Particle container with extended-precision positions."""

from __future__ import annotations

import numpy as np

from repro.precision.position import PositionDD, relative_offset


class ParticleSet:
    """Dark-matter particles: EPA positions, float64 velocities and masses.

    Velocities are proper peculiar velocities in code units (matching the
    gas convention); positions live in the unit box.
    """

    def __init__(self, positions: PositionDD, velocities: np.ndarray,
                 masses: np.ndarray, ids: np.ndarray | None = None):
        n = positions.hi.shape[0]
        velocities = np.asarray(velocities, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if velocities.shape != (n, 3):
            raise ValueError(f"velocities shape {velocities.shape} != ({n}, 3)")
        if masses.shape != (n,):
            raise ValueError(f"masses shape {masses.shape} != ({n},)")
        self.positions = positions
        self.velocities = velocities
        self.masses = masses
        self.ids = np.arange(n) if ids is None else np.asarray(ids)

    @classmethod
    def empty(cls) -> "ParticleSet":
        return cls(
            PositionDD(np.zeros((0, 3))), np.zeros((0, 3)), np.zeros(0), np.zeros(0, int)
        )

    @classmethod
    def from_arrays(cls, positions_f64, velocities, masses) -> "ParticleSet":
        return cls(PositionDD(np.asarray(positions_f64, float)),
                   velocities, masses)

    def __len__(self) -> int:
        return self.positions.hi.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def select(self, mask) -> "ParticleSet":
        """Subset by boolean mask or index array."""
        return ParticleSet(
            PositionDD(self.positions.hi[mask], self.positions.lo[mask]),
            self.velocities[mask],
            self.masses[mask],
            self.ids[mask],
        )

    def concatenated(self, other: "ParticleSet") -> "ParticleSet":
        return ParticleSet(
            PositionDD(
                np.concatenate([self.positions.hi, other.positions.hi]),
                np.concatenate([self.positions.lo, other.positions.lo]),
            ),
            np.concatenate([self.velocities, other.velocities]),
            np.concatenate([self.masses, other.masses]),
            np.concatenate([self.ids, other.ids]),
        )

    def offsets_from(self, origin_hi, origin_lo=None) -> np.ndarray:
        """float64 positions relative to a DD origin (the precision boundary)."""
        origin = PositionDD(
            np.broadcast_to(np.asarray(origin_hi, float), self.positions.hi.shape),
            None
            if origin_lo is None
            else np.broadcast_to(np.asarray(origin_lo, float), self.positions.hi.shape),
        )
        return relative_offset(self.positions, origin)

    def in_region(self, left_edge, right_edge) -> np.ndarray:
        """Boolean mask of particles inside [left, right) (float64 compare —
        adequate for region membership, which is cell-scale).

        This is the definition of region membership; the solvers query
        :meth:`repro.amr.hierarchy.Hierarchy.particles_in_region`, which
        returns the same particles without testing every one."""
        pos = self.positions.hi + self.positions.lo
        left = np.asarray(left_edge, float)
        right = np.asarray(right_edge, float)
        return np.all((pos >= left) & (pos < right), axis=1)

    def wrap_periodic(self) -> None:
        self.positions = self.positions.wrap_periodic(0.0, 1.0)

    def momentum(self) -> np.ndarray:
        return (self.velocities * self.masses[:, None]).sum(axis=0)

    def kinetic_energy(self) -> float:
        return float(0.5 * (self.masses * (self.velocities**2).sum(axis=1)).sum())
