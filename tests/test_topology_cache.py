"""Topology-cache behaviour: epoch invalidation, link correctness, and the
cached consumers producing the same answers as direct scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import Grid, Hierarchy, build_sibling_map
from repro.amr.boundary import copy_from_siblings, set_boundary_values
from repro.nbody.particles import ParticleSet
from repro.perf import ComponentTimers
from repro.precision.position import PositionDD


def _grid(level, start, dims, n_root=8):
    return Grid(level, start, dims, n_root=n_root)


class TestSiblingMap:
    def test_links_match_direct_scan(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        b = _grid(1, (4, 0, 0), (4, 4, 4))
        c = _grid(1, (12, 12, 12), (4, 4, 4))
        for g in (a, b, c):
            h.add_grid(g, h.root)
        smap = h.sibling_map(1)
        assert [l.sibling for l in smap[a.grid_id]] == [b]
        assert [l.sibling for l in smap[b.grid_id]] == [a]
        assert smap[c.grid_id] == []

    def test_ghost_slices_equal_legacy_copy(self):
        """copy via precomputed links == the per-call slice arithmetic."""
        h = Hierarchy(n_root=8)
        a = _grid(1, (2, 2, 2), (4, 4, 4))
        b = _grid(1, (6, 2, 2), (6, 4, 4))
        h.add_grid(a, h.root)
        h.add_grid(b, h.root)
        rng = np.random.default_rng(1)
        for g in (a, b):
            for name, arr in g.fields.array_items():
                arr[...] = rng.random(arr.shape)
            g.phi[...] = rng.random(g.phi.shape)

        before = {k: v.copy() for k, v in a.fields.array_items()}
        copy_from_siblings(a, [b])
        legacy_result = {k: v.copy() for k, v in a.fields.array_items()}

        # reset and do it through the cached links
        for name in before:
            a.fields[name][...] = before[name]
        smap = h.sibling_map(1)
        from repro.amr.boundary import copy_from_sibling_links

        copy_from_sibling_links(a, smap[a.grid_id])
        for name in before:
            np.testing.assert_array_equal(a.fields[name], legacy_result[name])

    def test_rim_slices_only_when_rim_touches(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        b = _grid(1, (4, 0, 0), (4, 4, 4))   # face neighbour: rim overlap
        c = _grid(1, (6, 4, 4), (4, 4, 4))   # within ghosts (3) but not rim
        for g in (a, b, c):
            h.add_grid(g, h.root)
        smap = h.sibling_map(1)
        by_sib = {l.sibling: l for l in smap[a.grid_id]}
        assert by_sib[b].rim_dst is not None
        assert by_sib[c].rim_dst is None

    def test_build_matches_bruteforce_random(self):
        rng = np.random.default_rng(3)
        h = Hierarchy(n_root=16)
        grids = []
        for _ in range(30):
            start = rng.integers(0, 28, size=3)
            dims = rng.integers(2, 5, size=3)
            hi = np.minimum(start + dims, 32)
            g = Grid(1, tuple(start), tuple(hi - start), n_root=16)
            h.add_grid(g, h.root)
            grids.append(g)
        smap = build_sibling_map(grids, h.nghost)
        for g in grids:
            expect = {
                o.grid_id for o in grids
                if o is not g and g.ghost_overlap_with(o) is not None
            }
            got = {l.sibling.grid_id for l in smap[g.grid_id]}
            assert got == expect


class TestEpochInvalidation:
    def test_add_grid_bumps_epoch_and_refreshes_siblings(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        h.add_grid(a, h.root)
        e0 = h.topology_epoch
        assert h.siblings(a) == []  # build + cache the level-1 map
        b = _grid(1, (4, 0, 0), (4, 4, 4))
        h.add_grid(b, h.root)
        assert h.topology_epoch > e0
        assert h.siblings(a) == [b]  # stale map must not be served

    def test_remove_level_grids_bumps_epoch_and_refreshes(self):
        h = Hierarchy(n_root=8)
        a = _grid(1, (0, 0, 0), (4, 4, 4))
        b = _grid(1, (4, 0, 0), (4, 4, 4))
        h.add_grid(a, h.root)
        h.add_grid(b, h.root)
        assert h.siblings(a) == [b]
        e0 = h.topology_epoch
        h.remove_level_grids(1)
        assert h.topology_epoch > e0
        assert h.sibling_map(1) == {}

    def test_same_epoch_reuses_map_object(self):
        h = Hierarchy(n_root=8)
        h.add_grid(_grid(1, (0, 0, 0), (4, 4, 4)), h.root)
        h.add_grid(_grid(1, (4, 0, 0), (4, 4, 4)), h.root)
        m1 = h.sibling_map(1)
        m2 = h.sibling_map(1)
        assert m1 is m2

    def test_cache_disabled_rebuilds_every_call(self):
        h = Hierarchy(n_root=8)
        h.add_grid(_grid(1, (0, 0, 0), (4, 4, 4)), h.root)
        h.topology_cache_enabled = False
        m1 = h.sibling_map(1)
        m2 = h.sibling_map(1)
        assert m1 is not m2

    def test_particle_levels_cached_and_invalidated(self):
        h = Hierarchy(n_root=8)
        child = _grid(1, (4, 4, 4), (8, 8, 8))
        h.add_grid(child, h.root)
        h.particles = ParticleSet(
            PositionDD(np.array([[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]])),
            np.zeros((2, 3)), np.ones(2),
        )
        lv1 = h.finest_level_of_particles()
        np.testing.assert_array_equal(lv1, [1, 0])
        assert h.finest_level_of_particles() is lv1  # served from cache
        assert not lv1.flags.writeable

        # structural change invalidates
        h.remove_level_grids(1)
        np.testing.assert_array_equal(h.finest_level_of_particles(), [0, 0])

        # particle motion invalidates
        h.add_grid(_grid(1, (4, 4, 4), (8, 8, 8)), h.root)
        lv2 = h.finest_level_of_particles()
        h.notify_particles_moved()
        assert h.finest_level_of_particles() is not lv2

    def test_particle_replacement_invalidates(self):
        h = Hierarchy(n_root=8)
        h.particles = ParticleSet(
            PositionDD(np.array([[0.5, 0.5, 0.5]])), np.zeros((1, 3)), np.ones(1)
        )
        lv = h.finest_level_of_particles()
        assert len(lv) == 1
        h.particles = ParticleSet.empty()
        assert len(h.finest_level_of_particles()) == 0


def _particles(hi, lo=None):
    n = len(hi)
    return ParticleSet(PositionDD(hi, lo), np.zeros((n, 3)), np.ones(n))


def _cloud(kind, n, n_root, rng):
    """Particle positions of one of the layouts the index must handle."""
    if kind == "random":
        return rng.random((n, 3))
    if kind == "clustered":
        centre = rng.random(3)
        return (centre + 0.02 * rng.standard_normal((n, 3))) % 1.0
    # on root-cell faces and subcell faces, exactly
    return rng.integers(0, 4 * n_root, (n, 3)) / (4.0 * n_root)


def _box(kind, n_root, pos, rng):
    """A query box: random, face-aligned, particle-aligned, padded or
    inverted (empty)."""
    if kind == "faces":
        left = rng.integers(-1, n_root, 3) / n_root
        return left, left + rng.integers(1, n_root + 2, 3) / n_root
    if kind == "particle" and len(pos):
        left = pos[rng.integers(len(pos))]
        right = pos[rng.integers(len(pos))]
        return np.minimum(left, right), np.maximum(left, right)
    left = rng.random(3) * 1.2 - 0.1
    pad = 1.0 / n_root if kind == "padded" else 0.0
    right = left + rng.random(3) * 0.7 + pad
    if kind == "inverted":
        return right, left
    return left - pad, right


class TestParticleRegionIndex:
    @given(st.sampled_from(["random", "clustered", "lattice"]),
           st.sampled_from([1, 5, 8, 16]), st.integers(0, 300),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_scan(self, cloud, n_root, n, seed):
        rng = np.random.default_rng(seed)
        hi = _cloud(cloud, n, n_root, rng)
        lo = 1e-20 * rng.standard_normal(hi.shape)
        h = Hierarchy(n_root=n_root)
        h.particles = _particles(hi, lo)
        pos = hi + lo
        for kind in ("random", "faces", "particle", "padded", "inverted") * 4:
            left, right = _box(kind, n_root, pos, rng)
            expect = np.nonzero(h.particles.in_region(left, right))[0]
            got = h.particles_in_region(left, right)
            np.testing.assert_array_equal(got, expect)
            assert got.dtype == expect.dtype

    def test_whole_box_and_beyond(self):
        rng = np.random.default_rng(3)
        h = Hierarchy(n_root=8)
        h.particles = _particles(rng.random((100, 3)))
        np.testing.assert_array_equal(
            h.particles_in_region([0.0] * 3, [1.0] * 3), np.arange(100))
        np.testing.assert_array_equal(
            h.particles_in_region([-0.5] * 3, [1.5] * 3), np.arange(100))
        assert len(h.particles_in_region([1.0] * 3, [1.5] * 3)) == 0

    def test_empty_particle_set(self):
        h = Hierarchy(n_root=8)
        for left, right in (([0.0] * 3, [1.0] * 3), ([0.25] * 3, [0.5] * 3)):
            got = h.particles_in_region(left, right)
            assert len(got) == 0
            assert got.dtype == np.nonzero(h.particles.in_region(left, right))[0].dtype

    def test_rebuilt_after_particles_move(self):
        h = Hierarchy(n_root=8)
        h.particles = _particles(np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]))
        box = ([0.0] * 3, [0.25] * 3)
        np.testing.assert_array_equal(h.particles_in_region(*box), [0])
        index = h._particle_index()
        assert h._particle_index() is index  # served from cache
        h.particles.positions.hi[1] = 0.2
        h.notify_particles_moved()
        assert h._particle_index() is not index
        np.testing.assert_array_equal(h.particles_in_region(*box), [0, 1])

    def test_rebuilt_after_particle_reassignment(self):
        h = Hierarchy(n_root=8)
        h.particles = _particles(np.array([[0.1, 0.1, 0.1]]))
        box = ([0.0] * 3, [0.25] * 3)
        np.testing.assert_array_equal(h.particles_in_region(*box), [0])
        h.particles = _particles(np.array([[0.9, 0.9, 0.9], [0.2, 0.2, 0.2]]))
        np.testing.assert_array_equal(h.particles_in_region(*box), [1])
        h.particles = ParticleSet.empty()
        assert len(h.particles_in_region(*box)) == 0


class TestTimersSection:
    def test_topology_section_registers(self):
        h = Hierarchy(n_root=8)
        h.timers = ComponentTimers()
        h.add_grid(_grid(1, (0, 0, 0), (8, 8, 8)), h.root)
        set_boundary_values(h, 1)
        assert h.timers.totals.get("topology", 0.0) > 0.0
        assert h.timers.counts["topology"] >= 1


class TestConsumersAgree:
    def test_set_boundary_values_same_with_and_without_cache(self):
        def build():
            h = Hierarchy(n_root=8)
            rng = np.random.default_rng(7)
            h.root.fields["density"][h.root.interior] = 1.0 + rng.random((8, 8, 8))
            set_boundary_values(h, 0)
            a = _grid(1, (2, 2, 2), (6, 6, 6))
            b = _grid(1, (8, 2, 2), (4, 6, 6))
            h.add_grid(a, h.root)
            h.add_grid(b, h.root)
            from repro.amr.rebuild import _fill_new_grid
            _fill_new_grid(a, h.root, [])
            _fill_new_grid(b, h.root, [])
            a.fields["density"][a.interior] += 0.5
            b.fields["density"][b.interior] += 0.25
            return h

        h1, h2 = build(), build()
        h2.topology_cache_enabled = False
        set_boundary_values(h1, 1)
        set_boundary_values(h2, 1)
        for g1, g2 in zip(h1.level_grids(1), h2.level_grids(1)):
            for name, arr in g1.fields.array_items():
                np.testing.assert_array_equal(arr, g2.fields[name])
