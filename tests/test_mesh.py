import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spherecount
from spherecount.mesh import (MeshSizeError, angular_distance,
                              angular_distance_many, build_mesh,
                              convexity_cover_check, covering_check,
                              mesh_count_bound, sch_membership)

from conftest import random_sphere_point


class TestAngularDistance:
    def test_coincident(self):
        e0 = np.array([1.0, 0.0, 0.0])
        assert angular_distance(e0, e0) == 0.0

    def test_orthogonal(self):
        assert angular_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.pi / 2)

    def test_antipodal(self, rng):
        x = random_sphere_point(rng, 3)
        assert angular_distance(x, -x) == pytest.approx(math.pi)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(200):
            x, y, z = (random_sphere_point(rng, 3) for _ in range(3))
            assert angular_distance(x, y) == pytest.approx(angular_distance(y, x))
            assert angular_distance(x, z) <= (angular_distance(x, y)
                                              + angular_distance(y, z) + 1e-12)


class TestBuildMesh:
    def test_circle_coarse(self):
        mesh = build_mesh(1, 0)
        assert mesh.count == 8

    def test_circle_half_spacing(self):
        mesh = build_mesh(1, 1)
        assert mesh.count == 16

    def test_count_bound_small(self):
        mesh = build_mesh(2, 1)
        assert mesh.count <= 2 * 3 * (1 + 4) ** 2

    def test_count_bound_enumerated(self):
        for n in (1, 2, 3):
            for t in range(0, 5 if n < 3 else 4):
                mesh = build_mesh(n, t)
                assert mesh.count <= mesh_count_bound(n, t)

    def test_points_are_projected_lattice(self):
        mesh = build_mesh(2, 2)
        m = 2**2
        assert np.all(np.max(np.abs(mesh.lattice), axis=1) == m)
        norms = np.linalg.norm(mesh.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-14)
        back = mesh.lattice / np.linalg.norm(mesh.lattice, axis=1)[:, None]
        assert np.allclose(back, mesh.points)

    def test_deterministic_order(self):
        a = build_mesh(2, 2)
        b = build_mesh(2, 2)
        assert np.array_equal(a.lattice, b.lattice)
        assert a.points.tobytes() == b.points.tobytes()

    def test_symmetry_under_signed_permutations(self, rng):
        mesh = build_mesh(2, 2)
        pts = {tuple(row) for row in mesh.lattice}
        perm = [2, 0, 1]
        flipped = {tuple(-row[p] for p in perm) for row in mesh.lattice}
        assert pts == flipped

    def test_resource_guard(self):
        with pytest.raises(MeshSizeError):
            build_mesh(3, 12)


def reference_grid(n, t):
    """C(2^-t) by the direct route: int64 faces, then float rows / norm."""
    m = 2**t
    full = np.arange(-m, m + 1, dtype=np.int64)
    interior = np.arange(-(m - 1), m, dtype=np.int64)
    faces = []
    for axis in range(n + 1):
        for sign in (m, -m):
            ranges = [interior if j < axis else full
                      for j in range(n + 1) if j != axis]
            grids = np.meshgrid(*ranges, indexing="ij")
            face = np.empty((grids[0].size, n + 1), dtype=np.int64)
            cols = [c for c in range(n + 1) if c != axis]
            for col, g in zip(cols, grids):
                face[:, col] = g.reshape(-1)
            face[:, axis] = sign
            faces.append(face)
    lattice = np.concatenate(faces, axis=0)
    points = lattice.astype(float)
    points /= np.linalg.norm(points, axis=1)[:, None]
    return lattice, points


# every t up to grids of about 100k points
PINNED_GRIDS = [(n, t) for n, top in ((1, 13), (2, 6), (3, 3), (4, 2))
                for t in range(top + 1)]


@pytest.mark.parametrize("n,t", PINNED_GRIDS)
def test_grid_matches_reference_bit_for_bit(n, t):
    lattice, points = reference_grid(n, t)
    mesh = build_mesh(n, t)
    assert mesh.points.tobytes() == points.tobytes()
    assert mesh.lattice.dtype == np.int64
    assert np.array_equal(mesh.lattice, lattice)


class TestCovering:
    def test_mesh_point_is_its_own_cover(self):
        mesh = build_mesh(2, 2)
        p = mesh.points[17]
        nearest, dist = covering_check(mesh, p)
        assert dist == 0.0
        assert np.allclose(nearest, p)

    def test_circle_instance(self):
        mesh = build_mesh(1, 2)
        z = np.array([math.cos(0.1), math.sin(0.1)])
        _, dist = covering_check(mesh, z)
        assert dist <= 0.25 * 1.0 / 2.0

    def test_sampled_covering_radius(self, rng):
        mesh = build_mesh(2, 3)
        probes = rng.standard_normal((10000, 3))
        probes /= np.linalg.norm(probes, axis=1)[:, None]
        dots = np.clip(probes @ mesh.points.T, -1.0, 1.0)
        dists = np.arccos(dots.max(axis=1))
        assert dists.max() <= mesh.eta * math.sqrt(2.0) / 2.0

    def test_dimension_mismatch(self):
        mesh = build_mesh(2, 1)
        with pytest.raises(ValueError):
            covering_check(mesh, np.array([1.0, 0.0]))


class TestSchMembership:
    def test_member_of_generators(self):
        Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert sch_membership(Y[0], Y)

    def test_midpoint(self):
        Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        assert sch_membership(x, Y)

    def test_off_cone(self):
        Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert not sch_membership(np.array([0.0, 0.0, 1.0]), Y)

    def test_hemisphere_failure(self):
        Y = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            sch_membership(np.array([0.0, 1.0]), Y)


class TestConvexityCover:
    def test_single_point(self):
        y = np.array([0.0, 0.0, 1.0])
        assert convexity_cover_check([y], [0.1], y)

    def test_geodesic_between_overlapping_caps(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        r = angular_distance(a, b) / 2.0 + 0.05  # caps overlap at the midpoint
        for s in np.linspace(0.0, 1.0, 21):
            x = (1 - s) * a + s * b
            x = x / np.linalg.norm(x)
            assert convexity_cover_check([a, b], [r, r], x)

    def test_randomized_probes_in_hull(self, rng):
        violations = 0
        for _ in range(20):
            # cluster the generators so the mean witness certifies a hemisphere
            c = random_sphere_point(rng, 3)
            Y = np.array([c + 0.35 * rng.standard_normal(3) for _ in range(4)])
            Y /= np.linalg.norm(Y, axis=1)[:, None]
            center = Y.mean(axis=0)
            center /= np.linalg.norm(center)
            radii = angular_distance_many(Y, center) + 1e-6  # caps share the center
            for _ in range(50):
                w = rng.uniform(0.0, 1.0, size=4)
                x = (w[:, None] * Y).sum(axis=0)
                x /= np.linalg.norm(x)
                if not convexity_cover_check(Y, radii, x):
                    violations += 1
        assert violations == 0


class TestMeshHullProperty:
    @pytest.mark.parametrize("t", [2, 3])
    def test_neighbourhood_hull_contains_point(self, rng, t):
        mesh = build_mesh(2, t)
        radius = math.sqrt(2.0) * mesh.eta
        for _ in range(500):
            x = random_sphere_point(rng, 3)
            near = mesh.points[angular_distance_many(mesh.points, x) <= radius]
            assert len(near) > 0
            assert sch_membership(x, near)


def test_import_loads_neither_scipy_optimize_nor_sparse():
    # sch_membership and the graph clustering import them when called; a
    # bare package import must stay cheap
    src = os.path.dirname(os.path.dirname(spherecount.__file__))
    code = ("import spherecount, sys; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"
