import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spherecount
from spherecount.condition import (kappa_grid, monte_carlo_ln_kappa,
                                   sample_gaussian_system)
from spherecount.mesh import (MeshSizeError, SphereMesh, angular_distance,
                              angular_distance_many, build_mesh,
                              convexity_cover_check, covering_check,
                              mesh_count_bound, sch_membership)
from spherecount.polynomials import AffinePolynomial

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
    """C(2^-t) by the direct route: int64 faces, then float rows / norm.

    Returns (lattice, points, plus), ``plus`` marking the rows of +m faces.
    """
    m = 2**t
    full = np.arange(-m, m + 1, dtype=np.int64)
    interior = np.arange(-(m - 1), m, dtype=np.int64)
    faces, plus = [], []
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
            plus.append(np.full(len(face), sign > 0))
    lattice = np.concatenate(faces, axis=0)
    points = lattice.astype(float)
    points /= np.linalg.norm(points, axis=1)[:, None]
    return lattice, points, np.concatenate(plus)


# every t up to grids of about 100k points
PINNED_GRIDS = [(n, t) for n, top in ((1, 13), (2, 6), (3, 3), (4, 2))
                for t in range(top + 1)]


@pytest.mark.parametrize("n,t", PINNED_GRIDS)
def test_grid_matches_reference_bit_for_bit(n, t):
    lattice, points, plus = reference_grid(n, t)
    mesh = build_mesh(n, t)
    assert mesh.pair_points.tobytes() == points[plus].tobytes()
    assert mesh.points.tobytes() == points.tobytes()
    assert mesh.lattice.dtype == np.int64
    assert np.array_equal(mesh.lattice, lattice)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_points_are_stored_by_columns(n):
    """Each coordinate of the pair points is one contiguous column, which the
    residual pass hands to the evaluation kernel without a copy."""
    assert build_mesh(n, 2).pair_points.T.flags.c_contiguous


MIRROR_GRIDS = [(n, t) for n, top in ((1, 9), (2, 5), (3, 3), (4, 2))
                for t in range(top + 1)]


@pytest.mark.parametrize("n,t", MIRROR_GRIDS)
def test_minus_faces_mirror_plus_faces_bit_for_bit(n, t):
    """In the reference grid each -m face is its +m face read backwards and
    negated, so the pair points stand for the whole grid."""
    lattice, points, plus = reference_grid(n, t)
    # faces alternate +m, -m by owning axis; a -m face follows its +m face
    starts = np.flatnonzero(np.diff(plus.astype(int), prepend=0) == 1)
    ends = list(starts[1:]) + [len(plus)]
    assert len(starts) == n + 1 and 2 * np.count_nonzero(plus) == len(plus)
    for lo, end in zip(starts, ends):
        hi = lo + (end - lo) // 2
        assert plus[lo:hi].all() and not plus[hi:end].any()
        assert np.array_equal(-lattice[lo:hi], lattice[hi:end][::-1])
        # -x + 0.0 turns a -0.0 into 0.0, as the division of 0 by |k| gives
        assert (-points[lo:hi] + 0.0).tobytes() == points[hi:end][::-1].tobytes()


@pytest.mark.parametrize("n,t", MIRROR_GRIDS)
def test_row_accessor_matches_reference_bit_for_bit(n, t):
    """Every reference row, zero signs included, is a pair point or the
    mirror -x + 0.0 of one, and each pair point has exactly one mirror row."""
    _, reference, _ = reference_grid(n, t)
    mesh = build_mesh(n, t)
    rows = {x.tobytes(): p for p, x in enumerate(mesh.pair_points)}
    mirrors = {(-x + 0.0).tobytes(): p for p, x in enumerate(mesh.pair_points)}
    assert len(rows) == len(mirrors) == mesh.count // 2
    found = [(rows.get(x.tobytes()), mirrors.get(x.tobytes())) for x in reference]
    assert all((p is None) != (q is None) for p, q in found)
    assert sorted(p for p, _ in found if p is not None) == list(range(mesh.count // 2))
    assert sorted(q for _, q in found if q is not None) == list(range(mesh.count // 2))


def test_counting_never_builds_the_full_grid(monkeypatch):
    """The counting loop, count_affine, kappa_grid and the Monte-Carlo
    trials stream every grid chunk by chunk: neither the whole grid nor the
    concatenated pair points is built."""

    def guarded(name):
        def fail(mesh):
            raise AssertionError(f"SphereMesh.{name} was built")
        return property(fail)

    monkeypatch.setattr(SphereMesh, "points", guarded("points"))
    stopping = sample_gaussian_system(2, (2, 2), 21)
    with monkeypatch.context() as mp:
        mp.setattr(SphereMesh, "pair_points", guarded("pair_points"))
        for name in ("points", "pair_points"):
            with pytest.raises(AssertionError, match=name):
                getattr(build_mesh(2, 2), name)
        assert spherecount.root_count(stopping, max_t=9).stopped
        assert not spherecount.root_count(sample_gaussian_system(2, (2, 2), 4000),
                                          max_t=5).stopped
        result, affine_count = spherecount.count_affine(
            [AffinePolynomial(1, {(2,): 1.0, (0,): -2.0})], max_t=9)
        assert result.stopped and affine_count == 2
        assert kappa_grid(stopping, build_mesh(2, 5))[0] > 1.0
        assert monte_carlo_ln_kappa(3, (2, 2, 2), 1, 2, seed=0)["mean_ln_kappa"] > 0.0


def reference_rows(n, t, lo, hi):
    """Pair rows lo:hi of one +m face, by decoding each row on its own:
    int64 lattice rows, then float rows / norm (see ``reference_grid``)."""
    m = 2**t
    start = 0
    for axis in range(n + 1):
        shape = [2 * m - 1] * axis + [2 * m + 1] * (n - axis)
        if lo < start + math.prod(shape):
            break
        start += math.prod(shape)
    assert hi <= start + math.prod(shape), "the rows must lie on one face"
    index = np.unravel_index(np.arange(lo - start, hi - start), shape)
    lattice = np.empty((hi - lo, n + 1), dtype=np.int64)
    cols = [c for c in range(n + 1) if c != axis]
    for col, size, k in zip(cols, shape, index):
        lattice[:, col] = k - size // 2
    lattice[:, axis] = m
    return lattice / np.linalg.norm(lattice.astype(float), axis=1)[:, None]


# small grids of every dimension up to 4, and one whose faces exceed a
# chunk (n=1, t=13: 16,385 and 16,383 rows)
SLAB_GRIDS = [(1, 0), (1, 6), (1, 13), (2, 0), (2, 1), (2, 5), (3, 2), (3, 3), (4, 2)]


def assert_runs(mesh, slab, lo, hi):
    """Along each run of ``slab.row`` rows in the slab's rows ``lo:hi``
    (whole runs) only the last face coordinate moves, over its whole range."""
    n = mesh.n
    runs = mesh.lattice_at(np.arange(lo, hi)).reshape(-1, slab.row, n + 1)
    last = n - (slab.axis == n)
    fixed = [c for c in range(n + 1) if c != last]
    assert (runs[:, :, fixed] == runs[:, :1, fixed]).all()
    assert (runs[:, :, last] == np.arange(slab.row) - slab.row // 2).all()
    assert (runs[:, :, slab.axis] == 2**mesh.t).all()


@pytest.mark.parametrize("n,t", SLAB_GRIDS)
def test_slabs_concatenate_to_the_pair_points(n, t):
    """The slabs are the +m faces in order, each in runs on which only the
    last face coordinate moves; the lattice points and the points of each
    slab, built one slab at a time, are the +m faces of the reference grid
    byte for byte."""
    lattice, reference, plus = reference_grid(n, t)
    mesh = build_mesh(n, t)
    slabs = list(mesh.slabs())
    assert [s.axis for s in slabs] == list(range(n + 1))
    assert [s.lo for s in slabs] == [0] + [s.hi for s in slabs[:-1]]
    assert slabs[-1].hi == mesh.count // 2
    assert all((s.hi - s.lo) % s.row == 0 for s in slabs)
    for s in slabs:
        assert_runs(mesh, s, s.lo, s.hi)
    slab_lattice = np.concatenate([mesh.lattice_at(np.arange(s.lo, s.hi)) for s in slabs])
    assert np.array_equal(slab_lattice, lattice[plus])
    points = [mesh.points_at(np.arange(s.lo, s.hi)) for s in slabs]
    assert all(p.T.flags.c_contiguous for p in points)
    assert np.concatenate(points).tobytes() == reference[plus].tobytes()


def test_slabs_of_a_grid_too_large_to_build():
    """n=3, t=7 has about 68M pairs, past the cap, in faces of about 17M
    rows each.  The first, middle and last runs of every face match rows
    decoded one by one."""
    mesh = SphereMesh(3, 7)
    slabs = list(mesh.slabs())
    assert slabs[-1].hi == mesh.count // 2 and len(slabs) == 4
    for s in slabs:
        middle = s.lo + (s.hi - s.lo) // s.row // 2 * s.row
        for lo in (s.lo, middle, s.hi - 2 * s.row):
            assert_runs(mesh, s, lo, lo + 2 * s.row)
            assert (mesh.points_at(np.arange(lo, lo + 2 * s.row)).tobytes()
                    == reference_rows(3, 7, lo, lo + 2 * s.row).tobytes())


@pytest.mark.parametrize("n,t", [(1, 13), (2, 3), (3, 2), (4, 1)])
def test_points_at_matches_reference_rows(n, t):
    """``points_at`` builds any pair rows, bit for bit: runs across every
    face boundary, no rows and one row."""
    mesh = build_mesh(n, t)
    m = 2**t
    ends = np.cumsum([(2 * m - 1)**a * (2 * m + 1)**(n - a) for a in range(n + 1)])
    for end in ends[:-1]:
        rows = np.arange(end - 3, end + 4)
        split = np.searchsorted(rows, end)
        reference = np.concatenate([reference_rows(n, t, rows[0], end),
                                    reference_rows(n, t, end, rows[-1] + 1)])
        assert rows[:split].size and rows[split:].size
        assert mesh.points_at(rows).tobytes() == reference.tobytes()
    assert mesh.points_at(np.arange(0)).shape == (0, n + 1)
    last = mesh.count // 2 - 1
    assert (mesh.points_at([last]).tobytes()
            == reference_rows(n, t, last, last + 1).tobytes())


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


def test_import_loads_neither_scipy_nor_the_thread_pool():
    # sch_membership and the Monte-Carlo trials import them when called; a
    # bare package import must stay cheap
    src = os.path.dirname(os.path.dirname(spherecount.__file__))
    code = ("import spherecount, sys; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse', 'concurrent.futures')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"
