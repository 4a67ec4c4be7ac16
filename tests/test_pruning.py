"""The counting loop and kappa_grid compute mu, and a seeded level norms
rows, only where it can change an answer; these tests pin that the pruned
passes equal exhaustive ones with ``==``, not approximately.  Every
residual of a grid comes from the one residual rule (``condition._horner``),
so the exhaustive references take it too, over one slab per face.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecount import condition
from spherecount import polynomials as pl
from spherecount.certification import _admissible
from spherecount.cli import parse_polynomial
from spherecount.condition import (_kappa_max, _row_norms,
                                   _sigma_min_columns, kappa_grid,
                                   kappa_many, mu, mu_many,
                                   sample_gaussian_system)
from spherecount import counting
from spherecount.counting import (_candidate_ceiling, _level, build_graph,
                                  count_affine, exclusion_threshold,
                                  initial_eta, root_count)
from spherecount.mesh import SphereMesh, build_mesh
from spherecount.polynomials import (AffinePolynomial, HomogeneousPolynomial,
                                     PolynomialSystem, evaluate_many)

from conftest import random_sphere_point, random_unit_system


def face_norms(F, mesh):
    """|f| at the pair rows of each face of ``mesh``, one face per call of the
    residual rule, so no chunk boundary of a streamed pass is shared."""
    out = []
    for s in mesh.slabs():
        coeffs, radius2, first = condition._runs(F, mesh, s)
        work = np.empty((3, radius2.shape[0], s.row))
        x = first + np.arange(s.row) / 2.0**mesh.t
        out.append(condition._horner(F, coeffs, radius2, x, work).ravel())
    return out


def exhaustive(F, mesh):
    """Residuals, mu, admissibility and the kappa maximum at every pair row."""
    f_norms = np.concatenate(face_norms(F, mesh))
    mus = mu_many(F, mesh.pair_points, f_norm=1.0)
    admissible = _admissible(f_norms, mus, F.max_degree)
    kappa = _kappa_max(f_norms, mus)
    return f_norms, mus, admissible, (kappa if kappa > -math.inf else math.inf)


def whole_grid_kappa(F, mesh):
    """The kappa maximum over every point of the grid, mirrors included.

    A -m face is its +m face read backwards and negated, and |f| is the
    same at both points of a pair, so each face's norms serve it read
    backwards; mu is taken at every point of ``mesh.points``.
    """
    f_norms = np.concatenate([np.concatenate([f, f[::-1]]) for f in face_norms(F, mesh)])
    return _kappa_max(f_norms, mu_many(F, mesh.points, f_norm=1.0))


def gaussian(n, degrees, seed):
    return lambda: random_unit_system(n, degrees, seed)


def linear(n_vars, rows):
    """Unit-norm linear system; mu = sqrt(n) at its zeros, the ceiling's edge."""
    return lambda: PolynomialSystem(tuple(
        HomogeneousPolynomial(n_vars, 1, dict(r)) for r in rows)).normalized()


# (system, t): grids of 500 to 100k points
CASES = [
    (gaussian(2, (2, 2), 4000), 6),
    (gaussian(2, (2, 2), 4001), 5),
    (gaussian(2, (3, 2), 7), 5),
    (gaussian(3, (2, 2, 2), 1), 3),
    (gaussian(3, (2, 2, 2), 2), 3),
    (linear(3, [{(0, 1, 0): 1.0}, {(0, 0, 1): 1.0}]), 6),
    (linear(3, [{(0, 1, 0): 1.0, (1, 0, 0): -0.3},
                {(0, 0, 1): 1.0, (1, 0, 0): -0.5}]), 5),
    (linear(2, [{(0, 1): 1.0, (1, 0): -0.3}]), 7),
]


def screened(mesh, seed):
    """Whether a level given ``seed`` screens its grid by tiles."""
    return seed > -math.inf and 2 ** (mesh.t + 1) - 1 >= 2 * condition.TILE


def assert_sparse_level(F, mesh, graph, f_all, adm_all, tiles):
    """The level keeps its candidates and its possible exclusion failures,
    with the residuals and candidate points that every pair row gives, bit
    for bit.  The candidates are the rows under their tile's ceiling: they
    lie under the pass ceiling and hold every admissible row, and without
    ``tiles`` they are every row under the pass ceiling."""
    ceiling, cand = _candidate_ceiling(F), graph.candidates
    assert np.all(f_all[cand] < ceiling)
    assert np.isin(np.flatnonzero(adm_all), cand).all()
    if not tiles:
        assert np.array_equal(cand, np.flatnonzero(f_all < ceiling))
    low = np.union1d(cand, np.flatnonzero(f_all <= exclusion_threshold(F, mesh.eta)))
    assert np.array_equal(graph.low_rows, low)
    assert graph.low_norms.tobytes() == f_all[low].tobytes()
    assert graph.points.tobytes() == mesh.pair_points[cand].tobytes()


@pytest.mark.parametrize("system, t", CASES)
@pytest.mark.parametrize("seed", [-math.inf, 3.0, math.inf])
@pytest.mark.parametrize("gain", [None, 0.0])
def test_level_matches_exhaustive(system, t, seed, gain, monkeypatch):
    """The level's sparse outputs equal an exhaustive pass over the pair
    points, and its kappa is the exhaustive maximum raised to ``seed``,
    with tile bounds on mu where they pay and on every grid (gain 0)."""
    if gain is not None:
        monkeypatch.setattr(condition, "_MU_GAIN", gain)
    F = system()
    n = F.n
    mesh = build_mesh(n, t)
    points = mesh.pair_points
    f_all, mu_all, adm_all, kappa_all = exhaustive(F, mesh)
    rows = []

    def counted_mu_many(G, X, **kw):
        rows.append(X.shape[0])
        return mu_many(G, X, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "mu_many", counted_mu_many)
        mp.setattr(condition, "mu_many", counted_mu_many)
        graph = _level(F, mesh, seed=seed)
    assert_sparse_level(F, mesh, graph, f_all, adm_all, screened(mesh, seed))
    assert np.array_equal(graph.vertex_indices, np.nonzero(adm_all)[0])
    assert np.array_equal(graph.admissible, adm_all[graph.candidates])
    assert graph.kappa == max(kappa_all, seed)
    assert np.array_equal(graph.mus, mu_all[graph.candidates])
    assert np.all(graph.mus >= math.sqrt(n) * (1.0 - 1e-12))
    # kappa of a well-conditioned system is near 1 everywhere, so 1/|f|
    # prunes nothing there; elsewhere few points need mu
    if kappa_all > 2.0:
        assert sum(rows) < points.shape[0] // 4


@pytest.mark.parametrize("system, t", CASES[:3] + CASES[5:])
def test_build_graph_matches_exhaustive(system, t):
    F = system()
    mesh = build_mesh(F.n, t)
    graph = build_graph(F, mesh)
    Fn = F.normalized()
    f_all, mu_all, adm_all, _ = exhaustive(Fn, mesh)
    assert np.array_equal(graph.admissible, adm_all[graph.candidates])
    assert np.array_equal(graph.vertex_indices, np.nonzero(adm_all)[0])
    assert list(graph.mus) == list(mu_all[graph.candidates])
    # mu and the inclusion test are kept at the admissibility candidates only
    assert graph.mus.shape == graph.admissible.shape == graph.candidates.shape
    assert_sparse_level(Fn, mesh, graph, f_all, adm_all, False)
    assert np.array_equal(graph.vertex_indices, graph.candidates[graph.admissible])


@pytest.mark.parametrize("seed", [4000, 4002, 4006])
def test_root_count_kappa_matches_exhaustive(seed):
    F = random_unit_system(2, (2, 2), seed)
    res = root_count(F, max_t=6)
    t = initial_eta(2)[1] + res.iterations
    assert res.kappa_grid_estimate == whole_grid_kappa(F.normalized(), build_mesh(2, t))


def levels_of(run):
    """``run()``'s result and the (mesh, graph) of each level it certified."""
    levels = []

    def recorded_level(F, mesh, seed=-math.inf):
        levels.append((mesh, _level(F, mesh, seed=seed)))
        return levels[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_level", recorded_level)
        return run(), levels


def test_every_level_kappa_is_its_grid_maximum():
    """Each grid lies in the next with the same |f| and pair point at each of
    its rows, so the seed a level is given never exceeds its own maximum:
    every level's kappa is exactly the maximum over its whole grid."""
    F = random_unit_system(2, (2, 2), 4000)
    res, levels = levels_of(lambda: root_count(F, max_t=6))
    assert [mesh.t for mesh, _ in levels] == [2, 3, 4, 5, 6]
    for mesh, graph in levels:
        assert graph.kappa == whole_grid_kappa(F, mesh)
    assert res.kappa_grid_estimate == levels[-1][1].kappa


def test_root_count_norms_each_pair_row_once():
    """No pair row of a level is normed twice, an unseeded or small level
    norms exactly its pair rows, and the screened t=8 level of seed 4000
    norms at most a fifth of them, its tile centres included."""
    normed, handed = [0], []
    horner, walk = condition._horner, condition._walk

    def counted_horner(F, coeffs, radius2, x, out):
        normed[0] += out[0].size
        return horner(F, coeffs, radius2, x, out)

    def recorded_walk(*args):
        for rows, *rest in walk(*args):
            handed[-1].append(rows)
            yield rows, *rest

    def level(F, mesh, seed=-math.inf):
        normed[0] = 0
        handed.append([])
        graph = _level(F, mesh, seed=seed)
        levels.append((mesh, normed[0], np.concatenate(handed[-1])))
        return graph

    levels = []
    F = sample_gaussian_system(2, (2, 2), 4000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_horner", counted_horner)
        mp.setattr(condition, "_walk", recorded_walk)
        mp.setattr(counting, "_level", level)
        res = root_count(F, max_t=8)
    assert not res.stopped and [mesh.t for mesh, _, _ in levels] == [2, 3, 4, 5, 6, 7, 8]
    for mesh, rows_normed, rows in levels:
        pairs = mesh.count // 2
        assert np.all(np.diff(rows) > 0) and rows[-1] < pairs
        if 2 ** (mesh.t + 1) - 1 < 2 * condition.TILE:
            assert rows_normed == rows.size == pairs
        else:
            assert rows.size < rows_normed < pairs
    mesh, rows_normed, _ = levels[-1]
    assert rows_normed <= mesh.count // 2 // 5


@pytest.mark.parametrize("seed", [4000, 4001, 4002, 4003])
def test_streamed_kappa_matches_the_built_grid(seed):
    """The loop's kappa, carried from level to level, equals kappa_grid's one
    streamed pass over the final grid bit for bit."""
    F = sample_gaussian_system(2, (2, 2), seed)
    res = root_count(F, max_t=8)
    t = initial_eta(2)[1] + res.iterations
    assert res.kappa_grid_estimate == kappa_grid(F, build_mesh(2, t))[0]


def test_streamed_walk_matches_kappa_grid_n3():
    """On 40 Gaussian (2,2,2) systems at t=4 the kappa a level takes, its
    candidates last, equals kappa_grid's pass over every row."""
    mesh = build_mesh(3, 4)
    for seed in range(40):
        F = sample_gaussian_system(3, (2, 2, 2), seed)
        assert _level(F.normalized(), mesh).kappa == kappa_grid(F, mesh)[0]


def test_affine_loop_matches_exhaustive():
    cubic = AffinePolynomial(1, {(3,): 1.0, (1,): -1.0})   # x^3 - x
    res, _ = count_affine([cubic], max_t=6)
    F = PolynomialSystem((pl.homogenize(cubic),)).normalized()
    t = initial_eta(F.n)[1] + res.iterations
    mesh = build_mesh(F.n, t)
    f_all, mu_all, adm_all, kappa_all = exhaustive(F, mesh)
    assert res.kappa_grid_estimate == kappa_all
    graph = _level(F, mesh)
    assert_sparse_level(F, mesh, graph, f_all, adm_all, False)
    assert np.array_equal(graph.candidates[graph.admissible], np.nonzero(adm_all)[0])
    assert np.array_equal(graph.admissible, adm_all[graph.candidates])
    assert graph.kappa == kappa_all
    assert np.array_equal(graph.mus, mu_all[graph.candidates])


@pytest.mark.parametrize("n, degrees, seed, t", [
    (2, (2, 2), 11, 5), (2, (2, 3), 12, 4), (3, (2, 2, 2), 0, 3), (3, (2, 2, 2), 5, 3)])
def test_kappa_grid_matches_exhaustive(n, degrees, seed, t):
    F = sample_gaussian_system(n, degrees, seed)
    mesh = build_mesh(n, t)
    full = whole_grid_kappa(F.normalized(), mesh)
    assert kappa_grid(F, mesh)[0] == full
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_BLOCK", 512)
        assert kappa_grid(F, mesh)[0] == full


def residual_screen(cut):
    """A screen by |f| alone, under ``cut``: no row is a candidate or a
    kappa contender, so every kept tile is expanded whatever its mu."""
    return condition._Screen(cut, 0.0, lambda: 0.0, mu_many)


# grids of 4k to 16k pairs, so 512- and 200-row chunks split them into many;
# 16-row chunks are shorter than a lattice run of every grid, so every
# run is cut into pieces
@pytest.mark.parametrize("n, degrees, t", [
    *[(n, (d,) * n, t) for n, t in ((1, 10), (2, 5), (3, 3)) for d in range(1, 8)],
    (2, (4, 5), 5), (2, (3, 2), 5), (2, (1, 7), 5), (3, (2, 3, 4), 3)])
def test_mirrored_residuals_match_direct_evaluation(n, degrees, t):
    """The evaluation kernel is sign-symmetric, and the walk equals the
    residual rule taken one face at a time bit for bit, for any chunk size:
    a row's residual does not depend on the chunk that holds it.  Every
    chunk holds at most ``_BLOCK`` ascending rows of one face."""
    F = sample_gaussian_system(n, degrees, sum(degrees) + 10 * n)
    mesh = build_mesh(n, t)
    direct = np.linalg.norm(evaluate_many(F, mesh.pair_points), axis=1)
    mirrored = np.linalg.norm(evaluate_many(F, -mesh.pair_points + 0.0), axis=1)
    assert np.array_equal(direct, mirrored)
    faces = np.concatenate(face_norms(F, mesh))
    face_ends = [s.hi for s in mesh.slabs()]
    for block in (condition._BLOCK, 512, 200, 16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(condition, "_BLOCK", block)
            # unscreened, and screened under an infinite cut, which keeps
            # every tile
            for screen in (None, residual_screen(math.inf)):
                rows, streamed = zip(*((r, f.copy()) for r, f, *_ in
                                       condition._walk(F, mesh, screen)))
                for r in rows:
                    assert 0 < r.size <= block and np.all(np.diff(r) > 0)
                    first_face, last_face = np.searchsorted(face_ends, r[[0, -1]], side="right")
                    assert first_face == last_face
                assert np.array_equal(np.concatenate(rows), np.arange(mesh.count // 2))
                assert np.concatenate(streamed).tobytes() == faces.tobytes()


def test_walk_takes_horner_data_once_per_run():
    """An n=1 grid at t=13 has one lattice run per face, of 16,385 and
    16,383 rows.  The unscreened walk takes Horner's data once per run and
    cuts the longer run into pieces of at most ``_BLOCK`` rows."""
    F = sample_gaussian_system(1, (3,), 1)
    mesh = build_mesh(1, 13)
    runs, runs_of = [], condition._runs

    def counted_runs(F, mesh, slab):
        data = runs_of(F, mesh, slab)
        runs.append(data[1].shape[0])
        return data

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_runs", counted_runs)
        sizes = [r.size for r, _ in condition._walk(F, mesh)]
    assert runs == [1, 1]
    assert sizes == [condition._BLOCK, 1, 16_383]


def rounding_scale(F, X):
    """sum_i sum_a |c_ia| |x^a| at each row of X, the scale of the rounding
    error of evaluating f at x in floating point (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 5)."""
    absolute = PolynomialSystem(tuple(
        HomogeneousPolynomial(p.n_vars, p.degree, {e: abs(c) for e, c in p.coefficients.items()})
        for p in F.polynomials))
    return evaluate_many(absolute, np.abs(X)).sum(axis=1)


def ci_n3():
    """The n=3 system of degrees 2, 3, 2 with the cubic cross monomial x0*x1*x3."""
    return PolynomialSystem(tuple(parse_polynomial(text, 4) for text in (
        "x1^2 - x0*x2", "x2^3 - x0*x1*x3 + 0.3*x3^3", "x3^2 - x1*x2 + 0.1*x0^2")))


@pytest.mark.parametrize("system, t", [
    # 2m+1 = 16,385 > _BLOCK: the walk cuts a run into pieces
    (gaussian(1, (3,), 1), 13),
    (gaussian(2, (3, 2), 2), 6),      # mixed degrees
    (gaussian(2, (1, 2), 3), 6),      # a degree-1 equation
    (ci_n3, 3),
    # |k|^80 and the monomials of k overflow on the lattice itself, not over m
    (gaussian(1, (80,), 5), 13),
])
def test_horner_residuals_are_within_the_rounding_bound(system, t):
    """Horner's |f| on the lattice and the kernel's |f| at the rounded pair
    point differ by at most (3D + T + n + 2) eps sum_i sum_a |c_ia| |x^a|.

    Each evaluation errs by at most gamma_k times that scale (Higham ch. 5):
    the kernel with k = 3D + T (two roundings per coordinate of k/|k|, D - 1
    products, one product by c, T - 1 sums), Horner with k = T + 3D + 2 (T
    roundings per coefficient, 2D along the row, D/2 + 2 for |k|^D and the
    quotient), and each norm with n + 2 more; gamma_k is about k eps / 2.
    Near a zero both cancel, so no relative tolerance would hold there.
    """
    F = system()
    mesh = build_mesh(F.n, t)
    if F.n == 1:
        assert any(s.row > condition._BLOCK for s in mesh.slabs())
    with np.errstate(over="raise", invalid="raise"):
        horner = np.concatenate([f.copy() for _, f in condition._walk(F, mesh)])
    direct = _row_norms(evaluate_many(F, mesh.pair_points))
    terms = max(len(p.coefficients) for p in F.polynomials)
    bound = (3 * F.max_degree + terms + F.n + 2) * np.finfo(float).eps
    assert np.all(np.abs(horner - direct) <= bound * rounding_scale(F, mesh.pair_points))


def low_cut(F, mesh):
    """A level's (below, ceiling): its low rows are its candidates, under
    their ceiling, and the rows under ``below``."""
    return math.nextafter(exclusion_threshold(F, mesh.eta), math.inf), _candidate_ceiling(F)


# n = 1..3, degrees 1..7 and mixed; the n=3 grids take 4-position tiles, so
# that grids of 20k pairs are screened
@pytest.mark.parametrize("n, degrees, t, tile", [
    *[(n, (d,) * n, t, tile) for n, t, tile in ((1, 10, 16), (2, 5, 16), (3, 3, 4))
      for d in range(1, 8)],
    (2, (4, 5), 5, 16), (2, (3, 2), 5, 16), (2, (1, 7), 5, 16), (3, (2, 3, 4), 3, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_scan_matches_the_dense_pass(n, degrees, t, tile, seed):
    """A seeded pass is screened, and its rows, norms, candidate points and
    mu, and kappa equal the dense pass filtered to its low rows, bit for
    bit, whether the seed is below the grid's maximum (so the cut falls
    during the pass), at it, or infinite.  Its candidates, the rows under
    their tile's ceiling, are dense candidates and hold every admissible
    row, with tile bounds on mu taken on every grid."""
    F = random_unit_system(n, degrees, 100 * seed + 10 * n + sum(degrees))
    mesh = build_mesh(n, t)
    f_all, mu_all, adm_all, kappa_all = exhaustive(F, mesh)
    below, ceiling = low_cut(F, mesh)
    dense = condition._scan(F, mesh, below, ceiling)
    assert np.array_equal(dense[0], np.flatnonzero((f_all < below) | (f_all < ceiling)))
    assert np.array_equal(dense[0][dense[2]], np.flatnonzero(f_all < ceiling))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "TILE", tile)
        # tile bounds on mu at every level, however coarse
        mp.setattr(condition, "_MU_GAIN", 0.0)
        for kappa_seed in (1.0, kappa_all / 2, kappa_all, math.inf):
            rows, norms, cand, points, mus, best = condition._scan(F, mesh, below, ceiling,
                                                                   kappa_seed)
            assert np.all(f_all[rows[cand]] < ceiling)
            assert np.isin(np.flatnonzero(adm_all), rows[cand]).all()
            assert np.array_equal(rows, np.union1d(rows[cand], np.flatnonzero(f_all < below)))
            assert norms.tobytes() == f_all[rows].tobytes()
            assert points.tobytes() == mesh.pair_points[rows[cand]].tobytes()
            assert mus.tobytes() == mu_all[rows[cand]].tobytes()
            assert best == max(kappa_seed, kappa_all)


@pytest.mark.parametrize("n, t", [(1, 9), (2, 5)])
def test_kappa_cut_keeps_rows_an_ulp_under_it(n, t):
    """|x|^2 in every equation has a singular restricted Jacobian at every
    point, so kappa = 1/sqrt(f*f) exactly, and |f| = 1/sqrt(n + 1) up to
    the rounding of each row.  Seeded an ulp under the grid's maximum, the
    screened pass must still norm and visit the row that attains it."""
    sphere = {tuple(2 * (j == i) for j in range(n + 1)): 1.0 for i in range(n + 1)}
    F = PolynomialSystem((HomogeneousPolynomial(n + 1, 2, sphere),) * n).normalized()
    mesh = build_mesh(n, t)
    f_all = np.concatenate(face_norms(F, mesh))
    # kappa's own rounding, mu^-2 = 0 here; 1/f may differ from it by an ulp
    kappa_all = float((1.0 / np.sqrt(f_all * f_all)).max())
    assert f_all.min() < f_all.max()
    for seed in (math.nextafter(kappa_all, 0.0), kappa_all):
        assert condition._scan(F, mesh, 0.0, 0.0, seed)[-1] == kappa_all


def tile_edge_zeros(m):
    """Lattice points k on +m faces of the n=2 grid at an edge of their tile:
    the first and last positions of a tile, the lone row of a run's last
    tile (axis 0, whose runs hold 2m+1 rows) and the last row of a short
    last tile (axis 2, 2m-1 rows).  A tile's centre is 7.5 steps away."""
    edges = [(m, k1, pos - m) for k1 in (0, 5, 1 - m) for pos in (0, 15, 16, 31, 2 * m)]
    return edges + [(k0, pos - (m - 1), m) for k0 in (0, -3) for pos in (0, 15, 16, 2 * m - 2)]


@pytest.mark.parametrize("k", tile_edge_zeros(64))
def test_zero_on_a_tile_edge_is_kept(k):
    """A linear system whose zero pair sits on a grid row at a tile's edge,
    not at its centre: the seeded level keeps that row, and equals the
    exhaustive pass, for a low seed and for the level's own maximum."""
    m = 64
    F = linear(3, [{(0, 1, 0): float(k[2]), (0, 0, 1): -float(k[1])},
                   {(1, 0, 0): float(k[2]), (0, 0, 1): -float(k[0])}])()
    mesh = build_mesh(2, 6)
    f_all, mu_all, adm_all, kappa_all = exhaustive(F, mesh)
    row = np.flatnonzero(np.all(mesh.lattice_at(np.arange(mesh.count // 2)) == k, axis=1))[0]
    assert f_all[row] < 1e-15 and 2**mesh.t == m
    for seed in (1.0, kappa_all):
        graph = _level(F, mesh, seed=seed)
        assert row in graph.low_rows
        assert_sparse_level(F, mesh, graph, f_all, adm_all, True)
        assert np.array_equal(graph.vertex_indices, np.nonzero(adm_all)[0])
        assert np.array_equal(graph.mus, mu_all[graph.candidates])
        assert graph.kappa == max(seed, kappa_all)


def exact_norm2(F, k):
    """|f|^2 at the pair point of the integer lattice point k, exactly."""
    k = [int(v) for v in k]
    radius2 = sum(v * v for v in k)
    total = Fraction(0)
    for f in F.polynomials:
        value = sum(Fraction(c) * math.prod(v**e for v, e in zip(k, a))
                    for a, c in f.coefficients.items())
        total += value * value / Fraction(radius2) ** f.degree
    return total


@pytest.mark.parametrize("n, degrees, t, seed, tile", [
    (1, (3,), 9, 0, 16), (1, (7,), 9, 1, 16), (2, (2, 2), 5, 2, 16), (2, (3, 2), 6, 3, 16),
    (3, (2, 2, 2), 4, 4, 4)])
def test_screen_skips_only_rows_at_or_above_the_cut(n, degrees, t, seed, tile, monkeypatch):
    """Every row the screen does not norm has |f| >= the cut, by the residual
    rule and exactly; a row just under the cut is normed, wherever it sits
    in its tile."""
    monkeypatch.setattr(condition, "TILE", tile)
    F = random_unit_system(n, degrees, seed)
    mesh = build_mesh(n, t)
    f_all = np.concatenate(face_norms(F, mesh))

    def kept(cut):
        return np.concatenate([r for r, *_ in condition._walk(F, mesh, residual_screen(cut))])

    for cut in np.quantile(f_all, [0.02, 0.2]):
        skipped = np.setdiff1d(np.arange(f_all.size), kept(cut))
        assert skipped.size and np.all(f_all[skipped] >= cut)
        closest = np.sort(skipped[np.argsort(f_all[skipped])[:50]])
        assert all(exact_norm2(F, k) >= Fraction(cut) ** 2 for k in mesh.lattice_at(closest))
    # per position in a tile, the row whose |f| falls most steeply to it
    faces = mesh.slabs()
    positions = np.concatenate([(np.arange(s.lo, s.hi) - s.lo) % s.row for s in faces])
    steep = np.abs(np.diff(f_all, prepend=f_all[0])) * (positions > 0)
    for offset in range(tile):
        at = np.flatnonzero(positions % tile == offset)
        row = at[np.argmax(steep[at])]
        assert row in kept(math.nextafter(f_all[row], math.inf))


@pytest.mark.parametrize("n, degrees, t", [(1, (3,), 6), (2, (2, 2), 4), (3, (2, 3, 2), 2)])
def test_level_evaluates_half_the_grid(n, degrees, t):
    """A level takes the residual rule at one point of each antipodal pair,
    and no grid row goes through the evaluation kernel."""
    rows, kernel_rows = [], []
    horner, evaluate = condition._horner, pl.evaluate_many

    def counted_horner(F, coeffs, radius2, x, out):
        rows.append(out[0].size)
        return horner(F, coeffs, radius2, x, out)

    def counted_evaluate_many(f, X):
        kernel_rows.append(X.shape[0])
        return evaluate(f, X)

    F = random_unit_system(n, degrees, 5)
    mesh = build_mesh(n, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_horner", counted_horner)
        mp.setattr(pl, "evaluate_many", counted_evaluate_many)
        counting._level(F, mesh)
    assert sum(rows) == mesh.count // 2
    assert sum(kernel_rows) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_empty_and_one_point_batches(n, rng):
    F = random_unit_system(n, (2,) * n, 3)
    empty = np.zeros((0, n + 1))
    assert mu_many(F, empty).shape == (0,)
    assert kappa_many(F, empty).shape == (0,)
    assert _sigma_min_columns([[np.empty(0)] * n for _ in range(n)]).shape == (0,)
    x = random_sphere_point(rng, n + 1)
    assert mu(F, x) == mu_many(F, (x / np.linalg.norm(x))[None, :])[0]
    assert kappa_many(F, x[None, :]).shape == (1,)
    identity = [[np.array([float(i == k)]) for i in range(n)] for k in range(n)]
    assert np.array_equal(_sigma_min_columns(identity), [1.0])
    mesh = build_mesh(n, 5)
    assert mesh.centres_at(np.empty(0, dtype=np.int64), 7.5).shape == (0, n + 1)
    assert mesh.centres_at([0], 0.0).tobytes() == mesh.points_at([0]).tobytes()
    centre = mesh.centres_at([0], 7.5)
    assert centre.shape == (1, n + 1) and mesh.points_at([8])[0] @ centre[0] > 0.9999
    ceilings, inv_mu2 = condition._tile_bounds(F, np.empty(0), 0.1, 0.04)
    assert ceilings.shape == inv_mu2.shape == (0,)
    ceilings, inv_mu2 = condition._tile_bounds(F, mu_many(F, centre, f_norm=1.0), 0.0, 0.04)
    assert ceilings.shape == inv_mu2.shape == (1,)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**16), size=st.integers(0, 30),
       data=st.data())
def test_rows_are_independent(n, seed, size, data):
    """mu and kappa of a row do not depend on the rest of the batch."""
    degrees = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    F = random_unit_system(n, degrees, seed)
    X = np.random.default_rng(seed).standard_normal((size, n + 1))
    X /= np.linalg.norm(X, axis=1)[:, None]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                    dtype=bool)
    full = mu_many(F, X, f_norm=1.0)
    assert np.array_equal(mu_many(F, X[mask], f_norm=1.0), full[mask])
    assert np.array_equal(kappa_many(F, X[mask]), kappa_many(F, X)[mask])
    assert np.all(full >= math.sqrt(n) * (1.0 - 1e-12))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**16), t=st.integers(5, 9), data=st.data())
def test_tile_bounds_hold_at_the_tile_geometry(n, seed, t, data):
    """On a random tile of a random run, mu at every row lies in the
    widened sandwich around mu at the tile's centre, half a step off the
    rows, and no row the tile's bounds prune is one the computed inclusion
    test or kappa would keep: at the least |f| each bound prunes, the
    row's ceiling and its kappa cut, ``_admissible`` fails and ``_kappa``
    does not beat ``best``."""
    degrees = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    F = random_unit_system(n, degrees, seed)
    mesh = SphereMesh(n, t)   # the rows only, so no grid-size cap
    slab = data.draw(st.sampled_from(list(mesh.slabs())))
    run = data.draw(st.integers(0, (slab.hi - slab.lo) // slab.row - 1))
    tile = data.draw(st.integers(0, -(-slab.row // condition.TILE) - 1))
    pos = tile * condition.TILE + np.arange(condition.TILE)
    rows = slab.lo + run * slab.row + pos[pos < slab.row]
    m, h = 2.0**t, (condition.TILE - 1) / 2
    delta = 2.0 * math.asin(h / (2.0 * m))
    centre = mesh.centres_at([slab.lo + run * slab.row + pos[0]], h)
    X = mesh.points_at(rows)
    assert np.all(np.linalg.norm(X - centre, axis=1) <= 2.0 * math.sin(delta / 2.0) + 1e-15)
    mu_c = mu_many(F, centre, f_norm=1.0)
    mus = mu_many(F, X, f_norm=1.0)
    lo, hi = condition._mu_sandwich(mu_c, F.max_degree**1.5 * F.weyl_norm * delta,
                                    condition._MU_SLACK)
    assert np.all((lo <= mus) & (mus <= hi))
    ceilings, inv_mu2 = condition._tile_bounds(F, mu_c, delta, _candidate_ceiling(F))
    assert not _admissible(np.broadcast_to(ceilings, mus.shape), mus, F.max_degree).any()
    best = data.draw(st.floats(0.5, 2.0 * float(mus.max()) if np.isfinite(mus.max()) else 1e3))
    cut = condition._kappa_cuts((1.0 / best) * (1.0 + condition._KAPPA_SLACK), inv_mu2)
    assert np.all(condition._kappa(np.broadcast_to(cut, mus.shape), mus) <= best)


@pytest.mark.parametrize("system, t", [CASES[0], CASES[3], CASES[5]])
@pytest.mark.parametrize("block", [1, 2, 8])
def test_scan_visits_each_contender_once(system, t, block, monkeypatch):
    """Whatever ``_FIRST_BLOCK`` and the seed, a pass takes mu at no row or
    tile centre twice, and its result is the exhaustive kappa maximum, bit
    for bit.  An unscreened pass takes mu at every row whose bound
    1/sqrt(f*f) beats that result; a screened one at the first row, in row
    order, whose kappa is the maximum, where that beats the seed.  Tile
    bounds on mu are taken on every grid."""
    monkeypatch.setattr(condition, "_MU_GAIN", 0.0)
    F = system()
    mesh = build_mesh(F.n, t)
    f_all, mu_all, _, kappa_all = exhaustive(F, mesh)
    kappa_rows = condition._kappa(f_all, mu_all)
    with np.errstate(divide="ignore"):
        bounds = 1.0 / np.sqrt(f_all * f_all)
    row_of = {x.tobytes(): i for i, x in enumerate(mesh.pair_points)}
    for below, ceiling in ((0.0, 0.0), low_cut(F, mesh)):
        for seed in (-math.inf, 1.0, kappa_all / 2, kappa_all):
            visited, centres = [], []

            def counted_mu_many(G, X, **kw):
                for x in X:
                    (visited.append(row_of[x.tobytes()]) if x.tobytes() in row_of
                     else centres.append(x.tobytes()))
                return mu_many(G, X, **kw)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(condition, "_FIRST_BLOCK", block)
                best = condition._scan(F, mesh, below, ceiling, seed, counted_mu_many)[-1]
            assert best == max(seed, kappa_all)
            assert len(visited) == len(set(visited))
            assert len(centres) == len(set(centres))
            if not screened(mesh, seed):
                assert not centres
                assert set(np.flatnonzero(bounds > best).tolist()) <= set(visited)
            elif kappa_all > seed:
                assert np.flatnonzero(kappa_rows == kappa_all)[0] in visited


@pytest.mark.parametrize("t, seeded", [(3, False), (7, True)])
def test_level_takes_mu_once_per_block(t, seeded):
    """The pass gathers the walk's chunks, across faces, into blocks of at
    most ``_BLOCK`` rows, each closed once it holds ``_BLOCK`` / 2, and a
    block with at most ``_FIRST_BLOCK`` kappa contenders beyond its
    candidates takes mu in one call.  The walk calls the level's mu
    function once per at most ``_BLOCK`` tile centres, and the pass once
    for each block with rows under their ceiling or their kappa cut, at
    those rows, for a dense level and for a seeded, screened one.  The
    dense n=2 t=3 level, 769 pairs on three faces, makes one call."""
    F = gaussian(2, (2, 2), 4000)()
    mesh = build_mesh(2, t)
    f_all, mu_all, _, _ = exhaustive(F, mesh)
    seed = _level(F, build_mesh(2, t - 1)).kappa if seeded else -math.inf
    row_of = {x.tobytes(): i for i, x in enumerate(mesh.pair_points)}
    ceiling, chunks, calls, centre_calls = _candidate_ceiling(F), [], [], []
    walk = condition._walk

    def recorded_walk(*args):
        """The walk, with the mu calls it makes itself, at tile centres."""
        steps = walk(*args)
        while True:
            made = len(calls)
            chunk = next(steps, None)
            centre_calls.extend(calls[made:])
            if chunk is None:
                return
            # a chunk without tile bounds has the floor's
            at = chunk[0].copy()
            chunks.append((at, *(chunk[2:] or (np.full(at.size, ceiling), np.zeros(at.size)))))
            yield chunk

    def counted_mu_many(G, X, **kw):
        calls.append(X.copy())
        return mu_many(G, X, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_walk", recorded_walk)
        mp.setattr(counting, "mu_many", counted_mu_many)
        mp.setattr(condition, "mu_many", counted_mu_many)
        _level(F, mesh, seed=seed)
    blocks, size = [[]], 0
    for chunk in chunks:
        if blocks[-1] and size + chunk[0].size > condition._BLOCK:
            blocks.append([])
            size = 0
        blocks[-1].append(chunk)
        size += chunk[0].size
        if size >= condition._BLOCK // 2:
            blocks.append([])
            size = 0
    blocks = [b for b in blocks if b]

    def kappa_cuts(best, inv_mu2):
        cut = math.inf if best == -math.inf else (1.0 / best) * (1.0 + condition._KAPPA_SLACK)
        return np.sqrt(np.maximum(cut * cut - inv_mu2, 0.0))

    assert all(X.shape[0] <= condition._BLOCK for X in centre_calls)
    best = seed
    rows_of = iter([X for X in calls if not any(X is c for c in centre_calls)])
    for block in blocks:
        at = np.concatenate([c[0] for c in block])
        f = f_all[at]
        ceilings, inv_mu2 = (np.concatenate([c[i] for c in block]) for i in (1, 2))
        cand = f < ceilings
        contend = ~cand & (f < kappa_cuts(best, inv_mu2))
        if not (cand | contend).any():
            continue
        visit = at[cand | contend]
        if np.count_nonzero(contend) > condition._FIRST_BLOCK:
            # the candidates and the contenders of greatest cap, then the
            # rest under the raised cut
            visit = next(rows_of)
            first = np.searchsorted(at, [row_of[x.tobytes()] for x in visit])
            cap = (f * f + inv_mu2)[contend]
            chosen = contend & np.isin(np.arange(at.size), first)
            assert np.array_equal(first, np.flatnonzero(cand | chosen))
            assert np.count_nonzero(chosen) == condition._FIRST_BLOCK
            assert (f * f + inv_mu2)[chosen].max() <= np.delete(cap, np.flatnonzero(
                chosen[contend])).min()
            best = max(best, _kappa_max(f[first], mu_all[at[first]]))
            contend &= ~chosen & (f < kappa_cuts(best, inv_mu2))
            visit = at[contend]
            if not visit.size:
                continue
        assert next(rows_of).tobytes() == mesh.pair_points[visit].tobytes()
        best = max(best, _kappa_max(f_all[visit], mu_all[visit]))
    assert next(rows_of, None) is None
    if seeded:
        assert len(blocks) > 1 and centre_calls
    else:
        assert len(calls) == 1 and mesh.count // 2 == 769
