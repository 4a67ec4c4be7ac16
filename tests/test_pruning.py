"""The counting loop and kappa_grid compute mu only where it can change an
answer; these tests pin that the pruned passes equal exhaustive ones with
``==``, not approximately.  Every residual of a grid comes from the one
residual rule (``condition._block_norms``), so the exhaustive references
take it too, over one slab per face.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecount import condition
from spherecount import polynomials as pl
from spherecount.certification import _admissible
from spherecount.cli import parse_polynomial
from spherecount.condition import (_blocks, _kappa_max, _row_norms,
                                   _sigma_min_batch, bounded_max, kappa_grid,
                                   kappa_many, mu, mu_many,
                                   sample_gaussian_system)
from spherecount import counting
from spherecount.counting import (_candidate_ceiling, _level, build_graph,
                                  count_affine, exclusion_threshold,
                                  initial_eta, root_count)
from spherecount.mesh import build_mesh
from spherecount.polynomials import (AffinePolynomial, HomogeneousPolynomial,
                                     PolynomialSystem, evaluate_many)

from conftest import random_sphere_point, random_unit_system


def face_norms(F, mesh):
    """|f| at the pair rows of each face of ``mesh``, one face per call of the
    residual rule, so no block boundary of a streamed pass is shared."""
    return [condition._block_norms(F, mesh, (s,), np.empty((3, s.hi - s.lo)))
            for s in mesh.slabs(mesh.count // 2)]


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


def assert_sparse_level(F, mesh, graph, f_all):
    """The level keeps its candidates and its possible exclusion failures,
    with the residuals and candidate points that every pair row gives, bit
    for bit."""
    cand = f_all < _candidate_ceiling(F)
    low = np.nonzero(cand | (f_all <= exclusion_threshold(F, mesh.eta)))[0]
    assert np.array_equal(graph.low_rows, low)
    assert graph.low_norms.tobytes() == f_all[low].tobytes()
    assert np.array_equal(graph.candidates, np.nonzero(cand)[0])
    assert graph.points.tobytes() == mesh.pair_points[cand].tobytes()


@pytest.mark.parametrize("system, t", CASES)
@pytest.mark.parametrize("seed", [-math.inf, 3.0, math.inf])
def test_level_matches_exhaustive(system, t, seed):
    """The level's sparse outputs equal an exhaustive pass over the pair
    points, and its kappa is the exhaustive maximum raised to ``seed``."""
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
    assert_sparse_level(F, mesh, graph, f_all)
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
    assert_sparse_level(Fn, mesh, graph, f_all)
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
    """No block of a level is normed twice: the rows through the residual
    rule are the pair rows of the levels (seed 4002 stops at t=3)."""
    normed = []
    block_norms = condition._block_norms

    def counted_block_norms(F, mesh, block, work):
        normed.append(block[-1].hi - block[0].lo)
        return block_norms(F, mesh, block, work)

    F = sample_gaussian_system(2, (2, 2), 4002)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_block_norms", counted_block_norms)
        res, levels = levels_of(lambda: root_count(F, max_t=6))
    assert res.stopped and len(levels) == 2
    assert sum(normed) == sum(mesh.count // 2 for mesh, _ in levels) == 962


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
    assert_sparse_level(F, mesh, graph, f_all)
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


# grids of 4k to 16k pairs, so 512- and 200-row blocks split them into many;
# 16-row slabs are shorter than a lattice row of every grid, so their runs
# are single rows (depth = n)
@pytest.mark.parametrize("n, degrees, t", [
    *[(n, (d,) * n, t) for n, t in ((1, 10), (2, 5), (3, 3)) for d in range(1, 8)],
    (2, (4, 5), 5), (2, (3, 2), 5), (2, (1, 7), 5), (3, (2, 3, 4), 3)])
def test_mirrored_residuals_match_direct_evaluation(n, degrees, t):
    """The evaluation kernel is sign-symmetric, and the streamed pass equals
    the residual rule taken one face at a time bit for bit, for any block
    size: a row's residual does not depend on the block that holds it."""
    F = sample_gaussian_system(n, degrees, sum(degrees) + 10 * n)
    mesh = build_mesh(n, t)
    direct = np.linalg.norm(evaluate_many(F, mesh.pair_points), axis=1)
    mirrored = np.linalg.norm(evaluate_many(F, -mesh.pair_points + 0.0), axis=1)
    assert np.array_equal(direct, mirrored)
    faces = np.concatenate(face_norms(F, mesh))
    for block in (condition._BLOCK, 512, 200, 16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(condition, "_BLOCK", block)
            # the streamed pass keeps every row below an infinite limit, and
            # none is at or above an infinite ceiling, so it takes no kappa
            rows, streamed, best = condition._scan(F, mesh, math.inf, math.inf)
            assert np.array_equal(rows, np.arange(mesh.count // 2))
            assert streamed.tobytes() == faces.tobytes()
            assert best == -math.inf


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
    # 2m+1 = 16,385 > _BLOCK: one slab holds part of a face, depth == n, and
    # the Horner variable is the slab's leading index
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
    blocks = _blocks(mesh)
    if F.n == 1:
        assert any(s.depth == F.n for b in blocks for s in b)
    work = np.empty((3, condition._BLOCK))
    with np.errstate(over="raise", invalid="raise"):
        horner = np.concatenate([condition._block_norms(F, mesh, b, work).copy()
                                 for b in blocks])
    direct = _row_norms(evaluate_many(F, mesh.pair_points))
    terms = max(len(p.coefficients) for p in F.polynomials)
    bound = (3 * F.max_degree + terms + F.n + 2) * np.finfo(float).eps
    assert np.all(np.abs(horner - direct) <= bound * rounding_scale(F, mesh.pair_points))


@pytest.mark.parametrize("rows, blocks", [(0, []), (1, [1]), (1000, [40] + [64] * 15)])
def test_map_rows_fills_every_block(rows, blocks):
    """The block map covers empty input, one row and a ragged last block."""
    X = np.random.default_rng(rows).standard_normal((rows, 3))
    expected = X[:, 0] * X[:, 1] - X[:, 2]
    seen = []

    def fn(B):
        seen.append(B.shape[0])
        return B[:, 0] * B[:, 1] - B[:, 2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_BLOCK", 64)
        out = condition._map_rows(fn, X)
    assert out.shape == (rows,)
    assert np.array_equal(out, expected)
    assert sorted(seen) == blocks


@pytest.mark.parametrize("n, degrees, t", [(1, (3,), 6), (2, (2, 2), 4), (3, (2, 3, 2), 2)])
def test_level_evaluates_half_the_grid(n, degrees, t):
    """A level takes the residual rule at one point of each antipodal pair,
    and no grid row goes through the evaluation kernel."""
    rows, kernel_rows = [], []
    block_norms, evaluate = condition._block_norms, pl.evaluate_many

    def counted_block_norms(F, mesh, block, work):
        rows.append(block[-1].hi - block[0].lo)
        return block_norms(F, mesh, block, work)

    def counted_evaluate_many(f, X):
        kernel_rows.append(X.shape[0])
        return evaluate(f, X)

    F = random_unit_system(n, degrees, 5)
    mesh = build_mesh(n, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_block_norms", counted_block_norms)
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
    assert _sigma_min_batch(np.zeros((0, n, n))).shape == (0,)
    x = random_sphere_point(rng, n + 1)
    assert mu_many(F, x[None, :])[0] == pytest.approx(mu(F, x), rel=1e-9)
    assert kappa_many(F, x[None, :]).shape == (1,)
    assert np.array_equal(_sigma_min_batch(np.eye(n)[None]), [1.0])


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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), block=st.integers(1, 8))
def test_bounded_max_is_exact(data, block):
    bounds = np.array(data.draw(st.lists(
        st.floats(0.0, 1e3) | st.just(math.inf), max_size=60)))
    shrink = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=bounds.size,
                                         max_size=bounds.size)))
    values = np.minimum(bounds, 1e3) * shrink
    visited = []

    def visit(idx):
        visited.extend(idx.tolist())
        return float(values[idx].max())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_FIRST_BLOCK", block)
        best = bounded_max(bounds, visit, best=-math.inf)
    assert best == max(values.tolist(), default=-math.inf)
    assert len(visited) == len(set(visited))
    # a position whose bound beats the answer must have been looked at
    assert set(np.nonzero(bounds > best)[0].tolist()) <= set(visited)
