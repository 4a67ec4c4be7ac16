"""The counting loop and kappa_grid compute mu only where it can change an
answer; these tests pin that the pruned passes equal exhaustive ones with
``==``, not approximately.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecount import condition
from spherecount import polynomials as pl
from spherecount.certification import _admissible
from spherecount.condition import (_blocks, _kappa_max, _sigma_min_batch,
                                   bounded_max, kappa_grid, kappa_many, mu,
                                   mu_many, sample_gaussian_system)
from spherecount import counting
from spherecount.counting import (_candidate_ceiling, _kappa_estimate, _level,
                                  build_graph, count_affine, initial_eta,
                                  root_count)
from spherecount.mesh import build_mesh
from spherecount.polynomials import (AffinePolynomial, HomogeneousPolynomial,
                                     PolynomialSystem, evaluate_many)

from conftest import random_sphere_point, random_unit_system


def exhaustive(F, points):
    """Residuals, mu, admissibility and the kappa maximum at every point."""
    f_norms = np.linalg.norm(evaluate_many(F, points), axis=1)
    mus = mu_many(F, points, f_norm=1.0)
    admissible = _admissible(f_norms, mus, F.max_degree)
    kappa = _kappa_max(f_norms, mus)
    return f_norms, mus, admissible, (kappa if kappa > -math.inf else math.inf)


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
    """The level's low rows, their data and the block minima equal what the
    residuals at every pair row give, bit for bit."""
    low = np.nonzero(f_all < graph.limit)[0]
    assert np.array_equal(graph.low_rows, low)
    assert graph.low_norms.tobytes() == f_all[low].tobytes()
    assert graph.low_points.tobytes() == mesh.pair_points[low].tobytes()
    assert np.array_equal(graph.candidates, np.nonzero(f_all < _candidate_ceiling(F))[0])
    spans = [f_all[b[0].lo:b[-1].hi] for b in _blocks(mesh)]
    least = [np.min(f, where=f >= graph.limit, initial=math.inf) for f in spans]
    assert np.array_equal(graph.least, least)


@pytest.mark.parametrize("system, t", CASES)
@pytest.mark.parametrize("seed", [-math.inf, 3.0, math.inf])
def test_level_matches_exhaustive(system, t, seed):
    """Whatever rows the level keeps (``seed`` moves its limit), its sparse
    outputs and the kappa walk equal an exhaustive pass over the pair points."""
    F = system()
    n = F.n
    mesh = build_mesh(n, t)
    points = mesh.pair_points
    f_all, mu_all, adm_all, kappa_all = exhaustive(F, points)
    rows = []

    def counted_mu_many(G, X, **kw):
        rows.append(X.shape[0])
        return mu_many(G, X, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "mu_many", counted_mu_many)
        mp.setattr(condition, "mu_many", counted_mu_many)
        graph = _level(F, mesh, seed=seed)
        kappa, revisited = _kappa_estimate(F, mesh, graph)
    assert_sparse_level(F, mesh, graph, f_all)
    assert np.array_equal(graph.vertex_indices, np.nonzero(adm_all)[0])
    assert np.array_equal(graph.admissible, adm_all[graph.candidates])
    assert kappa == kappa_all
    assert np.array_equal(graph.mus, mu_all[graph.candidates])
    assert np.all(graph.mus >= math.sqrt(n) * (1.0 - 1e-12))
    assert revisited % 1 == 0 and revisited <= points.shape[0]
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
    _, mu_all, adm_all, _ = exhaustive(Fn, mesh.pair_points)
    assert np.array_equal(graph.admissible, adm_all[graph.candidates])
    assert np.array_equal(graph.vertex_indices, np.nonzero(adm_all)[0])
    assert list(graph.mus) == list(mu_all[graph.candidates])
    # mu and the inclusion test are kept at the admissibility candidates only
    assert graph.mus.shape == graph.admissible.shape == graph.candidates.shape
    assert_sparse_level(Fn, mesh, graph, exhaustive(Fn, mesh.pair_points)[0])
    assert np.array_equal(graph.vertex_indices, graph.candidates[graph.admissible])


@pytest.mark.parametrize("seed", [4000, 4002, 4006])
def test_root_count_kappa_matches_exhaustive(seed):
    F = random_unit_system(2, (2, 2), seed)
    res = root_count(F, max_t=6)
    t = initial_eta(2)[1] + res.iterations
    _, _, _, kappa = exhaustive(F.normalized(), build_mesh(2, t).points)
    assert res.kappa_grid_estimate == kappa


def test_root_count_takes_kappa_once():
    calls = []
    walk = counting._kappa_walk

    def counted_kappa_walk(*args, **kw):
        calls.append(1)
        return walk(*args, **kw)

    F = random_unit_system(2, (2, 2), 4000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_kappa_walk", counted_kappa_walk)
        res = root_count(F, max_t=5)
    assert res.iterations >= 3
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [4000, 4001, 4002, 4003])
def test_streamed_kappa_matches_the_built_grid(seed):
    """The loop's walk, over blocks generated again, gives kappa_grid's value
    on the built final grid bit for bit."""
    F = sample_gaussian_system(2, (2, 2), seed)
    res = root_count(F, max_t=8)
    t = initial_eta(2)[1] + res.iterations
    assert res.kappa_grid_estimate == kappa_grid(F, build_mesh(2, t))[0]


@pytest.mark.parametrize("candidates_only", [False, True])
def test_streamed_walk_matches_kappa_grid_n3(candidates_only):
    """On 40 Gaussian (2,2,2) systems at t=4 the streamed walk of a level
    equals kappa_grid's walk over the built grid.  A level that keeps only
    its candidates leaves most rows to the blocks the walk evaluates again."""
    mesh = build_mesh(3, 4)
    revisits = 0
    with pytest.MonkeyPatch.context() as mp:
        if candidates_only:
            mp.setattr(counting, "_keep_limit", lambda F, eta, seed: _candidate_ceiling(F))
        for seed in range(40):
            F = sample_gaussian_system(3, (2, 2, 2), seed)
            Fn = F.normalized()
            kappa, revisited = _kappa_estimate(Fn, mesh, _level(Fn, mesh))
            assert kappa == kappa_grid(F, mesh)[0]
            revisits += revisited > 0
    if candidates_only:
        assert revisits > 0


def test_affine_loop_matches_exhaustive():
    cubic = AffinePolynomial(1, {(3,): 1.0, (1,): -1.0})   # x^3 - x
    res, _ = count_affine([cubic], max_t=6)
    F = PolynomialSystem((pl.homogenize(cubic),)).normalized()
    t = initial_eta(F.n)[1] + res.iterations
    mesh = build_mesh(F.n, t)
    f_all, mu_all, adm_all, kappa_all = exhaustive(F, mesh.pair_points)
    assert res.kappa_grid_estimate == kappa_all
    graph = _level(F, mesh)
    assert_sparse_level(F, mesh, graph, f_all)
    kappa, _ = _kappa_estimate(F, mesh, graph)
    assert np.array_equal(graph.candidates[graph.admissible], np.nonzero(adm_all)[0])
    assert np.array_equal(graph.admissible, adm_all[graph.candidates])
    assert kappa == kappa_all
    assert np.array_equal(graph.mus, mu_all[graph.candidates])


@pytest.mark.parametrize("n, degrees, seed, t", [
    (2, (2, 2), 11, 5), (2, (2, 3), 12, 4), (3, (2, 2, 2), 0, 3), (3, (2, 2, 2), 5, 3)])
def test_kappa_grid_matches_exhaustive(n, degrees, seed, t):
    F = sample_gaussian_system(n, degrees, seed)
    mesh = build_mesh(n, t)
    full = float(np.max(kappa_many(F, mesh.points)))
    assert kappa_grid(F, mesh)[0] == full
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_BLOCK", 512)
        assert kappa_grid(F, mesh)[0] == full


# grids of 4k to 16k pairs, so 512- and 200-row blocks split them into many
@pytest.mark.parametrize("n, degrees, t", [
    *[(n, (d,) * n, t) for n, t in ((1, 10), (2, 5), (3, 3)) for d in range(1, 8)],
    (2, (4, 5), 5), (2, (3, 2), 5), (2, (1, 7), 5), (3, (2, 3, 4), 3)])
def test_mirrored_residuals_match_direct_evaluation(n, degrees, t):
    """The half-grid pass equals a direct evaluation bit for bit at every pair
    point and at its mirror, for any block size."""
    F = sample_gaussian_system(n, degrees, sum(degrees) + 10 * n)
    mesh = build_mesh(n, t)
    direct = np.linalg.norm(evaluate_many(F, mesh.pair_points), axis=1)
    mirrored = np.linalg.norm(evaluate_many(F, -mesh.pair_points + 0.0), axis=1)
    assert np.array_equal(direct, mirrored)
    for block in (condition._BLOCK, 512, 200):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(condition, "_BLOCK", block)
            norms = condition._residual_norms(F, mesh)
            assert np.array_equal(norms, direct)
            # the streamed pass keeps every row below an infinite limit
            rows, streamed, points, least = condition._scan(F, mesh, math.inf)
            assert np.array_equal(rows, np.arange(mesh.count // 2))
            assert streamed.tobytes() == direct.tobytes()
            assert points.tobytes() == mesh.pair_points.tobytes()
            assert np.all(least == math.inf)


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
    """A level evaluates f at one point of each antipodal pair."""
    rows = []
    evaluate = pl.evaluate_many

    def counted_evaluate_many(f, X):
        rows.append(X.shape[0])
        return evaluate(f, X)

    F = random_unit_system(n, degrees, 5)
    mesh = build_mesh(n, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "evaluate_many", counted_evaluate_many)
        counting._level(F, mesh)
    assert sum(rows) == mesh.count // 2


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
        mp.setattr(condition, "_LAST_BLOCK", 4 * block)
        best = bounded_max(bounds, visit, best=-math.inf)
    assert best == max(values.tolist(), default=-math.inf)
    assert len(visited) == len(set(visited))
    # a position whose bound beats the answer must have been looked at
    assert set(np.nonzero(bounds > best)[0].tolist()) <= set(visited)
