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
from spherecount.condition import (_sigma_min_batch, bounded_max, kappa_grid,
                                   kappa_many, mu, mu_many,
                                   sample_gaussian_system)
from spherecount.counting import (_PoleData, _admissible_mask,
                                  _balanced_scaled_lift, _candidate_ceiling,
                                  _kappa_max,
                                  _point_data, build_graph, count_affine,
                                  initial_eta, root_count)
from spherecount.mesh import build_mesh
from spherecount.polynomials import (AffinePolynomial, HomogeneousPolynomial,
                                     PolynomialSystem, evaluate_many,
                                     lifted_poles)

from conftest import random_sphere_point, random_unit_system


def exhaustive(F, points, sample=None):
    """Residuals, mu, admissibility and the kappa maximum at every point."""
    f_norms = np.linalg.norm(evaluate_many(F, points), axis=1)
    mus = mu_many(F, points, f_norm=1.0)
    admissible = _admissible_mask(F, f_norms, mus)
    keep = slice(None) if sample is None else sample
    kappa = _kappa_max(f_norms[keep], mus[keep])
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


@pytest.mark.parametrize("system, t", CASES)
def test_point_data_matches_exhaustive(system, t):
    F = system()
    n = F.n
    points = build_mesh(n, t).points
    f_all, mu_all, adm_all, kappa_all = exhaustive(F, points)
    f_norms, mus, admissible, kappa = _point_data(
        F, points, kappa_sample=np.ones(points.shape[0], dtype=bool))
    assert np.array_equal(f_norms, f_all)
    assert np.array_equal(admissible, adm_all)
    assert kappa == kappa_all
    done = ~np.isnan(mus)
    assert np.array_equal(mus[done], mu_all[done])
    assert np.all(mus[done] >= math.sqrt(n) * (1.0 - 1e-12))
    # kappa of a well-conditioned system is near 1 everywhere, so 1/|f|
    # prunes nothing there; elsewhere few points need mu
    if kappa_all > 2.0:
        assert done.sum() < points.shape[0] // 4


@pytest.mark.parametrize("system, t", CASES[:3] + CASES[5:])
def test_build_graph_matches_exhaustive(system, t):
    F = system()
    mesh = build_mesh(F.n, t)
    graph = build_graph(F, mesh)
    Fn = F.normalized()
    _, mu_all, adm_all, _ = exhaustive(Fn, mesh.points)
    assert np.array_equal(graph.admissible, adm_all)
    assert np.array_equal(graph.vertex_indices, np.nonzero(adm_all)[0])
    assert [c.mu for c in graph.certificates] == list(mu_all[graph.vertex_indices])
    # mu is computed at the admissibility candidates only
    assert np.array_equal(np.isnan(graph.mus),
                          graph.f_norms >= _candidate_ceiling(Fn))


@pytest.mark.parametrize("seed", [4000, 4002, 4006])
def test_root_count_kappa_matches_exhaustive(seed):
    F = random_unit_system(2, (2, 2), seed)
    res = root_count(F, max_t=6)
    t = initial_eta(2)[1] + res.iterations
    _, _, _, kappa = exhaustive(F.normalized(), build_mesh(2, t).points)
    assert res.kappa_grid_estimate == kappa


def test_lifted_loop_matches_exhaustive():
    polys = [AffinePolynomial(1, {(3,): 1.0, (1,): -1.0})]   # x^3 - x
    res, _ = count_affine(polys, max_t=6, aux_scale=1.0)
    lifted = _balanced_scaled_lift(polys, 1.0).normalized()
    t = initial_eta(lifted.n)[1] + res.iterations
    points = build_mesh(lifted.n, t).points
    poles = _PoleData(poles=tuple(lifted_poles(lifted.n_vars)))
    sample = poles.distances(points) > 0.2
    _, mu_all, adm_all, kappa_all = exhaustive(lifted, points, sample)
    assert res.kappa_grid_estimate == kappa_all
    _, mus, admissible, kappa = _point_data(lifted, points, kappa_sample=sample)
    assert np.array_equal(admissible, adm_all)
    assert kappa == kappa_all
    done = ~np.isnan(mus)
    assert np.array_equal(mus[done], mu_all[done])


@pytest.mark.parametrize("n, degrees, seed, t", [
    (2, (2, 2), 11, 5), (2, (2, 3), 12, 4), (3, (2, 2, 2), 0, 3), (3, (2, 2, 2), 5, 3)])
def test_kappa_grid_matches_exhaustive(n, degrees, seed, t):
    F = sample_gaussian_system(n, degrees, seed)
    mesh = build_mesh(n, t)
    full = float(np.max(kappa_many(F, mesh.points)))
    assert kappa_grid(F, mesh)[0] == full
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condition, "_CHUNK", 512)
        assert kappa_grid(F, mesh)[0] == full


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
        best = bounded_max(bounds, visit, best=-math.inf, max_block=4 * block)
    assert best == max(values.tolist(), default=-math.inf)
    assert len(visited) == len(set(visited))
    # a position whose bound beats the answer must have been looked at
    assert set(np.nonzero(bounds > best)[0].tolist()) <= set(visited)
