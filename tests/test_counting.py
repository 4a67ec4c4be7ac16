import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherecount
from spherecount import condition
from spherecount.certification import inclusion_test, refine_zero
from spherecount.condition import kappa_grid
from spherecount.convergence import ALPHA, r0
from spherecount.counting import (CountResult, _clusters,
                                  _exclusion_failures, build_graph,
                                  check_stop, count_affine, initial_eta,
                                  predicted_complexity,
                                  predicted_eta_threshold, root_count)
from spherecount.mesh import (MeshSizeError, angular_distance, build_mesh,
                             pairwise_angular)
from spherecount.polynomials import (AffinePolynomial, HomogeneousPolynomial,
                                     PolynomialSystem, evaluate, lift_affine,
                                     lifted_poles, normalize)

from conftest import random_unit_system
from oracles import circle_roots, sphere_zeros_oracle


def single(n_vars, degree, coeffs):
    return PolynomialSystem((HomogeneousPolynomial(n_vars, degree, coeffs),))


def linear_product(slopes):
    terms = {(0, 1): 1.0, (1, 0): -slopes[0]}
    for s in slopes[1:]:
        nxt = {}
        for (e0, e1), c in terms.items():
            for (d0, d1), b in {(0, 1): 1.0, (1, 0): -s}.items():
                key = (e0 + d0, e1 + d1)
                nxt[key] = nxt.get(key, 0.0) + c * b
        terms = nxt
    return single(2, len(slopes), terms)


def coordinate_pair():
    return PolynomialSystem((
        HomogeneousPolynomial(3, 1, {(0, 1, 0): 1.0}),
        HomogeneousPolynomial(3, 1, {(0, 0, 1): 1.0}),
    ))


def bfs_components(m, pairs):
    """Connected components by breadth-first search, in discovery order."""
    adjacent = [[] for _ in range(m)]
    for i, j in pairs:
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen = [False] * m
    components = []
    for start in range(m):
        if seen[start]:
            continue
        seen[start] = True
        queue, members = [start], []
        while queue:
            v = queue.pop(0)
            members.append(v)
            for w in adjacent[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        components.append(tuple(sorted(members)))
    return tuple(components)


def projective_angular(points):
    """Angles between the antipodal pairs of the rows: min(d, pi - d)."""
    dist = pairwise_angular(points)
    return np.minimum(dist, math.pi - dist)


def pair_lattice(mesh):
    """The integer lattice point of each pair point (see SphereMesh.lattice)."""
    P = mesh.pair_points
    scale = 2.0**mesh.t / np.max(np.abs(P), axis=1)
    return np.rint(P * scale[:, None]).astype(np.int64)


def labelled_separation(dist, components):
    """Least distance across components, from hand-built labels."""
    labels = np.empty(dist.shape[0], dtype=int)
    for ci, comp in enumerate(components):
        labels[list(comp)] = ci
    different = labels[:, None] != labels[None, :]
    return float(dist[different].min()) if different.any() else math.inf


class TestClusters:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 40), dim=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1), scalar=st.booleans(),
           scale=st.floats(0.0, 1.5))
    def test_matches_brute_force(self, m, dim, seed, scalar, scale):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((m, dim))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        if scalar:
            reach = scale
        else:
            half = rng.uniform(0.0, scale, (m, m))
            reach = half + half.T
        dist = projective_angular(points)
        bound = np.broadcast_to(reach, (m, m))
        expected = tuple((i, j) for i in range(m) for j in range(i + 1, m)
                         if dist[i, j] <= bound[i, j])
        components, separation = _clusters(points, reach)
        assert components == bfs_components(m, expected)
        assert separation == labelled_separation(dist, components)

    def test_near_antipodes_link(self):
        # b is 0.01 rad from -a, so a and b are one pair apart by 0.01; c is
        # pi/2 from a and pi/2 - 0.01 from -b
        a = np.array([1.0, 0.0])
        b = -np.array([math.cos(0.01), math.sin(0.01)])
        c = np.array([0.0, 1.0])
        assert angular_distance(a, b) > 3.0
        components, separation = _clusters(np.array([a, b, c]), 0.05)
        assert components == ((0, 1), (2,))
        assert separation == pytest.approx(math.pi / 2 - 0.01, abs=1e-12)
        assert _clusters(np.array([a, c]), 0.05) == (((0,), (1,)), math.pi / 2)


def test_count_leaves_scipy_sparse_unloaded():
    """The graph's components come from numpy alone, so a count that links
    many vertices (Gaussian (2,2) seed 4000 to t=6) never loads scipy.sparse."""
    src = os.path.dirname(os.path.dirname(spherecount.__file__))
    code = ("import sys; from spherecount import root_count, sample_gaussian_system; "
            "res = root_count(sample_gaussian_system(2, (2, 2), 4000), max_t=6); "
            "print(res.iterations, 'scipy.sparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["5", "False"]


class TestBuildGraph:
    def test_vertices_cluster_at_zeros(self):
        # x1 vanishes at the one antipodal pair +-e0: one component, two zeros
        F = single(2, 1, {(0, 1): 1.0})
        mesh = build_mesh(1, 3)
        g = build_graph(F, mesh)
        assert len(g.components) == 1
        res = root_count(F, max_t=3)
        assert res.stopped and res.count == 2
        for idx in g.vertex_indices:
            x = mesh.pair_points[idx]
            assert min(abs(angular_distance(x, np.array([1.0, 0.0]))),
                       abs(angular_distance(x, np.array([-1.0, 0.0])))) < 0.5

    def test_no_admissible_points(self):
        # x0^2 + x1^2 has no zeros on the circle: nothing is admissible
        F = single(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
        mesh = build_mesh(1, 3)
        g = build_graph(F, mesh)
        assert len(g.vertex_indices) == 0
        assert g.components == ()

    def test_chain_is_one_component(self):
        F = single(2, 1, {(0, 1): 1.0})
        mesh = build_mesh(1, 5)
        g = build_graph(F, mesh)
        # the several vertices around the zero pair +-e0 chain into a
        # single component, and their pair points all lie near +e0
        assert len(g.components) == 1
        for comp in g.components:
            assert len(comp) >= 2
            pts = mesh.pair_points[g.vertex_indices[list(comp)]]
            assert np.ptp(np.sign(pts[:, 0])) == 0.0

    def test_components_partition_vertices(self):
        F = single(2, 1, {(0, 1): 1.0, (1, 0): -0.05})
        mesh = build_mesh(1, 4)
        g = build_graph(F, mesh)
        flat = [v for comp in g.components for v in comp]
        assert sorted(flat) == list(range(len(g.vertex_indices)))

    @settings(max_examples=40, deadline=None)
    @given(slopes=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
           t=st.integers(2, 6))
    def test_separation_matches_labels(self, slopes, t):
        F = linear_product(slopes)
        mesh = build_mesh(1, t)
        g = build_graph(F, mesh)
        dist = projective_angular(mesh.pair_points[g.vertex_indices])
        assert g.separation == labelled_separation(dist, g.components)


    @pytest.mark.parametrize("system, t", [
        (lambda: linear_product((0.4, -0.9, 1.2)), 6),
        (coordinate_pair, 4),
        (lambda: random_unit_system(2, (2, 2), 21), 6),
    ])
    def test_radii_match_inclusion_test(self, system, t):
        # the graph takes |f| by the residual rule and mu at the pair point;
        # inclusion_test takes |f| by the evaluation kernel and mu at the
        # point renormalized, so the two radii differ by a few ulp
        F = system()
        mesh = build_mesh(F.n, t)
        g = build_graph(F, mesh)
        assert len(g.radii) == len(g.vertex_indices) > 0
        for pos, idx in enumerate(g.vertex_indices):
            cert = inclusion_test(F, mesh.pair_points[idx])
            assert cert.admissible
            assert g.radii[pos] == pytest.approx(cert.inclusion_radius, rel=1e-10)


class TestCheckStop:
    def test_clean_instance_stops(self):
        F = coordinate_pair()
        mesh = build_mesh(2, 4)
        g = build_graph(F, mesh)
        stop = check_stop(F, mesh, g)
        assert stop["separation_ok"] and stop["exclusion_ok"]

    def test_close_components_fail_separation(self):
        # zeros 0.46 rad apart, spacing coarse enough that 2 eta sqrt(n)
        # exceeds their distance
        F = linear_product((0.0, 0.5))
        mesh = build_mesh(1, 2)
        g = build_graph(F, mesh)
        assert len(g.components) > 1
        assert not check_stop(F, mesh, g)["separation_ok"]

    def test_low_residual_point_fails_exclusion(self):
        F = linear_product((0.0, 0.08))
        mesh = build_mesh(1, 2)
        g = build_graph(F, mesh)
        assert not check_stop(F, mesh, g)["exclusion_ok"]

    @settings(max_examples=40, deadline=None)
    @given(slopes=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
           t=st.integers(2, 6))
    def test_exclusion_without_poles_is_no_failure(self, slopes, t):
        # exclusion holds exactly when no pair fails both tests
        F = linear_product(slopes)
        mesh = build_mesh(1, t)
        g = build_graph(F, mesh)
        assert check_stop(F, mesh, g)["exclusion_ok"] == (
            _exclusion_failures(F, mesh, g).size == 0)


class TestRootCount:
    def test_coordinate_pair(self):
        res = root_count(coordinate_pair(), max_t=8)
        assert res.stopped and res.count == 2
        zs = sorted(float(z.zeta[0]) for z in res.zeros)
        assert zs == pytest.approx([-1.0, 1.0], abs=1e-12)
        for z in res.zeros:
            assert z.converged

    def test_two_projective_lines(self):
        F = linear_product((0.3, -0.7))
        res = root_count(F, max_t=10)
        assert res.stopped and res.count == 4
        expected = [normalize(np.array([1.0, s])) for s in (0.3, -0.7)]
        expected += [-z for z in expected]
        for z in res.zeros:
            assert min(np.linalg.norm(z.zeta - e) for e in expected) < 1e-10

    def test_matches_circle_oracle(self):
        for slopes in [(0.3,), (0.45, -0.2), (0.9, -0.5, 0.1)]:
            F = linear_product(slopes)
            res = root_count(F, max_t=10)
            oracle = circle_roots(F.polynomials[0], samples=4000)
            assert res.stopped
            assert res.count == len(oracle)

    def test_matches_sphere_oracle_random(self):
        for seed in (21, 22, 29, 30, 33):
            F = random_unit_system(2, (2, 2), seed)
            res = root_count(F, max_t=8)
            assert res.stopped
            oracle = sphere_zeros_oracle(F, starts=1500)
            assert res.count == len(oracle)

    def test_budget_exhaustion_reported(self):
        # nearly coincident zeros cannot be separated at coarse spacing
        F = linear_product((0.0, 1e-9))
        res = root_count(F, max_t=4)
        assert not res.stopped
        assert isinstance(res, CountResult)

    def test_singular_zero_on_grid_gives_infinite_kappa(self):
        F = single(2, 2, {(0, 2): 1.0})   # x1^2: double zeros at +-e0
        res = root_count(F, max_t=6)
        t = initial_eta(1)[1] + res.iterations
        assert not res.stopped
        assert res.kappa_grid_estimate == kappa_grid(F, build_mesh(1, t))[0]
        assert res.kappa_grid_estimate == math.inf
        assert res.predicted_eta_threshold is None

    def test_evaluations_count_pair_rows(self):
        # x1^2 never stops, and its double zeros are singular, so no level
        # has a vertex: each level evaluates its 4 * 2^t pairs once
        res = root_count(single(2, 2, {(0, 2): 1.0}), max_t=8)
        assert not res.stopped and res.kappa_grid_estimate == math.inf
        assert res.evaluations == sum(4 * 2**t for t in range(2, 9))
        assert res.evaluations == sum(build_mesh(1, t).count // 2 for t in range(2, 9))

    def test_level_ten_streams_in_bounded_memory(self, monkeypatch):
        # the t=10 grid of an n=2 system has 12,582,913 antipodal pairs: as
        # (pairs, 3) floats it alone would take 302 MB
        import tracemalloc

        monkeypatch.setattr("spherecount.mesh.MESH_POINT_CAP", 30_000_000)
        F = random_unit_system(2, (2, 2), 4001)
        tracemalloc.start()
        try:
            res = root_count(F, max_t=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.stopped and res.count == 4
        assert initial_eta(2)[1] + res.iterations == 10
        assert res.count == len(sphere_zeros_oracle(F))
        assert peak < 50 * 2**20

    def test_mesh_guard_propagates(self, monkeypatch):
        monkeypatch.setattr("spherecount.mesh.MESH_POINT_CAP", 100)
        F = coordinate_pair()
        with pytest.raises(MeshSizeError):
            root_count(F, max_t=14)

    def test_admissibility_stable_across_refinement(self):
        # grid points persist when the spacing halves and their admissibility
        # is a pointwise property, independent of the iteration
        F = linear_product((0.3, -0.7))
        coarse = build_mesh(1, 3)
        fine = build_mesh(1, 4)
        gc = build_graph(F, coarse)
        gf = build_graph(F, fine)
        # a +m face point keeps its owning axis when the lattice doubles, so
        # coarse pair rows map to fine pair rows
        fine_index = {tuple(k): i for i, k in enumerate(pair_lattice(fine))}
        coarse_vertices = set(gc.vertex_indices.tolist())
        fine_vertices = set(gf.vertex_indices.tolist())
        for i, k in enumerate(pair_lattice(coarse)):
            j = fine_index[tuple(2 * np.asarray(k))]
            assert (i in coarse_vertices) == (j in fine_vertices)

    def test_component_soundness(self):
        F = linear_product((0.4, -0.9))
        mesh = build_mesh(1, 6)
        g = build_graph(F, mesh)
        kappa = max(g.mus[g.admissible])
        refined = []
        for comp in g.components:
            # a component certifies one zero pair +-zeta
            zs = [refine_zero(F, mesh.pair_points[g.vertex_indices[i]]).zeta
                  for i in comp]
            for z in zs[1:]:
                assert min(np.linalg.norm(z - zs[0]), np.linalg.norm(z + zs[0])) < 1e-8
            refined.append(zs[0])
        assert len(refined) == 2
        sep = projective_angular(np.array(refined))
        assert np.all(sep[np.triu_indices(len(refined), 1)]
                      > 1.0 / (F.max_degree**1.5 * kappa))

    def test_determinism_across_threads(self):
        F = linear_product((0.3, -0.7))
        docs = []
        for threads in (1, 4):
            res = root_count(F, max_t=8, threads=threads)
            docs.append(json.dumps(res.to_json(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_determinism_across_threads_in_chunks(self, monkeypatch):
        # small chunks split each pass of a level into many chunks
        monkeypatch.setattr(condition, "_BLOCK", 64)
        F = random_unit_system(2, (2, 2), 4000)
        cubic = [AffinePolynomial(1, {(3,): 1.0, (1,): -1.0})]
        docs = []
        for threads in (1, 2, 4):
            res = root_count(F, max_t=5, threads=threads)
            lifted, affine_count = count_affine(cubic, max_t=6, threads=threads)
            docs.append(json.dumps([res.to_json(), res.kappa_grid_estimate,
                                    lifted.to_json(), lifted.kappa_grid_estimate,
                                    affine_count], sort_keys=True))
        assert docs[0] == docs[1] == docs[2]

    def test_counting_starts_no_thread(self, monkeypatch):
        # small chunks give every pass of a level many chunks, so any pool
        # over chunks would start threads
        monkeypatch.setattr(condition, "_BLOCK", 64)
        F = random_unit_system(2, (2, 2), 4000)
        cubic = [AffinePolynomial(1, {(3,): 1.0, (1,): -1.0})]

        def run(threads):
            res = root_count(F, max_t=5, threads=threads)
            lifted, affine_count = count_affine(cubic, max_t=6, threads=threads)
            return json.dumps([res.to_json(), res.kappa_grid_estimate,
                               lifted.to_json(), lifted.kappa_grid_estimate,
                               affine_count], sort_keys=True)

        expected = run(1)

        def no_start(thread):
            raise AssertionError("the counting loop started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        assert run(4) == expected


class TestPredictions:
    def test_threshold_formula(self):
        F = coordinate_pair()
        a = ALPHA.alpha_star
        expected = min(a, (1.0 / (2.0 * math.sqrt(2.0))) * (1.0 - 2.0 * a * r0(a)))
        assert predicted_eta_threshold(F, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_evaluation_bound_formula(self):
        F = linear_product((0.5, -0.5))  # n = 1, max degree 2
        out = predicted_complexity(F, 2.0)
        expected = 2.0 * 1.0 * (1.0 + 4.0 * 2.0**1.5 * 1.0 * 4.0)
        assert out["evaluations_bound"] == pytest.approx(expected, rel=1e-12)

    def test_initial_eta(self):
        eta0, t0 = initial_eta(1)
        assert eta0 == 0.5 and t0 == 1
        assert initial_eta(2) == (0.5, 1)
        assert initial_eta(3) == (0.25, 2)

    def test_kappa_domain(self):
        with pytest.raises(ValueError):
            predicted_eta_threshold(coordinate_pair(), 0.5)

    def test_suite_stops_before_threshold(self, rng):
        stopped = 0
        for seed in range(40):
            F = random_unit_system(2, (2, 2), 4000 + seed)
            res = root_count(F, max_t=8)
            if not res.stopped:
                continue
            stopped += 1
            thr = predicted_eta_threshold(F, res.kappa_grid_estimate)
            assert res.final_eta >= thr
            bound = math.ceil(math.log2(initial_eta(2)[0] / thr)) + 1
            assert res.iterations <= bound
            if stopped >= 20:
                break
        assert stopped >= 20


class TestCountAffine:
    def test_sqrt_two(self):
        res, affine = count_affine([AffinePolynomial(1, {(2,): 1.0, (0,): -2.0})],
                                   max_t=9)
        assert res.stopped and res.count == 6 and affine == 2
        poles = [z for z in res.zeros if abs(z.zeta[-1]) == 1.0]
        assert len(poles) == 2

    def test_no_real_roots(self):
        res, affine = count_affine([AffinePolynomial(1, {(2,): 1.0, (0,): 1.0})],
                                   max_t=9)
        assert res.stopped and res.count == 2 and affine == 0

    def test_single_linear_root(self):
        res, affine = count_affine([AffinePolynomial(1, {(1,): 1.0, (0,): -2.0})],
                                   max_t=9)
        assert res.stopped and res.count == 4 and affine == 1

    def test_three_roots_cubic(self):
        res, affine = count_affine([AffinePolynomial(1, {(3,): 1.0, (1,): -1.0})],
                                   max_t=9)
        assert res.stopped and res.count == 8 and affine == 3

    def test_exhaustion_returns_none_count(self):
        res, affine = count_affine([AffinePolynomial(1, {(2,): 1.0, (0,): -2.0})],
                                   max_t=4)
        assert not res.stopped and affine is None

    def test_finite_zeros_refined_on_sphere(self):
        res, _ = count_affine([AffinePolynomial(1, {(2,): 1.0, (0,): -2.0})],
                              max_t=9)
        finite = [z for z in res.zeros if abs(z.zeta[-1]) != 1.0]
        assert len(finite) == 4
        for z in finite:
            assert abs(np.linalg.norm(z.zeta) - 1.0) < 1e-12
            assert abs(z.zeta[1] / z.zeta[0]) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    # Large roots lie near the great circle x_0 = 0 of the zeros at
    # infinity, so their caps must shrink further before they are
    # certified finite; x^2 - 400 stops at t=12.
    @pytest.mark.parametrize("coeffs, truth", [
        ({(1,): 1.0, (0,): -100.0}, 1),                   # x - 100
        ({(2,): 1.0, (1,): -19.0, (0,): -20.0}, 2),       # x^2 - 19x - 20
        ({(1,): 1.0, (0,): -1000.0}, 1),                  # x - 1000
        ({(2,): 1.0, (0,): -400.0}, 2),                   # x^2 - 400
    ])
    def test_root_near_a_pole_is_not_dropped(self, coeffs, truth):
        res, affine = count_affine([AffinePolynomial(1, coeffs)], max_t=13)
        assert res.stopped and affine == truth

    def test_zero_at_infinity_never_stops(self):
        # x0 x1 = 1, x0 = 2 has one root, (2, 1/2), and a real zero at
        # infinity, (0 : 0 : 1), which no cap certifies finite
        polys = [AffinePolynomial(2, {(1, 1): 1.0, (0, 0): -1.0}),
                 AffinePolynomial(2, {(1, 0): 1.0, (0, 0): -2.0})]
        for max_t in range(2, 10):
            res, affine = count_affine(polys, max_t=max_t)
            assert not res.stopped and affine is None, max_t
        # at t=9 both zeros are resolved: one finite, one at infinity
        assert res.count == 2 * 2 + 2

    @pytest.mark.parametrize("polys, roots, max_t", [
        # circle and x - 0.5 y = 0.2
        ([AffinePolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}),
          AffinePolynomial(2, {(1, 0): 1.0, (0, 1): -0.5, (0, 0): -0.2})],
         [(0.6, 0.8), (-0.28, -0.96)], 9),
        # the ellipses x^2 + 4 y^2 = 4 and 4 x^2 + y^2 = 4
        ([AffinePolynomial(2, {(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0}),
          AffinePolynomial(2, {(2, 0): 4.0, (0, 2): 1.0, (0, 0): -4.0})],
         [(sx * 2 / math.sqrt(5), sy * 2 / math.sqrt(5))
          for sx in (1, -1) for sy in (1, -1)], 9),
        # x = 0.5, y = -0.25, z = 0.75
        ([AffinePolynomial(3, {(1, 0, 0): 1.0, (0, 0, 0): -0.5}),
          AffinePolynomial(3, {(0, 1, 0): 1.0, (0, 0, 0): 0.25}),
          AffinePolynomial(3, {(0, 0, 1): 1.0, (0, 0, 0): -0.75})],
         [(0.5, -0.25, 0.75)], 6),
    ])
    def test_roots_match_known_roots(self, polys, roots, max_t):
        res, affine = count_affine(polys, max_t=max_t)
        assert res.stopped and affine == len(roots)
        assert res.count == 2 * len(roots) + 2 == len(res.zeros)
        lifted = lift_affine(polys)
        hit = set()
        for z in res.zeros[:-2]:
            # each zero is the lift's image of one root, and a lifted zero
            assert np.linalg.norm(evaluate(lifted, z.zeta)) < 1e-12
            x = z.zeta[1:-1] / z.zeta[0]
            dist = [np.abs(x - np.array(r)).max() for r in roots]
            assert min(dist) < 1e-10
            hit.add(int(np.argmin(dist)))
        assert hit == set(range(len(roots)))
        assert [list(z.zeta) for z in res.zeros[-2:]] == [
            list(p) for p in lifted_poles(len(polys) + 2)]
