"""Acceptance criteria, one test per criterion, with pinned tolerances.

Each test prints a single summary line so a -s run reads as a checklist.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from spherecount.certification import refine_zero
from spherecount.condition import (eckart_young_correction, kappa_many,
                                   min_singular_value,
                                   minimal_singular_perturbation,
                                   monte_carlo_ln_kappa, mu, mu_many,
                                   mu_variation_check, sample_gaussian_system,
                                   scaled_restricted_jacobian)
from spherecount.convergence import (ALPHA, alpha_star, error_bound_alpha,
                                     gamma_error_sequence, r0, r1,
                                     robust_alpha_threshold)
from spherecount.counting import build_graph, count_affine, root_count
from spherecount.mesh import (angular_distance, angular_distance_many,
                              build_mesh, mesh_count_bound, sch_membership)
from spherecount.polynomials import (AffinePolynomial, HomogeneousPolynomial,
                                     PolynomialSystem, evaluate,
                                     system_to_json, weyl_norm)

from conftest import random_sphere_point, random_unit_system
from oracles import circle_roots, sphere_zeros_oracle, weyl_distance

# --------------------------------------------------------------------------
# reference data

# Values of -log2(u_i/u_0); the published table truncates to three decimals
# and the (i=1, u0=1/8) cell misprints 2.087 as 2.870 (digit transposition),
# so that cell is pinned at the recomputed value.
TABLE1 = [
    [4.810, 3.599, 2.632, 2.087, 1.000],
    [14.614, 11.169, 8.491, 6.997, 3.900],
    [34.229, 26.339, 20.302, 16.988, 10.229],
    [73.458, 56.679, 43.926, 36.977, 22.954],
    [151.917, 117.358, 91.175, 76.954, 48.406],
]
TABLE1_COLUMNS = (1 / 32, 1 / 16, 1 / 10, 1 / 8, (3 - math.sqrt(7)) / 2)

TABLE2_FIRST_COLUMN = [4.854, 14.472, 33.700, 72.157, 149.071, 302.899]
TABLE2_SPOT = {(2, 1 / 16): 10.865, (1, "alpha0"): 1.357}


def _single(n_vars, degree, coeffs):
    return PolynomialSystem((HomogeneousPolynomial(n_vars, degree, coeffs),))


def _linear_product(slopes):
    terms = {(0, 1): 1.0, (1, 0): -slopes[0]}
    for s in slopes[1:]:
        nxt = {}
        for (e0, e1), c in terms.items():
            for (d0, d1), b in {(0, 1): 1.0, (1, 0): -s}.items():
                key = (e0 + d0, e1 + d1)
                nxt[key] = nxt.get(key, 0.0) + c * b
        terms = nxt
    return _single(2, len(slopes), terms)


def _distinct_slopes(rng, k):
    while True:
        slopes = np.round(rng.uniform(-1.4, 1.4, size=k), 3)
        if k == 1 or np.min(np.abs(np.subtract.outer(slopes, slopes))
                            + np.eye(k) * 9) > 0.2:
            return tuple(float(s) for s in slopes)


def counting_suite():
    """The 30-system correctness suite with brute-force root oracles."""
    rng = np.random.default_rng(1789)
    suite = []
    # 14 circle systems: products of one to three distinct linear forms
    for i in range(14):
        k = 1 + i % 3
        slopes = _distinct_slopes(rng, k)
        F = _linear_product(slopes)
        suite.append(("circle", f"lines{i}-{slopes}", F))
    # 4 coordinate-type sphere systems
    suite.append(("sphere", "coords", PolynomialSystem((
        HomogeneousPolynomial(3, 1, {(0, 1, 0): 1.0}),
        HomogeneousPolynomial(3, 1, {(0, 0, 1): 1.0})))))
    suite.append(("sphere", "tilted-planes", PolynomialSystem((
        HomogeneousPolynomial(3, 1, {(0, 1, 0): 1.0, (1, 0, 0): -0.3}),
        HomogeneousPolynomial(3, 1, {(0, 0, 1): 1.0, (1, 0, 0): -0.5})))))
    suite.append(("sphere", "cone-plane", PolynomialSystem((
        HomogeneousPolynomial(3, 2, {(0, 2, 0): 1.0, (2, 0, 0): -0.25}),
        HomogeneousPolynomial(3, 2, {(0, 0, 2): 1.0, (2, 0, 0): -0.49})))))
    suite.append(("sphere", "plane-cone", PolynomialSystem((
        HomogeneousPolynomial(3, 1, {(0, 1, 0): 1.0}),
        HomogeneousPolynomial(3, 2, {(0, 0, 2): 1.0, (2, 0, 0): -0.25})))))
    # 10 random well-conditioned quadratic systems (kappa_grid <= 50)
    for seed in (21, 22, 29, 30, 33, 38, 44, 45, 55, 57):
        suite.append(("sphere", f"random-{seed}", random_unit_system(2, (2, 2), seed)))
    # 2 lifted univariate problems
    suite.append(("affine", "x^2-2", [AffinePolynomial(1, {(2,): 1.0, (0,): -2.0})]))
    suite.append(("affine", "x^2+1", [AffinePolynomial(1, {(2,): 1.0, (0,): 1.0})]))
    assert len(suite) == 30
    return suite


def test_table1_reproduction():
    start = time.perf_counter()
    for i, row in enumerate(TABLE1, start=1):
        for u0, expected in zip(TABLE1_COLUMNS, row):
            seq = gamma_error_sequence(u0, i)
            got = -math.log2(seq[i] / u0)
            assert got == pytest.approx(expected, abs=1e-3), (i, u0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[acceptance] table-1 (25 cells, +-0.001, {elapsed:.3f}s): PASS")


def test_table2_reproduction():
    start = time.perf_counter()
    for i, expected in enumerate(TABLE2_FIRST_COLUMN, start=1):
        got = -math.log2(error_bound_alpha(1 / 32, i))
        assert got == pytest.approx(expected, abs=2e-3), i
    for (i, col), expected in TABLE2_SPOT.items():
        alpha = ALPHA.alpha0 if col == "alpha0" else col
        got = -math.log2(error_bound_alpha(alpha, i))
        assert got == pytest.approx(expected, abs=2e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[acceptance] table-2 (column + spot cells, +-0.002, {elapsed:.3f}s): PASS")


def test_constants():
    assert ALPHA.alpha0 == pytest.approx(0.157670780786754, abs=1e-12)
    assert r0(ALPHA.alpha0) == pytest.approx(1.390388203, abs=1e-6)
    assert r1(ALPHA.alpha0) == pytest.approx(0.390388203, abs=1e-6)
    a_star = alpha_star()
    assert a_star > 0.116
    assert abs(a_star - ALPHA.alpha0 * (1 - a_star * r0(a_star)) ** 2) < 1e-12
    assert robust_alpha_threshold() == pytest.approx(0.074290, abs=1e-5)
    print("[acceptance] constants (alpha0, r0, r1, alpha*, robust): PASS")


def _oracle_count(kind, payload):
    if kind == "circle":
        return len(circle_roots(payload.polynomials[0], samples=4000))
    if kind == "sphere":
        return len(sphere_zeros_oracle(payload, starts=1200))
    # lifted: finite zeros by multistart away from the poles, plus the two
    # pole zeros, which are exact by construction and verified by evaluation
    from spherecount.polynomials import lift_affine, lifted_poles

    F = lift_affine(payload).normalized()
    poles = lifted_poles(F.n_vars)
    finite = [z for z in sphere_zeros_oracle(F, starts=1200)
              if min(angular_distance(z, p) for p in poles) > 0.05]
    for p in poles:
        assert np.linalg.norm(evaluate(F, p)) == 0.0
    return len(finite) + 2


def test_counting_correctness_suite():
    start = time.perf_counter()
    failures = []
    for kind, name, payload in counting_suite():
        if kind == "affine":
            result, _ = count_affine(payload, max_t=9)
        else:
            # circle grids stay tiny, so the budget allows a deeper cutoff
            result = root_count(payload, max_t=13 if payload.n == 1 else 9)
        expected = _oracle_count(kind, payload)
        if not result.stopped or result.count != expected:
            failures.append((name, result.stopped, result.count, expected))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 60.0
    print(f"[acceptance] counting suite (30 systems vs oracle, {elapsed:.1f}s): PASS")


def test_suite_zeros_come_in_antipodal_pairs():
    """Every stopped count reports zeros closed under z -> 0.0 - z, byte for
    byte, and an even count, once the two lifted poles are set aside."""
    from spherecount.polynomials import lifted_poles

    checked = 0
    for kind, name, payload in counting_suite():
        if kind == "affine":
            result, _ = count_affine(payload, max_t=9)
            poles = lifted_poles(len(payload) + 2)
        else:
            result = root_count(payload, max_t=13 if payload.n == 1 else 9)
            poles = ()
        if not result.stopped:
            continue
        checked += 1
        finite = [z.zeta for z in result.zeros
                  if not any(np.array_equal(z.zeta, p) for p in poles)]
        assert len(finite) == result.count - len(poles) == len(result.zeros) - len(poles)
        zeros = sorted(z.tobytes() for z in finite)
        assert zeros == sorted((0.0 - z).tobytes() for z in finite), name
        assert len(finite) % 2 == 0, name
    assert checked == 30
    print(f"[acceptance] antipodal zero pairs ({checked} stopped counts): PASS")


def test_certification_contraction():
    checked = 0
    for kind, name, payload in counting_suite():
        if kind == "affine":
            continue
        t = 5 if payload.n == 1 else 4
        mesh = build_mesh(payload.n, t)
        graph = build_graph(payload, mesh)
        for pos, idx in enumerate(graph.vertex_indices):
            x = mesh.pair_points[idx]
            z = refine_zero(payload, x)
            if not z.converged:
                continue
            checked += 1
            if len(z.step_norms) >= 1:
                b0 = z.step_norms[0]
                for i, s in enumerate(z.step_norms):
                    assert s <= 2.0 ** (1 - 2**i) * b0 + 1e-14, (name, i)
            assert (angular_distance(x, z.zeta)
                    <= graph.radii[pos] + 1e-12), name
    assert checked >= 40
    print(f"[acceptance] certification contraction ({checked} admissible starts): PASS")


def test_condition_machinery():
    rng = np.random.default_rng(99)
    # mu >= sqrt(n) at 1e3 random points
    lows = 0
    for seed in range(10):
        F = random_unit_system(2, (2, 3), 5000 + seed)
        X = rng.standard_normal((100, 3))
        X /= np.linalg.norm(X, axis=1)[:, None]
        mus = mu_many(F, X, f_norm=1.0)
        assert np.all(mus >= math.sqrt(2.0) - 1e-9)
    # mu as a distance, constructively, to 1e-8
    for seed in range(5):
        F = random_unit_system(2, (2, 3), 6000 + seed)
        x = random_sphere_point(rng, 3)
        G = minimal_singular_perturbation(F, x)
        assert abs(weyl_distance(F, G) - 1.0 / mu(F, x)) < 1e-8
        assert min_singular_value(scaled_restricted_jacobian(G, x)) < 1e-9
    # Eckart-Young constructive check to 1e-9
    for _ in range(5):
        A = rng.standard_normal((4, 4))
        B = eckart_young_correction(A)
        assert abs(np.linalg.norm(B) - min_singular_value(A)) < 1e-12
        assert min_singular_value(A + B) < 1e-9
    # kappa inequality chain pointwise
    for seed in range(4):
        F = random_unit_system(2, (2, 2), 7000 + seed)
        X = rng.standard_normal((250, 3))
        X /= np.linalg.norm(X, axis=1)[:, None]
        mus = mu_many(F, X, f_norm=1.0)
        fns = np.linalg.norm(np.stack([evaluate(F, x) for x in X]), axis=1)
        ks = kappa_many(F, X)
        assert np.all(ks <= mus * (1 + 1e-12))
        assert np.all(ks <= (1.0 / fns) * (1 + 1e-12))
        assert np.all(np.minimum(mus, 1.0 / fns) <= math.sqrt(2) * ks * (1 + 1e-12))
    # perturbation sandwich over 400 trials
    from scipy.linalg import expm
    from oracles import system_combination

    holds = 0
    for seed in range(400):
        F = random_unit_system(2, (2, 2), 8000 + seed)
        x = random_sphere_point(rng, 3)
        if seed % 2:
            w = rng.standard_normal(3) * 1e-3
            K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
            lo, hi, obs = mu_variation_check(F, F, x, expm(K) @ x)
        else:
            H = sample_gaussian_system(2, (2, 2), 9000 + seed)
            G = system_combination(F, H, 1.0, 1e-4 / weyl_norm(H)).normalized()
            lo, hi, obs = mu_variation_check(F, G, x, x)
        if math.isfinite(hi):
            holds += 1
            assert lo * (1 - 1e-9) <= obs <= hi * (1 + 1e-9)
    assert holds >= 380
    print(f"[acceptance] condition machinery (mu, distances, kappa, {holds} sandwich trials): PASS")


def test_mesh_lemma():
    rng = np.random.default_rng(4242)
    # covering radius <= eta sqrt(n)/2 over 1e4 probes for n <= 2, t <= 4
    for n, t in [(1, 4), (2, 3), (2, 4)]:
        mesh = build_mesh(n, t)
        probes = rng.standard_normal((10000, n + 1))
        probes /= np.linalg.norm(probes, axis=1)[:, None]
        dots = np.clip(probes @ mesh.points.T, -1.0, 1.0)
        dists = np.arccos(dots.max(axis=1))
        assert dists.max() <= mesh.eta * math.sqrt(n) / 2.0, (n, t)
    # hull membership property over 1e3 probes
    hull_checked = 0
    for t in (2, 3):
        mesh = build_mesh(2, t)
        radius = math.sqrt(2.0) * mesh.eta
        for _ in range(500):
            x = random_sphere_point(rng, 3)
            Y = mesh.points[angular_distance_many(mesh.points, x) <= radius]
            assert sch_membership(x, Y)
            hull_checked += 1
    assert hull_checked == 1000
    # count bound by enumeration
    for n in (1, 2, 3):
        for t in range(5):
            assert build_mesh(n, t).count <= mesh_count_bound(n, t)
    print("[acceptance] mesh lemma (covering, hull membership, count bound): PASS")


def test_probabilistic_bound():
    start = time.perf_counter()
    out = monte_carlo_ln_kappa(3, (2, 2, 2), trials=100, mesh_t=4, seed=2024)
    elapsed = time.perf_counter() - start
    assert out["mean_ln_kappa"] <= out["bound"]
    assert elapsed < 600.0
    print(f"[acceptance] probabilistic bound (mean {out['mean_ln_kappa']:.3f} "
          f"<= bound {out['bound']:.3f}, {elapsed:.1f}s): PASS")


def test_count_determinism_across_threads(tmp_path):
    F = _linear_product((0.3, -0.7))
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(F)))
    outputs = []
    for threads in ("1", "4", "16"):
        proc = subprocess.run(
            [sys.executable, "-m", "spherecount.cli", "--input", str(path),
             "--threads", threads, "count", "--max-t", "8"],
            capture_output=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    print("[acceptance] determinism across --threads 1/4/16 (identical bytes): PASS")
