import math

import numpy as np
import pytest

from spherecount.condition import (eckart_young_correction,
                                   expected_ln_kappa_bound, kappa_grid,
                                   kappa_many, kappa_point, kn_constant,
                                   min_singular_value,
                                   minimal_singular_perturbation,
                                   monte_carlo_ln_kappa, mu, mu_many,
                                   mu_variation_check, multi_indices,
                                   sample_gaussian_system,
                                   scaled_restricted_jacobian,
                                   singular_values, smoothed_ln_kappa_bound,
                                   tangent_basis)
from spherecount.mesh import build_mesh
from spherecount.polynomials import (HomogeneousPolynomial, PolynomialSystem,
                                     evaluate, weyl_norm)

from conftest import random_sphere_point, random_unit_system
from oracles import mu_svd, system_combination, weyl_distance


def coordinate_system(n):
    """f_i = x_i for i = 1..n, in n+1 variables."""
    polys = []
    for i in range(1, n + 1):
        e = [0] * (n + 1)
        e[i] = 1
        polys.append(HomogeneousPolynomial(n + 1, 1, {tuple(e): 1.0}))
    return PolynomialSystem(tuple(polys))


class TestSingularValues:
    def test_diagonal(self):
        s = singular_values(np.diag([3.0, 1.0]))
        assert s.values == (3.0, 1.0)
        assert s.rank == 2

    def test_zero_matrix(self):
        s = singular_values(np.zeros((3, 2)))
        assert s.values == ()
        assert s.rank == 0

    def test_norms_match(self, rng):
        A = rng.standard_normal((4, 6))
        s = singular_values(A)
        assert s.operator_norm == pytest.approx(np.linalg.norm(A, 2), rel=1e-10)
        assert s.frobenius_norm == pytest.approx(np.linalg.norm(A), rel=1e-10)

    def test_against_characteristic_polynomial(self, rng):
        A = rng.standard_normal((5, 5))
        s = np.array(singular_values(A).values)
        lam = np.roots(np.poly(A.T @ A))
        ref = np.sort(np.sqrt(np.abs(lam)))[::-1]
        assert np.max(np.abs(s - ref)) < 1e-8 * s[0]

    def test_min_singular_value_random_probe(self, rng):
        A = rng.standard_normal((4, 4))
        smin = min_singular_value(A)
        V = rng.standard_normal((10000, 4))
        V /= np.linalg.norm(V, axis=1)[:, None]
        probe = np.min(np.linalg.norm(V @ A.T, axis=1))
        assert smin <= probe + 1e-12
        assert probe <= smin * 1.2  # dense sampling comes close


class TestEckartYoung:
    def test_diagonal(self):
        assert min_singular_value(np.diag([3.0, 1.0])) == pytest.approx(1.0)

    def test_orthogonal(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert min_singular_value(Q) == pytest.approx(1.0, rel=1e-12)

    def test_constructed_minimizer(self, rng):
        A = rng.standard_normal((4, 4))
        dist = min_singular_value(A)
        B = eckart_young_correction(A)
        assert np.linalg.norm(B) == pytest.approx(dist, rel=1e-12)
        assert min_singular_value(A + B) < 1e-10

    def test_no_cheaper_perturbation(self, rng):
        A = rng.standard_normal((4, 4))
        dist = min_singular_value(A)
        G = rng.standard_normal((10000, 4, 4))
        G *= (0.999 * dist / np.linalg.norm(G, axis=(1, 2)))[:, None, None]
        smin = np.linalg.svd(A[None, :, :] + G, compute_uv=False)[:, -1]
        assert np.all(smin > 1e-12)


class TestMu:
    def test_coordinate_equality_case(self):
        for n in (1, 2, 3):
            F = coordinate_system(n)
            e0 = np.eye(n + 1)[0]
            assert mu(F, e0) == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_scale_invariance(self, rng):
        F = random_unit_system(2, (2, 3), 3)
        x = random_sphere_point(rng, 3)
        assert mu(F.scaled(7.0), x) == pytest.approx(mu(F, x), rel=1e-12)

    def test_lower_bound_sqrt_n(self, rng):
        for seed in range(5):
            F = random_unit_system(2, (2, 2), seed)
            for _ in range(20):
                assert mu(F, random_sphere_point(rng, 3)) >= math.sqrt(2) - 1e-9

    def test_norm_power_scaling_consistency(self, rng):
        # the |x|-power weights make mu invariant under scaling the point
        F = random_unit_system(2, (2, 3), 11)
        x = random_sphere_point(rng, 3)
        M1 = scaled_restricted_jacobian(F, x)
        M2 = scaled_restricted_jacobian(F, 2.5 * x)
        assert min_singular_value(M1) == pytest.approx(min_singular_value(M2), rel=1e-10)

    def test_singular_point_is_infinite(self):
        # x_1^2 - x_0^2 is critical at e_0, so its restricted Jacobian there
        # is singular even though f(e_0) != 0
        f = HomogeneousPolynomial(2, 2, {(0, 2): 1.0, (2, 0): -1.0})
        F = PolynomialSystem((f,))
        assert mu(F, np.array([1.0, 0.0])) == math.inf
        g = HomogeneousPolynomial(2, 2, {(1, 1): 1.0})
        G = PolynomialSystem((g,))
        assert mu(G, np.array([0.0, 1.0])) < math.inf
        h = HomogeneousPolynomial(2, 2, {(2, 0): 1.0})
        H = PolynomialSystem((h,))
        assert mu(H, np.array([0.0, 1.0])) == math.inf

    def test_mu_many_matches_pointwise(self, rng):
        F = random_unit_system(2, (2, 3), 23)
        X = np.array([random_sphere_point(rng, 3) for _ in range(30)])
        # scalar mu is the kernel's row at x/|x|
        vals = mu_many(F, np.array([x / np.linalg.norm(x) for x in X]))
        for i in range(30):
            assert vals[i] == mu(F, X[i])


# (n, t, degrees): every degree 1-4 on each n, and one mixed system
MIRROR_CASES = [(n, t, (d,) * n) for n, t in ((1, 7), (2, 4), (3, 2)) for d in range(1, 5)]
MIRROR_CASES += [(2, 4, (1, 4)), (3, 2, (4, 1, 3))]


@pytest.mark.parametrize("n, t, degrees", MIRROR_CASES)
def test_mu_many_is_mirror_symmetric_off_x0_zero(n, t, degrees):
    """mu_many at the mirror -x + 0.0 of each pair point x equals its value
    at x bit for bit, wherever x_0 != 0."""
    F = sample_gaussian_system(n, degrees, 10 * n + sum(degrees))
    mesh = build_mesh(n, t)
    X = mesh.pair_points
    off = X[:, 0] != 0.0
    assert 0 < np.count_nonzero(off) < off.size
    at_plus = mu_many(F, X[off])
    assert at_plus.tobytes() == mu_many(F, -X[off] + 0.0).tobytes()


# (n, degrees): each n with every degree 1-7, and two mixed systems
ORACLE_CASES = [(n, (d,) * n) for n in (1, 2, 3) for d in range(1, 8)]
ORACLE_CASES += [(2, (1, 7)), (3, (2, 3, 4))]


@pytest.mark.parametrize("n, degrees", ORACLE_CASES)
def test_mu_many_matches_the_svd_oracle(n, degrees):
    """mu_many agrees with an SVD of the projected Jacobian to rel 1e-9
    wherever mu <= 1e3, points on x_0 = 0 included."""
    F = sample_gaussian_system(n, degrees, 7 * n + sum(degrees))
    X = np.random.default_rng(sum(degrees)).standard_normal((300, n + 1))
    X[:60, 0] = 0.0
    X /= np.linalg.norm(X, axis=1)[:, None]
    ref = mu_svd(F, X)
    kept = ref <= 1e3
    assert np.count_nonzero(kept[:60]) >= 30 and np.count_nonzero(kept) >= 200
    assert mu_many(F, X[kept]) == pytest.approx(ref[kept], rel=1e-9)


def test_near_singular_rows_take_the_svd():
    """With f_2 = 3 f_1 + 1e-7 g, sigma_min is far below sqrt(eps) max|M|,
    where the Gram of M is mostly rounding; mu_many takes such rows by SVD,
    stays near the oracle and keeps its mirror symmetry bit for bit."""
    f, g = sample_gaussian_system(2, (2, 2), 5).polynomials
    last = {k: 3.0 * c + 1e-7 * g.coefficients[k] for k, c in f.coefficients.items()}
    F = PolynomialSystem((f, HomogeneousPolynomial(3, 2, last)))
    X = np.random.default_rng(5).standard_normal((200, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    ref = mu_svd(F, X)
    assert np.isfinite(ref).all() and ref.min() > 1e7
    assert mu_many(F, X) == pytest.approx(ref, rel=1e-5)
    assert mu_many(F, -X + 0.0).tobytes() == mu_many(F, X).tobytes()


class TestMuAsDistance:
    def test_linear_system_distance(self):
        n = 2
        F = coordinate_system(n).normalized()
        e0 = np.eye(n + 1)[0]
        G = minimal_singular_perturbation(F, e0)
        assert weyl_distance(F, G) == pytest.approx(1.0 / math.sqrt(n), rel=1e-10)

    def test_perturbation_reaches_singularity(self, rng):
        for seed in range(5):
            F = random_unit_system(2, (2, 3), seed)
            x = random_sphere_point(rng, 3)
            m = mu(F, x)
            G = minimal_singular_perturbation(F, x)
            assert weyl_distance(F, G) == pytest.approx(1.0 / m, abs=1e-8)
            assert min_singular_value(scaled_restricted_jacobian(G, x)) < 1e-9

    def test_no_closer_singular_system_found(self, rng):
        # random search does not beat the constructive distance
        F = random_unit_system(2, (2, 2), 40)
        x = random_sphere_point(rng, 3)
        target = 1.0 / mu(F, x)
        for seed in range(200):
            H = sample_gaussian_system(2, (2, 2), 1000 + seed)
            trial = system_combination(F, H, 1.0, (0.95 * target) / weyl_norm(H))
            assert min_singular_value(scaled_restricted_jacobian(trial, x)) > 1e-9

    def test_zero_preserved_when_x_is_zero(self):
        # correction lies in the first-derivative component only
        f1 = HomogeneousPolynomial(3, 2, {(0, 2, 0): 1.0, (1, 0, 1): -0.5})
        f2 = HomogeneousPolynomial(3, 2, {(0, 0, 2): 1.0, (1, 1, 0): 0.3})
        F = PolynomialSystem((f1, f2)).normalized()
        e0 = np.array([1.0, 0.0, 0.0])
        assert np.linalg.norm(evaluate(F, e0)) == 0.0
        G = minimal_singular_perturbation(F, e0)
        assert np.linalg.norm(evaluate(G, e0)) < 1e-14


class TestKappaAsDistance:
    def test_constructive_minimizer(self, rng):
        # 1/kappa(f, x) is the distance to systems vanishing at x with a
        # singular restricted Jacobian; the minimizer subtracts the kernel
        # component f_i(x) K_d(., x) and applies the tangent rank-one
        # correction, and the two pieces are orthogonal
        from spherecount.condition import _kernel_derivative_poly
        from spherecount.polynomials import kernel_polynomial

        for seed in range(5):
            F = random_unit_system(2, (2, 3), 2200 + seed)
            x = random_sphere_point(rng, 3)
            k = kappa_point(F, x)
            basis = tangent_basis(x)
            B = eckart_young_correction(scaled_restricted_jacobian(F, x))
            polys = []
            for i, p in enumerate(F.polynomials):
                coeffs = dict(p.coefficients)
                fx = evaluate(p, x)
                for e, c in kernel_polynomial(p.degree, x).coefficients.items():
                    coeffs[e] = coeffs.get(e, 0.0) - fx * c
                for j in range(F.n):
                    for e, c in _kernel_derivative_poly(p.degree, x, basis[:, j]).items():
                        coeffs[e] = coeffs.get(e, 0.0) + B[i, j] * c
                polys.append(HomogeneousPolynomial(p.n_vars, p.degree, coeffs))
            G = PolynomialSystem(tuple(polys))
            assert np.linalg.norm(evaluate(G, x)) < 1e-12
            assert min_singular_value(scaled_restricted_jacobian(G, x)) < 1e-10
            assert abs(weyl_distance(F, G) - 1.0 / k) < 1e-8


class TestKappa:
    def test_equals_mu_at_zero(self):
        F = coordinate_system(2)
        e0 = np.eye(3)[0]
        assert kappa_point(F, e0) == pytest.approx(mu(F.normalized(), e0), rel=1e-12)

    def test_formula_with_unit_residual(self):
        f = HomogeneousPolynomial(2, 1, {(0, 1): 1.0})
        F = PolynomialSystem((f,))
        x = np.array([0.0, 1.0])
        # residual 1 and singular restriction: kappa = 1
        assert kappa_point(F, x) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_point_off_sphere(self):
        F = PolynomialSystem((HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (0, 2): -0.5}),))
        x = np.array([0.6, 0.8])
        assert kappa_point(F, x) == pytest.approx(1.097, abs=1e-3)
        with pytest.raises(ValueError):
            kappa_point(F, 3.0 * x)

    def test_inequality_chain(self, rng):
        checked = 0
        for seed in range(10):
            F = random_unit_system(2, (2, 3), 100 + seed)
            X = np.array([random_sphere_point(rng, 3) for _ in range(100)])
            mus = mu_many(F, X, f_norm=1.0)
            fns = np.linalg.norm(
                np.stack([evaluate(F, x) for x in X]), axis=1)
            ks = kappa_many(F, X)
            for m, fn, k in zip(mus, fns, ks):
                checked += 1
                assert k <= m * (1 + 1e-12)
                assert k <= 1.0 / fn * (1 + 1e-12)
                assert min(m, 1.0 / fn) <= math.sqrt(2.0) * k * (1 + 1e-12)
        assert checked == 1000

    def test_pointwise_at_least_one(self, rng):
        # |f(x)|^2 + smin^2 <= |f|^2 = 1 forces kappa >= 1 everywhere
        for seed in range(50):
            F = random_unit_system(2, (2, 2), 200 + seed)
            x = random_sphere_point(rng, 3)
            assert kappa_point(F, x) >= 1.0 - 1e-12

    def test_grid_estimate_at_least_one(self):
        mesh = build_mesh(2, 3)
        for seed in range(50):
            F = random_unit_system(2, (2, 2), 300 + seed)
            est, cover = kappa_grid(F, mesh)
            assert est >= 1.0
            assert cover == pytest.approx(mesh.eta * math.sqrt(2) / 2)


class TestMuVariation:
    def test_collapse(self, rng):
        F = random_unit_system(2, (2, 2), 17)
        x = random_sphere_point(rng, 3)
        lo, hi, obs = mu_variation_check(F, F, x, x)
        assert lo == pytest.approx(obs, rel=1e-12)
        assert hi == pytest.approx(obs, rel=1e-12)

    def test_point_rotation_trials(self, rng):
        hits = 0
        for seed in range(200):
            F = random_unit_system(2, (2, 2), 400 + seed)
            x = random_sphere_point(rng, 3)
            # small rotation moving x
            w = rng.standard_normal(3) * 1e-3
            K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
            from scipy.linalg import expm

            Q = expm(K)
            y = Q @ x
            lo, hi, obs = mu_variation_check(F, F, x, y)
            if math.isfinite(hi):
                hits += 1
                assert lo * (1 - 1e-9) <= obs <= hi * (1 + 1e-9)
        assert hits > 150

    def test_coefficient_perturbation_trials(self, rng):
        hits = 0
        for seed in range(200):
            F = random_unit_system(2, (2, 2), 700 + seed)
            x = random_sphere_point(rng, 3)
            H = sample_gaussian_system(2, (2, 2), 7000 + seed)
            G = system_combination(F, H, 1.0, 1e-4 / weyl_norm(H)).normalized()
            lo, hi, obs = mu_variation_check(F, G, x, x)
            if math.isfinite(hi):
                hits += 1
                assert lo * (1 - 1e-9) <= obs <= hi * (1 + 1e-9)
        assert hits > 150


class TestGaussianSampling:
    def test_norm_is_chi_square(self):
        n, degrees = 2, (2, 3)
        N = sum(math.comb(d + n, n) for d in degrees)
        total = 0.0
        for seed in range(10000):
            total += weyl_norm(sample_gaussian_system(n, degrees, seed)) ** 2
        assert total / 10000 == pytest.approx(N, rel=0.03)

    def test_seed_determinism(self):
        a = sample_gaussian_system(2, (2, 2), 42)
        b = sample_gaussian_system(2, (2, 2), 42)
        for p, q in zip(a.polynomials, b.polynomials):
            assert p.coefficients == q.coefficients

    def test_unit_value_variance(self, rng):
        y = random_sphere_point(rng, 3)
        vals = np.array([evaluate(sample_gaussian_system(2, (4, 1), s).polynomials[0], y)
                         for s in range(10000)])
        assert np.var(vals) == pytest.approx(1.0, rel=0.05)

    def test_multi_indices_order(self):
        assert multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]


class TestMonteCarlo:
    def test_kn_formula(self):
        # n=3, d=(2,2,2): N = 30, prod d = 8
        expected = 8 * 4 * math.sqrt(8) * math.sqrt(30) * 3**2.5 + 1
        assert kn_constant(3, (2, 2, 2)) == pytest.approx(expected, rel=1e-12)

    def test_bound_formula(self):
        lk = math.log(kn_constant(3, (2, 2, 2)))
        expected = lk + math.sqrt(lk) + 1 / math.sqrt(lk) + 0.5 * math.log(6)
        assert expected_ln_kappa_bound(3, (2, 2, 2)) == pytest.approx(expected, rel=1e-12)

    def test_mean_below_bound_small_run(self):
        out = monte_carlo_ln_kappa(3, (2, 2, 2), trials=5, mesh_t=2, seed=1)
        assert out["mean_ln_kappa"] <= out["bound"]

    def test_thread_determinism(self):
        a = monte_carlo_ln_kappa(3, (2, 2, 2), trials=6, mesh_t=2, seed=9, threads=1)
        b = monte_carlo_ln_kappa(3, (2, 2, 2), trials=6, mesh_t=2, seed=9, threads=4)
        assert a["samples"] == b["samples"]

    def test_each_sample_is_the_kappa_grid_of_its_system(self):
        # a trial normalizes the system it draws once, as kappa_grid does
        mesh = build_mesh(3, 2)
        out = monte_carlo_ln_kappa(3, (2, 2, 2), trials=40, mesh_t=2, seed=0)
        assert out["samples"] == [
            math.log(kappa_grid(sample_gaussian_system(3, (2, 2, 2), i), mesh)[0])
            for i in range(40)]

    def test_rejects_fewer_than_one_thread(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="one thread"):
                monte_carlo_ln_kappa(3, (2, 2, 2), trials=2, mesh_t=1, seed=0,
                                     threads=threads)

    def test_smoothed_bound(self):
        n, degrees, sigma = 3, (2, 2, 2), 0.1
        N = 30
        expected = (2 * math.log(N) + 4 * math.log(3) + 2 * math.log(8)
                    - math.log(sigma) + 6)
        assert smoothed_ln_kappa_bound(n, degrees, sigma) == pytest.approx(expected)
        with pytest.raises(ValueError):
            smoothed_ln_kappa_bound(3, (2, 2, 2), 0.0)


class TestTangentBasis:
    def test_axis_point(self):
        assert np.array_equal(tangent_basis(np.array([1.0, 0.0, 0.0])), np.eye(3)[:, 1:])

    @pytest.mark.parametrize("x", [[0.3, 0.5, -0.7], [-0.3, -0.5, 0.7], [0.0, 0.6, -0.8],
                                   [-0.4, 0.2, 0.1, -0.5]])
    def test_is_the_householder_frame(self, x):
        """Columns 1..n of I - v v^T / c, v = x + sign(x_0) e_0 (+1 at
        x_0 = 0) and c = 1 + |x_0|, bit for bit: the frame mu_many reads
        the restricted Jacobian in, with no column's sign changed."""
        x = np.asarray(x) / np.linalg.norm(x)
        v = x.copy()
        v[0] += 1.0 if x[0] >= 0.0 else -1.0
        expected = np.eye(x.size)[:, 1:] - np.outer(v, v[1:]) / (1.0 + abs(x[0]))
        assert np.array_equal(tangent_basis(x), expected)

    def test_orthonormal_completion(self, rng):
        for _ in range(20):
            x = random_sphere_point(rng, 4)
            U = tangent_basis(x)
            G = np.column_stack([x, U])
            assert np.allclose(G.T @ G, np.eye(4), atol=1e-12)

    def test_deterministic(self, rng):
        x = random_sphere_point(rng, 3)
        assert np.array_equal(tangent_basis(x), tangent_basis(x.copy()))
