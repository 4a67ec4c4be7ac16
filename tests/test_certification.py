import math

import numpy as np
import pytest

from spherecount.certification import (chart_beta, exclusion_radius,
                                       gamma_bound, inclusion_test,
                                       refine_zero, robust_certify,
                                       tangent_frame)
from spherecount.condition import mu, mu_many
from spherecount.convergence import ALPHA, gamma_error_sequence
from spherecount.mesh import angular_distance
from spherecount.polynomials import (HomogeneousPolynomial, PolynomialSystem,
                                     evaluate, jacobian, normalize, rotate)

from conftest import random_sphere_point, random_unit_system
from oracles import circle_roots, sampled_gamma_lower_bound, sphere_zeros_oracle


def single(n_vars, degree, coeffs):
    return PolynomialSystem((HomogeneousPolynomial(n_vars, degree, coeffs),))


def linear_form_system(slope):
    """f = x_1 - slope x_0 on S^1."""
    return single(2, 1, {(0, 1): 1.0, (1, 0): -slope})


def product_of_linear_forms(slopes):
    terms = {(0, 1): 1.0, (1, 0): -slopes[0]}
    for s in slopes[1:]:
        nxt = {}
        for (e0, e1), c in terms.items():
            for (d0, d1), b in {(0, 1): 1.0, (1, 0): -s}.items():
                key = (e0 + d0, e1 + d1)
                nxt[key] = nxt.get(key, 0.0) + c * b
        terms = nxt
    return single(2, len(slopes), terms)


class TestTangentFrame:
    def test_axis_point(self):
        fr = tangent_frame(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(np.abs(fr.basis), np.eye(3)[:, 1:])

    def test_gram_identity(self, rng):
        for _ in range(20):
            x = random_sphere_point(rng, 4)
            fr = tangent_frame(x)
            G = np.column_stack([x, fr.basis])
            assert np.allclose(G.T @ G, np.eye(4), atol=1e-12)

    def test_bit_identical(self, rng):
        x = random_sphere_point(rng, 3)
        a = tangent_frame(x)
        b = tangent_frame(x.copy())
        assert a.basis.tobytes() == b.basis.tobytes()


class TestChartBeta:
    def test_zero_at_zero(self):
        F = single(2, 1, {(0, 1): 1.0})
        assert chart_beta(F, np.array([1.0, 0.0])) == 0.0

    def test_linear_offset(self):
        F = linear_form_system(0.1)
        assert chart_beta(F, np.array([1.0, 0.0])) == pytest.approx(0.1, abs=1e-14)

    def test_matches_direct_solve(self, rng):
        for seed in range(10):
            F = random_unit_system(2, (2, 2), 50 + seed)
            x = random_sphere_point(rng, 3)
            fr = tangent_frame(x)
            M = jacobian(F, x) @ fr.basis
            expected = np.linalg.norm(np.linalg.solve(M, evaluate(F, x)))
            assert chart_beta(F, x) == pytest.approx(expected, abs=1e-12 * (1 + expected))

    def test_singular_chart(self):
        # f = x_1^2 is flat at (1, 0): the chart Jacobian there is zero
        F = single(2, 2, {(0, 2): 1.0})
        x = np.array([1.0, 0.0])
        assert chart_beta(F, x) == math.inf
        z = refine_zero(F, x)
        assert z.converged is False
        assert z.final_beta == math.inf


class TestScaleInvariance:
    """The singularity rule is relative to the matrix, so mu and beta do
    not depend on the scale of f, however small or large."""

    @pytest.mark.parametrize("s", [1e-15, 1e-20, 1e10])
    def test_mu_and_beta(self, rng, s):
        for seed in range(4):
            F = random_unit_system(2, (2, 2), 70 + seed)
            X = np.array([random_sphere_point(rng, 3) for _ in range(8)])
            G = F.scaled(s)
            assert mu_many(G, X) == pytest.approx(mu_many(F, X), rel=1e-12)
            for x in X:
                assert mu(G, x) == pytest.approx(mu(F, x), rel=1e-12)
                assert chart_beta(G, x) == pytest.approx(chart_beta(F, x), rel=1e-12)


class TestGammaBound:
    def test_linear_systems_have_zero_gamma(self, rng):
        F = linear_form_system(0.3)
        x = random_sphere_point(rng, 2)
        assert gamma_bound(F, x) >= 0.0

    def test_dominates_sampled_lower_bound(self, rng):
        for seed in range(8):
            F = random_unit_system(1, (3,), 60 + seed)
            x = random_sphere_point(rng, 2)
            fr = tangent_frame(x)
            if not math.isfinite(gamma_bound(F, x)):
                continue
            lower = sampled_gamma_lower_bound(F, x, fr.basis, directions=1000, seed=seed)
            assert lower <= gamma_bound(F, x) * (1 + 1e-9)

    def test_scaling_keeps_bound_valid(self, rng):
        F = random_unit_system(1, (3,), 99)
        x = random_sphere_point(rng, 2)
        fr = tangent_frame(x)
        lower = sampled_gamma_lower_bound(F, x, fr.basis, directions=200, seed=0)
        scaled = F.scaled(5.0)
        # gamma of the chart map is invariant under system scaling while the
        # bound grows with |f|, so it stays valid
        assert gamma_bound(scaled, x) == pytest.approx(5.0 * gamma_bound(F, x), rel=1e-12)
        assert lower <= gamma_bound(scaled, x)


class TestInclusion:
    def test_exact_zero_point(self):
        F = single(2, 1, {(0, 1): 1.0})
        cert = inclusion_test(F, np.array([1.0, 0.0]))
        assert cert.admissible
        assert cert.inclusion_radius == 0.0
        z = refine_zero(F, np.array([1.0, 0.0]))
        assert z.newton_steps == 0
        assert np.allclose(z.zeta, [1.0, 0.0])

    def test_near_zero_refines_to_closed_form(self):
        eps = 1e-4
        F = linear_form_system(eps)
        x = np.array([1.0, 0.0])
        cert = inclusion_test(F, x)
        assert cert.admissible
        z = refine_zero(F, x)
        expected = normalize(np.array([1.0, eps]))
        assert z.converged
        assert np.linalg.norm(z.zeta - expected) < 1e-10

    def test_degenerate_chart_not_admissible(self):
        F = single(2, 2, {(0, 2): 1.0, (2, 0): -1.0}).normalized()
        cert = inclusion_test(F, np.array([1.0, 0.0]))
        assert not cert.admissible
        assert cert.mu == math.inf

    def test_admissibility_matches_threshold(self, rng):
        for seed in range(10):
            F = random_unit_system(2, (2, 2), 150 + seed)
            x = random_sphere_point(rng, 3)
            cert = inclusion_test(F, x)
            value = F.max_degree**1.5 * cert.mu**2 * cert.f_norm_at_x
            assert cert.admissible == (value < ALPHA.alpha_star)

    def test_certificate_json_keys(self):
        F = linear_form_system(0.1)
        doc = inclusion_test(F, np.array([1.0, 0.0])).to_json()
        assert set(doc) == {"point", "beta", "gamma_bound", "alpha", "mu", "r_x",
                            "admissible"}


class TestExclusion:
    def test_zero_residual(self):
        F = single(2, 1, {(0, 1): 1.0})
        assert exclusion_radius(F, np.array([1.0, 0.0])) == 0.0

    def test_formula_value(self):
        # residual 0.5 with max degree 4 gives 0.25
        F = single(2, 4, {(0, 4): 1.0})
        x = np.array([math.sqrt(math.sqrt(0.5)), math.sqrt(1 - math.sqrt(0.5))])
        got = exclusion_radius(F, x)
        fv = abs(evaluate(F.normalized(), x)[0])
        assert got == pytest.approx(fv / 2.0, rel=1e-12)

    def test_no_zero_inside_radius_n1(self, rng):
        for seed in range(30):
            F = random_unit_system(1, (3,), 500 + seed)
            zeros = circle_roots(F.polynomials[0], samples=4000)
            for _ in range(5):
                x = random_sphere_point(rng, 2)
                delta = exclusion_radius(F, x)
                for z in zeros:
                    assert angular_distance(x, z) >= delta - 1e-9

    def test_no_zero_inside_radius_n2(self, rng):
        for seed in range(12):
            F = random_unit_system(2, (2, 2), 800 + seed)
            zeros = sphere_zeros_oracle(F, starts=600)
            for _ in range(5):
                x = random_sphere_point(rng, 3)
                delta = exclusion_radius(F, x)
                for z in zeros:
                    assert angular_distance(x, z) >= delta - 1e-9


def _admissible_starts(F, rng, per_zero=4, scale=0.02):
    """Admissible points at small tangent offsets from each true zero."""
    out = []
    for z in sphere_zeros_oracle(F, starts=400):
        fr = tangent_frame(z)
        for _ in range(per_zero):
            v = fr.embed(rng.standard_normal(fr.n))
            v /= np.linalg.norm(v)
            s = rng.uniform(0.2, 1.0) * scale
            x = math.cos(s) * z + math.sin(s) * v
            if inclusion_test(F, x).admissible:
                out.append(x)
    return out


class TestRefineZero:
    def test_cubic_known_roots(self):
        slopes = (0.3, -0.7, 1.4)
        F = product_of_linear_forms(slopes).normalized()
        roots = [normalize(np.array([1.0, s])) for s in slopes]
        x = normalize(np.array([1.0, 0.302]))
        cert = inclusion_test(F, x)
        assert cert.admissible
        z = refine_zero(F, x)
        # vector distance: the angular metric cannot resolve below sqrt(eps)
        best = min(np.linalg.norm(z.zeta - r) for r in roots + [-r for r in roots])
        assert z.converged
        assert best < 1e-12

    def test_second_kind_contraction(self, rng):
        checked = 0
        for seed in range(6):
            F = random_unit_system(2, (2, 2), 900 + seed)
            for x in _admissible_starts(F, rng):
                z = refine_zero(F, x)
                if not z.converged or len(z.step_norms) < 2:
                    continue
                checked += 1
                b0 = z.step_norms[0]
                for i, s in enumerate(z.step_norms):
                    assert s <= 2.0 ** (1 - 2**i) * b0 + 1e-14
        assert checked > 10

    def test_distance_to_refined_zero_bounded(self, rng):
        checked = 0
        for seed in range(6):
            F = random_unit_system(2, (2, 2), 1200 + seed)
            for x in _admissible_starts(F, rng):
                cert = inclusion_test(F, x)
                z = refine_zero(F, x)
                if not z.converged:
                    continue
                checked += 1
                assert angular_distance(x, z.zeta) <= cert.inclusion_radius + 1e-12
        assert checked > 10

    def test_rotation_equivariance(self, rng):
        # (f o Q) refined from Q^T x lands at Q^T of the zero refined from x
        found = 0
        for seed in range(5):
            F = random_unit_system(2, (2, 2), 77 + seed)
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            FQ = rotate(F, Q)
            for x in _admissible_starts(F, rng, per_zero=2):
                z1 = refine_zero(F, x)
                z2 = refine_zero(FQ, Q.T @ x)
                if z1.converged and z2.converged:
                    found += 1
                    assert np.linalg.norm(Q.T @ z1.zeta - z2.zeta) < 1e-10
        assert found > 5

    def test_first_kind_contraction_from_known_zero(self, rng):
        # start inside the certified first-kind basin around a known zero
        slopes = (0.25, -1.1)
        F = product_of_linear_forms(slopes).normalized()
        zeta = normalize(np.array([1.0, 0.25]))
        fr = tangent_frame(zeta)
        gb = gamma_bound(F, zeta)
        radius = ALPHA.u_first_kind / gb
        for _ in range(25):
            c = (rng.uniform(-1, 1)) * radius
            c0 = np.array([c])
            dists = [abs(c)]
            ci = c0.copy()
            for _ in range(6):
                point = fr.base + fr.embed(ci)
                M = jacobian(F, point) @ fr.basis
                step = np.linalg.solve(M, evaluate(F, point))
                ci = ci - step
                dists.append(float(np.linalg.norm(ci)))
            for i, d in enumerate(dists):
                assert d <= 2.0 ** (1 - 2**i) * dists[0] + 1e-13


class TestSeparation:
    def test_gamma_times_distance_at_least_half(self):
        for slopes in [(0.3, -0.7), (0.1, 0.9), (0.25, -1.1, 1.7)]:
            F = product_of_linear_forms(slopes).normalized()
            roots = [normalize(np.array([1.0, s])) for s in slopes]
            for i, za in enumerate(roots):
                gb = gamma_bound(F, za)
                for j, zb in enumerate(roots):
                    if i == j:
                        continue
                    chart_dist = math.tan(angular_distance(za, zb))
                    assert gb * abs(chart_dist) >= 0.5 - 1e-9

    def test_sqrt_demo_first_kind(self):
        # approximating sqrt(y) from x0 = (1+y)/2: the start is a certified
        # first-kind point for x^2 - y over the whole parameter range
        for y in np.linspace(1.0, 4.0, 50):
            zeta = math.sqrt(y)
            x = 0.5 + y / 2.0
            gamma = 1.0 / (2.0 * zeta)  # sup_k |f^(k)/(k! f')|^(1/(k-1)) at zeta
            assert abs(x - zeta) * gamma <= ALPHA.u_first_kind + 1e-12
            xi = x
            for i in range(6):
                assert abs(xi - zeta) <= 2.0 ** (1 - 2**i) * abs(x - zeta) + 1e-14
                xi = xi - (xi * xi - y) / (2.0 * xi)


class TestRobustCertify:
    def test_delta_zero_reduces_to_inclusion(self):
        F = linear_form_system(0.05)
        x = np.array([1.0, 0.0])
        ok, env = robust_certify(F, x, 0.0)
        assert ok
        assert env[0] > 0.0

    def test_envelope_plateau(self):
        u0, delta = 0.12, 0.01
        env = gamma_error_sequence(u0, 14, delta)
        tail = env[-1] / u0
        assert tail == pytest.approx(2 * delta / u0, rel=0.5)
        for i, u in enumerate(env):
            assert u / u0 <= max(2.0 ** (1 - 2**i), 2 * delta / u0) + 1e-12

    def test_rejects_large_delta(self):
        F = linear_form_system(0.05)
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            robust_certify(F, x, 0.5)

    def test_not_certified_far_from_zero(self):
        F = single(2, 2, {(0, 2): 1.0, (2, 0): -1.0}).normalized()
        ok, env = robust_certify(F, np.array([1.0, 0.0]), 0.0)
        assert not ok and env == []

    def test_noisy_newton_stays_in_envelope(self, rng):
        # univariate model: f(x) = x^2 - 2, zero sqrt(2), gamma = 1/(2 sqrt(2))
        zeta = math.sqrt(2.0)
        gamma = 1.0 / (2.0 * zeta)
        delta = 0.005
        u0 = 0.12
        envelope = gamma_error_sequence(u0, 8, delta)
        for _ in range(1000):
            x = zeta + u0 / gamma * rng.uniform(-1, 1)
            u_start = abs(x - zeta) * gamma
            for i in range(1, 9):
                x = x - (x * x - 2.0) / (2.0 * x) + rng.uniform(-1, 1) * delta / gamma
                # envelope is stated for the worst start in the budget
                assert abs(x - zeta) * gamma <= envelope[i] + 1e-12
