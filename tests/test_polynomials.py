import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecount import condition
from spherecount import polynomials as pl
from spherecount.condition import sample_gaussian_system
from spherecount.polynomials import (AffinePolynomial, HomogeneousPolynomial,
                                     PolynomialSystem, apply_tensor,
                                     derivative_tensor, evaluate,
                                     evaluate_many, homogenize, jacobian,
                                     jacobian_many, kernel_eval,
                                     kernel_polynomial, lift_affine,
                                     lifted_poles, normalize, rotate,
                                     sphere_point, system_from_json,
                                     system_to_json, weyl_inner, weyl_norm)

from conftest import random_sphere_point, random_unit_system
from oracles import rational_evaluate, finite_difference_jacobian


def poly(n_vars, degree, coeffs):
    return HomogeneousPolynomial(n_vars, degree, coeffs)


def random_poly(rng, n_vars, degree):
    from spherecount.condition import multi_indices

    coeffs = {a: rng.standard_normal() for a in multi_indices(n_vars, degree)}
    return HomogeneousPolynomial(n_vars, degree, coeffs)


def random_rotation(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


class TestEvaluate:
    def test_sum_of_squares(self):
        f = poly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
        assert evaluate(f, [3.0, 4.0]) == 25.0

    def test_linear(self):
        f = poly(2, 1, {(0, 1): 1.0, (1, 0): -0.1})
        assert evaluate(f, [1.0, 0.0]) == pytest.approx(-0.1, abs=0)

    def test_against_exact_rational(self, rng):
        for _ in range(10):
            f = random_poly(rng, 3, 3)
            x = rng.standard_normal(3)
            expected = float(rational_evaluate(f, x))
            assert evaluate(f, x) == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))

    def test_many_matches_single(self, rng):
        f = random_poly(rng, 3, 2)
        X = rng.standard_normal((40, 3))
        vals = evaluate_many(f, X)
        for i in range(40):
            assert vals[i] == pytest.approx(evaluate(f, X[i]), rel=1e-13)

    def test_dimension_mismatch(self):
        f = poly(2, 2, {(2, 0): 1.0})
        with pytest.raises(ValueError):
            evaluate(f, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            evaluate_many(f, np.ones((4, 3)))

    def test_system_evaluation(self):
        F = PolynomialSystem((poly(2, 1, {(0, 1): 1.0}),))
        assert np.allclose(evaluate(F, [2.0, 5.0]), [5.0])


class TestHomogeneity:
    def test_scaling_law(self, rng):
        for _ in range(20):
            f = random_poly(rng, 3, 3)
            x = random_sphere_point(rng, 3)
            lam = rng.uniform(-2.0, 2.0)
            fx = evaluate(f, x)
            assert abs(evaluate(f, lam * x) - lam**3 * fx) <= 1e-10 * (1.0 + abs(fx))

    def test_euler_identity(self, rng):
        for _ in range(20):
            f = random_poly(rng, 3, 4)
            F = PolynomialSystem((f, random_poly(rng, 3, 2)))
            x = random_sphere_point(rng, 3)
            J = jacobian(F, x)
            fx = evaluate(F, x)
            euler = J @ x
            for i, d in enumerate(F.degrees):
                assert euler[i] == pytest.approx(d * fx[i], abs=1e-10)


class TestJacobian:
    def test_single_variable_row(self):
        F = PolynomialSystem((poly(2, 1, {(0, 1): 1.0}),))
        assert np.allclose(jacobian(F, [1.0, 0.0]), [[0.0, 1.0]])

    def test_product_rule(self):
        F = PolynomialSystem((poly(2, 2, {(1, 1): 1.0}),))
        a, b = 1.3, -0.4
        assert np.allclose(jacobian(F, [a, b]), [[b, a]])

    def test_against_finite_differences(self, rng):
        for seed in range(5):
            F = random_unit_system(2, (2, 3), seed)
            x = random_sphere_point(rng, 3)
            J = jacobian(F, x)
            J_fd = finite_difference_jacobian(F, x)
            assert np.max(np.abs(J - J_fd)) <= 1e-6 * (1.0 + np.max(np.abs(J)))

    def test_many_matches_single(self, rng):
        F = random_unit_system(2, (2, 2), 7)
        X = np.array([random_sphere_point(rng, 3) for _ in range(25)])
        JJ = jacobian_many(F, X)
        for i in range(25):
            assert np.allclose(JJ[i], jacobian(F, X[i]), atol=1e-13)


class TestEvaluationKernel:
    """Scalar and batched evaluation run one kernel of IEEE multiplications
    and additions in one order, so they agree bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**16), size=st.integers(0, 4),
           data=st.data())
    def test_scalar_matches_batch_row(self, n, seed, size, data):
        degrees = tuple(data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
        F = sample_gaussian_system(n, degrees, seed)
        X = np.random.default_rng(seed).standard_normal((size, n + 1))
        values, jacobians = evaluate_many(F, X), jacobian_many(F, X)
        assert values.shape == (size, n) and jacobians.shape == (size, n, n + 1)
        assert evaluate_many(F.polynomials[0], X).shape == (size,)
        for i, x in enumerate(X):
            assert np.array_equal(evaluate_many(F, X[i:i + 1])[0], values[i])
            assert np.array_equal(jacobian_many(F, X[i:i + 1])[0], jacobians[i])
            assert np.array_equal(evaluate(F, x), values[i])
            assert np.array_equal(jacobian(F, x), jacobians[i])

    @pytest.mark.parametrize("degrees", [
        (1,), (3,), (5,), (2, 2), (3, 1), (5, 4), (2, 2, 2), (1, 2, 3), (4, 3, 5),
        (2, 2, 2, 2), (3, 1, 2, 3), (2, 2, 2, 2, 2), (1, 2, 3, 4, 5)])
    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_shared_monomials_match_programs_run_alone(self, degrees, size):
        """A call forms each monomial once for all its programs; every
        polynomial and every partial derivative still equals its program
        run alone with its own cache, bit for bit."""
        n = len(degrees)
        F = sample_gaussian_system(n, degrees, 100 * n + sum(degrees))
        X = np.random.default_rng(size).standard_normal((size, n + 1))
        values, jacobians = evaluate_many(F, X), jacobian_many(F, X)
        for i, p in enumerate(F.polynomials):
            assert np.array_equal(values[:, i], evaluate_many(p, X))
            for j, g in enumerate(p._gradient_programs):
                alone = np.broadcast_to(pl._run(g, list(X.T), {}), (size,))
                assert np.array_equal(jacobians[:, i, j], alone)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_row_norms_match_numpy_norm(self, n):
        """The in-order sum of squared value columns equals np.linalg.norm of
        the values, in either memory order, bit for bit."""
        F = sample_gaussian_system(n, tuple(range(1, n + 1)), 7 * n)
        X = np.random.default_rng(n).standard_normal((1000, n + 1))
        values = evaluate_many(F, X)
        norms = condition._row_norms(values)
        assert np.array_equal(norms, np.linalg.norm(values, axis=1))
        assert np.array_equal(norms, np.linalg.norm(np.ascontiguousarray(values), axis=1))

    def test_gradients_derived_once(self, monkeypatch):
        calls = []
        derive = HomogeneousPolynomial.gradient_polys
        monkeypatch.setattr(HomogeneousPolynomial, "gradient_polys",
                            lambda self: calls.append(self) or derive(self))
        F = sample_gaussian_system(2, (2, 3), 11)
        X = np.random.default_rng(0).standard_normal((5, 3))
        for x in X:
            jacobian(F, x)
            jacobian_many(F, X)
        assert len(calls) == F.n

    @pytest.mark.parametrize("size", [0, 1, 5])
    def test_zero_polynomial(self, size):
        zero = poly(3, 2, {})
        F = PolynomialSystem((zero, poly(3, 1, {(0, 1, 0): 1.0})))
        X = np.random.default_rng(size).standard_normal((size, 3))
        assert evaluate(zero, np.ones(3)) == 0.0
        assert np.array_equal(evaluate_many(zero, X), np.zeros(size))
        values, jacobians = evaluate_many(F, X), jacobian_many(F, X)
        assert np.array_equal(values[:, 0], np.zeros(size))
        assert np.array_equal(values[:, 1], X[:, 1])
        assert np.array_equal(jacobians[:, 0], np.zeros((size, 3)))
        assert np.array_equal(jacobians[:, 1], np.tile([0.0, 1.0, 0.0], (size, 1)))


class TestDerivativeTensor:
    def test_square_constant_hessian(self):
        f = poly(2, 2, {(2, 0): 1.0})
        T = derivative_tensor(f, np.array([0.3, -2.0]), 2)
        assert np.allclose(T, [[2.0, 0.0], [0.0, 0.0]])

    def test_gradient_order_one(self):
        f = poly(2, 2, {(1, 1): 1.0})
        T = derivative_tensor(f, np.array([1.0, 2.0]), 1)
        assert np.allclose(T, [2.0, 1.0])

    def test_taylor_reconstruction(self, rng):
        for _ in range(5):
            f = random_poly(rng, 3, 4)
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            u = y - x
            total = evaluate(f, x)
            for k in range(1, f.degree + 1):
                T = derivative_tensor(f, x, k)
                total += apply_tensor(T, *([u] * k)) / math.factorial(k)
            assert total == pytest.approx(evaluate(f, y), abs=1e-10 * (1 + abs(total)))

    def test_size_guard(self):
        f = poly(2, 2, {(2, 0): 1.0})
        with pytest.raises(ValueError):
            derivative_tensor(f, np.zeros(2), 3)


class TestWeylInner:
    def test_pure_power(self):
        f = poly(2, 2, {(2, 0): 1.0})
        assert weyl_inner(f, f) == pytest.approx(1.0, abs=0)

    def test_mixed_monomial_weight(self):
        f = poly(2, 2, {(1, 1): 1.0})
        assert weyl_inner(f, f) == pytest.approx(0.5, abs=0)

    def test_degree_mismatch(self):
        f = poly(2, 2, {(2, 0): 1.0})
        g = poly(2, 3, {(3, 0): 1.0})
        with pytest.raises(ValueError):
            weyl_inner(f, g)

    def test_orthogonal_invariance(self, rng):
        for _ in range(5):
            f = random_poly(rng, 3, 3)
            g = random_poly(rng, 3, 3)
            Q = random_rotation(rng, 3)
            lhs = weyl_inner(rotate(f, Q), rotate(g, Q))
            assert lhs == pytest.approx(weyl_inner(f, g), abs=1e-10 * (1 + abs(lhs)))


class TestNormalized:
    def test_built_once_per_system(self):
        F = sample_gaussian_system(2, (2, 3), 7)
        assert F.normalized() is F.normalized()

    def test_coefficients_equal_a_fresh_rescaling(self):
        for seed in range(5):
            F = sample_gaussian_system(3, (1, 2, 3), seed)
            fresh = F.scaled(1.0 / F.weyl_norm)
            for p, q in zip(F.normalized().polynomials, fresh.polynomials):
                assert p.coefficients == q.coefficients


class TestKernel:
    def test_coincident(self):
        assert kernel_eval(2, [1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert kernel_eval(3, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_reproducing_property(self, rng):
        for _ in range(5):
            f = random_poly(rng, 3, 4)
            y = random_sphere_point(rng, 3)
            k = kernel_polynomial(4, y)
            assert weyl_inner(f, k) == pytest.approx(evaluate(f, y), abs=1e-10)

    def test_derivative_reproducing_property(self, rng):
        # Df(y)u = <f, d/dt K(., y + tu)> checked through finite differences
        f = random_poly(rng, 3, 3)
        y = random_sphere_point(rng, 3)
        u = rng.standard_normal(3)
        h = 1e-6
        kp = kernel_polynomial(3, y + h * u)
        km = kernel_polynomial(3, y - h * u)
        dk = (weyl_inner(f, kp) - weyl_inner(f, km)) / (2 * h)
        F = PolynomialSystem((f, random_poly(rng, 3, 2)))
        direct = jacobian(F, y)[0] @ u
        assert dk == pytest.approx(direct, abs=1e-6 * (1 + abs(direct)))


class TestRotate:
    def test_identity(self, rng):
        f = random_poly(rng, 3, 3)
        g = rotate(f, np.eye(3))
        assert g.coefficients == pytest.approx(f.coefficients)

    def test_quarter_turn_sends_x0_to_x1(self):
        f = poly(2, 1, {(1, 0): 1.0})
        Q = np.array([[0.0, -1.0], [1.0, 0.0]])  # e0 -> e1
        g = rotate(f, Q)
        # (f o Q)(x) = f(Qx) = (Qx)_0 = -x_1
        for x in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
            assert evaluate(g, x) == pytest.approx(-x[1], abs=1e-12)

    def test_pointwise_agreement(self, rng):
        f = random_poly(rng, 3, 3)
        Q = random_rotation(rng, 3)
        g = rotate(f, Q)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert evaluate(g, x) == pytest.approx(evaluate(f, Q @ x), abs=1e-10)

    def test_rejects_non_orthogonal(self, rng):
        f = random_poly(rng, 2, 2)
        with pytest.raises(ValueError):
            rotate(f, np.array([[1.0, 0.2], [0.0, 1.0]]))


class TestLiftAffine:
    def test_shape_and_degrees(self):
        g = AffinePolynomial(1, {(1,): 1.0, (0,): -2.0})  # x - 2
        F = lift_affine([g])
        assert F.n == 2 and F.n_vars == 3
        assert F.degrees == (1, 2)

    def test_poles_are_zeros(self):
        g = AffinePolynomial(1, {(2,): 1.0, (0,): -2.0})  # x^2 - 2
        F = lift_affine([g])
        for pole in lifted_poles(F.n_vars):
            assert np.linalg.norm(evaluate(F, pole)) == 0.0

    def test_affine_roots_map_to_sphere_zeros(self):
        # x^2 - 2 = 0 at x = +-sqrt(2); lifted zeros (1, x, x^2)/norm
        g = AffinePolynomial(1, {(2,): 1.0, (0,): -2.0})
        F = lift_affine([g])
        for root in (math.sqrt(2.0), -math.sqrt(2.0)):
            p = normalize(np.array([1.0, root, root * root]))
            assert np.linalg.norm(evaluate(F, p)) < 1e-12
            assert np.linalg.norm(evaluate(F, -p)) < 1e-12

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            AffinePolynomial(1, {(1,): 0.0})

    @pytest.mark.parametrize("coeffs, message", [
        ({(1,): math.nan, (0,): 1.0}, "finite"),
        ({(1,): math.inf}, "finite"),
        ({(-1,): 1.0}, "negative exponent"),
        ({(1, 0): 1.0}, "arity"),
    ])
    def test_terms_validated_as_homogeneous_ones(self, coeffs, message):
        # the term rules of HomogeneousPolynomial: an affine polynomial may
        # not build with a nan coefficient or a degree of -1
        with pytest.raises(ValueError, match=message):
            AffinePolynomial(1, coeffs)
        with pytest.raises(ValueError, match=message):
            HomogeneousPolynomial(1, 1, coeffs)

    def test_call_checks_point_length(self):
        g = AffinePolynomial(2, {(2, 0): 1.0, (0, 1): 3.0, (0, 0): -1.0})
        assert g([2.0, 1.0]) == 6.0
        for x in ([2.0], [2.0, 1.0, 5.0]):
            with pytest.raises(ValueError):
                g(x)

    @pytest.mark.parametrize("coeffs,expected", [
        ({(1,): 1.0, (0,): -2.0}, 4),   # x - 2: one root
        ({(2,): 1.0, (0,): -2.0}, 6),   # x^2 - 2: two roots
        ({(2,): 1.0, (0,): 1.0}, 2),    # x^2 + 1: none
    ])
    def test_lift_count_against_sphere_oracle(self, coeffs, expected):
        # 2 (affine count + 1) zeros on the lifted sphere: finite ones by
        # multistart Newton, the two poles verified exactly
        from oracles import sphere_zeros_oracle

        F = lift_affine([AffinePolynomial(1, coeffs)]).normalized()
        poles = lifted_poles(F.n_vars)
        finite = [z for z in sphere_zeros_oracle(F, starts=1200)
                  if min(np.linalg.norm(z - p) for p in poles) > 0.05]
        for p in poles:
            assert np.linalg.norm(evaluate(F, p)) == 0.0
        assert len(finite) + 2 == expected

    def test_homogenize(self):
        g = AffinePolynomial(2, {(2, 0): 1.0, (0, 1): 3.0, (0, 0): -1.0})
        h = homogenize(g)
        assert h.degree == 2
        assert h.coefficients == {(0, 2, 0): 1.0, (1, 0, 1): 3.0, (2, 0, 0): -1.0}


class TestJsonFormat:
    def test_round_trip(self, rng):
        F = random_unit_system(2, (2, 3), 5)
        doc = system_to_json(F)
        G = system_from_json(doc)
        assert G.degrees == F.degrees
        x = random_sphere_point(rng, 3)
        assert np.allclose(evaluate(G, x), evaluate(F, x))

    def test_degree_mismatch_rejected(self):
        doc = {"n": 1, "degrees": [2],
               "polynomials": [{"terms": [{"exponents": [1, 0], "coeff": 1.0}]}]}
        with pytest.raises(ValueError):
            system_from_json(doc)

    def test_zero_polynomial_rejected(self):
        doc = {"n": 1, "degrees": [1],
               "polynomials": [{"terms": [{"exponents": [1, 0], "coeff": 0.0}]}]}
        with pytest.raises(ValueError, match="identically zero"):
            system_from_json(doc)

    def test_nonfinite_rejected(self):
        doc = {"n": 1, "degrees": [1],
               "polynomials": [{"terms": [{"exponents": [1, 0], "coeff": float("inf")}]}]}
        with pytest.raises(ValueError):
            system_from_json(doc)


class TestSpherePoint:
    def test_accepts_unit(self):
        sphere_point([1.0, 0.0, 0.0])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            sphere_point([1.0, 1.0])

    def test_normalize(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8])
        with pytest.raises(ValueError):
            normalize([0.0, 0.0])


def test_system_weyl_norm_is_euclidean_over_rows():
    f1 = poly(2, 2, {(2, 0): 1.0})          # norm 1
    f2 = poly(2, 2, {(1, 1): 1.0})          # norm sqrt(1/2)
    F = PolynomialSystem((poly(3, 2, {(2, 0, 0): 1.0}),
                          poly(3, 2, {(1, 1, 0): 1.0})))
    assert weyl_norm(F) == pytest.approx(math.sqrt(weyl_inner(f1, f1) + weyl_inner(f2, f2)))
