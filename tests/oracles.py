"""Independent reference computations used to check the library.

Everything here deliberately avoids the production code paths it is used
to verify: exact rational evaluation, finite differences, dense grid root
localization with plain Gauss-Newton polishing, and direct Newton
iteration on the model functions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def rational_evaluate(poly, x):
    """Term-by-term evaluation in exact rational arithmetic."""
    xr = [Fraction(float(v)) for v in x]
    total = Fraction(0)
    for expo, c in poly.coefficients.items():
        term = Fraction(float(c))
        for xv, e in zip(xr, expo):
            term *= xv**e
        total += term
    return total


def finite_difference_jacobian(F, x, h=1e-6):
    """Central differences of the system map."""
    from spherecount.polynomials import evaluate

    x = np.asarray(x, float)
    cols = []
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((evaluate(F, xp) - evaluate(F, xm)) / (2.0 * h))
    return np.stack(cols, axis=1)


def circle_roots(poly, samples=20000, refine_iters=80):
    """All zeros on S^1 of one homogeneous polynomial in two variables.

    Dense angular scan for sign changes, then bisection.  Returns the
    points as unit vectors.
    """
    from spherecount.polynomials import evaluate, evaluate_many

    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    vals = evaluate_many(poly, pts)

    def val(theta):
        return evaluate(poly, np.array([math.cos(theta), math.sin(theta)]))

    roots = []
    for i in range(samples):
        a = thetas[i]
        b = thetas[(i + 1) % samples] + (2 * math.pi if i + 1 == samples else 0.0)
        fa, fb = vals[i], vals[(i + 1) % samples]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            lo, hi = a, b
            flo = fa
            for _ in range(refine_iters):
                mid = 0.5 * (lo + hi)
                fm = val(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return [np.array([math.cos(t), math.sin(t)]) for t in roots]


def _fibonacci_sphere(count):
    """Quasi-uniform start points on S^2."""
    i = np.arange(count)
    phi = math.pi * (3.0 - math.sqrt(5.0))
    y = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(1.0 - y * y)
    theta = phi * i
    return np.stack([r * np.cos(theta), y, r * np.sin(theta)], axis=1)


def sphere_zeros_oracle(F, starts=4000, tol=1e-10, dedup=1e-6, iters=60):
    """All zeros of a 2-equation system on S^2 by multistart Gauss-Newton.

    Minimum-norm steps on the full 2x3 Jacobian (via the 2x2 normal
    equations, batched over all starts) followed by projection back to the
    sphere: independent of the tangent-chart machinery.
    """
    from spherecount.polynomials import evaluate_many, jacobian_many

    X = _fibonacci_sphere(starts)
    alive = np.ones(X.shape[0], dtype=bool)
    for _ in range(iters):
        fx = evaluate_many(F, X)
        res = np.linalg.norm(fx, axis=1)
        active = alive & (res >= tol)
        if not active.any():
            break
        J = jacobian_many(F, X[active])
        G = np.einsum("nij,nkj->nik", J, J)  # 2x2 Gram matrices
        a, b = G[:, 0, 0], G[:, 0, 1]
        d = G[:, 1, 1]
        det = a * d - b * b
        good = np.abs(det) > 1e-30
        f_act = fx[active]
        y0 = np.where(good, (d * f_act[:, 0] - b * f_act[:, 1]) / det, 0.0)
        y1 = np.where(good, (a * f_act[:, 1] - b * f_act[:, 0]) / det, 0.0)
        step = J[:, 0, :] * y0[:, None] + J[:, 1, :] * y1[:, None]
        lens = np.linalg.norm(step, axis=1)
        sane = good & (lens <= 0.8) & np.isfinite(lens)
        idx = np.nonzero(active)[0]
        alive[idx[~sane]] = False
        move = idx[sane]
        X[move] = X[move] - step[sane]
        X[move] /= np.linalg.norm(X[move], axis=1)[:, None]
    res = np.linalg.norm(evaluate_many(F, X), axis=1)
    zeros = []
    for x in X[alive & (res < tol)]:
        if not any(np.arccos(np.clip(np.dot(x, z), -1, 1)) < dedup for z in zeros):
            zeros.append(x)
    return zeros


def newton_iterates_on_model(beta, gamma, steps):
    """Direct Newton iteration on b - t + g t^2/(1 - g t), from t = 0."""
    def h(t):
        return beta - t + gamma * t * t / (1.0 - gamma * t)

    def hp(t):
        return -1.0 + gamma * t * (2.0 - gamma * t) / (1.0 - gamma * t) ** 2

    out = [0.0]
    t = 0.0
    for _ in range(steps):
        t = t - h(t) / hp(t)
        out.append(t)
    return out


def newton_step_h_gamma_direct(gamma, t):
    """Newton step for t - g t^2/(1 - g t) via explicit differentiation."""
    h = t - gamma * t * t / (1.0 - gamma * t)
    hp = 1.0 - gamma * t * (2.0 - gamma * t) / (1.0 - gamma * t) ** 2
    return t - h / hp


def sampled_gamma_lower_bound(F, x, basis, directions=1000, seed=0):
    """Lower bound for gamma of the chart map at x by diagonal sampling.

    Evaluates |DF(0)^-1 D^kF(0) u^k / k!|^(1/(k-1)) over random unit chart
    directions u; a lower bound because the operator norm dominates its
    diagonal restriction.
    """
    from spherecount.polynomials import apply_tensor, derivative_tensor, jacobian

    rng = np.random.default_rng(seed)
    n = basis.shape[1]
    M = jacobian(F, x) @ basis
    Minv = np.linalg.inv(M)
    best = 0.0
    dmax = max(p.degree for p in F.polynomials)
    tensors = {}
    for k in range(2, dmax + 1):
        tensors[k] = [derivative_tensor(p, x, k) if k <= p.degree else None
                      for p in F.polynomials]
    for _ in range(directions):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v = basis @ u
        for k in range(2, dmax + 1):
            vec = np.array([0.0 if T is None else apply_tensor(T, *([v] * k))
                            for T in tensors[k]])
            val = np.linalg.norm(Minv @ vec) / math.factorial(k)
            if val > 0.0:
                best = max(best, val ** (1.0 / (k - 1)))
    return best


def weyl_distance(F, G):
    from spherecount.polynomials import weyl_inner

    return math.sqrt(sum(
        weyl_inner(p, p) - 2.0 * weyl_inner(p, q) + weyl_inner(q, q)
        for p, q in zip(F.polynomials, G.polynomials)))


def system_combination(F, G, a=1.0, b=1.0):
    """The system a F + b G (matching degrees assumed)."""
    from spherecount.polynomials import HomogeneousPolynomial, PolynomialSystem

    polys = []
    for p, q in zip(F.polynomials, G.polynomials):
        keys = set(p.coefficients) | set(q.coefficients)
        coeffs = {k: a * p.coefficients.get(k, 0.0) + b * q.coefficients.get(k, 0.0)
                  for k in keys}
        polys.append(HomogeneousPolynomial(p.n_vars, p.degree, coeffs))
    return PolynomialSystem(tuple(polys))


def jacobian_by_terms(F, X):
    """Df at the rows of X, summed term by term from the coefficients:
    (N, n, n + 1), without the library's compiled monomial programs."""
    X = np.asarray(X, float)
    J = np.zeros((X.shape[0], F.n, F.n_vars))
    for i, p in enumerate(F.polynomials):
        for expo, c in p.coefficients.items():
            for j, e in enumerate(expo):
                if e:
                    lowered = np.array(expo)
                    lowered[j] -= 1
                    J[:, i, j] += c * e * np.prod(X**lowered, axis=1)
    return J


def mu_svd(F, X):
    """mu at the unit rows of X by the SVD of diag(d^-1/2) J(x) (I - x x^T).

    The projector replaces the library's Householder frame, the SVD its
    Gram matrices, and |F|_W is summed from the coefficients; inf where the
    n-th singular value is 0.
    """
    X = np.asarray(X, float)
    weyl = math.sqrt(sum(
        c * c * math.prod(math.factorial(e) for e in expo) / math.factorial(p.degree)
        for p in F.polynomials for expo, c in p.coefficients.items()))
    scale = np.asarray(F.degrees, float) ** -0.5
    P = np.eye(X.shape[1])[None] - X[:, :, None] * X[:, None, :]
    J = jacobian_by_terms(F, X) * scale[None, :, None]
    smin = np.linalg.svd(J @ P, compute_uv=False)[:, F.n - 1]
    with np.errstate(divide="ignore"):
        return weyl / smin
