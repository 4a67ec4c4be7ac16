"""One-point certification of zeros on the sphere.

A sphere point x is examined through the affine chart F_x: X -> f(x + X)
on the tangent space x-perp.  The inclusion test bounds the Newton
invariants of F_x at 0 through the condition number:

    beta(F_x, 0)  = |Df(x)|_{x-perp}^{-1} f(x)|          (first step length)
    gamma(F_x, 0) <= (max d)^{3/2} / 2 |f| mu(f, x)      (certified bound)

and admits x exactly when (max d)^{3/2} mu^2 |f(x)| stays below the
threshold alpha_star, in which case Newton iteration from x converges to a
zero zeta_x within the cap of radius r_x = r0(alpha_star) mu |f(x)|.
The test reads mu and |f| alone and is written once, over arrays: the
predicate _admissible and the cap radius _inclusion_radius serve
inclusion_test and the counting loop alike.  Conversely exclusion_radius
gives a cap around x certified to contain no zero at all.

A chart point is x + U c in the one frame U of x-perp
(condition.tangent_basis), in which mu_many reads the restricted Jacobian.
Every Newton step (beta, refine_zero) solves the chart system with LAPACK
(numpy.linalg.solve).  The chart Jacobian counts as singular, and the step
as undefined, by the SVD rule that makes mu infinite
(condition._sigma_min_svd: sigma_min(M) at most _SINGULAR_TOL max|M|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polynomials as pl
from .condition import _sigma_min_svd, mu, tangent_basis
from .convergence import ALPHA, gamma_error_sequence, r0, robust_u0

__all__ = [
    "Certificate",
    "RefinedZero",
    "chart_beta",
    "gamma_bound",
    "inclusion_test",
    "exclusion_radius",
    "refine_zero",
    "robust_certify",
]


def _newton_step(F, point, basis):
    """The Newton step of f in the chart spanned by ``basis`` at ``point``.

    LAPACK solves the chart system; None when its Jacobian is singular
    under the rule that also decides where mu is infinite.
    """
    M = pl.jacobian(F, point) @ basis
    if _sigma_min_svd(M) == 0.0:
        return None
    return np.linalg.solve(M, pl.evaluate(F, point))


def chart_beta(F, x):
    """beta(F_x, 0): the length of the first Newton step in the chart at x.

    Returns inf when the restricted Jacobian is singular.
    """
    x = pl.sphere_point(x)
    step = _newton_step(F, x, tangent_basis(x))
    return math.inf if step is None else float(np.linalg.norm(step))


def gamma_bound(F, x):
    """Certified upper bound (max d)^{3/2}/2 |f| mu(f, x) for gamma(F_x, 0)."""
    m = mu(F, x)
    if math.isinf(m):
        return math.inf
    return 0.5 * F.max_degree**1.5 * F.weyl_norm * m


@dataclass(frozen=True)
class Certificate:
    """Inclusion-test data for one sphere point (computed at unit |f|)."""

    point: np.ndarray
    beta: float
    gamma_bound: float
    alpha_bound: float
    mu: float
    f_norm_at_x: float
    inclusion_radius: float
    admissible: bool

    def to_json(self):
        return {
            "point": [float(v) for v in self.point],
            "beta": self.beta,
            "gamma_bound": self.gamma_bound,
            "alpha": self.alpha_bound,
            "mu": self.mu,
            "r_x": self.inclusion_radius,
            "admissible": self.admissible,
        }


def _admissible(f_norms, mus, max_degree):
    """The inclusion test, elementwise, at unit |f|: D^1.5 mu^2 |f| < alpha_star."""
    with np.errstate(invalid="ignore", over="ignore"):
        value = max_degree**1.5 * mus * mus * f_norms
    return np.isfinite(mus) & (value < ALPHA.alpha_star)


def _inclusion_radius(f_norms, mus):
    """Radius r0(alpha_star) mu |f| of the certified cap; inf where mu is inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(np.isinf(mus), math.inf, r0(ALPHA.alpha_star) * mus * f_norms)


def inclusion_test(F, x):
    """Certify that Newton iteration from x converges to a nearby zero.

    The system is normalized to unit Weyl norm internally (the test is
    invariant under scaling).  The certificate is admissible exactly when
    (max d)^{3/2} mu(f, x)^2 |f(x)| < alpha_star, and then the certified
    zero zeta_x lies within angular distance r_x of x.
    """
    Fn = F.normalized()
    x = pl.sphere_point(x)
    m = mu(Fn, x)
    f_norm = float(np.linalg.norm(pl.evaluate(Fn, x)))
    beta = chart_beta(Fn, x)
    gb = math.inf if math.isinf(m) else 0.5 * Fn.max_degree**1.5 * m
    return Certificate(
        point=np.asarray(x, float),
        beta=beta,
        gamma_bound=gb,
        alpha_bound=beta * gb if not (beta == 0.0 and math.isinf(gb)) else math.inf,
        mu=m,
        f_norm_at_x=f_norm,
        inclusion_radius=float(_inclusion_radius(f_norm, m)),
        admissible=bool(_admissible(f_norm, m, Fn.max_degree)),
    )


def exclusion_radius(F, x):
    """Angular radius around x certified to contain no zero of f.

    delta = min(|f(x)| / sqrt(max d), sqrt(2)) for the unit-norm system
    (normalized internally); zero when f(x) = 0.  x must lie on the unit
    sphere.
    """
    Fn = F.normalized()
    x = pl.sphere_point(x)
    f_norm = float(np.linalg.norm(pl.evaluate(Fn, x)))
    return min(f_norm / math.sqrt(Fn.max_degree), math.sqrt(2.0))


@dataclass(frozen=True)
class RefinedZero:
    """Outcome of Newton iteration in the chart at a start point."""

    zeta: np.ndarray
    newton_steps: int
    final_beta: float
    converged: bool
    step_norms: tuple = ()

    def to_json(self):
        return {
            "zeta": [float(v) for v in self.zeta],
            "newton_steps": self.newton_steps,
            "final_beta": self.final_beta,
            "converged": self.converged,
        }


def refine_zero(F, x, tol=1e-13, max_steps=50):
    """Iterate Newton on the chart at x until the step length drops below tol.

    Returns the projected limit zeta_x = (x + X*)/|x + X*|.  Divergence
    (growing steps) or a singular chart Jacobian yields converged = False.
    """
    Fn = F.normalized()
    x = pl.sphere_point(x)
    U = tangent_basis(x)
    c = np.zeros(U.shape[1])
    steps = []
    beta = math.inf
    converged = False
    for _ in range(max_steps):
        step = _newton_step(Fn, x + U @ c, U)
        if step is None:
            beta = math.inf
            break
        beta = float(np.linalg.norm(step))
        if beta <= tol:
            converged = True
            break
        if len(steps) >= 2 and beta > steps[-1] >= steps[-2]:
            break
        steps.append(beta)
        c = c - step
    else:
        converged = beta <= tol
    zeta = pl.normalize(x + U @ c)
    return RefinedZero(
        zeta=zeta,
        newton_steps=len(steps),
        final_beta=beta,
        converged=converged,
        step_norms=tuple(steps),
    )


def robust_certify(F, x, delta, steps=10):
    """Certify Newton iteration whose steps carry an error of size delta.

    The error is measured in the scale-free units of the error recurrence
    u_{i+1} = u_i^2/psi(u_i) + delta.  Returns (certified, envelope) where
    envelope[i] bounds u_i; certified requires an admissible start,
    alpha below the robust threshold, and 2 delta < u0(alpha).
    """
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    cert = inclusion_test(F, x)
    alpha = cert.alpha_bound
    if not cert.admissible or not alpha <= ALPHA.alpha_robust:
        return False, []
    u0 = robust_u0(max(alpha, 1e-300))
    if delta == 0.0:
        return True, gamma_error_sequence(u0, steps)
    if 2.0 * delta >= u0:
        raise ValueError(f"delta = {delta} too large: need 2 delta < u0 = {u0}")
    return True, gamma_error_sequence(u0, steps, delta)
