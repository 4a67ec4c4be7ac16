"""Convergence constants and model Newton orbits for alpha theory.

Everything in this module is one-dimensional: the contraction polynomial
psi, the radii r0/r1, the certified-start thresholds, and the worst-case
analytic functions

    h_gamma(t)      = t - gamma t^2 / (1 - gamma t)
    h_bg(t; b, g)   = b - t + g t^2 / (1 - g t)

whose Newton orbits admit closed forms.  These closed forms drive every
quantitative claim made by the sphere certification routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "psi",
    "r0",
    "r1",
    "alpha_star",
    "robust_alpha_threshold",
    "robust_u0",
    "newton_h_gamma",
    "gamma_error_sequence",
    "UniversalQuadratic",
    "universal_orbit_closed",
    "error_bound_alpha",
    "contraction_coefficients",
    "geometric_series_coeff",
    "g_deriv",
    "g_gamma_drift",
    "AlphaConstants",
    "ALPHA",
    "gamma_contraction_table",
    "alpha_error_table",
]

_BISECT_MAX_ITER = 200

# the closed-form thresholds, each written once (see AlphaConstants)
_ALPHA0 = (13.0 - 3.0 * math.sqrt(17.0)) / 4.0
_U_FIRST_KIND = (3.0 - math.sqrt(7.0)) / 2.0
_U_ROBUST_MAX = 2.0 - math.sqrt(14.0) / 2.0
_ALPHA_TIGHT = 3.0 - 2.0 * math.sqrt(2.0)


def psi(u):
    """The contraction polynomial 1 - 4u + 2u^2."""
    return 1.0 - 4.0 * u + 2.0 * u * u


def _check_alpha_range(alpha):
    if not 0.0 < alpha <= _ALPHA_TIGHT:
        raise ValueError(f"alpha = {alpha} outside (0, 3 - 2*sqrt(2)]")


def r0(alpha):
    """(1 + a - sqrt(1 - 6a + a^2)) / (4a); convergence radius in Newton steps."""
    _check_alpha_range(alpha)
    return (1.0 + alpha - math.sqrt(1.0 - 6.0 * alpha + alpha * alpha)) / (4.0 * alpha)


def r1(alpha):
    """(1 - 3a - sqrt(1 - 6a + a^2)) / (4a); satisfies r0 - r1 = 1."""
    _check_alpha_range(alpha)
    return (1.0 - 3.0 * alpha - math.sqrt(1.0 - 6.0 * alpha + alpha * alpha)) / (4.0 * alpha)


def _bisect(fun, lo, hi):
    flo = fun(lo)
    if flo == 0.0:
        return lo
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fun(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_star():
    """Smallest positive fixed point of a = alpha0 (1 - a r0(a))^2.

    This is the admissibility threshold of the sphere inclusion test.
    """
    return _bisect(lambda a: a - _ALPHA0 * (1.0 - a * r0(a)) ** 2, 1e-9, _ALPHA_TIGHT)


def robust_u0(alpha):
    """u0(alpha) = r a / ((1 - r a) psi(r a)) with r = r0(alpha)."""
    ra = r0(alpha) * alpha
    return ra / ((1.0 - ra) * psi(ra))


def robust_alpha_threshold():
    """The alpha at which robust_u0 reaches 2 - sqrt(14)/2 (about 0.074290).

    Below this value, Newton sequences perturbed by delta per step (with
    2 delta below the u0 budget) still contract; see gamma_error_sequence.
    """
    return _bisect(lambda a: robust_u0(a) - _U_ROBUST_MAX, 1e-6, 0.12)


@dataclass(frozen=True)
class AlphaConstants:
    """The closed-form thresholds of one-point Newton certification."""

    alpha0: float          # largest certifiable alpha = (13 - 3 sqrt(17))/4
    u_first_kind: float    # (3 - sqrt(7))/2, radius (in 1/gamma units) of first-kind starts
    u_strict: float        # (5 - sqrt(17))/4, where u/psi(u) reaches 1
    u_robust_max: float    # 2 - sqrt(14)/2, budget for inexact iteration
    alpha_tight: float     # 3 - 2 sqrt(2), where the model function loses its real zeros
    alpha_star: float      # inclusion-test threshold (fixed point above)
    alpha_robust: float    # robust certification threshold (about 0.074290)


def _make_constants():
    return AlphaConstants(
        alpha0=_ALPHA0,
        u_first_kind=_U_FIRST_KIND,
        u_strict=(5.0 - math.sqrt(17.0)) / 4.0,
        u_robust_max=_U_ROBUST_MAX,
        alpha_tight=_ALPHA_TIGHT,
        alpha_star=alpha_star(),
        alpha_robust=robust_alpha_threshold(),
    )


ALPHA = _make_constants()


def newton_h_gamma(gamma, t):
    """One Newton step for h_gamma(t) = t - gamma t^2/(1 - gamma t), from t.

    Equals -gamma t^2 / psi(gamma t); raises if the step is singular.
    """
    p = psi(gamma * t)
    if abs(p) < 1e-14:
        raise ZeroDivisionError("singular Newton step: psi(gamma t) = 0")
    return -gamma * t * t / p


def gamma_error_sequence(u0, steps, delta=0.0):
    """The error recurrence u_{i+1} = u_i^2/psi(u_i) + delta.

    Returns [u_0, u_1, ..., u_steps].  With delta = 0 the start must satisfy
    u0 < (5 - sqrt(17))/4; with delta > 0 it must satisfy
    2 delta <= u0 <= 2 - sqrt(14)/2.  The guaranteed envelope is
    u_i/u0 <= 2^(1 - 2^i) for u0 <= (3 - sqrt(7))/2, degrading to
    max(2^(1 - 2^i), 2 delta/u0) in the perturbed case.
    """
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        if not 0.0 <= u0 < ALPHA.u_strict:
            raise ValueError(f"u0 = {u0} outside [0, (5 - sqrt(17))/4)")
    else:
        if not 2.0 * delta <= u0 <= ALPHA.u_robust_max:
            raise ValueError(f"need 2 delta <= u0 <= 2 - sqrt(14)/2, got u0 = {u0}")
    out = [u0]
    u = u0
    for _ in range(steps):
        u = u * u / psi(u) + delta
        out.append(u)
    return out


@dataclass(frozen=True)
class UniversalQuadratic:
    """Closed-form data for the worst-case function with step beta, rate gamma.

    The function b - t + g t^2/(1 - g t) has zeros zeta1 <= zeta2 and a pole
    at 1/g; its Newton orbit from 0 is

        t_i = zeta1 (1 - q^(2^i - 1)) / (1 - eta_ratio q^(2^i - 1)).
    """

    beta: float
    gamma: float
    alpha: float
    Delta: float
    zeta1: float
    zeta2: float
    q: float
    eta_ratio: float

    @classmethod
    def from_invariants(cls, beta, gamma):
        if beta <= 0.0 or gamma <= 0.0:
            raise ValueError("beta and gamma must be positive")
        alpha = beta * gamma
        if alpha > _ALPHA_TIGHT:
            raise ValueError(
                f"alpha = {alpha} > 3 - 2 sqrt(2): the model function has no real zeros")
        Delta = (1.0 + alpha) ** 2 - 8.0 * alpha
        s = math.sqrt(Delta)
        return cls(
            beta=beta,
            gamma=gamma,
            alpha=alpha,
            Delta=Delta,
            zeta1=(1.0 + alpha - s) / (4.0 * gamma),
            zeta2=(1.0 + alpha + s) / (4.0 * gamma),
            q=(1.0 - alpha - s) / (1.0 - alpha + s),
            eta_ratio=(1.0 + alpha - s) / (1.0 + alpha + s),
        )

    def value(self, t):
        """Product form 2 (t - zeta1)(t - zeta2) / (1/gamma - t)."""
        return 2.0 * (t - self.zeta1) * (t - self.zeta2) / (1.0 / self.gamma - t)

    def value_series(self, t):
        """Rational closed form of the defining series."""
        return self.beta - t + self.gamma * t * t / (1.0 - self.gamma * t)

    def derivative(self, t):
        g = self.gamma
        return -1.0 + g * t * (2.0 - g * t) / (1.0 - g * t) ** 2

    def newton_step(self, t):
        return t - self.value(t) / self.derivative(t)

    def orbit(self, i):
        """t_i in closed form (Newton orbit from t_0 = 0)."""
        qq = self.q ** (2**i - 1)
        return self.zeta1 * (1.0 - qq) / (1.0 - self.eta_ratio * qq)


def universal_orbit_closed(beta, gamma, i):
    """Closed-form i-th Newton iterate on the model function, started at 0."""
    return UniversalQuadratic.from_invariants(beta, gamma).orbit(i)


def error_bound_alpha(alpha, i):
    """Certified distance-to-zero bound after i Newton steps, in units of beta.

    For a start with invariant product bounded by alpha, the i-th iterate
    satisfies |x_i - zeta| <= q^(2^i - 1) (1 - eta)/(1 - eta q^(2^i - 1)) r0(alpha) beta.
    """
    u = UniversalQuadratic.from_invariants(1.0, alpha)  # beta = 1: bound in beta units
    qq = u.q ** (2**i - 1)
    return qq * (1.0 - u.eta_ratio) / (1.0 - u.eta_ratio * qq) * r0(alpha)


def contraction_coefficients(alpha, i_max):
    """C_0..C_imax with (t_{i+1} - t_i)/beta = C_i q^(2^i - 1); C_0 = 1.

    The sequence is non-increasing with a positive limit.
    """
    u = UniversalQuadratic.from_invariants(1.0, alpha)
    q, eta = u.q, u.eta_ratio
    out = []
    for i in range(i_max + 1):
        q_i = q ** (2**i - 1)
        q_ip = q ** (2 ** (i + 1) - 1)
        c = ((1.0 - eta) * (1.0 - eta * q) * (1.0 - q ** (2**i))
             / ((1.0 - q) * (1.0 - eta * q_ip) * (1.0 - eta * q_i)))
        out.append(c)
    return out


def geometric_series_coeff(d, k):
    """Coefficient of t^k in (1 - t)^(-d): C(k + d - 1, d - 1)."""
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    return float(math.comb(k + d - 1, d - 1))


def _check_u_range(u):
    if not 0.0 <= u < 1.0 - math.sqrt(2.0) / 2.0:
        raise ValueError(f"u = {u} outside [0, 1 - sqrt(2)/2)")


def g_deriv(u):
    """(1 - u)^2 / psi(u): growth factor of inverse-derivative norms."""
    _check_u_range(u)
    return (1.0 - u) ** 2 / psi(u)


def g_gamma_drift(u):
    """1 / ((1 - u) psi(u)): growth factor of the gamma invariant."""
    _check_u_range(u)
    return 1.0 / ((1.0 - u) * psi(u))


# ---------------------------------------------------------------------------
# reference tables (emitted as CSV by the command line front end)

GAMMA_TABLE_COLUMNS = (1.0 / 32.0, 1.0 / 16.0, 1.0 / 10.0, 1.0 / 8.0, _U_FIRST_KIND)
GAMMA_TABLE_LABELS = ("1/32", "1/16", "1/10", "1/8", "(3-sqrt(7))/2")
ALPHA_TABLE_COLUMNS = (1.0 / 32.0, 1.0 / 16.0, 1.0 / 10.0, 1.0 / 8.0, _ALPHA0)
ALPHA_TABLE_LABELS = ("1/32", "1/16", "1/10", "1/8", "(13-3sqrt(17))/4")


def gamma_contraction_table(i_max=5):
    """-log2(u_i/u_0) for the reference starts, rows i = 1..i_max."""
    rows = []
    for i in range(1, i_max + 1):
        row = []
        for u0 in GAMMA_TABLE_COLUMNS:
            ui = gamma_error_sequence(u0, i)[-1]
            row.append(-math.log2(ui / u0))
        rows.append(row)
    return rows


def alpha_error_table(i_max=6):
    """-log2 of the certified error bound, rows i = 1..i_max."""
    return [[-math.log2(error_bound_alpha(a, i)) for a in ALPHA_TABLE_COLUMNS]
            for i in range(1, i_max + 1)]
