"""Homogeneous polynomial systems with the Weyl (Bombieri) inner product.

Polynomials are stored sparsely as a map from exponent multi-indices to
real coefficients.  All objects are immutable after construction and every
operation is a pure function, so everything here is safe to share between
threads.

Points on the unit sphere are plain numpy arrays; ``sphere_point`` checks
the unit-norm invariant and ``normalize`` produces one from any nonzero
vector.

Evaluation.  Each polynomial compiles once, on first use, into a term
program, ``(c, ((j, e), ...))`` per term in graded-lex order with zero
exponents left out, one program per partial derivative, and for each
variable x_j the programs of the g_e with f = sum_e x_j**e g_e (Horner
along x_j, in ``condition``).  ``_run`` is
the one kernel that evaluates monomials, on Python floats for one point
and on the columns of a batch as arrays: it forms each ``x_j**e`` once per
call as ``x_j**(e-1) * x_j``, multiplies a term's factors left to right,
once per call for a monomial that several programs share, and sums
``c * term`` in term order.  Every step is one correctly rounded
IEEE multiplication or addition, in an order fixed by the program, so one
point equals the same row of a batch bit for bit, and the kernel is
sign-symmetric: a homogeneous polynomial of degree d gives exactly
``(-1)**d f(x)`` at ``-x``.  Neither would hold with ``**``: numpy's
vectorized power does not always round like libm ``pow``, and its
``(-x)**3`` differs from ``-(x**3)`` in the last bit for some x.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "HomogeneousPolynomial",
    "AffinePolynomial",
    "PolynomialSystem",
    "sphere_point",
    "normalize",
    "weyl_inner",
    "weyl_norm",
    "kernel_eval",
    "kernel_polynomial",
    "rotate",
    "lift_affine",
    "derivative_tensor",
    "multinomial",
    "system_to_json",
    "system_from_json",
]


def multinomial(d, exponents):
    """d! / (a_0! a_1! ... a_n!) for a multi-index with |a| = d."""
    out = math.factorial(d)
    for a in exponents:
        out //= math.factorial(a)
    return out


def normalize(x):
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / nrm


# how far |x| may be from 1 for x to count as a unit point: f at (1 + e) x
# is (1 + e)^d f(x), so the |f| that certification reads at x errs by d e
_UNIT_TOL = 1e-9


def sphere_point(coords):
    """Validate that ``coords`` lies on the unit sphere (within ``_UNIT_TOL``)."""
    x = np.asarray(coords, dtype=float)
    if abs(float(np.linalg.norm(x)) - 1.0) > _UNIT_TOL:
        raise ValueError(f"point is not on the unit sphere: |x| = {np.linalg.norm(x)}")
    return x


# ---------------------------------------------------------------------------
# sparse coefficient maps (internal helpers, used also by condition/rotation)

def _merge_term(coeffs, expo, c):
    if c == 0.0:
        return
    prev = coeffs.get(expo, 0.0)
    new = prev + c
    if new == 0.0:
        coeffs.pop(expo, None)
    else:
        coeffs[expo] = new


def poly_mul(a, b):
    """Multiply two sparse coefficient maps."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _merge_term(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def poly_pow(a, k, n_vars):
    out = {(0,) * n_vars: 1.0}
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def linear_form(v):
    """Coefficient map of the linear form x -> <v, x>."""
    n_vars = len(v)
    out = {}
    for j, c in enumerate(v):
        if c != 0.0:
            e = [0] * n_vars
            e[j] = 1
            out[tuple(e)] = float(c)
    return out


def _graded_lex(coefficients):
    """The terms of a coefficient map in graded-lexicographic order."""
    # all terms of a homogeneous polynomial share the degree, so this is
    # plain reverse-lex within each degree; kept graded for affine inputs
    return sorted(coefficients.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0])))


def _partial(coefficients, j):
    """The coefficient map of d/dx_j."""
    out = {}
    for expo, c in coefficients.items():
        e = expo[j]
        if e:
            _merge_term(out, expo[:j] + (e - 1,) + expo[j + 1:], c * e)
    return out


def _compile(coefficients):
    """The term program of a coefficient map (see the module docstring)."""
    return tuple((c, tuple((j, e) for j, e in enumerate(expo) if e))
                 for expo, c in _graded_lex(coefficients))


def _split(program, j, degree):
    """The programs of g_0, ..., g_degree with f = sum_e x_j**e g_e, f the
    polynomial of the term ``program``: each term goes, without its factor
    of x_j, to the program of its exponent e of x_j.  These are the
    ``_compile`` programs of the g_e, in one pass: the terms that share e
    keep their graded-lex order when that factor is dropped."""
    split = [[] for _ in range(degree + 1)]
    for c, factors in program:
        e, rest = 0, []
        for f in factors:
            if f[0] == j:
                e = f[1]
            else:
                rest.append(f)
        split[e].append((c, tuple(rest)))
    return tuple(map(tuple, split))


def _clean_terms(n_vars, coefficients, degree=None):
    """The one term validator of both polynomial classes: each multi-index
    has ``n_vars`` non-negative exponents (summing to ``degree`` if given)
    and each coefficient is finite; returns the map without its zeros."""
    clean = {}
    for expo, c in coefficients.items():
        expo = tuple(int(e) for e in expo)
        if len(expo) != n_vars:
            raise ValueError(f"multi-index {expo} has wrong arity")
        if any(e < 0 for e in expo):
            raise ValueError(f"negative exponent in {expo}")
        if degree is not None and sum(expo) != degree:
            raise ValueError(f"multi-index {expo} has degree {sum(expo)}, expected {degree}")
        c = float(c)
        if not math.isfinite(c):
            raise ValueError("coefficients must be finite")
        if c != 0.0:
            clean[expo] = c
    return clean


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """A single homogeneous polynomial in ``n_vars`` real variables.

    ``coefficients`` maps exponent tuples (length ``n_vars``, summing to
    ``degree``) to nonzero floats; missing entries are zero.
    """

    n_vars: int
    degree: int
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        object.__setattr__(self, "coefficients",
                           _clean_terms(self.n_vars, self.coefficients, self.degree))

    def terms(self):
        """Terms in graded-lexicographic order (deterministic)."""
        return _graded_lex(self.coefficients)

    def __call__(self, x):
        return evaluate(self, x)

    def gradient_polys(self):
        """The n_vars partial derivatives as coefficient maps."""
        return [_partial(self.coefficients, j) for j in range(self.n_vars)]

    _program = cached_property(lambda self: _compile(self.coefficients))
    _gradient_programs = cached_property(
        lambda self: tuple(_compile(g) for g in self.gradient_polys()))
    # per variable j, the programs of g_0, ..., g_d with f = sum_e x_j**e g_e
    _split_programs = cached_property(lambda self: tuple(
        _split(self._program, j, self.degree) for j in range(self.n_vars)))


@dataclass(frozen=True)
class AffinePolynomial:
    """A (not necessarily homogeneous) polynomial, input to ``lift_affine``."""

    n_vars: int
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = _clean_terms(self.n_vars, self.coefficients)
        if not clean:
            raise ValueError("zero polynomial")
        object.__setattr__(self, "coefficients", clean)

    @property
    def degree(self):
        return max(sum(e) for e in self.coefficients)

    def __call__(self, x):
        return _run(self._program, _point(self.n_vars, x), {})

    _program = cached_property(lambda self: _compile(self.coefficients))


@dataclass(frozen=True)
class PolynomialSystem:
    """n homogeneous polynomials in n+1 variables."""

    polynomials: tuple

    def __post_init__(self):
        polys = tuple(self.polynomials)
        if not polys:
            raise ValueError("empty system")
        n_vars = polys[0].n_vars
        if any(p.n_vars != n_vars for p in polys):
            raise ValueError("all polynomials must share the same number of variables")
        if n_vars != len(polys) + 1:
            raise ValueError(
                f"expected {len(polys) + 1} variables for a system of {len(polys)} "
                f"polynomials, got {n_vars}"
            )
        object.__setattr__(self, "polynomials", polys)

    @property
    def n(self):
        return len(self.polynomials)

    @property
    def n_vars(self):
        return self.polynomials[0].n_vars

    @property
    def degrees(self):
        return tuple(p.degree for p in self.polynomials)

    @property
    def max_degree(self):
        return max(self.degrees)

    @cached_property
    def weyl_norm(self):
        return math.sqrt(sum(weyl_inner(p, p) for p in self.polynomials))

    def scaled(self, factor):
        return PolynomialSystem(tuple(
            HomogeneousPolynomial(p.n_vars, p.degree,
                                  {e: factor * c for e, c in p.coefficients.items()})
            for p in self.polynomials))

    def normalized(self):
        """The system rescaled to unit Weyl norm, built once per system."""
        return self._normalized

    @cached_property
    def _normalized(self):
        nrm = self.weyl_norm
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero system")
        return self.scaled(1.0 / nrm)

    def __call__(self, x):
        return evaluate(self, x)


# ---------------------------------------------------------------------------
# evaluation and derivatives

def _run(program, cols, cache):
    """sum_t c_t * prod_j x_j**e_tj: the one kernel that evaluates monomials.

    ``cols[j]`` is variable j, a float for one point or an array for a
    batch.  ``cache`` maps (j, e) to x_j**e and a term's factors to its
    monomial, and may be shared by the programs of one call, so each
    power and each monomial is formed once per call.  A program without
    a variable term gives a scalar (0.0 when empty), which batch callers
    broadcast.
    """
    total = 0.0
    for c, factors in program:
        term = cache.get(factors)
        if term is None:
            for j, e in factors:
                p = _power(cols, cache, j, e)
                term = p if term is None else term * p
            cache[factors] = term
        total += c if term is None else c * term
    return total


def _power(cols, cache, j, e):
    """x_j**e as x_j**(e-1) * x_j, each power formed once per ``cache``."""
    p = cache.get((j, e))
    if p is None:
        p = cache[j, e] = cols[j] if e == 1 else _power(cols, cache, j, e - 1) * cols[j]
    return p


def _point(n_vars, x):
    """The coordinates of one point as Python floats."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n_vars,):
        raise ValueError(f"expected a point with {n_vars} entries, got shape {x.shape}")
    return x.tolist()


def _columns(n_vars, X):
    """The number of points in a batch and its columns."""
    X = np.asarray(X, dtype=float)
    if X.shape[1:] != (n_vars,):
        raise ValueError(f"expected points of shape (N, {n_vars}), got shape {X.shape}")
    return X.shape[0], list(X.T)


def evaluate(f, x):
    """Evaluate a polynomial or a system at a point.

    Returns a float for a single polynomial, a length-n vector for a system.
    """
    cols = _point(f.n_vars, x)
    if isinstance(f, PolynomialSystem):
        cache = {}
        return np.array([_run(p._program, cols, cache) for p in f.polynomials])
    return _run(f._program, cols, {})


def evaluate_many(f, X):
    """Vectorized evaluation at many points.

    ``X`` has shape (N, n_vars).  Returns (N,) for a polynomial and
    (N, n) for a system, stored by columns: column i is one contiguous
    run of the values of polynomial i.
    """
    N, cols = _columns(f.n_vars, X)
    system = isinstance(f, PolynomialSystem)
    polys = f.polynomials if system else (f,)
    out = np.empty((len(polys), N))
    cache = {}
    for row, p in zip(out, polys):
        row[...] = _run(p._program, cols, cache)
    return out.T if system else out[0]


def jacobian(F, x):
    """The n x (n+1) Jacobian matrix of a system at ``x``."""
    cols = _point(F.n_vars, x)
    cache = {}
    return np.array([[_run(g, cols, cache) for g in p._gradient_programs]
                     for p in F.polynomials])


def jacobian_many(F, X):
    """Vectorized Jacobians: shape (N, n, n_vars), stored by columns like
    ``evaluate_many``: a view of an (n, n_vars, N) array."""
    N, cols = _columns(F.n_vars, X)
    out = np.empty((F.n, F.n_vars, N))
    cache = {}
    for row, p in zip(out, F.polynomials):
        for col, g in zip(row, p._gradient_programs):
            col[...] = _run(g, cols, cache)
    return out.transpose(2, 0, 1)


_TENSOR_MAX_VARS = 5
_TENSOR_MAX_DEGREE = 6


def derivative_tensor(f, x, k):
    """The k-th derivative of ``f`` at ``x`` as a dense symmetric tensor.

    T[i1, ..., ik] = d^k f / dx_{i1} ... dx_{ik} evaluated at x, so that
    T(u, ..., u) = d^k/dt^k f(x + t u) at t = 0.  Dense storage, guarded to
    small sizes.
    """
    if f.n_vars > _TENSOR_MAX_VARS or f.degree > _TENSOR_MAX_DEGREE:
        raise ValueError("derivative_tensor is limited to n_vars <= 5 and degree <= 6")
    if not 0 <= k <= f.degree:
        raise ValueError(f"order k = {k} out of range for degree {f.degree}")
    cols = _point(f.n_vars, x)
    cache = {}
    if k == 0:
        return _run(f._program, cols, cache)
    T = np.zeros((f.n_vars,) * k)
    for idx in np.ndindex(*T.shape):
        m = f.coefficients
        for j in idx:
            m = _partial(m, j)
        T[idx] = _run(_compile(m), cols, cache)
    return T


def apply_tensor(T, *vectors):
    """Contract a dense symmetric tensor against k vectors."""
    out = np.asarray(T, dtype=float)
    for v in vectors:
        out = np.tensordot(out, np.asarray(v, dtype=float), axes=([out.ndim - 1], [0]))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Weyl inner product and the reproducing kernel

def weyl_inner(f, g):
    """sum_a f_a g_a / multinomial(d; a); orthogonally invariant."""
    if f.degree != g.degree or f.n_vars != g.n_vars:
        raise ValueError("Weyl inner product needs equal degree and arity")
    small, large = (f.coefficients, g.coefficients)
    if len(large) < len(small):
        small, large = large, small
    total = 0.0
    for expo, c in small.items():
        other = large.get(expo)
        if other is not None:
            total += c * other / multinomial(f.degree, expo)
    return total


def weyl_norm(f):
    if isinstance(f, PolynomialSystem):
        return f.weyl_norm
    return math.sqrt(weyl_inner(f, f))


def kernel_eval(d, x, y):
    """K_d(x, y) = <x, y>^d, the reproducing kernel value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("kernel arguments must have equal arity")
    return float(np.dot(x, y)) ** d


def kernel_polynomial(d, y):
    """K_d(., y) as a polynomial: <f, K_d(., y)> = f(y) for all f."""
    y = np.asarray(y, dtype=float)
    n_vars = y.shape[0]
    coeffs = poly_pow(linear_form(y), d, n_vars)
    return HomogeneousPolynomial(n_vars, d, coeffs)


def rotate(f, Q, tol=1e-10):
    """The composition f(Q x) as a polynomial in x.

    ``Q`` must be orthogonal within ``tol``.
    """
    Q = np.asarray(Q, dtype=float)
    if isinstance(f, PolynomialSystem):
        return PolynomialSystem(tuple(rotate(p, Q, tol) for p in f.polynomials))
    if Q.shape != (f.n_vars, f.n_vars):
        raise ValueError("rotation matrix has wrong shape")
    if np.max(np.abs(Q.T @ Q - np.eye(f.n_vars))) > tol:
        raise ValueError("matrix is not orthogonal")
    # (Qx)_i = <row_i(Q), x>; expand each monomial as a product of powers
    # of these linear forms
    rows = [linear_form(Q[i]) for i in range(f.n_vars)]
    out = {}
    for expo, c in f.coefficients.items():
        term = {(0,) * f.n_vars: c}
        for i, e in enumerate(expo):
            if e:
                term = poly_mul(term, poly_pow(rows[i], e, f.n_vars))
        for te, tc in term.items():
            _merge_term(out, te, tc)
    return HomogeneousPolynomial(f.n_vars, f.degree, out)


# ---------------------------------------------------------------------------
# affine-to-sphere reduction

def homogenize(g):
    """Standard homogenization: prepend a variable x_0 of weight d - |a|."""
    d = g.degree
    coeffs = {}
    for expo, c in g.coefficients.items():
        coeffs[(d - sum(expo),) + expo] = c
    return HomogeneousPolynomial(g.n_vars + 1, d, coeffs)


def lift_affine(polys):
    """Lift an affine system of n polynomials in n variables to the sphere.

    Returns the system (f_1^h, ..., f_n^h, g) of n+1 homogeneous polynomials
    in n+2 variables (y_0, ..., y_n, u), where f_i^h is the standard
    homogenization of the i-th input and

        g(y, u) = y_0 u - (y_1^2 + ... + y_n^2).

    Counting: if every affine root is nondegenerate, the number of zeros of
    the lifted system on the unit sphere equals 2 (affine count + 1); the two
    extra zeros are (0, ..., 0, +-1).
    """
    polys = [p if isinstance(p, AffinePolynomial) else AffinePolynomial(p[0], p[1])
             for p in polys]
    n = len(polys)
    if any(p.n_vars != n for p in polys):
        raise ValueError(f"expected {n} polynomials in {n} variables")
    lifted = []
    for p in polys:
        h = homogenize(p)
        # extend arity with the extra variable u (exponent 0 everywhere)
        lifted.append(HomogeneousPolynomial(
            n + 2, h.degree, {e + (0,): c for e, c in h.coefficients.items()}))
    g_coeffs = {}
    e = [0] * (n + 2)
    e[0] = 1
    e[-1] = 1
    g_coeffs[tuple(e)] = 1.0
    for i in range(1, n + 1):
        e = [0] * (n + 2)
        e[i] = 2
        g_coeffs[tuple(e)] = -1.0
    lifted.append(HomogeneousPolynomial(n + 2, 2, g_coeffs))
    return PolynomialSystem(tuple(lifted))


def lifted_poles(n_vars):
    """The two zeros at infinity shared by every lifted system.

    The second is ``0.0 - pole``, so its zero coordinates are 0.0, not -0.0.
    """
    pole = np.zeros(n_vars)
    pole[-1] = 1.0
    return pole, 0.0 - pole


# ---------------------------------------------------------------------------
# JSON interchange format

def system_to_json(F):
    """Canonical JSON document for a system."""
    return {
        "n": F.n,
        "degrees": list(F.degrees),
        "polynomials": [
            {"terms": [{"exponents": list(e), "coeff": c} for e, c in p.terms()]}
            for p in F.polynomials
        ],
    }


def system_from_json(doc):
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        n = int(doc["n"])
        degrees = [int(d) for d in doc["degrees"]]
        raw = doc["polynomials"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system document: {exc}") from exc
    if len(degrees) != n or len(raw) != n:
        raise ValueError("system document: 'degrees' and 'polynomials' must have length n")
    polys = []
    for d, entry in zip(degrees, raw):
        coeffs = {}
        for term in entry["terms"]:
            expo = tuple(int(e) for e in term["exponents"])
            c = float(term["coeff"])
            if not math.isfinite(c):
                raise ValueError("coefficients must be finite doubles")
            if sum(expo) != d:
                raise ValueError(
                    f"exponents {expo} sum to {sum(expo)}, declared degree is {d}")
            _merge_term(coeffs, expo, c)
        if not coeffs:
            # its zero set on the sphere is not isolated
            raise ValueError("polynomial is identically zero")
        polys.append(HomogeneousPolynomial(n + 1, d, coeffs))
    return PolynomialSystem(tuple(polys))
