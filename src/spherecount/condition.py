"""Singular values, the normalized condition number mu, and the counting
condition number kappa.

mu(f, x) is the Weyl norm of f divided by the smallest singular value of
the degree-scaled Jacobian restricted to the tangent space x-perp; 1/mu is
the distance from f to the systems whose restricted Jacobian at x is
singular (an Eckart-Young statement lifted through the reproducing-kernel
basis).  kappa(f, x) combines mu with the residual norm and its sphere
maximum governs the cost of the counting algorithm.  Its grid maximum is
taken inside the one streamed pass over a grid (``_scan``), for
``kappa_grid`` and each counting level alike; every pass reads |f| from
one walk (``_walk``) of one slab per face, in chunks of at most
``_BLOCK`` rows.  mu has one kernel,
``mu_many``, that holds each entry of the restricted Jacobian and of its
Gram as a contiguous column and sums them in a fixed order; scalar ``mu``
is its one-row case.  x-perp has one frame, columns 1..n of the
Householder reflection of ``_householder``: mu reads the restricted
Jacobian in it, and so do the chart (``tangent_basis``) and Eckart-Young.

A pass reads |f| at three kinds of row only: the rows under its cut
``below`` (possible exclusion failures), the candidates and the kappa
contenders; it takes mu at the candidates and the contenders only.  A
row's candidate ceiling and kappa cap come from a bound on mu over the
row's tile, or from the global floor mu >= sqrt(n) and mu_hi = inf.  A
row with |f| at or above its kappa cut has cap 1/sqrt(mu_hi^-2 + f*f) of
at most the running maximum ``best``, and ``best`` only rises during a
pass, so a cut taken earlier in it stays sound.  A pass given a kappa seed
has the walk screen its grid by tile centres, in the cell-exclusion
pattern of Plantinga and Vegter (SGP 2004), by |f| before it norms a
tile's rows and by mu before it takes mu at them:

* |f| is sqrt(D) |F|_W-Lipschitz on S^n, D the largest degree: the
  derivative of f_i along the sphere has norm at most sqrt(d_i) |f_i|_W at
  a unit point, which is the bound behind the exclusion lemma of Cucker,
  Krick, Malajovich and Wschebor (A numerical algorithm for zero counting I).
* A tile is ``TILE`` consecutive rows of one run, whose lattice points k
  differ in the moving coordinate only.  Its centre c lies half a step
  between rows, so every row is at most h = (TILE - 1)/2 steps from it and
  |k/m - c/m| <= h/m.  Both points have |.| >= 1, since their face
  coordinate is m, and radial projection from outside the unit ball is
  1-Lipschitz, so their unit points lie at most the chord h/m apart, an
  angle of at most delta = 2 asin(h/(2m)).
* The computed |f| of any point errs by less than half of
  ``_rounding_margin`` (the Horner rule's pinned rounding bound), so every
  row of the tile has computed |f| >= |f(c)| - sqrt(D) |F|_W delta -
  margin, rounding of that bound itself included.  A tile whose bound is
  at least the cut is never normed; no output reads its rows.
* 1/mu is D^1.5 |F|_W-Lipschitz in the angle (the Lipschitz property of
  mu_norm; Buergisser and Cucker, Condition, ch. 16).  With mu taken at
  |f| = 1, 1/mu(x) is sigma_n of A(x) = diag(d_i^-1/2) Df(x) (I - x x^T),
  the restricted Jacobian with x itself mapped to 0.  By Weyl's inequality
  |sigma_n(A(y)) - sigma_n(A(x))| <= |A(y) - A(x)|, and row i of A(y) -
  A(x) is d_i^-1/2 ((Df_i(y) - Df_i(x)) (I - y y^T) + Df_i(x) (x x^T -
  y y^T)).  The reproducing kernel gives Df_i(z) v = d_i <f_i, <., z>^(d_i
  - 1) <., v>>_W and D^2 f_i(z)(v, w) = d_i (d_i - 1) <f_i, <., z>^(d_i -
  2) <., v> <., w>>_W, and a product of linear forms has Weyl norm at most
  the product of their norms, so |Df_i(x)| <= d_i |f_i|_W and |D^2 f_i(z)|
  <= d_i (d_i - 1) |f_i|_W for |z| <= 1.  Along the arc from x to y of
  angle theta, and with |x x^T - y y^T| = sin theta <= theta, row i has
  norm at most d_i^1.5 |f_i|_W theta, so |A(y) - A(x)| <= D^1.5 |F|_W
  theta.  Hence mu(c)/(1 + u) <= mu(y) <= mu(c)/(1 - u) for u = D^1.5 |F|_W
  mu(c) delta (``_mu_sandwich``), the upper bound for u < 1 only, each
  widened by ``_MU_SLACK`` for computed mu.  A kept tile whose centre or
  end rows have |f| under max(ceiling, kappa cut), so that the floor mu >=
  sqrt(n) would leave rows of it in need of mu, takes mu at its centre
  before any of its rows is normed.  Its rows then have the candidate
  ceiling C_SLACK alpha*/(D^1.5 mu_lo^2), mu_lo = max(sqrt(n), mu(c)/(1 +
  u)), and the kappa cap 1/sqrt(mu_hi^-2 + f*f), mu_hi = mu(c)/(1 - u)
  (``_tile_bounds``); a row above its ceiling fails the inclusion test,
  and a row whose cap is at most ``best`` cannot raise it, so neither
  needs mu, and a tile whose ``lower`` is at least both bounds and
  ``below`` is never normed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import polynomials as pl
from .mesh import angular_distance, build_mesh

__all__ = [
    "SingularSpectrum",
    "singular_values",
    "min_singular_value",
    "eckart_young_correction",
    "distance_to_rank_deficient",
    "tangent_basis",
    "mu",
    "mu_many",
    "kappa_point",
    "kappa_many",
    "kappa_grid",
    "minimal_singular_perturbation",
    "mu_variation_check",
    "multi_indices",
    "sample_gaussian_system",
    "kn_constant",
    "expected_ln_kappa_bound",
    "smoothed_ln_kappa_bound",
    "monte_carlo_ln_kappa",
]

_RANK_TOL = 1e-12
_SINGULAR_TOL = 1e-14
# rounding moves a Gram's sigma_min^2 by a few n^3 eps max|M|^2, so a Gram
# sigma_min above _GRAM_TOL max|M| (n < 10) is one the SVD calls nonsingular
_GRAM_TOL = 1e-6
# how far from 1 the Weyl norm of a system taken as unit-norm may be, as
# 1/mu is a distance only at |f| = 1; F.normalized() misses by a few ulps
_UNIT_NORM_TOL = 1e-8


def _sum_products(a, b):
    """a[0]*b[0] + a[1]*b[1] + ... over two sequences of (N,) columns, summed
    left to right: the one order of every sum over a few columns."""
    s = a[0] * b[0]
    for u, w in zip(a[1:], b[1:]):
        s += u * w
    return s


def _row_norms(V):
    """The Euclidean norm of each row of V: v0*v0 + v1*v1 + ... in column order.

    The one row-norm rule for the value columns of ``pl.evaluate_many``,
    taken one contiguous column at a time.  numpy sums fewer than 8 terms
    in order too, so this equals ``np.linalg.norm(V, axis=1)`` bit for bit
    on the few columns of a system.
    """
    s = _sum_products(V.T, V.T)
    return np.sqrt(s, out=s)


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonzero singular values of a matrix, in non-increasing order."""

    values: tuple
    shape: tuple

    @property
    def rank(self):
        return len(self.values)

    @property
    def operator_norm(self):
        return self.values[0] if self.values else 0.0

    @property
    def frobenius_norm(self):
        return math.sqrt(sum(v * v for v in self.values))


def singular_values(A):
    A = np.atleast_2d(np.asarray(A, float))
    s = np.linalg.svd(A, compute_uv=False)
    cutoff = _RANK_TOL * (s[0] if s.size and s[0] > 0 else 1.0)
    vals = tuple(float(v) for v in s if v > cutoff)
    return SingularSpectrum(values=vals, shape=A.shape)


def min_singular_value(A):
    """The min(m, n)-th singular value (zero for rank-deficient input)."""
    A = np.atleast_2d(np.asarray(A, float))
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[-1])


def eckart_young_correction(A):
    """The smallest Frobenius-norm B making A + B rank deficient.

    B = -sigma_min u v^T from the singular pair of sigma_min.
    """
    A = np.atleast_2d(np.asarray(A, float))
    U, s, Vt = np.linalg.svd(A)
    k = min(A.shape) - 1
    return -s[k] * np.outer(U[:, k], Vt[k, :])


def distance_to_rank_deficient(A):
    """Frobenius distance to the rank-deficient matrices: sigma_min(A)."""
    return min_singular_value(A)


def _sigma_min_svd(M):
    """sigma_min of a square matrix (or each of a stack) by SVD, 0 where it is
    at most _SINGULAR_TOL max|M|: the one singularity rule, which mu and the
    chart Newton step both apply; relative to M, so free of f's scale."""
    s = np.linalg.svd(M, compute_uv=False)[..., -1]
    return np.where(s > _SINGULAR_TOL * np.abs(M).max(axis=(-2, -1)), s, 0.0)


# ---------------------------------------------------------------------------
# the one frame of x-perp and the restricted Jacobian in it

def _householder(x):
    """(sign, v, c) of the reflection H = I - v v^T / c taking e_0 to -sign x,
    at one point x or at the points x[:, j] stored by coordinates: sign =
    sign(x_0) (+1 at x_0 = 0), v = x + sign e_0 as a list of coordinates and
    c = 1 + |x_0|.  Columns 1..n of H are the one frame of x-perp at unit x."""
    sign = np.where(x[0] >= 0.0, 1.0, -1.0)
    return sign, [x[0] + sign, *x[1:]], 1.0 + np.abs(x[0])


def tangent_basis(x):
    """The frame of x-perp at the unit point x: columns 1..n of the
    Householder reflection (``_householder``), U_lk = delta_lk - v_l v_k / c,
    as a (n+1, n) matrix."""
    x = np.asarray(x, float)
    _, v, c = _householder(x)
    return np.eye(x.size)[:, 1:] - np.outer(v, v[1:]) / c


def _restricted_columns(F, x):
    """(cols, sign): ``cols[k-1][i]`` is the (N,) column of the entry
    M_ik = d_i^-1/2 (J_ik - (J_i . v) v_k / c) of diag(d_i^-1/2) J U, U =
    ``tangent_basis``, at the points of a contiguous (n+1, N) batch x stored
    by coordinates, J_i . v summed left to right; sign is sign(x_0)."""
    J = pl.jacobian_many(F, x.T).transpose(1, 2, 0)
    sign, v, c = _householder(x)
    cols = [[] for _ in range(F.n)]
    for Ji, scale in zip(J, np.asarray(F.degrees, float) ** -0.5):
        Jv = _sum_products(Ji, v)
        for k, col in enumerate(cols, 1):
            col.append((Ji[k] - Jv * v[k] / c) * scale)
    return cols, sign


def scaled_restricted_jacobian(F, x):
    """diag(d_i^-1/2) Df on x-perp at x/|x| in the frame ``tangent_basis``:
    the (n, n) matrix whose sigma_min gives mu, the one row of
    ``_restricted_columns``."""
    cols, _ = _restricted_columns(F, pl.normalize(x)[:, None])
    return np.array(cols)[:, :, 0].T


def mu(F, x):
    """The normalized condition number, inf at singular points: the row of
    ``mu_many`` at x/|x| (mu is scale invariant in f and x).  At least
    sqrt(n); for unit f the inverse distance to the systems with singular
    restricted Jacobian at x (see minimal_singular_perturbation)."""
    return float(mu_many(F, pl.normalize(x)[None])[0])


def _mu_sandwich(mus, spread, slack=0.0):
    """Bounds (lo, hi) on mu(f, y) from mu(f, x) = ``mus``, where 1/mu moves
    by at most ``spread`` from x to y (see the module docstring):
    lo = 1/(1/mu + spread) and hi = 1/(1/mu - spread), inf where 1/mu <=
    spread; that is mu/(1 + u) and mu/(1 - u) for u = mu spread.  ``slack``
    bounds the relative error of a computed mu, at x and at y, and widens
    both by the factor (1 + slack)^2."""
    widen = (1.0 + slack) ** 2
    inverse = 1.0 / mus
    with np.errstate(divide="ignore"):
        return (1.0 / ((inverse + spread) * widen),
                np.where(inverse > spread, widen / (inverse - spread), math.inf))


# ---------------------------------------------------------------------------
# batched evaluation over many sphere points

def _sigma_min_columns(cols):
    """sigma_min of each n x n matrix M of a batch, ``cols[k][i]`` the (N,)
    column of the M_ik: |M| for n = 1, else from the column Gram M^T M (summed
    over i in order) by its closed form (n = 2) or by ``eigvalsh``."""
    n = len(cols)
    if n == 1:
        return np.abs(cols[0][0])
    if n == 2:
        a, b = cols
        aa, bb, ab = _sum_products(a, a), _sum_products(b, b), _sum_products(a, b)
        tr = aa + bb
        disc = np.sqrt(np.maximum((aa - bb) ** 2 + 4.0 * ab * ab, 0.0))
        return np.sqrt(np.maximum(0.5 * (tr - disc), 0.0))
    g = np.array([[_sum_products(cj, ck) for ck in cols] for cj in cols])
    w = np.linalg.eigvalsh(g.transpose(2, 0, 1))
    return np.sqrt(np.maximum(w[:, 0], 0.0))


def mu_many(F, X, f_norm=None):
    """Vectorized mu at many unit points (rows of X; none is fine).

    Every array is a contiguous (N,) column: each entry M_ik of the
    restricted Jacobian in the one Householder frame
    (``_restricted_columns``), and each entry of its Gram.  Every sum runs
    left to right (``_sum_products``), and max|M| is an elementwise
    maximum.  Rows whose Gram sigma_min (``_sigma_min_columns``) is at most
    _GRAM_TOL max|M|, where rounding may be all of it, take it by SVD
    (``_sigma_min_svd``).

    Each row's value depends on that row alone, bit for bit, so mu on a
    subset of the rows equals the same subset of mu on all of them.  At -x
    it equals its value at x bit for bit wherever x_0 != 0: the Householder
    vector and the Jacobian rows of -x are the negated ones of x.  Where
    x_0 = 0 both points take the same reflection, and the values may differ.
    """
    if f_norm is None:
        f_norm = F.weyl_norm
    x = np.ascontiguousarray(np.asarray(X, float).T)
    cols, sign = _restricted_columns(F, x)
    smin, largest = _sigma_min_columns(cols), np.zeros(x.shape[1])
    for m in (m for col in cols for m in col):
        np.maximum(largest, np.abs(m), out=largest)
    redo = np.flatnonzero(smin <= _GRAM_TOL * largest)
    if redo.size:  # times sign(x_0): the SVD sees the same matrix at -x
        M = np.array([[m[redo] for m in col] for col in cols]).transpose(2, 1, 0)
        smin[redo] = _sigma_min_svd(M * sign[redo, None, None])
    out = np.full(x.shape[1], np.inf)
    with np.errstate(over="ignore"):  # a subnormal smin gives mu = inf
        np.divide(f_norm, smin, out=out, where=smin > 0.0)
    return out


def _kappa(f_norms, mus):
    """kappa = 1/sqrt(mu^-2 + |f|^2), with mu taken at unit |f| (inf: singular).

    Never above 1/sqrt(f*f): mu^-2 >= 0 and correctly rounded operations
    are monotone.  inf where f = 0 at a singular point.
    """
    with np.errstate(divide="ignore", over="ignore"):
        inv_mu2 = np.where(np.isfinite(mus), 1.0 / (mus * mus), 0.0)
        return 1.0 / np.sqrt(inv_mu2 + f_norms * f_norms)


def _kappa_max(f_norms, mus):
    """Largest ``_kappa`` over the rows, inf included; -inf if there are none."""
    k = _kappa(f_norms, mus)
    return float(k.max()) if k.size else -math.inf


def kappa_point(F, x):
    """kappa(f, x) for the normalized system at the unit point x."""
    return float(kappa_many(F, pl.sphere_point(x)[None])[0])


def kappa_many(F, X):
    """Vectorized kappa for the normalized system at many unit points."""
    Fn = F.normalized()
    fv = _row_norms(pl.evaluate_many(Fn, X))
    return _kappa(fv, mu_many(Fn, X, f_norm=1.0))


# ---------------------------------------------------------------------------
# the streamed pass over a grid: the one residual rule and the tile screen

# rows (or tile centres) a walk norms at once: the three arrays of one
# chunk of the residual rule stay in a 2 MB L2 cache
_BLOCK = 1 << 14
# positions along a run that one tile centre screens.  16 keeps the
# centres at 1/16 of a run while the shift sqrt(D) 2 asin(7.5/(2m)) stays
# under the kappa cut of a deep level: four Gaussian (2,2) systems counted
# to t=9 norm 1.39M rows in all with 16, 1.95M with 8 and 1.54M with 32
TILE = 16
# relative slack of the kappa cut (1/best)(1 + _KAPPA_SLACK): a row with
# |f| at or above it has a computed bound 1/sqrt(f*f) of at most best, since
# the three roundings of that bound and the two of the cut move it by a few
# ulps, far below 2^-40
_KAPPA_SLACK = 2.0**-40
# relative error of a computed mu that a tile's bounds allow for, at its
# centre and at each row.  hi is finite only where 1/mu > D^1.5 delta, at
# least 0.014 on an n >= 2 grid under the cap (t <= 9), and there the Gram
# route errs by a few n^3 eps D mu^2, far below it.  Elsewhere 1/mu errs
# absolutely by less than 1e-7 (the SVD takes the rows under _GRAM_TOL, and
# n = 1 reads |M| itself), against the margin 2^-9 D^1.5 delta of lo
_MU_SLACK = 2.0**-10
# a level's tiles take mu at their centres only where a tile's lo =
# 1/(1/mu + spread) can reach _MU_GAIN sqrt(n), spread = D^1.5 |F|_W delta:
# on coarser levels the end rows and the centres cost more than the bounds
# save (Gaussian (2,2,2) seed 3 took 14-47% longer at t=6 and t=7 with 1
# or 2, and its t=8 level, where the bounds apply, a quarter of the mu rows)
_MU_GAIN = 4.0
# kappa contenders a block visits with its candidates when it has more:
# their kappa sets the cut, which prunes the rest of the block
_FIRST_BLOCK = 1 << 10


def _tile_bounds(F, mus, delta, ceiling):
    """(ceilings, inv_mu2) of the tiles whose centres have mu ``mus``, each
    row of them within the angle ``delta`` of its centre: the candidate
    ceiling ceiling n / max(n, mu_lo^2), so C_SLACK alpha*/(D^1.5 mu_lo^2)
    for the pass ceiling C_SLACK alpha*/(n D^1.5) and mu_lo = max(sqrt(n),
    lo), and mu_hi^-2 = 1/hi^2, for (lo, hi) the ``_mu_sandwich`` of
    spread D^1.5 |F|_W delta widened by ``_MU_SLACK``.  A row above its
    ceiling fails the inclusion test, as C_SLACK absorbs the rounding."""
    lo, hi = _mu_sandwich(mus, F.max_degree**1.5 * F.weyl_norm * delta, _MU_SLACK)
    return ceiling * (F.n / np.maximum(F.n, lo * lo)), 1.0 / (hi * hi)


def _runs(F, mesh, slab):
    """Horner's data for the runs of one slab, each run one value of each.

    Returns (coefficients, radius2, first): per polynomial f of degree d
    the coefficients of x^0, ..., x^d of f along each run, |k/m|^2 less the
    moving coordinate's square, both as (runs, 1) columns (a coefficient
    without a variable term is a scalar), and the moving coordinate of the
    first row of every run.  k is taken over m = 2^t, which is exact, so no
    power of |k| overflows.
    """
    n, m = mesh.n, 2.0**mesh.t
    # each run's first lattice point over m, as (runs, 1) columns; k_axis/m
    # = 1 stays a scalar, and the split programs of x never read its column
    k = list(mesh.lattice_at(np.arange(slab.lo, slab.hi, slab.row)).T[:, :, None] / m)
    k[slab.axis] = 1.0
    v = n - (slab.axis == n)
    cache = {}
    coeffs = [[pl._run(g, k, cache) for g in f._split_programs[v]] for f in F.polynomials]
    # a scalar for n = 1, where the axis is the one other coordinate
    radius2 = np.broadcast_to(sum(k[c] * k[c] for c in range(n + 1) if c != v), k[v].shape)
    return coeffs, radius2, k[v][:1]


def _horner(F, coeffs, radius2, x, out):
    """|f| at the positions x along runs: the one residual rule.

    f is homogeneous, so at the pair point k/|k| of a lattice point k,
    |f| = sqrt(sum_i (f_i(k) / |k|^d_i)^2).  Along a run of a slab only the
    last face coordinate x moves, so there each f_i is a polynomial of
    degree d_i in x whose coefficients (``_runs``) come once per run from
    the other coordinates; Horner's rule takes it along the run in d_i
    multiply-adds per position.  |k/m|^2 = ``radius2`` + x^2 is exact in
    float64, so |k|^d needs a sqrt only for odd d.  ``coeffs`` and
    ``radius2`` hold one row per run and x the positions over m, broadcast
    against them; every step is elementwise, so a row's value depends on
    that row alone, bit for bit, whatever the layout that holds it.
    ``out`` is a (3, ...) array of the broadcast shape for the result and
    two temporaries; the result is ``out[0]``.
    """
    s, a, p = out
    x2 = x * x
    s[...] = 0.0
    degree = None
    for f, c in zip(F.polynomials, coeffs):
        d = f.degree
        if d != degree:
            np.add(radius2, x2, out=a)
            if d % 2:
                np.sqrt(a, out=p)
            else:
                np.copyto(p, a)
            for _ in range((d - 1) // 2):
                p *= a
            degree = d
        np.multiply(c[d], x, out=a)
        a += c[d - 1]
        for e in range(d - 2, -1, -1):
            a *= x
            a += c[e]
        a /= p
        a *= a
        s += a
    return np.sqrt(s, out=s)


def _rounding_margin(F):
    """The screen's absolute rounding margin: twice the bound on the gap
    between two computed residuals that the Horner rule is pinned to,
    (3D + T + n + 2) eps sum_i sum_a |c_ia| |x^a|, with that sum at most
    sqrt(n) |F|_W at a unit point (Cauchy-Schwarz in the Weyl inner
    product).  T is the most terms of a polynomial of F."""
    terms = max(len(f.coefficients) for f in F.polynomials)
    return (2.0 * (3 * F.max_degree + terms + F.n + 2) * np.finfo(float).eps
            * math.sqrt(F.n) * F.weyl_norm)


def _take_runs(coeffs, runs):
    """The coefficients of the runs ``runs``, an index array."""
    return [[c if np.ndim(c) == 0 else c[runs] for c in cs] for cs in coeffs]


def _pieces(runs, positions):
    """The (runs, positions) index ranges that cut a grid of ``runs`` runs
    of ``positions`` each into pieces of at most ``_BLOCK`` cells, in
    row-major order: groups of whole runs, or pieces of one longer run."""
    step = max(1, _BLOCK // positions)
    for r0 in range(0, runs, step):
        for p0 in range(0, positions, _BLOCK):
            yield np.arange(r0, min(r0 + step, runs)), np.arange(p0, min(p0 + _BLOCK, positions))


class _Screen(NamedTuple):
    """What a screened walk reads from its pass (``_scan``): the low cut
    ``below``, the candidate ceiling at mu = sqrt(n), the running kappa cut
    (a callable; it may only fall) and the pass's one mu function."""

    below: float
    ceiling: float
    kappa_cut: object
    batch_mu: object

    def cuts(self, ceilings, inv_mu2):
        """|f| at or above which a row of a tile with these bounds (its
        candidate ceiling and mu_hi^-2) changes no output; the floor's cut
        at (ceiling, 0)."""
        return np.maximum(np.maximum(self.below, ceilings),
                          _kappa_cuts(self.kappa_cut(), inv_mu2))


def _kappa_cuts(cut, inv_mu2):
    """The per-row kappa cut sqrt(cut^2 - mu_hi^-2): a row at or above it
    has kappa cap 1/sqrt(mu_hi^-2 + f*f) at most best, as cut = (1/best)(1 +
    ``_KAPPA_SLACK``) absorbs the roundings.  It is exactly ``cut`` where
    mu_hi is inf (sqrt(x*x) = x in binary floating point) and 0 at best =
    inf."""
    return np.sqrt(np.maximum(cut * cut - inv_mu2, 0.0))


def _norm_runs(F, data, work, r, x):
    """|f| along the runs r of a slab's Horner ``data`` (``_runs``) at the
    positions x over m: one row of positions per run, or one row for all."""
    coeffs, radius2, _ = data
    out = work[:, :r.size * x.shape[1]].reshape(3, r.size, x.shape[1])
    return _horner(F, _take_runs(coeffs, r), radius2[r], x, out)


def _walk(F, mesh, screen=None):
    """(rows, |f|[, ceilings, inv_mu2]) of the pair rows of ``mesh``, in
    ascending chunks of at most ``_BLOCK`` rows of one face: the one walk of
    every pass.

    It takes one slab per face and each run's Horner data once (``_runs``).
    Without a ``screen`` (a ``_Screen``) it norms every row, in the pieces
    of ``_pieces``, and yields (rows, |f|).  With one, the runs are cut into
    tiles of ``TILE`` positions, and the walk first screens the level's
    tiles by their centres, which lie half a lattice step off the rows:
    every row of a tile whose centre's |f| less ``reach`` (its ``lower``)
    is at least the pass's cut max(below, ceiling, kappa cut) has |f| at
    least that cut (see the module docstring).  It then takes mu, through
    the pass's ``batch_mu`` in one call per at most ``_BLOCK`` centres, at
    the centres of the kept tiles whose centre or end rows have |f| under
    max(ceiling, kappa cut), where the floor mu >= sqrt(n) would leave rows
    in need of mu, and gives those tiles their bounds (``_tile_bounds``);
    on a level too coarse for the bounds to pay (``_MU_GAIN``) it takes
    none.  Only then does it expand tiles, skipping each whose ``lower`` is at
    least ``screen.cuts`` of its bounds, read again before each group of
    tiles.  It yields (rows, |f|, ceilings, inv_mu2), each row with its
    tile's bounds, or (rows, |f|) where no tile of the chunk has bounds.
    Every row it yields is normed once, by the same rule and bit for bit
    to the same value.  A chunk's |f| may live in a buffer that the next
    chunk reuses.
    """
    m, h = 2.0**mesh.t, (TILE - 1) / 2
    work, span, per_chunk = np.empty((3, _BLOCK)), np.arange(TILE), _BLOCK // TILE
    # every row of a tile lies within the angle delta of its centre
    delta = 2.0 * math.asin(h / (2.0 * m))
    if screen is not None:
        reach = math.sqrt(F.max_degree) * F.weyl_norm * delta + _rounding_margin(F)
        cut, kept = screen.cuts(screen.ceiling, 0.0), []
        mu_cut = max(screen.ceiling, screen.kappa_cut())
        bounded = F.max_degree**1.5 * F.weyl_norm * delta * math.sqrt(F.n) * _MU_GAIN < 1.0
    for slab in mesh.slabs():
        data = _runs(F, mesh, slab)
        row, runs, first = slab.row, data[1].shape[0], data[2]
        if screen is None:
            for r, pos in _pieces(runs, row):
                f = _norm_runs(F, data, work, r, first + pos / m)
                yield (slab.lo + r[:, None] * row + pos).ravel(), f.ravel()
            continue
        tiles, found = -(-row // TILE), []
        centres = first + (np.arange(tiles) * TILE + h) / m
        for r, p in _pieces(runs, tiles):
            f = _norm_runs(F, data, work, r, centres[:, p])
            lower = f - reach
            at, tile = np.nonzero(lower < cut)
            r, p, lower = r[at], p[tile], lower[at, tile]
            need = f[at, tile] < mu_cut
            # where the centre is not under it but a row may be, the end rows
            # decide
            maybe = np.flatnonzero(~need & (lower < mu_cut)) if bounded else at[:0]
            for j in range(0, maybe.size, _BLOCK // 2):
                ix = maybe[j:j + _BLOCK // 2]
                ends = np.minimum(p[ix, None] * TILE + [0, TILE - 1], row - 1)
                need[ix] = _norm_runs(F, data, work, r[ix], first + ends / m).min(axis=1) < mu_cut
            found.append((r, p, lower, bounded & need))
        kept.append((slab, data, *map(np.concatenate, zip(*found))))
    if screen is None:
        return
    lower, need = (np.concatenate([k[i] for k in kept]) for i in (4, 5))
    starts = np.concatenate([s.lo + r * s.row + p * TILE for s, _, r, p, _, _ in kept])
    ceilings, inv_mu2 = np.full(lower.size, screen.ceiling), np.zeros(lower.size)
    centred = np.flatnonzero(need)
    for j in range(0, centred.size, _BLOCK):
        at = centred[j:j + _BLOCK]
        mus = screen.batch_mu(F, mesh.centres_at(starts[at], h), f_norm=1.0)
        ceilings[at], inv_mu2[at] = _tile_bounds(F, mus, delta, screen.ceiling)
    offset = 0
    for slab, data, r, p, _, _ in kept:
        row, first = slab.row, data[2]
        for k in range(offset, offset + r.size, per_chunk):
            part = slice(k, min(k + per_chunk, offset + r.size))
            keep = k + np.flatnonzero(lower[part] < screen.cuts(ceilings[part], inv_mu2[part]))
            if not keep.size:
                continue
            pos = p[keep - offset][:, None] * TILE + span
            runs_kept = r[keep - offset]
            f = _norm_runs(F, data, work, runs_kept, first + pos / m)
            valid = pos < row
            chunk = ((slab.lo + runs_kept[:, None] * row + pos)[valid], f[valid])
            if need[keep].any():
                chunk += tuple(np.broadcast_to(b[keep, None], pos.shape)[valid]
                               for b in (ceilings, inv_mu2))
            yield chunk
        offset += r.size


def _scan(F, mesh, below=0.0, ceiling=0.0, best=-math.inf, batch_mu=mu_many):
    """One streamed pass over the pair rows of ``mesh``: its low rows and kappa.

    Rows come from one walk (``_walk``), each normed by the one residual
    rule while it is in cache, so no array spans the grid, and the pass
    gathers its chunks, across faces too, into blocks of at most
    ``_BLOCK`` rows, each closed once it holds ``_BLOCK`` / 2.  Each row
    has a candidate ceiling, the pass's ``ceiling`` (the one at mu =
    sqrt(n)) or its tile's lower one, and a bound mu_hi on mu, inf or its
    tile's (``_tile_bounds``).  Of each block
    the pass keeps the low rows: the candidates, under their ceiling, and
    the rows with |f| < ``below``.  It takes mu by one rule: at the
    candidates and at the kappa contenders, the rows under their kappa cut
    (``_kappa_cuts``), whose cap 1/sqrt(mu_hi^-2 + f*f) beats the running
    maximum ``best``, the kappa maximum for the unit-norm F.  ``_kappa``
    never exceeds that cap, and ``best`` only rises during a pass, so a cut
    taken earlier in it stays sound.  A visit builds the pair points of its
    rows, calls ``batch_mu`` once and folds their kappa into ``best``.  A
    block with more than ``_FIRST_BLOCK`` contenders first visits its
    candidates with the ``_FIRST_BLOCK`` contenders of greatest cap, then
    reads the cut again and visits the rest under it; any other block
    visits its rows at once.

    A pass given a kappa seed (``best`` > -inf) on a grid whose runs hold
    at least two tiles hands its walk a ``_Screen``: rows that cannot be
    low or contenders by their tile's centre are never normed, and the
    rows of tiles with a centre mu carry its bounds.  Other passes norm
    every row, and every row has the pass's ceiling and mu_hi = inf.

    Returns (rows, norms, cand, points, mus, best): the ascending low rows,
    |f| at each (bit for bit that of the built mesh), which of them are
    candidates, the pair points and mu of the candidates, and the maximum
    of ``best`` and the kappa of every row, inf at a singular zero.
    """
    rows, norms, cands = [np.empty(0, dtype=np.int64)], [np.empty(0)], [np.empty(0, bool)]
    points, mus = [np.empty((0, mesh.n + 1))], [np.empty(0)]

    def kappa_cut():
        return math.inf if best == -math.inf else (1.0 / best) * (1.0 + _KAPPA_SLACK)

    def visit(at, f):
        nonlocal best
        X = mesh.points_at(at)
        m = batch_mu(F, X, f_norm=1.0)
        best = max(best, _kappa_max(f, m))
        return X, m

    def pick(bound, i):
        """A per-row bound at the rows i; a bound shared by all rows as is."""
        return bound if np.ndim(bound) == 0 else bound[i]

    def take(at, f, ceilings=ceiling, inv_mu2=0.0):
        if np.ndim(ceilings):
            # only rows under the floor's cut can be low or need mu
            i = np.flatnonzero(f < max(below, ceiling, kappa_cut()))
            at, f, ceilings, inv_mu2 = at[i], f[i], ceilings[i], inv_mu2[i]
        low = np.flatnonzero(f < np.maximum(ceilings, below))
        rows.append(at[low])
        norms.append(f[low])
        cands.append(f[low] < pick(ceilings, low))
        todo = np.flatnonzero(f < np.maximum(ceilings, _kappa_cuts(kappa_cut(), inv_mu2)))
        if not todo.size:
            return
        cand, first, rest = f[todo] < pick(ceilings, todo), todo, todo[:0]
        if todo.size - np.count_nonzero(cand) > _FIRST_BLOCK:
            # the contenders of greatest cap; by |f| where all share mu_hi
            contenders = todo[~cand]
            key = (f[contenders] if np.ndim(inv_mu2) == 0
                   else f[contenders] ** 2 + inv_mu2[contenders])
            part = np.argpartition(key, _FIRST_BLOCK - 1)
            first = np.sort(np.concatenate([todo[cand], contenders[part[:_FIRST_BLOCK]]]))
            rest = contenders[part[_FIRST_BLOCK:]]
        X, m = visit(at[first], f[first])
        cand = f[first] < pick(ceilings, first)
        points.append(X[cand])
        mus.append(m[cand])
        rest = np.sort(rest[f[rest] < pick(_kappa_cuts(kappa_cut(), inv_mu2), rest)])
        if rest.size:
            visit(at[rest], f[rest])

    screened = best > -math.inf and 2**(mesh.t + 1) - 1 >= 2 * TILE
    screen = _Screen(below, ceiling, kappa_cut, batch_mu) if screened else None
    pending, size = [], 0

    def flush():
        nonlocal pending, size
        if len(pending) > 1 and any(len(c) > 2 for c in pending):
            # the rows of a chunk without tile bounds have the floor's
            pending = [c if len(c) > 2 else (*c, np.full(c[0].size, ceiling), np.zeros(c[0].size))
                       for c in pending]
        take(*(np.concatenate(a) if len(pending) > 1 else a[0] for a in zip(*pending)))
        pending, size = [], 0

    for at, f, *bounds in _walk(F, mesh, screen):
        if pending and size + at.size > _BLOCK:
            flush()
        size += at.size
        # a block closes at _BLOCK / 2 rows; a chunk held open past the next
        # one is copied, as the walk may reuse the buffer of f
        pending.append((at, f if size >= _BLOCK // 2 else f.copy(), *bounds))
        if size >= _BLOCK // 2:
            flush()
    if pending:
        flush()
    return (np.concatenate(rows), np.concatenate(norms), np.concatenate(cands),
            np.concatenate(points), np.concatenate(mus), best)


def kappa_grid(F, mesh):
    """Grid maximum of kappa: a certified lower estimate of kappa(f).

    |f| and mu are projective, so each antipodal pair is sampled at its
    pair point.  One streamed pass (``_scan``) norms each chunk once and
    keeps no rows, so no array spans the grid, and mu is computed only
    where the residual bound on kappa can still raise the maximum.  It is
    the maximum over every pair point, inf if a singular zero is on the grid.

    Returns (estimate, covering_radius_bound) so the caller can judge how
    coarse the lower bound is.
    """
    return _scan(F.normalized(), mesh)[-1], mesh.covering_radius_bound


# ---------------------------------------------------------------------------
# mu as a distance (constructive Eckart-Young lift)

def _kernel_derivative_poly(d, x, u):
    """sqrt(d) <., x>^(d-1) <., u>: unit Weyl norm for unit x, u with u ⊥ x."""
    base = pl.poly_pow(pl.linear_form(x), d - 1, len(x))
    coeffs = pl.poly_mul(base, pl.linear_form(u))
    return {e: math.sqrt(d) * c for e, c in coeffs.items()}


def minimal_singular_perturbation(F, x):
    """The nearest system g whose scaled restricted Jacobian at x is singular.

    Requires unit Weyl norm; |f - g| = 1/mu(f, x).  Entry (i, j) of the
    Eckart-Young correction of ``scaled_restricted_jacobian`` lifts through
    the kernel derivative along column j of ``tangent_basis``: g(x) = f(x).
    Returns F itself when mu is infinite.
    """
    if abs(F.weyl_norm - 1.0) > _UNIT_NORM_TOL:
        raise ValueError("minimal_singular_perturbation expects a unit-norm system")
    x = pl.sphere_point(x)
    basis = tangent_basis(x)
    M = scaled_restricted_jacobian(F, x)
    if _sigma_min_svd(M) == 0.0:
        return F
    B = eckart_young_correction(M)
    polys = []
    for i, p in enumerate(F.polynomials):
        coeffs = dict(p.coefficients)
        for j in range(F.n):
            if B[i, j] == 0.0:
                continue
            for e, c in _kernel_derivative_poly(p.degree, x, basis[:, j]).items():
                pl._merge_term(coeffs, e, B[i, j] * c)
        polys.append(pl.HomogeneousPolynomial(p.n_vars, p.degree, coeffs))
    return pl.PolynomialSystem(tuple(polys))


def mu_variation_check(F, G, x, y):
    """Sandwich bounds for mu(g, y) around mu(f, x).

    With u = D^1.5 mu(f, x) rho(x, y) and v = mu(f, x) |f - g|, returns
    (mu(f,x)/(1 + u + v), mu(f,x)/(1 - u - v), mu(g, y)); the upper bound is
    inf when u + v >= 1.  Both systems must have unit Weyl norm.  The
    bounds are ``_mu_sandwich``'s, the tile bounds' own: 1/mu is sigma_n of
    diag(d_i^-1/2) Dg(y) (I - y y^T), which moves by at most D^1.5 rho from
    x to y (module docstring) and by at most |f - g| from f to g, since
    the tangential derivative of f_i - g_i at a unit point has norm at most
    sqrt(d_i) |f_i - g_i|_W.
    """
    for S in (F, G):
        if abs(S.weyl_norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError("mu_variation_check expects unit-norm systems")
    mfx = mu(F, x)
    diff = math.sqrt(sum(
        pl.weyl_inner(p, p) - 2.0 * pl.weyl_inner(p, q) + pl.weyl_inner(q, q)
        for p, q in zip(F.polynomials, G.polynomials)))
    lower, upper = _mu_sandwich(mfx, F.max_degree**1.5 * angular_distance(x, y) + diff)
    return float(lower), float(upper), mu(G, y)


# ---------------------------------------------------------------------------
# random systems and condition statistics

def multi_indices(n_vars, d):
    """All exponent tuples of length n_vars summing to d, graded-lex order."""
    if n_vars == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in multi_indices(n_vars - 1, d - first):
            out.append((first,) + rest)
    return out


def sample_gaussian_system(n, degrees, seed):
    """Draw a system whose squared Weyl norm is chi-square distributed.

    Each coefficient is an independent centered normal with variance equal
    to its multinomial weight, which makes the density proportional to
    exp(-|f|^2/2) in Weyl coordinates and orthogonally invariant.
    """
    rng = np.random.default_rng(seed)
    polys = []
    for d in degrees:
        coeffs = {}
        for a in multi_indices(n + 1, d):
            coeffs[a] = math.sqrt(pl.multinomial(d, a)) * rng.standard_normal()
        polys.append(pl.HomogeneousPolynomial(n + 1, d, coeffs))
    return pl.PolynomialSystem(tuple(polys))


def kn_constant(n, degrees):
    """K_n = 8 (max d)^2 sqrt(prod d) sqrt(N) n^(5/2) + 1."""
    degrees = tuple(degrees)
    N = sum(math.comb(d + n, n) for d in degrees)
    D = math.prod(degrees)
    return 8.0 * max(degrees) ** 2 * math.sqrt(D) * math.sqrt(N) * n**2.5 + 1.0


def expected_ln_kappa_bound(n, degrees):
    """Closed-form bound on E(ln kappa) for Gaussian systems, n >= 3."""
    if n < 3:
        raise ValueError("the expectation bound assumes n >= 3")
    lk = math.log(kn_constant(n, degrees))
    return lk + math.sqrt(lk) + 1.0 / math.sqrt(lk) + 0.5 * math.log(2 * n)


def smoothed_ln_kappa_bound(n, degrees, sigma):
    """Uniform-perturbation bound: 2 ln N + 4 ln n + 2 ln(prod d) - ln sigma + 6."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    degrees = tuple(degrees)
    N = sum(math.comb(d + n, n) for d in degrees)
    return (2.0 * math.log(N) + 4.0 * math.log(n)
            + 2.0 * math.log(math.prod(degrees)) - math.log(sigma) + 6.0)


def monte_carlo_ln_kappa(n, degrees, trials, mesh_t, seed, threads=1):
    """Empirical mean of ln(kappa grid estimate) against the closed-form bound.

    Trial i draws its system from seed + i, so results do not depend on
    the ``threads`` that run the trials.  Returns a dict with the per-trial
    values, their mean, and the bound (None when n < 3).
    """
    if trials < 1 or threads < 1:
        raise ValueError("need at least one trial and one thread")
    mesh = build_mesh(n, mesh_t)

    def one(i):
        est, _ = kappa_grid(sample_gaussian_system(n, degrees, seed + i), mesh)
        return math.log(est)

    if threads == 1:
        samples = [one(i) for i in range(trials)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # kept out of a bare import
        with ThreadPoolExecutor(max_workers=threads) as pool:
            samples = list(pool.map(one, range(trials)))
    bound = expected_ln_kappa_bound(n, degrees) if n >= 3 else None
    return {
        "samples": samples,
        "mean_ln_kappa": sum(samples) / trials,
        "bound": bound,
        "mesh_covering_radius": mesh.covering_radius_bound,
    }
