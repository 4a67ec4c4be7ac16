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
``below`` (candidates and possible exclusion failures) and the kappa
contenders, whose bound 1/|f| beats the running maximum ``best``; it takes
mu at the candidates and the contenders only.  A row with |f| at or above
the kappa cut (1/best)(1 + delta) is no contender, and ``best`` only
rises during a pass, so a cut taken earlier in it stays sound.  That one
cut decides where a pass takes mu, and with ``below`` where it norms
rows: a pass given a kappa seed has the walk screen its grid by tile
centres against max(below, kappa cut), in the cell-exclusion pattern of
Plantinga and Vegter (SGP 2004):

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
  angle of at most 2 asin(h/(2m)).
* The computed |f| of any point errs by less than half of
  ``_rounding_margin`` (the Horner rule's pinned rounding bound), so every
  row of the tile has computed |f| >= |f(c)| - sqrt(D) |F|_W 2 asin(h/(2m))
  - margin, rounding of that bound itself included.  A tile whose bound is
  at least the cut is never normed; no output reads its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# kappa contenders a chunk visits with its candidates when it has more:
# their kappa sets the cut, which prunes the rest of the chunk.  Only an
# unseeded pass's first chunks have that many
_FIRST_BLOCK = 1 << 10


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


def _walk(F, mesh, cut=None):
    """(rows, |f|) of the pair rows of ``mesh``, in ascending chunks of at
    most ``_BLOCK`` rows of one face: the one walk of every pass.

    It takes one slab per face and each run's Horner data once (``_runs``).
    Without a ``cut`` it norms every row, in the pieces of ``_pieces``.
    With one, the runs are cut into tiles of ``TILE`` positions, and each
    tile is normed at its centre, which lies half a lattice step off the
    rows.  Every row of a tile whose centre's |f| less ``reach`` is at
    least ``cut()`` has |f| >= ``cut()`` (see the module docstring), so
    only the rows of the other tiles are normed, each once, by the same
    rule and bit for bit to the same values.  ``cut()`` is read again
    before each chunk; it may only fall.  A chunk's |f| lives in a buffer
    that the next chunk reuses.
    """
    m, h = 2.0**mesh.t, (TILE - 1) / 2
    work, span, per_chunk = np.empty((3, _BLOCK)), np.arange(TILE), _BLOCK // TILE
    if cut is not None:
        reach = (math.sqrt(F.max_degree) * F.weyl_norm * 2.0 * math.asin(h / (2.0 * m))
                 + _rounding_margin(F))
    for slab in mesh.slabs():
        coeffs, radius2, first = _runs(F, mesh, slab)
        row, runs = slab.row, radius2.shape[0]

        def norms(r, x):
            """|f| along the runs r at the positions x over m: one row of
            positions per run, or one row for all of them."""
            out = work[:, :r.size * x.shape[1]].reshape(3, r.size, x.shape[1])
            return _horner(F, _take_runs(coeffs, r), radius2[r], x, out)

        if cut is None:
            for r, pos in _pieces(runs, row):
                f = norms(r, first + pos / m)
                yield (slab.lo + r[:, None] * row + pos).ravel(), f.ravel()
            continue
        tiles = -(-row // TILE)
        centres = first + (np.arange(tiles) * TILE + h) / m
        for r, p in _pieces(runs, tiles):
            lower = norms(r, centres[:, p]) - reach
            at, tile = np.nonzero(lower < cut())
            lower, at, tile = lower[at, tile], r[at], p[tile]
            for j in range(0, at.size, per_chunk):
                keep = lower[j:j + per_chunk] < cut()
                kept, pos = at[j:j + per_chunk][keep], tile[j:j + per_chunk][keep]
                if not kept.size:
                    continue
                pos = pos[:, None] * TILE + span
                f = norms(kept, first + pos / m)
                valid = pos < row
                yield (slab.lo + kept[:, None] * row + pos)[valid], f[valid]


def _scan(F, mesh, below=0.0, ceiling=0.0, best=-math.inf, batch_mu=mu_many):
    """One streamed pass over the pair rows of ``mesh``: its low rows and kappa.

    Rows come in chunks of at most ``_BLOCK``, each normed by the one
    residual rule while it is in cache, so no array spans the grid.  Of
    each chunk the pass keeps the rows with |f| < ``below`` (``ceiling``
    <= ``below``), and it takes mu by one rule: at the rows with |f| <
    max(``ceiling``, kappa cut), the candidates (|f| < ``ceiling``) and the
    kappa contenders.  ``_kappa`` never exceeds 1/sqrt(f*f), so a row with
    |f| at or above the kappa cut (1/best)(1 + ``_KAPPA_SLACK``) cannot
    raise the running maximum ``best``, the kappa maximum for the unit-norm
    F.  A visit builds the pair points of its rows, calls ``batch_mu`` once
    and folds their kappa into ``best``.  A chunk with more than
    ``_FIRST_BLOCK`` contenders first visits its candidates with the
    ``_FIRST_BLOCK`` contenders of least |f|, then reads the cut again and
    visits the rest under it; any other chunk visits its rows at once.

    Every chunk comes from one walk (``_walk``).  A pass given a kappa seed
    (``best`` > -inf) on a grid whose runs hold at least two tiles hands it
    the cut max(``below``, that kappa cut): rows with |f| at least the cut
    are never normed, since none of them changes a result.  Other passes
    norm every row.

    Returns (rows, norms, points, mus, best): the ascending pair rows with
    |f| < ``below``, |f| at each (bit for bit that of the built mesh), the
    pair points and mu of the candidates among them, and the maximum of
    ``best`` and the kappa of every row, inf at a singular zero.
    """
    rows, norms = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    points, mus = [np.empty((0, mesh.n + 1))], [np.empty(0)]

    def kappa_cut():
        return math.inf if best == -math.inf else (1.0 / best) * (1.0 + _KAPPA_SLACK)

    def visit(at, f):
        nonlocal best
        X = mesh.points_at(at)
        m = batch_mu(F, X, f_norm=1.0)
        best = max(best, _kappa_max(f, m))
        return X, m

    def take(at, f):
        low = np.flatnonzero(f < below)
        rows.append(at[low])
        norms.append(f[low])
        todo = np.flatnonzero(f < max(ceiling, kappa_cut()))
        if not todo.size:
            return
        # the candidates are the rows of least |f|, so they lead the first set
        first, rest = np.count_nonzero(f[todo] < ceiling) + _FIRST_BLOCK, todo[:0]
        if todo.size > first:
            part = np.argpartition(f[todo], first - 1)
            todo, rest = np.sort(todo[part[:first]]), todo[part[first:]]
        X, m = visit(at[todo], f[todo])
        cand = f[todo] < ceiling
        points.append(X[cand])
        mus.append(m[cand])
        rest = np.sort(rest[f[rest] < kappa_cut()])
        if rest.size:
            visit(at[rest], f[rest])

    screened = best > -math.inf and 2**(mesh.t + 1) - 1 >= 2 * TILE
    for at, f in _walk(F, mesh, (lambda: max(below, kappa_cut())) if screened else None):
        take(at, f)
    return (np.concatenate(rows), np.concatenate(norms), np.concatenate(points),
            np.concatenate(mus), best)


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

    With u = (max d) mu(f, x) rho(x, y) and v = mu(f, x) |f - g|, returns
    (mu(f,x)/(1 + u + v), mu(f,x)/(1 - u - v), mu(g, y)); the upper bound is
    inf when u + v >= 1.  Both systems must have unit Weyl norm.
    """
    for S in (F, G):
        if abs(S.weyl_norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError("mu_variation_check expects unit-norm systems")
    mfx = mu(F, x)
    diff = math.sqrt(sum(
        pl.weyl_inner(p, p) - 2.0 * pl.weyl_inner(p, q) + pl.weyl_inner(q, q)
        for p, q in zip(F.polynomials, G.polynomials)))
    u = F.max_degree * mfx * angular_distance(x, y)
    v = mfx * diff
    lower = mfx / (1.0 + u + v)
    upper = math.inf if u + v >= 1.0 else mfx / (1.0 - u - v)
    return lower, upper, mu(G, y)


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
