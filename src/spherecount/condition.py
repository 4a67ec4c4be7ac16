"""Singular values, the normalized condition number mu, and the counting
condition number kappa.

mu(f, x) is the Weyl norm of f divided by the smallest singular value of
the degree-scaled Jacobian restricted to the tangent space x-perp; 1/mu is
the distance from f to the systems whose restricted Jacobian at x is
singular (an Eckart-Young statement lifted through the reproducing-kernel
basis).  kappa(f, x) combines mu with the residual norm and its sphere
maximum governs the cost of the counting algorithm.  Its grid maximum is
taken inside the one streamed pass over a grid (``_scan``), which norms
each block once, for ``kappa_grid`` and each counting level alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polynomials as pl
from .mesh import build_mesh

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
# rows a whole-grid pass handles at once: the three arrays of one block of
# _block_norms stay in a 2 MB L2 cache
_BLOCK = 1 << 14


def _map_rows(fn, X):
    """fn(X[lo:lo + _BLOCK]) for each block of ``_BLOCK`` rows, in one array.

    ``fn`` gives one float per row of its block.
    """
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _BLOCK):
        out[lo:lo + _BLOCK] = fn(X[lo:lo + _BLOCK])
    return out


def _row_norms(V):
    """The Euclidean norm of each row of V: v0*v0 + v1*v1 + ... in column order.

    The one row-norm rule for the value columns of ``pl.evaluate_many``,
    taken one contiguous column at a time.  numpy sums fewer than 8 terms
    in order too, so this equals ``np.linalg.norm(V, axis=1)`` bit for bit
    on the few columns of a system.
    """
    s = V[:, 0] * V[:, 0]
    for j in range(1, V.shape[1]):
        s += V[:, j] * V[:, j]
    return np.sqrt(s, out=s)


def _blocks(mesh):
    """The blocks of at most ``_BLOCK`` rows that every streamed pass walks."""
    return list(mesh.blocks(_BLOCK))


def _block_norms(F, mesh, block, work):
    """|f| at each pair row of one block of ``mesh``: the one residual rule.

    f is homogeneous, so at the pair point k/|k| of a lattice point k,
    |f| = sqrt(sum_i (f_i(k) / |k|^d_i)^2).  Along a run of a slab only the
    last face coordinate x moves, so there each f_i is a polynomial of
    degree d_i in x, whose coefficients come once per run from the other
    coordinates (``HomogeneousPolynomial._split_programs``); Horner's rule
    takes it along the run in d_i multiply-adds per point.
    |k|^2 = m^2 + sum_j k_j^2 is an exact integer in float64, so |k|^d
    needs a sqrt only for odd d; k is taken over m = 2^t, which is exact,
    so |k|^d cannot overflow.  A row's value depends on that row alone,
    bit for bit, whatever block holds it.

    ``work``, a (3, rows) array for a block of at most that many rows,
    holds the temporaries and the result, so a pass that hands the same one
    to every block allocates nothing of a block's size; the result lives in
    ``work[0]`` until the next call.
    """
    lo, n, m = block[0].lo, mesh.n, 2.0**mesh.t
    out, acc, power = work[:, :block[-1].hi - lo]
    for slab in block:
        # each run's first lattice point over m, as (runs, 1) columns; k_axis/m
        # = 1 stays a scalar, and the split programs of x never read its column
        k = list(mesh.lattice_at(np.arange(slab.lo, slab.hi, slab.row)).T[:, :, None] / m)
        k[slab.axis] = 1.0
        v = n - (slab.axis == n)
        x = k[v] if slab.row == 1 else k[v][:1] + np.arange(slab.row) / m
        radius2, x2 = sum(k[c] * k[c] for c in range(n + 1) if c != v), x * x
        s = out[slab.lo - lo:slab.hi - lo].reshape(-1, slab.row)
        a, p = (b[:s.size].reshape(s.shape) for b in (acc, power))
        s[...] = 0.0
        cache, degree = {}, None
        for f in F.polynomials:
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
            c = [pl._run(g, k, cache) for g in f._split_programs[v]]
            np.multiply(c[d], x, out=a)
            a += c[d - 1]
            for e in range(d - 2, -1, -1):
                a *= x
                a += c[e]
            a /= p
            a *= a
            s += a
    return np.sqrt(out, out=out)


def _scan(F, mesh, below=0.0, ceiling=0.0, best=-math.inf):
    """One streamed pass over the pair rows of ``mesh``: its low rows and kappa.

    Each block is normed by the one residual rule (``_block_norms``) while
    it is in cache, so no array spans the grid.  The rows with |f| >=
    ``ceiling`` raise ``best`` to their kappa maximum for the unit-norm F:
    since ``_kappa`` never exceeds 1/sqrt(f*f), they go through
    ``bounded_max``, which builds pair points and takes mu only where that
    bound beats the running maximum.  Returns (rows, norms, best): the
    ascending pair rows with |f| < ``below``, |f| at each (bit for bit that
    of the built mesh), and the maximum of ``best`` and the kappa of those
    rows, inf at a singular zero.
    """
    work, rows, norms = np.empty((3, _BLOCK)), [], []
    for block in _blocks(mesh):
        f = _block_norms(F, mesh, block, work)
        low = np.flatnonzero(f < below)
        rows.append(low + block[0].lo)
        norms.append(f[low])
        # 1/sqrt(f*f) > best needs about f < 1/best: the 2 leaves room for
        # rounding, and bounded_max compares the exact bounds
        top = 2.0 / best if best > -math.inf else math.inf
        contend = np.flatnonzero(f < top)
        contend = contend[f[contend] >= ceiling]
        if contend.size:
            at, f_norms = contend + block[0].lo, f[contend]

            def visit(idx):
                mus = mu_many(F, mesh.points_at(at[idx]), f_norm=1.0)
                return _kappa_max(f_norms[idx], mus)

            best = bounded_max(_kappa_bounds(f_norms), visit, best)
    return np.concatenate(rows), np.concatenate(norms), best


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


def _nonsingular(M, smin):
    """The one singularity rule: M (or each matrix of a stack) is singular
    when its least singular value ``smin`` is at most _SINGULAR_TOL max|M|.

    The rule is relative to the matrix, so it does not depend on the scale
    of f; an all-zero matrix is singular.
    """
    return smin > _SINGULAR_TOL * np.abs(M).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# tangent frames and restricted Jacobians

def tangent_basis(x):
    """Deterministic orthonormal basis of x-perp, as columns of a (n+1, n) matrix.

    Householder completion: the non-mirror columns of the reflection taking
    e_0 to -sign(x_0) x, with each column sign-normalized so its first
    entry of magnitude > 1e-12 is positive.
    """
    x = np.asarray(x, float)
    m = x.shape[0]
    v = x.copy()
    s = 1.0 if x[0] >= 0.0 else -1.0
    v[0] += s
    denom = 1.0 + abs(x[0])
    U = np.eye(m)[:, 1:] - np.outer(v, v[1:]) / denom
    for j in range(m - 1):
        col = U[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            U[:, j] = -col
    return U


def _degree_scaling(degrees, x_norm=1.0):
    d = np.asarray(degrees, float)
    return d ** -0.5 * x_norm ** (1.0 - d)


def scaled_restricted_jacobian(F, x, basis=None):
    x = np.asarray(x, float)
    nrm = float(np.linalg.norm(x))
    if basis is None:
        basis = tangent_basis(x / nrm)
    M = pl.jacobian(F, x) @ basis
    return _degree_scaling(F.degrees, nrm)[:, None] * M


def mu(F, x):
    """The normalized condition number; numpy.inf at singular points.

    Scale invariant in f; at least sqrt(n) everywhere; for unit f equal to
    the inverse distance to the systems with singular restricted Jacobian
    at x (see minimal_singular_perturbation).
    """
    M = scaled_restricted_jacobian(F, x)
    smin = min_singular_value(M)
    if not _nonsingular(M, smin):
        return math.inf
    return F.weyl_norm / smin


# ---------------------------------------------------------------------------
# batched evaluation over many sphere points

def _sigma_min_batch(M):
    """Smallest singular value of each matrix in a (N, n, n) stack, N >= 0."""
    n = M.shape[-1]
    if n == 1:
        return np.abs(M[:, 0, 0])
    if n == 2:
        # closed form from the 2x2 Gram matrix
        a = M[:, :, 0]
        b = M[:, :, 1]
        aa = np.einsum("ij,ij->i", a, a)
        bb = np.einsum("ij,ij->i", b, b)
        ab = np.einsum("ij,ij->i", a, b)
        tr = aa + bb
        disc = np.sqrt(np.maximum((aa - bb) ** 2 + 4.0 * ab * ab, 0.0))
        return np.sqrt(np.maximum(0.5 * (tr - disc), 0.0))
    g = np.einsum("nij,nik->njk", M, M)
    w = np.linalg.eigvalsh(g)
    return np.sqrt(np.maximum(w[:, 0], 0.0))


def _restricted_jacobians_batch(F, X):
    """Scaled restricted Jacobians at many unit points: (N, n, n)."""
    J = pl.jacobian_many(F, X)
    s = np.where(X[:, 0] >= 0.0, 1.0, -1.0)
    v = X.copy()
    v[:, 0] += s
    denom = (1.0 + np.abs(X[:, 0]))[:, None, None]
    Jv = np.einsum("nij,nj->ni", J, v)
    M = J[:, :, 1:] - Jv[:, :, None] * v[:, None, 1:] / denom
    return _degree_scaling(F.degrees)[None, :, None] * M


def mu_many(F, X, f_norm=None):
    """Vectorized mu at many unit points (rows of X; none is fine).

    Each row's value depends on that row alone, bit for bit, so mu on a
    subset of the rows equals the same subset of mu on all of them.  At
    -x it equals its value at x bit for bit wherever x_0 != 0: the
    Householder vector of -x is the negated one of x, and the Jacobian
    rows only change sign.  Where x_0 = 0 both points take the same
    reflection (x_0 >= 0 for both), and the two values may differ.
    """
    X = np.asarray(X, float)
    if f_norm is None:
        f_norm = F.weyl_norm
    M = _restricted_jacobians_batch(F, X)
    smin = _sigma_min_batch(M)
    out = np.full(X.shape[0], np.inf)
    ok = _nonsingular(M, smin)
    with np.errstate(over="ignore"):  # a subnormal smin gives mu = inf
        out[ok] = f_norm / smin[ok]
    return out


def _kappa(f_norms, mus):
    """kappa = 1/sqrt(mu^-2 + |f|^2), with mu taken at unit |f| (inf: singular).

    Never above 1/sqrt(f*f): mu^-2 >= 0 and correctly rounded operations
    are monotone.  inf where f = 0 at a singular point.
    """
    with np.errstate(divide="ignore", over="ignore"):
        inv_mu2 = np.where(np.isfinite(mus), 1.0 / (mus * mus), 0.0)
        return 1.0 / np.sqrt(inv_mu2 + f_norms * f_norms)


def _kappa_bounds(f_norms):
    """1/sqrt(f*f), the bound on ``_kappa`` at each row (inf where f = 0)."""
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(f_norms * f_norms)


def _kappa_max(f_norms, mus):
    """Largest ``_kappa`` over the rows, inf included; -inf if there are none."""
    k = _kappa(f_norms, mus)
    return float(k.max()) if k.size else -math.inf


def kappa_point(F, x):
    """kappa(f, x) for the normalized system at the unit point x."""
    Fn = F.normalized()
    x = pl.sphere_point(x, tol=1e-9)
    fv = np.linalg.norm(pl.evaluate(Fn, x))
    return float(_kappa(fv, mu(Fn, x)))


def kappa_many(F, X):
    """Vectorized kappa for the normalized system at many unit points."""
    Fn = F.normalized()
    fv = _row_norms(pl.evaluate_many(Fn, X))
    return _kappa(fv, mu_many(Fn, X, f_norm=1.0))


# positions in the first block bounded_max visits; the block then doubles
_FIRST_BLOCK = 1 << 10


def bounded_max(bounds, values, best):
    """max(best, values over all positions of ``bounds``), visiting few of them.

    ``values(idx)`` returns the maximum of a quantity over the positions
    ``idx`` (sorted), and that quantity is at most ``bounds`` at each
    position.  Positions are visited in blocks of largest bound first, the
    block doubling each round from ``_FIRST_BLOCK``;
    a position whose bound does not exceed the running maximum cannot
    raise it and is never visited, so the result is the maximum over all
    positions, exactly.
    """
    block = _FIRST_BLOCK
    pending = np.nonzero(bounds > best)[0]
    while pending.size:
        if pending.size > block:
            head = np.argpartition(bounds[pending], -block)[-block:]
            rest = np.ones(pending.size, dtype=bool)
            rest[head] = False
            visit, pending = np.sort(pending[head]), pending[rest]
        else:
            visit, pending = pending, pending[:0]
        best = max(best, values(visit))
        pending = pending[bounds[pending] > best]
        block *= 2
    return best


def kappa_grid(F, mesh):
    """Grid maximum of kappa: a certified lower estimate of kappa(f).

    |f| and mu are projective, so each antipodal pair is sampled at its
    pair point.  One streamed pass (``_scan``) norms each block once and
    keeps no rows, so no array spans the grid, and mu is computed only
    where the residual bound on kappa can still raise the maximum.  It is
    the maximum over every pair point, inf if a singular zero is on the grid.

    Returns (estimate, covering_radius_bound) so the caller can judge how
    coarse the lower bound is.
    """
    return _scan(F.normalized(), mesh)[2], mesh.covering_radius_bound


# ---------------------------------------------------------------------------
# mu as a distance (constructive Eckart-Young lift)

def _kernel_derivative_poly(d, x, u):
    """sqrt(d) <., x>^(d-1) <., u>: unit Weyl norm for unit x, u with u ⊥ x."""
    base = pl.poly_pow(pl.linear_form(x), d - 1, len(x))
    coeffs = pl.poly_mul(base, pl.linear_form(u))
    return {e: math.sqrt(d) * c for e, c in coeffs.items()}


def minimal_singular_perturbation(F, x):
    """The nearest system g whose scaled restricted Jacobian at x is singular.

    Requires unit Weyl norm; |f - g| = 1/mu(f, x) and the correction lives
    in the span of the first-derivative kernel basis, so g(x) = f(x).
    Returns F itself when mu is infinite.
    """
    if abs(F.weyl_norm - 1.0) > 1e-8:
        raise ValueError("minimal_singular_perturbation expects a unit-norm system")
    x = pl.sphere_point(x, tol=1e-9)
    basis = tangent_basis(x)
    M = scaled_restricted_jacobian(F, x, basis)
    if not _nonsingular(M, min_singular_value(M)):
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
    from .mesh import angular_distance

    for S in (F, G):
        if abs(S.weyl_norm - 1.0) > 1e-8:
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
        F = sample_gaussian_system(n, degrees, seed + i).normalized()
        est, _ = kappa_grid(F, mesh)
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
