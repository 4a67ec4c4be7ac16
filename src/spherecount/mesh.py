"""Quasi-uniform grids on S^n by projecting the cube-surface lattice.

The grid C(eta), eta = 2^-t, is the radial projection of the points of the
lattice (eta Z)^(n+1) lying on the cube surface max_i |x_i| = 1.  Its
covering radius is at most eta sqrt(n)/2, and every sphere point lies in
the spherical convex hull of its grid neighbours at distance sqrt(n) eta.
A pass walks a grid one face at a time, in runs of lattice coordinates,
and builds unit points only for the rows it reads, so it need not hold
the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "SphereMesh",
    "MeshSizeError",
    "angular_distance",
    "angular_distance_many",
    "build_mesh",
    "covering_check",
    "sch_membership",
    "convexity_cover_check",
    "mesh_count_bound",
    "MESH_POINT_CAP",
]

# Largest ``mesh_count_bound`` (whole-sphere points) of a grid that a
# refinement level or a built mesh may have.  A level streams its grid in
# cache-sized chunks, so the cap bounds the work of one level (its
# evaluations) rather than its memory; ``count --max-t`` is clamped to the
# deepest level under it.
MESH_POINT_CAP = 20_000_000


class MeshSizeError(RuntimeError):
    """Raised when a requested grid would exceed the configured size cap."""


def angular_distance(x, y):
    """arccos of the clamped inner product; the geodesic metric on S^n."""
    c = float(np.dot(np.asarray(x, float), np.asarray(y, float)))
    return math.acos(max(-1.0, min(1.0, c)))


def angular_distance_many(X, y):
    """Angular distances from each row of X to the point y."""
    c = np.asarray(X, float) @ np.asarray(y, float)
    return np.arccos(np.clip(c, -1.0, 1.0))


def pairwise_angular(X):
    X = np.asarray(X, float)
    return np.arccos(np.clip(X @ X.T, -1.0, 1.0))


def mesh_count_bound(n, t):
    """Upper bound 2 (n+1) (1 + 2^(t+1))^n on the grid size."""
    return 2 * (n + 1) * (1 + 2 ** (t + 1)) ** n


class Slab(NamedTuple):
    """The pair rows ``lo:hi`` of the +m face of ``axis``, in runs of ``row``
    pair rows: the face's last coordinate moves over its whole range along
    each run, and the other coordinates are fixed.  Consecutive runs form
    lines of ``line`` runs, along which the face's second-last coordinate
    moves one step from run to run (one run per line for n = 1)."""

    lo: int
    hi: int
    axis: int
    row: int
    line: int


@dataclass(frozen=True)
class SphereMesh:
    """The grid C(eta) on S^n, eta = 2^-t, as one point per antipodal pair.

    The grid is closed under x -> -x, and its pair points are one point of
    each pair: the +m faces of ``build_mesh`` in order.  Pair row p is the
    only index the counting loop uses.  A pass walks the grid one face
    (``slabs``) at a time without holding it, and builds lattice points
    (``lattice_at``), unit points (``points_at``) and the points of tile
    centres half a step off the rows (``centres_at``) only where it reads
    them.  ``pair_points``, ``lattice`` and ``points`` (the whole grid) are
    built on access.
    """

    n: int
    t: int

    def slabs(self):
        """One slab per +m face, in row order."""
        lo = 0
        for axis, shape in enumerate(_face_shapes(self.n, self.t)):
            yield Slab(lo, lo + math.prod(shape), axis, shape[-1], ([1] + shape)[-2])
            lo += math.prod(shape)

    def lattice_at(self, rows, shift=0.0):
        """The lattice points k at the ascending pair rows ``rows``, as exact
        floats stored by columns: k_axis = m = 2^t on the face of ``axis``.
        ``shift`` moves each point that many steps along its run, in the
        face's last coordinate; a half-integer shift keeps them exact."""
        rows, n, lo = np.asarray(rows, dtype=np.int64), self.n, 0
        k = np.empty((n + 1, rows.size))
        for axis, shape in enumerate(_face_shapes(n, self.t)):
            a, b = np.searchsorted(rows, (lo, lo + math.prod(shape)))
            if a < b:
                cols = [c for c in range(n + 1) if c != axis]
                for c, r, i in zip(cols, shape, np.unravel_index(rows[a:b] - lo, shape)):
                    k[c, a:b] = i - r // 2
                if shift:
                    k[cols[-1], a:b] += shift
                k[axis, a:b] = 2**self.t
            lo += math.prod(shape)
        return k.T

    def centres_at(self, rows, shift):
        """The unit points of the lattice points at the ascending pair rows
        ``rows`` moved ``shift`` steps along their runs, stored by columns:
        the centres of tiles that start at ``rows``, which lie off the grid."""
        return _unit(self.lattice_at(rows, shift))

    def points_at(self, rows):
        """The unit pair points at the ascending pair rows ``rows``, stored by columns."""
        return _unit(self.lattice_at(rows))

    @cached_property
    def pair_points(self):
        """(count/2, n+1) pair points, stored by columns."""
        return self.points_at(np.arange(self.count // 2))

    @property
    def lattice(self):
        """(count, n+1) int64 rows k with max |k_i| = 2^t, facet-major: each
        +m face followed by its -m face, read backwards and negated."""
        k = self.lattice_at(np.arange(self.count // 2))
        faces = [k[s.lo:s.hi] for s in self.slabs()]
        return np.concatenate([f for p in faces for f in (p, -p[::-1])]).astype(np.int64)

    @cached_property
    def points(self):
        """(count, n+1) unit rows k/|k| of ``lattice``, built on first access."""
        return _unit(self.lattice.astype(float))

    @property
    def eta(self):
        return 2.0 ** (-self.t)

    @property
    def count(self):
        return 2 * sum(map(math.prod, _face_shapes(self.n, self.t)))

    @property
    def covering_radius_bound(self):
        return self.eta * math.sqrt(self.n) / 2.0


def _unit(k):
    """The rows k/|k| of lattice rows k, stored by columns.

    |k|^2 is exact in float64 (an integer, or a multiple of 1/4 at a tile
    centre), so its sqrt is the correctly rounded |k|, and each coordinate
    is the one rounded quotient k_i / |k|: a point is the same, bit for
    bit, whatever rows it is built with, and a mirror row -k gives exactly
    -x."""
    k = np.asarray(k, float).T
    return (k / np.sqrt((k * k).sum(axis=0))).T


def _face_shapes(n, t):
    """The ranges of the other coordinates on a face of each owning axis a:
    2m-1 interior values before a, 2m+1 after it, m = 2^t."""
    m = 2**t
    return [[2 * m - 1] * a + [2 * m + 1] * (n - a) for a in range(n + 1)]


def build_mesh(n, t):
    """The grid C(2^-t) on S^n, one point of each antipodal pair, built lazily.

    Each cube-surface lattice point k, max |k_i| = m = 2^t, is generated
    exactly once: it is owned by the lowest axis on which it attains the
    sup norm, so on the faces of axis a the coordinates before a range
    over the interior (-m, m) and those after it over [-m, m].  The order
    is facet-major: by owning axis, the +m face before the -m face, then
    row-major over the other coordinates.  Each coordinate range is
    symmetric about 0, so reading a face backwards negates every other
    coordinate: the -m face read backwards equals the +m face negated,
    exactly (mirror rows share one radius, so their quotients differ only
    in sign), and the grid is closed under x -> -x with one point of each
    pair on a +m face.  Only the +m faces are generated (the pair points);
    ``count`` and ``eta`` still describe the whole grid.  The points are
    stored by columns, so the divisions write contiguous memory and the
    kernels of ``polynomials`` read contiguous columns; the rows equal those of
    normalizing the integer lattice with ``np.linalg.norm``, bit for bit.

    No point is built here (see ``SphereMesh``).  Raises MeshSizeError
    when the count bound exceeds ``MESH_POINT_CAP``, read at call time;
    the cap counts the points of the whole grid.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if mesh_count_bound(n, t) > MESH_POINT_CAP:
        raise MeshSizeError(
            f"mesh for n={n}, t={t} may have up to {mesh_count_bound(n, t)} points "
            f"(cap {MESH_POINT_CAP})")
    return SphereMesh(n=n, t=t)


def covering_check(mesh, z):
    """Nearest grid point to z and the angular distance to it."""
    z = np.asarray(z, float)
    if z.shape != (mesh.n + 1,):
        raise ValueError("dimension mismatch")
    d = angular_distance_many(mesh.points, z)
    i = int(np.argmin(d))
    return mesh.points[i], float(d[i])


def _hemisphere_witness(Y):
    z = np.mean(Y, axis=0)
    nrm = np.linalg.norm(z)
    if nrm < 1e-12:
        raise ValueError("hemisphere certificate not found (mean of Y vanishes)")
    z = z / nrm
    if np.min(Y @ z) <= 0.0:
        raise ValueError("hemisphere certificate not found")
    return z


def sch_membership(x, Y, residual_tol=1e-10):
    """Is x in the spherical convex hull of the rows of Y?

    Y must lie in an open hemisphere (witnessed by its normalized mean).
    Membership is decided by nonnegative least squares on the cone
    condition sum lambda_i y_i = x.
    """
    # imported here so that importing the package does not load scipy.optimize
    from scipy.optimize import nnls

    x = np.asarray(x, float)
    Y = np.atleast_2d(np.asarray(Y, float))
    _hemisphere_witness(Y)
    _, resid = nnls(Y.T, x)
    return resid < residual_tol


def convexity_cover_check(Y, radii, x):
    """Does x in SCH(Y) imply x in the union of the caps B(y_i, r_i)?

    Property-test helper for configurations whose caps have a common point:
    returns the truth value of the implication for the probe x.
    """
    Y = np.atleast_2d(np.asarray(Y, float))
    radii = np.asarray(radii, float)
    if not sch_membership(x, Y):
        return True
    return bool(np.any(angular_distance_many(Y, x) <= radii))
