"""Quasi-uniform grids on S^n by projecting the cube-surface lattice.

The grid C(eta), eta = 2^-t, is the radial projection of the points of the
lattice (eta Z)^(n+1) lying on the cube surface max_i |x_i| = 1.  Its
covering radius is at most eta sqrt(n)/2, and every sphere point lies in
the spherical convex hull of its grid neighbours at distance sqrt(n) eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

# size cap on a grid: a (20M, n+1) float array is ~0.5 GB for n=2
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


@dataclass(frozen=True)
class SphereMesh:
    """The grid C(eta) on S^n, eta = 2^-t, stored as one point per antipodal pair.

    The grid is closed under x -> -x, and ``pair_points`` holds one point
    of each pair, its pair point: the +m faces of ``build_mesh`` in order.
    Row p of ``pair_points`` is pair row p, the only index the counting
    loop uses.  ``points`` materializes the whole grid on request, and
    ``lattice``, the integer points themselves, is derived from it.
    """

    n: int
    t: int
    pair_points: np.ndarray   # (count/2, n+1) unit rows, the +m faces, stored by columns

    @cached_property
    def points(self):
        """(count, n+1) unit rows in facet-major order, built on first access.

        Each +m face is followed by its -m face, which is the +m face read
        backwards and negated (see ``build_mesh``); adding 0.0 keeps a zero
        coordinate 0.0, as ``build_mesh`` would write it.
        """
        faces, lo = [], 0
        for size in _face_sizes(self.n, self.t):
            plus = self.pair_points[lo:lo + size]
            faces += [plus, -plus[::-1] + 0.0]
            lo += size
        return np.concatenate(faces)

    @property
    def lattice(self):
        """(count, n+1) int64 rows k with max |k_i| = 2^t, k/|k| = points.

        Each row of ``points`` is k/|k| with every quotient correctly
        rounded, so scaling it by 2^t / max |k_i/|k|| lands within a few
        ulp of the integers k and rounding recovers them exactly.
        """
        points = self.points
        scale = 2.0**self.t / np.max(np.abs(points), axis=1)
        return np.rint(points * scale[:, None]).astype(np.int64)

    @property
    def eta(self):
        return 2.0 ** (-self.t)

    @property
    def count(self):
        return 2 * self.pair_points.shape[0]

    @property
    def covering_radius_bound(self):
        return self.eta * math.sqrt(self.n) / 2.0


def _face_sizes(n, t):
    """Points on one face of each owning axis a: (2m-1)^a (2m+1)^(n-a), m = 2^t."""
    m = 2**t
    return [(2 * m - 1)**a * (2 * m + 1)**(n - a) for a in range(n + 1)]


def build_mesh(n, t):
    """Enumerate C(2^-t) on S^n, one point of each antipodal pair.

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
    pair on a +m face.  Only the +m faces are written
    (``SphereMesh.pair_points``); ``count`` and ``eta`` still describe
    the whole grid.  The rows are stored by columns: each coordinate of
    every pair point is one contiguous run, so the face divisions write
    contiguous memory and a block of rows hands ``evaluate_many``
    contiguous columns.

    The squared radius m^2 + sum_j k_j^2 is an exact integer in float64,
    so its sqrt is the correctly rounded |k|, and every coordinate is the
    one rounded quotient k_i / |k|: the rows equal those of normalizing
    the integer lattice with ``np.linalg.norm``, bit for bit.  Raises
    MeshSizeError when the count bound exceeds ``MESH_POINT_CAP``, read
    at call time; the cap counts the points of the whole grid.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if mesh_count_bound(n, t) > MESH_POINT_CAP:
        raise MeshSizeError(
            f"mesh for n={n}, t={t} may have up to {mesh_count_bound(n, t)} points "
            f"(cap {MESH_POINT_CAP})")
    m = 2**t
    full = np.arange(-m, m + 1, dtype=float)
    interior = full[1:-1]
    columns = np.empty((n + 1, sum(_face_sizes(n, t))))
    row = 0
    for axis in range(n + 1):
        cols = [c for c in range(n + 1) if c != axis]
        ranges = [interior] * axis + [full] * (n - axis)
        shape = tuple(r.size for r in ranges)
        # the coordinate of column cols[q], broadcastable over the face grid
        ks = [r.reshape([-1 if d == q else 1 for d in range(n)])
              for q, r in enumerate(ranges)]
        radius = np.full(shape, float(m * m))
        for k in ks:
            radius += k * k
        np.sqrt(radius, out=radius)
        plus = columns[:, row:row + radius.size].reshape((n + 1,) + shape)
        for c, k in zip(cols, ks):
            np.divide(k, radius, out=plus[c])
        np.divide(float(m), radius, out=plus[axis])
        row += radius.size
    return SphereMesh(n=n, t=t, pair_points=columns.T)


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
