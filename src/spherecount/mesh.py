"""Quasi-uniform grids on S^n by projecting the cube-surface lattice.

The grid C(eta), eta = 2^-t, is the radial projection of the points of the
lattice (eta Z)^(n+1) lying on the cube surface max_i |x_i| = 1.  Its
covering radius is at most eta sqrt(n)/2, and every sphere point lies in
the spherical convex hull of its grid neighbours at distance sqrt(n) eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# default size cap on a grid: a (20M, n+1) float array is ~0.5 GB for n=2
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
    """The grid C(eta) on S^n, eta = 2^-t, as a deduplicated point array.

    ``points`` holds the radial projections of the cube-surface lattice
    points in facet-major order (see ``build_mesh``).  ``lattice``, the
    integer points themselves, is derived from ``points`` on demand.
    """

    n: int
    t: int
    points: np.ndarray   # (count, n+1) unit rows

    @property
    def lattice(self):
        """(count, n+1) int64 rows k with max |k_i| = 2^t, k/|k| = points.

        Each row of ``points`` is k/|k| with every quotient correctly
        rounded, so scaling it by 2^t / max |k_i/|k|| lands within a few
        ulp of the integers k and rounding recovers them exactly.
        """
        scale = 2.0**self.t / np.max(np.abs(self.points), axis=1)
        return np.rint(self.points * scale[:, None]).astype(np.int64)

    @property
    def eta(self):
        return 2.0 ** (-self.t)

    @property
    def count(self):
        return self.points.shape[0]

    @property
    def covering_radius_bound(self):
        return self.eta * math.sqrt(self.n) / 2.0


def build_mesh(n, t, max_points=MESH_POINT_CAP):
    """Enumerate C(2^-t) on S^n.

    Each cube-surface lattice point k, max |k_i| = m = 2^t, is generated
    exactly once: it is owned by the lowest axis on which it attains the
    sup norm, so on the faces of axis a the coordinates before a range
    over the interior (-m, m) and those after it over [-m, m].  The order
    is facet-major: by owning axis, the +m face before the -m face, then
    row-major over the other coordinates.

    The unit rows are written face by face into one array.  The squared
    radius m^2 + sum_j k_j^2 is an exact integer in float64, so its sqrt
    is the correctly rounded |k|, and every coordinate is the one rounded
    quotient k_i / |k|: the rows equal those of normalizing the integer
    lattice with ``np.linalg.norm``, bit for bit.  Raises MeshSizeError
    when the count bound exceeds ``max_points``.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if mesh_count_bound(n, t) > max_points:
        raise MeshSizeError(
            f"mesh for n={n}, t={t} may have up to {mesh_count_bound(n, t)} points "
            f"(cap {max_points})")
    m = 2**t
    full = np.arange(-m, m + 1, dtype=float)
    interior = full[1:-1]
    points = np.empty((2 * sum((2 * m - 1)**a * (2 * m + 1)**(n - a)
                               for a in range(n + 1)), n + 1))
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
        size = radius.size
        plus = points[row:row + size].reshape(shape + (n + 1,))
        minus = points[row + size:row + 2 * size]
        for c, k in zip(cols, ks):
            np.divide(k, radius, out=plus[..., c])
        np.divide(float(m), radius, out=plus[..., axis])
        minus[:] = points[row:row + size]
        np.negative(minus[:, axis], out=minus[:, axis])
        row += 2 * size
    return SphereMesh(n=n, t=t, points=points)


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
