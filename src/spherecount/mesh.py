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
from scipy.optimize import nnls

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

    ``lattice`` holds the integer cube-surface points (row-lex sorted, so
    construction is deterministic); ``points`` their radial projections.
    """

    n: int
    t: int
    lattice: np.ndarray  # (count, n+1) ints with max |k_i| = 2^t
    points: np.ndarray   # (count, n+1) unit rows

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

    Each cube-surface lattice point is generated exactly once: it is owned
    by the lowest axis on which it attains the sup norm.  The facet-major
    enumeration order is deterministic.  Raises MeshSizeError when the
    count bound exceeds ``max_points``.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if mesh_count_bound(n, t) > max_points:
        raise MeshSizeError(
            f"mesh for n={n}, t={t} may have up to {mesh_count_bound(n, t)} points "
            f"(cap {max_points})")
    m = 2**t
    full = np.arange(-m, m + 1, dtype=np.int64)
    interior = np.arange(-(m - 1), m, dtype=np.int64)
    faces = []
    for axis in range(n + 1):
        for sign in (m, -m):
            ranges = [interior if j < axis else full
                      for j in range(n + 1) if j != axis]
            grids = np.meshgrid(*ranges, indexing="ij")
            rows = grids[0].size if grids else 1
            face = np.empty((rows, n + 1), dtype=np.int64)
            cols = [c for c in range(n + 1) if c != axis]
            for col, g in zip(cols, grids):
                face[:, col] = g.reshape(-1)
            face[:, axis] = sign
            faces.append(face)
    lattice = np.concatenate(faces, axis=0)
    pts = lattice.astype(float)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return SphereMesh(n=n, t=t, lattice=lattice, points=pts)


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
