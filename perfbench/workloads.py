"""The benchmark's workloads: inputs from a seed, references, ops and checks.

Every op calls one public function of spherecount, single-threaded.  The
references come from the oracles in ``tests/oracles.py`` and from an
evaluator of this file that shares no code with the package's kernels;
they are computed once per run, before and outside every timed region.

An op fails when it raises, when it stops with a count other than the
reference count, when a refined zero has a residual of at least
``RESIDUAL_TOL`` or lies farther than ``LOCATION_TOL`` from every
reference zero (or two zeros land on one), and, on ``mc-kappa``, when a
trial's ln kappa differs from the reference by more than ``KAPPA_RTOL``
relative or a pass's mean exceeds the closed-form bound.  Not stopping is
budget exhaustion and is reported, not failed: the count of an unstopped
run may differ from the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from oracles import circle_roots, rational_evaluate, sphere_zeros_oracle
from spherecount import (count_affine, monte_carlo_ln_kappa, root_count,
                         rotate, sample_gaussian_system)
from spherecount.polynomials import lift_affine, lifted_poles

RESIDUAL_TOL = 1e-10
LOCATION_TOL = 1e-6
KAPPA_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One unit of work: ``run`` calls the package, ``check`` lists problems."""

    label: str                      # root span of the op in the traced run
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Expected:
    """Reference zeros of one system.

    ``keys`` identify the reference zeros; ``locate`` maps a reported zero to
    its key (None for the known poles of a lifted system) and its residual.
    """

    count: int
    keys: list
    locate: Callable[[np.ndarray], tuple]


def check_count(result, expected):
    """Problems with a CountResult against its reference (none if unstopped)."""
    if not result.stopped:
        return []
    problems = []
    if result.count != expected.count:
        problems.append(f"count {result.count} != reference {expected.count}")
    matched = set()
    for z in result.zeros:
        zeta = np.asarray(z.zeta, float)
        key, residual = expected.locate(zeta)
        if not residual < RESIDUAL_TOL:
            problems.append(f"zero {zeta.tolist()} has residual {residual:.3g}")
        if key is None:
            continue
        dists = [float(np.linalg.norm(key - k)) for k in expected.keys]
        j = int(np.argmin(dists)) if dists else -1
        if j < 0 or dists[j] > LOCATION_TOL:
            problems.append(f"zero {zeta.tolist()} is not near any reference zero")
        elif j in matched:
            problems.append(f"zero {zeta.tolist()} repeats reference zero {j}")
        matched.add(j)
    return problems


def _sphere_expected(F, zeros):
    """Reference for a system on S^n: zeros are compared as unit vectors."""
    Fn = F.normalized()

    def locate(zeta):
        residual = max(abs(float(rational_evaluate(p, zeta))) for p in Fn.polynomials)
        return zeta, residual

    return Expected(count=len(zeros), keys=[np.asarray(z, float) for z in zeros],
                    locate=locate)


def _affine_expected(affine_polys, starts):
    """Reference for ``count_affine``: the lifted rule of the acceptance suite.

    Finite zeros of the lift come from multistart Gauss-Newton away from the
    poles; the two poles are zeros by construction.  A finite zero
    (y_0, y, u) is compared through its affine root y / y_0 and the sign of
    y_0, which the conditioning rescaling of the lift's last equation keeps.
    """
    F = lift_affine(affine_polys).normalized()
    poles = [np.asarray(p, float) for p in lifted_poles(F.n_vars)]

    def pole_gap(z):
        return min(math.acos(max(-1.0, min(1.0, float(z @ p)))) for p in poles)

    def key(z):
        return np.append(z[1:-1] / z[0], math.copysign(1.0, z[0]))

    finite = [z for z in sphere_zeros_oracle(F, starts=starts) if pole_gap(z) > 0.05]

    def locate(zeta):
        if pole_gap(zeta) < 1e-12:
            return None, max(abs(float(rational_evaluate(p, zeta))) for p in F.polynomials)
        x = zeta[1:-1] / zeta[0]
        residual = max(abs(float(rational_evaluate(p, x))) for p in affine_polys)
        return key(zeta), residual

    return Expected(count=len(finite) + 2, keys=[key(z) for z in finite], locate=locate)


# ---------------------------------------------------------------------------
# suite30: the acceptance suite, in a seed-dependent order

class Suite30:
    """The 30-system acceptance suite at its test budgets.

    Many small grids with early stops, the lifted affine loop, and the
    scalar certification path (``refine_zero``, scalar ``evaluate``).  The
    seed permutes the order of the systems, so every seed does the same work.
    """

    counting = True

    def __init__(self, tiny=False):
        import test_acceptance  # harness import; pulls in pytest

        self._suite = test_acceptance.counting_suite
        self.tiny = tiny

    def inputs(self, seed):
        suite = self._suite()
        if self.tiny:
            suite = [suite[0], suite[14], suite[29]]
        order = (range(len(suite)) if seed == 0
                 else np.random.default_rng(seed).permutation(len(suite)))
        return [suite[i] for i in order]

    def reference(self, inputs):
        refs = []
        for kind, _, payload in inputs:
            if kind == "circle":
                poly = payload.polynomials[0]
                refs.append(_sphere_expected(payload, circle_roots(poly, samples=4000)))
            elif kind == "sphere":
                refs.append(_sphere_expected(payload,
                                             sphere_zeros_oracle(payload, starts=1200)))
            else:
                refs.append(_affine_expected(payload, starts=1200))
        return refs

    def ops(self, inputs, refs):
        ops = []
        for (kind, _, payload), expected in zip(inputs, refs):
            if kind == "affine":
                ops.append(Op("counting.count_affine",
                              lambda p=payload: count_affine(p, max_t=9, threads=1)[0],
                              lambda r, e=expected: check_count(r, e)))
            else:
                max_t = 13 if payload.n == 1 else 9
                ops.append(Op("counting.root_count",
                              lambda p=payload, m=max_t: root_count(p, max_t=m, threads=1),
                              lambda r, e=expected: check_count(r, e)))
        return ops

    def check_pass(self, outputs):
        return []


# ---------------------------------------------------------------------------
# deep-grid: Gaussian (2,2) systems through the deepest level under the cap

DEEP_SEEDS = (4000, 4001, 4002, 4003)


def _rotation(seed, dim):
    """A seeded orthogonal matrix; the identity for seed 0."""
    if seed == 0:
        return np.eye(dim)
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return Q * np.sign(np.diag(R))


class DeepGrid:
    """Unfiltered Gaussian (2,2) systems through ``root_count(max_t=9)``.

    Level t=9 has 6.29M points, so each whole-mesh array outgrows the
    last-level cache; mesh, evaluation and ``mu`` do almost all the work.
    Three of the four systems do not stop by t=9, one stops at t=3.  The
    seed rotates the fixed systems: the Gaussian ensemble is orthogonally
    invariant, so every seed draws from the same distribution, while the
    stopping profile, and with it the work per pass, stays the same.
    """

    counting = True

    def __init__(self, tiny=False):
        self.tiny = tiny
        self.max_t = 5 if tiny else 9

    def inputs(self, seed):
        seeds = DEEP_SEEDS[::2] if self.tiny else DEEP_SEEDS
        Q = _rotation(seed, 3)
        return [("sphere", f"gauss-{s}", rotate(sample_gaussian_system(2, (2, 2), s), Q))
                for s in seeds]

    def reference(self, inputs):
        return [_sphere_expected(F, sphere_zeros_oracle(F.normalized()))
                for _, _, F in inputs]

    def ops(self, inputs, refs):
        return [Op("counting.root_count",
                   lambda F=F: root_count(F, max_t=self.max_t, threads=1),
                   lambda r, e=expected: check_count(r, e))
                for (_, _, F), expected in zip(inputs, refs)]

    def check_pass(self, outputs):
        return []


# ---------------------------------------------------------------------------
# mc-kappa: Monte-Carlo ln kappa for n=3, no counting loop

def cube_sphere_grid(n, t):
    """C(2^-t) on S^n: cube-surface lattice points, normalized (any order)."""
    m = 2**t
    axis = np.arange(-m, m + 1)
    lattice = np.stack(np.meshgrid(*[axis] * (n + 1), indexing="ij"), axis=-1)
    lattice = lattice.reshape(-1, n + 1)
    lattice = lattice[np.abs(lattice).max(axis=1) == m]
    return lattice / np.linalg.norm(lattice, axis=1)[:, None]


def _monomial(X, expo, cache):
    """prod_j X[:, j]**e_j, cached by exponent across the systems of a run."""
    value = cache.get(expo)
    if value is None:
        value = np.ones(X.shape[0])
        for j, e in enumerate(expo):
            for _ in range(e):
                value = value * X[:, j]
        cache[expo] = value
    return value


def _values(F, X, cache):
    """f(X) for a system, term by term: (len(X), n)."""
    return np.stack([sum(c * _monomial(X, expo, cache) for expo, c in p.coefficients.items())
                     for p in F.polynomials], axis=1)


def _jacobians(F, X):
    """Df(X) term by term: (len(X), n, n + 1)."""
    J = np.zeros((X.shape[0], F.n, F.n_vars))
    for i, p in enumerate(F.polynomials):
        for expo, c in p.coefficients.items():
            for j, e in enumerate(expo):
                if e:
                    lowered = list(expo)
                    lowered[j] -= 1
                    J[:, i, j] += c * e * _monomial(X, tuple(lowered), {})
    return J


def reference_kappa_max(F, grid, cache, chunk=256):
    """Grid maximum of kappa for a unit-norm system, by an independent path.

    kappa(x) = 1/sqrt(sigma_min^2 + |f(x)|^2), sigma_min taken by SVD of the
    degree-scaled Jacobian times the projector onto x-perp.  Points are
    visited in increasing |f|; since kappa <= 1/|f|, the search ends once
    1/|f| no longer beats the best value found.
    """
    f_norms = np.linalg.norm(_values(F, grid, cache), axis=1)
    scale = np.asarray(F.degrees, float) ** -0.5

    def kappa(idx):
        X = grid[idx]
        J = _jacobians(F, X) * scale[None, :, None]
        P = np.eye(X.shape[1])[None] - X[:, :, None] * X[:, None, :]
        smin = np.linalg.svd(J @ P, compute_uv=False)[:, F.n - 1]
        return 1.0 / np.sqrt(smin * smin + f_norms[idx] ** 2)

    order = np.argsort(f_norms)
    best = 0.0
    for lo in range(0, order.size, chunk):
        idx = order[lo:lo + chunk]
        if f_norms[idx[0]] * best >= 1.0:
            break
        best = max(best, float(kappa(idx).max()))
    return best


class McKappa:
    """``monte_carlo_ln_kappa(3, (2,2,2), mesh_t=4)``, one trial per op.

    ``kappa_many`` runs the n=3 branch of ``sigma_min`` on all 262,400
    points of every trial and no counting loop runs: the bypass workload
    for mesh and counting changes.  Trial i of a pass uses seed 10*seed + i.
    """

    counting = False
    n, degrees, trials = 3, (2, 2, 2), 10

    def __init__(self, tiny=False):
        self.mesh_t = 2 if tiny else 4
        self.trials = 2 if tiny else McKappa.trials

    def inputs(self, seed):
        return [10 * seed + i for i in range(self.trials)]

    def reference(self, inputs):
        grid = cube_sphere_grid(self.n, self.mesh_t)
        cache = {}
        return [math.log(reference_kappa_max(
            sample_gaussian_system(self.n, self.degrees, s).normalized(), grid, cache))
            for s in inputs]

    def ops(self, inputs, refs):
        def check(out, ref):
            got = out["samples"][0]
            if abs(got - ref) > KAPPA_RTOL * abs(ref):
                return [f"ln kappa {got!r} != reference {ref!r}"]
            return []

        return [Op("condition.monte_carlo_ln_kappa",
                   lambda s=s: monte_carlo_ln_kappa(self.n, self.degrees, trials=1,
                                                    mesh_t=self.mesh_t, seed=s, threads=1),
                   lambda out, ref=ref: check(out, ref))
                for s, ref in zip(inputs, refs)]

    def check_pass(self, outputs):
        """Problems with a whole pass: its mean ln kappa against the bound."""
        done = [o for o in outputs if o is not None]
        if not done:
            return []
        mean = sum(o["samples"][0] for o in done) / len(done)
        if mean > done[0]["bound"]:
            return [f"mean ln kappa {mean:.4f} exceeds the bound {done[0]['bound']:.4f}"]
        return []


WORKLOADS = {"suite30": Suite30, "deep-grid": DeepGrid, "mc-kappa": McKappa}
