"""Certified root counting on the sphere by inclusion and exclusion.

At spacing eta the grid points admitted by the inclusion test become
vertices of a proximity graph (edges join points whose certified caps
intersect); distinct connected components then certify distinct zeros.
The spacing is halved until two conditions hold simultaneously:

    separation:  vertices of distinct components are farther apart than
                 2 eta sqrt(n), and
    exclusion:   every rejected grid point x has |f(x)| above
                 eta sqrt(n max d)/2, so its neighbourhood carries no zero.

On termination the number of components equals the number of zeros of f
on S^n, and refining one vertex per component locates them all.

Lifted affine systems need special treatment.  The two poles
(0, ..., 0, +-1) of a lifted system are always zeros, and they are
degenerate whenever some input degree exceeds one (the homogenized
equations are flat at y = 0), so the exclusion predicate can never clear
a pole neighbourhood and the plain loop cannot terminate.  The lifted
loop therefore treats the poles as known components:

  * admissible grid points whose certified ball reaches their nearest
    pole certify the pole itself (the certified zero is constant on the
    ball and the pole is a zero), so they join the pole's component
    instead of seeding a new one;
  * exclusion failures are clustered at grid scale and each cluster must
    contain its pole: a low-residual island elsewhere blocks stopping;
  * vertices must keep a separation margin from the pole shadows.

The count on termination is the component count plus two.  A zero whose
entire low-residual neighbourhood stays merged with a pole shadow can
defer termination until the spacing resolves the gap; the variant is
validated against dense-grid oracles and reports budget exhaustion
otherwise.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import polynomials as pl
from .certification import RefinedZero, certificate_from_values, chart_beta, refine_zero
from .condition import _CHUNK, _kappa, bounded_max, mu_many
from .convergence import ALPHA, r0
from .mesh import (MESH_POINT_CAP, angular_distance_many, build_mesh,
                   pairwise_angular)

__all__ = [
    "CertGraph",
    "CountResult",
    "build_graph",
    "check_stop",
    "root_count",
    "count_affine",
    "initial_eta",
    "predicted_eta_threshold",
    "predicted_complexity",
]

@dataclass(frozen=True)
class CertGraph:
    """Admissible grid points, their certificates, and the proximity graph.

    ``admissible`` covers the whole grid; the vertices are the admissible
    points, less the pole certifiers in the lifted loop.
    ``mus`` holds mu only where it was computed (see ``_point_data``):
    at every point that could pass the inclusion test, and at the points
    the kappa maximum had to look at.  Elsewhere it is NaN, "not
    computed", which is distinct from inf, "singular".  ``components``
    holds tuples of ascending vertex positions, ordered by least member.
    ``separation`` is the least angular distance between vertices of
    different components, inf when there is at most one component.
    """

    eta: float
    vertex_indices: np.ndarray   # indices into the mesh point list
    certificates: tuple          # one Certificate per vertex
    edges: tuple                 # pairs of vertex positions
    components: tuple            # tuple of tuples of vertex positions
    separation: float            # least distance across components, or inf
    f_norms: np.ndarray          # residual norm at every mesh point
    mus: np.ndarray              # mu where computed: inf if singular, NaN if skipped
    admissible: np.ndarray       # inclusion-test mask over the whole mesh


# For a unit-norm system mu >= sqrt(n) at every point (the degree-scaled
# restricted Jacobian has Frobenius norm at most 1, so its least singular
# value is at most 1/sqrt(n)).  The inclusion test D^1.5 mu^2 |f| < alpha*
# can therefore pass only where |f| < alpha*/(n D^1.5).  C_SLACK widens
# that ceiling so rounding in the computed mu and in the test's product
# can never drop a point that would pass: 2 is far above their relative
# error, which is of order 1e-15.  It decides where mu is computed, never
# an answer.
C_SLACK = 2.0


def _candidate_ceiling(F):
    """Residual below which a point may pass the inclusion test."""
    return C_SLACK * ALPHA.alpha_star / (F.n * F.max_degree**1.5)


def _map_chunks(fn, rows, threads=1):
    """fn over consecutive chunks of ``rows`` (at least one), concatenated."""
    spans = [(lo, min(lo + _CHUNK, rows.shape[0]))
             for lo in range(0, rows.shape[0], _CHUNK)] or [(0, 0)]

    def work(span):
        return fn(rows[span[0]:span[1]])

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, spans))
    else:
        parts = [work(s) for s in spans]
    return np.concatenate(parts)


def _mu_at(F, points, idx, threads=1):
    return _map_chunks(lambda rows: mu_many(F, points[rows], f_norm=1.0),
                       idx, threads=threads)


def _point_data(F, points, threads=1, kappa_sample=None):
    """Residual norms everywhere; mu only where it can change an answer.

    Returns (f_norms, mus, admissible, kappa).  mu is computed at the
    admissibility candidates (|f| below ``_candidate_ceiling``) and, when
    a boolean mask ``kappa_sample`` is given, at the points of the sample
    that the kappa maximum has to visit: kappa <= 1/|f|, so points are
    taken in increasing |f| until the bound 1/sqrt(f*f) no longer beats
    the running maximum.  Elsewhere ``mus`` is NaN.  ``kappa`` is the
    maximum of the finite kappa values over the sample, inf if there is
    none, and None without a sample.  mu of a row does not depend on the
    other rows of its batch, so every value equals what an exhaustive pass
    over all points would give.
    """
    f_norms = _map_chunks(
        lambda block: np.linalg.norm(pl.evaluate_many(F, block), axis=1),
        points, threads=threads)
    mus = np.full(points.shape[0], np.nan)
    cand = np.nonzero(f_norms < _candidate_ceiling(F))[0]
    mus[cand] = _mu_at(F, points, cand, threads)
    admissible = np.zeros(points.shape[0], dtype=bool)
    admissible[cand] = _admissible_mask(F, f_norms[cand], mus[cand])
    if kappa_sample is None:
        return f_norms, mus, admissible, None
    seen = cand[kappa_sample[cand]]
    best = _kappa_max(f_norms[seen], mus[seen])
    with np.errstate(divide="ignore"):
        bounds = 1.0 / np.sqrt(f_norms * f_norms)
    rows = np.nonzero(kappa_sample & (bounds > best) & np.isnan(mus))[0]

    def visit(pos):
        idx = rows[pos]
        mus[idx] = _mu_at(F, points, idx, threads)
        return _kappa_max(f_norms[idx], mus[idx])

    best = bounded_max(bounds[rows], visit, best=best, max_block=_CHUNK)
    return f_norms, mus, admissible, (best if best > -math.inf else math.inf)


def _clusters(points, reach):
    """Link the points within angular distance ``reach`` of each other.

    ``reach`` is a scalar or a matrix over the pairs.  Returns (pairs,
    components, separation): the linked pairs i < j in row-major order,
    the connected components as tuples of ascending positions ordered by
    least member, and the least distance between points of different
    components (inf when there is at most one).
    """
    # imported here so that importing the package does not load csgraph
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    dist = pairwise_angular(points)
    i, j = np.nonzero(np.triu(dist <= reach, 1))
    m = len(points)
    _, labels = connected_components(
        coo_matrix((np.ones(i.size), (i, j)), shape=(m, m)), directed=False)
    groups = {}
    for v, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(v)
    separation = np.min(dist, initial=math.inf,
                        where=labels[:, None] != labels[None, :])
    return (tuple(zip(i.tolist(), j.tolist())),
            tuple(tuple(g) for g in groups.values()), float(separation))


def _assemble_graph(F, mesh, f_norms, mus, admissible, vertex_indices):
    certs = []
    for idx in vertex_indices:
        x = mesh.points[idx]
        beta = chart_beta(F, x)
        certs.append(certificate_from_values(
            x, beta, float(mus[idx]), float(f_norms[idx]), F.max_degree))
    radii = np.array([c.inclusion_radius for c in certs])
    edges, components, separation = _clusters(
        mesh.points[vertex_indices], radii[:, None] + radii[None, :])
    return CertGraph(
        eta=mesh.eta,
        vertex_indices=vertex_indices,
        certificates=tuple(certs),
        edges=edges,
        components=components,
        separation=separation,
        f_norms=f_norms,
        mus=mus,
        admissible=admissible,
    )


def _admissible_mask(F, f_norms, mus):
    with np.errstate(invalid="ignore", over="ignore"):
        value = F.max_degree**1.5 * mus * mus * f_norms
    return np.isfinite(mus) & (value < ALPHA.alpha_star)


def build_graph(F, mesh, threads=1):
    """Certify the grid against the normalized system and link nearby caps."""
    Fn = F.normalized()
    f_norms, mus, admissible, _ = _point_data(Fn, mesh.points, threads=threads)
    return _assemble_graph(Fn, mesh, f_norms, mus, admissible,
                           np.nonzero(admissible)[0])


def exclusion_threshold(F, eta):
    return eta * math.sqrt(F.n * F.max_degree) / 2.0


def _exclusion_failures(F, mesh, graph):
    """Grid points passing neither test: not admissible, |f| <= threshold."""
    low = np.nonzero(graph.f_norms <= exclusion_threshold(F, mesh.eta))[0]
    return low[~graph.admissible[low]]


def check_stop(F, mesh, graph):
    """The two termination predicates of the counting loop."""
    separation_ok = graph.separation > 2.0 * mesh.eta * math.sqrt(mesh.n)
    exclusion_ok = _exclusion_failures(F, mesh, graph).size == 0
    return {"separation_ok": separation_ok, "exclusion_ok": exclusion_ok}


@dataclass(frozen=True)
class CountResult:
    """Outcome of the counting loop."""

    count: int
    zeros: tuple
    final_eta: float
    iterations: int
    evaluations: int
    stopped: bool
    predicted_eta_threshold: float | None
    kappa_grid_estimate: float | None

    def to_json(self):
        return {
            "count": self.count,
            "zeros": [z.to_json() for z in self.zeros],
            "final_eta": self.final_eta,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "stopped": self.stopped,
            "predicted_threshold": self.predicted_eta_threshold,
        }


def initial_eta(n):
    """Largest power of two not exceeding 1/sqrt(2n); the loop starts below it."""
    t0 = math.ceil(math.log2(math.sqrt(2.0 * n)))
    return 2.0**-t0, t0


def predicted_eta_threshold(F, kappa_estimate):
    """Spacing below which the loop provably stops (sufficient, not necessary)."""
    if kappa_estimate < 1.0:
        raise ValueError("kappa estimates are >= 1")
    n = F.n
    d = F.max_degree
    a = ALPHA.alpha_star
    return (min(a, kappa_estimate / (2.0 * math.sqrt(n)) * (1.0 - 2.0 * a * r0(a)))
            / (d**1.5 * kappa_estimate**2))


def predicted_complexity(F, kappa_estimate):
    """Iteration and evaluation bounds implied by a kappa estimate."""
    eta0, _ = initial_eta(F.n)
    threshold = predicted_eta_threshold(F, kappa_estimate)
    n, d = F.n, F.max_degree
    return {
        "iterations_bound": math.ceil(math.log2(eta0 / threshold)) + 1,
        "evaluations_bound": 2.0 * n * (1.0 + 4.0 * d**1.5 * math.sqrt(n)
                                        * kappa_estimate**2) ** n,
    }


def _kappa_max(f_norms, mus):
    """Largest finite kappa (``condition._kappa``); -inf if there is none."""
    k = _kappa(f_norms, mus)
    k = k[np.isfinite(k)]
    return float(k.max()) if k.size else -math.inf


def _component_representatives(graph):
    """One vertex per component: smallest residual, ties by vertex order."""
    reps = []
    for comp in graph.components:
        best = min(comp, key=lambda i: (graph.certificates[i].f_norm_at_x, i))
        reps.append(best)
    return reps


# ---------------------------------------------------------------------------
# the lifted loop: poles as known components

@dataclass(frozen=True)
class _PoleData:
    poles: tuple

    def distances(self, points):
        d = angular_distance_many(points, self.poles[0])
        for pole in self.poles[1:]:
            d = np.minimum(d, angular_distance_many(points, pole))
        return d


# Largest exclusion-failure set the lifted gate clusters; a level with
# more failures does not stop.  The cap bounds the dense pair matrix of
# the clustering at 4000^2 doubles (128 MB).
_LIFTED_FAILURE_CAP = 4000


def _lifted_stop_ok(graph, mesh, F, pole_dist, certifiers):
    eta = mesh.eta
    n = mesh.n
    link = 2.5 * eta * math.sqrt(n)
    failing = _exclusion_failures(F, mesh, graph)
    shadow_extent = 0.0
    if failing.size:
        if failing.size > _LIFTED_FAILURE_CAP:
            return False
        pts = mesh.points[failing]
        fail_pole_dist = pole_dist[failing]
        for comp in _clusters(pts, link)[1]:
            comp_dist = fail_pole_dist[list(comp)]
            if float(comp_dist.min()) > link:
                return False  # low-residual island away from the poles
            shadow_extent = max(shadow_extent, float(comp_dist.max()))
    if shadow_extent > 0.6:
        return False
    # pole certifiers define how far the pole components reach
    if certifiers.size:
        shadow_extent = max(shadow_extent, float(pole_dist[certifiers].max()))
    if shadow_extent > 0.75:
        return False
    if len(graph.vertex_indices):
        margin = shadow_extent + 2.0 * eta * math.sqrt(n)
        if float(pole_dist[graph.vertex_indices].min()) <= margin:
            return False
    return True


def _run_loop(F, max_t, threads, poles=None, max_mesh_points=MESH_POINT_CAP):
    Fn = F.normalized()
    n = Fn.n
    _, t0 = initial_eta(n)
    if max_t <= t0:
        raise ValueError(f"max_t = {max_t} allows no refinement (initial t = {t0})")
    evaluations = 0
    iterations = 0
    kappa_est = None
    graph = None
    mesh = None
    stopped = False
    for t in range(t0 + 1, max_t + 1):
        mesh = build_mesh(n, t, max_points=max_mesh_points)
        iterations += 1
        if poles is None:
            pole_dist = None
            sample = np.ones(mesh.count, dtype=bool)
        else:
            pole_dist = poles.distances(mesh.points)
            # kappa diagnostic away from the degenerate pole shadows
            sample = pole_dist > 0.2
        f_norms, mus, admissible, kappa_est = _point_data(
            Fn, mesh.points, threads=threads, kappa_sample=sample)
        vertices = np.nonzero(admissible)[0]
        if poles is not None:
            # points whose certified ball contains a pole belong to the
            # pole component, not to a new one
            reach = r0(ALPHA.alpha_star) * mus[vertices] * f_norms[vertices]
            at_pole = pole_dist[vertices] <= reach + 1e-15
            certifiers, vertices = vertices[at_pole], vertices[~at_pole]
        graph = _assemble_graph(Fn, mesh, f_norms, mus, admissible, vertices)
        evaluations += 2 * mesh.count + 2 * len(graph.vertex_indices)
        if poles is None:
            stop = check_stop(Fn, mesh, graph)
            ok = stop["separation_ok"] and stop["exclusion_ok"]
        else:
            ok = (_lifted_stop_ok(graph, mesh, Fn, pole_dist, certifiers)
                  and check_stop(Fn, mesh, graph)["separation_ok"])
        if ok:
            stopped = True
            break
    zeros = []
    if stopped:
        for rep in _component_representatives(graph):
            x = mesh.points[graph.vertex_indices[rep]]
            z = refine_zero(Fn, x)
            evaluations += 2 * max(z.newton_steps, 1)
            zeros.append(z)
    count = len(graph.components) if graph is not None else 0
    if poles is not None:
        count += len(poles.poles)
        for pole in poles.poles:
            zeros.append(RefinedZero(zeta=np.asarray(pole, float), newton_steps=0,
                                     final_beta=0.0, converged=True))
    threshold = None
    if kappa_est is not None and math.isfinite(kappa_est) and kappa_est >= 1.0:
        threshold = predicted_eta_threshold(Fn, kappa_est)
    return CountResult(
        count=count,
        zeros=tuple(zeros),
        final_eta=mesh.eta if mesh is not None else math.nan,
        iterations=iterations,
        evaluations=evaluations,
        stopped=stopped,
        predicted_eta_threshold=threshold,
        kappa_grid_estimate=kappa_est,
    )


def root_count(F, max_t=10, threads=1, max_mesh_points=MESH_POINT_CAP):
    """Count (and locate) the zeros of a nondegenerate system on S^n.

    Halves the spacing until both stop conditions hold or t exceeds
    ``max_t``; budget exhaustion is reported through ``stopped=False``
    rather than raised.  Grid-size overflow does raise (MeshSizeError).
    """
    return _run_loop(F, max_t=max_t, threads=threads,
                     max_mesh_points=max_mesh_points)


# ---------------------------------------------------------------------------
# counting through the affine lift

def _balanced_scaled_lift(affine_polys, aux_scale):
    """A count-preserving representative of the lift.

    Replaces the auxiliary equation by aux_scale y_0 u - sum y_i^2 (the
    sphere count relation holds for any positive scale) and rescales every
    row to unit Weyl norm; both transformations preserve the zero set
    while often improving the condition number substantially.
    """
    lifted = pl.lift_affine(affine_polys)
    polys = list(lifted.polynomials)
    g = polys[-1]
    coeffs = {}
    for e, c in g.coefficients.items():
        coeffs[e] = c * aux_scale if e[0] == 1 else c
    polys[-1] = pl.HomogeneousPolynomial(g.n_vars, g.degree, coeffs)
    balanced = tuple(
        pl.HomogeneousPolynomial(p.n_vars, p.degree,
                                 {e: c / pl.weyl_norm(p)
                                  for e, c in p.coefficients.items()})
        for p in polys)
    return pl.PolynomialSystem(balanced).normalized()


def _probe_zero_conditioning(F, poles, probe):
    """max mu over finite zeros found from a coarse probe grid.

    Newton multistart from the lowest-residual probe points away from the
    poles: this is the quantity that drives when the lifted loop can stop.
    Returns 1.0 when no finite zero is found (any scale is then as good).
    """
    from .condition import mu as mu_point

    f_norms = np.linalg.norm(pl.evaluate_many(F, probe.points), axis=1)
    pole_dist = poles.distances(probe.points)
    away = np.nonzero(pole_dist > 0.25)[0]
    order = away[np.lexsort((away, f_norms[away]))]
    worst = 0.0
    seen = []
    for idx in order[:16]:
        z = refine_zero(F, probe.points[idx])
        if not z.converged or float(poles.distances(z.zeta[None, :])[0]) < 0.1:
            continue
        if any(float(np.linalg.norm(z.zeta - s)) < 1e-6 for s in seen):
            continue
        seen.append(z.zeta)
        worst = max(worst, mu_point(F, z.zeta))
    return worst if seen else 1.0


def count_affine(affine_polys, max_t=10, threads=1, aux_scale=None,
                 max_mesh_points=MESH_POINT_CAP):
    """Count real affine roots through the sphere lift.

    Returns (sphere_result, affine_count) with
    affine_count = sphere_count/2 - 1 when the loop stopped (None
    otherwise).  ``aux_scale`` overrides the automatic conditioning sweep
    of the auxiliary-equation scale.
    """
    if aux_scale is None:
        probe = None
        best = None
        for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
            F = _balanced_scaled_lift(affine_polys, lam)
            poles = _PoleData(poles=tuple(pl.lifted_poles(F.n_vars)))
            if probe is None:
                probe = build_mesh(F.n, 4)
            score = _probe_zero_conditioning(F, poles, probe)
            if best is None or score < best[0]:
                best = (score, lam)
        aux_scale = best[1]
    lifted = _balanced_scaled_lift(affine_polys, aux_scale)
    poles = _PoleData(poles=tuple(pl.lifted_poles(lifted.n_vars)))
    for pole in poles.poles:
        if float(np.linalg.norm(pl.evaluate(lifted, pole))) > 1e-10:
            raise AssertionError("lift invariant violated: pole is not a zero")
    result = _run_loop(lifted, max_t=max_t, threads=threads, poles=poles,
                       max_mesh_points=max_mesh_points)
    affine_count = result.count // 2 - 1 if result.stopped else None
    return result, affine_count
