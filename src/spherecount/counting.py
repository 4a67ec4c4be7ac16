"""Certified root counting on the sphere by inclusion and exclusion.

At spacing eta the grid points admitted by the inclusion test become
vertices of a proximity graph (edges join points whose certified caps
intersect); distinct connected components then certify distinct zeros.
The spacing is halved until two conditions hold simultaneously:

    separation:  vertices of distinct components are farther apart than
                 2 eta sqrt(n), and
    exclusion:   every rejected grid point x has |f(x)| above
                 eta sqrt(n max d)/2, so its neighbourhood carries no zero.

The loop counts on projective space.  f is homogeneous, so |f|, mu and
both tests are invariant under x -> -x, the grid is closed under it, and
the zeros come in pairs +-zeta.  Every set of the loop therefore holds
pair rows (``SphereMesh``, one point per antipodal pair), and distances
between pairs are projective: min(d, pi - d) for the angle d between
their pair points.  A stopped component certifies one pair +-zeta,
never a zero that is its own antipode, so on termination the count is
twice the number of components plus the number of zeros known in
advance; refining one vertex per component locates zeta, and -zeta with
it.

A level is one streamed pass: each block of the grid is generated,
evaluated and normed in cache, and only its low rows are kept (the
candidates, possible exclusion failures and the first rows of the kappa
walk), so no array of a level spans the grid.  The kappa walk evaluates a
block again only when its other rows can still raise the maximum.

There is one loop.  The plain count knows no zeros in advance; the
affine front end knows two, the poles (0, ..., 0, +-1) of a lifted
system.  They are degenerate whenever some input degree exceeds one (the
homogenized equations are flat at y = 0), so exclusion can never clear a
pole neighbourhood.  Known zeros enter the loop in three places, each
void when there are none:

  * admissible grid points whose certified ball reaches their nearest
    known zero certify that zero (the certified zero is constant on the
    ball), so they join its component instead of seeding a new one;
  * exclusion failures are clustered at grid scale and each cluster must
    reach a known zero: a low-residual island elsewhere blocks stopping,
    and with no known zeros every failure is such an island;
  * vertices must keep a separation margin from the known zeros' shadows.

This gate is a heuristic, and the lifted count is not certified.  A
zero whose low-residual neighbourhood stays merged with a pole shadow
defers termination until the spacing resolves the gap, but a large
affine root lifts so close to a pole that the gate takes it for part of
the pole: the loop then stops and drops the root (x - 100 stops with no
affine root).  The kappa diagnostic is taken once, on the final grid,
away from the known zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import polynomials as pl
# chart_beta is not called here; the benchmark's tracer wraps counting.chart_beta
from .certification import (RefinedZero, _admissible, _inclusion_radius,
                            chart_beta, refine_zero)
from .condition import (_block_norms, _blocks, _kappa_max, _kappa_walk,
                        _map_rows, _scan, mu_many)
from .convergence import ALPHA, r0
from .mesh import angular_distance_many, build_mesh, pairwise_angular

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
    """Admissible antipodal pairs, their inclusion radii, and the proximity graph.

    Every index is a pair row of the mesh, which stands for both points
    of its pair.  No array spans the grid: the level keeps its low rows,
    those with |f| below ``limit`` (``_keep_limit``), with |f| and the
    pair point at each, and for the kappa walk the least |f| of the other
    rows of each block of the grid (``condition._blocks``).  ``candidates``
    holds, ascending, the low rows that could pass the inclusion test;
    ``mus`` and ``admissible`` are mu (inf if singular) at their pair
    points and the test's outcome there, which decides both points.  The
    vertices are the admissible candidates whose cap reaches no known
    zero.  ``radii`` holds the radius r0(alpha_star) mu |f| of each
    vertex's certified cap (``certification._inclusion_radius``); two
    vertices are linked when their caps, or the cap of one and the mirror
    of the other's, meet.
    ``components`` holds tuples of ascending vertex positions, ordered by
    least member.  ``separation`` is the least projective distance between
    vertices of different components, inf when there is at most one
    component.
    """

    eta: float
    vertex_indices: np.ndarray   # ascending pair rows of the vertices
    radii: np.ndarray            # inclusion radius per vertex
    components: tuple            # tuple of tuples of vertex positions
    separation: float            # least projective distance across components, or inf
    limit: float                 # residual norm below which a row is a low row
    low_rows: np.ndarray         # ascending pair rows with a residual norm below limit
    low_norms: np.ndarray        # residual norm per low row
    low_points: np.ndarray       # pair point per low row
    candidates: np.ndarray       # ascending pair rows that may pass inclusion
    mus: np.ndarray              # mu per candidate, inf if singular
    admissible: np.ndarray       # inclusion-test outcome per candidate
    least: np.ndarray            # per block, least residual norm at or above limit

    def at(self, rows):
        """(points, residual norms) at ``rows``, which must be low rows."""
        pos = np.searchsorted(self.low_rows, rows)
        return self.low_points[pos], self.low_norms[pos]


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


# Besides its candidates and possible exclusion failures, a level keeps
# the rows whose bound 1/|f| on kappa beats ``seed``, the kappa maximum at
# the candidates of the coarser levels (whose grids lie in this one), but
# at most those below _KEEP_FACTOR candidate ceilings: about 4% of a
# Gaussian (2,2) grid.  The kappa walk visits them first, and evaluates a
# block again only when its other rows can still raise the maximum.  It
# decides what is computed twice, never an answer.
_KEEP_FACTOR = 2.0


def _keep_limit(F, eta, seed):
    """|f| below which a level keeps a row (see _KEEP_FACTOR)."""
    ceiling = _candidate_ceiling(F)
    # f < nextafter(threshold) keeps f <= threshold; with no seed, 1/seed is -0.0
    return max(ceiling, min(_KEEP_FACTOR * ceiling, 1.0 / seed),
               math.nextafter(exclusion_threshold(F, eta), math.inf))


def _clusters(points, reach):
    """Link the antipodal pairs of the points within ``reach`` of each other.

    Each row x stands for the pair +-x, so two rows are as far apart as
    the nearer of the other row and its mirror: the projective distance
    min(d, pi - d) for the angle d between them.  ``reach`` is a scalar
    or a matrix over the pairs.  Returns (components, separation): the
    connected components as tuples of ascending positions ordered by
    least member, and the least projective distance between points of
    different components (inf when there is at most one).
    """
    # imported here so that importing the package does not load csgraph
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    dist = pairwise_angular(points)
    np.minimum(dist, math.pi - dist, out=dist)
    i, j = np.nonzero(np.triu(dist <= reach, 1))
    m = len(points)
    _, labels = connected_components(
        coo_matrix((np.ones(i.size), (i, j)), shape=(m, m)), directed=False)
    groups = {}
    for v, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(v)
    separation = np.min(dist, initial=math.inf,
                        where=labels[:, None] != labels[None, :])
    return tuple(tuple(g) for g in groups.values()), float(separation)


def _pole_distance(points, poles):
    """Angular distance from each row to the nearest pole (inf if none).

    The poles are an antipodal pair, so a row and its mirror are equally
    far from them.
    """
    d = np.full(points.shape[0], math.inf)
    for pole in poles:
        d = np.minimum(d, angular_distance_many(points, pole))
    return d


# The heuristic gate for zeros known in advance (the lifted poles):
# a cap that reaches within this angle of a pole certifies the pole
_CERTIFIER_SLACK = 1e-15
# exclusion failures within this many eta sqrt(n) of each other belong to
# one cluster, and a cluster this close to a pole belongs to the pole
_LINK_FACTOR = 2.5
# farthest angle from its pole that a failure cluster may reach
_FAILURE_SHADOW_MAX = 0.6
# farthest angle from its pole that a failure or a certifier may reach
_SHADOW_MAX = 0.75
# the kappa diagnostic leaves out the points within this angle of a pole
_KAPPA_POLE_GAP = 0.2
# Largest exclusion-failure set, in antipodal pairs, that the gate clusters;
# a level with more failures does not stop.  The cap bounds the dense
# pair matrix of the clustering at 2000^2 doubles (32 MB).
_LIFTED_FAILURE_CAP = 2000


def _level(F, mesh, poles=(), seed=-math.inf):
    """Certify a grid against the normalized F and link nearby caps.

    One streamed pass keeps the low rows; mu and the inclusion test are
    taken at the candidates only, with the values of an exhaustive pass
    (mu of a row does not depend on its batch).  An admissible point whose
    cap reaches a pole certifies that pole.
    """
    limit = _keep_limit(F, mesh.eta, seed)
    rows, norms, points, least = _scan(F, mesh, limit)
    cand = norms < _candidate_ceiling(F)
    candidates = rows[cand]
    mus = _map_rows(lambda X: mu_many(F, X, f_norm=1.0), points[cand])
    admissible = _admissible(norms[cand], mus, F.max_degree)
    vertices = candidates[admissible]
    at = np.searchsorted(rows, vertices)
    radii = _inclusion_radius(norms[at], mus[admissible])
    at_pole = _pole_distance(points[at], poles) <= radii + _CERTIFIER_SLACK
    vertices, radii = vertices[~at_pole], radii[~at_pole]
    components, separation = _clusters(
        points[at[~at_pole]], radii[:, None] + radii[None, :])
    return CertGraph(
        eta=mesh.eta,
        vertex_indices=vertices,
        radii=radii,
        components=components,
        separation=separation,
        limit=limit,
        low_rows=rows,
        low_norms=norms,
        low_points=points,
        candidates=candidates,
        mus=mus,
        admissible=admissible,
        least=least,
    )


def build_graph(F, mesh):
    """Certify the grid against the normalized system and link nearby caps."""
    return _level(F.normalized(), mesh)


def exclusion_threshold(F, eta):
    return eta * math.sqrt(F.n * F.max_degree) / 2.0


def _exclusion_failures(F, mesh, graph):
    """Pair rows passing neither test: not admissible, |f| <= threshold."""
    low = graph.low_rows[graph.low_norms <= exclusion_threshold(F, mesh.eta)]
    return np.setdiff1d(low, graph.candidates[graph.admissible], assume_unique=True)


def check_stop(F, mesh, graph, poles=()):
    """The two termination predicates of the counting loop.

    ``separation_ok``: vertices of distinct components are projectively
    farther apart than 2 eta sqrt(n).  ``exclusion_ok``: the pairs failing
    both tests are explained by the zeros known in advance (``poles``, as
    given to the graph), so with none there is no such point.  With poles
    the failures cluster around them, failures and certifiers stay within
    the shadow extents, and the vertices keep 2 eta sqrt(n) beyond them.
    """
    eta, n = mesh.eta, mesh.n
    stop = {"separation_ok": graph.separation > 2.0 * eta * math.sqrt(n),
            "exclusion_ok": False}
    link = _LINK_FACTOR * eta * math.sqrt(n)
    failing = _exclusion_failures(F, mesh, graph)
    shadow_extent = 0.0
    if failing.size:
        fail_points = graph.at(failing)[0]
        fail_pole_dist = _pole_distance(fail_points, poles)
        # with no pole in reach, no cluster can reach one
        if float(fail_pole_dist.min()) > link or failing.size > _LIFTED_FAILURE_CAP:
            return stop
        for comp in _clusters(fail_points, link)[0]:
            comp_dist = fail_pole_dist[list(comp)]
            if float(comp_dist.min()) > link:
                return stop  # low-residual island away from the poles
            shadow_extent = max(shadow_extent, float(comp_dist.max()))
    if shadow_extent > _FAILURE_SHADOW_MAX:
        return stop
    # the pole certifiers define how far the pole components reach
    certifiers = np.setdiff1d(graph.candidates[graph.admissible],
                              graph.vertex_indices)
    if certifiers.size:
        shadow_extent = max(shadow_extent, float(
            _pole_distance(graph.at(certifiers)[0], poles).max()))
    if shadow_extent > _SHADOW_MAX:
        return stop
    margin = shadow_extent + 2.0 * eta * math.sqrt(n)
    vertex_dist = _pole_distance(graph.at(graph.vertex_indices)[0], poles)
    stop["exclusion_ok"] = float(vertex_dist.min(initial=math.inf)) > margin
    return stop


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


def _component_representatives(graph):
    """One vertex per component: smallest residual, ties by vertex order."""
    f_norms = graph.at(graph.vertex_indices)[1]
    return [comp[int(np.argmin(f_norms[list(comp)]))] for comp in graph.components]


def _candidate_kappa(F, graph, poles=()):
    """Largest kappa over the candidates farther than _KAPPA_POLE_GAP from the poles."""
    points, f_norms = graph.at(graph.candidates)
    away = _pole_distance(points, poles) > _KAPPA_POLE_GAP
    return _kappa_max(f_norms[away], graph.mus[away])


def _kappa_estimate(F, mesh, graph, poles=()):
    """The kappa maximum over the pair rows of the level, away from the poles.

    The candidates' kappa seeds the walk (``_kappa_walk``).  Its first
    block is the other low rows, the rest are the level's blocks, each
    evaluated again only if its rows that are not low rows can still raise
    the maximum.  Returns (kappa, rows evaluated again).
    """
    blocks = _blocks(mesh)
    revisited = 0

    def block(i):
        nonlocal revisited
        if i == 0:
            X, f = graph.low_points, graph.low_norms
            keep = f >= _candidate_ceiling(F)
        else:
            X, f = _block_norms(F, mesh, blocks[i - 1])
            revisited += f.size
            keep = f >= graph.limit
        keep &= _pole_distance(X, poles) > _KAPPA_POLE_GAP
        return X[keep], f[keep]

    least = np.concatenate([[0.0], graph.least])
    best = _kappa_walk(F, least, block, _candidate_kappa(F, graph, poles))
    return best, revisited


def _run_loop(F, max_t, poles=()):
    Fn = F.normalized()
    n = Fn.n
    _, t0 = initial_eta(n)
    if max_t <= t0:
        raise ValueError(f"max_t = {max_t} allows no refinement (initial t = {t0})")
    evaluations, seed = 0, -math.inf
    for t in range(t0 + 1, max_t + 1):
        mesh = build_mesh(n, t)
        graph = _level(Fn, mesh, poles=poles, seed=seed)
        seed = max(seed, _candidate_kappa(Fn, graph, poles))
        # 1 per pair row and 2 per vertex; a vertex pair holds two vertices
        evaluations += mesh.count // 2 + 4 * len(graph.vertex_indices)
        stop = check_stop(Fn, mesh, graph, poles)
        stopped = stop["separation_ok"] and stop["exclusion_ok"]
        if stopped:
            break
    zeros = []
    if stopped:
        reps = graph.vertex_indices[_component_representatives(graph)]
        for x in graph.at(reps)[0]:
            z = refine_zero(Fn, x)
            # the Newton cost is counted once for each reported zero; 0.0 - z
            # keeps zero coordinates 0.0
            evaluations += 4 * max(z.newton_steps, 1)
            zeros += [z, replace(z, zeta=0.0 - z.zeta)]
    for pole in poles:
        zeros.append(RefinedZero(zeta=np.asarray(pole, float), newton_steps=0,
                                 final_beta=0.0, converged=True))
    kappa_est, revisited = _kappa_estimate(Fn, mesh, graph, poles)
    evaluations += revisited
    threshold = (predicted_eta_threshold(Fn, kappa_est)
                 if math.isfinite(kappa_est) and kappa_est >= 1.0 else None)
    return CountResult(
        count=2 * len(graph.components) + len(poles),
        zeros=tuple(zeros),
        final_eta=mesh.eta,
        iterations=t - t0,
        evaluations=evaluations,
        stopped=stopped,
        predicted_eta_threshold=threshold,
        kappa_grid_estimate=kappa_est,
    )


def root_count(F, max_t=10, threads=1):
    """Count (and locate) the zeros of a nondegenerate system on S^n.

    Halves the spacing until both stop conditions hold or t exceeds
    ``max_t``; budget exhaustion is reported through ``stopped=False``
    rather than raised.  Grid-size overflow does raise (MeshSizeError).
    ``threads`` is unused: the loop runs on one thread.
    """
    return _run_loop(F, max_t=max_t)


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
    balanced = []
    for p in polys:
        nrm = pl.weyl_norm(p)
        balanced.append(pl.HomogeneousPolynomial(
            p.n_vars, p.degree, {e: c / nrm for e, c in p.coefficients.items()}))
    return pl.PolynomialSystem(tuple(balanced)).normalized()


def _probe_zero_conditioning(F, poles, probe):
    """max mu over finite zeros found from a coarse probe grid.

    Newton multistart from the 8 lowest-residual antipodal pairs of the
    probe grid away from the poles: this is the quantity that drives when
    the lifted loop can stop.
    Returns 1.0 when no finite zero is found (any scale is then as good).
    """
    from .condition import mu as mu_point

    _, f_norms, points, _ = _scan(F, probe, math.inf)
    away = np.nonzero(_pole_distance(points, poles) > 0.25)[0]
    order = away[np.lexsort((away, f_norms[away]))]
    worst = 0.0
    seen = []
    for idx in order[:8]:
        z = refine_zero(F, points[idx])
        if not z.converged or float(_pole_distance(z.zeta[None, :], poles)[0]) < 0.1:
            continue
        if any(float(np.linalg.norm(z.zeta - s)) < 1e-6 for s in seen):
            continue
        seen.append(z.zeta)
        worst = max(worst, mu_point(F, z.zeta))
    return worst if seen else 1.0


def _conditioned_lift(affine_polys):
    """The balanced lift whose auxiliary scale best conditions the zeros.

    Tries the scales 1, 2, 4, 8 and 16 and keeps the first whose probed
    finite zeros have the least worst mu (``_probe_zero_conditioning``).
    """
    lifts = [_balanced_scaled_lift(affine_polys, lam)
             for lam in (1.0, 2.0, 4.0, 8.0, 16.0)]
    probe = build_mesh(lifts[0].n, 4)
    poles = pl.lifted_poles(lifts[0].n_vars)
    return min(lifts, key=lambda F: _probe_zero_conditioning(F, poles, probe))


def count_affine(affine_polys, max_t=10, threads=1):
    """Count real affine roots through the sphere lift.

    Returns (sphere_result, affine_count) with
    affine_count = sphere_count/2 - 1 when the loop stopped (None
    otherwise).  The loop runs on ``_conditioned_lift`` with the two poles
    as known zeros.  The count is not certified: a root whose lifted zero
    lies inside a pole's shadow is taken for part of the pole and dropped
    from a stopped count (x - 100 gives 0, x^2 - 19x - 20 gives 1).
    ``threads`` is unused: the loop runs on one thread.
    """
    lifted = _conditioned_lift(affine_polys)
    poles = pl.lifted_poles(lifted.n_vars)
    for pole in poles:
        if float(np.linalg.norm(pl.evaluate(lifted, pole))) > 1e-10:
            raise AssertionError("lift invariant violated: pole is not a zero")
    result = _run_loop(lifted, max_t=max_t, poles=poles)
    affine_count = result.count // 2 - 1 if result.stopped else None
    return result, affine_count
