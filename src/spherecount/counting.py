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
twice the number of components; refining one vertex per component
locates zeta, and -zeta with it.

A level is one streamed pass: chunks of the grid are normed in cache by
Horner's rule on the integer lattice (``condition._horner``), and only
their low rows are kept (the candidates and the possible exclusion
failures), so no array of a level spans the grid.  The same pass takes
the level's kappa maximum; it builds pair points and takes mu, once per
row, only at the candidates and at the rows where a cap on kappa can
still raise that maximum.
Each grid lies in the next, with the same |f| and pair point at each of
its rows, so a level's maximum seeds the next level's, and the final
level's is the kappa diagnostic.  That seed sets a cut on |f| above which
a row changes no output, so every level after the first whose runs are
long enough norms its tile centres first, one per tile of a few positions
of a few adjacent runs, and then only the tiles that their centres
cannot show to lie above it (``condition._walk``): about one pair row in
45, centres included, on the t=9 level of a Gaussian (2,2) system.  On a
deep enough level, a tile whose rows might need mu by the floor mu >=
sqrt(n) takes mu at its centre before any of them is normed, which bounds
mu over the tile, and with it the tile's candidate ceiling and kappa cap,
so that t=9 level takes mu at about one pair row in eight hundred.

There is one loop.  The affine front end runs it on the homogenized
system, whose finite roots are its zeros off the great sphere x_0 = 0,
and stops only once every component is also certified finite: one of its
vertices has a cap that misses x_0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import polynomials as pl
# chart_beta is not called here; the benchmark's tracer wraps counting.chart_beta
from .certification import (RefinedZero, _admissible, _inclusion_radius,
                            chart_beta, refine_zero)
from .condition import _scan, mu_many
from .convergence import ALPHA, r0
from .mesh import build_mesh, pairwise_angular

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
    the candidates and the possible exclusion failures, with |f| at each.
    ``candidates`` holds, ascending, the low rows under their tile's
    ceiling C_SLACK alpha*/(D^1.5 mu_lo^2), mu_lo a lower bound on mu over
    the tile (sqrt(n) where the level has no tiles or the tile no bound),
    so they hold every row that passes the inclusion test; ``points``,
    ``mus`` and ``admissible`` are their pair points, mu (inf if
    singular) there and the test's outcome there, which decides both
    points.  The vertices are the admissible
    candidates.  ``radii`` holds the radius r0(alpha_star) mu |f| of each
    vertex's certified cap (``certification._inclusion_radius``); two
    vertices are linked when their caps, or the cap of one and the mirror
    of the other's, meet.
    ``components`` holds tuples of ascending vertex positions, ordered by
    least member.  ``separation`` is the least projective distance between
    vertices of different components, inf when there is at most one
    component.  ``kappa`` is the kappa maximum over the pair rows of the
    grid and the seed the level was given.
    """

    eta: float
    vertex_indices: np.ndarray   # ascending pair rows of the vertices
    radii: np.ndarray            # inclusion radius per vertex
    components: tuple            # tuple of tuples of vertex positions
    separation: float            # least projective distance across components, or inf
    low_rows: np.ndarray         # ascending candidates and possible exclusion failures
    low_norms: np.ndarray        # residual norm per low row
    candidates: np.ndarray       # ascending pair rows under their tile's ceiling
    points: np.ndarray           # pair point per candidate
    mus: np.ndarray              # mu per candidate, inf if singular
    admissible: np.ndarray       # inclusion-test outcome per candidate
    kappa: float                 # kappa maximum over the grid and the seed

    def at(self, rows):
        """(points, residual norms) at ``rows``, which must be candidates."""
        return (self.points[np.searchsorted(self.candidates, rows)],
                self.low_norms[np.searchsorted(self.low_rows, rows)])


# For a unit-norm system mu >= sqrt(n) at every point (the degree-scaled
# restricted Jacobian has Frobenius norm at most 1, so its least singular
# value is at most 1/sqrt(n)).  The inclusion test D^1.5 mu^2 |f| < alpha*
# can therefore pass only where |f| < alpha*/(n D^1.5).  C_SLACK widens
# that ceiling so rounding in the computed mu and in the test's product
# can never drop a point that would pass: 2 is far above their relative
# error, which is of order 1e-15.  It decides where mu is computed, never
# an answer.  A screened level lowers the ceiling over a tile whose lower
# bound mu_lo on mu exceeds sqrt(n) to C_SLACK alpha*/(mu_lo^2 D^1.5)
# (``condition._tile_bounds``), whose own rounding C_SLACK absorbs too.
C_SLACK = 2.0


def _candidate_ceiling(F):
    """Residual below which a point may pass the inclusion test, from the
    floor mu >= sqrt(n)."""
    return C_SLACK * ALPHA.alpha_star / (F.n * F.max_degree**1.5)


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
    dist = pairwise_angular(points)
    np.minimum(dist, math.pi - dist, out=dist)
    i, j = np.nonzero(np.triu(dist <= reach, 1))
    labels = _component_labels(len(points), i, j)
    # each component's positions, ascending, ordered by its least member
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    components = tuple(tuple(g.tolist()) for g in np.split(order, starts)[1:])
    separation = np.min(dist, initial=math.inf,
                        where=labels[:, None] != labels[None, :])
    return components, float(separation)


def _component_labels(m, i, j):
    """The least member of each vertex's connected component, by label
    propagation over the edges (i, j): each round a vertex takes the least
    label of itself and its neighbours, then follows labels to their own
    until none moves (pointer jumping).  A label is always a vertex of the
    same component and never grows, so the rounds end with each component
    labelled by its least member."""
    labels = np.arange(m)
    while True:
        new = labels.copy()
        np.minimum.at(new, i, labels[j])
        np.minimum.at(new, j, labels[i])
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, labels):
            return labels
        labels = new


def _level(F, mesh, seed=-math.inf):
    """Certify a grid against the normalized F and link nearby caps.

    One streamed pass keeps the low rows, takes mu and the inclusion test
    at the candidates among them, with the values of an exhaustive pass
    (mu of a row does not depend on its batch), and takes the kappa
    maximum over ``seed`` and every row.  A level given a seed is screened
    by tiles, by the kappa cut that seed sets and by each tile's bounds on
    mu (``condition._scan``).
    """
    # the low rows are the candidates and the possible exclusion failures;
    # f < nextafter(threshold) keeps f <= threshold
    below = math.nextafter(exclusion_threshold(F, mesh.eta), math.inf)
    # mu_many is looked up here, so a tracer of counting.mu_many counts every
    # mu row of the level, tile centres included
    rows, norms, cand, points, mus, kappa = _scan(F, mesh, below, _candidate_ceiling(F),
                                                  seed, mu_many)
    candidates, f_norms = rows[cand], norms[cand]
    admissible = _admissible(f_norms, mus, F.max_degree)
    radii = _inclusion_radius(f_norms[admissible], mus[admissible])
    components, separation = _clusters(points[admissible], radii[:, None] + radii[None, :])
    return CertGraph(
        eta=mesh.eta,
        vertex_indices=candidates[admissible],
        radii=radii,
        components=components,
        separation=separation,
        low_rows=rows,
        low_norms=norms,
        candidates=candidates,
        points=points,
        mus=mus,
        admissible=admissible,
        kappa=kappa,
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


def check_stop(F, mesh, graph):
    """The two termination predicates of the counting loop.

    ``separation_ok``: vertices of distinct components are projectively
    farther apart than 2 eta sqrt(n).  ``exclusion_ok``: no pair fails
    both tests.
    """
    return {"separation_ok": graph.separation > 2.0 * mesh.eta * math.sqrt(mesh.n),
            "exclusion_ok": _exclusion_failures(F, mesh, graph).size == 0}


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


# A vertex's cap B(x, r_x) holds its component's zero, and the pair point
# x lies arcsin|x_0| from the great sphere x_0 = 0, where the zeros at
# infinity of a homogenized system lie.  _FINITE_MARGIN (radians) absorbs
# the rounding of arcsin, of r_x and of the pair point, each of relative
# order 1e-15, so a cap that only touches x_0 = 0 never certifies a zero
# finite.  It can delay that certificate by a level, never change a count.
_FINITE_MARGIN = 1e-12


def _components_finite(graph):
    """Whether each component has a vertex whose cap misses x_0 = 0."""
    x0 = graph.at(graph.vertex_indices)[0][:, 0]
    clear = np.arcsin(np.abs(x0)) > graph.radii + _FINITE_MARGIN
    return all(clear[list(comp)].any() for comp in graph.components)


def _run_loop(F, max_t, finite=False):
    """The counting loop; with ``finite`` it stops only on finite components."""
    Fn = F.normalized()
    n = Fn.n
    _, t0 = initial_eta(n)
    if max_t <= t0:
        raise ValueError(f"max_t = {max_t} allows no refinement (initial t = {t0})")
    evaluations, kappa = 0, -math.inf
    for t in range(t0 + 1, max_t + 1):
        mesh = build_mesh(n, t)
        # each grid lies in the next, so a level's kappa maximum seeds the next
        graph = _level(Fn, mesh, seed=kappa)
        kappa = graph.kappa
        # 1 per pair row and 2 per vertex; a vertex pair holds two vertices
        evaluations += mesh.count // 2 + 4 * len(graph.vertex_indices)
        stop = check_stop(Fn, mesh, graph)
        stopped = (stop["separation_ok"] and stop["exclusion_ok"]
                   and (not finite or _components_finite(graph)))
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
    threshold = (predicted_eta_threshold(Fn, kappa)
                 if math.isfinite(kappa) and kappa >= 1.0 else None)
    return CountResult(
        count=2 * len(graph.components),
        zeros=tuple(zeros),
        final_eta=mesh.eta,
        iterations=t - t0,
        evaluations=evaluations,
        stopped=stopped,
        predicted_eta_threshold=threshold,
        kappa_grid_estimate=kappa,
    )


def root_count(F, max_t=10, threads=1):
    """Count (and locate) the zeros of a nondegenerate system on S^n.

    Halves the spacing until both stop conditions hold or t exceeds
    ``max_t``; budget exhaustion is reported through ``stopped=False``
    rather than raised.  Grid-size overflow does raise (MeshSizeError).
    ``threads`` is unused: the loop runs on one thread.
    """
    return _run_loop(F, max_t=max_t)


def count_affine(affine_polys, max_t=10, threads=1):
    """Count the real roots of n affine equations in n unknowns.

    The loop runs on the homogenized system on S^n, whose finite roots are
    its zeros off x_0 = 0 (Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, ch. 8), and stops only when every component is certified
    finite as well (``_components_finite``).  A real zero at infinity never
    is, so the loop then halves to ``max_t`` and reports ``stopped=False``.

    Returns (result, affine_count), affine_count the number of components
    when the loop stopped (None otherwise).  ``result`` speaks in terms of
    the lift (``pl.lift_affine``): its count is 2 components + 2, and its
    zeros are the lift's image normalize(y_0, y, |y|^2/y_0) of each refined
    zero +-(y_0, y), followed by the two poles (``pl.lifted_poles``).
    ``threads`` is unused: the loop runs on one thread.  A nonzero
    constant equation raises ValueError, naming it and its constant.
    """
    for i, p in enumerate(affine_polys, 1):
        if p.degree == 0:
            constant = p.coefficients[(0,) * p.n_vars]
            raise ValueError(f"equation {i} is the nonzero constant {constant!r}, "
                             "which has no root; every equation needs degree >= 1")
    F = pl.PolynomialSystem(tuple(pl.homogenize(p) for p in affine_polys))
    result = _run_loop(F, max_t=max_t, finite=True)
    zeros = []
    for z in result.zeros[::2]:
        y = z.zeta
        # + 0.0 turns -0.0 into 0.0, so 0.0 - lifted is its exact antipode
        lifted = pl.normalize(np.append(y, y[1:] @ y[1:] / y[0])) + 0.0
        zeros += [replace(z, zeta=lifted), replace(z, zeta=0.0 - lifted)]
    zeros += [RefinedZero(zeta=pole, newton_steps=0, final_beta=0.0, converged=True)
              for pole in pl.lifted_poles(F.n_vars + 1)]
    affine_count = result.count // 2 if result.stopped else None
    return replace(result, count=result.count + 2, zeros=tuple(zeros)), affine_count
