"""Finite weighted graphs and the nonlocal calculus on them.

A graph is the triple (base measure, edge weights, edge set): vertices are
the atoms of a positive measure with positions ``x_l`` and weights ``mu_l``,
edges are the pairs ``(l, k)`` with ``l != k`` and symmetric weight
``eta(l, k) > 0``.  Fluxes, velocities and nonlocal gradients are
antisymmetric edge fields, so each is stored once per link, the unordered
edge ``{lo, hi}`` with ``lo < hi``: a (links,) array, or (2, links) for a
species pair, whose value is the field on the edge ``(lo, hi)``; its value
on ``(hi, lo)`` is the negative.  Node fields are arrays of one value per
vertex.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import (
    DuplicatePoint,
    NegativeEdgeWeight,
    NonPositiveWeight,
    NonSymmetricWeights,
    SizeMismatch,
)

SYMMETRY_TOL = 1e-12
DENSE_VERTEX_LIMIT = 4096


def pair_distance(xs, ys):
    """|x - y| along the last axis of broadcast point arrays: ``np.linalg.norm(xs - ys,
    axis=-1)`` bit for bit where that is finite, and where only the squares overflow the
    norm of the difference over its largest coordinate, so points 1e200 apart are 1e200 apart."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.subtract(xs, ys)
        dist = np.linalg.norm(diff, axis=-1)
        if np.isinf(dist).any():
            scale = np.max(np.abs(diff), axis=-1)
            scaled = scale * np.linalg.norm(diff / scale[..., None], axis=-1)
            dist = np.where(np.isinf(dist) & np.isfinite(scale), scaled, dist)[()]
    return dist


def _is_real(value):
    """Whether ``value`` is a real number; True and False are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class Exponents:
    """Integrability exponent p with its conjugate derived, never stored.

    ``p`` is a real number in (1, inf), not a boolean, stored as a float;
    ``q`` always satisfies 1/p + 1/q = 1 exactly up to round-off, because it
    is computed from ``p`` on access.
    """

    p: float

    def __post_init__(self):
        if not (_is_real(self.p) and 1.0 < self.p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))

    @property
    def q(self):
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class BaseMeasure:
    """Atomic base measure: vertex positions and strictly positive weights."""

    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.shape[0] != weights.shape[0]:
            raise SizeMismatch(
                f"{points.shape[0]} points vs {weights.shape[0]} weights"
            )
        if not np.all(np.isfinite(points)):
            raise ValueError("vertex positions must be finite")
        valid = (weights > 0) & (weights < np.inf)
        if not np.all(valid):
            bad = int(np.argmin(valid))
            raise NonPositiveWeight(f"weight {weights[bad]} at vertex {bad}")
        dist = pair_distance(points[:, None, :], points[None, :, :])
        np.fill_diagonal(dist, np.inf)
        if np.any(dist < 1e-12):
            l, k = np.unravel_index(int(np.argmin(dist)), dist.shape)
            raise DuplicatePoint(f"vertices {l} and {k} coincide")

    @property
    def n_vertices(self):
        return self.points.shape[0]

    @property
    def dimension(self):
        return self.points.shape[1]

    @property
    def total_mass(self):
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class FiniteGraph:
    """Base measure plus the links with their symmetric weights.

    ``link_lo`` < ``link_hi`` and ``link_eta`` enumerate every unordered
    pair with positive weight in increasing order of (lo, hi), as
    :func:`build_graph` makes them (SizeMismatch otherwise); a dense eta is
    rebuilt from these three arrays.  Everything else is derived, once, at
    construction: the action
    weight ``link_weight = eta mu_lo mu_hi``; the divergence coefficients of
    a link field with value ``a`` on (lo, hi), ``eta mu_hi a`` at ``lo``
    (``link_div_lo``) and ``-eta mu_lo a`` at ``hi`` (``link_div_hi``), and
    ``link_divergence``, the (n, links) CSR matrix of them, each row's
    entries in link order; and ``lo_counts``, the number of links at each
    vertex as their ``lo`` end, which lets :func:`link_ends` repeat values
    instead of gathering them.

    ``component`` labels the connected components in order of their lowest
    vertex, which ``ground`` holds, one per component; the divergence
    conserves the mass of each component.  They are found over the link
    arrays (see :func:`_components`): each round hooks every root to the
    smallest root across its links and pointer-jumps until every tree is a
    star, so each component's root is its lowest vertex.
    """

    base: BaseMeasure
    link_lo: np.ndarray = field(repr=False)
    link_hi: np.ndarray = field(repr=False)
    link_eta: np.ndarray = field(repr=False)
    link_weight: np.ndarray = field(init=False, repr=False, compare=False)
    link_div_lo: np.ndarray = field(init=False, repr=False, compare=False)
    link_div_hi: np.ndarray = field(init=False, repr=False, compare=False)
    link_divergence: sparse.csr_matrix = field(init=False, repr=False, compare=False)
    lo_counts: np.ndarray = field(init=False, repr=False, compare=False)
    component: np.ndarray = field(init=False, repr=False, compare=False)
    ground: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.base.n_vertices
        lo, hi, eta = self.link_lo, self.link_hi, self.link_eta
        if not (lo.ndim == 1 and lo.shape == hi.shape == eta.shape
                and np.all((0 <= lo) & (lo < hi) & (hi < n)) and np.all(np.diff(lo * n + hi) > 0)):
            raise SizeMismatch(f"links must be 0 <= lo < hi < {n} in increasing (lo, hi) order")
        div_lo = eta * self.weights[hi]
        div_hi = -eta * self.weights[lo]
        links = np.arange(lo.size)
        divergence = sparse.csr_matrix(
            (np.concatenate([div_lo, div_hi]),
             (np.concatenate([lo, hi]), np.concatenate([links, links]))),
            shape=(n, links.size))
        divergence.sort_indices()
        component, ground = _components(n, lo, hi)
        derived = {
            "link_weight": eta * (self.weights[lo] * self.weights[hi]),
            "link_div_lo": div_lo,
            "link_div_hi": div_hi,
            "link_divergence": divergence,
            "lo_counts": np.bincount(lo, minlength=n),
            "component": component,
            "ground": ground,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n_vertices(self):
        return self.base.n_vertices

    @property
    def n_links(self):
        return self.link_lo.shape[0]

    @property
    def points(self):
        return self.base.points

    @property
    def weights(self):
        return self.base.weights

    @property
    def link_lengths(self):
        return pair_distance(self.points[self.link_hi], self.points[self.link_lo])

    def check_node_field(self, values):
        """``values`` as a float (..., n) array: node fields along its last axis."""
        return _check_field(values, np.shape(values)[:-1] + (self.n_vertices,), "node")

    def check_link_field(self, values, intervals=False):
        """``values`` as a float (2, links) array, a species pair's link
        field, after a leading axis of any length when ``intervals``."""
        shape = (2, self.n_links)
        return _check_field(values, np.shape(values)[:1] + shape if intervals else shape, "link")


def _components(n, lo, hi):
    """Connected components of the n vertices joined by the links (lo, hi):
    the (n,) labels, numbered in order of each component's lowest vertex,
    and those lowest vertices.  Hooking a root only to a smaller root keeps
    every parent at or below its vertex, so the rounds, which stop when
    every link joins equal roots, leave each component's lowest vertex as
    its root."""
    parent = np.arange(n)
    while True:
        root_lo, root_hi = parent[lo], parent[hi]
        split = root_lo != root_hi
        if not split.any():
            break
        root_lo, root_hi = root_lo[split], root_hi[split]
        np.minimum.at(parent, np.maximum(root_lo, root_hi), np.minimum(root_lo, root_hi))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    ground, component = np.unique(parent, return_inverse=True)
    return component, ground


def _check_field(values, shape, kind):
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise SizeMismatch(f"{kind} field shape {values.shape}, expected {shape}")
    return values


def build_graph(points, weights, eta_spec):
    """Assemble a :class:`FiniteGraph` from raw data.

    Parameters
    ----------
    points, weights : array_like
        Vertex positions (n, d) and strictly positive weights (n,).
    eta_spec : array_like or callable
        Either an explicit (n, n) matrix, validated for symmetry, or a
        callable ``eta(x, y)`` on point arrays which is symmetrized after
        evaluation.  The diagonal is forced to zero either way.

    Eta is evaluated densely on all (n, n) pairs, so graphs above
    ``DENSE_VERTEX_LIMIT`` vertices are refused; the graph keeps only the
    links with positive weight.
    """
    base = BaseMeasure(np.asarray(points, dtype=float), np.asarray(weights, dtype=float))
    n = base.n_vertices
    if n > DENSE_VERTEX_LIMIT:
        raise SizeMismatch(f"{n} vertices exceeds the dense storage limit {DENSE_VERTEX_LIMIT}")

    if callable(eta_spec):
        xs = base.points[:, None, :]
        ys = base.points[None, :, :]
        eta = np.asarray(eta_spec(xs, ys), dtype=float)
        if eta.shape != (n, n):
            raise SizeMismatch(f"eta callable produced shape {eta.shape}")
        eta = 0.5 * (eta + eta.T)
    else:
        eta = np.array(eta_spec, dtype=float)
        if eta.shape != (n, n):
            raise SizeMismatch(f"eta matrix shape {eta.shape}, expected ({n}, {n})")
        with np.errstate(invalid="ignore"):  # inf - inf; the check below rejects inf
            gap = np.max(np.abs(eta - eta.T)) if n else 0.0
        if gap > SYMMETRY_TOL:
            l, k = np.unravel_index(int(np.argmax(np.abs(eta - eta.T))), eta.shape)
            raise NonSymmetricWeights(
                f"eta({l},{k})={eta[l, k]} vs eta({k},{l})={eta[k, l]} (gap {gap:.3e})"
            )
        eta = 0.5 * (eta + eta.T)
    np.fill_diagonal(eta, 0.0)
    valid = (eta >= 0) & (eta < np.inf)
    if not np.all(valid):
        l, k = np.unravel_index(int(np.argmin(valid)), eta.shape)
        raise NegativeEdgeWeight(f"eta({l},{k}) = {eta[l, k]} is not a finite number >= 0")

    # row-major over the upper triangle, so each row's links are in order of hi
    lo, hi = np.nonzero(np.triu(eta, 1) > 0)
    return FiniteGraph(base=base, link_lo=lo.astype(np.int64), link_hi=hi.astype(np.int64),
                       link_eta=eta[lo, hi])


@dataclass(frozen=True)
class AssumptionReport:
    """Finite-scale values of the standing moment/weight assumptions.

    All quantities are finite on a finite graph; the report is informational
    and feeds the run summaries.
    """

    c_mu: float
    c_eta: float
    c_eta_prime: float
    bc_profile: tuple  # ((eps, value), ...) for eps on the distance grid
    n_vertices: int
    n_edges: int


@np.errstate(over="ignore")  # a constant beyond the float range is inf
def check_assumptions(graph, exponents):
    """Evaluate the moment-bound constants and the local blow-up profile.

    ``c_mu`` sums (1 + |x|^p) mu; ``c_eta`` is the vertex-wise maximum of
    sum_k (|x_l - x_k|^q v |x_l - x_k|^{pq}) eta(l,k) mu_k; ``c_eta_prime``
    maximizes the same kernel factor over single edges; the blow-up profile
    maps eps to max_l sum over edges shorter than eps of |x|^q eta mu.
    ``n_edges`` counts ordered edges, two per link.
    """
    p, q = exponents.p, exponents.q
    c_mu = float(np.sum((1.0 + pair_distance(graph.points, 0.0) ** p) * graph.weights))
    if graph.n_links == 0:
        return AssumptionReport(c_mu, 0.0, 0.0, tuple(), graph.n_vertices, 0)

    # each link from hi, then from lo: at every vertex the other ends ascend
    src = np.concatenate([graph.link_hi, graph.link_lo])
    dst = np.concatenate([graph.link_lo, graph.link_hi])
    lengths = np.tile(graph.link_lengths, 2)
    eta = np.tile(graph.link_eta, 2)
    mu_dst = graph.weights[dst]
    kernel = np.maximum(lengths**q, lengths ** (p * q)) * eta
    per_vertex = np.bincount(src, weights=kernel * mu_dst, minlength=graph.n_vertices)
    c_eta = float(np.max(per_vertex))
    c_eta_prime = float(np.max(kernel))

    # The per-vertex sums only grow with eps, so one pass over the edges in
    # order of length gives every profile value: each vertex's running sum
    # in its own length order, then a running maximum over all edges.
    qterm = lengths**q * eta * mu_dst
    by_vertex = np.lexsort((lengths, src))
    src = src[by_vertex]
    slot = np.arange(src.size) - np.searchsorted(src, src)  # rank within the vertex
    table = np.zeros((graph.n_vertices, int(slot.max()) + 1))
    table[src, slot] = qterm[by_vertex]
    running = np.empty_like(qterm)
    running[by_vertex] = np.cumsum(table, axis=1)[src, slot]
    by_length = np.argsort(lengths, kind="stable")
    peak = np.maximum.accumulate(running[by_length])
    eps_grid = np.unique(lengths)
    shorter = np.searchsorted(lengths[by_length], eps_grid, side="left")
    values = np.where(shorter > 0, peak[shorter - 1], 0.0)
    profile = tuple(zip(eps_grid.tolist(), values.tolist()))
    return AssumptionReport(c_mu, c_eta, c_eta_prime, profile, graph.n_vertices, 2 * graph.n_links)


def link_ends(graph, values):
    """The values of a node field at the ``lo`` and at the ``hi`` end of every link.

    Takes node fields (..., n), one node field (n,), a species pair (2, n)
    or one pair per interval (K, 2, n), and returns two new (..., links)
    arrays.  The links are sorted by ``lo``, so the ``lo`` values repeat each
    vertex's value once per link, with no gather.
    """
    values = graph.check_node_field(values)
    at_lo = np.repeat(values, graph.lo_counts, axis=-1)
    return at_lo, np.take(values, graph.link_hi, axis=-1)


def nonlocal_gradient(graph, phi):
    """Link difference phi(hi) - phi(lo): the gradient on the edge (lo, hi).

    Takes node fields (..., n) and returns (..., links); each row equals the
    call on that row alone.
    """
    at_lo, at_hi = link_ends(graph, phi)
    return np.subtract(at_hi, at_lo, out=at_hi)


def nonlocal_divergence(graph, j):
    """Negative adjoint of the nonlocal gradient under the eta-weighted pairing.

    A link field ``j`` is the antisymmetric edge field with value j on
    (lo, hi) and -j on (hi, lo).  The normalization is pinned by the duality
    identity

        sum_l phi(l) div(l) mu_l = -sum_links (phi(hi) - phi(lo)) eta j mu_lo mu_hi

    for every node field phi (half the sum over both orientations), which
    gives div(lo) = eta mu_hi j and div(hi) = -eta mu_lo j per link: the
    product with ``link_divergence``.  Takes link fields (..., links) and
    returns (..., n).  One field or a species pair is multiplied one row at
    a time, and more rows as one product of the stacked rows, which is
    faster for many short rows; each row equals the call on that row alone.
    """
    j = _check_field(j, np.shape(j)[:-1] + (graph.n_links,), "link")
    rows = j.reshape(math.prod(j.shape[:-1]), graph.n_links)  # -1 fails without links
    if 0 < len(rows) <= 2:
        div = np.stack([graph.link_divergence @ row for row in rows])
    else:
        div = (graph.link_divergence @ rows.T).T
    return div.reshape(j.shape[:-1] + (graph.n_vertices,))
