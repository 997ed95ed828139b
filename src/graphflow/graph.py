"""Finite weighted graphs and the nonlocal calculus on them.

A graph is the triple (base measure, edge weights, edge set): vertices are
the atoms of a positive measure with positions ``x_l`` and weights ``mu_l``,
edges are the ordered pairs ``(l, k)`` with ``l != k`` and symmetric weight
``eta(l, k) > 0``.  Both orientations of every edge are materialized; edge
fields (fluxes, velocities, nonlocal gradients) are flat arrays aligned with
the edge list, node fields are arrays of one value per vertex.  Each edge and
its reverse also form one link, the unordered edge ``{lo, hi}`` with
``lo < hi``: an antisymmetric edge field is one value per link.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import (
    DuplicatePoint,
    NegativeEdgeWeight,
    NonPositiveWeight,
    NonSymmetricWeights,
    SizeMismatch,
)

SYMMETRY_TOL = 1e-12
DENSE_VERTEX_LIMIT = 4096


@dataclass(frozen=True)
class Exponents:
    """Integrability exponent p with its conjugate derived, never stored.

    ``q`` always satisfies 1/p + 1/q = 1 exactly up to round-off, because it
    is computed from ``p`` on access.
    """

    p: float

    def __post_init__(self):
        if not (1.0 < self.p * 1.0 < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")

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
        if np.any(weights <= 0):
            bad = int(np.argmin(weights))
            raise NonPositiveWeight(f"weight {weights[bad]} at vertex {bad}")
        diff = points[:, None, :] - points[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
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

    def moment_constant(self, p):
        """Sum of (1 + |x|^p) mu over vertices (individual moment bound)."""
        norms = np.linalg.norm(self.points, axis=1)
        return float(np.sum((1.0 + norms**p) * self.weights))


@dataclass(frozen=True)
class FiniteGraph:
    """Base measure plus the edge list with its symmetric weights.

    ``edge_src``, ``edge_dst`` and ``edge_eta`` enumerate every ordered pair
    with positive weight; a dense eta is rebuilt from these three arrays.
    The action weight ``action_weight = eta * mu_src * mu_dst`` is gathered
    once, at construction.

    The links are numbered in edge order of their ``(lo, hi)`` orientation:
    ``link_lo`` < ``link_hi`` are their vertices, ``link_edge`` and
    ``link_reverse`` the indices of the edges ``(lo, hi)`` and ``(hi, lo)``.
    An antisymmetric flux with value ``a`` on ``(lo, hi)`` has divergence
    ``eta mu_hi a`` at ``lo`` and ``-eta mu_lo a`` at ``hi``; ``link_div_lo``
    and ``link_div_hi`` hold these coefficients, and ``link_divergence`` is
    the (n, links) CSR matrix of them, each row's entries in link order.

    ``component`` labels the connected components in order of their lowest
    vertex, which ``ground`` holds, one per component; the divergence
    conserves the mass of each component.
    """

    base: BaseMeasure
    edge_src: np.ndarray = field(repr=False)
    edge_dst: np.ndarray = field(repr=False)
    edge_eta: np.ndarray = field(repr=False)
    action_weight: np.ndarray = field(init=False, repr=False, compare=False)
    link_lo: np.ndarray = field(init=False, repr=False, compare=False)
    link_hi: np.ndarray = field(init=False, repr=False, compare=False)
    link_edge: np.ndarray = field(init=False, repr=False, compare=False)
    link_reverse: np.ndarray = field(init=False, repr=False, compare=False)
    link_div_lo: np.ndarray = field(init=False, repr=False, compare=False)
    link_div_hi: np.ndarray = field(init=False, repr=False, compare=False)
    link_divergence: sparse.csr_matrix = field(init=False, repr=False, compare=False)
    # position of each edge in the link values followed by their negatives,
    # so writing link values to the edges is one gather
    _edge_slot: np.ndarray = field(init=False, repr=False, compare=False)
    component: np.ndarray = field(init=False, repr=False, compare=False)
    ground: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.base.n_vertices
        link_edge = np.flatnonzero(self.edge_src < self.edge_dst)
        link_lo, link_hi = self.edge_src[link_edge], self.edge_dst[link_edge]
        # eta is symmetric, so the reversed pair of every edge is itself an edge
        keys = self.edge_src * n + self.edge_dst
        order = np.argsort(keys)
        link_reverse = order[np.searchsorted(keys, link_hi * n + link_lo, sorter=order)]
        div_lo = self.edge_eta[link_edge] * self.weights[link_hi]
        div_hi = -self.edge_eta[link_edge] * self.weights[link_lo]
        links = np.arange(link_edge.size)
        divergence = sparse.csr_matrix(
            (np.concatenate([div_lo, div_hi]),
             (np.concatenate([link_lo, link_hi]), np.concatenate([links, links]))),
            shape=(n, links.size))
        divergence.sort_indices()
        edge_slot = np.empty(self.n_edges, dtype=np.int64)
        edge_slot[np.concatenate([link_edge, link_reverse])] = np.arange(2 * links.size)
        adjacency = sparse.csr_matrix((np.ones(links.size), (link_lo, link_hi)), shape=(n, n))
        _, component = connected_components(adjacency, directed=False)
        pair_weight = self.weights[self.edge_src] * self.weights[self.edge_dst]
        cached = {
            "action_weight": self.edge_eta * pair_weight,
            "link_lo": link_lo,
            "link_hi": link_hi,
            "link_edge": link_edge,
            "link_reverse": link_reverse,
            "link_div_lo": div_lo,
            "link_div_hi": div_hi,
            "link_divergence": divergence,
            "_edge_slot": edge_slot,
            "component": component,
            "ground": np.unique(component, return_index=True)[1],
        }
        for name, value in cached.items():
            object.__setattr__(self, name, value)

    @property
    def n_vertices(self):
        return self.base.n_vertices

    @property
    def n_edges(self):
        return self.edge_src.shape[0]

    @property
    def points(self):
        return self.base.points

    @property
    def weights(self):
        return self.base.weights

    @property
    def edge_lengths(self):
        delta = self.points[self.edge_dst] - self.points[self.edge_src]
        return np.linalg.norm(delta, axis=1)

    def check_node_field(self, values, pair=False):
        """``values`` as a float (n,) array, or (2, n) for a species ``pair``."""
        return _check_field(values, (2, self.n_vertices) if pair else (self.n_vertices,), "node")

    def check_edge_field(self, values, pair=False):
        """``values`` as a float (e,) array, or (2, e) for a species ``pair``."""
        return _check_field(values, (2, self.n_edges) if pair else (self.n_edges,), "edge")


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
    edges with positive weight.
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
        gap = np.max(np.abs(eta - eta.T)) if n else 0.0
        if gap > SYMMETRY_TOL:
            l, k = np.unravel_index(int(np.argmax(np.abs(eta - eta.T))), eta.shape)
            raise NonSymmetricWeights(
                f"eta({l},{k})={eta[l, k]} vs eta({k},{l})={eta[k, l]} (gap {gap:.3e})"
            )
        eta = 0.5 * (eta + eta.T)
    np.fill_diagonal(eta, 0.0)
    if np.any(eta < 0):
        l, k = np.unravel_index(int(np.argmin(eta)), eta.shape)
        raise NegativeEdgeWeight(f"eta({l},{k}) = {eta[l, k]} < 0")

    src, dst = np.nonzero(eta > 0)
    return FiniteGraph(
        base=base,
        edge_src=src.astype(np.int64),
        edge_dst=dst.astype(np.int64),
        edge_eta=eta[src, dst],
    )


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


def check_assumptions(graph, exponents):
    """Evaluate the moment-bound constants and the local blow-up profile.

    ``c_mu`` sums (1 + |x|^p) mu; ``c_eta`` is the vertex-wise maximum of
    sum_k (|x_l - x_k|^q v |x_l - x_k|^{pq}) eta(l,k) mu_k; ``c_eta_prime``
    maximizes the same kernel factor over single edges; the blow-up profile
    maps eps to max_l sum over edges shorter than eps of |x|^q eta mu.
    """
    p, q = exponents.p, exponents.q
    c_mu = graph.base.moment_constant(p)
    lengths = graph.edge_lengths
    if graph.n_edges == 0:
        return AssumptionReport(c_mu, 0.0, 0.0, tuple(), graph.n_vertices, 0)

    mu_dst = graph.weights[graph.edge_dst]
    kernel = np.maximum(lengths**q, lengths ** (p * q)) * graph.edge_eta
    per_vertex = np.bincount(graph.edge_src, weights=kernel * mu_dst, minlength=graph.n_vertices)
    c_eta = float(np.max(per_vertex))
    c_eta_prime = float(np.max(kernel))

    # The per-vertex sums only grow with eps, so one pass over the edges in
    # order of length gives every profile value: each vertex's running sum
    # in its own length order, then a running maximum over all edges.
    qterm = lengths**q * graph.edge_eta * mu_dst
    by_vertex = np.lexsort((lengths, graph.edge_src))
    src = graph.edge_src[by_vertex]
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
    return AssumptionReport(c_mu, c_eta, c_eta_prime, profile, graph.n_vertices, graph.n_edges)


def nonlocal_gradient(phi, graph):
    """Edge difference phi(dst) - phi(src); exactly antisymmetric.

    Takes one node field (n,) or a species pair (2, n) and returns (e,) or
    (2, e); each row equals the call on that row alone.
    """
    phi = graph.check_node_field(phi, pair=np.ndim(phi) == 2)
    grad = np.take(phi, graph.edge_dst, axis=-1)
    grad -= np.take(phi, graph.edge_src, axis=-1)
    return grad


def nonlocal_divergence(j, graph):
    """Negative adjoint of the nonlocal gradient under the eta-weighted pairing.

    The normalization is pinned by the duality identity

        sum_l phi(l) div(l) mu_l = -(1/2) sum_{(l,k)} (phi(k)-phi(l)) eta j(l,k) mu_l mu_k

    for every node field phi, which on densities gives

        div(l) = (1/2) sum_k eta(l,k) mu_k (j(l,k) - j(k,l)).

    Only the antisymmetric part of j enters, so this is ``link_divergence``
    of ``edges_to_links(j)``, the divergence the dynamics take.  Takes one
    edge field (e,) or a species pair (2, e) and returns (n,) or (2, n),
    one row at a time.
    """
    j = graph.check_edge_field(j, pair=np.ndim(j) == 2)
    links = edges_to_links(j, graph)
    if links.ndim == 1:
        return graph.link_divergence @ links
    return np.stack([graph.link_divergence @ row for row in links])


def edges_to_links(j, graph):
    """Antisymmetric part of edge fields per link: (..., e) -> (..., links).

    Link ``(lo, hi)`` gets ``(j(lo, hi) - j(hi, lo)) / 2``; on antisymmetric
    fields this inverts :func:`link_to_edges`.
    """
    return 0.5 * (np.take(j, graph.link_edge, axis=-1) - np.take(j, graph.link_reverse, axis=-1))


def link_to_edges(a, graph):
    """Antisymmetric edge fields of link values: (..., links) -> (..., e).

    Edge ``(lo, hi)`` gets ``a`` and edge ``(hi, lo)`` gets ``-a``.
    """
    return np.take(np.concatenate([a, np.negative(a)], axis=-1), graph._edge_slot, axis=-1)


def transpose_edge_field(j, graph):
    """Gather j onto reversed edges: out(l,k) = j(k,l)."""
    j = graph.check_edge_field(j)
    out = np.empty_like(j)
    out[graph.link_edge] = j[graph.link_reverse]
    out[graph.link_reverse] = j[graph.link_edge]
    return out


def antisymmetrize_flux(j, graph):
    """Project onto antisymmetric edge fields: (j - j^T)/2.

    Preserves the nonlocal divergence and never increases the action.
    """
    j = graph.check_edge_field(j)
    return link_to_edges(edges_to_links(j, graph), graph)


def is_antisymmetric(j, graph, tol=1e-12):
    """Whether j(k,l) = -j(l,k) up to tol * max(1, max|j|).

    One edge field gives a bool; a species pair (2, e) gives one bool per
    row, each with its own scale.
    """
    j = graph.check_edge_field(j, pair=np.ndim(j) == 2)
    scale = np.maximum(1.0, np.max(np.abs(j), axis=-1, initial=0.0))
    defect = np.abs(np.take(j, graph.link_edge, axis=-1) + np.take(j, graph.link_reverse, axis=-1))
    ok = np.all(defect <= tol * scale[..., None], axis=-1)
    return bool(ok) if j.ndim == 1 else ok
