"""Finite weighted graphs and the nonlocal calculus on them.

A graph is the triple (base measure, edge weights, edge set): vertices are
the atoms of a positive measure with positions ``x_l`` and weights ``mu_l``,
edges are the ordered pairs ``(l, k)`` with ``l != k`` and symmetric weight
``eta(l, k) > 0``.  Both orientations of every edge are materialized; edge
fields (fluxes, velocities, nonlocal gradients) are flat arrays aligned with
the edge list, node fields are arrays of one value per vertex.
"""

from dataclasses import dataclass, field

import numpy as np

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
    """Base measure plus symmetric edge weights and the materialized edge list.

    ``edge_src``, ``edge_dst`` and ``edge_eta`` enumerate every ordered pair
    with positive weight; ``transpose_index[e]`` is the index of the reversed
    pair, so transposing an edge field is a gather.  The constant per-edge
    products are gathered once, at construction: ``mu_src``, ``mu_dst``,
    ``edge_pair_weight = mu_src * mu_dst`` and the action weight
    ``action_weight = eta * mu_src * mu_dst``.
    """

    base: BaseMeasure
    eta: np.ndarray  # (n, n), symmetric, zero diagonal
    edge_src: np.ndarray = field(repr=False)
    edge_dst: np.ndarray = field(repr=False)
    edge_eta: np.ndarray = field(repr=False)
    transpose_index: np.ndarray = field(repr=False)
    mu_src: np.ndarray = field(init=False, repr=False, compare=False)
    mu_dst: np.ndarray = field(init=False, repr=False, compare=False)
    edge_pair_weight: np.ndarray = field(init=False, repr=False, compare=False)
    action_weight: np.ndarray = field(init=False, repr=False, compare=False)
    # edge endpoints of a species pair flattened to (2 e,), the second row's
    # vertices offset by n: one bincount then scatters both rows
    _pair_src: np.ndarray = field(init=False, repr=False, compare=False)
    _pair_dst: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.base.n_vertices
        mu_src = self.weights[self.edge_src]
        mu_dst = self.weights[self.edge_dst]
        pair_weight = mu_src * mu_dst
        cached = {
            "mu_src": mu_src,
            "mu_dst": mu_dst,
            "edge_pair_weight": pair_weight,
            "action_weight": self.edge_eta * pair_weight,
            "_pair_src": np.concatenate([self.edge_src, self.edge_src + n]),
            "_pair_dst": np.concatenate([self.edge_dst, self.edge_dst + n]),
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


def build_graph(points, weights, eta_spec, dense_limit=DENSE_VERTEX_LIMIT):
    """Assemble a :class:`FiniteGraph` from raw data.

    Parameters
    ----------
    points, weights : array_like
        Vertex positions (n, d) and strictly positive weights (n,).
    eta_spec : array_like or callable
        Either an explicit (n, n) matrix, validated for symmetry, or a
        callable ``eta(x, y)`` on point arrays which is symmetrized after
        evaluation.  The diagonal is forced to zero either way.
    dense_limit : int
        Guard for the dense (n, n) storage used here; desk-scale graphs only.
    """
    base = BaseMeasure(np.asarray(points, dtype=float), np.asarray(weights, dtype=float))
    n = base.n_vertices
    if n > dense_limit:
        raise SizeMismatch(f"{n} vertices exceeds the dense storage limit {dense_limit}")

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
    edge_index = -np.ones((n, n), dtype=np.int64)
    edge_index[src, dst] = np.arange(src.size)
    transpose_index = edge_index[dst, src]
    # eta is symmetric, so the reversed pair of every edge is itself an edge.
    assert np.all(transpose_index >= 0)
    return FiniteGraph(
        base=base,
        eta=eta,
        edge_src=src.astype(np.int64),
        edge_dst=dst.astype(np.int64),
        edge_eta=eta[src, dst],
        transpose_index=transpose_index,
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

    kernel = np.maximum(lengths**q, lengths ** (p * q)) * graph.edge_eta
    per_vertex = np.bincount(
        graph.edge_src, weights=kernel * graph.mu_dst, minlength=graph.n_vertices
    )
    c_eta = float(np.max(per_vertex))
    c_eta_prime = float(np.max(kernel))

    qterm = lengths**q * graph.edge_eta * graph.mu_dst
    eps_grid = np.unique(lengths)
    profile = []
    for eps in eps_grid:
        mask = lengths < eps
        if not np.any(mask):
            profile.append((float(eps), 0.0))
            continue
        sums = np.bincount(graph.edge_src[mask], weights=qterm[mask], minlength=graph.n_vertices)
        profile.append((float(eps), float(np.max(sums))))
    return AssumptionReport(c_mu, c_eta, c_eta_prime, tuple(profile), graph.n_vertices, graph.n_edges)


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

    Takes one edge field (e,) or a species pair (2, e) and returns (n,) or
    (2, n).  A pair is scattered by one bincount whose bins for the second
    row are offset by n; bincount adds in input order, so every bin receives
    the same additions in the same order as the single-row call.
    """
    j = graph.check_edge_field(j, pair=np.ndim(j) == 2)
    n = graph.n_vertices
    rows = 1 if j.ndim == 1 else 2
    weighted = graph.edge_eta * j
    outgoing = np.bincount(graph._pair_src[: j.size], weights=(weighted * graph.mu_dst).ravel(),
                           minlength=rows * n)
    weighted *= graph.mu_src
    incoming = np.bincount(graph._pair_dst[: j.size], weights=weighted.ravel(), minlength=rows * n)
    return (0.5 * (outgoing - incoming)).reshape(j.shape[:-1] + (n,))


def transpose_edge_field(j, graph):
    """Gather j onto reversed edges: out(l,k) = j(k,l)."""
    j = graph.check_edge_field(j)
    return j[graph.transpose_index]


def antisymmetrize_flux(j, graph):
    """Project onto antisymmetric edge fields: (j - j^T)/2.

    Preserves the nonlocal divergence and never increases the action.
    """
    j = graph.check_edge_field(j)
    return 0.5 * (j - j[graph.transpose_index])


def is_antisymmetric(j, graph, tol=1e-12):
    """Whether j(k,l) = -j(l,k) up to tol * max(1, max|j|).

    One edge field gives a bool; a species pair (2, e) gives one bool per
    row, each with its own scale.
    """
    j = graph.check_edge_field(j, pair=np.ndim(j) == 2)
    scale = np.maximum(1.0, np.max(np.abs(j), axis=-1, initial=0.0))
    defect = np.abs(j + np.take(j, graph.transpose_index, axis=-1))
    ok = np.all(defect <= tol * scale[..., None], axis=-1)
    return bool(ok) if j.ndim == 1 else ok
