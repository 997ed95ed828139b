"""Upwind action, Finsler pairings, and the transportation quasi-metric.

The two-species action of a state/flux pair is

    A = 1/2 sum_i (1/beta_i) sum_(l,k) [alpha(j, rho_l, rho_k)
                                        + alpha(-j, rho_k, rho_l)] eta mu_l mu_k

with the convex density alpha(j, r, s) = (j_+)^p / m(r, s)^(p-1).  The
quasi-metric T(rho_0, rho_1) is the p-th root of the minimal time-integrated
action over discrete paths solving the continuity equation; with midpoint
interval densities the objective is jointly convex when the mobility is
jointly concave (linear, for instance; volume filling is not).
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import (
    InfeasibleEndpoints,
    InfiniteAction,
    NonAntisymmetric,
    NotConverged,
)
from .graph import is_antisymmetric, nonlocal_divergence
from .mobility import alpha_density, flux_law, positive_part


@dataclass(frozen=True)
class ActionValue:
    """Total action and its per-species parts (already 1/beta weighted)."""

    total: float
    per_species: tuple

    def __float__(self):
        return self.total


def _edge_densities(graph, rho_pair):
    """Source and destination densities of every edge for both species, (2, e) each."""
    rho_pair = np.asarray(rho_pair, dtype=float)
    return np.take(rho_pair, graph.edge_src, axis=1), np.take(rho_pair, graph.edge_dst, axis=1)


def _action_value(bare, beta):
    """ActionValue of per-species sums (2,) divided by beta."""
    parts = bare / np.asarray(beta, dtype=float)
    return ActionValue(total=float(parts[0] + parts[1]),
                       per_species=(float(parts[0]), float(parts[1])))


def _require_antisymmetric(graph, *named_pairs):
    """Raise NonAntisymmetric for the first species (then the first field)
    whose velocity is not antisymmetric."""
    ok = np.stack([is_antisymmetric(pair, graph) for _, pair in named_pairs], axis=1)
    if not np.all(ok):
        species, which = np.argwhere(~ok)[0]
        label = named_pairs[which][0]
        raise NonAntisymmetric(
            f"{label + ' ' if label else ''}velocity of species {species + 1} is not antisymmetric"
        )


def action(graph, rho_pair, flux_pair, mobility, beta, exponents):
    """Two-species upwind action; infinity encodes infeasibility, not an error."""
    flux_pair = graph.check_edge_field(flux_pair, pair=True)
    r_src, r_dst = _edge_densities(graph, rho_pair)
    terms = alpha_density(flux_pair, r_src, r_dst, mobility, exponents)
    terms += alpha_density(-flux_pair, r_dst, r_src, mobility, exponents)
    terms *= graph.action_weight
    return _action_value(0.5 * np.sum(terms, axis=1), beta)


def dual_action(graph, rho_pair, velocity_pair, mobility, beta, exponents):
    """Action in velocity form, sum_i (1/beta_i) sum m(rho_l, rho_k) (v_+)^q eta mu mu.

    Requires antisymmetric velocities (raises NonAntisymmetric otherwise);
    equals ``action`` of :func:`flux_from_velocity` of the same velocities.
    """
    v = graph.check_edge_field(velocity_pair, pair=True)
    _require_antisymmetric(graph, ("", v))
    m_fwd = mobility(*_edge_densities(graph, rho_pair))
    vp = positive_part(v)
    vals = vp**exponents.q
    vals *= m_fwd
    # m = 0 with v_+ > 0 carries zero flux and zero cost in velocity form
    np.copyto(vals, 0.0, where=~(vp > 0) | (m_fwd <= 0))
    vals *= graph.action_weight
    return _action_value(np.sum(vals, axis=1), beta)


def flux_from_velocity(graph, rho_pair, velocity_pair, mobility, exponents):
    """Dual representation: j = m(rho_l, rho_k) (v_+)^(q-1) - m(rho_k, rho_l) (v_-)^(q-1)."""
    v = graph.check_edge_field(velocity_pair, pair=True)
    return flux_law(v, *_edge_densities(graph, rho_pair), mobility, exponents)


def velocity_from_flux(graph, rho_pair, flux_pair, mobility, exponents):
    """Invert the dual representation; edges with vanishing mobility carry v = 0."""
    j = graph.check_edge_field(flux_pair, pair=True)
    r_src, r_dst = _edge_densities(graph, rho_pair)
    m_fwd = mobility(r_src, r_dst)
    m_bwd = mobility(r_dst, r_src)
    pm1 = exponents.p - 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        up = (j / m_fwd) ** pm1
        down = -((-j / m_bwd) ** pm1)
    return np.where((j > 0) & (m_fwd > 0), up, np.where((j < 0) & (m_bwd > 0), down, 0.0))


def pairing_l(graph, rho_pair, flux_pair, other_flux_pair, mobility, beta, exponents):
    """Finsler pairing l_rho(j)[jbar]; linear in jbar, l_rho(j)[j] = action(j).

    Both fluxes must have finite action (InfiniteAction otherwise); then no
    flux leaves a vertex with vanishing mobility, so ``velocity_from_flux``
    inverts the flux law on every edge that carries flux.
    """
    flux_pair = np.asarray(flux_pair, dtype=float)
    other_flux_pair = np.asarray(other_flux_pair, dtype=float)
    for pair in (flux_pair, other_flux_pair):
        if not np.isfinite(action(graph, rho_pair, pair, mobility, beta, exponents).total):
            raise InfiniteAction("pairing requires fluxes of finite action")
    velocity = velocity_from_flux(graph, rho_pair, flux_pair, mobility, exponents)
    sums = np.sum(other_flux_pair * velocity * graph.action_weight, axis=1)
    return _action_value(0.5 * sums, beta).total


def pairing_l_tilde(graph, rho_pair, velocity_pair, other_velocity_pair, mobility, beta, exponents):
    """Velocity-side pairing; linear in the second slot, diagonal equals the dual action."""
    v = graph.check_edge_field(velocity_pair, pair=True)
    vbar = graph.check_edge_field(other_velocity_pair, pair=True)
    _require_antisymmetric(graph, ("first", v), ("second", vbar))
    kernel = flux_law(v, *_edge_densities(graph, rho_pair), mobility, exponents)
    return _action_value(0.5 * np.sum(vbar * kernel * graph.action_weight, axis=1), beta).total


def minkowski_norm(graph, rho_pair, flux_pair, mobility, beta, exponents):
    """F_rho(j) = action(j)^(1/p)."""
    return action(graph, rho_pair, flux_pair, mobility, beta, exponents).total ** (
        1.0 / exponents.p
    )


# ---------------------------------------------------------------------------
# discrete paths and the quasi-metric solver
# ---------------------------------------------------------------------------

_MAX_ITERATIONS = 200  # interior-point iterations per species
_TO_BOUNDARY = 0.995  # share of the step to the boundary that is taken
_ARMIJO = 1e-4  # sufficient decrease of the barrier merit along a step
_UNIFORM_BLEND = 0.1  # weight of the uniform density in the starting states
_FD_STEP = 1e-6  # central-difference step of mobility gradients
_FD_STEP_SECOND = 1e-4  # central-difference step of their derivatives


@dataclass
class DiscretePath:
    """Uniform time grid on [0, 1] with states at nodes and fluxes on intervals."""

    times: np.ndarray  # (K+1,)
    states: np.ndarray  # (K+1, 2, n)
    fluxes: np.ndarray  # (K, 2, e)

    @property
    def n_intervals(self):
        return len(self.times) - 1

    def midpoint_states(self):
        return 0.5 * (self.states[:-1] + self.states[1:])

    def continuity_residual(self, graph):
        """Max-norm residual of rho_{k+1} - rho_k + dt * div(j_k) = 0."""
        dt = self.times[1] - self.times[0]
        worst = 0.0
        for k in range(self.n_intervals):
            res = self.states[k + 1] - self.states[k] + dt * nonlocal_divergence(self.fluxes[k], graph)
            worst = max(worst, float(np.max(np.abs(res))))
        return worst


@dataclass(frozen=True)
class SolverCertificate:
    """Optimality evidence recomputed at the returned path, not solver internals."""

    constraint_residual: float
    optimality_residual: float
    iterations: int
    objective: float
    converged: bool


@dataclass(frozen=True)
class SolverOptions:
    eps_constraint: float = 1e-7
    eps_optimality: float = 1e-4


class _Pairs:
    """The edges of a graph as unordered pairs u = (l, k), l < k.

    An antisymmetric flux is one value a_u = j(l, k) = -j(k, l) per pair, and
    its divergence is div(a)[l] += eta mu_k a_u, div(a)[k] -= eta mu_l a_u;
    ``div_lo`` and ``div_hi`` hold these coefficients.  ``ground`` holds one
    vertex of every connected component, on which the divergence conserves
    mass separately.
    """

    def __init__(self, graph):
        fwd = graph.edge_src < graph.edge_dst
        self.n = graph.n_vertices
        self.n_edges = graph.n_edges
        self.edge = np.flatnonzero(fwd)
        self.reverse = graph.transpose_index[self.edge]
        self.lo = graph.edge_src[fwd]
        self.hi = graph.edge_dst[fwd]
        self.div_lo = graph.edge_eta[fwd] * graph.mu_dst[fwd]
        self.div_hi = -graph.edge_eta[fwd] * graph.mu_src[fwd]
        self.action_weight = graph.action_weight[fwd]
        self.weights = graph.weights
        adjacency = sparse.csr_matrix(
            (np.ones(self.lo.size), (self.lo, self.hi)), shape=(self.n, self.n))
        _, self.component = connected_components(adjacency, directed=False)
        self.ground = np.unique(self.component, return_index=True)[1]

    def gather(self, node_values):
        """D^T y per pair: (m, n) -> (m, pairs)."""
        return self.div_lo * node_values[:, self.lo] + self.div_hi * node_values[:, self.hi]

    def scatter(self, at_lo, at_hi):
        """Sum per-pair values at their two vertices: (m, pairs) twice -> (m, n)."""
        return _row_bincount(np.concatenate([self.lo, self.hi]),
                             np.concatenate([at_lo, at_hi], axis=1), self.n)

    def divergence(self, a):
        """D a per vertex: (m, pairs) -> (m, n)."""
        return self.scatter(self.div_lo * a, self.div_hi * a)

    def component_sums(self, node_values):
        """Per-component sums of (m, n) node values, (m, components)."""
        return _row_bincount(self.component, node_values, self.ground.size)

    def min_norm(self, rates):
        """Least-norm pair fluxes a with -div(a) = rate, (m, n) -> (m, pairs).

        On ordered edges the divergence is D = (D_pair, -D_pair) / 2, so the
        least-norm flux is j = -D^T y with (D D^T) y = rate, and
        D D^T = D_pair D_pair^T / 2 is a weighted graph Laplacian.  Its kernel
        is the vertex weights on each component; grounding one vertex per
        component fixes y up to that kernel, which D^T maps to zero.
        """
        rates = np.asarray(rates, dtype=float)
        y = np.zeros_like(rates)
        free = np.setdiff1d(np.arange(self.n), self.ground)
        if free.size:
            rows = np.concatenate([self.lo, self.hi, self.lo, self.hi])
            cols = np.concatenate([self.lo, self.hi, self.hi, self.lo])
            cross = self.div_lo * self.div_hi
            vals = 0.5 * np.concatenate([self.div_lo**2, self.div_hi**2, cross, cross])
            laplacian = sparse.csc_matrix((vals, (rows, cols)), shape=(self.n, self.n))
            solve = splu(laplacian[free][:, free].tocsc()).solve
            y[:, free] = solve(np.ascontiguousarray(rates[:, free].T)).T
        return -0.5 * self.gather(y)

    def to_edges(self, a):
        """Antisymmetric edge fields of pair fluxes: (..., pairs) -> (..., e)."""
        j = np.zeros(a.shape[:-1] + (self.n_edges,))
        j[..., self.edge] = a
        j[..., self.reverse] = -a
        return j


def _row_bincount(index, weights, bins):
    """Row-wise bincount: (m, c) weights summed into (m, bins) at the (c,) index."""
    rows = weights.shape[0]
    flat = (np.arange(rows)[:, None] * bins + index).ravel()
    return np.bincount(flat, weights=weights.ravel(), minlength=rows * bins).reshape(rows, bins)


def min_norm_flux(graph, rates):
    """Least-norm fluxes j with -div(j) = rate, (..., n) rates -> (..., e).

    Rates must conserve the mass of every connected component, as rates of
    states of equal component masses do; the fluxes are antisymmetric.
    """
    pairs = _Pairs(graph)
    rates = np.asarray(rates, dtype=float)
    a = pairs.min_norm(rates.reshape(-1, graph.n_vertices))
    return pairs.to_edges(a).reshape(rates.shape[:-1] + (graph.n_edges,))


def _mobility_derivatives(mobility, r, s):
    """m(r, s), its gradient (r, s) and Hessian (rr, rs, ss) at (r, s).

    The gradient comes from ``grad_fn`` when given, else from central
    differences; second derivatives are central differences of the gradient.
    Each step is shrunk to half the distance to the threshold box, so every
    evaluation stays in [0, R] x [0, S] where the mobility is defined.
    """

    def step(h, x, cap):
        return np.minimum(h, 0.5 * np.minimum(x, cap - x))

    def gradient(r, s):
        if mobility.grad_fn is not None:
            return [np.broadcast_to(np.asarray(g, dtype=float), r.shape)
                    for g in mobility.grad_fn(r, s)]
        h_r, h_s = step(_FD_STEP, r, mobility.R), step(_FD_STEP, s, mobility.S)
        return [(mobility(r + h_r, s) - mobility(r - h_r, s)) / (2 * h_r),
                (mobility(r, s + h_s) - mobility(r, s - h_s)) / (2 * h_s)]

    h_r, h_s = step(_FD_STEP_SECOND, r, mobility.R), step(_FD_STEP_SECOND, s, mobility.S)
    m_r, m_s = gradient(r, s)
    r_up, r_down = gradient(r + h_r, s), gradient(r - h_r, s)
    s_up, s_down = gradient(r, s + h_s), gradient(r, s - h_s)
    return SimpleNamespace(m=mobility(r, s), r=m_r, s=m_s, rr=(r_up[0] - r_down[0]) / (2 * h_r),
                           rs=(s_up[0] - s_down[0]) / (2 * h_s),
                           ss=(s_up[1] - s_down[1]) / (2 * h_s))


class _NewtonSystem:
    """Sparse pattern of the reduced Newton system of one species.

    With the flux block eliminated the unknowns are the interior states and
    the continuity multipliers, ordered by time: lambda_0, R_1, lambda_1, ...,
    R_{K-1}, lambda_{K-1}, n each.  Pair u on interval k couples R_k, R_{k+1}
    and lambda_k at its two vertices (a 6 x 6 element), and continuity row k
    couples lambda_k with R_{k+1} - R_k.  One continuity row per connected
    component is dropped from the last interval: the endpoint masses agree,
    so the rows of each component sum to an identity, and keeping them all
    makes the matrix singular.
    """

    def __init__(self, pairs, k_steps):
        n, K = pairs.n, k_steps
        ks = np.arange(K)[:, None]
        vertices = np.arange(n)[None]

        def state(k, v):  # index of R_k[v] in the full layout R_0, lambda_0, ..., R_K
            return 2 * k * n + v

        def mult(k, v):
            return (2 * k + 1) * n + v

        lo, hi = pairs.lo[None], pairs.hi[None]
        self.element_index = np.stack(
            [state(ks, lo), state(ks, hi), state(ks + 1, lo), state(ks + 1, hi),
             mult(ks, lo), mult(ks, hi)], axis=-1)  # (K, pairs, 6)
        diagonal = state(np.arange(1, K)[:, None], vertices)
        later, earlier, row = state(ks + 1, vertices), state(ks, vertices), mult(ks, vertices)
        rows = np.concatenate([
            np.broadcast_to(self.element_index[..., :, None], (K, pairs.lo.size, 6, 6)).ravel(),
            diagonal.ravel(), later.ravel(), row.ravel(), earlier.ravel(), row.ravel()])
        cols = np.concatenate([
            np.broadcast_to(self.element_index[..., None, :], (K, pairs.lo.size, 6, 6)).ravel(),
            diagonal.ravel(), row.ravel(), later.ravel(), row.ravel(), earlier.ravel()])
        coupling = np.concatenate([np.ones(2 * K * n), -np.ones(2 * K * n)])

        size = (2 * K + 1) * n
        self.kept = np.ones(size, dtype=bool)
        self.kept[:n] = False  # R_0 and R_K are fixed
        self.kept[2 * K * n:] = False
        self.kept[mult(K - 1, pairs.ground)] = False
        position = np.full(size, -1)
        position[self.kept] = np.arange(np.count_nonzero(self.kept))
        self.size = int(np.count_nonzero(self.kept))
        rows, cols = position[rows], position[cols]
        valid = (rows >= 0) & (cols >= 0)
        n_variable = rows.size - coupling.size
        self.variable_valid = valid[:n_variable]
        keys, slots = np.unique(cols[valid] * self.size + rows[valid], return_inverse=True)
        self.variable_slots = slots[: np.count_nonzero(self.variable_valid)]
        self.indices = keys % self.size
        self.indptr = np.searchsorted(keys // self.size, np.arange(self.size + 1))
        self.constant = np.bincount(slots[self.variable_slots.size:],
                                    weights=coupling[valid[n_variable:]], minlength=keys.size)
        self.full_size = size
        self.K, self.n = K, n

    def factor(self, elements, state_diagonal):
        """LU factors of the matrix of (K, pairs, 6, 6) elements plus the
        (K-1, n) state diagonal and the continuity coupling."""
        values = np.concatenate([elements.ravel(), state_diagonal.ravel()])
        data = self.constant + np.bincount(self.variable_slots, weights=values[self.variable_valid],
                                           minlength=self.constant.size)
        matrix = sparse.csc_matrix((data, self.indices, self.indptr), shape=(self.size, self.size))
        return splu(matrix, permc_spec="NATURAL")

    def solve(self, lu, element_rhs, state_rhs, continuity_rhs):
        """Solve for (dR, dlambda) as (K+1, n) state steps (zero at the fixed
        endpoints) and (K, n) multiplier steps."""
        n, K = self.n, self.K
        rhs = np.bincount(self.element_index.ravel(), weights=element_rhs.ravel(),
                          minlength=self.full_size).reshape(2 * K + 1, n)
        rhs[2:-1:2] += state_rhs
        rhs[1::2] += continuity_rhs
        full = np.zeros(self.full_size)
        full[self.kept] = lu.solve(rhs.ravel()[self.kept])
        full = full.reshape(2 * K + 1, n)
        return full[0::2], full[1::2]


class _SplitProblem:
    """The discrete transport problem of one species in split-flux form.

    Unknowns: the interior states R_1..R_{K-1} (0 < R, and R < cap when the
    mobility's threshold cap is finite) and, on every interval k and pair
    u = (l, k'), the flux a = P - M with P, M > 0.  The objective

        F = dt sum_k sum_u c_u [P^p m(rbar_l, rbar_k')^(1-p) + M^p m(rbar_k', rbar_l)^(1-p)],

    c_u = eta mu_l mu_k' / beta and rbar the interval midpoint, equals the raw
    action of the flux P - M whenever min(P, M) = 0, which holds at the
    optimum.  Continuity R_{k+1} - R_k + dt D a_k = 0 is linear.
    """

    def __init__(self, pairs, rho0, rho1, k_steps, mobility, beta, exponents):
        self.pairs = pairs
        self.rho0, self.rho1 = rho0, rho1
        self.K, self.dt = k_steps, 1.0 / k_steps
        self.mobility = mobility
        self.p = exponents.p
        self.cap = mobility.threshold_cap
        self.coef = self.dt * pairs.action_weight / beta

    def states(self, R):
        return np.concatenate([self.rho0[None], R, self.rho1[None]])

    def start(self):
        """Linear interpolation blended with the uniform density of the same
        component masses (strictly positive even at vertices empty at both
        ends) and the least-norm flux between it, split with a positive shift."""
        pairs = self.pairs
        taus = np.linspace(0.0, 1.0, self.K + 1)[1:-1, None]
        mu = pairs.weights
        mass = pairs.component_sums((self.rho0 * mu)[None])[0]
        uniform = (mass / pairs.component_sums(mu[None])[0])[pairs.component]
        R = (1.0 - _UNIFORM_BLEND) * ((1.0 - taus) * self.rho0 + taus * self.rho1)
        R += _UNIFORM_BLEND * uniform
        a = pairs.min_norm(np.diff(self.states(R), axis=0) / self.dt)
        scale = max(float(np.max(np.abs(a), initial=0.0)),
                    float(np.max(uniform)) / float(np.max(np.abs(pairs.div_lo), initial=1.0)))
        shift = 0.1 * scale
        return np.maximum(a, 0.0) + shift, np.maximum(-a, 0.0) + shift, R

    def slacks(self, P, M, R):
        """The variables held off a bound: P, M, R and, below a finite cap, cap - R."""
        return [P, M, R] + ([self.cap - R] if np.isfinite(self.cap) else [])

    def _perspective(self, flux, m):
        """c X^p m^(1-p) and its first and second derivatives in (X, m)."""
        p, c = self.p, self.coef
        ratio = flux / m
        power = ratio ** (p - 1.0)
        curvature = c * p * (p - 1.0) * power / m
        return SimpleNamespace(value=c * power * flux, a=c * p * power, m=c * (1.0 - p) * power * ratio,
                      aa=curvature / ratio, am=-curvature, mm=curvature * ratio)

    def evaluate(self, P, M, R):
        """The objective and its derivatives at (P, M, R); F is inf where a
        midpoint mobility is not positive."""
        pairs = self.pairs
        states = self.states(R)
        mid = 0.5 * (states[:-1] + states[1:])
        r_lo, r_hi = mid[:, pairs.lo], mid[:, pairs.hi]
        fwd = _mobility_derivatives(self.mobility, r_lo, r_hi)
        bwd = _mobility_derivatives(self.mobility, r_hi, r_lo)
        if not (np.all(fwd.m > 0) and np.all(bwd.m > 0)):
            return SimpleNamespace(F=np.inf)
        f, b = self._perspective(P, fwd.m), self._perspective(M, bwd.m)
        # the backward mobility m(rbar_k', rbar_l) has its source slot at hi
        g_mid = pairs.scatter(f.m * fwd.r + b.m * bwd.s, f.m * fwd.s + b.m * bwd.r)
        continuity = np.diff(states, axis=0) + self.dt * pairs.divergence(P - M)
        return SimpleNamespace(F=float(np.sum(f.value) + np.sum(b.value)), f=f, b=b, fwd=fwd, bwd=bwd,
                      g_R=0.5 * (g_mid[:-1] + g_mid[1:]), continuity=continuity)

    def merit(self, ev, x, target):
        """Barrier merit F - target * sum(log x) of a primal-feasible point."""
        return ev.F - target * sum(float(np.sum(np.log(xi))) for xi in x)

    def merit_slope(self, ev, x, dx, target):
        """Directional derivative of the barrier merit along dx."""
        grads = [ev.f.a, ev.b.a, ev.g_R]
        return (sum(float(np.sum(g * d)) for g, d in zip(grads, dx))
                - target * sum(float(np.sum(d / xi)) for xi, d in zip(x, dx)))

    def stationarity(self, ev, lam, x, z):
        """Max-norm of the Lagrangian stationarity residual, each component
        times its variable's distance to the bound: the Lagrangian's first-order
        change under a relative perturbation of the variable, in the units of
        F.  It stays defined where a bound is active and the perspective
        function's gradient at (0, 0) is not."""
        r = self.gradients(ev, lam)
        r = [r[0] - z[0], r[1] - z[1], r[2] - z[2] + (z[3] if len(z) == 4 else 0.0)]
        distance = x[:2] + [np.minimum(x[2], x[3]) if len(x) == 4 else x[2]]
        return max(float(np.max(np.abs(ri * di), initial=0.0)) for ri, di in zip(r, distance))

    def gradients(self, ev, lam):
        """Gradients of the Lagrangian F + sum_k lambda_k . continuity_k in P, M, R."""
        d_lam = self.dt * self.pairs.gather(lam)
        return [ev.f.a + d_lam, ev.b.a - d_lam, ev.g_R + lam[:-1] - lam[1:]]

    def newton(self, system, ev, lam, x, z):
        """Factor the reduced Newton system at (x, lambda, z) once and return
        the solver of its right-hand sides: (target, corrections) -> steps.

        The flux block is diagonal and eliminated.  Its midpoint-midpoint
        remainder uses the closed form c g_mm h / (c g_aa + h), h the barrier
        Hessian, which holds because g_aa g_mm = g_am^2 for the perspective
        function and avoids the cancellation of g_mm - g_am^2 / (g_aa + h).
        """
        pairs, dt = self.pairs, self.dt
        f, b, mf, mb = ev.f, ev.b, ev.fwd, ev.bwd
        diag_P, diag_M = f.aa + z[0] / x[0], b.aa + z[1] / x[1]
        e_f, e_b = f.mm * (z[0] / x[0]) / diag_P, b.mm * (z[1] / x[1]) / diag_M
        q_f, q_b = f.am / diag_P, b.am / diag_M
        h_ll = e_f * mf.r**2 + f.m * mf.rr + e_b * mb.s**2 + b.m * mb.ss
        h_lh = e_f * mf.r * mf.s + f.m * mf.rs + e_b * mb.r * mb.s + b.m * mb.rs
        h_hh = e_f * mf.s**2 + f.m * mf.ss + e_b * mb.r**2 + b.m * mb.rr
        # a mobility that is not jointly concave (volume filling) makes the
        # problem nonconvex; each pair's block is projected onto the PSD cone,
        # so the step stays a descent direction of the barrier merit
        shift = np.maximum(0.0, np.hypot(0.5 * (h_ll - h_hh), h_lh) - 0.5 * (h_ll + h_hh))
        h_ll, h_hh = h_ll + shift, h_hh + shift
        hess = np.stack([np.stack([h_ll, h_lh], -1), np.stack([h_lh, h_hh], -1)], -2)
        div = np.stack([pairs.div_lo, pairs.div_hi], -1)  # (pairs, 2)
        cross = dt * np.stack([q_b * mb.s - q_f * mf.r, q_b * mb.r - q_f * mf.s], -1)
        cross = cross[..., :, None] * div[:, None, :]
        elements = np.empty(h_ll.shape + (6, 6))
        for rows in (slice(0, 2), slice(2, 4)):
            for cols in (slice(0, 2), slice(2, 4)):
                elements[..., rows, cols] = 0.25 * hess
            elements[..., rows, 4:] = 0.5 * cross
            elements[..., 4:, rows] = 0.5 * np.swapaxes(cross, -1, -2)
        elements[..., 4:, 4:] = (-dt * dt * (1.0 / diag_P + 1.0 / diag_M))[..., None, None] * (
            div[:, :, None] * div[:, None, :])
        state_diagonal = sum(zi / xi for zi, xi in zip(z[2:], x[2:]))
        lu = system.factor(elements, state_diagonal)
        grads = self.gradients(ev, lam)

        def direction(target, corrections):
            rhs = [target / xi - g for xi, g in zip(x, grads)]
            if corrections is not None:
                rhs = [r - ci / xi for r, ci, xi in zip(rhs, corrections, x)]
            if len(x) == 4:  # the cap's slack moves against R
                rhs[2] = rhs[2] - target / x[3] + (0.0 if corrections is None
                                                   else corrections[3] / x[3])
            u_P, u_M = rhs[0] / diag_P, rhs[1] / diag_M
            r_lo = -(f.am * u_P * mf.r + b.am * u_M * mb.s)
            r_hi = -(f.am * u_P * mf.s + b.am * u_M * mb.r)
            r_lam = -dt * (u_P - u_M)
            element_rhs = np.stack([0.5 * r_lo, 0.5 * r_hi, 0.5 * r_lo, 0.5 * r_hi,
                                    r_lam * pairs.div_lo, r_lam * pairs.div_hi], -1)
            d_states, d_lam = system.solve(lu, element_rhs, rhs[2], -ev.continuity)
            d_mid = 0.5 * (d_states[:-1] + d_states[1:])
            d_div = dt * pairs.gather(d_lam)
            d_P = u_P - (f.am * (mf.r * d_mid[:, pairs.lo] + mf.s * d_mid[:, pairs.hi])
                         + d_div) / diag_P
            d_M = u_M - (b.am * (mb.r * d_mid[:, pairs.hi] + mb.s * d_mid[:, pairs.lo])
                         - d_div) / diag_M
            dx = [d_P, d_M, d_states[1:-1]] + ([-d_states[1:-1]] if len(x) == 4 else [])
            corr = corrections or [0.0] * len(x)
            dz = [(target - ci) / xi - zi - zi / xi * dxi
                  for xi, zi, dxi, ci in zip(x, z, dx, corr)]
            return dx, d_lam, dz

        return direction


@dataclass(frozen=True)
class _SpeciesSolution:
    states: np.ndarray  # (K+1, n)
    flux: np.ndarray  # (K, pairs)
    complementarity: float
    stationarity: float
    iterations: int
    converged: bool


def _step_to_boundary(values, steps):
    """Largest alpha with every values + alpha * steps >= 0."""
    alpha = np.inf
    for v, dv in zip(values, steps):
        shrinking = dv < 0
        if np.any(shrinking):
            alpha = min(alpha, float(np.min(-v[shrinking] / dv[shrinking])))
    return alpha


def _interior_point(problem, system):
    """Mehrotra predictor-corrector interior-point method on one species.

    Primal-dual, with objective weight 1 and barrier weight mu: each
    iteration factors the reduced Newton system once and solves it for the
    affine-scaling predictor and for the centred corrector.  The iterates
    stay on the continuity constraints, so the step is backtracked until it
    decreases the barrier merit F - tau sum(log x) at its target tau (and
    keeps F finite).  Stops when the complementarity sum is at most
    1e-13 + 1e-11 F and the scaled stationarity residual at most
    1e-10 (1 + F).
    """
    P, M, R = problem.start()
    x = problem.slacks(P, M, R)
    ev = problem.evaluate(P, M, R)
    count = sum(xi.size for xi in x)
    mu0 = problem.p * ev.F / max(P.size + M.size, 1)
    z = [mu0 / xi for xi in x]
    lam = np.zeros_like(ev.continuity)
    converged = False
    iteration = 0
    while iteration < _MAX_ITERATIONS:
        complementarity = sum(float(np.sum(xi * zi)) for xi, zi in zip(x, z))
        if (complementarity <= 1e-13 + 1e-11 * ev.F
                and problem.stationarity(ev, lam, x, z) <= 1e-10 * (1.0 + ev.F)):
            converged = True
            break
        iteration += 1
        mu = complementarity / count
        try:
            direction = problem.newton(system, ev, lam, x, z)
        except RuntimeError:  # splu: the Newton matrix is singular
            break
        dx, d_lam, dz = direction(0.0, None)
        a_p, a_d = min(1.0, _step_to_boundary(x, dx)), min(1.0, _step_to_boundary(z, dz))
        mu_aff = sum(float(np.sum((xi + a_p * dxi) * (zi + a_d * dzi)))
                     for xi, dxi, zi, dzi in zip(x, dx, z, dz)) / count
        target = (mu_aff / mu) ** 3 * mu
        dx, d_lam, dz = direction(target, [dxi * dzi for dxi, dzi in zip(dx, dz)])
        slope = problem.merit_slope(ev, x, dx, target)
        if slope >= 0.0:  # the corrector spoiled descent: centre without it
            dx, d_lam, dz = direction(target, None)
            slope = problem.merit_slope(ev, x, dx, target)
        alpha = min(1.0, _TO_BOUNDARY * _step_to_boundary(x, dx),
                    _TO_BOUNDARY * _step_to_boundary(z, dz))
        merit = problem.merit(ev, x, target)
        # halve the step until F is finite and the merit decreases enough,
        # allowing round-off in the merit once the step is tiny
        for _ in range(60):
            trial = [xi + alpha * dxi for xi, dxi in zip(x, dx)]
            trial_ev = problem.evaluate(*trial[:3])
            if np.isfinite(trial_ev.F) and (
                    slope >= 0.0 or problem.merit(trial_ev, trial, target)
                    <= merit + _ARMIJO * alpha * slope + 1e-15 * abs(merit)):
                break
            alpha *= 0.5
        else:
            break
        x, ev = trial, trial_ev
        lam = lam + alpha * d_lam
        z = [zi + alpha * dzi for zi, dzi in zip(z, dz)]

    return _SpeciesSolution(
        states=problem.states(x[2]), flux=x[0] - x[1],
        complementarity=sum(float(np.sum(xi * zi)) for xi, zi in zip(x, z)),
        stationarity=problem.stationarity(ev, lam, x, z),
        iterations=iteration, converged=converged)


def transport_cost(graph, start, end, k_steps, mobility, beta, exponents, options=None):
    """Nonlocal upwind transportation cost between two states.

    Minimizes sum_k dt * A(mu; (rho_k + rho_{k+1})/2, j_k) over discrete
    paths solving the per-interval continuity equation, with the states in
    the threshold box, by a primal-dual interior-point method on the exact
    problem of each species (see ``_SplitProblem``).  Returns
    (T, path, certificate) with T^p the raw action of the returned path.

    Raises
    ------
    InfeasibleEndpoints
        When the species masses of the endpoints disagree on some connected
        component of the graph.
    NotConverged
        When the certificate targets are not met; the partial certificate is
        attached to the exception.
    """
    if k_steps < 8:
        raise ValueError("k_steps must be at least 8")
    options = options or SolverOptions()
    rho0 = np.asarray(getattr(start, "rho", start), dtype=float)
    rho1 = np.asarray(getattr(end, "rho", end), dtype=float)
    pairs = _Pairs(graph)
    mass0 = pairs.component_sums(rho0 * graph.weights)
    mass1 = pairs.component_sums(rho1 * graph.weights)
    if np.max(np.abs(mass0 - mass1)) > 1e-10:
        raise InfeasibleEndpoints(f"species masses differ: {mass0} vs {mass1}")

    system = _NewtonSystem(pairs, k_steps)
    beta = np.asarray(beta, dtype=float)
    solutions = [
        _interior_point(_SplitProblem(pairs, rho0[i], rho1[i], k_steps, mobility, beta[i],
                                      exponents), system)
        for i in range(2)
    ]
    path = DiscretePath(
        times=np.linspace(0.0, 1.0, k_steps + 1),
        states=np.stack([s.states for s in solutions], axis=1),
        fluxes=pairs.to_edges(np.stack([s.flux for s in solutions], axis=1)),
    )

    # certificate quantities recomputed at the returned path
    c_final = max(
        path.continuity_residual(graph),
        float(np.max(np.abs(path.states[-1] - rho1))),
    )
    dt = 1.0 / k_steps
    mids = path.midpoint_states()
    objective = 0.0
    for k in range(k_steps):
        objective += dt * action(graph, mids[k], path.fluxes[k], mobility, beta, exponents).total
    # duality gap and scaled stationarity, both in units of the objective
    opt_res = max(sum(s.complementarity for s in solutions),
                  max(s.stationarity for s in solutions)) / (1.0 + objective)
    certificate = SolverCertificate(
        constraint_residual=c_final,
        optimality_residual=opt_res,
        iterations=sum(s.iterations for s in solutions),
        objective=objective,
        converged=all(s.converged for s in solutions)
        and c_final <= options.eps_constraint and opt_res <= options.eps_optimality,
    )
    if not certificate.converged:
        raise NotConverged(
            f"constraint residual {c_final:.3e}, optimality residual {opt_res:.3e} "
            f"after {certificate.iterations} interior-point iterations",
            certificate=certificate,
        )
    return objective ** (1.0 / exponents.p), path, certificate


def geodesic_profile(graph, path, mobility, beta, exponents):
    """Per-interval action values A_k of a discrete path.

    A continuum geodesic has constant speed, and the discrete optimum has a
    constant profile (to O(dt^2)) when both endpoints keep the source
    mobility positive.  Where it vanishes at an endpoint (an absorbing
    endpoint, e.g. all mass leaving a vertex) a boundary layer remains at
    every K: on the two-vertex unit-mass problem the final interval carries
    about 1.8 times the mean action.
    """
    mids = path.midpoint_states()
    return np.array(
        [
            action(graph, mids[k], path.fluxes[k], mobility, beta, exponents).total
            for k in range(path.n_intervals)
        ]
    )
