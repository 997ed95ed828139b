"""Upwind action, Finsler pairings, and the transportation quasi-metric.

Fluxes and velocities are (2, links) arrays, one value per link on its
edge (lo, hi) (see :mod:`graphflow.graph`).  The two-species action of a
state/flux pair is

    A = sum_i (1/beta_i) sum_links [alpha(j, rho_lo, rho_hi)
                                    + alpha(-j, rho_hi, rho_lo)] eta mu_lo mu_hi

with the convex density alpha(j, r, s) = (j_+)^p / m(r, s)^(p-1): half the
sum of the same two terms over both orientations of every edge, so each
link is charged once, through the mobility at the source end of its flux.
Every state-dependent link quantity takes the mobility of the state clipped
into its box [0, cap] from :func:`~graphflow.mobility.link_mobility`, and
the action is inf on links with an end outside the box.
The quasi-metric T(rho_0, rho_1) is the p-th root of the minimal
time-integrated action over discrete paths solving the continuity equation;
with midpoint interval densities the objective is jointly convex when the
mobility is jointly concave (linear, for instance; volume filling is not).
The solver takes its link-end values and its divergences from the flow's
operators, :func:`~graphflow.graph.link_ends` and ``nonlocal_divergence``.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import InfeasibleEndpoints, InfiniteAction, NotApplicable, NotConverged
from .graph import _components, _is_integer, link_ends, nonlocal_divergence
from .mobility import (check_slack, cost_density, dual_density, flux_law, link_mobility,
                       velocity_law)


@dataclass(frozen=True)
class ActionValue:
    """Total action and its per-species parts (already 1/beta weighted)."""

    total: float  # or a (K,) array, one value per interval
    per_species: tuple


def link_total(graph, terms, beta):
    """ActionValue of per-link terms (2, links): their sums weighted by
    eta mu_lo mu_hi, divided by beta.  Terms (K, 2, links) of K intervals
    give (K,) arrays, each interval's values as its own call would give
    them.  ``terms`` is scaled in place."""
    terms *= graph.link_weight
    parts = np.sum(terms, axis=-1) / np.asarray(beta, dtype=float)
    first, second = parts[..., 0], parts[..., 1]
    if parts.ndim == 1:
        first, second = float(first), float(second)
    return ActionValue(total=first + second, per_species=(first, second))


def action(graph, rho_pair, flux_pair, mobility, beta, exponents):
    """Two-species upwind action of the (2, links) fluxes at the (2, n)
    state, or per interval of (K, 2, links) fluxes at (K, 2, n) states;
    infinity encodes infeasibility, not an error.  A link is charged once, at
    the mobility of the end its flux leaves; the other orientation costs 0."""
    j = graph.check_link_field(flux_pair, intervals=np.ndim(flux_pair) == 3)
    fwd, bwd, outside = link_mobility(graph, rho_pair, mobility)
    terms = cost_density(np.abs(j), np.where(j > 0, fwd, bwd), exponents, outside)
    return link_total(graph, terms, beta)


def dual_action(graph, rho_pair, velocity_pair, mobility, beta, exponents):
    """Action in velocity form, sum_i (1/beta_i) sum m(rho_up, rho_down) |v|^q eta mu mu.

    Only the orientation a link's velocity points along has a positive part,
    so each link is charged once, through the mobility upwind
    (:func:`~graphflow.mobility.dual_density`); equals ``action`` of
    :func:`flux_from_velocity` of the same velocities at a state in the box.
    A link with zero velocity or no positive mobility upwind costs 0.
    """
    v = graph.check_link_field(velocity_pair)
    fwd, bwd, _ = link_mobility(graph, rho_pair, mobility)
    return link_total(graph, dual_density(v, fwd, bwd, exponents), beta)


def flux_from_velocity(graph, rho_pair, velocity_pair, mobility, exponents):
    """Dual representation: j = m(rho_lo, rho_hi) (v_+)^(q-1) - m(rho_hi, rho_lo) (v_-)^(q-1)."""
    v = graph.check_link_field(velocity_pair)
    fwd, bwd, _ = link_mobility(graph, rho_pair, mobility)
    return flux_law(v, fwd, bwd, exponents)


def velocity_from_flux(graph, rho_pair, flux_pair, mobility, exponents):
    """Invert the dual representation; links with vanishing upwind mobility carry v = 0."""
    j = graph.check_link_field(flux_pair)
    fwd, bwd, _ = link_mobility(graph, rho_pair, mobility)
    return velocity_law(j, fwd, bwd, exponents)


def pairing_l(graph, rho_pair, flux_pair, other_flux_pair, mobility, beta, exponents):
    """Finsler pairing l_rho(j)[jbar]; linear in jbar, l_rho(j)[j] = action(j).

    Both fluxes must have finite action (InfiniteAction otherwise); then no
    flux leaves a vertex with vanishing mobility, so ``velocity_from_flux``
    inverts the flux law on every link that carries flux.
    """
    other_flux_pair = graph.check_link_field(other_flux_pair)
    for pair in (flux_pair, other_flux_pair):
        if not np.isfinite(action(graph, rho_pair, pair, mobility, beta, exponents).total):
            raise InfiniteAction("pairing requires fluxes of finite action")
    velocity = velocity_from_flux(graph, rho_pair, flux_pair, mobility, exponents)
    return link_total(graph, other_flux_pair * velocity, beta).total


def pairing_l_tilde(graph, rho_pair, velocity_pair, other_velocity_pair, mobility, beta, exponents):
    """Velocity-side pairing; linear in the second slot, diagonal equals the dual action."""
    vbar = graph.check_link_field(other_velocity_pair)
    kernel = flux_from_velocity(graph, rho_pair, velocity_pair, mobility, exponents)
    return link_total(graph, vbar * kernel, beta).total


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
CONSTRAINT_BOUND = 1e-7  # certified continuity and endpoint residual
_OPTIMALITY_BOUND = 1e-4  # certified duality gap and scaled stationarity
_SUM_TERMS = 8192  # link terms per bincount of the Newton band's block diagonals
_LAPACK_INDEX_MAX = 2**31 - 1  # the largest band offset LAPACK's 32-bit integers reach


@dataclass
class DiscretePath:
    """States at the nodes of a time grid and fluxes on its intervals; the
    solver's grid is uniform on [0, 1]."""

    times: np.ndarray  # (K+1,)
    states: np.ndarray  # (K+1, 2, n)
    fluxes: np.ndarray  # (K, 2, links)

    @property
    def n_intervals(self):
        return len(self.times) - 1

    def midpoint_states(self):
        return 0.5 * (self.states[:-1] + self.states[1:])

    def continuity_residual(self, graph):
        """Max-norm residual of rho_{k+1} - rho_k + dt_k * div(j_k) = 0, with
        dt_k the length of interval k."""
        dt = np.diff(self.times)[:, None, None]
        res = np.diff(self.states, axis=0) + dt * nonlocal_divergence(graph, self.fluxes)
        return float(np.max(np.abs(res), initial=0.0))


@dataclass(frozen=True)
class SolverCertificate:
    """Optimality evidence recomputed at the returned path, not solver internals."""

    constraint_residual: float
    optimality_residual: float
    iterations: int
    objective: float
    converged: bool


def _adjoint(graph, y):
    """D^T y per link: (m, n) -> (m, links)."""
    y_lo, y_hi = link_ends(graph, y)
    return graph.link_div_lo * y_lo + graph.link_div_hi * y_hi


def _row_bincount(index, weights, bins):
    """Row-wise bincount: (m, c) weights summed into (m, bins) at the (c,) index."""
    rows = weights.shape[0]
    flat = (np.arange(rows)[:, None] * bins + index).ravel()
    return np.bincount(flat, weights=weights.ravel(), minlength=rows * bins).reshape(rows, bins)


def _scatter(graph, at_lo, at_hi):
    """Sum per-link values at their two vertices: (m, links) twice -> (m, n)."""
    return _row_bincount(np.concatenate([graph.link_lo, graph.link_hi]),
                         np.concatenate([at_lo, at_hi], axis=1), graph.n_vertices)


def min_norm_flux(graph, rates):
    """Least-norm link fluxes j with -div(j) = rate, (..., n) rates -> (..., links).

    Rates must conserve the mass of every connected component, as rates of
    states of equal component masses do.  With D the link divergence,
    j = -D^T y with (D D^T) y = rate, a weighted graph Laplacian.  Its kernel
    is the vertex weights on each component; grounding one vertex per
    component fixes y up to that kernel, which D^T maps to zero.

    The grounded Laplacian is symmetric positive definite.  It is stored as
    an upper band of half-width kd, the largest gap between the free indices
    at the two ends of a link, and factored by LAPACK's band Cholesky
    (``dpbtrf``) in O(n kd^2) time and O(n kd) memory, so the vertex
    numbering sets the cost: kd is small on a path numbered along it and
    near n on a randomly numbered graph.  Raises NotApplicable, naming the
    component, when the links whose Laplacian weight (D D^T)_lo,hi does not
    underflow to 0 leave a component disconnected, or when the factorization
    meets a pivot that is not positive (the Laplacian is singular in floating
    point).
    """
    rates = np.asarray(rates, dtype=float)
    n = graph.n_vertices
    rows = rates.reshape(-1, n)
    y = np.zeros_like(rows)
    free = np.setdiff1d(np.arange(n), graph.ground)
    if free.size:
        from scipy.linalg.lapack import dpbtrf, dpbtrs  # deferred: the flow path loads no scipy

        lo, hi = (end.astype(np.intp) for end in link_ends(graph, np.arange(n)))
        cross = graph.link_div_lo * graph.link_div_hi
        weighted = cross != 0.0
        if not weighted.all():
            _, grounds = _components(n, lo[weighted], hi[weighted])
            split = np.bincount(graph.component[grounds], minlength=graph.ground.size) > 1
            if split.any():
                raise NotApplicable(_singular_laplacian(
                    graph, np.argmax(split), "its links of nonzero weight leave it disconnected"))
        # free vertices keep their order, and the hi end of a link is never a
        # ground (the lowest vertex of its component), so row < col where row >= 0
        slot = np.full(n, -1)
        slot[free] = np.arange(free.size)
        row, col = slot[lo], slot[hi]
        kept = row >= 0
        row, col = row[kept], col[kept]
        kd = int(np.max(col - row, initial=0))
        # LAPACK's upper band layout: A[i, j] in row kd + i - j of column j, in Fortran order
        band = np.zeros((free.size, kd + 1)).T
        # each diagonal entry sums D's row in its order: links as hi end, then as lo end
        ends, at_end = np.r_[hi, lo], np.r_[graph.link_div_hi, graph.link_div_lo]
        band[kd] = np.bincount(ends, at_end * at_end, n)[free]
        band[kd + row - col, col] = cross[kept]
        factor, info = dpbtrf(band, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dpbtrf rejected its argument {-info}")
        if info > 0:
            raise NotApplicable(_singular_laplacian(
                graph, graph.component[free[info - 1]],
                f"its factorization meets a pivot that is not positive at vertex {free[info - 1]}"))
        y[:, free] = dpbtrs(factor, rows[:, free].T)[0].T
    return np.negative(_adjoint(graph, y)).reshape(rates.shape[:-1] + (graph.n_links,))


def _singular_laplacian(graph, component, reason):
    """The message of a grounded Laplacian that ``min_norm_flux`` cannot factor."""
    return (f"component {component} (lowest vertex {graph.ground[component]}) has a singular "
            f"grounded Laplacian, as {reason}, so the least-norm flux on it is undefined")


def _mobility_derivatives(mobility, r, s):
    """m(r, s), its gradient (r, s) and Hessian (rr, rs, ss) at (r, s), exact:
    one second-order forward evaluation (a jet) of the mobility's formula.
    A derivative that vanishes identically is the float 0.0."""
    m, (m_r, m_s), (rr, rs, ss) = mobility.fn.jet(r, s)
    return SimpleNamespace(m=m, r=m_r, s=m_s, rr=rr, rs=rs, ss=ss)


class _NewtonSystem:
    """Band storage of the reduced Newton system of one species.

    With the flux block eliminated the unknowns are the interior states and
    the continuity multipliers, ordered by time: lambda_0, R_1, lambda_1, ...,
    R_{K-1}, lambda_{K-1}, n each.  Link u on interval k couples R_k, R_{k+1}
    and lambda_k at its two vertices, and continuity row k couples lambda_k
    with R_{k+1} - R_k.  So the matrix is block tridiagonal in time, and
    every nonzero n x n block (R_k-R_k, R_k-R_{k+1}, R_k-lambda_k,
    R_{k+1}-lambda_k, their transposes and lambda_k-lambda_k) has the pattern
    of the graph's adjacency plus the identity.  Its half-bandwidth kl = ku is
    the pattern's largest |row - col| (3n - 1 on a complete graph), and an LU
    factorization with partial pivoting fills no entry outside LAPACK's band
    layout of 2 kl + ku + 1 rows.  One continuity row per connected
    component is dropped from the last interval: the endpoint masses agree,
    so the rows of each component sum to an identity, and keeping them all
    makes the matrix singular.

    The band is filled one kind of block at a time, with no per-entry index.
    The same block one interval later lies 2n rows and 2n columns further
    on, so 2n ldab entries further on in the flat band: one offset vector
    of n + 2 links entries places a kind's values in all its intervals,
    through a strided view of the band with one row per interval, and the
    offsets of the transposed entries place its mirror block from the same
    values.  Only the blocks on lambda_{K-1}, whose ground rows are dropped,
    take an index of their own.  ``matrix`` writes the links' values as they
    come and sums only the block diagonals, by bincounts of at most
    _SUM_TERMS link terms each, into one band buffer, which both species
    share and ``factor`` overwrites with the LU factors.
    """

    # the planes of ``matrix``'s values per interval, each of n values (a
    # block's diagonal) or one value per link (its (lo, hi) or (hi, lo) entry):
    # w div div^T's diagonal and links; half the cross term's diagonal + 1,
    # lo-hi and hi-lo links and diagonal - 1; a quarter of the state Hessian's
    # diagonal and links (twice); and R_k-R_k's diagonal and links
    _PLANES = ("diag", "lohi", "diag", "lohi", "hilo", "diag", "diag", "lohi", "hilo", "diag",
               "lohi")

    def __init__(self, graph, k_steps):
        n, K = graph.n_vertices, k_steps
        lo, hi = graph.link_lo.astype(np.intp), graph.link_hi.astype(np.intp)
        vertices = np.arange(n)
        entries = {"diag": (vertices, vertices), "lohi": (lo, hi), "hilo": (hi, lo)}
        starts = np.cumsum([0] + [entries[kind][0].size for kind in self._PLANES]).tolist()
        # the blocks the planes fill, per run of intervals [first, stop), as
        # (plane, block row, block column) with interval k's R_k, lambda_k and
        # R_{k+1} numbered 0, 1, 2; each value also fills the transposed entry
        runs = [(first, stop, blocks) for first, stop, blocks in [
            (0, K - 1, [(0, 1, 1), (1, 1, 1),  # lambda_k-lambda_k
                        (2, 2, 1), (3, 2, 1), (4, 2, 1)]),  # R_{k+1}-lambda_k
            (1, K - 1, [(3, 0, 1), (4, 0, 1), (5, 0, 1),  # R_k-lambda_k
                        (6, 0, 2), (7, 0, 2), (8, 0, 2)]),  # R_k-R_{k+1}
            (1, K, [(9, 0, 0), (10, 0, 0)]),  # R_k-R_k
        ] if stop > first]
        # interval K-1's blocks on lambda_{K-1}; at K = 1 R_0-lambda_0 is dropped
        last = [(0, 1, 1), (1, 1, 1)] + ([(3, 0, 1), (4, 0, 1), (5, 0, 1)] if K > 1 else [])
        free = np.ones(n, dtype=bool)
        free[graph.ground] = False
        kept_row = np.cumsum(free) - 1

        def place(k, block, v):
            """Rows of the vertices v of interval k's block (-1 where dropped)."""
            if k == K - 1 and block == 1:  # lambda_{K-1} keeps its free vertices' rows
                return np.where(free[v], (2 * K - 2) * n + kept_row[v], -1)
            return (2 * k + block - 1) * n + v

        def pattern(k, blocks):
            """Rows and columns of interval k's entries of ``blocks``, and the
            value columns they take."""
            rows, cols, columns = [], [], []
            for plane, block_row, block_col in blocks:
                row_vertices, col_vertices = entries[self._PLANES[plane]]
                rows.append(place(k, block_row, row_vertices))
                cols.append(place(k, block_col, col_vertices))
                columns.append(starts[plane] + np.arange(row_vertices.size))
            return np.concatenate(rows), np.concatenate(cols), np.concatenate(columns)

        patterns = [pattern(first, blocks) for first, _, blocks in runs]
        rows, cols, columns = pattern(K - 1, last)
        on_band = (rows >= 0) & (cols >= 0)
        patterns.append((rows[on_band], cols[on_band], columns[on_band]))
        self.kl = self.ku = int(max(np.max(np.abs(r - c), initial=0) for r, c, _ in patterns))
        # LAPACK's band layout: A[i, j] in row kl + ku + i - j of column j, in
        # Fortran order; the first kl rows hold the fill of the pivoting
        ldab = 2 * self.kl + self.ku + 1
        self.size = (2 * K - 1) * n - graph.ground.size
        if ldab * self.size > _LAPACK_INDEX_MAX:
            raise NotApplicable(
                f"the Newton band of {self.size} unknowns holds {ldab * self.size} entries, more "
                f"than LAPACK's 32-bit band indexing reaches ({_LAPACK_INDEX_MAX})")
        from scipy.linalg.lapack import dgbtrf, dgbtrs  # deferred: the flow path never loads it

        self.dgbtrf, self.dgbtrs = dgbtrf, dgbtrs

        def flat(rows, cols):
            """Flat band offsets of the entries and of their transposes, (2, entries)."""
            return np.stack([cols * (ldab - 1) + rows, rows * (ldab - 1) + cols]) + 2 * self.kl

        self.flat_band = np.zeros(ldab * self.size)
        self.band = self.flat_band.reshape(self.size, ldab).T  # (ldab, size), Fortran order
        self.fills = []  # (strided view, offsets in it, intervals, value columns)
        for (first, stop, blocks), (rows, cols, columns) in zip(runs, patterns):
            at = flat(rows, cols)
            origin = int(at.min())
            view = np.lib.stride_tricks.as_strided(
                self.flat_band[origin:], (stop - first, int(at.max()) - origin + 1),
                (2 * n * ldab * self.flat_band.itemsize, self.flat_band.itemsize))
            self.fills.append((view, at - origin, slice(first, stop),
                               slice(columns[0], columns[-1] + 1)))
        rows, cols, columns = patterns[-1]
        self.last_at, self.last_from = flat(rows, cols).ravel(), np.concatenate([columns, columns])
        self.planes = [slice(a, b) for a, b in zip(starts, starts[1:])]
        # the bincount index of the link ends into the three block diagonals,
        # of as many intervals as one bincount of _SUM_TERMS terms sums
        ends = np.concatenate([lo, hi, n + lo, n + hi, 2 * n + lo, 2 * n + hi])
        self.sum_rows = max(1, min(K, _SUM_TERMS // max(ends.size, 1)))
        self.sum_index = (3 * n * np.arange(self.sum_rows)[:, None] + ends).reshape(-1)
        kept = np.ones((2 * K + 1) * n, dtype=bool)
        kept[:n] = False  # R_0 and R_K are fixed
        kept[2 * K * n:] = False
        kept[(2 * K - 1) * n + graph.ground] = False  # lambda_{K-1} at each ground
        self.kept, self.dropped = np.flatnonzero(kept), np.flatnonzero(~kept)
        d_lo, d_hi = graph.link_div_lo, graph.link_div_hi
        self.div_lo, self.div_hi = d_lo, d_hi
        self.div_ll, self.div_lh, self.div_hh = d_lo * d_lo, d_lo * d_hi, d_hi * d_hi
        self.K, self.n = K, n

    def matrix(self, hess, cross, weight, state_diagonal):
        """The band of the Newton matrix of the per-link (K, links) values:
        the state Hessian ``hess`` (ll, lh, hh), ``cross`` (lo, hi) coupling
        the states with the divergence into the multipliers, and ``weight`` w
        of the multiplier block w div div^T, plus the (K-1, n) state diagonal
        and the continuity coupling.  An interval's state Hessian enters its
        four state blocks with weight 1/4 and its cross term both
        state-multiplier blocks with weight 1/2, as midpoint densities average
        two states.  Fills the shared band buffer in place and returns it."""
        h_ll, h_lh, h_hh = hess
        c_lo, c_hi = cross
        d_lo, d_hi, n = self.div_lo, self.div_hi, self.n
        links = d_lo.size
        values = np.empty((self.K, self.planes[-1].stop))
        # the block diagonals of the state Hessian, the cross term and w div
        # div^T, summed from their link terms, which the values then overwrite
        terms = values.reshape(-1)[:6 * links * self.K].reshape(self.K, 6, links)
        np.copyto(terms[:, 0], h_ll)
        np.copyto(terms[:, 1], h_hh)
        np.multiply(c_lo, d_lo, out=terms[:, 2])
        np.multiply(c_hi, d_hi, out=terms[:, 3])
        np.multiply(weight, self.div_ll, out=terms[:, 4])
        np.multiply(weight, self.div_hh, out=terms[:, 5])
        sums = np.empty((self.K, 3 * n))
        for first in range(0, self.K, self.sum_rows):
            rows = terms[first:first + self.sum_rows]
            sums[first:first + len(rows)] = np.bincount(
                self.sum_index[:rows.size], rows.reshape(-1), len(rows) * 3 * n).reshape(-1, 3 * n)
        (w_diag, w_link, c_plus, c_lohi, c_hilo, c_minus, q_diag, q_link, q_link_t, s_diag,
         s_link) = (values[:, plane] for plane in self.planes)
        np.copyto(w_diag, sums[:, 2 * n:])
        np.multiply(weight, self.div_lh, out=w_link)
        # R_{k+1}-lambda_k and R_k-lambda_k: the continuity coupling is +1 and -1
        np.multiply(sums[:, n:2 * n], 0.5, out=c_minus)
        np.add(c_minus, 1.0, out=c_plus)
        c_minus -= 1.0
        np.multiply(c_lo, d_hi, out=c_lohi)
        c_lohi *= 0.5
        np.multiply(c_hi, d_lo, out=c_hilo)
        c_hilo *= 0.5
        np.multiply(sums[:, :n], 0.25, out=q_diag)
        np.multiply(h_lh, 0.25, out=q_link)
        np.copyto(q_link_t, q_link)
        # R_k-R_k, k = 1..K-1, takes the quarters of intervals k - 1 and k
        np.add(q_diag[:-1], q_diag[1:], out=s_diag[1:])
        s_diag[1:] += state_diagonal
        np.add(q_link[:-1], q_link[1:], out=s_link[1:])
        self.flat_band.fill(0.0)
        for view, at, intervals, columns in self.fills:
            view[:, at] = values[intervals, None, columns]
        self.flat_band[self.last_at] = values[-1, self.last_from]
        return self.band

    def factor(self, band):
        """LU factors (band, pivots) of a filled band, by LAPACK's banded LU
        with partial pivoting in place, or None when a pivot is exactly zero
        (the matrix is singular).  The factors are valid until the next fill."""
        lu, pivots, info = self.dgbtrf(band, self.kl, self.ku, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dgbtrf rejected its argument {-info}")
        return None if info > 0 else (lu, pivots)

    def solve(self, factors, state_rhs, continuity_rhs):
        """Solve for (dR, dlambda), given the (K-1, n) interior state rows and
        the (K, n) continuity rows of the right-hand side, as (K+1, n) state
        steps (zero at the fixed endpoints) and (K, n) multiplier steps."""
        full = np.zeros((2 * self.K + 1, self.n))
        full[2:-1:2], full[1::2] = state_rhs, continuity_rhs
        flat = full.reshape(-1)
        if self.size:
            lu, pivots = factors
            flat[self.kept] = self.dgbtrs(lu, self.kl, self.ku, flat[self.kept], pivots)[0]
        flat[self.dropped] = 0.0
        return full[0::2], full[1::2]


class _SplitProblem:
    """The discrete transport problem of one species in split-flux form.

    Unknowns: the interior states R_1..R_{K-1} (0 < R, and R < cap when the
    mobility's threshold cap is finite) and, on every interval k and link
    u = (l, k'), the flux a = P - M with P, M > 0.  The objective

        F = dt sum_k sum_u c_u [P^p m(rbar_l, rbar_k')^(1-p) + M^p m(rbar_k', rbar_l)^(1-p)],

    c_u = eta mu_l mu_k' / beta and rbar the interval midpoint, equals the raw
    action of the flux P - M whenever min(P, M) = 0, which holds at the
    optimum.  Continuity R_{k+1} - R_k + dt D a_k = 0 is linear.

    The variables held off a bound, x = (P, M, R) and, below a finite cap,
    cap - R, form one flat vector, and so do their multipliers z; ``parts``
    gives the per-part views.
    """

    def __init__(self, graph, rho0, rho1, k_steps, mobility, beta, exponents):
        self.graph = graph
        self.rho0, self.rho1 = rho0, rho1
        self.K, self.dt = k_steps, 1.0 / k_steps
        self.mobility = mobility
        self.p = exponents.p
        self.cap, self.capped = mobility.threshold_cap, mobility.bounded
        self.coef = self.dt * graph.link_weight / beta
        flux, state = (k_steps, graph.n_links), (k_steps - 1, graph.n_vertices)
        self.shapes = [flux, flux, state] + ([state] if self.capped else [])
        self.ends = np.cumsum([0] + [rows * cols for rows, cols in self.shapes]).tolist()
        # the objective does not depend on the cap's slack
        self.slack_gradient = [np.zeros(self.ends[-1] - self.ends[3])] if self.capped else []

    def parts(self, v):
        """Views (P, M, R[, cap - R]) of a flat primal or dual vector."""
        return [v[a:b].reshape(shape) for a, b, shape in zip(self.ends, self.ends[1:], self.shapes)]

    def states(self, R):
        return np.concatenate([self.rho0[None], R, self.rho1[None]])

    def start(self):
        """Linear interpolation blended with the uniform density of the same
        component masses (strictly positive even at vertices empty at both
        ends) and the least-norm flux between it, split with a positive shift;
        as the flat vector x."""
        graph = self.graph
        taus = np.linspace(0.0, 1.0, self.K + 1)[1:-1, None]
        mu = graph.weights
        mass, volume = _row_bincount(graph.component, np.stack([self.rho0 * mu, mu]),
                                     graph.ground.size)
        uniform = (mass / volume)[graph.component]
        R = (1.0 - _UNIFORM_BLEND) * ((1.0 - taus) * self.rho0 + taus * self.rho1)
        R += _UNIFORM_BLEND * uniform
        a = min_norm_flux(graph, np.diff(self.states(R), axis=0) / self.dt)
        scale = max(float(np.max(np.abs(a), initial=0.0)),
                    float(np.max(uniform)) / float(np.max(np.abs(graph.link_div_lo), initial=1.0)))
        shift = 0.1 * scale
        P, M = np.maximum(a, 0.0) + shift, np.maximum(-a, 0.0) + shift
        return np.concatenate([P, M, R] + ([self.cap - R] if self.capped else []), axis=None)

    def _perspective(self, flux, m):
        """c X^p m^(1-p) and its first and second derivatives in (X, m)."""
        p, c = self.p, self.coef
        ratio = flux / m
        power = ratio ** (p - 1.0)
        curvature = c * p * (p - 1.0) * power / m
        return SimpleNamespace(value=c * power * flux, a=c * p * power, m=c * (1.0 - p) * power * ratio,
                      aa=curvature / ratio, am=-curvature, mm=curvature * ratio)

    def evaluate(self, x):
        """The objective, its flat gradient in x and its derivatives at x; F
        is inf where a midpoint mobility is not positive."""
        graph = self.graph
        P, M, R = self.parts(x)[:3]
        states = self.states(R)
        mid = 0.5 * (states[:-1] + states[1:])
        r_lo, r_hi = link_ends(graph, mid)
        fwd = _mobility_derivatives(self.mobility, r_lo, r_hi)
        bwd = _mobility_derivatives(self.mobility, r_hi, r_lo)
        if not (np.all(fwd.m > 0) and np.all(bwd.m > 0)):
            return SimpleNamespace(F=np.inf)
        f, b = self._perspective(P, fwd.m), self._perspective(M, bwd.m)
        # the backward mobility m(rbar_k', rbar_l) has its source slot at hi
        g_mid = _scatter(graph, f.m * fwd.r + b.m * bwd.s, f.m * fwd.s + b.m * bwd.r)
        g_R = 0.5 * (g_mid[:-1] + g_mid[1:])
        continuity = np.diff(states, axis=0) + self.dt * nonlocal_divergence(graph, P - M)
        return SimpleNamespace(F=float(np.sum(f.value) + np.sum(b.value)), f=f, b=b, fwd=fwd, bwd=bwd,
                               grad=np.concatenate([f.a, b.a, g_R] + self.slack_gradient, axis=None),
                               continuity=continuity)

    def merit(self, ev, x, target):
        """Barrier merit F - target * sum(log x) of a primal-feasible point."""
        return ev.F - target * float(np.sum(np.log(x)))

    def merit_slope(self, ev, x, dx, target):
        """Directional derivative of the barrier merit along dx."""
        return float(np.sum(ev.grad * dx)) - target * float(np.sum(dx / x))

    def stationarity(self, ev, lam, x, z):
        """Max-norm of the Lagrangian stationarity residual, each component
        times its variable's distance to the bound: the Lagrangian's first-order
        change under a relative perturbation of the variable, in the units of
        F.  It stays defined where a bound is active and the perspective
        function's gradient at (0, 0) is not."""
        r = self.gradients(ev, lam) - z
        distance = x
        if self.capped:  # R's residual takes the cap's multiplier, once
            distance = x.copy()
            _, _, r_R, r_S = self.parts(r)
            _, _, d_R, d_S = self.parts(distance)
            r_R -= r_S
            np.minimum(d_R, d_S, out=d_R)
            d_S.fill(0.0)
        return float(np.max(np.abs(r * distance), initial=0.0))

    def gradients(self, ev, lam):
        """Flat gradient of the Lagrangian F + sum_k lambda_k . continuity_k in x."""
        d_lam = self.dt * _adjoint(self.graph, lam)
        g = ev.grad.copy()
        g_P, g_M, g_R = self.parts(g)[:3]
        g_P += d_lam
        g_M -= d_lam
        g_R += lam[:-1]
        g_R -= lam[1:]
        return g

    def newton(self, system, ev, lam, x, z):
        """Factor the reduced Newton system at (x, lambda, z) once and return
        the solver of its right-hand sides, (target, corrections) -> steps,
        or None when the factorization meets an exact zero pivot.

        The flux block is diagonal and eliminated.  Its midpoint-midpoint
        remainder uses the closed form c g_mm h / (c g_aa + h), h the barrier
        Hessian, which holds because g_aa g_mm = g_am^2 for the perspective
        function and avoids the cancellation of g_mm - g_am^2 / (g_aa + h).
        The remaining states and multipliers are factored as a band (see
        ``_NewtonSystem``), which overwrites the previous iteration's factors.
        """
        graph, dt = self.graph, self.dt
        f, b, mf, mb = ev.f, ev.b, ev.fwd, ev.bwd
        zx = z / x
        zx_P, zx_M, *zx_R = self.parts(zx)
        diag_P, diag_M = f.aa + zx_P, b.aa + zx_M
        e_f, e_b = f.mm * zx_P / diag_P, b.mm * zx_M / diag_M
        q_f, q_b = f.am / diag_P, b.am / diag_M
        h_ll = e_f * mf.r**2 + f.m * mf.rr + e_b * mb.s**2 + b.m * mb.ss
        h_lh = e_f * mf.r * mf.s + f.m * mf.rs + e_b * mb.r * mb.s + b.m * mb.rs
        h_hh = e_f * mf.s**2 + f.m * mf.ss + e_b * mb.r**2 + b.m * mb.rr
        # a mobility that is not jointly concave (volume filling) makes the
        # problem nonconvex; each link's block is projected onto the PSD cone,
        # so the step stays a descent direction of the barrier merit
        shift = np.maximum(0.0, np.hypot(0.5 * (h_ll - h_hh), h_lh) - 0.5 * (h_ll + h_hh))
        h_ll, h_hh = h_ll + shift, h_hh + shift
        cross = (dt * (q_b * mb.s - q_f * mf.r), dt * (q_b * mb.r - q_f * mf.s))
        weight = -dt * dt * (1.0 / diag_P + 1.0 / diag_M)
        factors = system.factor(system.matrix((h_ll, h_lh, h_hh), cross, weight, sum(zx_R)))
        if factors is None:
            return None
        grads = self.gradients(ev, lam)

        def direction(target, corrections):
            rhs = target / x - grads
            if corrections is not None:
                rhs -= corrections / x
            u_P, u_M, r_R, *r_S = self.parts(rhs)
            if self.capped:  # the cap's slack moves against R
                r_R -= r_S[0]
            u_P /= diag_P
            u_M /= diag_M
            r_lo = -(f.am * u_P * mf.r + b.am * u_M * mb.s)
            r_hi = -(f.am * u_P * mf.s + b.am * u_M * mb.r)
            # each interval's link values reach the states at both of its ends
            r_mid = _scatter(graph, r_lo, r_hi)
            d_states, d_lam = system.solve(
                factors, r_R + 0.5 * (r_mid[:-1] + r_mid[1:]),
                nonlocal_divergence(graph, -dt * (u_P - u_M)) - ev.continuity)
            d_mid = 0.5 * (d_states[:-1] + d_states[1:])
            d_lo, d_hi = link_ends(graph, d_mid)
            d_div = dt * _adjoint(graph, d_lam)
            d_P = u_P - (f.am * (mf.r * d_lo + mf.s * d_hi) + d_div) / diag_P
            d_M = u_M - (b.am * (mb.r * d_hi + mb.s * d_lo) - d_div) / diag_M
            d_R = d_states[1:-1]
            dx = np.concatenate([d_P, d_M, d_R] + ([-d_R] if self.capped else []), axis=None)
            dz = (target - (0.0 if corrections is None else corrections)) / x - z - zx * dx
            return dx, d_lam, dz

        return direction


@dataclass(frozen=True)
class _SpeciesSolution:
    states: np.ndarray  # (K+1, n)
    flux: np.ndarray  # (K, links)
    complementarity: float
    stationarity: float
    iterations: int
    converged: bool


def _step_to_boundary(values, steps):
    """Largest alpha with values + alpha * steps >= 0."""
    shrinking = steps < 0
    return float(np.min(-values[shrinking] / steps[shrinking], initial=np.inf))


def _interior_point(problem, system, species):
    """Mehrotra predictor-corrector interior-point method on one species.

    Primal-dual, with objective weight 1 and barrier weight mu: each
    iteration factors the reduced Newton system once and solves it for the
    affine-scaling predictor and for the centred corrector.  The iterates
    stay on the continuity constraints, so the step is backtracked until it
    decreases the barrier merit F - tau sum(log x) at its target tau (and
    keeps F finite).  Stops when the complementarity sum is at most
    1e-13 + 1e-11 F and the scaled stationarity residual at most
    1e-10 (1 + F), and early when the Newton matrix is singular or the
    backtracking shrinks the step to nothing.  Raises NotApplicable, naming
    the species, when the starting path is not strictly interior.
    """
    x = problem.start()
    ev = problem.evaluate(x)
    if not (np.all(x > 0.0) and np.isfinite(ev.F)):
        raise NotApplicable(
            f"species {species}: the starting path is not strictly inside (0, {problem.cap}) "
            "with a positive mobility on every link, so the interior-point method cannot start")
    mu0 = problem.p * ev.F / max(problem.ends[2], 1)
    z = mu0 / x
    lam = np.zeros_like(ev.continuity)
    converged = False
    iteration = 0
    while iteration < _MAX_ITERATIONS:
        complementarity = float(np.sum(x * z))
        if (complementarity <= 1e-13 + 1e-11 * ev.F
                and problem.stationarity(ev, lam, x, z) <= 1e-10 * (1.0 + ev.F)):
            converged = True
            break
        iteration += 1
        mu = complementarity / x.size
        direction = problem.newton(system, ev, lam, x, z)
        if direction is None:  # the Newton matrix is singular
            break
        dx, d_lam, dz = direction(0.0, None)
        a_p, a_d = min(1.0, _step_to_boundary(x, dx)), min(1.0, _step_to_boundary(z, dz))
        mu_aff = float(np.sum((x + a_p * dx) * (z + a_d * dz))) / x.size
        target = (mu_aff / mu) ** 3 * mu
        dx, d_lam, dz = direction(target, dx * dz)
        slope = problem.merit_slope(ev, x, dx, target)
        if slope >= 0.0:  # the corrector spoiled descent: centre without it
            dx, d_lam, dz = direction(target, None)
            slope = problem.merit_slope(ev, x, dx, target)
        # the solver holds the factors and this evaluation's arrays: drop
        # them before the line search and the next convergence check
        direction = None
        alpha = min(1.0, _TO_BOUNDARY * _step_to_boundary(x, dx),
                    _TO_BOUNDARY * _step_to_boundary(z, dz))
        merit = problem.merit(ev, x, target)
        # halve the step until F is finite and the merit decreases enough,
        # allowing round-off in the merit once the step is tiny; stop when
        # the step no longer moves x, or is not finite
        trial = x + alpha * dx
        while np.all(np.isfinite(trial)) and not np.array_equal(trial, x):
            trial_ev = problem.evaluate(trial)
            if np.isfinite(trial_ev.F) and (
                    slope >= 0.0 or problem.merit(trial_ev, trial, target)
                    <= merit + _ARMIJO * alpha * slope + 1e-15 * abs(merit)):
                break
            alpha *= 0.5
            trial = x + alpha * dx
        else:
            break
        x, ev = trial, trial_ev
        lam = lam + alpha * d_lam
        z = z + alpha * dz

    P, M, R = problem.parts(x)[:3]
    return _SpeciesSolution(
        states=problem.states(R), flux=P - M,
        complementarity=float(np.sum(x * z)),
        stationarity=problem.stationarity(ev, lam, x, z),
        iterations=iteration, converged=converged)


def transport_cost(graph, start, end, k_steps, mobility, beta, exponents):
    """Nonlocal upwind transportation cost between two states.

    Minimizes sum_k dt * A(mu; (rho_k + rho_{k+1})/2, j_k) over discrete
    paths solving the per-interval continuity equation, with the states in
    the threshold box, by a primal-dual interior-point method on the exact
    problem of each species (see ``_SplitProblem``).  Returns
    (T, path, certificate) with T^p the raw action of the returned path.

    Raises
    ------
    ValueError
        When ``k_steps`` is not an integer >= 1, or the mobility is a bare
        callable rather than a formula (a preset or ``from_expression``),
        so that its exact derivatives are unknown.
    ThresholdExceeded
        When an endpoint leaves the box [0, cap] by more than the flow's
        slack ``STATE_TOL``.
    InfeasibleEndpoints
        When the species masses of the endpoints disagree on some connected
        component of the graph.
    NotApplicable
        When a species' starting path is not strictly interior: some state
        at a bound (a species without mass on a component, or at the cap
        there) or a midpoint mobility that is not positive; when the
        grounded Laplacian of the starting flux is singular in floating
        point on some component (see :func:`min_norm_flux`), as when its
        links' Laplacian weights eta^2 mu_lo mu_hi underflow to 0; or when
        the Newton band of the graph and ``k_steps`` holds more entries than
        LAPACK's 32-bit band indexing reaches.
    NotConverged
        When the solver stops short of its targets or the recomputed
        certificate exceeds its bounds (constraint residual 1e-7, optimality
        residual 1e-4); the partial certificate is attached to the exception.
    """
    if not (_is_integer(k_steps) and k_steps >= 1):
        raise ValueError(f"k_steps must be an integer >= 1, got {k_steps!r}")
    if not hasattr(mobility.fn, "jet"):
        raise ValueError(f"mobility {mobility.name!r} is not a formula, so the solver has no "
                         "exact derivatives of it; build it with from_expression")
    rho0 = np.asarray(getattr(start, "rho", start), dtype=float)
    rho1 = np.asarray(getattr(end, "rho", end), dtype=float)
    for rho in (rho0, rho1):
        check_slack(rho, mobility)
    mass0, mass1 = (_row_bincount(graph.component, rho * graph.weights, graph.ground.size)
                    for rho in (rho0, rho1))
    if np.max(np.abs(mass0 - mass1)) > 1e-10:
        raise InfeasibleEndpoints(f"species masses differ: {mass0} vs {mass1}")

    system = _NewtonSystem(graph, k_steps)
    beta = np.asarray(beta, dtype=float)
    solutions = [
        _interior_point(_SplitProblem(graph, rho0[i], rho1[i], k_steps, mobility, beta[i],
                                      exponents), system, i + 1)
        for i in range(2)
    ]
    path = DiscretePath(
        times=np.linspace(0.0, 1.0, k_steps + 1),
        states=np.stack([s.states for s in solutions], axis=1),
        fluxes=np.stack([s.flux for s in solutions], axis=1),
    )

    # certificate quantities recomputed at the returned path
    c_final = max(
        path.continuity_residual(graph),
        float(np.max(np.abs(path.states[-1] - rho1))),
    )
    objective = float(np.sum(geodesic_profile(graph, path, mobility, beta, exponents))) / k_steps
    # duality gap and scaled stationarity, both in units of the objective
    opt_res = max(sum(s.complementarity for s in solutions),
                  max(s.stationarity for s in solutions)) / (1.0 + objective)
    certificate = SolverCertificate(
        constraint_residual=c_final,
        optimality_residual=opt_res,
        iterations=sum(s.iterations for s in solutions),
        objective=objective,
        converged=all(s.converged for s in solutions)
        and c_final <= CONSTRAINT_BOUND and opt_res <= _OPTIMALITY_BOUND,
    )
    if not certificate.converged:
        raise NotConverged(
            f"constraint residual {c_final:.3e}, optimality residual {opt_res:.3e} "
            f"after {certificate.iterations} interior-point iterations",
            certificate=certificate,
        )
    return objective ** (1.0 / exponents.p), path, certificate


def geodesic_profile(graph, path, mobility, beta, exponents):
    """Per-interval action values A_k of a discrete path, one term per link.

    A continuum geodesic has constant speed, and the discrete optimum has a
    constant profile (to O(dt^2)) when both endpoints keep the source
    mobility positive.  Where it vanishes at an endpoint (an absorbing
    endpoint, e.g. all mass leaving a vertex) a boundary layer remains at
    every K: on the two-vertex unit-mass problem the final interval carries
    about 1.8 times the mean action.
    """
    return action(graph, path.midpoint_states(), path.fluxes, mobility, beta, exponents).total
