"""Independent reference computations used as test oracles.

Everything here is deliberately written against the raw formulas, not the
package's own code paths, so the tests compare two independent routes.
Where the package stores one value per link, the oracles take every
ordered edge: both orientations of each link, as ``ordered_edges`` lists
them.
"""

import numpy as np
from scipy import optimize, sparse
from scipy.linalg import solve_banded

from graphflow.kernels import potentials
from graphflow.mobility import flux_law


def unit_transport_oracle(n_grid=8192, tol=1e-12, max_newton=80):
    """Brute-force value of the two-vertex unit-mass transport problem.

    Minimizes sum_k (du)^2 / ((1 - u_mid) dt) over monotone grid paths with
    u(0) = 0, u(1) = 1, parametrized by the source density w = 1 - u.  The
    stationarity system is tridiagonal and solved by damped Newton; the
    analytic substitution v = sqrt(w) gives exactly 4 in the continuum.

    Returns (objective, path u, monotone flag).
    """
    dt = 1.0 / n_grid
    t = np.linspace(0.0, 1.0, n_grid + 1)
    w = (1 - t) ** 2
    w[0], w[-1] = 1.0, 0.0

    def objective(w):
        d = w[1:] - w[:-1]
        s = np.maximum(w[1:] + w[:-1], 1e-300)
        return (2.0 / dt) * np.sum(d * d / s)

    fval = objective(w)
    for _ in range(max_newton):
        d = w[1:] - w[:-1]
        s = np.maximum(w[1:] + w[:-1], 1e-300)
        g_right = 2 * d / s - (d / s) ** 2
        g_left = -2 * d / s - (d / s) ** 2
        grad = (2.0 / dt) * (g_right[:-1] + g_left[1:])
        if np.max(np.abs(grad)) < tol * (2.0 / dt):
            break
        h_rr = 2 * (s - d) ** 2 / s**3
        h_ll = 2 * (s + d) ** 2 / s**3
        h_lr = -2 * (s**2 - d**2) / s**3
        banded = np.zeros((3, n_grid - 1))
        banded[0, 1:] = (2.0 / dt) * h_lr[1:-1]
        banded[1] = (2.0 / dt) * (h_rr[:-1] + h_ll[1:]) + 1e-30
        banded[2, :-1] = (2.0 / dt) * h_lr[1:-1]
        step = solve_banded((1, 1), banded, -grad)
        alpha = 1.0
        for _ in range(60):
            trial = w.copy()
            trial[1:-1] = w[1:-1] + alpha * step
            if np.all(trial[1:-1] > 0) and np.all(trial[1:-1] <= 1.0):
                ftrial = objective(trial)
                if ftrial <= fval:
                    w, fval = trial, ftrial
                    break
            alpha *= 0.5
        else:
            break
    u = 1.0 - w
    monotone = bool(np.all(np.diff(u) >= -1e-12))
    return fval, u, monotone


def interval_actions(u):
    """Per-interval action (du/dt)^2 / (1 - u_mid) of a unit-mass grid path.

    ``u`` is the mass moved across the edge on the uniform grid of [0, 1]
    (as returned by ``unit_transport_oracle``); 1 - u_mid is the linear
    mobility of the source vertex at the interval midpoint.  dt times the
    sum of the returned values is the path's objective.
    """
    u = np.asarray(u, dtype=float)
    dt = 1.0 / (u.size - 1)
    rate = np.diff(u) / dt
    u_mid = 0.5 * (u[1:] + u[:-1])
    return rate**2 / (1.0 - u_mid)


def rk4_reference(rhs, y0, t_final, n_steps):
    """Classical fixed-step RK4, independent of the adaptive integrator."""
    y = np.array(y0, dtype=float)
    dt = t_final / n_steps
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def w1_one_dimensional(positions_a, masses_a, positions_b, masses_b):
    """Exact W1 on the line via the cumulative distribution formula."""
    xs = np.concatenate([np.ravel(positions_a), np.ravel(positions_b)])
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    signed = np.concatenate([np.ravel(masses_a), -np.ravel(masses_b)])[order]
    cdf_gap = np.cumsum(signed)[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(xs_sorted)))


def w1_plane_lp(positions_a, masses_a, positions_b, masses_b):
    """Exact W1 between atomic measures in any dimension: the optimum of the
    transport LP over plans with row sums ``masses_a`` and column sums
    ``masses_b``, at the Euclidean cost of each pair."""
    pa, pb = np.asarray(positions_a, dtype=float), np.asarray(positions_b, dtype=float)
    ma, mb = np.ravel(masses_a), np.ravel(masses_b)
    na, nb = ma.size, mb.size
    cost = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1).ravel()
    # row and column sums of the row-major flattened plan; one of the na + nb
    # constraints is implied by the equal totals
    rows = sparse.kron(sparse.eye(na), np.ones((1, nb)))
    cols = sparse.kron(np.ones((1, na)), sparse.eye(nb))
    a_eq = sparse.vstack([rows, cols], format="csr")[:-1]
    b_eq = np.concatenate([ma, mb])[:-1]
    result = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.success, result.message
    return float(result.fun)


def blowup_profile_loop(graph, exponents):
    """Local blow-up profile by one masked pass per distinct edge length.

    Maps each eps in the sorted distinct edge lengths to
    max_l sum over edges (l, k) shorter than eps of |x_l - x_k|^q eta mu_k;
    O(e) per grid point, so O(e^2) in all.
    """
    src, dst, eta = ordered_edges(graph)
    lengths = np.linalg.norm(graph.points[dst] - graph.points[src], axis=1)
    qterm = lengths**exponents.q * eta * graph.weights[dst]
    profile = []
    for eps in np.unique(lengths):
        mask = lengths < eps
        if not np.any(mask):
            profile.append((float(eps), 0.0))
            continue
        sums = np.bincount(src[mask], weights=qterm[mask], minlength=graph.n_vertices)
        profile.append((float(eps), float(np.max(sums))))
    return profile


def ordered_edges(graph):
    """Every ordered edge (src, dst) with its weight eta: the links' (lo, hi)
    in link order, then their (hi, lo) in the same order."""
    src = np.concatenate([graph.link_lo, graph.link_hi])
    dst = np.concatenate([graph.link_hi, graph.link_lo])
    return src, dst, np.concatenate([graph.link_eta, graph.link_eta])


def edge_field(a):
    """The antisymmetric edge field (..., 2 links) on ``ordered_edges`` with
    link values ``a`` (..., links): a on (lo, hi) and -a on (hi, lo)."""
    return np.concatenate([a, np.negative(a)], axis=-1)


def _edge_weight(graph):
    src, dst, eta = ordered_edges(graph)
    return eta * (graph.weights[src] * graph.weights[dst])


def dense_eta(graph):
    """The (n, n) edge weights, rebuilt from the links; zero off the edges."""
    eta = np.zeros((graph.n_vertices, graph.n_vertices))
    eta[graph.link_lo, graph.link_hi] = graph.link_eta
    eta += eta.T
    return eta


def ordered_edge_divergence(j, graph):
    """div(l) = (1/2) sum_k eta(l,k) mu_k (j(l,k) - j(k,l)) of one field (2 links,)
    on ``ordered_edges``, as two bincounts: the outgoing and the incoming sums."""
    n = graph.n_vertices
    src, dst, eta = ordered_edges(graph)
    weighted = eta * j
    outgoing = np.bincount(src, weights=weighted * graph.weights[dst], minlength=n)
    incoming = np.bincount(dst, weights=weighted * graph.weights[src], minlength=n)
    return 0.5 * (outgoing - incoming)


def run_divergence(j, graph):
    """The divergence of one link field (links,) summed in the order
    ``nonlocal_divergence`` sums it, written out per vertex: the terms
    eta mu_hi j of its links as their lo end, in link order, then the terms
    -eta mu_lo j of its links as their hi end, in link order, each run
    reduced as numpy reduces a run (its first term plus the sum of the
    rest) and the second run's sum added to the first's."""
    lo, hi, eta = graph.link_lo, graph.link_hi, graph.link_eta
    at_lo, at_hi = eta * graph.weights[hi] * j, -eta * graph.weights[lo] * j

    def run(terms):
        return terms[0] + np.sum(terms[1:]) if terms.size else 0.0

    return np.array([run(at_lo[lo == v]) + run(at_hi[hi == v]) for v in range(graph.n_vertices)])


def masked_alpha_density(j, r, s, mobility, exponents):
    """Upwind cost density (j_+)^p / m(r,s)^(p-1) with boolean gathers and
    scatters: the mobility is evaluated only inside [0, R] x [0, S] and the
    ratio only where the flux and the mobility are positive; inf outside the
    box and for a/0, and 0/0 = 0."""
    j, r, s = np.broadcast_arrays(
        np.asarray(j, dtype=float), np.asarray(r, dtype=float), np.asarray(s, dtype=float)
    )
    p = exponents.p
    out = np.zeros(j.shape, dtype=float)
    outside = (r < 0) | (s < 0) | (r > mobility.R) | (s > mobility.S)
    jp = np.maximum(j, 0.0)
    inside = ~outside
    m_vals = np.zeros_like(out)
    if np.any(inside):
        m_vals[inside] = mobility(r[inside], s[inside])
    active = inside & (jp > 0)
    degenerate = active & (m_vals <= 0)
    regular = active & (m_vals > 0)
    out[regular] = jp[regular] ** p / m_vals[regular] ** (p - 1.0)
    out[degenerate] = np.inf
    out[outside] = np.inf
    if out.ndim == 0:
        return float(out)
    return out



def ordered_edge_action(graph, rho_pair, flux_pair, mobility, beta, exponents):
    """Per-species action of a (2, 2 links) field on ``ordered_edges``, from the
    masked cost densities: (1/2) sum over the edges of [alpha(j, rho_src,
    rho_dst) + alpha(-j, rho_dst, rho_src)] eta mu_src mu_dst / beta."""
    src, dst, _ = ordered_edges(graph)
    weight = _edge_weight(graph)
    parts = []
    for i in range(2):
        r_src, r_dst = rho_pair[i][src], rho_pair[i][dst]
        fwd = masked_alpha_density(flux_pair[i], r_src, r_dst, mobility, exponents)
        bwd = masked_alpha_density(-flux_pair[i], r_dst, r_src, mobility, exponents)
        parts.append(0.5 * float(np.sum((fwd + bwd) * weight)) / float(beta[i]))
    return parts


def ordered_edge_dual_action(graph, rho_pair, velocity_pair, mobility, beta, exponents):
    """Per-species velocity-form action of an antisymmetric (2, 2 links) field on
    ``ordered_edges`` with boolean gathers and scatters: the sum over the
    edges of m(rho_src, rho_dst) (v_+)^q eta mu_src mu_dst / beta, zero where
    v_+ or m vanishes."""
    src, dst, _ = ordered_edges(graph)
    weight = _edge_weight(graph)
    parts = []
    for i in range(2):
        m_fwd = mobility(rho_pair[i][src], rho_pair[i][dst])
        vp = np.maximum(velocity_pair[i], 0.0)
        vals = np.zeros_like(vp)
        active = (vp > 0) & (m_fwd > 0)
        vals[active] = vp[active] ** exponents.q * m_fwd[active]
        parts.append(float(np.sum(vals * weight)) / float(beta[i]))
    return parts


def _ordered_edge_state(system, trajectory, k):
    """Descent velocities phi(src) - phi(dst) (2, 2 links) of state k and its
    flux on every ordered edge: the trajectory's own, or the flux law at the
    state clipped to the box."""
    mobility = system.mobility
    src, dst, _ = ordered_edges(system.graph)
    rho = trajectory.states[k]
    phi = potentials(system, rho)
    velocities = phi[:, src] - phi[:, dst]
    if trajectory.node_fluxes is not None:
        return velocities, edge_field(np.asarray(trajectory.node_fluxes[k], dtype=float))
    cap = mobility.threshold_cap
    rho_box = np.clip(rho, 0.0, cap if np.isfinite(cap) else None)
    scaled = system.kernels.beta[:, None] * velocities
    r_src, r_dst = rho_box[:, src], rho_box[:, dst]
    return velocities, flux_law(scaled, mobility(r_src, r_dst), mobility(r_dst, r_src),
                                system.exponents)


def de_giorgi_ordered_edges(system, trajectory):
    """Dissipation and action series of a trajectory, and its G_T, on (2, 2 links) fields.

    Per state: the descent velocities on every ordered edge, the velocity-form
    action of their beta-scaled values, and the action of the flux on every
    ordered edge, with the trapezoidal rule on the stored grid.  Returns
    (dissipations, actions, g_t).
    """
    graph, beta = system.graph, system.kernels.beta
    mobility, exponents = system.mobility, system.exponents
    diss, act = [], []
    for k, rho in enumerate(trajectory.states):
        velocities, flux = _ordered_edge_state(system, trajectory, k)
        diss.append(sum(ordered_edge_dual_action(graph, rho, beta[:, None] * velocities,
                                                 mobility, beta, exponents)))
        act.append(sum(ordered_edge_action(graph, rho, flux, mobility, beta, exponents)))
    diss, act = np.array(diss), np.array(act)
    g_t = (trajectory.energies[-1] - trajectory.energies[0]
           + np.trapezoid(diss / exponents.q, trajectory.times)
           + np.trapezoid(act / exponents.p, trajectory.times))
    return diss, act, float(g_t)


def chain_rule_residual_ordered_edges(system, trajectory):
    """Spread of E(t) minus the trapezoidal integral of the velocity-side
    pairing of each state's flux with its ascent direction, on (2, 2 links)
    fields: the velocity v inverting the flux law at the flux, and
    (1/2) sum over the edges of vbar flux_law(v) eta mu mu / beta."""
    graph, beta = system.graph, system.kernels.beta
    mobility, exponents = system.mobility, system.exponents
    src, dst, _ = ordered_edges(graph)
    weight = _edge_weight(graph)
    pm1 = exponents.p - 1.0
    integrand = []
    for k, rho in enumerate(trajectory.states):
        velocities, flux = _ordered_edge_state(system, trajectory, k)
        r_src, r_dst = rho[:, src], rho[:, dst]
        m_fwd, m_bwd = mobility(r_src, r_dst), mobility(r_dst, r_src)
        with np.errstate(divide="ignore", invalid="ignore"):
            vel = np.where((flux > 0) & (m_fwd > 0), (flux / m_fwd) ** pm1,
                           np.where((flux < 0) & (m_bwd > 0), -((-flux / m_bwd) ** pm1), 0.0))
        kernel = flux_law(vel, m_fwd, m_bwd, exponents)
        ascent = -beta[:, None] * velocities
        integrand.append(float(np.sum(0.5 * np.sum(ascent * kernel * weight, axis=1) / beta)))
    integrand = np.array(integrand)
    steps = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(trajectory.times)
    defect = trajectory.energies - np.concatenate([[0.0], np.cumsum(steps)])
    return float(np.max(defect) - np.min(defect))


def newton_matrix_dense(graph, k_steps, hess, cross, weight, state_diagonal):
    """Dense reduced Newton matrix of one species, by elements.

    Link u on interval k is a symmetric 6 x 6 element on (R_k[lo], R_k[hi],
    R_{k+1}[lo], R_{k+1}[hi], lambda_k[lo], lambda_k[hi]): 0.25 H in each of
    its four state-state 2 x 2 blocks, 0.5 c d^T in both state-multiplier
    blocks (c the ``cross`` pair, d the link's divergence pair) with the
    transpose below, and w d d^T in the multiplier block.  Elements are
    summed into the full layout R_0, lambda_0, R_1, ..., lambda_{K-1}, R_K
    with the (K-1, n) state diagonal on R_1..R_{K-1} and +1 (-1) coupling
    lambda_k with R_{k+1} (R_k); then R_0, R_K and the last interval's
    continuity row at each component's ground vertex are dropped.
    """
    n, K = graph.n_vertices, k_steps
    lo, hi = graph.link_lo, graph.link_hi
    h_ll, h_lh, h_hh = hess
    c_lo, c_hi = cross
    div = np.stack([graph.link_div_lo, graph.link_div_hi], -1)  # (links, 2)
    full = np.zeros(((2 * K + 1) * n, (2 * K + 1) * n))
    for k in range(K):
        index = np.stack([2 * k * n + lo, 2 * k * n + hi, 2 * (k + 1) * n + lo,
                          2 * (k + 1) * n + hi, (2 * k + 1) * n + lo, (2 * k + 1) * n + hi], -1)
        element = np.zeros((lo.size, 6, 6))
        hess_k = np.stack([np.stack([h_ll[k], h_lh[k]], -1), np.stack([h_lh[k], h_hh[k]], -1)], -2)
        cross_k = np.stack([c_lo[k], c_hi[k]], -1)[:, :, None] * div[:, None, :]
        for rows in (slice(0, 2), slice(2, 4)):
            for cols in (slice(0, 2), slice(2, 4)):
                element[:, rows, cols] = 0.25 * hess_k
            element[:, rows, 4:] = 0.5 * cross_k
            element[:, 4:, rows] = 0.5 * np.swapaxes(cross_k, -1, -2)
        element[:, 4:, 4:] = weight[k][:, None, None] * (div[:, :, None] * div[:, None, :])
        np.add.at(full, (index[:, :, None], index[:, None, :]), element)
        vertices = np.arange(n)
        for state, sign in ((2 * (k + 1) * n + vertices, 1.0), (2 * k * n + vertices, -1.0)):
            full[state, (2 * k + 1) * n + vertices] += sign
            full[(2 * k + 1) * n + vertices, state] += sign
    for k in range(1, K):
        full[2 * k * n + np.arange(n), 2 * k * n + np.arange(n)] += state_diagonal[k - 1]
    kept = np.ones(full.shape[0], dtype=bool)
    kept[:n] = kept[2 * K * n:] = False
    kept[(2 * K - 1) * n + graph.ground] = False
    return full[np.ix_(kept, kept)]


def newton_band_by_entry_maps(graph, k_steps, hess, cross, weight, state_diagonal):
    """LAPACK band (and kl = ku) of the reduced Newton matrix of one species,
    assembled through one index per band entry.

    Each block's data row is summed by a bincount over its pattern's slots
    (the diagonal, then each link's (lo, hi) and (hi, lo) entry); every
    nonzero block of the full layout R_0, lambda_0, ..., R_K, and the mirror
    of each block off the diagonal through the transposed slots, is mapped
    entry by entry onto the kept rows and columns; the band is one scatter
    of one gather of the data, plus the +-1 continuity coupling.  Sums run
    in the same order as the solver's, so the bands agree value for value.
    """
    n, K = graph.n_vertices, k_steps
    lo, hi, links = graph.link_lo, graph.link_hi, graph.n_links
    vertices, link_ids = np.arange(n), np.arange(links)
    pattern_rows = np.concatenate([vertices, lo, hi])
    pattern_cols = np.concatenate([vertices, hi, lo])
    width = pattern_rows.size
    lo_hi, hi_lo = n + link_ids, n + links + link_ids
    slots = np.concatenate([lo, lo_hi, hi_lo, hi])  # a link's (ll, lh, hl, hh) entries
    transpose = np.concatenate([vertices, hi_lo, lo_hi])

    def block_data(ll, lh, hl, hh):
        weights = np.concatenate([ll, lh, hl, hh], axis=1)
        flat = (np.arange(weights.shape[0])[:, None] * width + slots).ravel()
        return np.bincount(flat, weights=weights.ravel(),
                           minlength=weights.shape[0] * width).reshape(-1, width)

    # (block row, block column, data row, continuity coupling), R_k block 2k
    inner, k = np.arange(1, K), np.arange(K)
    blocks = np.concatenate([np.stack(np.broadcast_arrays(*block)) for block in (
        (2 * inner, 2 * inner, inner - 1, 0),  # R_k-R_k
        (2 * inner[:-1], 2 * inner[:-1] + 2, K - 1 + inner[:-1], 0),  # R_k-R_{k+1}
        (2 * inner, 2 * inner + 1, 2 * K - 1 + inner, -1),  # R_k-lambda_k
        (2 * k[:-1] + 2, 2 * k[:-1] + 1, 2 * K - 1 + k[:-1], 1),  # R_{k+1}-lambda_k
        (2 * k + 1, 2 * k + 1, 3 * K - 1 + k, 0),  # lambda_k-lambda_k
    )], axis=1)
    mirror = blocks[:, blocks[0] != blocks[1]]
    block_row = np.concatenate([blocks[0], mirror[1]])
    block_col = np.concatenate([blocks[1], mirror[0]])
    data_row = np.concatenate([blocks[2], mirror[2]])
    coupling = np.concatenate([blocks[3], mirror[3]])
    slot = np.concatenate([np.broadcast_to(np.arange(width), (blocks.shape[1], width)),
                           np.broadcast_to(transpose, (mirror.shape[1], width))])
    kept = np.ones((2 * K + 1) * n, dtype=bool)
    kept[:n] = kept[2 * K * n:] = False
    kept[(2 * K - 1) * n + graph.ground] = False
    size = int(kept.sum())
    position = np.full(kept.size, -1)
    position[kept] = np.arange(size)
    rows = position[block_row[:, None] * n + pattern_rows]
    cols = position[block_col[:, None] * n + pattern_cols]
    valid = (rows >= 0) & (cols >= 0)
    rows, cols = rows[valid], cols[valid]
    kl = int(np.max(np.abs(rows - cols), initial=0))
    ldab = 3 * kl + 1
    band_index = cols * ldab + 2 * kl + rows - cols
    sign = (coupling[:, None] * (slot < n))[valid]
    gather = (data_row[:, None] * width + slot)[valid]

    h_ll, h_lh, h_hh = hess
    c_lo, c_hi = cross
    d_lo, d_hi = graph.link_div_lo, graph.link_div_hi
    quarter = 0.25 * block_data(h_ll, h_lh, h_lh, h_hh)
    diagonal = quarter[:-1] + quarter[1:]
    diagonal[:, :n] += state_diagonal
    half_cross = 0.5 * block_data(c_lo * d_lo, c_lo * d_hi, c_hi * d_lo, c_hi * d_hi)
    multiplier_lh = weight * (d_lo * d_hi)
    multiplier = block_data(weight * (d_lo * d_lo), multiplier_lh, multiplier_lh,
                            weight * (d_hi * d_hi))
    data = np.concatenate([diagonal, quarter, half_cross, multiplier], axis=None)
    flat_band = np.zeros(ldab * size)
    flat_band[band_index] = data[gather]
    flat_band[band_index[sign > 0]] += 1.0
    flat_band[band_index[sign < 0]] -= 1.0
    return flat_band.reshape(size, ldab).T, kl
