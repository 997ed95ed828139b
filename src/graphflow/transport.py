"""Upwind action, Finsler pairings, and the transportation quasi-metric.

The two-species action of a state/flux pair is

    A = 1/2 sum_i (1/beta_i) sum_(l,k) [alpha(j, rho_l, rho_k)
                                        + alpha(-j, rho_k, rho_l)] eta mu_l mu_k

with the convex density alpha(j, r, s) = (j_+)^p / m(r, s)^(p-1).  The
quasi-metric T(rho_0, rho_1) is the p-th root of the minimal time-integrated
action over discrete paths solving the continuity equation; the objective is
jointly convex thanks to the midpoint coupling of the interval densities.
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import (
    InfeasibleEndpoints,
    InfiniteAction,
    NonAntisymmetric,
    NotConverged,
)
from .graph import divergence_matrix, is_antisymmetric, nonlocal_divergence
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
            for i in range(2):
                res = (
                    self.states[k + 1, i]
                    - self.states[k, i]
                    + dt * nonlocal_divergence(self.fluxes[k, i], graph)
                )
                worst = max(worst, float(np.max(np.abs(res))))
        return worst


@dataclass(frozen=True)
class SolverCertificate:
    """Optimality evidence recomputed from the returned path, not solver internals."""

    constraint_residual: float
    optimality_residual: float
    iterations: int
    objective: float
    smoothing_gap: float
    smoothing_final: float
    converged: bool


@dataclass(frozen=True)
class SolverOptions:
    eps_constraint: float = 1e-7
    eps_optimality: float = 1e-4
    smoothing_schedule: tuple = (1e-2, 1e-4, 1e-6)
    max_outer: int = 30
    inner_maxiter: int = 4000
    penalty_init: float = 100.0
    box_penalty: float = 1e5
    penalty_growth: float = 10.0
    penalty_cap: float = 1e9


class _PathProblem:
    """Smoothed discrete transport objective in reduced (flux-only) form.

    The per-interval continuity constraints are eliminated exactly: the free
    variables are the interval fluxes and the states are their cumulative
    divergence sums from the fixed start state.  Only the final-state
    equality remains, handled by augmented-Lagrangian multipliers; the box
    constraints on the derived states enter through a quadratic penalty that
    is inactive at interior optima.  The mobility is floored at the
    smoothing level; where the floor binds its derivative vanishes.
    """

    def __init__(self, graph, rho0, rho1, k_steps, mobility, beta, exponents):
        self.graph = graph
        self.rho0 = rho0
        self.rho1 = rho1
        self.K = k_steps
        self.mobility = mobility
        self.beta = np.asarray(beta, dtype=float)
        self.exp = exponents
        self.dt = 1.0 / k_steps
        self.n = graph.n_vertices
        self.e = graph.n_edges
        self.weight = graph.edge_eta * graph.edge_pair_weight
        # dense divergence operator div(j) = D @ j and 0/1 edge->vertex scatters
        self.D = divergence_matrix(graph)
        self.S_src = np.zeros((self.n, self.e))
        self.S_dst = np.zeros((self.n, self.e))
        self.S_src[graph.edge_src, np.arange(self.e)] = 1.0
        self.S_dst[graph.edge_dst, np.arange(self.e)] = 1.0
        cap = mobility.threshold_cap
        mass_cap = float(np.max(rho0 @ graph.weights) / np.min(graph.weights))
        self.rho_hi = min(cap, mass_cap) if np.isfinite(cap) else mass_cap

    def states_of(self, fluxes):
        """Derived states: rho_k = rho_0 - dt * sum_{m<k} div(j_m); (K+1, 2, n)."""
        div = np.einsum("ve,kie->kiv", self.D, fluxes)
        increments = np.concatenate(
            [np.zeros((1, 2, self.n)), -self.dt * np.cumsum(div, axis=0)]
        )
        return self.rho0[None] + increments

    def _mobility_floored(self, r, s, eps):
        raw = self.mobility(r, s)
        floored = np.maximum(raw, eps)
        if self.mobility.grad_fn is not None:
            mp_r, mp_s = self.mobility.grad_fn(r, s)
            mp_r = np.broadcast_to(np.asarray(mp_r, dtype=float), raw.shape).copy()
            mp_s = np.broadcast_to(np.asarray(mp_s, dtype=float), raw.shape).copy()
        else:
            h = 1e-6
            mp_r = (self.mobility(r + h, s) - self.mobility(r - h, s)) / (2 * h)
            mp_s = (self.mobility(r, s + h) - self.mobility(r, s - h)) / (2 * h)
        active = raw <= eps  # floor clamps, derivative is zero there
        mp_r[active] = 0.0
        mp_s[active] = 0.0
        return floored, mp_r, mp_s

    def smoothed_action(self, states, fluxes, eps):
        """Time-integrated smoothed action of a state/flux path, with gradients
        with respect to the midpoint densities and the fluxes."""
        p = self.exp.p
        graph = self.graph
        mids = np.clip(0.5 * (states[:-1] + states[1:]), 0.0, None)
        r_src = mids[:, :, graph.edge_src]
        r_dst = mids[:, :, graph.edge_dst]
        coeff = self.dt * 0.5 * self.weight[None, None, :] / self.beta[None, :, None]
        value = 0.0
        g_flux = np.zeros_like(fluxes)
        g_mid = np.zeros_like(mids)
        for sign, rs, rd in ((1.0, r_src, r_dst), (-1.0, r_dst, r_src)):
            jp = positive_part(sign * fluxes)
            m, mp_r, mp_s = self._mobility_floored(rs, rd, eps)
            m_pow = m ** (p - 1.0)
            cost = jp**p / m_pow
            value += float(np.sum(coeff * cost))
            g_flux += sign * coeff * p * jp ** (p - 1.0) / m_pow
            d_m = coeff * (-(p - 1.0)) * cost / m
            # chain into the midpoint densities through both mobility slots;
            # for the reversed orientation the roles of src/dst swap
            if sign > 0:
                g_mid += np.einsum("kie,ve->kiv", d_m * mp_r, self.S_src)
                g_mid += np.einsum("kie,ve->kiv", d_m * mp_s, self.S_dst)
            else:
                g_mid += np.einsum("kie,ve->kiv", d_m * mp_r, self.S_dst)
                g_mid += np.einsum("kie,ve->kiv", d_m * mp_s, self.S_src)
        return value, g_mid, g_flux

    def lagrangian_grad(self, x, eps, lam, sigma, box_weight):
        fluxes = x.reshape(self.K, 2, self.e)
        states = self.states_of(fluxes)
        value, g_mid, g_flux = self.smoothed_action(states, fluxes, eps)
        g_states = np.zeros_like(states)
        g_states[:-1] += 0.5 * g_mid
        g_states[1:] += 0.5 * g_mid

        # quadratic box penalty on the derived states (start state is fixed)
        below = np.minimum(states[1:], 0.0)
        above = np.maximum(states[1:] - self.rho_hi, 0.0)
        value += 0.5 * box_weight * float(np.sum(below**2 + above**2))
        g_states[1:] += box_weight * (below + above)

        # endpoint equality via augmented Lagrangian
        gap = states[-1] - self.rho1
        value += float(np.sum(lam * gap)) + 0.5 * sigma * float(np.sum(gap * gap))
        g_states[-1] += lam + sigma * gap

        # chain state gradients back to fluxes: d states[k] / d flux[m] = -dt D
        # for m < k, i.e. a reversed cumulative sum over the state index
        suffix = np.cumsum(g_states[::-1], axis=0)[::-1]
        g_flux += -self.dt * np.einsum("ve,kiv->kie", self.D, suffix[1:])
        return value, g_flux.ravel()

    def endpoint_gap(self, x):
        states = self.states_of(x.reshape(self.K, 2, self.e))
        return states[-1] - self.rho1

    def initial_guess(self):
        taus = np.linspace(0.0, 1.0, self.K + 1)
        states = np.stack([(1 - t) * self.rho0 + t * self.rho1 for t in taus])
        delta = (states[1:] - states[:-1]) / self.dt
        return min_norm_flux(self.D, delta).ravel()


def min_norm_flux(div_matrix, rates):
    """Least-norm fluxes j with -div(j) = rate, (K, 2, n) rates -> (K, 2, e)."""
    return -np.einsum("ev,kiv->kie", np.linalg.pinv(div_matrix), rates)


def transport_cost(graph, start, end, k_steps, mobility, beta, exponents, options=None):
    """Nonlocal upwind transportation cost between two states.

    Minimizes sum_k dt * A(mu; (rho_k + rho_{k+1})/2, j_k) over discrete
    paths solving the per-interval continuity equation, with box constraints
    on the states, by a continuation scheme on the mobility floor around
    augmented-Lagrangian quasi-Newton solves in the reduced flux variables.
    Returns (T, path, certificate) with T = objective^(1/p) taken from the
    smoothed objective at the final continuation level.

    Raises
    ------
    InfeasibleEndpoints
        When the species masses of the endpoints disagree.
    NotConverged
        When the certificate targets are not met; the partial certificate is
        attached to the exception.
    """
    if k_steps < 8:
        raise ValueError("k_steps must be at least 8")
    options = options or SolverOptions()
    rho0 = np.asarray(getattr(start, "rho", start), dtype=float)
    rho1 = np.asarray(getattr(end, "rho", end), dtype=float)
    mass0 = rho0 @ graph.weights
    mass1 = rho1 @ graph.weights
    if np.max(np.abs(mass0 - mass1)) > 1e-10:
        raise InfeasibleEndpoints(f"species masses differ: {mass0} vs {mass1}")

    problem = _PathProblem(graph, rho0, rho1, k_steps, mobility, beta, exponents)
    x = problem.initial_guess()
    lam = np.zeros((2, problem.n))
    sigma = options.penalty_init
    box_weight = options.box_penalty
    total_iters = 0
    opt_res = np.inf

    n_levels = len(options.smoothing_schedule)
    for level, eps in enumerate(options.smoothing_schedule):
        final_level = level == n_levels - 1
        prev_gap = np.inf
        for _ in range(options.max_outer):
            gtol = min(1e-8, 0.1 * options.eps_optimality) if final_level else 1e-6
            result = optimize.minimize(
                problem.lagrangian_grad,
                x,
                args=(eps, lam, sigma, box_weight),
                jac=True,
                method="L-BFGS-B",
                options={
                    "maxiter": options.inner_maxiter,
                    "ftol": 1e-16,
                    "gtol": gtol,
                    "maxcor": 30,
                },
            )
            x = result.x
            total_iters += int(result.nit)
            gap = problem.endpoint_gap(x)
            gap_norm = float(np.max(np.abs(gap)))
            # first-order multiplier update; with it the plain-Lagrangian
            # gradient at x equals the augmented one the inner solver just
            # drove below gtol, so the optimality residual inherits that bound
            lam = lam + sigma * gap
            _, grad = problem.lagrangian_grad(x, eps, lam, 0.0, box_weight)
            opt_res = float(np.max(np.abs(grad)))
            states = problem.states_of(x.reshape(k_steps, 2, problem.e))
            box_violation = max(
                float(np.max(-states, initial=0.0)),
                float(np.max(states - problem.rho_hi, initial=0.0)),
            )
            if box_violation > 1e-9:
                box_weight *= 10.0
            if gap_norm <= options.eps_constraint and box_violation <= 1e-9 and (
                not final_level or opt_res <= options.eps_optimality
            ):
                break
            if gap_norm > max(options.eps_constraint, 0.3 * prev_gap) and sigma < options.penalty_cap:
                sigma *= options.penalty_growth
            prev_gap = gap_norm

    fluxes = x.reshape(k_steps, 2, problem.e)
    states = problem.states_of(fluxes)
    # snap round-off sized box violations so the raw action stays finite
    states = np.clip(states, 0.0, problem.rho_hi)
    path = DiscretePath(
        times=np.linspace(0.0, 1.0, k_steps + 1), states=states, fluxes=fluxes
    )

    # certificate quantities recomputed from the returned path
    c_final = max(
        path.continuity_residual(graph),
        float(np.max(np.abs(states[-1] - rho1))),
    )
    eps_final = options.smoothing_schedule[-1]
    smoothed_obj, _, _ = problem.smoothed_action(states, fluxes, eps_final)
    dt = 1.0 / k_steps
    mids = path.midpoint_states()
    raw_obj = 0.0
    for k in range(k_steps):
        raw_obj += dt * action(graph, mids[k], fluxes[k], mobility, beta, exponents).total
    certificate = SolverCertificate(
        constraint_residual=c_final,
        optimality_residual=opt_res,
        iterations=total_iters,
        objective=smoothed_obj,
        smoothing_gap=float(raw_obj - smoothed_obj),
        smoothing_final=eps_final,
        converged=c_final <= options.eps_constraint and opt_res <= options.eps_optimality,
    )
    if not certificate.converged:
        raise NotConverged(
            f"constraint residual {c_final:.3e}, optimality residual {opt_res:.3e}",
            certificate=certificate,
        )
    t_value = max(smoothed_obj, 0.0) ** (1.0 / exponents.p)
    return t_value, path, certificate


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
