"""Dissipation, De Giorgi residuals, moments, W1 distance, and property suites.

The De Giorgi functional of a trajectory is

    G_T = E(rho_T) - E(rho_0) + int_0^T (1/q) D(rho_t) + (1/p) |rho'_t|^p dt,

where the metric-derivative integrand is taken as the action of the
trajectory's own flux: an upper bound for |rho'|^p in general and exact for
gradient-flow trajectories, whose flux is the steepest-descent one.
Weak solutions are exactly the curves with G_T = 0; numerically G_T is
bounded by integrator plus quadrature error.

The functions that need the energy take a :class:`~graphflow.kernels.System`
first; those that need only the graph take the graph first.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import transport
from .dynamics import SpeciesPairState, integrate
from .errors import MassMismatch
from .graph import Exponents, build_graph, nonlocal_divergence, nonlocal_gradient
from .kernels import (
    System,
    build_kernel_set,
    distance,
    energy_from_potentials,
    potentials,
    zero,
)
from .mobility import (check_slack, cost_density, dual_density, flux_law, link_mobility, linear,
                       velocity_law)


def dissipation(system, rho_pair):
    """D(rho): dual action of the beta-scaled descent velocities, one term per link."""
    graph, beta = system.graph, system.kernels.beta
    rho_pair = np.asarray(rho_pair, dtype=float)
    scaled = nonlocal_gradient(graph, potentials(system, rho_pair))
    scaled *= -beta[:, None]
    return transport.dual_action(graph, rho_pair, scaled, system.mobility, beta,
                                 system.exponents).total


@dataclass(frozen=True)
class DeGiorgiReport:
    energy_start: float
    energy_end: float
    dissipation_integral: float  # int (1/q) D dt
    velocity_integral: float  # int (1/p) A dt, action-based upper bound
    g_t: float
    series: tuple  # ((t, energy, dissipation, action), ...)


def _state_terms(system, trajectory, k):
    """Energy, beta-scaled descent velocities and flux of state k, with the
    mobility at its links in both orientations and its links outside the box.

    One potentials evaluation gives the energy (the trajectory's stored
    energies are not read) and the velocities; one
    :func:`~graphflow.mobility.link_mobility` gives the mobilities and the
    mask, which the flux, the dissipation and the action all take.  A curve
    without ``node_fluxes`` (as :func:`graphflow.dynamics.integrate` returns
    them) takes the flux law at each state, bit for bit the integrator's
    flux there, and refuses a state beyond the slack as it does.
    """
    graph, mobility = system.graph, system.mobility
    rho = np.asarray(trajectory.states[k], dtype=float)
    node_fluxes = getattr(trajectory, "node_fluxes", None)
    if node_fluxes is None:
        check_slack(rho, mobility)
    phi = potentials(system, rho)
    fwd, bwd, outside = link_mobility(graph, rho, mobility)
    scaled = nonlocal_gradient(graph, phi)
    scaled *= -system.kernels.beta[:, None]
    flux = (flux_law(scaled, fwd, bwd, system.exponents) if node_fluxes is None
            else np.asarray(node_fluxes[k], dtype=float))
    return energy_from_potentials(graph, phi, rho), scaled, flux, (fwd, bwd), outside


def _de_giorgi_terms(system, trajectory, k):
    """Energy, dissipation and action of state k, by the kernels of
    :func:`~graphflow.transport.dual_action` and
    :func:`~graphflow.transport.action` on the state's shared link terms."""
    graph, beta, exponents = system.graph, system.kernels.beta, system.exponents
    energy, scaled, flux, (fwd, bwd), outside = _state_terms(system, trajectory, k)
    diss = transport.link_total(graph, dual_density(scaled, fwd, bwd, exponents), beta)
    terms = cost_density(flux, fwd, exponents, outside)
    terms += cost_density(-flux, bwd, exponents, outside)
    return energy, diss.total, transport.link_total(graph, terms, beta).total


def de_giorgi(system, trajectory):
    """Assemble the De Giorgi report by trapezoidal quadrature on the stored grid.

    The residual budget is roughly 10x the integrator tolerance times the
    horizon plus an O(max_dt^2) quadrature term, so cap the step size when a
    tight certificate is needed (the acceptance runs use max_dt = 1/128).
    Each state is evaluated once (:func:`_state_terms`): its potentials give
    its energy and descent velocities, and one mobility evaluation per link
    and orientation feeds its flux, its dissipation (the dual action of the
    scaled velocities) and the action of its flux.
    """
    times = trajectory.times
    energies = np.empty(len(times))
    diss = np.empty(len(times))
    act = np.empty(len(times))
    for k in range(len(times)):
        energies[k], diss[k], act[k] = _de_giorgi_terms(system, trajectory, k)
    q = system.exponents.q
    p = system.exponents.p
    diss_integral = float(np.trapezoid(diss / q, times))
    vel_integral = float(np.trapezoid(act / p, times))
    e0 = float(energies[0])
    e1 = float(energies[-1])
    series = tuple(
        (float(times[k]), float(energies[k]), float(diss[k]), float(act[k]))
        for k in range(len(times))
    )
    return DeGiorgiReport(
        energy_start=e0,
        energy_end=e1,
        dissipation_integral=diss_integral,
        velocity_integral=vel_integral,
        g_t=e1 - e0 + diss_integral + vel_integral,
        series=series,
    )


def _chain_rule_terms(system, trajectory, k):
    """Energy of state k and the velocity-side pairing of its flux with its
    ascent direction, by the kernels of
    :func:`~graphflow.transport.pairing_l_tilde` on its shared link terms."""
    graph, beta, exponents = system.graph, system.kernels.beta, system.exponents
    energy, scaled, flux, link_mobility, _ = _state_terms(system, trajectory, k)
    vel = velocity_law(flux, *link_mobility, exponents)
    kernel = flux_law(vel, *link_mobility, exponents)
    return energy, transport.link_total(graph, np.negative(scaled) * kernel, beta).total


def chain_rule_residual(system, trajectory):
    """Max over subintervals of |E(t) - E(s) - int_s^t l~(v)[beta grad dE]|.

    Velocities are recovered from the trajectory's fluxes by the dual
    representation; along gradient flows the integrand equals -D(rho).  The
    energies, like those of :func:`de_giorgi`, come from each state's
    potentials, not from the trajectory's stored energies, and each state's
    mobility is evaluated once per link and orientation.
    """
    times = trajectory.times
    energies = np.empty(len(times))
    integrand = np.empty(len(times))
    for k in range(len(times)):
        energies[k], integrand[k] = _chain_rule_terms(system, trajectory, k)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times))]
    )
    defect = energies - cumulative
    return float(np.max(defect) - np.min(defect))


def moment(graph, density, order):
    """p-th moment sum |x|^order rho mu; accepts one density or a species pair."""
    if order <= 0:
        raise ValueError("moment order must be positive")
    density = np.asarray(density, dtype=float)
    norms = np.linalg.norm(graph.points, axis=1) ** order
    if density.ndim == 2:
        return float(np.sum(density * (norms * graph.weights)[None, :]))
    return float(np.sum(density * norms * graph.weights))


def w1_distance(positions_a, masses_a, positions_b, masses_b):
    """Exact 1-Wasserstein distance between atomic measures.

    On the line it is the L1 distance between the two cumulative
    distribution functions; in higher dimensions it is the optimum of the
    transport LP.
    """
    positions_a = np.atleast_2d(np.asarray(positions_a, dtype=float))
    positions_b = np.atleast_2d(np.asarray(positions_b, dtype=float))
    masses_a = np.asarray(masses_a, dtype=float).ravel()
    masses_b = np.asarray(masses_b, dtype=float).ravel()
    if positions_a.shape[0] == 1 and masses_a.size > 1:
        positions_a = positions_a.T
    if positions_b.shape[0] == 1 and masses_b.size > 1:
        positions_b = positions_b.T
    total_a, total_b = float(np.sum(masses_a)), float(np.sum(masses_b))
    if abs(total_a - total_b) > 1e-10 * max(1.0, total_a):
        raise MassMismatch(f"total masses differ: {total_a} vs {total_b}")
    keep_a = masses_a > 0
    keep_b = masses_b > 0
    pa, ma = positions_a[keep_a], masses_a[keep_a]
    pb, mb = positions_b[keep_b], masses_b[keep_b]
    na, nb = len(ma), len(mb)
    if na == 0 or nb == 0:
        return 0.0
    if pa.shape[1] == 1 and pb.shape[1] == 1:
        xs = np.concatenate([pa[:, 0], pb[:, 0]])
        order = np.argsort(xs, kind="stable")
        cdf_gap = np.cumsum(np.concatenate([ma, -mb])[order])[:-1]
        return float(np.sum(np.abs(cdf_gap) * np.diff(xs[order])))
    from scipy.optimize import linprog  # deferred: importing scipy.optimize is slow

    cost = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1).ravel()
    # transportation polytope: row sums ma, column sums mb of the row-major
    # flattened plan; one of the na + nb constraints is implied by the equal totals
    rows = sparse.kron(sparse.eye(na), np.ones((1, nb)))
    cols = sparse.kron(np.ones((1, na)), sparse.eye(nb))
    a_eq = sparse.vstack([rows, cols], format="csr")[:-1]
    b_eq = np.concatenate([ma, mb])[:-1]
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"transport LP failed: {result.message}")
    return float(result.fun)


def w1_between_states(state_a, state_b, graph_a, graph_b=None):
    """Two-species W1: sum over species of W1 between the vertex mass vectors."""
    graph_b = graph_b or graph_a
    rho_a = np.asarray(getattr(state_a, "rho", state_a), dtype=float)
    rho_b = np.asarray(getattr(state_b, "rho", state_b), dtype=float)
    total = 0.0
    for i in range(2):
        total += w1_distance(
            graph_a.points, rho_a[i] * graph_a.weights, graph_b.points, rho_b[i] * graph_b.weights
        )
    return total


def flux_bound_report(graph, rho_pair, flux_pair, mobility, beta, exponents):
    """Weighted flux integrals for the standard test factors, and their ratio
    to action^(1/p).  No constant is asserted; the ratio is informational.
    The integrals run over both orientations of every edge, so each link
    counts twice."""
    lengths = graph.link_lengths
    weight = 2.0 * graph.link_weight
    act = transport.action(graph, rho_pair, flux_pair, mobility, beta, exponents).total
    abs_flux = np.sum(np.abs(np.asarray(flux_pair, dtype=float)), axis=0)
    phi1 = float(np.sum(np.minimum(2.0, lengths) * abs_flux * weight))
    phi2 = float(np.sum(np.maximum(lengths, lengths**exponents.p) * abs_flux * weight))
    root = act ** (1.0 / exponents.p) if np.isfinite(act) else np.inf
    return {
        "action": act,
        "phi1_integral": phi1,
        "phi2_integral": phi2,
        "phi1_ratio": phi1 / root if root > 0 else 0.0,
        "phi2_ratio": phi2 / root if root > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# randomized property suites
# ---------------------------------------------------------------------------

@dataclass
class HarnessFailure:
    sample: int
    description: str
    magnitude: float


@dataclass
class HarnessReport:
    suite: str
    seed: int
    n_samples: int
    max_violation: float = 0.0
    failures: list = field(default_factory=list)
    note: str = ""

    @property
    def passed(self):
        return not self.failures and not self.note


def _random_setup(rng, n_min=3, n_max=6):
    n = int(rng.integers(n_min, n_max + 1))
    points = rng.uniform(-1.5, 1.5, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    eta = rng.uniform(0.2, 1.0, size=(n, n))
    eta = 0.5 * (eta + eta.T)
    np.fill_diagonal(eta, 0.0)
    graph = build_graph(points, weights, eta)
    p = float(rng.uniform(1.3, 3.5))
    exponents = Exponents(p)
    rho = rng.uniform(0.05, 1.0, size=(2, n))
    rho /= (rho @ graph.weights)[:, None]
    beta = rng.uniform(0.5, 2.0, size=2)
    return graph, exponents, rho, beta


def _random_fluxes(rng, graph, scale=1.0):
    """A random (2, links) field pair."""
    return rng.normal(scale=scale, size=(2, graph.n_links))


def _suite_holder_l(rng, tol, scale=1.0):
    graph, exponents, rho, beta = _random_setup(rng)
    mob = linear()
    pair = _random_fluxes(rng, graph, scale)
    pair_bar = _random_fluxes(rng, graph, scale)
    lhs = transport.pairing_l(graph, rho, pair, pair_bar, mob, beta, exponents)
    diag = transport.pairing_l(graph, rho, pair, pair, mob, beta, exponents)
    diag_bar = transport.pairing_l(graph, rho, pair_bar, pair_bar, mob, beta, exponents)
    rhs_val = diag_bar ** (1.0 / exponents.p) * diag ** (1.0 / exponents.q)
    violation = lhs - rhs_val
    return violation > tol, float(violation)


def _suite_holder_ltilde(rng, tol, scale=1.0):
    graph, exponents, rho, beta = _random_setup(rng)
    mob = linear()
    v = _random_fluxes(rng, graph, scale)
    vbar = _random_fluxes(rng, graph, scale)
    lhs = transport.pairing_l_tilde(graph, rho, v, vbar, mob, beta, exponents)
    diag = transport.pairing_l_tilde(graph, rho, v, v, mob, beta, exponents)
    diag_bar = transport.pairing_l_tilde(graph, rho, vbar, vbar, mob, beta, exponents)
    rhs_val = diag ** (1.0 / exponents.p) * diag_bar ** (1.0 / exponents.q)
    violation = lhs - rhs_val
    return violation > tol, float(violation)


def _suite_minkowski(rng, tol, scale=1.0):
    graph, exponents, rho, beta = _random_setup(rng)
    mob = linear()
    j = _random_fluxes(rng, graph, scale)
    jbar = _random_fluxes(rng, graph, scale)
    lam = float(rng.uniform(0.1, 3.0))
    norm = transport.minkowski_norm(graph, rho, j, mob, beta, exponents)
    norm_scaled = transport.minkowski_norm(graph, rho, lam * j, mob, beta, exponents)
    homogeneity = abs(norm_scaled - lam * norm)
    norm_bar = transport.minkowski_norm(graph, rho, jbar, mob, beta, exponents)
    norm_sum = transport.minkowski_norm(graph, rho, j + jbar, mob, beta, exponents)
    triangle = norm_sum - (norm + norm_bar)
    violation = max(homogeneity, triangle)
    return violation > tol, float(violation)


def _suite_antisym(rng, tol, scale=1.0):
    """A raw edge field, f on every (lo, hi) and b on (hi, lo), has the action
    (A(f) + A(-b)) / 2: each orientation's two alpha terms are those of a
    link field.  Its antisymmetric part (f - b) / 2 has the same divergence
    and, A being convex, never a larger action."""
    graph, exponents, rho, beta = _random_setup(rng)
    mob = linear()
    f = scale * np.abs(rng.normal(size=(2, graph.n_links)))
    b = scale * np.abs(rng.normal(size=(2, graph.n_links)))
    act_raw = 0.5 * (transport.action(graph, rho, f, mob, beta, exponents).total
                     + transport.action(graph, rho, -b, mob, beta, exponents).total)
    act_sym = transport.action(graph, rho, 0.5 * (f - b), mob, beta, exponents).total
    violation = act_sym - act_raw if np.isfinite(act_raw) else 0.0
    return violation > tol, float(violation)


def _suite_convexity(rng, tol, scale=1.0):
    graph, exponents, rho0, beta = _random_setup(rng)
    mob = linear()
    rho1 = rng.uniform(0.05, 1.0, size=rho0.shape)
    rho1 /= (rho1 @ graph.weights)[:, None]
    j0 = _random_fluxes(rng, graph, scale)
    j1 = _random_fluxes(rng, graph, scale)
    tau = float(rng.uniform(0.0, 1.0))
    blend_rho = (1 - tau) * rho0 + tau * rho1
    blend_j = (1 - tau) * j0 + tau * j1
    a_blend = transport.action(graph, blend_rho, blend_j, mob, beta, exponents).total
    a0 = transport.action(graph, rho0, j0, mob, beta, exponents).total
    a1 = transport.action(graph, rho1, j1, mob, beta, exponents).total
    violation = a_blend - ((1 - tau) * a0 + tau * a1)
    if not np.isfinite(violation):
        violation = 0.0  # inf <= inf blends
    return violation > tol, float(violation)


def _suite_duality(rng, tol, scale=1.0):
    graph, exponents, rho, beta = _random_setup(rng)
    phi = scale * rng.normal(size=graph.n_vertices)
    j = scale * rng.normal(size=graph.n_links)
    div = nonlocal_divergence(graph, j)
    lhs = float(np.sum(phi * div * graph.weights))
    grad = nonlocal_gradient(graph, phi)
    rhs_val = -float(np.sum(grad * j * graph.link_weight))
    scale = max(1.0, abs(lhs), abs(rhs_val))
    violation = abs(lhs - rhs_val) / scale
    return violation > tol, float(violation)


def _suite_nonneg(rng, tol, scale=1.0):
    graph, _, _, _ = _random_setup(rng, n_min=3, n_max=4)
    exponents = Exponents(2.0)
    kernels = build_kernel_set(distance(), zero(), zero(), distance(), dimension=2)
    rho = rng.uniform(0.0, 1.0, size=(2, graph.n_vertices))
    # adversarial zeros: empty vertices must emit nothing
    for i in range(2):
        kill = rng.integers(0, graph.n_vertices)
        rho[i, kill] = 0.0
        if np.sum(rho[i] * graph.weights) <= 0:
            rho[i, (kill + 1) % graph.n_vertices] = 1.0
    rho /= (rho @ graph.weights)[:, None]
    traj = integrate(System(graph, kernels, linear(), exponents), SpeciesPairState(rho), 0.2)
    violation = -float(traj.stats["min_density"])
    return violation > tol, float(violation)


def _suite_decoupling(rng, tol, scale=1.0):
    graph, _, rho0, beta = _random_setup(rng, n_min=2, n_max=3)
    exponents = Exponents(2.0)
    mob = linear()
    rho1 = rng.uniform(0.05, 1.0, size=rho0.shape)
    rho1 /= (rho1 @ graph.weights)[:, None]
    rho1[1] = rho0[1]  # species 2 fixed
    t_pair, _, _ = transport.transport_cost(
        graph, rho0, rho1, 8, mob, beta, exponents
    )
    single0 = rho0.copy()
    single1 = rho1.copy()
    t_single, _, _ = transport.transport_cost(
        graph, single0, single1, 8, mob, (1.0, 1.0), exponents
    )
    violation = abs(t_pair**2 - t_single**2 / beta[0])
    return violation > tol, float(violation)


_SUITES = {
    "holder": (_suite_holder_l, 1e-10),
    "holder_tilde": (_suite_holder_ltilde, 1e-10),
    "minkowski": (_suite_minkowski, 1e-10),
    "antisym": (_suite_antisym, 1e-12),
    "convexity": (_suite_convexity, 1e-10),
    "duality": (_suite_duality, 1e-12),
    "nonneg": (_suite_nonneg, 1e-12),
    "decoupling": (_suite_decoupling, 1e-3),
}


def property_harness(suite, seed=0, n_samples=100):
    """Run a named randomized property suite with per-sample derived seeds.

    Failures are data, not exceptions; each failure records the child seed
    and the violation magnitude so the sample can be replayed.  An unknown
    suite, a negative seed or fewer than one sample checks nothing and is
    reported in ``note``.
    """
    note = ""
    if suite not in _SUITES:
        note = f"unknown suite {suite!r}; available: {sorted(_SUITES)}"
    elif seed < 0:
        note = f"seed must be a non-negative integer, got {seed}"
    elif n_samples < 1:
        note = f"n_samples must be at least 1, got {n_samples}"
    if note:
        return HarnessReport(suite=suite, seed=seed, n_samples=0, note=note)
    fn, tol = _SUITES[suite]
    report = HarnessReport(suite=suite, seed=seed, n_samples=n_samples)
    children = np.random.SeedSequence(seed).spawn(n_samples)
    for idx, child in enumerate(children):
        rng = np.random.default_rng(child)
        bad, magnitude = fn(rng, tol)
        report.max_violation = max(report.max_violation, magnitude)
        if bad:
            # shrink: replay the same sample at halved field scales while it
            # still fails, reporting the smallest failing scale
            scale, magnitude_small = 1.0, magnitude
            while scale > 2.0**-12:
                still_bad, mag = fn(np.random.default_rng(child), tol, scale=0.5 * scale)
                if not still_bad:
                    break
                scale, magnitude_small = 0.5 * scale, mag
            report.failures.append(
                HarnessFailure(
                    sample=idx,
                    description=(
                        f"suite {suite} sample {idx} violated by {magnitude:.3e} "
                        f"(still {magnitude_small:.3e} at field scale {scale:g})"
                    ),
                    magnitude=magnitude,
                )
            )
    return report
