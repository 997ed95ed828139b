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

from . import transport
from .dynamics import SpeciesPairState, integrate
from .errors import MassMismatch, NotApplicable
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
    terms = cost_density(np.abs(flux), np.where(flux > 0, fwd, bwd), exponents, outside)
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
    """Exact 1-Wasserstein distance between atomic measures on the line: the
    L1 distance between the two cumulative distribution functions.

    Raises NotApplicable for points in two or more dimensions, and
    MassMismatch when the total masses differ.
    """
    positions_a = np.atleast_2d(np.asarray(positions_a, dtype=float))
    positions_b = np.atleast_2d(np.asarray(positions_b, dtype=float))
    masses_a = np.asarray(masses_a, dtype=float).ravel()
    masses_b = np.asarray(masses_b, dtype=float).ravel()
    if positions_a.shape[0] == 1 and masses_a.size > 1:
        positions_a = positions_a.T
    if positions_b.shape[0] == 1 and masses_b.size > 1:
        positions_b = positions_b.T
    dimension = max(positions_a.shape[1], positions_b.shape[1])
    if dimension != 1:
        raise NotApplicable(f"w1_distance takes points on the line, got dimension {dimension}")
    total_a, total_b = float(np.sum(masses_a)), float(np.sum(masses_b))
    if abs(total_a - total_b) > 1e-10 * max(1.0, total_a):
        raise MassMismatch(f"total masses differ: {total_a} vs {total_b}")
    keep_a = masses_a > 0
    keep_b = masses_b > 0
    if not (np.any(keep_a) and np.any(keep_b)):
        return 0.0
    xs = np.concatenate([positions_a[keep_a, 0], positions_b[keep_b, 0]])
    order = np.argsort(xs, kind="stable")
    cdf_gap = np.cumsum(np.concatenate([masses_a[keep_a], -masses_b[keep_b]])[order])[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(xs[order])))


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


# ---------------------------------------------------------------------------
# randomized property suites
# ---------------------------------------------------------------------------

@dataclass
class HarnessFailure:
    """A failing sample's violation, and the smallest halved field scale at
    which its replay still fails, with the violation there."""

    sample: int
    magnitude: float
    shrunk_scale: float
    shrunk_magnitude: float


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


_LINEAR = linear()  # the mobility of every suite


def _random_density(rng, graph):
    """A random density pair, each species of unit mass."""
    rho = rng.uniform(0.05, 1.0, size=(2, graph.n_vertices))
    rho /= (rho @ graph.weights)[:, None]
    return rho


def _random_setup(rng, n_min=3, n_max=6):
    n = int(rng.integers(n_min, n_max + 1))
    points = rng.uniform(-1.5, 1.5, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    eta = rng.uniform(0.2, 1.0, size=(n, n))
    eta = 0.5 * (eta + eta.T)
    np.fill_diagonal(eta, 0.0)
    graph = build_graph(points, weights, eta)
    exponents = Exponents(float(rng.uniform(1.3, 3.5)))
    rho = _random_density(rng, graph)
    beta = rng.uniform(0.5, 2.0, size=2)
    return graph, exponents, rho, beta


def _holder(pairing, s, s_dual):
    """The Hölder inequality pairing(a)[b] <= pairing(b)[b]^(1/s) pairing(a)[a]^(1/s')
    of two random link field pairs, where ``s`` and ``s_dual`` name the exponents:
    (p, q) for the flux pairing l, (q, p) for the velocity pairing l~, the two sides
    of the Legendre duality between the action and the dual action."""
    def suite(rng, scale):
        graph, exponents, rho, beta = _random_setup(rng)
        a, b = rng.normal(scale=scale, size=(2, 2, graph.n_links))

        def value(x, y):
            return pairing(graph, rho, x, y, _LINEAR, beta, exponents)
        return value(a, b) - (value(b, b) ** (1.0 / getattr(exponents, s))
                              * value(a, a) ** (1.0 / getattr(exponents, s_dual)))
    return suite


def _suite_minkowski(rng, scale):
    graph, exponents, rho, beta = _random_setup(rng)
    j, jbar = rng.normal(scale=scale, size=(2, 2, graph.n_links))
    lam = float(rng.uniform(0.1, 3.0))

    def norm(flux):
        return transport.minkowski_norm(graph, rho, flux, _LINEAR, beta, exponents)
    return max(abs(norm(lam * j) - lam * norm(j)), norm(j + jbar) - (norm(j) + norm(jbar)))


def _suite_antisym(rng, scale):
    """A raw edge field, f on every (lo, hi) and b on (hi, lo), has the action
    (A(f) + A(-b)) / 2: each orientation's two alpha terms are those of a
    link field.  Its antisymmetric part (f - b) / 2 has the same divergence
    and, A being convex, never a larger action."""
    graph, exponents, rho, beta = _random_setup(rng)
    f, b = scale * np.abs(rng.normal(size=(2, 2, graph.n_links)))

    def action(flux):
        return transport.action(graph, rho, flux, _LINEAR, beta, exponents).total
    act_raw = 0.5 * (action(f) + action(-b))
    return action(0.5 * (f - b)) - act_raw if np.isfinite(act_raw) else 0.0


def _suite_convexity(rng, scale):
    graph, exponents, rho0, beta = _random_setup(rng)
    rho1 = _random_density(rng, graph)
    j0, j1 = rng.normal(scale=scale, size=(2, 2, graph.n_links))
    tau = float(rng.uniform(0.0, 1.0))

    def action(rho, flux):
        return transport.action(graph, rho, flux, _LINEAR, beta, exponents).total
    violation = (action((1 - tau) * rho0 + tau * rho1, (1 - tau) * j0 + tau * j1)
                 - ((1 - tau) * action(rho0, j0) + tau * action(rho1, j1)))
    return violation if np.isfinite(violation) else 0.0  # inf <= inf blends


def _suite_duality(rng, scale):
    graph, _, _, _ = _random_setup(rng)
    phi = scale * rng.normal(size=graph.n_vertices)
    j = scale * rng.normal(size=graph.n_links)
    lhs = float(np.sum(phi * nonlocal_divergence(graph, j) * graph.weights))
    rhs = -float(np.sum(nonlocal_gradient(graph, phi) * j * graph.link_weight))
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _suite_nonneg(rng, scale):
    graph, _, _, _ = _random_setup(rng, n_min=3, n_max=4)
    kernels = build_kernel_set(distance(), zero(), zero(), distance(), dimension=2)
    rho = rng.uniform(0.0, 1.0, size=(2, graph.n_vertices))
    # adversarial zeros: empty vertices must emit nothing
    for i in range(2):
        kill = rng.integers(0, graph.n_vertices)
        rho[i, kill] = 0.0
        if np.sum(rho[i] * graph.weights) <= 0:
            rho[i, (kill + 1) % graph.n_vertices] = 1.0
    rho /= (rho @ graph.weights)[:, None]
    system = System(graph, kernels, _LINEAR, Exponents(2.0))
    return -integrate(system, SpeciesPairState(rho), 0.2).stats["min_density"]


def _suite_decoupling(rng, scale):
    graph, _, rho0, beta = _random_setup(rng, n_min=2, n_max=3)
    rho1 = _random_density(rng, graph)
    rho1[1] = rho0[1]  # species 2 fixed

    def cost(weights):
        return transport.transport_cost(graph, rho0, rho1, 8, _LINEAR, weights, Exponents(2.0))[0]
    return abs(cost(beta) ** 2 - cost((1.0, 1.0)) ** 2 / beta[0])


_SUITES = {
    "holder": (_holder(transport.pairing_l, "p", "q"), 1e-10),
    "holder_tilde": (_holder(transport.pairing_l_tilde, "q", "p"), 1e-10),
    "minkowski": (_suite_minkowski, 1e-10),
    "antisym": (_suite_antisym, 1e-12),
    "convexity": (_suite_convexity, 1e-10),
    "duality": (_suite_duality, 1e-12),
    "nonneg": (_suite_nonneg, 1e-12),
    "decoupling": (_suite_decoupling, 1e-3),
}


def property_harness(suite, seed=0, n_samples=100):
    """Run a named randomized property suite with per-sample derived seeds.

    A suite gives a sample's violation, which fails above its tolerance.
    Failures are data, not exceptions: the child seed of the sample's index
    replays it, at halved field scales (down to 2^-12) while it still fails.
    An unknown suite, a negative seed or fewer than one sample checks
    nothing and is reported in ``note``.
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

    def violation(child, scale):
        return float(fn(np.random.default_rng(child), scale))

    report = HarnessReport(suite=suite, seed=seed, n_samples=n_samples)
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        magnitude = violation(child, 1.0)
        report.max_violation = max(report.max_violation, magnitude)
        if magnitude > tol:
            scale, shrunk = 1.0, magnitude
            while scale > 2.0**-12 and (smaller := violation(child, 0.5 * scale)) > tol:
                scale, shrunk = 0.5 * scale, smaller
            report.failures.append(HarnessFailure(idx, magnitude, scale, shrunk))
    return report
