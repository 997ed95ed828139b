import json
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from graphflow import graph as graph_mod, transport
from graphflow.config import RefinementPlan, project_initial
from graphflow.dynamics import upwind_flux
from graphflow.cli import main_cli
from graphflow.errors import (InfeasibleEndpoints, InfiniteAction, NotApplicable, NotConverged,
                              ThresholdExceeded)
from graphflow.graph import Exponents, build_graph, nonlocal_divergence, nonlocal_gradient
from graphflow.kernels import System, energy, potentials
from graphflow.mobility import PRESETS, Mobility, alpha_density, cost_density, linear, link_mobility
from graphflow.scenarios import (random_geometric_setup, s1_config, s1_setup, s2_endpoints,
                                 s2_state_files, two_point_graph)
from graphflow.transport import (
    DiscretePath,
    action,
    dual_action,
    flux_from_velocity,
    geodesic_profile,
    min_norm_flux,
    minkowski_norm,
    pairing_l,
    pairing_l_tilde,
    transport_cost,
    velocity_from_flux,
)

from oracles import (
    dense_eta,
    edge_field,
    interval_actions,
    masked_alpha_density,
    newton_band_by_entry_maps,
    newton_matrix_dense,
    ordered_edge_action,
    ordered_edge_divergence,
    ordered_edge_dual_action,
    unit_transport_oracle,
)

BETA = (1.0, 1.0)


def _velocities(system, rho):
    return -nonlocal_gradient(system.graph, potentials(system, rho))


def _gradient_flux(setup):
    g, kernels, mob, exps, state = setup
    return upwind_flux(System(g, kernels, mob, exps), state.rho)


def test_action_of_gradient_flow_flux():
    setup = s1_setup()
    g, kernels, mob, exps, state = setup
    flux = _gradient_flux(setup)
    value = action(g, state.rho, flux, mob, BETA, exps)
    assert value.total == pytest.approx(0.0625, abs=1e-15)
    assert value.per_species[0] == pytest.approx(0.0625, abs=1e-15)
    assert value.per_species[1] == 0.0


def test_action_zero_flux_and_infinite_case():
    g, kernels, mob, exps, state = s1_setup()
    zero = np.zeros((2, g.n_links))
    assert action(g, state.rho, zero, mob, BETA, exps).total == 0.0
    # unit flux out of an empty vertex costs infinity under linear mobility
    empty = np.array([[0.0, 1.0], [0.5, 0.5]])
    flux = np.array([[1.0], [0.0]])  # from vertex 0 to vertex 1
    assert action(g, empty, flux, mob, BETA, exps).total == np.inf


def test_dual_action_examples_and_flux_of():
    g, kernels, mob, exps, state = s1_setup()
    vel = kernels.beta[:, None] * _velocities(System(g, kernels, mob, exps), state.rho)
    value = dual_action(g, state.rho, vel, mob, BETA, exps)
    assert value.total == pytest.approx(0.0625, abs=1e-15)
    flux = flux_from_velocity(g, state.rho, vel, mob, exps)
    assert flux[0, 0] == pytest.approx(-0.125, abs=1e-15)  # on the edge (0, 1)
    assert dual_action(g, state.rho, np.zeros_like(vel), mob, BETA, exps).total == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dual_action_consistency_identity(p):
    g, kernels, mob, _, state = s1_setup()
    exps = Exponents(p)
    vel = kernels.beta[:, None] * _velocities(System(g, kernels, mob, exps), state.rho)
    tilde = dual_action(g, state.rho, vel, mob, BETA, exps).total
    through_flux = action(
        g, state.rho, flux_from_velocity(g, state.rho, vel, mob, exps), mob, BETA, exps
    ).total
    assert tilde == pytest.approx(through_flux, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_velocity_from_flux_round_trip(p):
    rng = np.random.default_rng(4)
    g = two_point_graph()
    exps = Exponents(p)
    mob = linear()
    rho = rng.uniform(0.2, 0.8, size=(2, 2))
    vel = rng.normal(size=(2, g.n_links))
    flux = flux_from_velocity(g, rho, vel, mob, exps)
    back = velocity_from_flux(g, rho, flux, mob, exps)
    assert np.allclose(back, vel, atol=1e-10)


def test_pairing_l_identities():
    setup = s1_setup()
    g, kernels, mob, exps, state = setup
    flux = _gradient_flux(setup)
    diag = pairing_l(g, state.rho, flux, flux, mob, BETA, exps)
    assert diag == pytest.approx(0.0625, abs=1e-15)
    zero = np.zeros_like(flux)
    assert pairing_l(g, state.rho, flux, zero, mob, BETA, exps) == 0.0
    # linearity in the second slot
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 2, g.n_links))
    lhs = pairing_l(g, state.rho, flux, a + 2.5 * b, mob, BETA, exps)
    rhs = pairing_l(g, state.rho, flux, a, mob, BETA, exps) + 2.5 * pairing_l(
        g, state.rho, flux, b, mob, BETA, exps
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pairing_l_requires_finite_action():
    g, kernels, mob, exps, state = s1_setup()
    empty = np.array([[0.0, 1.0], [0.5, 0.5]])
    flux = np.array([[1.0], [0.0]])  # from vertex 0 to vertex 1
    with pytest.raises(InfiniteAction):
        pairing_l(g, empty, flux, flux, mob, BETA, exps)


def test_pairing_l_tilde_identities():
    g, kernels, mob, exps, state = s1_setup()
    vel = kernels.beta[:, None] * _velocities(System(g, kernels, mob, exps), state.rho)
    diag = pairing_l_tilde(g, state.rho, vel, vel, mob, BETA, exps)
    assert diag == pytest.approx(0.0625, abs=1e-15)
    assert pairing_l_tilde(g, state.rho, vel, np.zeros_like(vel), mob, BETA, exps) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_holder_inequalities_random(p):
    rng = np.random.default_rng(123)
    g = build_graph(rng.normal(size=(4, 2)), rng.uniform(0.5, 1.5, 4),
                    lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    exps = Exponents(p)
    mob = linear()
    for _ in range(100):
        rho = rng.uniform(0.05, 1.0, size=(2, 4))
        rho /= (rho @ g.weights)[:, None]
        j, jbar = rng.normal(size=(2, 2, g.n_links))
        lhs = pairing_l(g, rho, j, jbar, mob, BETA, exps)
        jj = pairing_l(g, rho, j, j, mob, BETA, exps)
        bb = pairing_l(g, rho, jbar, jbar, mob, BETA, exps)
        assert lhs <= bb ** (1 / exps.p) * jj ** (1 / exps.q) + 1e-10
        lhs_t = pairing_l_tilde(g, rho, j, jbar, mob, BETA, exps)
        jj_t = pairing_l_tilde(g, rho, j, j, mob, BETA, exps)
        bb_t = pairing_l_tilde(g, rho, jbar, jbar, mob, BETA, exps)
        assert lhs_t <= jj_t ** (1 / exps.p) * bb_t ** (1 / exps.q) + 1e-10
    # equality at aligned arguments
    j = rng.normal(size=(2, g.n_links))
    rho = rng.uniform(0.05, 1.0, size=(2, 4))
    rho /= (rho @ g.weights)[:, None]
    lam = 1.7
    lhs = pairing_l(g, rho, j, lam * j, mob, BETA, exps)
    jj = pairing_l(g, rho, j, j, mob, BETA, exps)
    ll = pairing_l(g, rho, lam * j, lam * j, mob, BETA, exps)
    assert lhs == pytest.approx(ll ** (1 / exps.p) * jj ** (1 / exps.q), rel=1e-8)


def test_minkowski_norm_axioms():
    rng = np.random.default_rng(31)
    g = two_point_graph()
    mob = linear()
    for p in (1.5, 2.0, 3.0):
        exps = Exponents(p)
        rho = rng.uniform(0.2, 0.8, size=(2, 2))
        j, jbar = rng.normal(size=(2, 2, g.n_links))
        norm = minkowski_norm(g, rho, j, mob, BETA, exps)
        assert norm > 0
        assert minkowski_norm(g, rho, 2.5 * j, mob, BETA, exps) == pytest.approx(
            2.5 * norm, abs=1e-10
        )
        assert minkowski_norm(g, rho, j + jbar, mob, BETA, exps) <= norm + minkowski_norm(
            g, rho, jbar, mob, BETA, exps
        ) + 1e-10
        # F^p equals the diagonal pairing and the action
        assert norm**exps.p == pytest.approx(
            pairing_l(g, rho, j, j, mob, BETA, exps), rel=1e-12
        )


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_negative_gradient_flux_pairing_identity(p):
    g, kernels, mob, _, state = s1_setup()
    exps = Exponents(p)
    system = System(g, kernels, mob, exps)
    grad_flux = upwind_flux(system, state.rho)

    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(5):
        test_flux = rng.normal(size=(2, g.n_links))
        div = np.stack([nonlocal_divergence(g, test_flux[i]) for i in range(2)])
        e_plus = energy(system, state.rho - h * div)
        e_minus = energy(system, state.rho + h * div)
        directional = (e_plus - e_minus) / (2 * h)  # dE along d rho/dt = -div j
        paired = pairing_l(g, state.rho, grad_flux, test_flux, mob, BETA, exps)
        assert paired == pytest.approx(-directional, abs=1e-6)


def test_antisymmetrization_never_increases_action():
    # a raw edge field, f on (lo, hi) and b on (hi, lo), has the ordered-edge
    # action (A(f) + A(-b)) / 2 of two link fields, and its antisymmetric
    # part (f - b) / 2 never costs more
    rng = np.random.default_rng(77)
    mob = linear()
    for g in (two_point_graph(), _cutoff_graph(0.4, n=6)):
        for p in (1.5, 2.0, 3.0):
            exps = Exponents(p)
            for _ in range(40):
                rho = rng.uniform(0.05, 0.95, size=(2, g.n_vertices))
                f, b = np.abs(rng.normal(size=(2, 2, g.n_links)))
                f[:, ::3] = 0.0
                a_raw = sum(ordered_edge_action(g, rho, np.concatenate([f, b], axis=1), mob, BETA,
                                                exps))
                a_links = 0.5 * (action(g, rho, f, mob, BETA, exps).total
                                 + action(g, rho, -b, mob, BETA, exps).total)
                assert abs(a_links - a_raw) <= 1e-13 * a_raw
                a_sym = action(g, rho, 0.5 * (f - b), mob, BETA, exps).total
                assert a_sym <= a_raw + 1e-12


def test_action_convexity_random_segments():
    rng = np.random.default_rng(5150)
    g = two_point_graph()
    mob = linear()
    for p in (1.5, 2.0, 3.0):
        exps = Exponents(p)
        for _ in range(100):
            rho0 = rng.uniform(0.05, 0.95, size=(2, 2))
            rho1 = rng.uniform(0.05, 0.95, size=(2, 2))
            j0 = rng.normal(size=(2, g.n_links))
            j1 = rng.normal(size=(2, g.n_links))
            tau = rng.uniform()
            blend = action(
                g, (1 - tau) * rho0 + tau * rho1, (1 - tau) * j0 + tau * j1, mob, BETA, exps
            ).total
            bound = (1 - tau) * action(g, rho0, j0, mob, BETA, exps).total + tau * action(
                g, rho1, j1, mob, BETA, exps
            ).total
            assert blend <= bound + 1e-10


def test_action_lower_semicontinuity_spot_check():
    g, kernels, mob, exps, state = s1_setup()
    flux = upwind_flux(System(g, kernels, mob, exps), state.rho)
    limit = action(g, state.rho, flux, mob, BETA, exps).total
    rng = np.random.default_rng(8)
    drho = rng.normal(size=state.rho.shape)
    dj = rng.normal(size=flux.shape)
    values = []
    for n in range(1, 30):
        values.append(
            action(g, state.rho + drho / n**2, flux + dj / n**2, mob, BETA, exps).total
        )
    assert limit <= min(values[-5:]) + 1e-8


def test_transport_cost_unit_mass_against_oracle():
    g, _, mob, exps, _ = s1_setup()
    start, end = s2_endpoints()
    oracle_value, _, monotone = unit_transport_oracle(n_grid=512)
    assert monotone
    T, path, cert = transport_cost(g, start, end, 16, mob, BETA, exps)
    assert cert.converged
    # both discretize the same functional; at matched resolution they agree
    ref, _, _ = unit_transport_oracle(n_grid=16)
    assert cert.objective == pytest.approx(ref, abs=2e-4)
    assert T == pytest.approx(ref ** 0.5, abs=1e-4)
    assert path.states[0] == pytest.approx(start.rho)
    assert np.max(np.abs(path.states[-1] - end.rho)) < 1e-6


def test_oracle_interval_actions_sum_to_oracle_objective():
    # the per-interval helper and the oracle objective are the same formula
    # written twice: dt times the profile sum is the objective
    value, u, _ = unit_transport_oracle(n_grid=64)
    profile = interval_actions(u)
    assert profile.shape == (64,)
    assert np.sum(profile) / 64 == pytest.approx(value, rel=1e-12)


def test_transport_cost_identical_endpoints_zero():
    g, _, mob, exps, _ = s1_setup()
    rho = np.array([[0.6, 0.4], [0.3, 0.7]])
    T, path, cert = transport_cost(g, rho, rho, 8, mob, BETA, exps)
    assert T == pytest.approx(0.0, abs=1e-6)
    assert np.max(np.abs(path.fluxes)) < 1e-6


def test_transport_cost_decoupling():
    rng = np.random.default_rng(19)
    g = build_graph(rng.normal(size=(3, 2)), rng.uniform(0.5, 1.5, 3),
                    lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    exps = Exponents(2.0)
    mob = linear()
    beta = (2.0, 3.0)
    rho0 = rng.uniform(0.05, 1.0, size=(2, 3))
    rho0 /= (rho0 @ g.weights)[:, None]
    rho1 = rho0.copy()
    rho1[0] = rng.uniform(0.05, 1.0, size=3)
    rho1[0] /= rho1[0] @ g.weights
    t_pair, _, cert_pair = transport_cost(g, rho0, rho1, 12, mob, beta, exps)
    t_single, _, cert_single = transport_cost(g, rho0, rho1, 12, mob, (1.0, 1.0), exps)
    tol = 2.0 * max(
        cert_pair.optimality_residual + cert_pair.constraint_residual,
        cert_single.optimality_residual + cert_single.constraint_residual,
        1e-6,
    )
    assert abs(t_pair**exps.p - t_single**exps.p / beta[0]) <= tol


def test_transport_cost_quasi_metric_triangle():
    rng = np.random.default_rng(23)
    g = build_graph(rng.normal(size=(3, 1)), rng.uniform(0.5, 1.5, 3),
                    lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    exps = Exponents(2.0)
    mob = linear()
    states = []
    for _ in range(3):
        rho = rng.uniform(0.05, 1.0, size=(2, 3))
        rho /= (rho @ g.weights)[:, None]
        states.append(rho)
    t01 = transport_cost(g, states[0], states[1], 8, mob, BETA, exps)[0]
    t12 = transport_cost(g, states[1], states[2], 8, mob, BETA, exps)[0]
    t02 = transport_cost(g, states[0], states[2], 8, mob, BETA, exps)[0]
    assert t02 <= t01 + t12 + 1e-4
    assert transport_cost(g, states[0], states[0], 8, mob, BETA, exps)[0] < 1e-6


def test_transport_cost_mass_mismatch():
    g, _, mob, exps, _ = s1_setup()
    good = np.array([[0.6, 0.4], [0.5, 0.5]])
    bad = np.array([[0.6, 0.6], [0.5, 0.5]])
    with pytest.raises(InfeasibleEndpoints):
        transport_cost(g, good, bad, 8, mob, BETA, exps)


def test_geodesic_profile_zero_distance_path():
    g, _, mob, exps, _ = s1_setup()
    rho = np.array([[0.6, 0.4], [0.3, 0.7]])
    _, path, _ = transport_cost(g, rho, rho, 8, mob, BETA, exps)
    profile = geodesic_profile(g, path, mob, BETA, exps)
    assert np.max(np.abs(profile)) < 1e-10


def test_reparametrized_path_exceeds_geodesic_cost():
    # u(t) = t^2 transports the same endpoints with non-constant speed, so its
    # time-integrated action must exceed the geodesic value 4
    g, _, mob, exps, _ = s1_setup()
    K = 64
    times = np.linspace(0.0, 1.0, K + 1)
    u = times**2
    states = np.zeros((K + 1, 2, 2))
    states[:, 0, 0] = 1.0 - u
    states[:, 0, 1] = u
    states[:, 1, :] = 0.5
    fluxes = np.zeros((K, 2, g.n_links))
    fluxes[:, 0, 0] = np.diff(u) * K  # du/dt on each interval, along the edge (0, 1)
    path = DiscretePath(times=times, states=states, fluxes=fluxes)
    assert path.continuity_residual(g) < 1e-12
    profile = geodesic_profile(g, path, mob, BETA, exps)
    total = float(np.sum(profile)) / K
    assert total > 4.0
    assert np.max(profile) - np.min(profile) > 0.5 * np.mean(profile)


def test_geodesic_profile_constant_for_interior_endpoints():
    # away from the absorbing boundary the discrete optimum is constant
    # speed to discretization accuracy (O(dt^2) profile spread)
    g, _, mob, exps, _ = s1_setup()
    r0 = np.array([[0.8, 0.2], [0.5, 0.5]])
    r1 = np.array([[0.25, 0.75], [0.5, 0.5]])
    _, path, _ = transport_cost(g, r0, r1, 32, mob, BETA, exps)
    profile = geodesic_profile(g, path, mob, BETA, exps)
    assert np.max(np.abs(profile - profile.mean())) / profile.mean() < 1e-3

    rng = np.random.default_rng(2)
    g3 = build_graph(rng.normal(size=(3, 1)), rng.uniform(0.8, 1.2, 3),
                     lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    e3 = Exponents(3.0)
    a = rng.uniform(0.2, 1.0, (2, 3)); a /= (a @ g3.weights)[:, None]
    b = rng.uniform(0.2, 1.0, (2, 3)); b /= (b @ g3.weights)[:, None]
    _, path3, _ = transport_cost(g3, a, b, 32, linear(), BETA, e3)
    profile3 = geodesic_profile(g3, path3, linear(), BETA, e3)
    assert np.max(np.abs(profile3 - profile3.mean())) / profile3.mean() < 1e-3


@pytest.mark.parametrize("mobility", ["linear", "volume_filling"])
def test_geodesic_profile_and_residual_equal_their_per_interval_loops(mobility):
    # both evaluate every interval in one pass; each interval's value is the
    # one-interval call's, bit for bit, also next to intervals with a state
    # outside the box
    rng = np.random.default_rng(9)
    g, mob, exps, K = _cutoff_graph(0.4), PRESETS[mobility](), Exponents(1.5), 6
    states = rng.uniform(0.0, 0.9, size=(K + 1, 2, g.n_vertices))
    states[3:5, 0, 2], states[3:5, 1, 0] = 1.2, -0.1  # interval 3's midpoint leaves the box
    fluxes = rng.normal(size=(K, 2, g.n_links))
    path = DiscretePath(np.linspace(0.0, 1.0, K + 1), states, fluxes)
    mids = path.midpoint_states()
    loop = [action(g, mids[k], fluxes[k], mob, BETA, exps).total for k in range(K)]
    assert np.array_equal(geodesic_profile(g, path, mob, BETA, exps), loop)
    assert not np.all(np.isfinite(loop)) and np.any(np.isfinite(loop))
    dt = path.times[1] - path.times[0]
    residuals = [states[k + 1] - states[k] + dt * nonlocal_divergence(g, fluxes[k])
                 for k in range(K)]
    assert path.continuity_residual(g) == max(float(np.max(np.abs(r))) for r in residuals)


def test_transport_cost_expression_mobility_matches_preset():
    # a preset is a formula too, so both give the solver the same exact jets
    from graphflow.mobility import from_expression

    g, _, _, exps, _ = s1_setup()
    r0 = np.array([[0.8, 0.2], [0.5, 0.5]])
    r1 = np.array([[0.25, 0.75], [0.5, 0.5]])
    for text, preset in [("r", "linear"), ("r/(1+r)", "saturating")]:
        t_preset, _, cert_preset = transport_cost(g, r0, r1, 16, PRESETS[preset](), BETA, exps)
        t_expr, _, cert_expr = transport_cost(g, r0, r1, 16, from_expression(text), BETA, exps)
        assert t_expr == pytest.approx(t_preset, rel=1e-12), text
        assert cert_expr.iterations == cert_preset.iterations, text


def test_transport_cost_refuses_a_mobility_without_a_formula():
    from graphflow.mobility import Mobility

    g, _, _, exps, _ = s1_setup()
    r0 = np.array([[0.8, 0.2], [0.5, 0.5]])
    with pytest.raises(ValueError, match="not a formula"):
        transport_cost(g, r0, r0, 4, Mobility("bare", lambda r, s: r), BETA, exps)


def test_transport_cost_against_independent_convex_solver():
    # full cross-validation of objective assembly and solver on a general
    # graph at p = 2, where the cost is exactly representable for cvxpy
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(33)
    g = build_graph(rng.normal(size=(3, 2)), rng.uniform(0.5, 1.5, 3),
                    lambda x, y: np.exp(-np.sum((x - y) ** 2, -1)))
    exps = Exponents(2.0)
    K = 8
    rho0 = rng.uniform(0.1, 1.0, (2, 3)); rho0 /= (rho0 @ g.weights)[:, None]
    rho1 = rng.uniform(0.1, 1.0, (2, 3)); rho1 /= (rho1 @ g.weights)[:, None]

    n, links = g.n_vertices, g.n_links
    dt = 1.0 / K
    div_op = np.zeros((n, links))
    for u in range(links):
        basis = np.zeros(links)
        basis[u] = 1.0
        div_op[:, u] = nonlocal_divergence(g, basis)
    w = g.link_eta * (g.weights[g.link_lo] * g.weights[g.link_hi])
    terms, constraints = [], []
    for i in range(2):
        states = [cp.Constant(rho0[i])]
        states += [cp.Variable(n, nonneg=True) for _ in range(K - 1)]
        states.append(cp.Constant(rho1[i]))
        for k in range(K):
            jp = cp.Variable(links, nonneg=True)
            jm = cp.Variable(links, nonneg=True)
            constraints.append(states[k + 1] - states[k] == -dt * (div_op @ (jp - jm)))
            mid = 0.5 * (states[k] + states[k + 1])
            r_lo = mid[g.link_lo]
            r_hi = mid[g.link_hi]
            for u in range(links):
                terms.append(dt * w[u] * cp.quad_over_lin(jp[u], r_lo[u]))
                terms.append(dt * w[u] * cp.quad_over_lin(jm[u], r_hi[u]))
    reference = cp.Problem(cp.Minimize(cp.sum(cp.hstack(terms))), constraints)
    reference.solve(solver=cp.CLARABEL)

    _, _, cert = transport_cost(g, rho0, rho1, K, linear(), BETA, exps)
    assert cert.objective == pytest.approx(reference.value, abs=1e-4)


def test_transport_cost_is_genuinely_asymmetric():
    # upwind interpolation makes the cost direction-dependent (a quasi-metric,
    # not a metric) once the weights and endpoints lack a relabeling symmetry
    exps = Exponents(2.0)
    eta = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 0.4], [0.2, 0.4, 0.0]])
    g = build_graph([[0.0], [1.0], [2.0]], [1.0, 1.3, 0.7], eta)
    a = np.array([[0.55, 0.2, 0.3], [1 / 3, 1 / 3, 1 / 3]])
    b = np.array([[0.1, 0.3, 0.757], [1 / 3, 1 / 3, 1 / 3]])
    for rho in (a, b):
        rho[0] /= rho[0] @ g.weights
        rho[1] /= rho[1] @ g.weights
    t_ab = transport_cost(g, a, b, 16, linear(), BETA, exps)[0]
    t_ba = transport_cost(g, b, a, 16, linear(), BETA, exps)[0]
    assert abs(t_ab - t_ba) > 0.1


def _masked_dual_action(graph, rho_pair, velocity_pair, mobility, beta, exponents):
    """Reference: the velocity-form action with boolean gathers and scatters,
    one species at a time: m at the upwind end of each link times |v|^q, at
    the state clipped into the box [0, cap]."""
    q = exponents.q
    lo, hi = graph.link_lo, graph.link_hi
    weight = graph.link_eta * (graph.weights[lo] * graph.weights[hi])
    parts = []
    for i in range(2):
        v, r = velocity_pair[i], np.clip(rho_pair[i], 0.0, mobility.threshold_cap)
        m_up = np.zeros_like(v)
        forward, backward = v > 0, v < 0
        m_up[forward] = mobility(r[lo][forward], r[hi][forward])
        m_up[backward] = mobility(r[hi][backward], r[lo][backward])
        active = (v != 0) & (m_up > 0)
        vals = np.zeros_like(v)
        vals[active] = m_up[active] * np.abs(v[active]) ** q
        parts.append(float(np.sum(vals * weight)) / float(beta[i]))
    return parts


def _masked_action(graph, rho_pair, flux_pair, mobility, beta, exponents):
    """Reference: the masked cost densities of both directions of each link, per species."""
    lo, hi = graph.link_lo, graph.link_hi
    weight = graph.link_eta * (graph.weights[lo] * graph.weights[hi])
    parts = []
    for i in range(2):
        r_lo, r_hi = rho_pair[i][lo], rho_pair[i][hi]
        fwd = masked_alpha_density(flux_pair[i], r_lo, r_hi, mobility, exponents)
        bwd = masked_alpha_density(-flux_pair[i], r_hi, r_lo, mobility, exponents)
        parts.append(float(np.sum((fwd + bwd) * weight)) / float(beta[i]))
    return parts


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling", "geometric"])
def test_action_and_dual_action_equal_masked_references(p, mobility_name):
    from graphflow.mobility import PRESETS
    from graphflow.scenarios import random_geometric_setup

    g, kernels, _, exps, state = random_geometric_setup(seed=5, n=12, p=p)
    mob = PRESETS[mobility_name]()
    rng = np.random.default_rng(int(10 * p))
    beta = (1.0, 0.7)
    rho = state.rho.copy()
    rho[:, ::4] = 0.0  # m = 0 on edges into (geometric) or out of these vertices
    vel = beta[0] * _velocities(System(g, kernels, mob, exps), rho)
    got = dual_action(g, rho, vel, mob, beta, exps)
    want = _masked_dual_action(g, rho, vel, mob, beta, exps)
    assert got.per_species == tuple(want) and got.total == want[0] + want[1]

    flux = rng.normal(size=(2, g.n_links))
    flux[:, ::5] = 0.0
    for states in (rho, rho - 0.3, rho + 0.8):  # inside, below 0, above the cap of 1
        got = action(g, states, flux, mob, beta, exps)
        want = _masked_action(g, states, flux, mob, beta, exps)
        assert got.per_species == tuple(want) and got.total == want[0] + want[1]
    assert np.isinf(action(g, rho - 0.3, flux, mob, beta, exps).total)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_action_charges_each_link_once_bit_for_bit(p):
    # the action (and the De Giorgi action, by the same expression) charges a
    # link once, at the mobility of the end its flux leaves; the sum of one
    # cost density per orientation adds an exact 0 for the orientation
    # without flux, so the two agree bit for bit, also at an empty vertex, a
    # zero or NaN mobility and a state outside the box
    g, _, _, exps, state = random_geometric_setup(seed=5, n=12, p=p)
    holes = Mobility("holes", lambda r, s: np.where(s > 0.45, np.nan, r * (1.0 - s)), S=1.0)
    rng = np.random.default_rng(int(10 * p) + 3)
    beta = (1.0, 0.7)
    flux = rng.normal(size=(2, g.n_links))
    flux[:, ::5] = 0.0
    rho = 0.5 * state.rho / np.max(state.rho)
    rho[:, 3] = 0.0  # an empty vertex: m = 0 on its outgoing links
    above = rho.copy()
    above[1, 4] = 1.3  # outside the box [0, 1]
    for states in (rho, above):
        fwd, bwd, outside = link_mobility(g, states, holes)
        assert np.isnan(fwd).any() and np.isnan(bwd).any() and (fwd == 0.0).any()
        assert (outside is None) == (states is rho)
        two_terms = cost_density(flux, fwd, exps, outside) + cost_density(-flux, bwd, exps, outside)
        once = cost_density(np.abs(flux), np.where(flux > 0, fwd, bwd), exps, outside)
        assert np.array_equal(once, two_terms)
        want = transport.link_total(g, two_terms, beta)
        got = action(g, states, flux, holes, beta, exps)
        assert got.per_species == want.per_species and got.total == want.total
    assert np.isinf(got.total)


def _table_states(rho, cap):
    """Named density pairs for the kernel table: strictly inside the box,
    with an empty vertex, with a negative entry, with an entry above the cap
    of 1, and within the flux law's slack on either side of the box."""
    rho = 0.5 * rho / np.max(rho)  # every entry in (0, 0.5]
    states = {name: rho.copy() for name in
              ("inside", "zero", "negative", "above_cap", "slack_low", "slack_high")}
    states["zero"][:, 3] = 0.0
    states["negative"][0, 2] = -0.2
    states["above_cap"][1, 4] = 1.3
    states["slack_low"][0, 2] = -1e-9
    states["slack_high"][1, 4] = min(cap, 1.0) + 1e-9
    return states


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mobility_name", sorted(PRESETS))
def test_link_kernels_equal_masked_oracles_bit_for_bit(p, mobility_name):
    # both sides of every convention-mask skip: states inside the box with
    # m > 0 everywhere skip the masks, an empty vertex (m = 0), entries
    # outside the box and NaN fluxes or velocities run them; the flux law is
    # compared on the states it accepts, inside its slack
    g, kernels, _, exps, state = random_geometric_setup(seed=5, n=12, p=p)
    mob = PRESETS[mobility_name]()
    system = System(g, kernels, mob, exps)
    rng = np.random.default_rng(int(10 * p))
    beta = (1.0, 0.7)
    lo, hi = g.link_lo, g.link_hi
    src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    flux = rng.normal(size=(2, g.n_links))
    flux[:, ::5] = 0.0
    nan_flux = flux.copy()
    nan_flux[0, 1] = nan_flux[1, 7] = np.nan
    qm1 = exps.q - 1.0
    states = _table_states(state.rho, mob.threshold_cap)
    assert link_mobility(g, states["inside"], mob)[2] is None
    assert link_mobility(g, states["negative"], mob)[2] is not None
    for name, rho in states.items():
        with np.errstate(invalid="ignore"):  # the geometric mean of a negative entry
            vel = _velocities(system, np.clip(rho, 0.0, None))
            vel[:, ::6] = 0.0
            nan_vel = vel.copy()
            nan_vel[1, 2] = np.nan
            for j in (flux, nan_flux):
                for r, s, sign in ((rho[:, lo], rho[:, hi], 1.0), (rho[:, hi], rho[:, lo], -1.0)):
                    got = alpha_density(sign * j, r, s, mob, exps)
                    want = masked_alpha_density(sign * j, r, s, mob, exps)
                    assert np.array_equal(got, want), name
                got = action(g, rho, j, mob, beta, exps)
                want = _masked_action(g, rho, j, mob, beta, exps)
                assert got.per_species == tuple(want) and got.total == want[0] + want[1], name
            for v in (vel, nan_vel):
                got = dual_action(g, rho, v, mob, beta, exps)
                want = _masked_dual_action(g, rho, v, mob, beta, exps)
                assert got.per_species == tuple(want) and got.total == want[0] + want[1], name
        if name == "negative" or (name == "above_cap" and mob.bounded):
            continue  # beyond the flux law's slack: ThresholdExceeded
        got = upwind_flux(system, rho)
        box = np.clip(rho, 0.0, mob.threshold_cap if mob.bounded else None)
        phi = potentials(system, rho)
        w = np.asarray(kernels.beta)[:, None] * (phi[:, src] - phi[:, dst])
        r, s = box[:, src], box[:, dst]
        want = mob(r, s) * np.maximum(w, 0.0) ** qm1 - mob(s, r) * np.maximum(-w, 0.0) ** qm1
        assert np.array_equal(edge_field(got), want), name


def _assert_same_value(got, want):
    """Per species: the same inf and 0 cases, else equal up to the order of summation."""
    for a, b in zip(got.per_species, want):
        assert (np.isinf(a), a == 0) == (np.isinf(b), b == 0), (a, b)
        if np.isfinite(b):
            assert abs(a - b) <= 4 * np.finfo(float).eps * b, (a, b)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling", "geometric"])
def test_link_kernels_equal_action_and_dual_action_of_edge_fields(p, mobility_name):
    # the cases of the masked references above, on link fields and, by the
    # ordered-edge oracles, on their expansion to both orientations; fields
    # on one link at a time compare the inf and 0 cases term by term
    g, kernels, _, exps, state = random_geometric_setup(seed=5, n=12, p=p)
    mob = PRESETS[mobility_name]()
    rng = np.random.default_rng(int(10 * p))
    beta = (1.0, 0.7)
    rho = state.rho.copy()
    rho[:, ::4] = 0.0  # m = 0 on edges into (geometric) or out of these vertices
    links = g.n_links
    vel = beta[0] * _velocities(System(g, kernels, mob, exps), rho)
    vel[:, ::6] = 0.0
    flux = rng.normal(size=(2, links))
    flux[:, ::5] = 0.0
    singles = [np.zeros((2, links)) for _ in range(2 * links)]
    for k, field in enumerate(singles):
        field[:, k // 2] = (1.0, -0.5) if k % 2 else (-2.0, 0.25)
    for v in [vel] + singles:
        _assert_same_value(dual_action(g, rho, v, mob, beta, exps),
                           ordered_edge_dual_action(g, rho, edge_field(v), mob, beta, exps))
    for states in (rho, rho - 0.3, rho + 0.8):  # inside, below 0, above the cap of 1
        for j in [flux, np.zeros_like(flux)] + singles:
            _assert_same_value(action(g, states, j, mob, beta, exps),
                               ordered_edge_action(g, states, edge_field(j), mob, beta, exps))
    assert np.isinf(action(g, rho - 0.3, flux, mob, beta, exps).total)


def _cutoff_graph(radius, n=24, seed=11):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 2))

    def cutoff(xs, ys):
        dist = np.linalg.norm(xs - ys, axis=-1)
        return np.exp(-dist**2) * (dist <= radius)

    return build_graph(points, rng.uniform(0.5, 1.5, n), cutoff)


def _divergence_columns(graph):
    """Dense (n, links) divergence matrix, column u the divergence of unit link field u."""
    columns = np.zeros((graph.n_vertices, graph.n_links))
    for u in range(graph.n_links):
        basis = np.zeros(graph.n_links)
        basis[u] = 1.0
        columns[:, u] = nonlocal_divergence(graph, basis)
    return columns


def _triangle_edge_isolated_graph():
    # vertices 0-2 form a triangle, 3-4 an edge, and vertex 5 is isolated
    eta = np.zeros((6, 6))
    for l, k, w in [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 2.0), (3, 4, 1.5)]:
        eta[l, k] = eta[k, l] = w
    return build_graph(np.arange(6.0)[:, None], np.full(6, 0.5), eta)


@pytest.mark.parametrize("make, count", [
    (lambda: _cutoff_graph(0.2), 6),
    (_triangle_edge_isolated_graph, 3),
    (lambda: build_graph([[0.0], [1.0], [3.0]], [0.5, 0.25, 0.25], np.zeros((3, 3))), 3),
    (lambda: build_graph(np.arange(24.0)[:, None], np.full(24, 0.5), np.ones((24, 24))), 1),
], ids=["cutoff", "triangle-edge-isolated", "edgeless", "complete"])
def test_graph_components_match_connected_components(make, count):
    g = make()
    found, labels = connected_components(dense_eta(g) > 0, directed=False)
    assert found == count
    assert np.array_equal(g.component, labels)
    assert np.array_equal(g.ground, [np.flatnonzero(labels == c)[0] for c in range(count)])


@pytest.mark.parametrize("cuts", [0, 5])
def test_components_of_a_shuffled_path_match_connected_components(cuts):
    # a 4096-vertex path visiting the vertices in random order, whole and cut
    # into cuts + 1 pieces: each piece takes many hooking rounds.  A graph of
    # 4096 vertices holds dense (n, n) arrays, so the links go in directly
    n = 4096
    rng = np.random.default_rng(12)
    order = rng.permutation(n)
    kept = np.delete(np.arange(n - 1), rng.choice(n - 1, size=cuts, replace=False))
    lo, hi = np.sort([order[:-1][kept], order[1:][kept]], axis=0)
    component, ground = graph_mod._components(n, lo, hi)
    found, labels = connected_components(
        csr_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n)), directed=False)
    assert found == cuts + 1
    assert np.array_equal(component, labels)
    assert np.array_equal(ground, [np.flatnonzero(labels == c)[0] for c in range(found)])


@pytest.mark.parametrize("radius", [0.4, 0.2])  # one component, and six
def test_min_norm_flux_equals_pinv_formula(radius):
    g = _cutoff_graph(radius)
    div = _divergence_columns(g)
    rng = np.random.default_rng(5)
    # rates of mass-conserving changes: -div of random link fields
    rates = -np.einsum("ve,kie->kiv", div, rng.normal(size=(3, 2, g.n_links)))
    reference = -np.einsum("ev,kiv->kie", np.linalg.pinv(div), rates)
    got = min_norm_flux(g, rates)
    assert got.shape == (3, 2, g.n_links)
    assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert np.allclose(-np.einsum("ve,kie->kiv", div, got), rates, rtol=0, atol=1e-12)


@pytest.mark.parametrize("radius", [0.4, 0.2])  # one component, and six
@pytest.mark.parametrize("numbering", ["random", "by-x"])
def test_min_norm_flux_of_relabelled_vertices_is_the_relabelled_pinv_flux(radius, numbering):
    # the numbering sets the Laplacian's band: numbered along x it narrows
    # from 22 to 10 (one component) and from 15 to 3 (six), and the flux
    # must not move beyond round-off either way
    g = _cutoff_graph(radius)
    div = _divergence_columns(g)
    rng = np.random.default_rng(6)
    rates = -np.einsum("ve,kie->kiv", div, rng.normal(size=(3, 2, g.n_links)))
    reference = -np.einsum("ev,kiv->kie", np.linalg.pinv(div), rates)
    # vertex v of the relabelled graph is vertex order[v] of g
    order = rng.permutation(g.n_vertices) if numbering == "random" else np.argsort(g.points[:, 0])
    relabelled = build_graph(g.points[order], g.weights[order], dense_eta(g)[np.ix_(order, order)])
    # link (lo, hi) of the relabelled graph is the link between order[lo]
    # and order[hi], reversed, so its flux negated, where order[lo] > order[hi]
    lo, hi = order[relabelled.link_lo], order[relabelled.link_hi]
    keys = np.minimum(lo, hi) * g.n_vertices + np.maximum(lo, hi)
    link = np.searchsorted(g.link_lo * g.n_vertices + g.link_hi, keys)
    expected = reference[..., link] * np.where(lo < hi, 1.0, -1.0)
    got = min_norm_flux(relabelled, rates[..., order])
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(reference))


def _underflow_graph():
    # a triangle whose links at vertex 2 have eta 1e-170: eta^2 underflows,
    # so vertex 2 has no link of nonzero Laplacian weight
    eta = np.array([[0.0, 1.0, 1e-170], [1.0, 0.0, 1e-170], [1e-170, 1e-170, 0.0]])
    return build_graph(np.arange(3.0)[:, None], np.ones(3), eta)


def _cancelling_graph():
    # a triangle whose links at vertex 0 have eta 1e-10: grounded at 0, the
    # Laplacian [[1 + 1e-20, -1], [-1, 1 + 1e-20]] rounds to a singular matrix
    eta = np.array([[0.0, 1e-10, 1e-10], [1e-10, 0.0, 1.0], [1e-10, 1.0, 0.0]])
    return build_graph(np.arange(3.0)[:, None], np.ones(3), eta)


@pytest.mark.parametrize("make, reason", [
    (_underflow_graph, "links of nonzero weight leave it disconnected"),
    (_cancelling_graph, "pivot that is not positive at vertex 2"),
], ids=["underflow", "cancellation"])
def test_min_norm_flux_refuses_a_laplacian_singular_in_floating_point(make, reason):
    # SuperLU raised RuntimeError "Factor is exactly singular" on both
    g = make()
    assert g.ground.size == 1
    rho0, rho1 = np.full((2, 3), 1.0 / 3.0), np.array([[0.5, 0.25, 0.25], [1 / 3] * 3])
    message = f"component 0 \\(lowest vertex 0\\) has a singular grounded Laplacian.*{reason}"
    with pytest.raises(NotApplicable, match=message):
        min_norm_flux(g, rho1 - rho0)
    with pytest.raises(NotApplicable, match=message):
        transport_cost(g, rho0, rho1, 4, linear(), BETA, Exponents(2.0))


def test_transport_cost_two_vertex_objective_equals_matched_oracle():
    # the solver minimizes the exact discrete problem the oracle solves
    g, _, mob, exps, _ = s1_setup()
    start, end = s2_endpoints()
    _, _, cert = transport_cost(g, start, end, 16, mob, BETA, exps)
    oracle, _, _ = unit_transport_oracle(n_grid=16)
    assert cert.converged
    assert cert.objective == pytest.approx(oracle, abs=1e-9)


def _path_objective(graph, path, mobility, exponents):
    return float(np.sum(geodesic_profile(graph, path, mobility, BETA, exponents))) / path.n_intervals


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling"])
def test_transport_cost_feasible_perturbations_never_lower_the_objective(p, mobility_name):
    # first- and second-order check of the returned path on a 3-vertex
    # complete graph: perturbations that keep continuity and the endpoints,
    # a divergence-free flux cycle on one interval or a mass-preserving shift
    # of one interior state with the least-norm compensating fluxes
    rng = np.random.default_rng(int(10 * p))
    g = build_graph(rng.normal(size=(3, 2)), rng.uniform(0.5, 1.5, 3),
                    lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    mob, exps, K = PRESETS[mobility_name](), Exponents(p), 8
    rho0, rho1 = rng.uniform(0.2, 1.0, (2, 2, 3))
    rho0 /= (rho0 @ g.weights)[:, None]
    rho1 /= (rho1 @ g.weights)[:, None]
    _, path, cert = transport_cost(g, rho0, rho1, K, mob, BETA, exps)
    assert cert.converged
    base = _path_objective(g, path, mob, exps)

    cycle = np.linalg.svd(_divergence_columns(g))[2][-1]
    assert np.max(np.abs(nonlocal_divergence(g, cycle))) < 1e-14
    flux_scale = np.max(np.abs(path.fluxes))
    shift = rng.normal(size=3)
    shift -= (shift @ g.weights) / g.weights.sum()
    perturbed = []
    for k in range(K):
        for i in range(2):
            for eps in (-1e-2, -1e-3, 1e-3, 1e-2):
                fluxes = path.fluxes.copy()
                fluxes[k, i] += eps * flux_scale * cycle
                perturbed.append(DiscretePath(path.times, path.states, fluxes))
                if k == 0:
                    continue
                states, fluxes = path.states.copy(), path.fluxes.copy()
                states[k, i] += 0.1 * eps * shift
                fluxes[k - 1, i] += min_norm_flux(g, 0.1 * eps * shift * K)
                fluxes[k, i] -= min_norm_flux(g, 0.1 * eps * shift * K)
                perturbed.append(DiscretePath(path.times, states, fluxes))
    for other in perturbed:
        assert other.continuity_residual(g) < 1e-12
        assert _path_objective(g, other, mob, exps) >= base * (1.0 - 1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no mobility call outside its box
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling", "geometric"])
def test_transport_cost_vertex_empty_at_both_endpoints(p, mobility_name):
    rng = np.random.default_rng(3)
    g = build_graph(rng.normal(size=(4, 2)), rng.uniform(0.5, 1.5, 4),
                    lambda x, y: np.exp(-np.sum((x - y) ** 2, -1)))
    rho0, rho1 = rng.uniform(0.2, 1.0, (2, 2, 4))
    rho0[:, 2] = rho1[:, 2] = 0.0
    rho0 /= 2.0 * (rho0 @ g.weights)[:, None]  # mass 1/2 keeps below the cap of 1
    rho1 /= 2.0 * (rho1 @ g.weights)[:, None]
    _, path, cert = transport_cost(g, rho0, rho1, 16, PRESETS[mobility_name](), BETA,
                                   Exponents(p))
    assert cert.converged
    assert np.min(path.states) >= 0.0
    assert path.continuity_residual(g) <= 1e-10


def test_transport_cost_returns_antisymmetric_fluxes():
    from graphflow.scenarios import random_geometric_setup

    g, kernels, mob, exps, start = random_geometric_setup(seed=9, n=6, p=1.5)
    end = np.roll(start.rho, 2, axis=1)
    end /= (end @ g.weights)[:, None]
    _, path, cert = transport_cost(g, start.rho, end, 8, mob, kernels.beta, exps)
    assert cert.converged
    # link fields: their expansion to both orientations is antisymmetric, and
    # its ordered-edge divergence closes the continuity equation
    assert path.fluxes.shape == (8, 2, g.n_links)
    for k, fluxes in enumerate(path.fluxes):
        for i, flux in enumerate(fluxes):
            div = ordered_edge_divergence(edge_field(flux), g)
            assert np.max(np.abs(path.states[k + 1, i] - path.states[k, i] + div / 8)) <= 1e-10


def test_transport_cost_per_component_masses():
    # two components: the endpoints must agree on the mass of each
    eta = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = build_graph([[0.0], [1.0], [5.0], [6.0]], [1.0, 1.0, 1.0, 1.0], eta)
    start = np.array([[0.4, 0.1, 0.3, 0.2], [0.25, 0.25, 0.25, 0.25]])
    moved = np.array([[0.1, 0.4, 0.2, 0.3], [0.25, 0.25, 0.25, 0.25]])
    T, path, cert = transport_cost(g, start, moved, 8, linear(), BETA, Exponents(2.0))
    assert cert.converged and T > 0.0
    across = np.array([[0.5, 0.4, 0.0, 0.1], [0.25, 0.25, 0.25, 0.25]])
    with pytest.raises(InfeasibleEndpoints):
        transport_cost(g, start, across, 8, linear(), BETA, Exponents(2.0))


def test_continuity_residual_equals_per_species_loop():
    rng = np.random.default_rng(13)
    g = _cutoff_graph(0.4)
    K = 5
    path = DiscretePath(np.linspace(0.0, 1.0, K + 1), rng.uniform(size=(K + 1, 2, g.n_vertices)),
                        rng.normal(size=(K, 2, g.n_links)))
    worst = 0.0
    for k in range(K):
        for i in range(2):
            res = path.states[k + 1, i] - path.states[k, i] + (1.0 / K) * nonlocal_divergence(
                g, path.fluxes[k, i])
            worst = max(worst, float(np.max(np.abs(res))))
    assert path.continuity_residual(g) == worst


def _ladder_problem(n=64):
    """The refinement ladder's n-vertex level: quantile points of N(0, 1/4),
    complete under Gaussian eta, the 512 projected atoms as both species at
    the start and two tilted copies of them at the end."""
    plan = RefinementPlan("gaussian", {"mean": 0.0, "sigma": 0.5}, ladder=(n,), initial_atoms=512)
    points, weights = plan.sample_base(n)
    g = build_graph(points, weights, lambda x, y: np.exp(-0.5 * np.sum((x - y) ** 2, -1)))
    atoms = plan.quantile((np.arange(512) + 0.5) / 512).reshape(-1, 1)
    rho, _ = project_initial(atoms, np.full(512, 1.0 / 512), g.base)
    start = np.stack([rho, rho])
    x = points[:, 0]
    end = start * np.stack([1.0 + 0.5 * np.tanh(x), 1.0 - 0.3 * np.tanh(2.0 * x)])
    end /= (end @ weights)[:, None]
    return g, start, end, linear(), Exponents(2.0)


def _two_component_problem():
    rng = np.random.default_rng(17)
    g = _cutoff_graph(0.3, n=16)
    assert g.ground.size == 2
    start, end = rng.uniform(0.2, 1.0, (2, 2, g.n_vertices))
    for c in range(2):  # each component keeps its start mass
        on = g.component == c
        end[:, on] *= ((start[:, on] @ g.weights[on]) / (end[:, on] @ g.weights[on]))[:, None]
    return g, start, end, linear(), Exponents(1.5)


def _volume_filling_problem():
    g, _, mob, exps, start = random_geometric_setup(seed=4, n=6, p=3.0,
                                                    mobility_name="volume_filling")
    end = np.roll(start.rho, 1, axis=1)
    end /= (end @ g.weights)[:, None]
    assert np.isfinite(mob.threshold_cap) and np.max(end) < mob.threshold_cap
    return g, start.rho, end, mob, exps


_SEAM_PROBLEMS = pytest.mark.parametrize(
    "make", [_ladder_problem, _two_component_problem, _volume_filling_problem],
    ids=["complete-ladder-64", "cutoff-two-components", "volume-filling-cap"])


def _band_to_dense(band, kl, ku):
    """The square matrix held in LAPACK band storage (2 kl + ku + 1, n):
    A[i, j] in row kl + ku + i - j of column j for -ku <= i - j <= kl."""
    rows, cols = np.indices((band.shape[1],) * 2)
    inside = (rows - cols <= kl) & (cols - rows <= ku)
    dense = np.zeros(rows.shape)
    dense[inside] = band[kl + ku + rows[inside] - cols[inside], cols[inside]]
    return dense


def _recorded_solve(make, monkeypatch, K=8):
    """Solve a seam problem; the arguments of every Newton matrix the solve
    fills, and each band it hands to dgbtrf as a dense matrix."""
    g, start, end, mob, exps = make()
    values, handed = [], []
    matrix, dgbtrf = transport._NewtonSystem.matrix, scipy.linalg.lapack.dgbtrf

    def recording_matrix(self, *args):
        values.append(args)
        return matrix(self, *args)

    def recording_dgbtrf(ab, kl, ku, **kwargs):
        handed.append(_band_to_dense(ab, kl, ku))
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(transport._NewtonSystem, "matrix", recording_matrix)
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", recording_dgbtrf)
    _, _, cert = transport_cost(g, start, end, K, mob, BETA, exps)
    monkeypatch.undo()
    return g, cert, values, handed


@_SEAM_PROBLEMS
def test_newton_matrix_handed_to_lu_equals_element_assembly(make, monkeypatch):
    K = 8
    g, cert, values, handed = _recorded_solve(make, monkeypatch, K)
    assert cert.converged
    assert len(handed) == len(values) == cert.iterations
    for args, got in zip(values, handed):
        want = newton_matrix_dense(g, K, *args)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@_SEAM_PROBLEMS
def test_band_factor_solves_the_element_assembled_newton_matrix(make, monkeypatch):
    K = 8
    g, cert, values, _ = _recorded_solve(make, monkeypatch, K)
    assert cert.converged
    n = g.n_vertices
    system = transport._NewtonSystem(g, K)
    kept = np.ones((2 * K + 1) * n, dtype=bool)  # the unknowns of newton_matrix_dense
    kept[:n] = kept[2 * K * n:] = False
    kept[(2 * K - 1) * n + g.ground] = False
    rng = np.random.default_rng(5)
    for args in (values[0], values[len(values) // 2], values[-1]):
        want = newton_matrix_dense(g, K, *args)
        factors = system.factor(system.matrix(*args))
        state_rhs, continuity_rhs = rng.normal(size=(K - 1, n)), rng.normal(size=(K, n))
        d_states, d_lam = system.solve(factors, state_rhs, continuity_rhs)
        rhs, got = np.zeros((2 * K + 1, n)), np.zeros((2 * K + 1, n))
        rhs[2:-1:2], rhs[1::2] = state_rhs, continuity_rhs
        got[0::2], got[1::2] = d_states, d_lam
        rhs, got = rhs.ravel(), got.ravel()
        assert np.all(got[~kept] == 0.0)  # fixed endpoints and dropped rows
        reference = np.linalg.solve(want, rhs[kept])
        scale = np.linalg.norm(rhs[kept])
        assert np.linalg.norm(want @ got[kept] - rhs[kept]) <= 1e-10 * scale
        assert np.linalg.norm(want @ (got[kept] - reference)) <= 1e-10 * scale


def _assert_band_equals_entry_maps(system, graph, k_steps, args):
    want, kl = newton_band_by_entry_maps(graph, k_steps, *args)
    got = system.matrix(*args)
    assert (system.kl, system.ku, got.shape) == (kl, kl, want.shape)
    assert np.array_equal(got, want)


@_SEAM_PROBLEMS
def test_every_newton_band_of_a_solve_equals_the_entry_map_assembly(make, monkeypatch):
    K = 8
    g, cert, values, _ = _recorded_solve(make, monkeypatch, K)
    assert cert.converged
    system = transport._NewtonSystem(g, K)
    for args in values:
        _assert_band_equals_entry_maps(system, g, K, args)


@pytest.mark.parametrize("make", [
    lambda: _cutoff_graph(0.4),
    _triangle_edge_isolated_graph,
    lambda: _two_component_problem()[0],
    lambda: _volume_filling_problem()[0],
], ids=["cutoff", "triangle-edge-isolated", "two-components", "volume-filling"])
@pytest.mark.parametrize("k_steps", [1, 2, 3, 8])
def test_newton_band_equals_the_entry_map_assembly(make, k_steps):
    # K = 1 holds lambda_0 alone, K = 2 no R_k-R_{k+1} block, K = 3 every
    # kind of block once
    g = make()
    rng = np.random.default_rng(k_steps)
    shape = (k_steps, g.n_links)
    args = (tuple(rng.normal(size=shape) for _ in range(3)),
            tuple(rng.normal(size=shape) for _ in range(2)), rng.normal(size=shape),
            rng.normal(size=(k_steps - 1, g.n_vertices)))
    _assert_band_equals_entry_maps(transport._NewtonSystem(g, k_steps), g, k_steps, args)


def test_a_newton_band_beyond_lapack_indexing_is_refused_before_it_is_built(tmp_path, capsys):
    # at K = 5e7 on S1's two vertices the band holds 3.2e9 entries; it is
    # refused from the block pattern, before anything of K's size exists
    g, _, mob, exps, _ = s1_setup()
    start, end = s2_endpoints()
    began = time.perf_counter()
    with pytest.raises(NotApplicable, match="LAPACK's 32-bit band indexing"):
        transport_cost(g, start, end, 50_000_000, mob, BETA, exps)
    assert time.perf_counter() - began < 0.1
    paths = []
    cfg = {**s1_config(out_dir=str(tmp_path / "out")), "solver": {"steps": 50_000_000}}
    for name, payload in zip(("cfg", "from", "to"), (cfg, *s2_state_files())):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(payload))
    capsys.readouterr()
    assert main_cli(["metric", "--config", str(paths[0]), "--from", str(paths[1]),
                     "--to", str(paths[2])]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "32-bit" in err[0]


def test_transport_cost_memory_on_the_complete_ladder_graph(monkeypatch):
    # at n = 64 and K = 8 the solve peaks at about 11.6 MB, 4.4 MB of it the
    # band that every factorization overwrites; keeping each step's solver,
    # with its evaluation's arrays, through the next convergence check took
    # it to 12.6 MB, two intp maps with one entry per band entry to 17.3 MB,
    # and per-contribution (K, links, 6, 6) elements and their index arrays
    # to 37 MB
    g, start, end, mob, exps = _ladder_problem()
    live, pivots = [], []
    dgbtrf = scipy.linalg.lapack.dgbtrf

    def counting_dgbtrf(ab, kl, ku, **kwargs):
        live.append(sum(ref() is not None for ref in pivots))
        lu, piv, info = dgbtrf(ab, kl, ku, **kwargs)
        pivots.append(weakref.ref(piv))  # the pivots live as long as their factors
        return lu, piv, info

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", counting_dgbtrf)
    tracemalloc.start()
    try:
        _, _, cert = transport_cost(g, start, end, 8, mob, BETA, exps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.converged
    assert len(live) == cert.iterations and max(live) == 0
    assert peak <= 12.5e6


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no step is taken from singular factors
def test_singular_newton_matrix_stops_the_solve_with_a_certificate(monkeypatch, tmp_path):
    # a zero column makes the band factor meet an exact zero pivot (info > 0)
    matrix = transport._NewtonSystem.matrix

    def singular_matrix(self, *args):
        band = matrix(self, *args)
        band[:, 0] = 0.0
        return band

    monkeypatch.setattr(transport._NewtonSystem, "matrix", singular_matrix)
    g, _, mob, exps, _ = s1_setup()
    start, end = s2_endpoints()
    with pytest.raises(NotConverged) as caught:
        transport_cost(g, start, end, 4, mob, BETA, exps)
    cert = caught.value.certificate
    assert cert is not None and not cert.converged
    assert cert.iterations == 2  # one singular factor per species

    paths = []
    cfg = {**s1_config(out_dir=str(tmp_path / "out")), "solver": {"steps": 4}}
    for name, payload in zip(("cfg", "from", "to"), (cfg, *s2_state_files())):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(payload))
    assert main_cli(["metric", "--config", str(paths[0]), "--from", str(paths[1]),
                     "--to", str(paths[2])]) == 2


def test_transport_cost_at_one_step():
    # K = 1 leaves no interior state: the Newton system holds multipliers only
    g, _, mob, exps, _ = s1_setup()
    start, end = s2_endpoints()
    T, path, cert = transport_cost(g, start, end, 1, mob, BETA, exps)
    assert cert.converged and path.states.shape == (2, 2, 2)
    assert T == pytest.approx(1.4142135623730954, rel=1e-14)


def test_transport_cost_without_links_is_zero():
    # one vertex at K = 1: the Newton system is empty
    one = build_graph([[0.0]], [1.0], np.zeros((1, 1)))
    state = np.ones((2, 1))
    assert transport_cost(one, state, state, 1, linear(), BETA, Exponents(2.0))[0] == 0.0
    # two vertices without a link at K = 4: every vertex is its own component
    apart = build_graph([[0.0], [1.0]], [1.0, 1.0], np.zeros((2, 2)))
    state = np.array([[0.3, 0.7], [0.5, 0.5]])
    T, _, cert = transport_cost(apart, state, state, 4, linear(), BETA, Exponents(2.0))
    assert T == 0.0 and cert.converged


def _volume_filling_pair(rho1, rho2):
    """Two vertices of weight 1/2 under volume filling (cap 1), and endpoint
    pairs (start, end) with species 1 swapped between the vertices."""
    g = build_graph([[0.0], [1.0]], [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0]]))
    start = np.array([rho1, rho2], dtype=float)
    end = np.array([rho1[::-1], rho2], dtype=float)
    return g, start, end


def _volume_filling_config(tmp_path, start, end):
    cfg = s1_config(out_dir=str(tmp_path / "out"))
    cfg["graph"]["weights"] = [0.5, 0.5]
    cfg["mobility"] = {"preset": "volume_filling"}
    cfg["initial_state"] = {"rho1": [1.0, 1.0], "rho2": [1.0, 1.0]}
    cfg["solver"] = {"steps": 4}
    paths = []
    for name, state in (("from", start), ("to", end)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"rho1": state[0].tolist(), "rho2": state[1].tolist()}))
        paths.append(str(path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return ["metric", "--config", str(cfg_path), "--from", paths[0], "--to", paths[1]]


def test_transport_cost_rejects_an_endpoint_above_the_cap(tmp_path, capsys):
    # used to crash with AttributeError on the infinite objective of the start
    g, start, end = _volume_filling_pair([1.2, 0.8], [1.0, 1.0])
    with pytest.raises(ThresholdExceeded):
        transport_cost(g, start, end, 4, PRESETS["volume_filling"](), BETA, Exponents(2.0))
    assert main_cli(_volume_filling_config(tmp_path, start, end)) == 1
    assert "error: state outside [0, 1.0]" in capsys.readouterr().err


def test_transport_cost_reports_a_start_without_an_interior_path(tmp_path, capsys):
    # species 2 fills both vertices to the cap at both ends, so every path of
    # it sits on the bound, and its mobility m(1, 1) vanishes; it used to
    # crash with AttributeError on the infinite objective of the start
    g, start, end = _volume_filling_pair([0.3, 0.5], [1.0, 1.0])
    with pytest.raises(NotApplicable, match="species 2"):
        transport_cost(g, start, end, 4, PRESETS["volume_filling"](), BETA, Exponents(2.0))
    # unit masses, as the command line requires: both species fill the cap
    g, start, end = _volume_filling_pair([1.0, 1.0], [1.0, 1.0])
    assert main_cli(_volume_filling_config(tmp_path, start, end)) == 1
    assert "species 1" in capsys.readouterr().err


@pytest.mark.parametrize("k_steps", [0, -2, 2.5, True, "8", np.float64(8.0)])
def test_transport_cost_rejects_a_step_count_that_is_not_a_positive_integer(k_steps):
    # 2.5 used to fail inside numpy and True to run as K = 1
    g, _, mob, exps, _ = s1_setup()
    start, end = s2_endpoints()
    with pytest.raises(ValueError, match="k_steps"):
        transport_cost(g, start, end, k_steps, mob, BETA, exps)


def test_transport_cost_accepts_a_numpy_integer_step_count():
    g, _, mob, exps, _ = s1_setup()
    start, end = s2_endpoints()
    want = transport_cost(g, start, end, 4, mob, BETA, exps)[0]
    assert transport_cost(g, start, end, np.int64(4), mob, BETA, exps)[0] == want
