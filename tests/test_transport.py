import numpy as np
import pytest

from graphflow.dynamics import upwind_flux
from graphflow.errors import InfeasibleEndpoints, InfiniteAction, NonAntisymmetric
from graphflow.graph import (
    Exponents,
    antisymmetrize_flux,
    build_graph,
    is_antisymmetric,
    nonlocal_divergence,
)
from graphflow.kernels import edge_velocities, energy
from graphflow.mobility import PRESETS, linear
from graphflow.scenarios import s1_setup, s2_endpoints, two_point_graph
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

from oracles import interval_actions, masked_alpha_density, unit_transport_oracle

BETA = (1.0, 1.0)


def _gradient_flux(setup):
    g, kernels, mob, exps, state = setup
    return upwind_flux(state.rho, kernels, mob, exps, g)


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
    zero = np.zeros((2, g.n_edges))
    assert action(g, state.rho, zero, mob, BETA, exps).total == 0.0
    # unit flux out of an empty vertex costs infinity under linear mobility
    empty = np.array([[0.0, 1.0], [0.5, 0.5]])
    flux = np.zeros((2, g.n_edges))
    flux[0][(g.edge_src == 0)] = 1.0
    assert action(g, empty, flux, mob, BETA, exps).total == np.inf


def test_dual_action_examples_and_flux_of():
    g, kernels, mob, exps, state = s1_setup()
    vel = kernels.beta[:, None] * edge_velocities(state.rho, kernels, g)
    value = dual_action(g, state.rho, vel, mob, BETA, exps)
    assert value.total == pytest.approx(0.0625, abs=1e-15)
    flux = flux_from_velocity(g, state.rho, vel, mob, exps)
    lookup = dict(zip(zip(g.edge_src.tolist(), g.edge_dst.tolist()), flux[0]))
    assert lookup[(0, 1)] == pytest.approx(-0.125, abs=1e-15)
    assert dual_action(g, state.rho, np.zeros_like(vel), mob, BETA, exps).total == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dual_action_consistency_identity(p):
    g, kernels, mob, _, state = s1_setup()
    exps = Exponents(p)
    vel = kernels.beta[:, None] * edge_velocities(state.rho, kernels, g)
    tilde = dual_action(g, state.rho, vel, mob, BETA, exps).total
    through_flux = action(
        g, state.rho, flux_from_velocity(g, state.rho, vel, mob, exps), mob, BETA, exps
    ).total
    assert tilde == pytest.approx(through_flux, abs=1e-12)


def test_dual_action_requires_antisymmetry():
    g, _, mob, exps, state = s1_setup()
    vel = np.ones((2, g.n_edges))
    with pytest.raises(NonAntisymmetric):
        dual_action(g, state.rho, vel, mob, BETA, exps)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_velocity_from_flux_round_trip(p):
    rng = np.random.default_rng(4)
    g = two_point_graph()
    exps = Exponents(p)
    mob = linear()
    rho = rng.uniform(0.2, 0.8, size=(2, 2))
    vel = np.stack([antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)])
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
    a = np.stack([antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)])
    b = np.stack([antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)])
    lhs = pairing_l(g, state.rho, flux, a + 2.5 * b, mob, BETA, exps)
    rhs = pairing_l(g, state.rho, flux, a, mob, BETA, exps) + 2.5 * pairing_l(
        g, state.rho, flux, b, mob, BETA, exps
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pairing_l_requires_finite_action():
    g, kernels, mob, exps, state = s1_setup()
    empty = np.array([[0.0, 1.0], [0.5, 0.5]])
    flux = np.zeros((2, g.n_edges))
    flux[0][(g.edge_src == 0)] = 1.0
    with pytest.raises(InfiniteAction):
        pairing_l(g, empty, flux, flux, mob, BETA, exps)


def test_pairing_l_tilde_identities():
    g, kernels, mob, exps, state = s1_setup()
    vel = kernels.beta[:, None] * edge_velocities(state.rho, kernels, g)
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
        j = np.stack([antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)])
        jbar = np.stack([antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)])
        lhs = pairing_l(g, rho, j, jbar, mob, BETA, exps)
        jj = pairing_l(g, rho, j, j, mob, BETA, exps)
        bb = pairing_l(g, rho, jbar, jbar, mob, BETA, exps)
        assert lhs <= bb ** (1 / exps.p) * jj ** (1 / exps.q) + 1e-10
        lhs_t = pairing_l_tilde(g, rho, j, jbar, mob, BETA, exps)
        jj_t = pairing_l_tilde(g, rho, j, j, mob, BETA, exps)
        bb_t = pairing_l_tilde(g, rho, jbar, jbar, mob, BETA, exps)
        assert lhs_t <= jj_t ** (1 / exps.p) * bb_t ** (1 / exps.q) + 1e-10
    # equality at aligned arguments
    j = np.stack([antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)])
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
        j = np.stack([antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)])
        jbar = np.stack([antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)])
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
    grad_flux = upwind_flux(state.rho, kernels, mob, exps, g)

    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(5):
        test_flux = np.stack(
            [antisymmetrize_flux(rng.normal(size=g.n_edges), g) for _ in range(2)]
        )
        div = np.stack([nonlocal_divergence(test_flux[i], g) for i in range(2)])
        e_plus = energy(state.rho - h * div, kernels, g)
        e_minus = energy(state.rho + h * div, kernels, g)
        directional = (e_plus - e_minus) / (2 * h)  # dE along d rho/dt = -div j
        paired = pairing_l(g, state.rho, grad_flux, test_flux, mob, BETA, exps)
        assert paired == pytest.approx(-directional, abs=1e-6)


def test_antisymmetrization_never_increases_action():
    rng = np.random.default_rng(77)
    g = two_point_graph()
    mob = linear()
    exps = Exponents(2.0)
    for _ in range(200):
        rho = rng.uniform(0.05, 0.95, size=(2, 2))
        raw = np.abs(rng.normal(size=(2, g.n_edges)))
        sym = np.stack([antisymmetrize_flux(raw[i], g) for i in range(2)])
        a_raw = action(g, rho, raw, mob, BETA, exps).total
        a_sym = action(g, rho, sym, mob, BETA, exps).total
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
            j0 = rng.normal(size=(2, g.n_edges))
            j1 = rng.normal(size=(2, g.n_edges))
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
    flux = upwind_flux(state.rho, kernels, mob, exps, g)
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
    fluxes = np.zeros((K, 2, g.n_edges))
    du = np.diff(u) * K  # du/dt on each interval
    for e, (src, dst) in enumerate(zip(g.edge_src, g.edge_dst)):
        if (src, dst) == (0, 1):
            fluxes[:, 0, e] = du
        elif (src, dst) == (1, 0):
            fluxes[:, 0, e] = -du
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


def test_transport_cost_expression_mobility_matches_preset():
    # the expression path exercises the finite-difference mobility partials
    from graphflow.mobility import from_expression

    g, _, _, exps, _ = s1_setup()
    r0 = np.array([[0.8, 0.2], [0.5, 0.5]])
    r1 = np.array([[0.25, 0.75], [0.5, 0.5]])
    t_preset, _, _ = transport_cost(g, r0, r1, 16, linear(), BETA, exps)
    t_expr, _, _ = transport_cost(g, r0, r1, 16, from_expression("r"), BETA, exps)
    assert t_expr == pytest.approx(t_preset, abs=1e-6)


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

    n, n_edges = g.n_vertices, g.n_edges
    dt = 1.0 / K
    div_op = np.zeros((n, n_edges))
    for e in range(n_edges):
        basis = np.zeros(n_edges)
        basis[e] = 1.0
        div_op[:, e] = nonlocal_divergence(basis, g)
    w = g.edge_eta * g.edge_pair_weight
    terms, constraints = [], []
    for i in range(2):
        states = [cp.Constant(rho0[i])]
        states += [cp.Variable(n, nonneg=True) for _ in range(K - 1)]
        states.append(cp.Constant(rho1[i]))
        for k in range(K):
            jp = cp.Variable(n_edges, nonneg=True)
            jm = cp.Variable(n_edges, nonneg=True)
            constraints.append(states[k + 1] - states[k] == -dt * (div_op @ (jp - jm)))
            mid = 0.5 * (states[k] + states[k + 1])
            r_src = mid[g.edge_src]
            r_dst = mid[g.edge_dst]
            for e in range(n_edges):
                terms.append(dt * 0.5 * w[e] * cp.quad_over_lin(jp[e], r_src[e]))
                terms.append(dt * 0.5 * w[e] * cp.quad_over_lin(jm[e], r_dst[e]))
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
    one species at a time."""
    q = exponents.q
    parts = []
    for i in range(2):
        v = velocity_pair[i]
        m_fwd = mobility(rho_pair[i][graph.edge_src], rho_pair[i][graph.edge_dst])
        vp = np.maximum(v, 0.0)
        active = vp > 0
        vals = np.zeros_like(vp)
        degenerate = active & (m_fwd <= 0)
        vals[active & ~degenerate] = m_fwd[active & ~degenerate] * vp[active & ~degenerate] ** q
        weight = graph.edge_eta * (graph.weights[graph.edge_src] * graph.weights[graph.edge_dst])
        parts.append(float(np.sum(vals * weight)) / float(beta[i]))
    return parts


def _masked_action(graph, rho_pair, flux_pair, mobility, beta, exponents):
    """Reference: sum of both orientations' masked cost densities per species."""
    weight = graph.edge_eta * (graph.weights[graph.edge_src] * graph.weights[graph.edge_dst])
    parts = []
    for i in range(2):
        r_src, r_dst = rho_pair[i][graph.edge_src], rho_pair[i][graph.edge_dst]
        fwd = masked_alpha_density(flux_pair[i], r_src, r_dst, mobility, exponents)
        bwd = masked_alpha_density(-flux_pair[i], r_dst, r_src, mobility, exponents)
        parts.append(0.5 * float(np.sum((fwd + bwd) * weight)) / float(beta[i]))
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
    vel = beta[0] * edge_velocities(rho, kernels, g)
    got = dual_action(g, rho, vel, mob, beta, exps)
    want = _masked_dual_action(g, rho, vel, mob, beta, exps)
    assert got.per_species == tuple(want) and got.total == want[0] + want[1]

    flux = rng.normal(size=(2, g.n_edges))
    flux[:, ::5] = 0.0
    for states in (rho, rho - 0.3, rho + 0.8):  # inside, below 0, above the cap of 1
        got = action(g, states, flux, mob, beta, exps)
        want = _masked_action(g, states, flux, mob, beta, exps)
        assert got.per_species == tuple(want) and got.total == want[0] + want[1]
    assert np.isinf(action(g, rho - 0.3, flux, mob, beta, exps).total)


def _cutoff_graph(radius, n=24, seed=11):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 2))

    def cutoff(xs, ys):
        dist = np.linalg.norm(xs - ys, axis=-1)
        return np.exp(-dist**2) * (dist <= radius)

    return build_graph(points, rng.uniform(0.5, 1.5, n), cutoff)


def _divergence_columns(graph):
    """Dense (n, e) divergence matrix, column e the divergence of unit edge field e."""
    columns = np.zeros((graph.n_vertices, graph.n_edges))
    for e in range(graph.n_edges):
        basis = np.zeros(graph.n_edges)
        basis[e] = 1.0
        columns[:, e] = nonlocal_divergence(basis, graph)
    return columns


@pytest.mark.parametrize("radius", [0.4, 0.2])  # one component, and six
def test_min_norm_flux_equals_pinv_formula(radius):
    g = _cutoff_graph(radius)
    div = _divergence_columns(g)
    rng = np.random.default_rng(5)
    # rates of mass-conserving changes: -div of random edge fields
    rates = -np.einsum("ve,kie->kiv", div, rng.normal(size=(3, 2, g.n_edges)))
    reference = -np.einsum("ev,kiv->kie", np.linalg.pinv(div), rates)
    got = min_norm_flux(g, rates)
    assert got.shape == (3, 2, g.n_edges)
    assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert np.allclose(-np.einsum("ve,kie->kiv", div, got), rates, rtol=0, atol=1e-12)


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

    cycle = antisymmetrize_flux(np.linalg.svd(_divergence_columns(g))[2][-1], g)
    assert np.max(np.abs(nonlocal_divergence(cycle, g))) < 1e-14
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
    assert all(np.all(is_antisymmetric(fluxes, g)) for fluxes in path.fluxes)


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
                        rng.normal(size=(K, 2, g.n_edges)))
    worst = 0.0
    for k in range(K):
        for i in range(2):
            res = path.states[k + 1, i] - path.states[k, i] + (1.0 / K) * nonlocal_divergence(
                path.fluxes[k, i], g)
            worst = max(worst, float(np.max(np.abs(res))))
    assert path.continuity_residual(g) == worst
