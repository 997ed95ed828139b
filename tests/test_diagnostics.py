import dataclasses

import numpy as np
import pytest

from graphflow import diagnostics, transport
from graphflow.diagnostics import (
    chain_rule_residual,
    de_giorgi,
    dissipation,
    moment,
    property_harness,
    w1_between_states,
    w1_distance,
)
from graphflow.dynamics import IntegratorOptions, Trajectory, integrate, rhs, upwind_flux
from graphflow.errors import MassMismatch, NotApplicable, ThresholdExceeded
from graphflow.graph import Exponents, nonlocal_gradient
from graphflow.kernels import System, build_kernel_set, energy, potentials, zero
from graphflow.mobility import PRESETS
from graphflow.scenarios import random_geometric_setup, s1_setup

from oracles import (
    chain_rule_residual_ordered_edges,
    de_giorgi_ordered_edges,
    edge_field,
    ordered_edges,
    w1_one_dimensional,
    w1_plane_lp,
)


def test_dissipation_examples():
    g, kernels, mob, exps, state = s1_setup()
    system = System(g, kernels, mob, exps)
    assert dissipation(system, state.rho) == pytest.approx(0.0625, abs=1e-15)
    mirrored = np.array([[0.25, 0.75], [0.5, 0.5]])
    assert dissipation(system, mirrored) == pytest.approx(0.0625, abs=1e-15)
    zero_set = build_kernel_set(zero(), zero(), zero(), zero(), dimension=1)
    assert dissipation(System(g, zero_set, mob, exps), state.rho) == 0.0


def test_de_giorgi_gradient_flow_residual_small():
    g, kernels, mob, exps, state = s1_setup()
    system = System(g, kernels, mob, exps)
    traj = integrate(system, state, 1.0, IntegratorOptions(max_dt=1 / 128))
    report = de_giorgi(system, traj)
    assert abs(report.g_t) <= 1e-3
    assert report.energy_start == pytest.approx(0.1875)
    # identity split: both integrals carry half the energy drop each (p = 2)
    assert report.dissipation_integral == pytest.approx(report.velocity_integral, rel=1e-4)


def test_de_giorgi_constant_trajectory_exact_zero():
    g, _, mob, exps, state = s1_setup()
    zero_set = build_kernel_set(zero(), zero(), zero(), zero(), dimension=1)
    system = System(g, zero_set, mob, exps)
    report = de_giorgi(system, integrate(system, state, 1.0))
    assert report.g_t == 0.0


def test_de_giorgi_positive_for_non_gradient_path():
    # constant-speed linear interpolation solves the continuity equation but
    # is not a weak solution, so the De Giorgi functional is strictly positive
    g, kernels, mob, exps, state = s1_setup()
    system = System(g, kernels, mob, exps)
    mirrored = np.array([[0.25, 0.75], [0.5, 0.5]])
    K = 64
    times = np.linspace(0.0, 1.0, K + 1)
    states = np.array([(1 - t) * state.rho + t * mirrored for t in times])
    rate = mirrored - state.rho  # d rho / dt, constant
    node_fluxes = np.zeros((K + 1, 2, g.n_links))
    node_fluxes[:, 0, 0] = -rate[0, 0]  # along the edge (0, 1)
    traj = Trajectory(
        times=times,
        states=states,
        energies=np.array([energy(system, s) for s in states]),
        node_fluxes=node_fluxes,
    )
    report = de_giorgi(system, traj)
    assert report.g_t > 1e-3


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dissipation_matches_energy_decay_rate(p):
    g, kernels, mob, _, state = s1_setup()
    system = System(g, kernels, mob, Exponents(p))
    h = 1e-6
    # -div j(l) = -sum_k j(l, k) eta mu_k over the edges out of l
    src, dst, eta = ordered_edges(g)
    flux = edge_field(upwind_flux(system, state.rho))
    rate = np.stack(
        [
            -np.array(
                [
                    np.sum(flux[i][src == l] * eta[src == l] * g.weights[dst[src == l]])
                    for l in range(g.n_vertices)
                ]
            )
            for i in range(2)
        ]
    )
    e_plus = energy(system, state.rho + h * rate)
    e_minus = energy(system, state.rho - h * rate)
    de_dt = (e_plus - e_minus) / (2 * h)
    assert de_dt == pytest.approx(-dissipation(system, state.rho), abs=1e-6)


@pytest.mark.parametrize("species, vertex, value", [(0, 0, -5e-9), (1, 2, 1.0 + 5e-9)])
def test_energy_decays_at_the_dissipation_rate_inside_the_slack(species, vertex, value):
    # the flux and the dissipation read the same clipped link mobilities, so
    # dE/dt = sum phi rho' mu = -D holds to round-off also at a state that
    # leaves the box by less than the flux law's slack
    g, kernels, mob, exps, state = random_geometric_setup(seed=3, n=9,
                                                          mobility_name="volume_filling")
    system = System(g, kernels, mob, exps)
    rho = state.rho.copy()
    rho[species, vertex] = value
    de_dt = float(np.sum(potentials(system, rho) * rhs(system, rho) * g.weights))
    diss = dissipation(system, rho)
    assert diss > 0 and abs(de_dt + diss) <= 1e-14 * diss


def test_diagnostics_refuse_a_state_beyond_the_slack():
    # a curve without fluxes takes the flux law at its states, which refuses
    # a state beyond the slack as the integrator's right-hand side does
    g, kernels, mob, exps, state = random_geometric_setup(seed=3, n=9,
                                                          mobility_name="volume_filling")
    system = System(g, kernels, mob, exps)
    for index, value in (((0, 1), -1e-6), ((1, 3), 1.0 + 1e-6)):
        states = np.array([state.rho, state.rho])
        states[(1,) + index] = value
        traj = Trajectory(times=np.array([0.0, 0.1]), states=states, energies=None)
        with pytest.raises(ThresholdExceeded):
            de_giorgi(system, traj)
        with pytest.raises(ThresholdExceeded):
            chain_rule_residual(system, traj)


def test_chain_rule_residual_small_on_gradient_flow():
    g, kernels, mob, exps, state = s1_setup()
    system = System(g, kernels, mob, exps)
    traj = integrate(system, state, 1.0, IntegratorOptions(max_dt=1 / 128))
    assert chain_rule_residual(system, traj) <= 1e-4


def test_chain_rule_residual_zero_on_constant():
    g, _, mob, exps, state = s1_setup()
    zero_set = build_kernel_set(zero(), zero(), zero(), zero(), dimension=1)
    system = System(g, zero_set, mob, exps)
    assert chain_rule_residual(system, integrate(system, state, 1.0)) == 0.0


def test_moment_examples():
    g, _, _, _, state = s1_setup()
    concentrated = np.array([1.0, 0.0])
    assert moment(g, concentrated, 2.0) == 0.0
    assert moment(g, state.rho1, 2.0) == pytest.approx(0.25)
    assert moment(g, state.rho, 2.0) == pytest.approx(0.25 + 0.5)
    with pytest.raises(ValueError):
        moment(g, state.rho1, 0.0)


def test_moment_bounded_along_trajectory():
    g, kernels, mob, exps, state = s1_setup()
    traj = integrate(System(g, kernels, mob, exps), state, 2.0)
    moments = [moment(g, traj.states[k, 0], 2.0) for k in range(len(traj.times))]
    assert max(moments) <= 1.0 + 1e-12


def test_w1_distance_examples():
    g, _, _, _, _ = s1_setup()
    assert w1_distance(g.points, [0.3, 0.7], g.points, [0.3, 0.7]) == pytest.approx(0.0)
    assert w1_distance(g.points, [1.0, 0.0], g.points, [0.0, 1.0]) == pytest.approx(1.0)
    pts = np.array([[0.0], [1.0], [2.0]])
    split = w1_distance(pts, [1.0, 0.0, 0.0], pts, [0.0, 0.5, 0.5])
    assert split == pytest.approx(1.5)
    with pytest.raises(MassMismatch):
        w1_distance(pts, [1.0, 0.0, 0.0], pts, [0.0, 0.5, 0.0])


def test_w1_distance_matches_cdf_oracle():
    rng = np.random.default_rng(14)
    for _ in range(20):
        na, nb = rng.integers(2, 8, size=2)
        xa = rng.normal(size=(na, 1))
        xb = rng.normal(size=(nb, 1))
        ma = rng.uniform(0.1, 1.0, size=na)
        mb = rng.uniform(0.1, 1.0, size=nb)
        ma /= ma.sum()
        mb /= mb.sum()
        assert w1_distance(xa, ma, xb, mb) == pytest.approx(
            w1_one_dimensional(xa, ma, xb, mb), abs=1e-12)


def test_w1_distance_line_formula_matches_plane_lp():
    # the same points embedded as (x, 0) go through the transport LP
    rng = np.random.default_rng(15)
    for trial in range(20):
        na, nb = rng.integers(1, 9, size=2)
        xa = rng.normal(size=(na, 1))
        xb = rng.normal(size=(nb, 1)) if trial % 4 else xa[rng.integers(0, na, size=nb)]
        ma = rng.uniform(0.0, 1.0, size=na) * (rng.uniform(size=na) < 0.8)
        mb = rng.uniform(0.1, 1.0, size=nb)
        ma[0] += 0.1
        mb *= ma.sum() / mb.sum()
        line = w1_distance(xa, ma, xb, mb)
        plane = w1_plane_lp(np.hstack([xa, np.zeros_like(xa)]), ma,
                            np.hstack([xb, np.zeros_like(xb)]), mb)
        assert line == pytest.approx(plane, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (1, 3)])
def test_w1_distance_refuses_points_off_the_line(dims):
    pts = [np.zeros((2, dim)) for dim in dims]
    with pytest.raises(NotApplicable, match=f"dimension {max(dims)}"):
        w1_distance(pts[0], [0.5, 0.5], pts[1], [0.5, 0.5])


def test_w1_between_states_sums_species():
    g, _, _, _, _ = s1_setup()
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert w1_between_states(a, b, g) == pytest.approx(1.0)


@pytest.mark.parametrize("suite", ["holder", "holder_tilde", "minkowski", "antisym",
                                   "convexity", "duality"])
def test_property_harness_suites_pass(suite):
    report = property_harness(suite, seed=2024, n_samples=60)
    assert report.passed, report.failures[:1]
    assert report.n_samples == 60


def test_property_harness_nonneg_suite():
    report = property_harness("nonneg", seed=5, n_samples=5)
    assert report.passed


def test_property_harness_unknown_suite():
    report = property_harness("not_a_suite", seed=0, n_samples=10)
    assert not report.passed
    assert "unknown suite" in report.note


def test_property_harness_records_and_shrinks_each_failure(monkeypatch):
    # a violation equal to the field scale fails every sample at tolerance
    # 0.1, and its replays at halved scales still fail down to 0.125
    monkeypatch.setitem(diagnostics._SUITES, "scale", (lambda rng, scale: scale, 0.1))
    report = property_harness("scale", seed=3, n_samples=4)
    assert not report.passed and report.max_violation == 1.0
    assert report.failures == [diagnostics.HarnessFailure(sample, 1.0, 0.125, 0.125)
                               for sample in range(4)]


def test_de_giorgi_random_geometric_all_exponents():
    for p in (1.5, 2.0, 3.0):
        g, kernels, mob, exps, state = random_geometric_setup(seed=1, n=8, p=p)
        system = System(g, kernels, mob, exps)
        traj = integrate(system, state, 0.5, IntegratorOptions(max_dt=1 / 64))
        report = de_giorgi(system, traj)
        assert abs(report.g_t) <= 1e-3, (p, report.g_t)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling", "saturating"])
def test_per_link_diagnostics_match_ordered_edge_oracle(p, mobility_name):
    # de_giorgi, dissipation and chain_rule_residual evaluate each state once
    # per link; the oracle takes every ordered edge through the raw formulas,
    # so the two differ only in the order of summation
    g, kernels, mob, exps, state = random_geometric_setup(
        seed=2, n=10, p=p, mobility_name=mobility_name)
    kernels = dataclasses.replace(kernels, beta=np.array([1.0, 0.7]))
    system = System(g, kernels, mob, exps)
    traj = integrate(system, state, 0.25, IntegratorOptions(max_dt=1 / 32))
    report = de_giorgi(system, traj)
    diss, act, g_t = de_giorgi_ordered_edges(system, traj)
    tol = 4 * np.finfo(float).eps
    series = np.array(report.series)
    assert np.array_equal(series[:, :2], np.column_stack([traj.times, traj.energies]))
    assert np.all(diss > 0) and np.all(act > 0)
    assert np.all(np.abs(series[:, 2] - diss) <= tol * diss)
    assert np.all(np.abs(series[:, 3] - act) <= tol * act)
    scale = max(abs(report.energy_start), abs(report.energy_end),
                report.dissipation_integral, report.velocity_integral)
    assert abs(report.g_t - g_t) <= tol * scale
    for rho, want in zip(traj.states, diss):
        assert abs(dissipation(system, rho) - want) <= tol * want
    got = chain_rule_residual(system, traj)
    want = chain_rule_residual_ordered_edges(system, traj)
    assert abs(got - want) <= tol * np.max(np.abs(traj.energies))


@pytest.mark.parametrize("diagnostic", [de_giorgi, chain_rule_residual])
def test_diagnostics_take_energies_from_their_own_potentials(diagnostic, monkeypatch):
    # a curve read back from its states carries no energies: the diagnostics
    # take them from the one potentials evaluation they make per state, bit
    # for bit the energies the integrator stores
    g, kernels, mob, exps, state = random_geometric_setup(seed=5, n=8, p=1.5)
    system = System(g, kernels, mob, exps)
    traj = integrate(system, state, 0.25, IntegratorOptions(max_dt=1 / 16))
    want = diagnostic(system, traj)
    calls = []
    potentials = diagnostics.potentials
    monkeypatch.setattr(diagnostics, "potentials", lambda *a: calls.append(1) or potentials(*a))
    got = diagnostic(system, dataclasses.replace(traj, energies=None))
    assert got == want
    assert len(calls) == len(traj.times)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_chain_rule_holds_along_non_gradient_curves(p):
    # the chain rule identity is not specific to gradient flows: along the
    # accelerating u(t) = t^2 path the residual is pure quadrature error and
    # shrinks at second order in the grid spacing
    g, kern, mob, _, state = s1_setup()
    system = System(g, kern, mob, Exponents(p))
    mirrored = np.array([[0.25, 0.75], [0.5, 0.5]])
    residuals = []
    for K in (64, 128):
        times = np.linspace(0.0, 1.0, K + 1)
        u = times**2
        states = np.array([(1 - uu) * state.rho + uu * mirrored for uu in u])
        node_fluxes = np.zeros((K + 1, 2, g.n_links))
        rate0 = (mirrored - state.rho)[0, 0]
        node_fluxes[:, 0, 0] = -rate0 * 2 * times  # along the edge (0, 1)
        traj = Trajectory(
            times=times, states=states,
            energies=np.array([energy(system, s) for s in states]),
            node_fluxes=node_fluxes,
        )
        residuals.append(chain_rule_residual(system, traj))
    assert residuals[0] <= 1e-4
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.2)


def test_property_harness_decoupling_suite():
    report = property_harness("decoupling", seed=1, n_samples=3)
    assert report.passed, report.failures[:1]


def _public_terms(system, rho, flux):
    """Dissipation, action and chain-rule integrand of one state by the public
    transport functions, each gathering the state and evaluating the mobility
    itself."""
    g, beta, mob, exps = system.graph, system.kernels.beta, system.mobility, system.exponents
    ascent = -beta[:, None] * -nonlocal_gradient(g, potentials(system, rho))
    vel = transport.velocity_from_flux(g, rho, flux, mob, exps)
    return (dissipation(system, rho), transport.action(g, rho, flux, mob, beta, exps).total,
            transport.pairing_l_tilde(g, rho, vel, ascent, mob, beta, exps))


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling", "geometric"])
def test_shared_state_terms_equal_the_public_kernels(p, mobility_name):
    # de_giorgi and chain_rule_residual gather each state once and share its
    # link mobilities: bit for bit the public calls, for states inside their
    # box, with an empty vertex, and outside it within the flux law's slack
    # (whose flux takes the clipped densities), and for a curve with its own
    # fluxes outside the box (infinite action)
    g, kernels, _, exps, state = random_geometric_setup(seed=3, n=9, p=p)
    system = System(g, kernels, PRESETS[mobility_name](), exps)
    rho = 0.5 * state.rho / np.max(state.rho)
    states = np.array([rho.copy() for _ in range(4)])
    states[1][:, 2] = 0.0
    states[2][0, 3] = -1e-9
    states[3][1, 4] = 1.0 + 1e-9
    times = np.linspace(0.0, 0.3, 4)
    own = np.random.default_rng(2).normal(size=(4, 2, g.n_links))
    for traj in (Trajectory(times=times, states=states, energies=None),
                 Trajectory(times=times, states=states - 0.05, energies=None, node_fluxes=own)):
        integrand = []
        with np.errstate(invalid="ignore"):  # the geometric mean of a negative entry
            report = de_giorgi(system, traj)
            for k, rho in enumerate(traj.states):
                flux = upwind_flux(system, rho) if traj.node_fluxes is None else own[k]
                diss, act, pairing = _public_terms(system, rho, flux)
                assert np.array_equal(report.series[k][2:], (diss, act), equal_nan=True)
                integrand.append(pairing)
            got = chain_rule_residual(system, traj)
        energies = [energy(system, rho) for rho in traj.states]
        steps = 0.5 * (np.array(integrand[1:]) + integrand[:-1]) * np.diff(times)
        defect = energies - np.concatenate([[0.0], np.cumsum(steps)])
        assert got == float(np.max(defect) - np.min(defect)) or np.isnan(got)
    assert not np.isfinite(report.g_t)
