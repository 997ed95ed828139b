import time

import numpy as np
import pytest

from graphflow import dynamics
from graphflow.dynamics import (
    IntegratorOptions,
    SpeciesPairState,
    integrate,
    rhs,
    upwind_flux,
)
from graphflow.errors import StepSizeUnderflow, ThresholdExceeded
from graphflow.graph import Exponents, build_graph, nonlocal_divergence
from graphflow.kernels import System, build_kernel_set, distance, zero
from graphflow.mobility import Mobility, volume_filling
from graphflow.scenarios import random_geometric_setup, s1_setup

from oracles import (edge_field, ordered_edge_divergence, ordered_edges, rk4_reference,
                     run_divergence)


def test_upwind_flux_two_vertex():
    g, kernels, mob, exps, state = s1_setup()
    flux = upwind_flux(System(g, kernels, mob, exps), state.rho)
    # one value per link, the flux on its edge (0, 1)
    assert flux.shape == (2, g.n_links) == (2, 1)
    assert flux[0, 0] == pytest.approx(-0.125, abs=1e-15)
    assert np.all(flux[1] == 0.0)


def test_upwind_flux_p3_mobility_enters_linearly():
    # the source mobility multiplies the (q-1)-power of the velocity; this is
    # the unique scaling for which the pairing identity and the dissipation
    # balance hold at every exponent (the velocity-power form would give
    # (0.5 * 0.25)^(1/2) here instead)
    g, kernels, mob, _, state = s1_setup()
    flux = upwind_flux(System(g, kernels, mob, Exponents(3.0)), state.rho)
    expected = -0.25 * np.sqrt(0.5)
    assert flux[0, 0] == pytest.approx(expected, abs=1e-15)  # on the edge (0, 1)


def test_upwind_flux_uniform_state_is_zero():
    g, kernels, mob, exps, _ = s1_setup()
    uniform = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.all(upwind_flux(System(g, kernels, mob, exps), uniform) == 0.0)


def test_upwind_flux_rejects_threshold_violation():
    g, kernels, _, exps, _ = s1_setup()
    mob = volume_filling(1.0)
    bad = np.array([[1.4, 0.1], [0.5, 0.5]])
    with pytest.raises(ThresholdExceeded):
        upwind_flux(System(g, kernels, mob, exps), bad)


def test_rhs_examples():
    g, kernels, mob, exps, state = s1_setup()
    system = System(g, kernels, mob, exps)
    deriv = rhs(system, state.rho)
    assert deriv[0] == pytest.approx([0.125, -0.125], abs=1e-15)
    assert np.all(deriv[1] == 0.0)
    mirrored = np.array([[0.25, 0.75], [0.5, 0.5]])
    deriv_m = rhs(system, mirrored)
    assert deriv_m[0] == pytest.approx([-0.125, 0.125], abs=1e-15)
    # mass conservation of the right-hand side is exact
    assert abs(np.sum(deriv[0] * g.weights)) < 1e-16


def test_integrate_two_vertex_against_reference():
    g, kernels, mob, exps, state = s1_setup()
    system = System(g, kernels, mob, exps)
    traj = integrate(system, state, 1.0)

    # independent dense reference: the reduced scalar system da/dt = b(a-b)
    def scalar_rhs(y):
        a, b = y
        return np.array([b * (a - b), -b * (a - b)])

    ref = rk4_reference(scalar_rhs, [0.75, 0.25], 1.0, 20000)
    assert traj.states[-1, 0] == pytest.approx(ref, abs=1e-8)
    # monotone approach toward full concentration at the heavier vertex
    a_series = traj.states[:, 0, 0]
    assert np.all(np.diff(a_series) >= -1e-12)
    assert np.all(a_series >= 0.75 - 1e-12)

    long = integrate(system, state, 10.0)
    assert long.states[-1, 0, 0] == pytest.approx(1.0, abs=1e-3)


def test_integrate_zero_kernels_constant():
    g, _, mob, exps, state = s1_setup()
    zero_set = build_kernel_set(zero(), zero(), zero(), zero(), dimension=1)
    traj = integrate(System(g, zero_set, mob, exps), state, 2.0)
    assert np.allclose(traj.states[-1], state.rho)
    assert np.all(traj.energies == 0.0)


def test_integrate_conservation_and_positivity():
    g, kernels, mob, exps, state = random_geometric_setup(seed=11, n=8)
    traj = integrate(System(g, kernels, mob, exps), state, 1.0)
    masses = traj.states @ g.weights
    assert np.max(np.abs(masses - 1.0)) < 1e-10
    assert traj.stats["min_density"] > -1e-12
    assert traj.stats["clamped_mass"] <= 1e-9
    # invariant simplex: density never exceeds (min vertex weight)^-1
    assert traj.stats["max_density"] <= 1.0 / np.min(g.weights) + 1e-12


def test_integrate_volume_filling_respects_threshold():
    g, kernels, _, exps, state = random_geometric_setup(
        seed=3, n=8, mobility_name="volume_filling"
    )
    mob = volume_filling(1.0)
    traj = integrate(System(g, kernels, mob, exps), state, 1.0)
    assert traj.stats["max_density"] <= 1.0 + 1e-12
    assert traj.stats["min_density"] >= -1e-12


def test_integrate_adversarial_zeros_stay_nonnegative():
    g, kernels, mob, exps, _ = s1_setup()
    state = SpeciesPairState.from_densities([1.0, 0.0], [0.0, 1.0])
    traj = integrate(System(g, kernels, mob, exps), state, 1.0)
    assert traj.stats["min_density"] >= -1e-12


def test_integrate_energy_monotone():
    g, kernels, mob, exps, state = random_geometric_setup(seed=21, n=10, p=3.0)
    traj = integrate(System(g, kernels, mob, exps), state, 1.0)
    tol = 10.0 * (1e-10 + 1e-8 * np.max(np.abs(traj.energies)))
    assert np.all(np.diff(traj.energies) <= tol)


def test_integrate_continuity_residual_per_step():
    g, kernels, mob, exps, state = s1_setup()
    system = System(g, kernels, mob, exps)
    traj = integrate(system, state, 1.0, IntegratorOptions(max_dt=0.01))
    worst = 0.0
    for k in range(traj.n_steps):
        dt = traj.times[k + 1] - traj.times[k]
        for i in range(2):
            flux_avg = 0.5 * (upwind_flux(system, traj.states[k])[i]
                              + upwind_flux(system, traj.states[k + 1])[i])
            lhs = (traj.states[k + 1, i] - traj.states[k, i]) * g.weights
            rhs_val = -dt * nonlocal_divergence(g, flux_avg) * g.weights
            worst = max(worst, float(np.max(np.abs(lhs - rhs_val))))
    # trapezoidal flux quadrature leaves an O(dt^3) defect per step
    assert worst < 5.0 * 0.01**3


def test_integrate_step_size_underflow():
    g, kernels, _, exps, _ = s1_setup()

    # pathological mobility: NaN once the source density falls below 0.2,
    # which the draining vertex of species 1 (0.25 at the start) reaches, so
    # every trial step eventually fails and dt collapses
    def broken(r, s):
        out = np.asarray(r, dtype=float).copy()
        out[np.asarray(r) < 0.2] = np.nan
        return out

    mob = Mobility("broken", broken)
    state = SpeciesPairState.from_densities([0.75, 0.25], [0.5, 0.5])
    with pytest.raises(StepSizeUnderflow) as err:
        integrate(System(g, kernels, mob, exps), state, 10.0)
    assert err.value.state is not None and err.value.time is not None


def test_integrate_stops_when_steps_stop_making_progress():
    # 1 + r emits mass from an empty vertex: once species 1 empties vertex 2
    # (t ~ 0.3054) dt stayed near 1e-12, far above DT_MIN, and the run spun
    from graphflow.mobility import from_expression

    g, kernels, _, exps, state = s1_setup()
    start = time.perf_counter()
    with pytest.raises(StepSizeUnderflow) as err:
        integrate(System(g, kernels, from_expression("1+r"), exps), state, 1.0)
    assert time.perf_counter() - start < 1.0
    assert 0.3 < err.value.time < 0.31


def test_integrate_p3_against_reference():
    # reduced scalar system at p = 3: da/dt = b * sqrt(a - b) while a > b
    g, kernels, mob, _, state = s1_setup()
    traj = integrate(System(g, kernels, mob, Exponents(3.0)), state, 1.0)

    def scalar_rhs(y):
        a, b = y
        gap = max(a - b, 0.0)
        flow = b * np.sqrt(gap)
        return np.array([flow, -flow])

    ref = rk4_reference(scalar_rhs, [0.75, 0.25], 1.0, 40000)
    assert traj.states[-1, 0] == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_upwind_flux_pair_equals_raw_formula_per_species(p):
    # both species in one pass give each species' flux bit for bit, written
    # here from the raw formula on the box-clipped densities at every
    # ordered edge, whose (lo, hi) half is the link flux and whose (hi, lo)
    # half is its negative; rhs is compared bit for bit with the link sums
    # in the divergence's order (see run_divergence), and with the
    # ordered-edge divergence to a few ulp
    g, kernels, _, _, state = random_geometric_setup(seed=3, n=12, p=p)
    mob, exps = volume_filling(1.0), Exponents(p)
    rho = state.rho.copy()
    rho[:, ::5] = 0.0
    system = System(g, kernels, mob, exps)
    got = upwind_flux(system, rho)
    k11, k12, k22 = system.matrices
    mats = ((k11, k12), (k12, k22))
    masses = rho * g.weights
    qm1 = exps.q - 1.0
    src, dst, _ = ordered_edges(g)
    for i in range(2):
        phi = mats[i][0] @ masses[0] + mats[i][1] @ masses[1]
        w = kernels.beta[i] * -(phi[dst] - phi[src])
        r, s = rho[i][src], rho[i][dst]
        want = mob(r, s) * np.maximum(w, 0.0) ** qm1 - mob(s, r) * np.maximum(-w, 0.0) ** qm1
        assert np.array_equal(edge_field(got[i]), want)
        rate = rhs(system, rho)[i]
        assert np.array_equal(rate, -run_divergence(got[i], g))
        assert np.array_equal(rate, -nonlocal_divergence(g, got[i]))
        ordered = -ordered_edge_divergence(want, g)
        scale = np.max(np.abs(ordered))
        assert np.max(np.abs(rate - ordered)) <= 8 * np.finfo(float).eps * scale


@pytest.mark.parametrize("field, value", [("max_dt", 0.0), ("max_dt", -0.1), ("max_dt", np.nan)])
def test_integrator_options_reject_non_positive_steps(field, value):
    with pytest.raises(ValueError, match=field):
        IntegratorOptions(**{field: value})


@pytest.mark.parametrize("field, value", [("rel_tol", -1.0), ("abs_tol", -1e-12),
                                          ("rel_tol", np.inf), ("abs_tol", np.nan),
                                          ("rel_tol", "1e-8"), ("abs_tol", True)])
def test_integrator_options_reject_invalid_tolerances(field, value):
    with pytest.raises(ValueError, match=field):
        IntegratorOptions(**{field: value})
    with pytest.raises(ValueError, match="must not both be 0"):
        IntegratorOptions(rel_tol=0.0, abs_tol=0)
    assert IntegratorOptions(rel_tol=0, abs_tol=1e-12).rel_tol == 0


@pytest.mark.parametrize("field, value", [("max_dt", True), ("max_dt", "abc")])
def test_integrator_options_reject_steps_that_are_not_numbers(field, value):
    # True used to pass as a step of 1, and a string raised a TypeError
    with pytest.raises(ValueError, match=field):
        IntegratorOptions(**{field: value})


@pytest.mark.parametrize("t_final", [True, "0.5"])
def test_integrate_rejects_a_horizon_that_is_not_a_number(t_final):
    # True used to run to t = 1
    g, kernels, mob, exps, state = s1_setup()
    with pytest.raises(ValueError, match="t_final"):
        integrate(System(g, kernels, mob, exps), state, t_final)


@pytest.mark.parametrize("mobility, rho, entry", [
    (None, [[1.5, -5e-10], [0.5, 0.5]], "species 1 at vertex 1"),
    (None, [[1.5, 0.5], [np.nan, 1.0]], "species 2 at vertex 0"),
    (volume_filling(1.0), [[1.0, 1.0], [1.0 + 5e-10, 0.0]], "species 2 at vertex 0"),
], ids=["negative", "nan", "above-cap"])
def test_integrate_refuses_an_initial_state_outside_the_step_guard(mobility, rho, entry):
    # every accepted step must lie within GUARD_TOL of the box; a start
    # between GUARD_TOL and 1e-9 outside it used to pass and have every step
    # rejected, ending in StepSizeUnderflow at t = 0
    g, kernels, mob, exps, _ = s1_setup()
    system = System(g, kernels, mobility or mob, exps)
    with pytest.raises(ThresholdExceeded, match=entry):
        integrate(system, rho, 0.5)
    inside = np.clip(np.nan_to_num(rho, nan=0.5), 0.0, system.mobility.threshold_cap)
    assert integrate(system, inside, 0.5).times[-1] == 0.5


def test_integrator_options_accept_unset_and_unbounded_steps():
    # the first step is min(max_dt, max(t_final / 100, 1e-6), t_final); no
    # option sets it
    assert IntegratorOptions(max_dt=np.inf).max_dt == np.inf
    with pytest.raises(TypeError, match="dt_initial"):
        IntegratorOptions(dt_initial=0.1)
    g, kernels, mob, exps, state = s1_setup()
    system = System(g, kernels, mob, exps)
    assert integrate(system, state, 0.1).dts[0] == 0.1 / 100
    assert integrate(system, state, 0.1, IntegratorOptions(max_dt=1e-4)).dts[0] == 1e-4


def _component_rates_conserve_mass(system, rho, components):
    g = system.graph
    rate = rhs(system, rho)
    for part in components:
        drift = np.abs(np.sum(rate[:, part] * g.weights[part], axis=1))
        assert np.all(drift <= 1e-15), drift
    return rate


def test_rhs_conserves_mass_per_component_with_isolated_vertex():
    # vertices 0-2 form a triangle, 3-4 an edge, and vertex 5 is isolated
    points = np.array([[0.0], [0.3], [0.7], [2.0], [2.4], [5.0]])
    weights = np.array([0.2, 0.1, 0.25, 0.15, 0.2, 0.1])
    eta = np.zeros((6, 6))
    for l, k, w in [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 2.0), (3, 4, 1.5)]:
        eta[l, k] = eta[k, l] = w
    g = build_graph(points, weights, eta)
    kernels = build_kernel_set(distance(), distance(), distance(), zero(), dimension=1)
    rng = np.random.default_rng(4)
    rho = rng.uniform(0.1, 0.9, size=(2, 6))
    system = System(g, kernels, volume_filling(1.0), Exponents(1.5))
    rate = _component_rates_conserve_mass(system, rho, [[0, 1, 2], [3, 4], [5]])
    assert np.all(rate[:, 5] == 0.0)
    assert np.any(rate[:, :5] != 0.0)


def test_rhs_is_zero_on_edgeless_graph():
    g = build_graph([[0.0], [1.0], [3.0]], [0.5, 0.25, 0.25], np.zeros((3, 3)))
    assert g.n_links == 0
    kernels = build_kernel_set(distance(), distance(), distance(), zero(), dimension=1)
    rho = np.array([[0.2, 0.5, 0.3], [0.9, 0.1, 0.4]])
    system = System(g, kernels, volume_filling(1.0), Exponents(2.0))
    rate = rhs(system, rho)
    assert rate.shape == (2, 3) and np.all(rate == 0.0)
    assert upwind_flux(system, rho).shape == (2, 0)


@pytest.mark.parametrize("t_final", [-1.0, 0.0, np.nan, np.inf])
def test_integrate_rejects_a_horizon_that_is_not_finite_and_positive(t_final):
    # -1 and NaN used to return a trajectory of zero steps, and inf overflowed
    # before the step size underflowed
    g, kernels, mob, exps, state = s1_setup()
    with pytest.raises(ValueError, match="t_final"):
        integrate(System(g, kernels, mob, exps), state, t_final)


@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling"])
def test_integrate_reuses_the_last_stage_of_each_step(mobility_name, monkeypatch):
    # first same as last: one rate at the start, then six per accepted step;
    # the rate at the 5th-order state starts the next step, and every rate
    # conserves mass exactly, so the masses stay at round-off
    g, kernels, mob, exps, state = random_geometric_setup(seed=4, n=10, p=2.0,
                                                          mobility_name=mobility_name)
    system = System(g, kernels, mob, exps)
    calls = []
    monkeypatch.setattr(dynamics, "rhs", lambda *a: calls.append(1) or rhs(*a))
    traj = integrate(system, state, 0.5, IntegratorOptions(max_dt=1 / 16))
    assert traj.stats["rejected_steps"] == 0 and traj.stats["accepted_steps"] >= 8
    assert len(calls) == 1 + 6 * traj.stats["accepted_steps"]
    assert traj.stats["mass_drift"] <= 1e-15
