"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they are produced.
"""

import json
import time

import numpy as np
import pytest

from graphflow.config import RefinementPlan, parse_config, run_refinement_study
from graphflow.diagnostics import de_giorgi, dissipation, property_harness
from graphflow.dynamics import IntegratorOptions, integrate, upwind_flux
from graphflow.graph import Exponents
from graphflow.kernels import System, energy
from graphflow.scenarios import random_geometric_setup, s1_setup, s2_endpoints
from graphflow.transport import geodesic_profile, transport_cost

from oracles import interval_actions, unit_transport_oracle

ACCEPT_INTEGRATOR = IntegratorOptions(rel_tol=1e-8, abs_tol=1e-10, max_dt=1 / 128)


def _report(criterion, ok, detail, capsys=None):
    line = f"criterion {criterion:>2} [{'PASS' if ok else 'FAIL'}] {detail}"
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)
    return ok


def _best_time(fn, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# shared suite for criteria 3, 4 and 9
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dynamics_suite():
    """Integrated trajectories for every configuration of criterion 3."""
    suite = {}
    for p in (1.5, 2.0, 3.0):
        g, kern, mob, exps, state = s1_setup(p)
        system = System(g, kern, mob, exps)
        suite[f"s1-p{p}"] = (system, integrate(system, state, 1.0, ACCEPT_INTEGRATOR))
    for mobility_name in ("linear", "volume_filling"):
        for p in (1.5, 2.0, 3.0):
            g, kern, mob, exps, state = random_geometric_setup(
                seed=42, n=16, p=p, mobility_name=mobility_name
            )
            system = System(g, kern, mob, exps)
            suite[f"rgg16-{mobility_name}-p{p}"] = (
                system, integrate(system, state, 1.0, ACCEPT_INTEGRATOR))
    return suite


@pytest.fixture(scope="module")
def refinement_report():
    config = parse_config(json.dumps({
        "p": 2.0,
        "graph": {
            "points": [[0.0], [1.0]],
            "weights": [1.0, 1.0],
            "eta_preset": {"name": "gaussian", "params": {"sigma": 1.0}},
        },
        "kernels": {
            "K11": {"preset": "distance"},
            "K22": {"preset": "distance"},
            "K12": {"preset": "zero"},
            "K21": {"preset": "zero"},
            "beta": [1.0, 1.0],
        },
        "mobility": {"preset": "linear"},
        "time_horizon": 0.5,
        "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10, "max_dt": 0.01},
    }))
    plan = RefinementPlan(
        "gaussian", {"mean": 0.0, "sigma": 0.5}, ladder=(8, 16, 32, 64),
        initial_atoms=128, total_mass=2.0,
    )
    start = time.perf_counter()
    report = run_refinement_study(plan, config)
    report.elapsed = time.perf_counter() - start
    return report


def test_criterion_1_upwind_flux_law(capsys):
    g, kern, mob, exps, state = s1_setup(2.0)
    assert (g.link_lo.tolist(), g.link_hi.tolist()) == ([0], [1])  # the edge (0, 1)
    system = System(g, kern, mob, exps)
    flux2 = upwind_flux(system, state.rho)
    value2 = flux2[0][0]

    exps3 = Exponents(3.0)
    flux3 = upwind_flux(System(g, kern, mob, exps3), state.rho)
    value3 = flux3[0][0]

    elapsed = _best_time(lambda: upwind_flux(system, state.rho))

    # p = 3 target from the action density (j_+)^p / m^(p-1): its Legendre
    # dual in the velocity is m (w_+)^q / q, whose derivative is the flux
    # m (w_+)^(q-1) along the direction of flow.  On S1 only species 1 feels
    # a potential (distance kernel K11, beta = 1), phi = |x_k - x_l| @ rho mu
    # = (0.25, 0.75), so w(0,1) = -0.5 and mass flows from vertex 1, whose
    # linear mobility m(rho_1, rho_0) = rho_1 = 0.25 multiplies |w|^(q-1).
    rho = state.rho[0]
    x = g.points[:, 0]
    phi = np.abs(x[:, None] - x[None, :]) @ (rho * g.weights)
    w01 = -(phi[1] - phi[0])
    m_src = rho[1]
    assert (w01, m_src) == (-0.5, 0.25)
    target3 = -m_src * abs(w01) ** (exps3.q - 1.0)

    ok2 = abs(value2 - (-0.125)) <= 1e-12
    ok3 = abs(value3 - target3) <= 1e-12
    ok_time = elapsed < 1e-3
    ok = _report(
        1, ok2 and ok3 and ok_time,
        f"upwind flux law: j(0,1)={value2:.15f} at p=2 (target -0.125), "
        f"{value3:.15f} at p=3 (target -m|w|^(q-1) = -0.25*0.5^(1/2) = {target3:.15f}), "
        f"runtime {elapsed*1e3:.3f} ms",
        capsys=capsys,
    )
    assert ok


def test_criterion_2_energy_dissipation_chain_rule(capsys):
    g, kern, mob, exps, state = s1_setup(2.0)
    system = System(g, kern, mob, exps)

    def both_sides():
        h = 1e-6
        from graphflow.dynamics import rhs

        rate = rhs(system, state.rho)
        e_plus = energy(system, state.rho + h * rate)
        e_minus = energy(system, state.rho - h * rate)
        de_dt = (e_plus - e_minus) / (2 * h)
        diss = dissipation(system, state.rho)
        return de_dt, diss

    de_dt, diss = both_sides()
    elapsed = _best_time(lambda: both_sides())
    ok_value = abs(de_dt + 0.0625) <= 1e-6 and abs(diss - 0.0625) <= 1e-12
    ok_match = abs(de_dt + diss) <= 1e-6
    ok_time = elapsed < 1e-2
    ok = _report(
        2, ok_value and ok_match and ok_time,
        f"chain rule at t=0: dE/dt={de_dt:.10f}, -D={-diss:.10f}, "
        f"runtime {elapsed*1e3:.2f} ms",
        capsys=capsys,
    )
    assert ok


def test_criterion_3_de_giorgi_characterization(dynamics_suite, capsys):
    worst = 0.0
    worst_name = ""
    slowest = 0.0
    for name, (system, traj) in dynamics_suite.items():
        t0 = time.perf_counter()
        report = de_giorgi(system, traj)
        slowest = max(slowest, time.perf_counter() - t0)
        if abs(report.g_t) > worst:
            worst, worst_name = abs(report.g_t), name
    ok = _report(
        3, worst <= 1e-3,
        f"De Giorgi residual over {len(dynamics_suite)} configurations: "
        f"max |G_T| = {worst:.2e} ({worst_name}), report time {slowest:.2f} s",
        capsys=capsys,
    )
    assert ok


def test_criterion_4_conservation_positivity_simplex(dynamics_suite, capsys):
    drift = max(t.stats["mass_drift"] for *_, t in dynamics_suite.values())
    min_density = min(t.stats["min_density"] for *_, t in dynamics_suite.values())
    clamp = max(t.stats["clamped_mass"] for *_, t in dynamics_suite.values())
    cap_excess = 0.0
    for name, (system, traj) in dynamics_suite.items():
        mob = system.mobility
        if mob.bounded:
            cap_excess = max(cap_excess, traj.stats["max_density"] - mob.threshold_cap)
    ok = _report(
        4,
        drift <= 1e-10 and min_density >= -1e-12 and cap_excess <= 1e-12 and clamp <= 1e-9,
        f"mass drift {drift:.1e}, min density {min_density:.1e}, "
        f"threshold excess {cap_excess:.1e}, clamped mass {clamp:.1e}",
        capsys=capsys,
    )
    assert ok


def test_criterion_5_quasi_metric_oracle(capsys):
    start_total = time.perf_counter()
    oracle_sq, _, monotone = unit_transport_oracle(n_grid=8192)
    oracle_ok = abs(oracle_sq - 4.0) <= 1e-3 and monotone

    g, _, mob, exps, _ = s1_setup(2.0)
    start, end = s2_endpoints()
    t_coarse, _, cert_coarse = transport_cost(g, start, end, 32, mob, (1.0, 1.0), exps)
    t_value, path, cert = transport_cost(g, start, end, 64, mob, (1.0, 1.0), exps)
    profile = geodesic_profile(g, path, mob, (1.0, 1.0), exps)

    # The solver minimizes the K-interval midpoint discretization, whose
    # exact optimum is not the continuum value: the absorbing endpoint (the
    # source mobility vanishes at t = 1) biases it by about 4.5/K, e.g.
    # T^2 = 3.93097 at K = 64, and the final interval of the discrete
    # geodesic carries about 1.8x the mean action at every K.  So the solver
    # is checked against the oracle's discrete optimum at the same K, and
    # the continuum target T = 2 is checked on the first-order Richardson
    # extrapolation of the solver's own K = 32 and K = 64 values.
    matched_sq, matched_u, _ = unit_transport_oracle(n_grid=64)
    matched_gap = abs(t_value - matched_sq**0.5)
    t_extrapolated = float(np.sqrt(2.0 * t_value**2 - t_coarse**2))
    matched_profile = interval_actions(matched_u)
    profile_gap = float(np.max(np.abs(profile - matched_profile) / matched_profile))
    elapsed = time.perf_counter() - start_total

    converged = cert.converged and cert_coarse.converged
    matched_ok = matched_gap <= 1e-5
    t_ok = abs(t_extrapolated - 2.0) <= 1e-2
    profile_ok = profile_gap <= 1e-3
    time_ok = elapsed < 60.0
    ok = _report(
        5, oracle_ok and converged and matched_ok and t_ok and profile_ok and time_ok,
        f"oracle T^2={oracle_sq:.5f} (target 4.00+-1e-3), solver T_64={t_value:.7f} "
        f"vs oracle {matched_sq**0.5:.7f} (gap {matched_gap:.1e}, target <=1e-5), "
        f"Richardson T={t_extrapolated:.5f} (target 2.00+-1e-2), profile vs oracle "
        f"{profile_gap:.1e} (target <=1e-3), runtime {elapsed:.1f} s",
        capsys=capsys,
    )
    assert ok


def test_criterion_6_decoupling(capsys):
    rng = np.random.default_rng(6)
    from graphflow.graph import build_graph
    from graphflow.mobility import linear

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

    t_pair, _, cert_pair = transport_cost(g, rho0, rho1, 16, mob, beta, exps)
    t_single, _, cert_single = transport_cost(g, rho0, rho1, 16, mob, (1.0, 1.0), exps)
    gap = abs(t_pair**exps.p - t_single**exps.p / beta[0])
    tol = 2.0 * max(
        cert_pair.constraint_residual + cert_pair.optimality_residual,
        cert_single.constraint_residual + cert_single.optimality_residual,
        1e-6,
    )
    ok = _report(
        6, gap <= tol,
        f"decoupling: |T_pair^p - T_single^p / beta1| = {gap:.2e} <= {tol:.2e}",
        capsys=capsys,
    )
    assert ok


def test_criterion_7_property_suites(capsys):
    suites = {
        "holder": 1e-10,
        "holder_tilde": 1e-10,
        "minkowski": 1e-10,
        "antisym": 1e-12,
        "convexity": 1e-10,
        "duality": 1e-12,
    }
    start = time.perf_counter()
    failures = {}
    for suite in suites:
        report = property_harness(suite, seed=20260809, n_samples=1000)
        if report.failures:
            failures[suite] = len(report.failures)
    elapsed = time.perf_counter() - start
    ok = _report(
        7, not failures and elapsed < 30.0,
        f"property suites (6 x 1000 samples): failures {failures or 'none'}, "
        f"runtime {elapsed:.1f} s",
        capsys=capsys,
    )
    assert ok


def test_criterion_8_refinement_stability(refinement_report, capsys):
    report = refinement_report
    gaps = report.w1_gaps
    finite = all(np.isfinite(g) for g in gaps)
    decreasing = gaps[-1] < gaps[-2]
    ok = _report(
        8, finite and decreasing and len(gaps) == 3 and report.elapsed < 120.0,
        f"refinement ladder (8,16,32,64): W1 gaps {[f'{g:.4f}' for g in gaps]}, "
        f"last two decreasing: {decreasing}, runtime {report.elapsed:.1f} s",
        capsys=capsys,
    )
    assert ok


def test_criterion_9_energy_monotonicity(dynamics_suite, refinement_report, capsys):
    worst = -np.inf
    for name, (system, traj) in dynamics_suite.items():
        tol = 10.0 * (ACCEPT_INTEGRATOR.abs_tol
                      + ACCEPT_INTEGRATOR.rel_tol * np.max(np.abs(traj.energies)))
        worst = max(worst, float(np.max(np.diff(traj.energies))) - tol)
    for level in refinement_report.levels:
        energies = np.array([e for _, e in level.energy_series])
        tol = 10.0 * (1e-10 + 1e-8 * np.max(np.abs(energies)))
        worst = max(worst, float(np.max(np.diff(energies))) - tol)
    ok = _report(
        9, worst <= 0.0,
        f"energy nonincreasing on all trajectories (worst slack {worst:.2e})",
        capsys=capsys,
    )
    assert ok
