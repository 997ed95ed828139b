"""Metamorphic checks of the transport solver and of the flow.

Each test compares two related problems through an exact symmetry of the
paper's transportation cost or of its gradient flow, so it holds for any
correct solver or integrator, whatever its iterates, and needs no reference
value.  The problems are 10-vertex random geometric graphs
(``random_geometric_setup``, seed 3) with beta = (1, 1.5).  The transport
checks use K = 16 and linear mobility, volume filling too where named,
between the scenario's state and a second seeded state of the same species
masses; the flow starts at the scenario's state, with beta = (1, 1.5) too
where the test says so.
"""

from dataclasses import replace

import numpy as np
import pytest

from graphflow.diagnostics import de_giorgi
from graphflow.dynamics import IntegratorOptions, integrate
from graphflow.graph import Exponents, build_graph
from graphflow.kernels import System
from graphflow.mobility import PRESETS
from graphflow.scenarios import random_geometric_setup
from graphflow.transport import transport_cost

K = 16
BETA = (1.0, 1.5)


def _problem(p, mobility_name="linear", n=10, seed=3):
    """Graph, mobility, exponents and the two endpoints (2, n) at exponent p."""
    graph, _, mobility, exponents, state = random_geometric_setup(
        seed=seed, n=n, p=p, mobility_name=mobility_name)
    end = np.random.default_rng(4).uniform(0.1, 1.0, size=state.rho.shape)
    end *= (state.rho @ graph.weights / (end @ graph.weights))[:, None]
    return graph, mobility, exponents, state.rho, end


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cost_scales_with_the_mass_as_its_pth_root(p):
    # with linear mobility the action (j_+)^p / m^(p-1) is 1-homogeneous in
    # (rho, j), so T(c a, c b)^p = c T(a, b)^p
    graph, mobility, exponents, a, b = _problem(p)
    cost = transport_cost(graph, a, b, K, mobility, BETA, exponents)[0]
    scaled = transport_cost(graph, 3.0 * a, 3.0 * b, K, mobility, BETA, exponents)[0]
    assert scaled == pytest.approx(3.0 ** (1.0 / p) * cost, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_swapping_the_species_leaves_the_cost_unchanged(p):
    # the species solve separately and their actions add, so relabelling
    # them in both endpoints and in beta gives the same number
    graph, mobility, exponents, a, b = _problem(p)
    cost = transport_cost(graph, a, b, K, mobility, BETA, exponents)[0]
    swapped = transport_cost(graph, a[::-1], b[::-1], K, mobility, BETA[::-1], exponents)[0]
    assert swapped == cost


def _relabelled(graph, perm):
    """The graph whose vertex k is ``graph``'s vertex ``perm[k]``."""
    eta = np.zeros((graph.n_vertices, graph.n_vertices))
    eta[graph.link_lo, graph.link_hi] = eta[graph.link_hi, graph.link_lo] = graph.link_eta
    return build_graph(graph.points[perm], graph.weights[perm], eta[np.ix_(perm, perm)])


@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_relabelling_the_vertices_leaves_the_cost_unchanged(p, mobility_name):
    # the cost does not depend on the vertices' names; the links are numbered
    # in the new vertex order, so only the solver's round-off may change
    graph, mobility, exponents, a, b = _problem(p, mobility_name)
    perm = np.random.default_rng(6).permutation(graph.n_vertices)
    cost, path, certificate = transport_cost(graph, a, b, K, mobility, BETA, exponents)
    moved, moved_path, moved_certificate = transport_cost(
        _relabelled(graph, perm), a[:, perm], b[:, perm], K, mobility, BETA, exponents)
    assert moved == pytest.approx(cost, rel=1e-12, abs=0.0)
    assert moved_certificate.iterations == certificate.iterations
    assert np.max(np.abs(moved_path.states - path.states[:, :, perm])) <= 1e-12


@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_scaling_beta_runs_the_flow_on_a_rescaled_clock(p, mobility_name):
    # c beta scales the descent velocity w by c and the flux m (w_+)^(q-1)
    # by c^(q-1), so the flow with c beta up to t = 1 is the flow with beta
    # up to t = c^(q-1).  At c = 2 that factor is 4 for p = 1.5 and 2 for
    # p = 2: powers of 2 scale every rate and step exactly, so the two runs
    # agree bit for bit.  At p = 3 it is sqrt(2), and the step sequences differ.
    graph, kernels, mobility, exponents, state = random_geometric_setup(
        seed=3, n=10, p=p, mobility_name=mobility_name)
    options = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    runs = []
    for c, horizon in ((2.0, 1.0), (1.0, 2.0 ** (exponents.q - 1.0))):
        system = System(graph, replace(kernels, beta=c * np.array(BETA)), mobility, exponents)
        trajectory = integrate(system, state, horizon, options)
        runs.append((trajectory.states[-1], de_giorgi(system, trajectory).g_t))
    (fast, g_fast), (slow, g_slow) = runs
    if p < 3.0:
        assert np.array_equal(fast, slow) and g_fast == g_slow
    else:
        assert np.max(np.abs(fast - slow)) <= 1e-9 and abs(g_fast - g_slow) <= 1e-9


def _moved(graph):
    """The graph on the points turned by a seeded rotation and shifted by up
    to 5 in each coordinate, its eta that of the scenario, exp(-4 |x - y|^2),
    evaluated again on the moved points."""
    rng = np.random.default_rng(8)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    points = graph.points @ rotation.T + rng.uniform(-5.0, 5.0, size=2)

    def eta(xs, ys):
        return np.exp(-4.0 * np.sum((xs - ys) ** 2, axis=-1))
    moved = build_graph(points, graph.weights, eta)
    assert np.array_equal(moved.link_lo, graph.link_lo)
    assert np.array_equal(moved.link_hi, graph.link_hi)
    return moved


@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_a_rigid_motion_of_the_points_leaves_the_cost_unchanged(p, mobility_name):
    # the graph sees its points only through their distances, which a
    # rotation and a shift keep up to round-off
    graph, mobility, exponents, a, b = _problem(p, mobility_name)
    cost, _, certificate = transport_cost(graph, a, b, K, mobility, BETA, exponents)
    moved, _, moved_certificate = transport_cost(_moved(graph), a, b, K, mobility, BETA,
                                                 exponents)
    assert moved == pytest.approx(cost, rel=1e-12, abs=0.0)
    assert moved_certificate.iterations == certificate.iterations


@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_a_rigid_motion_of_the_points_leaves_the_flow_unchanged(p, mobility_name):
    # the distance kernels, like eta, are functions of the distances
    graph, kernels, mobility, exponents, state = random_geometric_setup(
        seed=3, n=10, p=p, mobility_name=mobility_name)
    kernels = replace(kernels, beta=np.array(BETA))
    options = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    runs = []
    for on in (graph, _moved(graph)):
        system = System(on, kernels, mobility, exponents)
        trajectory = integrate(system, state, 1.0, options)
        runs.append((trajectory, de_giorgi(system, trajectory).g_t))
    (still, g_still), (moved, g_moved) = runs
    assert moved.stats["accepted_steps"] == still.stats["accepted_steps"]
    assert np.max(np.abs(moved.states[-1] - still.states[-1])) <= 1e-12
    assert abs(g_moved - g_still) <= 1e-12


def _splitting_defects(graph, mobility, beta, exponents, a, c):
    """delta = 1 - (right side) / T_K(a, c)^p of the path-splitting identity

        T_K(a, c)^p = (K/k)^(p-1) T_k(a, b)^p + (K/(K-k))^(p-1) T_{K-k}(b, c)^p

    at b = rho_k, the returned K-interval path's state at node k, cut at
    k = K/4 and K/2."""
    def objective(start, end, steps):
        return transport_cost(graph, start, end, steps, mobility, beta, exponents)[2].objective

    p = exponents.p
    _, path, certificate = transport_cost(graph, a, c, K, mobility, beta, exponents)
    defects = []
    for k in (K // 4, K // 2):
        b = path.states[k]
        right = ((K / k) ** (p - 1) * objective(a, b, k)
                 + (K / (K - k)) ** (p - 1) * objective(b, c, K - k))
        defects.append(1.0 - right / certificate.objective)
    return defects


@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_the_optimal_path_splits_into_optimal_paths(p, mobility_name):
    # rescaling the first k intervals of a K-interval path to [0, 1], and the
    # last K - k, gives paths a -> b and b -> c, and joining two such paths
    # gives one a -> c; the action is p-homogeneous in the flux and the
    # midpoint rule reads each interval alone, so at the discrete optimum the
    # identity is exact, for any mobility.  delta > 0 means the K-interval
    # path is not optimal, delta < 0 that a shorter one is not.  The graphs
    # are those of metric-small's 6-vertex instances
    graph, mobility, exponents, a, c = _problem(p, mobility_name, n=6, seed=6001)
    defects = _splitting_defects(graph, mobility, BETA, exponents, a, c)
    assert max(map(abs, defects)) <= 1e-10, defects


@pytest.mark.parametrize("mobility_name", ["linear", "volume_filling", "geometric"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_a_degenerate_optimal_path_splits_into_optimal_paths(p, mobility_name):
    # the problems of test_transport_cost_vertex_empty_at_both_endpoints: a
    # vertex empty at both endpoints, where the solver's path rests on round-off
    rng = np.random.default_rng(3)
    graph = build_graph(rng.normal(size=(4, 2)), rng.uniform(0.5, 1.5, 4),
                        lambda x, y: np.exp(-np.sum((x - y) ** 2, -1)))
    a, c = rng.uniform(0.2, 1.0, (2, 2, 4))
    a[:, 2] = c[:, 2] = 0.0
    a /= 2.0 * (a @ graph.weights)[:, None]
    c /= 2.0 * (c @ graph.weights)[:, None]
    defects = _splitting_defects(graph, PRESETS[mobility_name](), (1.0, 1.0), Exponents(p), a, c)
    assert max(map(abs, defects)) <= 1e-10, defects
