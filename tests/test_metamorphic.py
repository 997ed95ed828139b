"""Metamorphic checks of the transport solver and of the flow.

Each test compares two related problems through an exact symmetry of the
paper's transportation cost or of its gradient flow, so it holds for any
correct solver or integrator, whatever its iterates, and needs no reference
value.  The problems are 10-vertex random geometric graphs
(``random_geometric_setup``, seed 3) with beta = (1, 1.5).  The transport
checks use K = 16 and linear mobility, volume filling too where named,
between the scenario's state and a second seeded state of the same species
masses; the flow starts at the scenario's state.
"""

from dataclasses import replace

import numpy as np
import pytest

from graphflow.diagnostics import de_giorgi
from graphflow.dynamics import IntegratorOptions, integrate
from graphflow.graph import build_graph
from graphflow.kernels import System
from graphflow.scenarios import random_geometric_setup
from graphflow.transport import transport_cost

K = 16
BETA = (1.0, 1.5)


def _problem(p, mobility_name="linear"):
    """Graph, mobility, exponents and the two endpoints (2, n) at exponent p."""
    graph, _, mobility, exponents, state = random_geometric_setup(
        seed=3, n=10, p=p, mobility_name=mobility_name)
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
