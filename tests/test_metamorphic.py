"""Metamorphic checks of the transport solver.

Each test compares the costs of two related problems through an exact
symmetry of the paper's transportation cost, so it holds for any correct
solver, whatever its iterates, and needs no reference value.  The problems
are 10-vertex random geometric graphs (``random_geometric_setup``, seed 3)
with linear mobility, K = 16 and beta = (1, 1.5), between the scenario's
state and a second seeded state of the same species masses.
"""

import numpy as np
import pytest

from graphflow.scenarios import random_geometric_setup
from graphflow.transport import transport_cost

K = 16
BETA = (1.0, 1.5)


def _problem(p):
    """Graph, mobility, exponents and the two endpoints (2, n) at exponent p."""
    graph, _, mobility, exponents, state = random_geometric_setup(seed=3, n=10, p=p)
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
