"""Canned scenarios used across the tests, the README, and quick CLI demos."""

import numpy as np

from .dynamics import SpeciesPairState
from .graph import Exponents, build_graph
from .kernels import build_kernel_set, distance, zero
from .mobility import PRESETS, linear


def two_point_graph():
    """Two unit-weight vertices at 0 and 1 with constant unit edge weight."""
    return build_graph([[0.0], [1.0]], [1.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]))


def s1_kernels():
    """Distance self-interaction for species 1 only, beta = (1, 1)."""
    return build_kernel_set(distance(), zero(), zero(), zero(), beta=(1.0, 1.0), dimension=1)


def s1_state():
    return SpeciesPairState.from_densities([0.75, 0.25], [0.5, 0.5])


def s1_setup(p=2.0):
    """Graph, kernels, mobility, exponents, state of the two-vertex scenario."""
    return two_point_graph(), s1_kernels(), linear(), Exponents(p), s1_state()


def s2_endpoints():
    """Single-species unit mass moved across the edge; species 2 held uniform."""
    start = SpeciesPairState.from_densities([1.0, 0.0], [0.5, 0.5])
    end = SpeciesPairState.from_densities([0.0, 1.0], [0.5, 0.5])
    return start, end


def s1_config(p=2.0, t_final=1.0, out_dir="out"):
    """JSON-ready run configuration for the two-vertex scenario."""
    return {
        "p": p,
        "graph": {
            "points": [[0.0], [1.0]],
            "weights": [1.0, 1.0],
            "eta_matrix": [[0.0, 1.0], [1.0, 0.0]],
        },
        "kernels": {
            "K11": {"preset": "distance"},
            "K12": {"preset": "zero"},
            "K21": {"preset": "zero"},
            "K22": {"preset": "zero"},
            "beta": [1.0, 1.0],
        },
        "mobility": {"preset": "linear"},
        "initial_state": {"rho1": [0.75, 0.25], "rho2": [0.5, 0.5]},
        "time_horizon": t_final,
        "output_dir": out_dir,
    }


def s2_state_files():
    """State dicts for the endpoints of the unit-transport scenario."""
    start = {"rho1": [1.0, 0.0], "rho2": [0.5, 0.5]}
    end = {"rho1": [0.0, 1.0], "rho2": [0.5, 0.5]}
    return start, end


def random_geometric_setup(seed, n=16, p=2.0, mobility_name="linear"):
    """Two-species scenario on random points with Gaussian edge weights.

    Vertex weights total 2 so the average density stays near 1/2, leaving
    headroom for volume-filling thresholds.  Distance kernels with the
    symmetric cross term half the distance couple the species.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    weights = rng.uniform(1.5, 2.5, size=n) / n

    def eta(xs, ys):
        d2 = np.sum((xs - ys) ** 2, axis=-1)
        return np.exp(-4.0 * d2)

    graph = build_graph(points, weights, eta)
    dist = distance()

    def cross(xs, ys):
        return 0.5 * dist(xs, ys)

    kernels = build_kernel_set(dist, cross, cross, dist, beta=(1.0, 1.0), dimension=2)
    mobility = PRESETS[mobility_name]()
    rho = rng.uniform(0.1, 1.0, size=(2, n))
    rho /= (rho @ graph.weights)[:, None]
    cap = mobility.threshold_cap
    if np.isfinite(cap) and np.max(rho) > 0.9 * cap:
        # pull adversarially peaked samples inside the threshold box
        rho = 0.5 * rho + 0.5 / graph.base.total_mass
        rho /= (rho @ graph.weights)[:, None]
    state = SpeciesPairState(rho)
    return graph, kernels, mobility, Exponents(p), state
