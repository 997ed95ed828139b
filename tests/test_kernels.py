import dataclasses
import gc

import numpy as np
import pytest

from graphflow.dynamics import upwind_flux
from graphflow.errors import SemanticError
from graphflow.graph import Exponents, build_graph, nonlocal_gradient
from graphflow.kernels import (
    System,
    _pairwise,
    build_kernel_set,
    distance,
    energy,
    gaussian_well,
    kernel_from_expression,
    morse_like,
    potentials,
    quadratic,
    zero,
)
from graphflow.mobility import linear
from graphflow.scenarios import s1_kernels, s1_state, two_point_graph


def _system(graph, kernels):
    return System(graph, kernels, linear(), Exponents(2.0))


def test_convolve_potential_examples():
    # species 1's potential when species 2 carries no mass and only K11 is set
    g = two_point_graph()
    state = s1_state()
    system = _system(g, s1_kernels())
    alone = np.stack([state.rho1, np.zeros(2)])
    pot = potentials(system, alone)[0]
    assert pot == pytest.approx([0.25, 0.75])
    zero_set = build_kernel_set(zero(), zero(), zero(), zero(), dimension=1)
    assert np.all(potentials(_system(g, zero_set), alone)[0] == 0.0)
    uniform = potentials(system, np.array([[0.5, 0.5], [0.0, 0.0]]))[0]
    assert uniform == pytest.approx([0.5, 0.5])


def test_system_is_frozen_and_holds_the_kernel_matrices_of_its_graph():
    rng = np.random.default_rng(8)
    g = build_graph(rng.uniform(size=(6, 2)), rng.uniform(0.5, 1.5, 6),
                    lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    kernels = build_kernel_set(distance(), quadratic(), quadratic(), gaussian_well(),
                               dimension=2)
    system = _system(g, kernels)
    assert len(system.matrices) == 3
    for mat, fn in zip(system.matrices, (kernels.k11, kernels.k12, kernels.k22)):
        assert mat.shape == (6, 6)
        assert np.array_equal(mat, _pairwise(fn, g.points, g.points))
    for field in ("graph", "kernels", "mobility", "exponents", "matrices"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(system, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        kernels.beta = np.ones(2)


def test_energy_examples():
    g = two_point_graph()
    state = s1_state()
    kernels = s1_kernels()
    assert energy(_system(g, kernels), state.rho) == pytest.approx(0.1875)

    zero_set = build_kernel_set(zero(), zero(), zero(), zero(), dimension=1)
    assert energy(_system(g, zero_set), state.rho) == 0.0

    all_distance = build_kernel_set(
        distance(), distance(), distance(), distance(), dimension=1
    )
    both_uniform = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert energy(_system(g, all_distance), both_uniform) == pytest.approx(1.0)


def test_edge_velocity_examples():
    g = two_point_graph()
    state = s1_state()
    system = _system(g, s1_kernels())
    velocities = -nonlocal_gradient(g, potentials(system, state.rho))
    # one value per link: the descent velocity on the edge (0, 1)
    assert velocities.shape == (2, 1)
    assert velocities[0, 0] == pytest.approx(-0.5)
    assert np.all(velocities[1] == 0.0)
    uniform = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(-nonlocal_gradient(g, potentials(system, uniform)), 0.0)


def test_cross_kernel_symmetrization_preserves_dynamics():
    g = two_point_graph()
    state = s1_state()
    exps = Exponents(2.0)
    mob = linear()

    base = distance()

    def scaled(xs, ys):
        return 2.0 * base(xs, ys)

    raw = build_kernel_set(base, scaled, base, base, beta=(1.0, 1.5), dimension=1)
    sym = 1.5  # (2 + 1) / 2 scaling of the shared cross kernel

    def averaged(xs, ys):
        return sym * base(xs, ys)

    folded = build_kernel_set(base, averaged, averaged, base, beta=(1.0, 1.5), dimension=1)
    raw, folded = System(g, raw, mob, exps), System(g, folded, mob, exps)
    assert np.allclose(potentials(raw, state.rho), potentials(folded, state.rho))
    assert np.allclose(upwind_flux(raw, state.rho), upwind_flux(folded, state.rho))
    assert energy(raw, state.rho) == pytest.approx(energy(folded, state.rho))


def test_cross_kernels_must_be_proportional():
    with pytest.raises(SemanticError):
        build_kernel_set(distance(), distance(), quadratic(), distance(), dimension=1)
    with pytest.raises(SemanticError):
        build_kernel_set(distance(), zero(), distance(), distance(), dimension=1)


def test_kernel_symmetry_validated():
    def lopsided(xs, ys):
        return xs[..., 0] - ys[..., 0]

    with pytest.raises(SemanticError):
        build_kernel_set(lopsided, zero(), zero(), zero(), dimension=1)


def test_beta_validation():
    for beta in [(1.0, -1.0), (float("nan"), 1.0), (1.0, float("inf")),
                 (True, 1.0), ("1", 2.0), [[1.0, 1.0]]]:
        with pytest.raises(SemanticError):
            build_kernel_set(zero(), zero(), zero(), zero(), beta=beta, dimension=1)


def test_energy_continuity_bound():
    rng = np.random.default_rng(5)
    g = build_graph(rng.normal(size=(6, 2)), rng.uniform(0.5, 1.5, 6),
                    lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    system = _system(g, build_kernel_set(distance(), zero(), zero(), distance(), dimension=2))
    k_max = float(np.max(np.abs(system.matrices)))
    rho = rng.uniform(0.1, 1.0, size=(2, 6))
    rho /= (rho @ g.weights)[:, None]
    for _ in range(25):
        delta = 0.1 * rng.normal(size=(2, 6))
        l1 = float(np.sum(np.abs(delta) * g.weights[None, :]))
        bound = k_max * (2.0 + 0.5 * l1) * l1
        gap = abs(energy(system, rho + delta) - energy(system, rho))
        assert gap <= bound + 1e-12


def test_system_kernel_matrices_follow_the_graph():
    # graphs built and freed in a loop reuse each other's ids; every energy
    # must still come from the kernel matrices of its own graph
    rng = np.random.default_rng(3)
    kernels = build_kernel_set(distance(), zero(), zero(), distance(), dimension=2)
    rho = np.full((2, 5), 0.2)
    for _ in range(50):
        g = build_graph(rng.uniform(size=(5, 2)), np.ones(5),
                        lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
        fresh = build_kernel_set(distance(), zero(), zero(), distance(), dimension=2)
        assert energy(_system(g, kernels), rho) == energy(_system(g, fresh), rho)
        del g
        gc.collect()


def test_kernel_presets_and_expressions():
    g = two_point_graph()
    xs = g.points[:, None, :]
    ys = g.points[None, :, :]
    assert quadratic()(xs, ys)[0, 1] == pytest.approx(1.0)
    assert gaussian_well(2.0)(xs, ys)[0, 1] == pytest.approx(-np.exp(-0.25))
    assert morse_like(1.0, 1.0, 0.5, 0.5)(xs, ys)[0, 0] == pytest.approx(0.5)
    expr = kernel_from_expression("d^2 - d")
    assert expr(xs, ys)[0, 1] == pytest.approx(0.0)
    assert expr(xs, ys)[1, 1] == pytest.approx(0.0)
