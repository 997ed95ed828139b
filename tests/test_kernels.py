import gc

import numpy as np
import pytest

from graphflow.dynamics import upwind_flux
from graphflow.errors import SemanticError
from graphflow.graph import Exponents, build_graph
from graphflow.kernels import (
    build_kernel_set,
    convolve_potential,
    descent_velocities,
    distance,
    energy,
    estimate_growth_constant,
    gaussian_well,
    kernel_from_expression,
    morse_like,
    potentials,
    quadratic,
    zero,
)
from graphflow.mobility import linear
from graphflow.scenarios import s1_kernels, s1_state, two_point_graph


def test_convolve_potential_examples():
    g = two_point_graph()
    state = s1_state()
    pot = convolve_potential(distance(), state.rho1, g)
    assert pot == pytest.approx([0.25, 0.75])
    assert np.all(convolve_potential(zero(), state.rho1, g) == 0.0)
    uniform = convolve_potential(distance(), np.array([0.5, 0.5]), g)
    assert uniform == pytest.approx([0.5, 0.5])


def test_energy_examples():
    g = two_point_graph()
    state = s1_state()
    kernels = s1_kernels()
    assert energy(state.rho, kernels, g) == pytest.approx(0.1875)

    zero_set = build_kernel_set(zero(), zero(), zero(), zero(), dimension=1, validate=False)
    assert energy(state.rho, zero_set, g) == 0.0

    all_distance = build_kernel_set(
        distance(), distance(), distance(), distance(), dimension=1, validate=False
    )
    both_uniform = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert energy(both_uniform, all_distance, g) == pytest.approx(1.0)


def test_edge_velocity_examples():
    g = two_point_graph()
    state = s1_state()
    kernels = s1_kernels()
    velocities = descent_velocities(potentials(state.rho, kernels, g), g)
    # one value per link: the descent velocity on the edge (0, 1)
    assert velocities.shape == (2, 1)
    assert velocities[0, 0] == pytest.approx(-0.5)
    assert np.all(velocities[1] == 0.0)
    uniform = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(descent_velocities(potentials(uniform, kernels, g), g), 0.0)


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
    assert np.allclose(
        potentials(state.rho, raw, g), potentials(state.rho, folded, g)
    )
    assert np.allclose(
        upwind_flux(state.rho, raw, mob, exps, g),
        upwind_flux(state.rho, folded, mob, exps, g),
    )
    assert energy(state.rho, raw, g) == pytest.approx(energy(state.rho, folded, g))


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
    for beta in [(1.0, -1.0), (float("nan"), 1.0), (1.0, float("inf"))]:
        with pytest.raises(SemanticError):
            build_kernel_set(zero(), zero(), zero(), zero(), beta=beta, dimension=1)


def test_energy_continuity_bound():
    rng = np.random.default_rng(5)
    g = build_graph(rng.normal(size=(6, 2)), rng.uniform(0.5, 1.5, 6),
                    lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    kernels = build_kernel_set(distance(), zero(), zero(), distance(), dimension=2,
                               validate=False)
    mats = kernels.on_graph(g)
    k_max = float(np.max(np.abs(mats)))
    rho = rng.uniform(0.1, 1.0, size=(2, 6))
    rho /= (rho @ g.weights)[:, None]
    for _ in range(25):
        delta = 0.1 * rng.normal(size=(2, 6))
        l1 = float(np.sum(np.abs(delta) * g.weights[None, :]))
        bound = k_max * (2.0 + 0.5 * l1) * l1
        gap = abs(energy(rho + delta, kernels, g) - energy(rho, kernels, g))
        assert gap <= bound + 1e-12


def test_kernel_cache_follows_the_graph():
    # graphs built and freed in a loop reuse each other's ids; every energy
    # must still come from the kernel matrices of its own graph
    rng = np.random.default_rng(3)
    kernels = build_kernel_set(distance(), zero(), zero(), distance(), dimension=2,
                               validate=False)
    rho = np.full((2, 5), 0.2)
    for _ in range(50):
        g = build_graph(rng.uniform(size=(5, 2)), np.ones(5),
                        lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
        fresh = build_kernel_set(distance(), zero(), zero(), distance(), dimension=2,
                                 validate=False)
        assert energy(rho, kernels, g) == energy(rho, fresh, g)
        del g
        gc.collect()


def test_growth_constant_estimate_distance():
    kernels = build_kernel_set(distance(), zero(), zero(), zero(), dimension=1,
                               validate=False)
    est = estimate_growth_constant(kernels, 1, Exponents(2.0), seed=1)
    # | |x-y| - |x'-y'| | <= sqrt(2) |(x,y)-(x',y')| in one dimension
    assert 0.3 <= est <= np.sqrt(2.0) + 1e-9


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
