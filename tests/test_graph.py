import numpy as np
import pytest

from graphflow.errors import (
    DuplicatePoint,
    NonPositiveWeight,
    NonSymmetricWeights,
    SizeMismatch,
)
from graphflow.graph import (
    Exponents,
    antisymmetrize_flux,
    build_graph,
    check_assumptions,
    is_antisymmetric,
    nonlocal_divergence,
    nonlocal_gradient,
    transpose_edge_field,
)
from graphflow.scenarios import two_point_graph


def test_exponents_conjugate_relation():
    for p in (1.5, 2.0, 3.0, 7.3):
        e = Exponents(p)
        assert 1.0 / e.p + 1.0 / e.q == pytest.approx(1.0, abs=1e-15)
    assert Exponents(2.0).q == 2.0


@pytest.mark.parametrize("bad", [1.0, 0.5, np.inf, -2.0])
def test_exponents_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Exponents(bad)


def test_build_graph_two_point():
    g = two_point_graph()
    pairs = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
    assert pairs == {(0, 1), (1, 0)}
    assert g.eta[0, 1] == 1.0 and g.eta[1, 1] == 0.0


def test_build_graph_from_callable_is_symmetric():
    points = [[0.0], [1.0], [2.0]]

    def eta(xs, ys):
        return np.exp(-np.sum((xs - ys) ** 2, axis=-1))

    g = build_graph(points, [1.0, 1.0, 1.0], eta)
    assert np.allclose(g.eta, g.eta.T)
    assert np.all(np.diag(g.eta) == 0.0)
    assert g.n_edges == 6


def test_build_graph_rejects_asymmetric_matrix():
    eta = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NonSymmetricWeights):
        build_graph([[0.0], [1.0]], [1.0, 1.0], eta)


def test_build_graph_rejects_bad_vertices():
    with pytest.raises(NonPositiveWeight):
        build_graph([[0.0], [1.0]], [1.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(DuplicatePoint):
        build_graph([[0.0], [0.0]], [1.0, 1.0], np.zeros((2, 2)))


def test_check_assumptions_two_point():
    g = two_point_graph()
    report = check_assumptions(g, Exponents(2.0))
    assert report.c_eta == pytest.approx(1.0)  # (1 v 1) * eta * mu
    assert report.c_eta_prime == pytest.approx(1.0)
    assert report.c_mu == pytest.approx(3.0)  # (1+0) + (1+1)
    # nearest distinct vertex sits at distance 1, so the blow-up profile
    # vanishes for every eps <= 1
    for eps, value in report.bc_profile:
        if eps <= 1.0:
            assert value == 0.0


def test_check_assumptions_single_vertex():
    g = build_graph([[0.0]], [2.0], np.zeros((1, 1)))
    report = check_assumptions(g, Exponents(2.0))
    assert report.c_eta == 0.0 and report.n_edges == 0


def test_check_assumptions_monotone_in_edges():
    points = [[0.0], [1.0], [2.5]]
    weights = [1.0, 1.0, 1.0]
    eta_small = np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]])
    eta_big = np.array([[0, 1.0, 0.7], [1.0, 0, 0], [0.7, 0, 0]])
    p = Exponents(2.0)
    small = check_assumptions(build_graph(points, weights, eta_small), p)
    big = check_assumptions(build_graph(points, weights, eta_big), p)
    assert big.c_eta >= small.c_eta


def test_nonlocal_gradient_examples():
    g = two_point_graph()
    grad = nonlocal_gradient(np.array([0.0, 1.0]), g)
    lookup = dict(zip(zip(g.edge_src.tolist(), g.edge_dst.tolist()), grad))
    assert lookup[(0, 1)] == 1.0 and lookup[(1, 0)] == -1.0
    assert np.all(nonlocal_gradient(np.array([3.3, 3.3]), g) == 0.0)
    pot = nonlocal_gradient(np.array([0.25, 0.75]), g)
    assert dict(zip(zip(g.edge_src.tolist(), g.edge_dst.tolist()), pot))[(0, 1)] == 0.5
    with pytest.raises(SizeMismatch):
        nonlocal_gradient(np.array([1.0, 2.0, 3.0]), g)


def _edge_field(g, mapping):
    values = np.zeros(g.n_edges)
    for e, (src, dst) in enumerate(zip(g.edge_src, g.edge_dst)):
        values[e] = mapping.get((int(src), int(dst)), 0.0)
    return values


def test_nonlocal_divergence_examples():
    g = two_point_graph()
    j = _edge_field(g, {(0, 1): -0.125, (1, 0): 0.125})
    div = nonlocal_divergence(j, g)
    assert div == pytest.approx([-0.125, 0.125])
    assert np.all(nonlocal_divergence(np.zeros(g.n_edges), g) == 0.0)
    sym = _edge_field(g, {(0, 1): 0.7, (1, 0): 0.7})
    assert np.allclose(nonlocal_divergence(sym, g), 0.0)


def test_divergence_duality_identity_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        points = rng.normal(size=(n, 2))
        weights = rng.uniform(0.5, 2.0, size=n)
        eta = rng.uniform(0.0, 1.0, size=(n, n))
        eta = 0.5 * (eta + eta.T)
        np.fill_diagonal(eta, 0.0)
        g = build_graph(points, weights, eta)
        if g.n_edges == 0:
            continue
        phi = rng.normal(size=n)
        j = rng.normal(size=g.n_edges)
        lhs = float(np.sum(phi * nonlocal_divergence(j, g) * g.weights))
        rhs = -0.5 * float(
            np.sum(nonlocal_gradient(phi, g) * g.edge_eta * j * g.edge_pair_weight)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_antisymmetrize_examples():
    g = two_point_graph()
    j = _edge_field(g, {(0, 1): 3.0, (1, 0): 1.0})
    out = antisymmetrize_flux(j, g)
    lookup = dict(zip(zip(g.edge_src.tolist(), g.edge_dst.tolist()), out))
    assert lookup[(0, 1)] == 1.0 and lookup[(1, 0)] == -1.0
    assert np.allclose(antisymmetrize_flux(out, g), out)  # idempotent
    sym = _edge_field(g, {(0, 1): 2.0, (1, 0): 2.0})
    assert np.all(antisymmetrize_flux(sym, g) == 0.0)


def test_antisymmetrize_preserves_divergence():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(5, 1))
    g = build_graph(points, rng.uniform(0.5, 1.5, 5), lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    for _ in range(20):
        j = rng.normal(size=g.n_edges)
        d1 = nonlocal_divergence(j, g)
        d2 = nonlocal_divergence(antisymmetrize_flux(j, g), g)
        assert np.max(np.abs(d1 - d2)) < 1e-12
        assert is_antisymmetric(antisymmetrize_flux(j, g), g)


def test_transpose_edge_field():
    g = two_point_graph()
    j = _edge_field(g, {(0, 1): 5.0, (1, 0): -2.0})
    jt = transpose_edge_field(j, g)
    lookup = dict(zip(zip(g.edge_src.tolist(), g.edge_dst.tolist()), jt))
    assert lookup[(0, 1)] == -2.0 and lookup[(1, 0)] == 5.0


def test_species_pair_operators_equal_single_rows():
    # a stacked (2, .) call must give each row bit for bit, written here from
    # the raw formulas: phi(dst) - phi(src), and the eta-weighted scatter
    rng = np.random.default_rng(11)
    n = 24
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    g = build_graph(points, weights, lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1)))
    phi = rng.normal(size=(2, n))
    j = rng.normal(size=(2, g.n_edges))
    grad = nonlocal_gradient(phi, g)
    div = nonlocal_divergence(j, g)
    assert grad.shape == (2, g.n_edges) and div.shape == (2, n)
    for i in range(2):
        assert np.array_equal(grad[i], phi[i][g.edge_dst] - phi[i][g.edge_src])
        weighted = g.edge_eta * j[i]
        out = np.bincount(g.edge_src, weights=weighted * weights[g.edge_dst], minlength=n)
        inc = np.bincount(g.edge_dst, weights=weighted * weights[g.edge_src], minlength=n)
        assert np.array_equal(div[i], 0.5 * (out - inc))
        assert np.array_equal(grad[i], nonlocal_gradient(phi[i], g))
        assert np.array_equal(div[i], nonlocal_divergence(j[i], g))
    # cached edge constants hold the products the formulas use
    assert np.array_equal(g.edge_pair_weight, weights[g.edge_src] * weights[g.edge_dst])
    assert np.array_equal(g.action_weight, g.edge_eta * g.edge_pair_weight)
    with pytest.raises(SizeMismatch):
        nonlocal_divergence(np.zeros((3, g.n_edges)), g)
    with pytest.raises(SizeMismatch):
        nonlocal_gradient(np.zeros((2, n + 1)), g)


def test_is_antisymmetric_per_species_row():
    g = two_point_graph()
    good = antisymmetrize_flux(np.array([1.0, 3.0]), g)
    pair = np.stack([good, np.array([1.0, 1.0])])
    assert is_antisymmetric(good, g) is True
    assert is_antisymmetric(pair, g).tolist() == [True, False]
