import dataclasses

import numpy as np
import pytest
from scipy import sparse

from graphflow.errors import (
    DuplicatePoint,
    NegativeEdgeWeight,
    NonPositiveWeight,
    NonSymmetricWeights,
    SizeMismatch,
)
from graphflow.graph import (
    Exponents,
    FiniteGraph,
    build_graph,
    check_assumptions,
    link_ends,
    nonlocal_divergence,
    nonlocal_gradient,
    pair_distance,
)
from graphflow.scenarios import two_point_graph

from oracles import blowup_profile_loop, dense_eta, edge_field, ordered_edge_divergence


def test_exponents_conjugate_relation():
    for p in (1.5, 2.0, 3.0, 7.3):
        e = Exponents(p)
        assert 1.0 / e.p + 1.0 / e.q == pytest.approx(1.0, abs=1e-15)
    assert Exponents(2.0).q == 2.0


@pytest.mark.parametrize("bad", [1.0, 0.5, np.inf, -2.0, "2", None, [2.0]])
def test_exponents_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Exponents(bad)


def test_build_graph_two_point():
    g = two_point_graph()
    assert (g.link_lo.tolist(), g.link_hi.tolist()) == ([0], [1])
    eta = dense_eta(g)
    assert eta[0, 1] == 1.0 and eta[1, 1] == 0.0


def test_build_graph_from_callable_is_symmetric():
    points = [[0.0], [1.0], [2.0]]

    def eta(xs, ys):
        return np.exp(-np.sum((xs - ys) ** 2, axis=-1))

    g = build_graph(points, [1.0, 1.0, 1.0], eta)
    dense = dense_eta(g)
    assert np.allclose(dense, dense.T)
    assert np.all(np.diag(dense) == 0.0)
    assert g.n_links == 3


def test_build_graph_rejects_asymmetric_matrix():
    eta = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NonSymmetricWeights):
        build_graph([[0.0], [1.0]], [1.0, 1.0], eta)


def test_build_graph_rejects_bad_vertices():
    with pytest.raises(NonPositiveWeight):
        build_graph([[0.0], [1.0]], [1.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(DuplicatePoint):
        build_graph([[0.0], [0.0]], [1.0, 1.0], np.zeros((2, 2)))
    for weights in ([1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(NonPositiveWeight):
            build_graph([[0.0], [1.0]], weights, np.zeros((2, 2)))
    for points in ([[0.0], [np.nan]], [[np.inf], [1.0]]):
        with pytest.raises(ValueError, match="vertex positions must be finite"):
            build_graph(points, [1.0, 1.0], np.zeros((2, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_build_graph_rejects_non_finite_eta(value):
    # a NaN weight used to drop its edge silently, and an infinite one stayed
    eta = np.array([[0.0, value], [value, 0.0]])
    with pytest.raises(NegativeEdgeWeight, match="is not a finite number"):
        build_graph([[0.0], [1.0]], [1.0, 1.0], eta)
    with pytest.raises(NegativeEdgeWeight, match="is not a finite number"):
        build_graph([[0.0], [1.0]], [1.0, 1.0], lambda xs, ys: np.full((2, 2), value))


def test_pair_distance_is_the_norm_where_finite_and_scales_where_squares_overflow():
    rng = np.random.default_rng(5)
    xs, ys = rng.normal(size=(6, 1, 3)), rng.normal(size=(1, 4, 3))
    assert np.array_equal(pair_distance(xs, ys), np.linalg.norm(xs - ys, axis=-1))
    # the squares of 3e200 and 4e200 overflow, their root does not
    far = pair_distance(np.array([[0.0, 0.0], [3e200, 4e200], [1e308, 0.0]]),
                        np.array([[1e200, 0.0], [0.0, 0.0], [-1e308, 0.0]]))
    assert far[0] == 1e200 and far[1] == pytest.approx(5e200, rel=1e-15)
    assert far[2] == np.inf  # 2e308 is beyond the float range
    assert pair_distance(np.array([0.0]), np.array([1e200])) == 1e200


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


def test_check_assumptions_profile_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        if trial % 3 == 0:
            # integer grid points repeat edge lengths, within and across vertices
            points = rng.choice(8, size=(n, 2), replace=True).astype(float)
            points = np.unique(points, axis=0)
            n = points.shape[0]
        else:
            points = rng.normal(size=(n, int(rng.integers(1, 3))))
        eta = rng.uniform(0.1, 2.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        eta = np.triu(eta, 1)
        graph = build_graph(points, rng.uniform(0.2, 1.5, size=n), eta + eta.T)
        exponents = Exponents(float(rng.choice([1.5, 2.0, 3.0])))
        profile = check_assumptions(graph, exponents).bc_profile
        reference = blowup_profile_loop(graph, exponents)
        assert [eps for eps, _ in profile] == [eps for eps, _ in reference]
        scale = max((value for _, value in reference), default=0.0)
        for (_, value), (_, expected) in zip(profile, reference):
            assert abs(value - expected) <= 1e-12 * scale


def test_nonlocal_gradient_examples():
    g = two_point_graph()
    # the one link (0, 1) carries the gradient on the edge (0, 1)
    assert nonlocal_gradient(g, np.array([0.0, 1.0])).tolist() == [1.0]
    assert np.all(nonlocal_gradient(g, np.array([3.3, 3.3])) == 0.0)
    assert nonlocal_gradient(g, np.array([0.25, 0.75])).tolist() == [0.5]
    with pytest.raises(SizeMismatch):
        nonlocal_gradient(g, np.array([1.0, 2.0, 3.0]))


def test_nonlocal_divergence_examples():
    g = two_point_graph()
    div = nonlocal_divergence(g, np.array([-0.125]))  # -0.125 on (0, 1), 0.125 on (1, 0)
    assert div == pytest.approx([-0.125, 0.125])
    assert np.all(nonlocal_divergence(g, np.zeros(g.n_links)) == 0.0)
    # a symmetric edge field has zero antisymmetric part and no divergence
    assert np.allclose(ordered_edge_divergence(np.array([0.7, 0.7]), g), 0.0)


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
        if g.n_links == 0:
            continue
        phi = rng.normal(size=n)
        j = rng.normal(size=g.n_links)
        lhs = float(np.sum(phi * nonlocal_divergence(g, j) * g.weights))
        rhs = -float(
            np.sum(nonlocal_gradient(g, phi) * g.link_eta * j * weights[g.link_lo]
                   * weights[g.link_hi])
        )
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_antisymmetrize_examples():
    # the raw edge field 3 on (0, 1) and 1 on (1, 0) has the antisymmetric
    # part 1 on the link (0, 1), and the divergence of that link value
    g = two_point_graph()
    assert np.array_equal(ordered_edge_divergence(np.array([3.0, 1.0]), g), [1.0, -1.0])
    assert np.array_equal(nonlocal_divergence(g, np.array([0.5 * (3.0 - 1.0)])), [1.0, -1.0])


def test_antisymmetrize_preserves_divergence():
    # a raw edge field, f on every (lo, hi) and b on (hi, lo), has the
    # divergence of its antisymmetric part (f - b) / 2, a link field
    rng = np.random.default_rng(7)
    points = rng.normal(size=(5, 1))
    g = build_graph(points, rng.uniform(0.5, 1.5, 5), lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    for _ in range(20):
        f, b = rng.normal(size=(2, g.n_links))
        d1 = ordered_edge_divergence(np.concatenate([f, b]), g)
        d2 = nonlocal_divergence(g, 0.5 * (f - b))
        assert np.max(np.abs(d1 - d2)) < 1e-12


def test_species_pair_operators_equal_single_rows():
    # a stacked (2, .) call must give each row bit for bit, written here from
    # the raw formulas: phi(hi) - phi(lo), and the eta-weighted scatter of
    # each link value at lo and hi, summed in link order; the ordered-edge
    # bincount sums in another order, so it agrees to a few ulp
    rng = np.random.default_rng(11)
    n = 24
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    g = build_graph(points, weights, lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1)))
    phi = rng.normal(size=(2, n))
    j = rng.normal(size=(2, g.n_links))
    grad = nonlocal_gradient(g, phi)
    div = nonlocal_divergence(g, j)
    assert grad.shape == (2, g.n_links) and div.shape == (2, n)
    lo, hi, eta = g.link_lo, g.link_hi, g.link_eta
    for i in range(2):
        assert np.array_equal(grad[i], phi[i][hi] - phi[i][lo])
        terms = np.stack([eta * weights[hi] * j[i], -eta * weights[lo] * j[i]], axis=1)
        want = np.zeros(n)
        np.add.at(want, np.stack([lo, hi], axis=1).ravel(), terms.ravel())
        assert np.array_equal(div[i], want)
        ordered = ordered_edge_divergence(edge_field(j[i]), g)
        assert np.max(np.abs(div[i] - ordered)) <= 8 * np.finfo(float).eps * np.max(np.abs(ordered))
        assert np.array_equal(grad[i], nonlocal_gradient(g, phi[i]))
        assert np.array_equal(div[i], nonlocal_divergence(g, j[i]))
    # the cached action weight holds the product the formulas use
    assert np.array_equal(g.link_weight, eta * (weights[lo] * weights[hi]))
    three = rng.normal(size=(3, g.n_links))
    assert np.array_equal(nonlocal_divergence(g, three),
                          [nonlocal_divergence(g, row) for row in three])
    with pytest.raises(SizeMismatch):
        nonlocal_divergence(g, np.zeros((2, 2 * g.n_links)))  # an ordered-edge field
    with pytest.raises(SizeMismatch):
        nonlocal_gradient(g, np.zeros((2, n + 1)))


@pytest.mark.parametrize("n", [8, 64])
def test_divergence_of_stacked_rows_equals_each_row(n):
    # one or two rows are multiplied one at a time, more rows as one product;
    # both give each row's own divergence bit for bit
    rng = np.random.default_rng(n)
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    g = build_graph(points, weights, lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1)))
    for shape in [(1,), (2,), (3,), (16,), (1, 2), (3, 2), (16, 2)]:
        j = rng.normal(size=shape + (g.n_links,))
        div = nonlocal_divergence(g, j)
        rows = j.reshape(-1, g.n_links)
        assert div.shape == shape + (n,)
        assert np.array_equal(div.reshape(-1, n), [nonlocal_divergence(g, row) for row in rows])
    edgeless = build_graph(points, weights, np.zeros((n, n)))
    assert edgeless.n_links == 0
    for shape in [(), (2,), (3,), (16, 2)]:
        div = nonlocal_divergence(edgeless, np.zeros(shape + (0,)))
        assert div.shape == shape + (n,) and not np.any(div)


def _gaussian_graph_with_isolated_vertex(seed):
    rng = np.random.default_rng(seed)
    n = 20
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    points[-1] = [9.0, 9.0]  # no edge reaches it
    weights = rng.uniform(0.5, 1.5, size=n)
    eta = np.exp(-8.0 * np.sum((points[:, None] - points[None]) ** 2, axis=-1))
    eta[eta < 0.3] = 0.0
    return build_graph(points, weights, eta)


def test_links_are_the_edges_taken_once():
    g = _gaussian_graph_with_isolated_vertex(5)
    assert 0 < g.n_links and np.all(g.link_lo < g.link_hi)
    # every positive weight once, row-major over the upper triangle
    eta = dense_eta(g)
    lo, hi = np.nonzero(np.triu(eta, 1))
    assert np.array_equal(g.link_lo, lo) and np.array_equal(g.link_hi, hi)
    assert np.array_equal(g.link_eta, eta[lo, hi])
    assert np.count_nonzero(eta) == 2 * g.n_links
    # one CSR column per link: eta mu_hi at lo and -eta mu_lo at hi, each row in link order
    dense = g.link_divergence.toarray()
    links = np.arange(g.n_links)
    assert dense.shape == (g.n_vertices, g.n_links)
    assert np.array_equal(dense[g.link_lo, links], g.link_eta * g.weights[g.link_hi])
    assert np.array_equal(dense[g.link_hi, links], -g.link_eta * g.weights[g.link_lo])
    assert g.link_divergence.nnz == 2 * g.n_links and g.link_divergence.has_sorted_indices
    assert not np.any(dense[-1])


def test_link_divergence_matches_ordered_edge_divergence():
    g = _gaussian_graph_with_isolated_vertex(6)
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, g.n_links))
    for row in a:
        by_link = g.link_divergence @ row
        assert np.array_equal(nonlocal_divergence(g, row), by_link)
        by_edge = ordered_edge_divergence(edge_field(row), g)
        assert np.max(np.abs(by_link - by_edge)) <= 8 * np.finfo(float).eps * np.max(np.abs(by_edge))


def _stored_arrays(g):
    """(name, element count, bytes) of every array the graph stores, its
    base measure's included; a sparse matrix counts its three CSR buffers."""
    stored = [("points", g.base.points), ("weights", g.base.weights)]
    stored += [(f.name, getattr(g, f.name)) for f in dataclasses.fields(FiniteGraph)]
    out = []
    for name, value in stored:
        if isinstance(value, np.ndarray):
            out.append((name, value.size, value.nbytes))
        elif sparse.issparse(value):
            buffers = value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
            out.append((name, value.nnz, buffers))
    return out


def test_graph_memory_grows_with_edges():
    # a sparse cutoff graph, about four links per vertex: nothing may be n^2
    rng = np.random.default_rng(3)
    n, radius = 300, 0.08
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    g = build_graph(points, rng.uniform(0.5, 1.5, n),
                    lambda x, y: (np.linalg.norm(x - y, axis=-1) <= radius).astype(float))
    assert n <= g.n_links <= 4 * n
    stored = _stored_arrays(g)
    assert len(stored) >= 11
    assert all(count < n * n for _, count, _ in stored), stored
    # each link stores three indices or weights and three derived values,
    # and two divergence entries of 12 bytes each: 72 bytes
    total = sum(size for _, _, size in stored)
    assert total <= 96 * g.n_links + 32 * n, (total, n, g.n_links)


def test_finite_graph_rejects_links_out_of_order():
    # links are 0 <= lo < hi < n in strictly increasing (lo, hi) order, as
    # build_graph makes them, so link_ends repeats each vertex's value once
    # per link as its lo end; any other link arrays are refused
    rng = np.random.default_rng(8)
    n = 9
    eta = rng.uniform(0.0, 1.0, size=(n, n))
    eta = np.where(eta + eta.T > 0.8, eta + eta.T, 0.0)
    g = build_graph(rng.uniform(size=(n, 2)), rng.uniform(0.5, 1.5, size=n), eta)
    assert np.array_equal(g.lo_counts, np.bincount(g.link_lo, minlength=n))
    values = rng.normal(size=(2, n))
    for field in (values, values[0]):
        at_lo, at_hi = link_ends(g, field)
        assert np.array_equal(at_lo, np.take(field, g.link_lo, axis=-1))
        assert np.array_equal(at_hi, np.take(field, g.link_hi, axis=-1))
    with pytest.raises(SizeMismatch):
        link_ends(g, values[:, 1:])
    lo, hi, w = g.link_lo, g.link_hi, g.link_eta
    order = rng.permutation(g.n_links)
    bad = {
        "shuffled": (lo[order], hi[order], w[order]),
        "swapped": (hi, lo, w),
        "repeated": (np.append(lo, lo[-1]), np.append(hi, hi[-1]), np.append(w, w[-1])),
        "loop": (np.append(lo, n - 1), np.append(hi, n - 1), np.append(w, 1.0)),
        "out of range": (np.append(lo, n - 1), np.append(hi, n), np.append(w, 1.0)),
        "negative": (np.insert(lo, 0, -1), np.insert(hi, 0, 0), np.insert(w, 0, 1.0)),
        "lengths": (lo, hi, w[1:]),
        "not flat": (lo[None], hi[None], w[None]),
    }
    for name, (link_lo, link_hi, link_eta) in bad.items():
        with pytest.raises(SizeMismatch):
            FiniteGraph(base=g.base, link_lo=link_lo, link_hi=link_hi, link_eta=link_eta)
    same = FiniteGraph(base=g.base, link_lo=lo, link_hi=hi, link_eta=w)
    assert np.array_equal(nonlocal_gradient(same, values), nonlocal_gradient(g, values))
