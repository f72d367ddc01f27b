import math

import numpy as np
import pytest

from conftest import random_vector
from graphheat import (LaplacianOperator, WeightedGraph, WeightedVector,
                       dense_matrices, inner, integer_line, path_graph, quadratic_form,
                       random_connected_graph, star_graph)
from graphheat.operators import DENSE_SIZE_LIMIT


def test_inner_basis_vectors():
    g = WeightedGraph(2, [(0, 1, 1.0)], measure=[2.0, 3.0])
    e0 = WeightedVector.basis(g, 0)
    e1 = WeightedVector.basis(g, 1)
    assert inner(e0, e0) == 2.0
    assert inner(e1, e1) == 3.0
    assert inner(e0, e1) == 0.0


def test_inner_conjugates_first_argument():
    g = WeightedGraph(1, measure=[2.0])
    f = 1j * WeightedVector.basis(g, 0)
    h = WeightedVector.basis(g, 0)
    assert inner(f, h) == -2j  # conj(i) * 1 * m = -2i
    assert inner(h, f) == 2j


def test_inner_graph_mismatch():
    f = WeightedVector.basis(path_graph(2), 0)
    h = WeightedVector.basis(path_graph(2), 0)
    with pytest.raises(ValueError, match="different graphs"):
        inner(f, h)


@pytest.mark.parametrize("combine, message", [
    (lambda f, h: f + h, "vectors live on different graphs"),
    (lambda f, h: LaplacianOperator(h.graph).apply(f), "vector lives on a different graph"),
    (lambda f, h: quadratic_form(f.graph, f, h), "vectors live on a different graph"),
], ids=["add", "apply", "quadratic_form"])
def test_vectors_of_two_graphs_do_not_combine(combine, message):
    f, h = (WeightedVector.basis(path_graph(2), 0) for _ in range(2))
    with pytest.raises(ValueError, match=message):
        combine(f, h)


@pytest.mark.parametrize("dense", [
    lambda line: WeightedVector.basis(line, 0).to_array(),
    lambda line: WeightedVector.from_array(line, np.ones(3)),
    dense_matrices,
], ids=["to_array", "from_array", "dense_matrices"])
def test_dense_forms_need_a_finite_graph(dense):
    with pytest.raises(ValueError, match="dense form requires a finite graph"):
        dense(integer_line())


def test_vector_drops_exact_zeros():
    g = path_graph(3)
    f = WeightedVector(g, {0: 1.0, 1: 0.0, 2: -2.0})
    assert set(f.support) == {0, 2}
    diff = f - f
    assert len(diff) == 0


def test_apply_on_edge_graph():
    g = path_graph(2)
    op = LaplacianOperator(g)
    out = op.apply(WeightedVector.basis(g, 0))
    assert dict(out.items()) == {0: 1.0, 1: -1.0}


def test_apply_isolated_vertex_with_killing():
    g = WeightedGraph(1, killing=[5.0])
    op = LaplacianOperator(g)
    out = op.apply(WeightedVector.basis(g, 0))
    assert dict(out.items()) == {0: 5.0}


def test_apply_zero_vector():
    g = path_graph(3)
    op = LaplacianOperator(g)
    out = op.apply(WeightedVector(g, {}))
    assert len(out) == 0


def test_apply_support_in_one_ball():
    for seed in range(8):
        g = random_connected_graph(10, 0.3, seed)
        op = LaplacianOperator(g)
        f = random_vector(g, seed, density=0.3)
        allowed = set(f.support)
        for v in list(f.support):
            allowed.update(nbr for nbr, _ in g.neighbors(v))
        assert set(op.apply(f).support) <= allowed


def test_apply_support_exact_on_trees():
    g = path_graph(5)
    op = LaplacianOperator(g)
    out = op.apply(WeightedVector.basis(g, 2))
    assert set(out.support) == {1, 2, 3}


def test_matrix_element_examples():
    g = path_graph(2)
    op = LaplacianOperator(g)
    assert op.matrix_element(0, 1) == -1.0
    assert op.matrix_element(0, 0) == 1.0
    g3 = WeightedGraph(3, [(0, 1, 1.0)])
    assert LaplacianOperator(g3).matrix_element(0, 2) == 0.0


def test_matrix_element_consistent_with_apply():
    # with unit measure the round trip m * (w / m) is exact, so off-diagonal
    # elements agree bit for bit; general measures cost at most an ulp or two
    for seed in range(6):
        g = random_connected_graph(9, 0.4, seed, random_killing=True, mmin=1.0, mmax=1.0)
        op = LaplacianOperator(g)
        for x in g.vertices:
            for y in g.vertices:
                via_apply = inner(WeightedVector.basis(g, x),
                                  op.apply(WeightedVector.basis(g, y)))
                if x != y:
                    assert op.matrix_element(x, y) == via_apply
                else:
                    assert math.isclose(op.matrix_element(x, y), via_apply, rel_tol=1e-14)
    for seed in range(6):
        g = random_connected_graph(9, 0.4, seed, random_killing=True)
        op = LaplacianOperator(g)
        for x in g.vertices:
            for y in g.vertices:
                via_apply = inner(WeightedVector.basis(g, x),
                                  op.apply(WeightedVector.basis(g, y)))
                assert math.isclose(op.matrix_element(x, y), via_apply,
                                    rel_tol=5e-16, abs_tol=0.0)


def test_quadratic_form_on_basis():
    g = WeightedGraph(3, [(0, 1, 2.0), (0, 2, 3.0)], killing=[1.0, 0.0, 0.0])
    e0 = WeightedVector.basis(g, 0)
    assert quadratic_form(g, e0, e0) == 2.0 + 3.0 + 1.0


def test_quadratic_form_constant_vector():
    for seed in range(5):
        g = random_connected_graph(8, 0.4, seed, random_killing=True)
        ones = WeightedVector(g, {v: 1.0 for v in g.vertices})
        total_killing = math.fsum(g.killing(v) for v in g.vertices)
        assert math.isclose(quadratic_form(g, ones, ones), total_killing,
                            rel_tol=1e-12, abs_tol=1e-15)


def test_quadratic_form_nonnegative_on_real_vectors():
    for seed in range(10):
        g = random_connected_graph(10, 0.4, seed, random_killing=True)
        f = random_vector(g, seed)
        assert quadratic_form(g, f, f) >= -1e-12


def test_form_identity_real():
    # over real data Q(f, h) equals <f, L h>
    for seed in range(10):
        g = random_connected_graph(10, 0.4, seed, random_killing=True)
        op = LaplacianOperator(g)
        f = random_vector(g, 2 * seed)
        h = random_vector(g, 2 * seed + 1)
        q = quadratic_form(g, f, h)
        ip = inner(f, op.apply(h))
        assert abs(q - ip) <= 1e-12 * max(1.0, abs(ip))


def test_form_identity_complex():
    # the conjugation sits on the second argument, so Q(f, h) = <h, L f>
    for seed in range(10):
        g = random_connected_graph(10, 0.4, seed, random_killing=True)
        op = LaplacianOperator(g)
        f = random_vector(g, 3 * seed, complex_values=True)
        h = random_vector(g, 3 * seed + 1, complex_values=True)
        q = quadratic_form(g, f, h)
        ip = inner(h, op.apply(f))
        assert abs(q - ip) <= 1e-12 * max(1.0, abs(ip))


def test_adjointness():
    for seed in range(10):
        g = random_connected_graph(12, 0.35, seed, random_killing=True)
        op = LaplacianOperator(g)
        f = random_vector(g, 5 * seed, complex_values=True)
        h = random_vector(g, 5 * seed + 2, complex_values=True)
        a = inner(f, op.apply(h))
        b = inner(op.apply(f), h)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_positivity():
    for seed in range(10):
        g = random_connected_graph(12, 0.35, seed, random_killing=True)
        op = LaplacianOperator(g)
        f = random_vector(g, seed)
        value = inner(f, op.apply(f))
        assert value >= -1e-12 * inner(f, f)


def test_dense_matrices_examples():
    A, M = dense_matrices(path_graph(2))
    assert np.array_equal(A, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(M, np.eye(2))

    A, M = dense_matrices(WeightedGraph(1, killing=[3.0], measure=[2.0]))
    assert np.array_equal(A, [[3.0]])
    assert np.array_equal(M, [[2.0]])

    A, _ = dense_matrices(WeightedGraph(3))
    assert np.array_equal(A, np.zeros((3, 3)))


def test_dense_matrices_match_apply():
    for seed in range(6):
        g = random_connected_graph(9, 0.4, seed, random_killing=True)
        A, M = dense_matrices(g)
        op = LaplacianOperator(g)
        m = np.diag(M)
        for x in g.vertices:
            dense = (A @ np.eye(g.n)[:, x]) / m
            sparse = op.apply(WeightedVector.basis(g, x)).to_array()
            assert np.allclose(dense, sparse, rtol=1e-14, atol=0)


def test_dense_size_limit():
    # raises before allocating the (n, n) array
    with pytest.raises(ValueError, match=f"above the dense size limit {DENSE_SIZE_LIMIT}"):
        dense_matrices(star_graph(DENSE_SIZE_LIMIT + 1))


def test_array_form_requires_a_finite_graph():
    with pytest.raises(ValueError, match="array form requires a finite graph"):
        LaplacianOperator(integer_line()).apply(np.zeros(3))
