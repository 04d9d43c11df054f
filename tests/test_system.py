"""BlockSystem: refusing terms on missing unknowns, the row-major
flattening of L @ X @ R terms, and the round trip between ambient vectors
and blocks."""

import numpy as np
import pytest

from reedychain.linalg import FpMatrix, eye, zeros
from reedychain.system import BlockSystem

P = 7


def m(rows):
    return FpMatrix.from_rows(P, rows)


def test_equation_before_its_unknown_is_refused():
    # x = 1 added before x exists would silently turn into 0 = 1
    sys = BlockSystem(P)
    with pytest.raises(ValueError, match="never added"):
        sys.add_equation((1, 1), [("x", None, None, 1)], rhs=m([[1]]))
    sys.add_unknown("x", 1, 1)
    sys.add_equation((1, 1), [("x", None, None, 1)], rhs=m([[1]]))
    assert sys.solve() == {"x": m([[1]])}


def test_missing_unknown_with_zero_size_block_is_dropped():
    # the term L @ Y @ R with L of shape 2x0 is zero whatever Y is, so an
    # unknown Y of shape 0x1 that was never added drops out
    sys = BlockSystem(P)
    sys.add_unknown("x", 2, 1)
    sys.add_equation(
        (2, 1), [("x", None, None, 1), ("y", zeros(P, 2, 0), None, 1)], rhs=m([[3], [4]])
    )
    assert sys.solve() == {"x": m([[3], [4]])}
    # the equation still constrains the rhs when every term drops
    sys.add_equation((1, 1), [("y", zeros(P, 1, 0), None, 1)], rhs=m([[1]]))
    assert sys.solve() is None


def test_coefficient_shapes_are_checked():
    sys = BlockSystem(P)
    sys.add_unknown("x", 2, 2)
    with pytest.raises(ValueError, match="term shape"):
        sys.add_equation((2, 2), [("x", eye(P, 3), None, 1)])
    with pytest.raises(ValueError, match="coefficient shape"):
        sys.add_equation((2, 2), [("x", zeros(P, 2, 3), None, 1)])


def test_matrix_is_the_kron_flattening_of_the_terms():
    # vec(L X R) = kron(L, R^T) vec(X) row-major, summed over the terms of an
    # equation, with identities for absent coefficients
    rng = np.random.default_rng(3)

    def rand(rows, cols):
        return FpMatrix(P, rng.integers(0, P, size=(rows, cols)))

    sys = BlockSystem(P)
    sys.add_unknown("x", 2, 3)
    sys.add_unknown("y", 4, 2)
    l1, r1, l2, l3, r3 = rand(3, 2), rand(3, 2), rand(3, 4), rand(2, 2), rand(3, 2)
    sys.add_equation((3, 2), [("x", l1, r1, 1), ("y", l2, None, 4)])
    sys.add_equation((2, 2), [("x", l3, r3, -1)])
    sys.add_equation((2, 3), [("x", None, None, 2)])
    want = np.zeros((6 + 4 + 6, 6 + 8), dtype=np.int64)
    want[0:6, 0:6] = np.kron(l1.a, r1.a.T)
    want[0:6, 6:14] = 4 * np.kron(l2.a, np.eye(2, dtype=np.int64))
    want[6:10, 0:6] = -np.kron(l3.a, r3.a.T)
    want[10:16, 0:6] = 2 * np.eye(6, dtype=np.int64)
    assert sys.matrix() == FpMatrix(P, want)


def test_rhs_shape_is_checked():
    # a (3, 2) rhs for a (2, 3) equation has the right number of entries;
    # reflattened row-major it would pose a different problem
    sys = BlockSystem(P)
    sys.add_unknown("x", 2, 3)
    with pytest.raises(ValueError, match="rhs shape"):
        sys.add_equation((2, 3), [("x", None, None, 1)], rhs=m([[0, 1], [2, 3], [4, 5]]))
    with pytest.raises(ValueError, match="rhs shape"):
        sys.add_equation((0, 3), [("x", zeros(P, 0, 2), None, 1)], rhs=zeros(P, 3, 0))
    sys.add_equation((2, 3), [("x", None, None, 1)], rhs=m([[0, 1, 2], [3, 4, 5]]))
    assert sys.solve() == {"x": m([[0, 1, 2], [3, 4, 5]])}


def test_vector_from_blocks_inverts_blocks_from_vector():
    sys = BlockSystem(P)
    sys.add_unknown("a", 2, 3)
    sys.add_unknown("b", 1, 2)
    vec = FpMatrix(P, np.arange(8).reshape(8, 1))
    blocks = sys.blocks_from_vector(vec)
    assert blocks["a"] == m([[0, 1, 2], [3, 4, 5]])
    assert blocks["b"] == m([[6, 7]])
    assert sys.vector_from_blocks(blocks) == vec
    # absent unknowns read as zero; zero-size blocks without an unknown drop
    only_b = sys.vector_from_blocks({"b": m([[6, 7]]), "c": zeros(P, 0, 4)})
    assert only_b == FpMatrix(P, np.array([[0] * 6 + [6, 7]]).T)


def test_vector_from_blocks_refuses_unknown_keys_and_bad_shapes():
    sys = BlockSystem(P)
    sys.add_unknown("a", 1, 1)
    with pytest.raises(ValueError, match="never added"):
        sys.vector_from_blocks({"c": m([[1]])})
    with pytest.raises(ValueError, match="shape"):
        sys.vector_from_blocks({"a": m([[1, 2]])})
