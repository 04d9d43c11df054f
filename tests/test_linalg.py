"""Exact mod-p matrix kernel.

Expected values below were computed by hand or by brute-force enumeration
before the implementation existed; they are frozen here as oracles.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reedychain import linalg as la
from reedychain.errors import FieldMismatchError
from reedychain.linalg import (
    FpMatrix,
    canonical_basis,
    eye,
    kernel_basis,
    quotient_by_columns,
    random_invertible,
    rref,
    solve,
    zeros,
)


def test_rank_rank_one_matrix_f7():
    # second row is 2 * first row, so rank 1
    m = FpMatrix.from_rows(7, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_rref_pivots_leftmost():
    m = FpMatrix.from_rows(5, [[0, 2, 1], [0, 4, 3]])
    r, pivots = rref(m)
    assert pivots == (1, 2)
    assert r.tolists() == [[0, 1, 0], [0, 0, 1]]


def test_entries_canonical_residues():
    m = FpMatrix.from_rows(5, [[-1, 7], [10, -6]])
    assert m.tolists() == [[4, 2], [0, 4]]


def test_solve_free_variables_zero_f3():
    # x + y = 2 over F_3 has solutions (2,0), (1,1), (0,2); the deterministic
    # convention (free variables set to 0) picks (2, 0).
    a = FpMatrix.from_rows(3, [[1, 1], [0, 0]])
    b = FpMatrix.from_rows(3, [[2], [0]])
    x = solve(a, b)
    assert x is not None
    assert x.tolists() == [[2], [0]]
    # brute-force: confirm (2,0) is a solution and that solve found the one
    # with free coordinate zero
    sols = [
        (x0, x1)
        for x0, x1 in itertools.product(range(3), repeat=2)
        if (x0 + x1) % 3 == 2
    ]
    assert (2, 0) in sols


def test_solve_inconsistent_returns_none():
    a = FpMatrix.from_rows(3, [[1, 1], [1, 1]])
    b = FpMatrix.from_rows(3, [[1], [2]])
    assert solve(a, b) is None


def test_solve_multiple_rhs_columns():
    a = FpMatrix.from_rows(7, [[2, 0], [0, 3]])
    b = FpMatrix.from_rows(7, [[1, 2], [1, 3]])
    x = solve(a, b)
    assert x is not None
    assert (a @ x) == b


def test_kernel_basis_column_order():
    # kernel of [1 2 0; 0 0 1] over F_5 is spanned by (-2, 1, 0) = (3, 1, 0)
    m = FpMatrix.from_rows(5, [[1, 2, 0], [0, 0, 1]])
    k = kernel_basis(m)
    assert k.shape == (3, 1)
    assert k.tolists() == [[3], [1], [0]]
    assert (m @ k).is_zero()


@pytest.mark.parametrize("p", [2, 3, 7])
def test_canonical_basis_recovers_kernel_basis(p):
    # any basis of ker A, or a spanning set with repeats, canonicalizes to
    # the basis kernel_basis reads off the rref of A
    rng = np.random.default_rng(p)
    for _ in range(40):
        rows, cols = (int(v) for v in rng.integers(0, 7, size=2))
        rank_cap = int(rng.integers(0, 4))
        left = rng.integers(0, p, size=(rows, rank_cap))
        a = FpMatrix(p, left @ rng.integers(0, p, size=(rank_cap, cols)))
        k = kernel_basis(a)
        t = random_invertible(p, k.cols, rng)
        assert canonical_basis(k @ t) == k
        doubled = FpMatrix(p, np.hstack([(k @ t).a, (k @ t.scale(2)).a]))
        assert canonical_basis(doubled) == k


def test_canonical_basis_edge_cases():
    # zero matrix: the kernel is everything and its basis the identity
    assert canonical_basis(eye(5, 3).scale(2)) == kernel_basis(zeros(5, 2, 3)) == eye(5, 3)
    # a matrix without columns has the zero kernel of the zero space
    assert canonical_basis(zeros(5, 0, 0)) == kernel_basis(zeros(5, 2, 0))
    # full column rank: the kernel is zero, spanned by no columns
    full = FpMatrix.from_rows(5, [[1, 2], [0, 3], [4, 4]])
    assert kernel_basis(full).shape == (2, 0)
    assert canonical_basis(kernel_basis(full)) == kernel_basis(full)
    assert canonical_basis(zeros(5, 2, 3)) == zeros(5, 2, 0)


def test_kernel_of_zero_matrix_is_identity():
    m = zeros(5, 2, 3)
    k = kernel_basis(m)
    assert k == eye(5, 3)


def test_quotient_by_columns_projection_and_section():
    # quotient of F_5^3 by span{(1,0,2)}: non-pivot coordinates survive
    sub = FpMatrix.from_rows(5, [[1], [0], [2]])
    proj, sect = quotient_by_columns(sub, 3)
    assert proj.shape == (2, 3)
    assert sect.shape == (3, 2)
    assert (proj @ sect) == eye(5, 2)
    # the subspace dies in the quotient
    assert (proj @ sub).is_zero()


def test_quotient_by_full_space_is_zero():
    sub = eye(5, 2)
    proj, sect = quotient_by_columns(sub, 2)
    assert proj.shape == (0, 2)
    assert sect.shape == (2, 0)


def test_field_mismatch_rejected():
    a = FpMatrix.from_rows(5, [[1]])
    b = FpMatrix.from_rows(7, [[1]])
    with pytest.raises(FieldMismatchError):
        a @ b
    with pytest.raises(FieldMismatchError):
        a + b


def test_matmul_mod_p():
    a = FpMatrix.from_rows(5, [[2, 3], [4, 1]])
    b = FpMatrix.from_rows(5, [[1, 0], [2, 2]])
    assert (a @ b).tolists() == [[3, 1], [1, 2]]


small_entries = st.integers(min_value=0, max_value=6)


def _matrices(p, max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: FpMatrix.from_rows(p, rows))
        )
    )


@settings(max_examples=60, deadline=None)
@given(_matrices(7))
def test_rref_is_idempotent_and_rank_bounded(m):
    r, pivots = rref(m)
    r2, pivots2 = rref(r)
    assert r == r2
    assert pivots == pivots2
    assert len(pivots) <= min(m.shape)


@settings(max_examples=60, deadline=None)
@given(_matrices(7))
def test_kernel_dimension_theorem(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.shape[1] == m.shape[1] - m.rank()
    # kernel basis columns are independent
    assert k.rank() == k.shape[1]


@settings(max_examples=60, deadline=None)
@given(_matrices(7), st.data())
def test_solve_recovers_known_solution(m, data):
    # build a consistent system by picking x first
    cols = data.draw(st.integers(1, 2))
    x_rows = data.draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=m.shape[1],
            max_size=m.shape[1],
        )
    )
    x = FpMatrix.from_rows(7, x_rows)
    b = m @ x
    got = solve(m, b)
    assert got is not None
    assert (m @ got) == b


@settings(max_examples=40, deadline=None)
@given(_matrices(7))
def test_quotient_dimension_theorem(m):
    proj, sect = quotient_by_columns(m, m.shape[0])
    q = m.shape[0] - m.rank()
    assert proj.shape == (q, m.shape[0])
    assert (proj @ sect) == eye(7, q)
    assert (proj @ m).is_zero()


# The Python-loop kernel and quotient readings that the vectorized ones
# replaced, kept as references.
def loop_kernel_basis(m: FpMatrix) -> FpMatrix:
    r, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    k = np.zeros((m.cols, len(free)), dtype=np.int64)
    for idx, j in enumerate(free):
        k[j, idx] = 1
        for row, c in enumerate(pivots):
            k[c, idx] = (-int(r.a[row, j])) % m.p
    return FpMatrix(m.p, k)


def loop_quotient_by_columns(sub: FpMatrix, ambient_dim: int):
    p = sub.p
    r, pivots = rref(sub.transpose())
    free = [c for c in range(ambient_dim) if c not in set(pivots)]
    q = len(free)
    proj = np.zeros((q, ambient_dim), dtype=np.int64)
    for out_row, j in enumerate(free):
        proj[out_row, j] = 1
    for row, c in enumerate(pivots):
        for out_row, j in enumerate(free):
            proj[out_row, c] = (-int(r.a[row, j])) % p
    sect = np.zeros((ambient_dim, q), dtype=np.int64)
    for idx, j in enumerate(free):
        sect[j, idx] = 1
    return FpMatrix(p, proj), FpMatrix(p, sect)


def _same(a: FpMatrix, b: FpMatrix) -> bool:
    return (a.p, a.a.shape, a.a.dtype, a.a.tobytes()) == (b.p, b.a.shape, b.a.dtype, b.a.tobytes())


@pytest.mark.parametrize("p", [2, 3, 101, 32749])
def test_kernel_and_quotient_match_the_loop_references(p):
    rng = np.random.default_rng(p)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1)]
    shapes += [tuple(rng.integers(1, 10, size=2)) for _ in range(60)]
    for rows, cols in shapes:
        for density in (0.1, 1.0):
            a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
            m = FpMatrix(p, a)
            assert _same(kernel_basis(m), loop_kernel_basis(m))
            got, want = quotient_by_columns(m, rows), loop_quotient_by_columns(m, rows)
            assert _same(got[0], want[0]) and _same(got[1], want[1])


_ELIMINATE = la._rref_inplace


def eliminating_solve(a: FpMatrix, b: FpMatrix) -> FpMatrix | None:
    """``solve`` by elimination alone, the path unit rows now skip."""
    n = a.cols
    aug = np.hstack([a.a, b.a])
    pivots = _ELIMINATE(a.p, aug)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.cols), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = aug[r, n:]
    return FpMatrix(a.p, x)


def with_unit_rows(p: int, rng, rows: int, cols: int, scale: bool) -> np.ndarray:
    """A random rows x cols block with a row e_j for every column j mixed in
    (or, with ``scale``, c * e_j for some c != 1 at one column)."""
    units = np.eye(cols, dtype=np.int64)
    if scale and cols and p > 2:
        units[rng.integers(cols)] *= int(rng.integers(2, p))
    a = np.vstack([rng.integers(0, p, size=(rows, cols)), units, units[: cols // 2]])
    return a[rng.permutation(a.shape[0])]


@pytest.mark.parametrize("p", [2, 3, 101, 32749])
def test_unit_row_solve_matches_elimination(p, monkeypatch):
    rng = np.random.default_rng(p + 1)
    calls, eliminated = [], 0
    monkeypatch.setattr(la, "_rref_inplace", lambda q, a: calls.append(a.shape) or _ELIMINATE(q, a))
    shapes = [(0, 0), (3, 0), (0, 3), (2, 1)] + [
        tuple(rng.integers(0, 8, size=2)) for _ in range(40)
    ]
    for rows, cols in shapes:
        for scale in (False, True):
            a = FpMatrix(p, with_unit_rows(p, rng, rows, cols, scale))
            rows_of_a = a.tolists()
            units = {j for j in range(cols) if [int(v == j) for v in range(cols)] in rows_of_a}
            for k in (0, 1, 3):
                good = a @ FpMatrix(p, rng.integers(0, p, size=(cols, k)))
                noise = rng.integers(0, p, size=good.shape) * (rng.random(good.shape) < 0.2)
                bad = good + FpMatrix(p, noise)
                for b in (good, bad):
                    calls.clear()
                    got, want = solve(a, b), eliminating_solve(a, b)
                    assert (got is None) == (want is None)
                    assert got is None or _same(got, want)
                    # elimination runs exactly when some column lacks a row e_j
                    assert bool(calls) == (len(units) < cols)
                    eliminated += bool(calls)
    assert eliminated >= (40 if p > 2 else 0)
    # a matrix with no rows and some columns has no unit row: elimination
    calls.clear()
    assert _same(solve(zeros(p, 0, 2), zeros(p, 0, 1)), zeros(p, 2, 1)) and calls


def test_rref_of_zero_matrix_returns_no_pivots_at_once():
    a = np.zeros((3, 4), dtype=np.int64)
    assert la._rref_inplace(5, a) == [] and not a.any()
    r, pivots = rref(zeros(5, 3, 4))
    assert pivots == () and r == zeros(5, 3, 4)


def test_reduced_outputs_hold_residues(monkeypatch):
    """Every array the kernels hand out unreduced is int64, read-only and in
    0..p-1, over the acceptance suites a02, a03 and a04."""
    import test_acceptance as acc

    orig, seen = la._reduced, []

    def checked(p, a):
        m = orig(p, a)
        assert m.a.dtype == np.int64 and not m.a.flags.writeable
        assert not m.a.size or (m.a.min() >= 0 and m.a.max() < p)
        seen.append(p)
        return m

    monkeypatch.setattr(la, "_reduced", checked)
    acc.test_a02_relative_matching_matches_boundary_corner()
    acc.test_a03_boundary_cotensor_is_matching_object()
    acc.test_a04_box_with_injective_preserves_reedy_cofibrations()
    assert len(seen) > 1000


def numpy_rref_inplace(p: int, a: np.ndarray) -> list[int]:
    """The whole-matrix numpy kernel that ``la._rref_inplace`` replaced:
    each pivot subtracts an outer product from every row and reduces every
    entry mod p."""
    if not a.any():
        return []
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        other = a[:, c].copy()
        other[r] = 0
        if other.any():
            a -= np.outer(other, a[r])
            a %= p
        pivots.append(c)
        r += 1
    return pivots


def _elimination_inputs(p: int, rng):
    """Empty and 1x1 shapes, small random shapes at three densities, tall
    sparse level-system shapes, wide shapes, and matrices of p - 1."""
    for shape in ((0, 0), (0, 5), (5, 0)):
        yield np.zeros(shape, dtype=np.int64)
    for v in (0, 1, p - 1):
        yield np.array([[v]], dtype=np.int64)
    for _ in range(40):
        shape = tuple(int(v) for v in rng.integers(1, 13, size=2))
        for density in (0.02, 0.2, 0.9):
            yield rng.integers(0, p, size=shape) * (rng.random(shape) < density)
    for shape, density in (((300, 80), 0.02), ((120, 40), 0.03), ((20, 500), 0.05), ((6, 200), 0.5)):
        yield rng.integers(0, p, size=shape) * (rng.random(shape) < density)
    for shape, density in (((8, 8), 1.0), ((10, 6), 0.4), ((60, 20), 0.05), ((5, 40), 0.3)):
        yield (p - 1) * (rng.random(shape) < density).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 101, 32749])
def test_elimination_matches_the_numpy_reference(p):
    """The row-list kernel gives the numpy kernel's pivots and the same
    int64 array bytes, on every input of ``_elimination_inputs``."""
    rng = np.random.default_rng(1000 + p)
    for a in _elimination_inputs(p, rng):
        got, want = a.copy(), a.copy()
        assert la._rref_inplace(p, got) == numpy_rref_inplace(p, want), a.shape
        assert got.tobytes() == want.tobytes(), a.shape
