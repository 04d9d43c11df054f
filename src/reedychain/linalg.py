"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries kept as canonical residues in
``0..p-1``.  Everything downstream (chain complexes, latching objects, lifting
problems) reduces to the four primitives here: reduced row echelon form with
deterministic leftmost pivots, solving ``A X = B`` with free variables set to
zero, kernel bases enumerated in column order, and quotient bases read off the
non-pivot coordinates of an rref.

Elimination runs on Python int row lists and touches only the rows nonzero
in the pivot column and the nonzero entries of the pivot row, so it cannot
overflow; the numpy whole-matrix kernel it replaced is the reference in
tests/test_linalg.py.  The int64 bound covers products only: with
p <= 2**15 and at most 2**20 summands, partial sums are below 2**50.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldMismatchError, ResourceCapError


def _as_residues(p: int, a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.int64) % p
    out.flags.writeable = False
    return out


def _reduced(p: int, a: np.ndarray) -> "FpMatrix":
    """FpMatrix over an int64 array whose entries are already in 0..p-1,
    skipping the reduction mod p; ``a`` is made read-only, not copied."""
    m = object.__new__(FpMatrix)
    a.flags.writeable = False
    object.__setattr__(m, "p", p)
    object.__setattr__(m, "a", a)
    return m


@dataclass(frozen=True, eq=False)
class FpMatrix:
    """Immutable matrix over F_p.

    Args:
        p: prime modulus (primality is the caller's responsibility; the
            configuration layer checks it once per run).
        a: 2-D integer array; stored reduced mod p and read-only.
    """

    p: int
    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.a)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-D array, got shape {arr.shape}")
        object.__setattr__(self, "a", _as_residues(self.p, arr))

    @classmethod
    def from_rows(cls, p: int, rows) -> "FpMatrix":
        arr = np.array(rows, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.size == 0:
            arr = arr.reshape(len(rows), 0) if rows else arr.reshape(0, 0)
        return cls(p, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def tolists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.a]

    def is_zero(self) -> bool:
        return not self.a.any()

    def _check_p(self, other: "FpMatrix"):
        if self.p != other.p:
            raise FieldMismatchError(f"mixed moduli {self.p} and {other.p}")

    def __eq__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_p(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return FpMatrix(self.p, self.a @ other.a)

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_p(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return FpMatrix(self.p, self.a + other.a)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_p(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return FpMatrix(self.p, self.a - other.a)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix(self.p, -self.a)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.p, self.a * (c % self.p))

    def transpose(self) -> "FpMatrix":
        return _reduced(self.p, np.ascontiguousarray(self.a.T))

    def column(self, j: int) -> "FpMatrix":
        return _reduced(self.p, self.a[:, j : j + 1].copy())

    def rank(self) -> int:
        return len(rref(self)[1])

    def entry_count(self) -> int:
        return self.rows * self.cols


def zeros(p: int, rows: int, cols: int) -> FpMatrix:
    return _reduced(p, np.zeros((rows, cols), dtype=np.int64))


def eye(p: int, n: int) -> FpMatrix:
    return _reduced(p, np.eye(n, dtype=np.int64))


def hstack(ms: list[FpMatrix]) -> FpMatrix:
    p = ms[0].p
    for m in ms[1:]:
        ms[0]._check_p(m)
    return _reduced(p, np.hstack([m.a for m in ms]))


def vstack(ms: list[FpMatrix]) -> FpMatrix:
    p = ms[0].p
    for m in ms[1:]:
        ms[0]._check_p(m)
    return _reduced(p, np.vstack([m.a for m in ms]))


def block_diag(p: int, ms: list[FpMatrix]) -> FpMatrix:
    rows = sum(m.rows for m in ms)
    cols = sum(m.cols for m in ms)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in ms:
        out[r : r + m.rows, c : c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return _reduced(p, out)


def check_system_cap(rows: int, cols: int, cap: int | None):
    """Guard assembled scratch systems by cap**2 total entries."""
    if cap is not None and rows * cols > cap * cap:
        raise ResourceCapError(
            f"linear system of {rows}x{cols} entries exceeds the squared cap {cap}^2"
        )


def _rref_inplace(p: int, a: np.ndarray) -> list[int]:
    """Row reduce ``a`` (mutated) to reduced echelon form; returns pivot columns.

    Pivot search is leftmost-column, topmost-row, which makes every derived
    basis deterministic.  The rows are Python int lists, read once and
    written back once; a pivot updates only the rows nonzero in its column,
    and only at the nonzero entries of the pivot row (all from column c on,
    as the pivot row is zero before it).
    """
    if not a.any():
        return []
    rows, cols = a.shape
    m = a.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        row = m[i]
        m[i], m[r] = m[r], row
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row[c:] = [v * inv % p for v in row[c:]]
        entries = [(j, v) for j, v in enumerate(row[c:], c) if v]
        for other in m:
            f = other[c]
            if f and other is not row:
                for j, v in entries:
                    other[j] = (other[j] - f * v) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    a[...] = m
    return pivots


def rref(m: FpMatrix) -> tuple[FpMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    a = m.a.copy()
    pivots = _rref_inplace(m.p, a)
    return _reduced(m.p, a), tuple(pivots)


def _unit_rows(a: np.ndarray) -> np.ndarray | None:
    """For each column j, the first row of ``a`` equal to e_j; None when
    some column has no such row."""
    nonzero = a != 0
    unit = np.flatnonzero((nonzero.sum(axis=1) == 1) & (a.max(axis=1, initial=0) == 1))
    at = np.full(a.shape[1], -1, dtype=np.intp)
    at[np.nonzero(nonzero[unit])[1][::-1]] = unit[::-1]
    return None if (at < 0).any() else at


def solve(a: FpMatrix, b: FpMatrix) -> FpMatrix | None:
    """Solve ``a @ x == b`` columnwise; free variables are set to zero.

    Returns None when the system is inconsistent.  ``b`` may have any number
    of columns; the solution is unique per column once free variables are
    pinned, so the result is deterministic.  When ``a`` has a row e_j for
    every column j (kernel, canonical and direct-sum bases do), the only
    candidate is read off those rows of ``b`` and checked by one product,
    with no elimination.
    """
    a._check_p(b)
    if a.rows != b.rows:
        raise ValueError(f"shape mismatch solve {a.shape} vs {b.shape}")
    n = a.cols
    at = _unit_rows(a.a)
    if at is not None:
        x = b.a[at]
        return _reduced(a.p, x) if not ((a.a @ x - b.a) % a.p).any() else None
    aug = np.hstack([a.a, b.a])
    pivots = _rref_inplace(a.p, aug)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.cols), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = aug[r, n:]
    return _reduced(a.p, x)


def _kernel_of_rref(p: int, r: np.ndarray, pivots, cols: int):
    """(basis, free): the kernel basis read off an rref ``r``, one column per
    free coordinate j, with 1 at j and minus the rref entries of column j
    at the pivots."""
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    k = np.zeros((cols, len(free)), dtype=np.int64)
    k[free] = np.eye(len(free), dtype=np.int64)
    k[list(pivots)] = -r[: len(pivots)].take(free, axis=1) % p
    return k, free


def kernel_basis(m: FpMatrix) -> FpMatrix:
    """Basis of ``ker m`` as columns, one per non-pivot column, in column order.

    The basis vector for free column j has 1 in coordinate j and, for each
    pivot row, minus the rref entry in column j.
    """
    r, pivots = rref(m)
    return _reduced(m.p, _kernel_of_rref(m.p, r.a, pivots, m.cols)[0])


def canonical_basis(span: FpMatrix) -> FpMatrix:
    """The basis ``kernel_basis`` returns for any matrix whose kernel is the
    column span of ``span``.

    That basis depends only on the subspace: its vector for free column j is
    the unique one with 1 at j and 0 at every other free column, and its
    last nonzero entry sits at j.  So it is the rref of ``span`` transposed
    with its columns reversed, reversed back, in ascending free-column order.
    """
    r, pivots = rref(_reduced(span.p, span.a.T[:, ::-1]))
    return _reduced(span.p, np.ascontiguousarray(r.a[: len(pivots)][::-1, ::-1].T))


def quotient_by_columns(sub: FpMatrix, ambient_dim: int) -> tuple[FpMatrix, FpMatrix]:
    """Quotient of F_p^ambient_dim by the column span of ``sub``.

    Returns (proj, sect): proj maps the ambient space onto the quotient in the
    basis given by the non-pivot coordinates of the row-reduced span (the
    kernel basis of sub^T, transposed); sect is the standard-basis section
    with proj @ sect == identity.
    """
    if sub.rows != ambient_dim:
        raise ValueError(f"subspace lives in dim {sub.rows}, expected {ambient_dim}")
    r, pivots = rref(sub.transpose())
    k, free = _kernel_of_rref(sub.p, r.a, pivots, ambient_dim)
    sect = np.zeros((ambient_dim, len(free)), dtype=np.int64)
    sect[free, range(len(free))] = 1
    return _reduced(sub.p, np.ascontiguousarray(k.T)), _reduced(sub.p, sect)


def random_invertible(p: int, n: int, rng) -> FpMatrix:
    """Deterministic-from-rng invertible matrix: L @ U with unit diagonals,
    composed with a permutation."""
    lo = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    return FpMatrix(p, (lo @ up @ perm) % p)


def invert(m: FpMatrix) -> FpMatrix:
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    x = solve(m, eye(m.p, m.rows))
    if x is None:
        raise ValueError("matrix is singular")
    return x
