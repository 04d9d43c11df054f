"""Assembler for block-structured linear systems over F_p.

Unknowns are matrices X_k; equations have the shape

    sum_k  L @ X_k @ R  =  C

with optional left/right coefficient matrices.  Everything is flattened
row-major (vec(L X R) = kron(L, R^T) vec(X)) into one dense system, which is
then solved or reduced exactly.  The system owns that flattening: unknowns
sit in the order they were added, and ``blocks_from_vector`` and
``vector_from_blocks`` are the only translations between ambient vectors and
blocks.  The chain-map and simplicial-map builders (``chain.add_chain_maps``,
``sobj.add_smaps``) fill it for chain-map spaces, lifting problems and
simplicial hom spaces, and the hom and tensor complexes of ``chain``
(differentials, pre- and post-composition, tensors of maps) read their
matrices off ``matrix()``: source blocks are the unknowns, and each target
block is one equation whose terms are the L @ X @ R that land in it.
"""

from __future__ import annotations

import numpy as np

from .linalg import FpMatrix, check_system_cap, kernel_basis, solve


class BlockSystem:
    def __init__(self, p: int, cap: int | None = None):
        self.p = p
        self.cap = cap
        self._unknowns: dict = {}
        self._order: list = []
        self._ncols = 0
        self._equations: list = []

    def add_unknown(self, key, rows: int, cols: int):
        if key in self._unknowns:
            raise ValueError(f"duplicate unknown {key!r}")
        self._unknowns[key] = (rows, cols, self._ncols)
        self._order.append(key)
        self._ncols += rows * cols

    def unknown_shape(self, key) -> tuple[int, int]:
        r, c, _ = self._unknowns[key]
        return r, c

    @property
    def ambient_dim(self) -> int:
        return self._ncols

    def add_equation(self, shape, terms, rhs: FpMatrix | None = None):
        """One matrix equation.

        shape: (rows, cols) of the equation block.
        terms: iterable of (key, left, right, sign); left=None / right=None
            mean identity.  A term whose unknown was never added is dropped
            when its block would be zero-size (left columns times right rows
            is 0), and raises ValueError otherwise; the equation itself still
            constrains the rhs to be reachable.
        rhs: (rows, cols) right-hand side, zero when None; any other shape
            raises ValueError.
        """
        r, c = shape
        if rhs is not None and rhs.shape != (r, c):
            raise ValueError(f"rhs shape {rhs.shape} for an equation of shape {(r, c)}")
        if r * c == 0:
            return
        kept = []
        for key, left, right, sign in terms:
            lr, lc = left.shape if left is not None else (r, r)
            rr, rc = right.shape if right is not None else (c, c)
            if (lr, rc) != (r, c):
                raise ValueError(f"term shape mismatch on {key!r}")
            if key not in self._unknowns:
                if lc * rr:
                    raise ValueError(f"equation term on unknown {key!r}, which was never added")
                continue
            if (lc, rr) != self.unknown_shape(key):
                raise ValueError(f"coefficient shape mismatch on {key!r}")
            kept.append((key, left, right, sign % self.p))
        self._equations.append((r, c, kept, rhs))

    def _assemble(self):
        nrows = sum(r * c for r, c, _, _ in self._equations)
        check_system_cap(nrows, self._ncols, self.cap)
        a = np.zeros((nrows, self._ncols), dtype=np.int64)
        b = np.zeros((nrows, 1), dtype=np.int64)
        row = 0
        for r, c, terms, rhs in self._equations:
            size = r * c
            for key, left, right, sign in terms:
                kr, kc, off = self._unknowns[key]
                l_arr = left.a if left is not None else np.eye(r, dtype=np.int64)
                r_arr = right.a.T if right is not None else np.eye(c, dtype=np.int64)
                # kron(L, R^T) as one broadcast product: entry (i c + j, k kc + m)
                # is L[i, k] R[m, j]
                blk = (l_arr[:, None, :, None] * r_arr[None, :, None, :]).reshape(size, kr * kc)
                a[row : row + size, off : off + kr * kc] += sign * blk
            if rhs is not None:
                b[row : row + size, 0] = rhs.a.reshape(-1)
            row += size
        a %= self.p
        b %= self.p
        return FpMatrix(self.p, a), FpMatrix(self.p, b)

    def matrix(self) -> FpMatrix:
        """The coefficient matrix: a row per equation entry and a column per
        unknown entry, each row-major in the order added."""
        return self._assemble()[0]

    def solve(self):
        """Deterministic solution as {key: FpMatrix}, or None if inconsistent."""
        a, b = self._assemble()
        x = solve(a, b)
        if x is None:
            return None
        return self.blocks_from_vector(x)

    def kernel(self) -> FpMatrix:
        """Basis of the homogeneous solution space (columns, ambient coords)."""
        a, _ = self._assemble()
        return kernel_basis(a)

    def blocks_from_vector(self, vec: FpMatrix) -> dict:
        out = {}
        arr = vec.a.reshape(-1)
        for key in self._order:
            r, c, off = self._unknowns[key]
            out[key] = FpMatrix(self.p, arr[off : off + r * c].reshape(r, c))
        return out

    def vector_from_blocks(self, blocks: dict) -> FpMatrix:
        """Inverse of ``blocks_from_vector``: the ambient column holding each
        block at its unknown's offset.  Absent unknowns read as zero; a block
        with no unknown must be zero-size."""
        vec = np.zeros((self._ncols, 1), dtype=np.int64)
        for key, m in blocks.items():
            if key not in self._unknowns:
                if m.rows * m.cols:
                    raise ValueError(f"block for unknown {key!r}, which was never added")
                continue
            r, c, off = self._unknowns[key]
            if m.shape != (r, c):
                raise ValueError(f"block shape {m.shape} for unknown {key!r} of shape {(r, c)}")
            vec[off : off + r * c, 0] = m.a.reshape(-1)
        return FpMatrix(self.p, vec)
