"""Truncated simplicial sets with explicit operator tables.

Everything is finite: a simplicial set here has levels 0..N only, stored as
lex-ordered label lists with face and degeneracy tables as index arrays.
The simplex families (standard simplex, its boundary, horns) use monotone
tuples as labels, so subobjects and products stay inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .chain import ChainComplex, ChainMap
from .errors import ValidationFailure
from .linalg import FpMatrix


@lru_cache(maxsize=None)
def monotone_maps(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All monotone maps [m] -> [n] as value tuples, lex order."""
    if m < 0 or n < 0:
        return ()
    out: list[tuple[int, ...]] = []

    def rec(prefix, lo):
        if len(prefix) == m + 1:
            out.append(tuple(prefix))
            return
        for v in range(lo, n + 1):
            rec(prefix + [v], v)

    rec([], 0)
    return tuple(out)


def factor_monotone(alpha: tuple[int, ...], n: int) -> list[tuple[int, int, int]]:
    """The operator path of X(alpha) for a monotone alpha: [m] -> [n]: faces
    first, then degeneracies, each step an (n, m, i) of operator_indices."""
    alpha = tuple(alpha)
    if not alpha:
        raise ValidationFailure("empty tuple is not a map of simplices")
    if any(alpha[i] > alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValidationFailure(f"{alpha} is not monotone")
    if alpha[0] < 0 or alpha[-1] > n:
        raise ValidationFailure(f"{alpha} is not valued in 0..{n}")
    path: list[tuple[int, int, int]] = []
    cur, cur_n = alpha, n
    while True:
        img = set(cur)
        missing = [v for v in range(cur_n + 1) if v not in img]
        if not missing:
            break
        v = missing[0]
        path.append((cur_n, cur_n - 1, v))
        cur = tuple(x - 1 if x > v else x for x in cur)
        cur_n -= 1
    s_ops: list[int] = []
    while len(cur) - 1 > cur_n:
        i = next(j for j in range(len(cur) - 1) if cur[j] == cur[j + 1])
        s_ops.append(i)
        cur = cur[: i + 1] + cur[i + 2 :]
    return path + [(cur_n + k, cur_n + k + 1, i) for k, i in enumerate(reversed(s_ops))]


def operator_indices(N: int) -> list[tuple[int, int, int]]:
    """(n, m, i) of every operator of an N-truncated object, faces first:
    d_i from level n to m = n - 1, then s_i from level n to m = n + 1."""
    faces = [(n, n - 1, i) for n in range(1, N + 1) for i in range(n + 1)]
    return faces + [(n, n + 1, i) for n in range(N) for i in range(n + 1)]


def operator_tables(N: int, op):
    """(faces, degens) with faces[n-1][i] = op(n, n - 1, i) and
    degens[n][i] = op(n, n + 1, i), built in operator_indices order."""
    faces = tuple(tuple(op(n, n - 1, i) for i in range(n + 1)) for n in range(1, N + 1))
    degens = tuple(tuple(op(n, n + 1, i) for i in range(n + 1)) for n in range(N))
    return faces, degens


def check_operator(N: int, n: int, m: int, i: int):
    """Refuse an operator outside an N-truncated object: d_i leaves levels
    1..N, s_i leaves levels 0..N-1, and both need 0 <= i <= n."""
    if 0 <= i <= n and (1 <= n <= N if m == n - 1 else m == n + 1 and n < N):
        return
    if m not in (n - 1, n + 1):
        raise ValidationFailure(f"no operator from level {n} to level {m}")
    lo, hi, kind = (1, N, "face") if m < n else (0, N - 1, "degeneracy")
    if not lo <= n <= hi:
        raise ValidationFailure(f"no {kind} out of level {n}: {kind} levels run {lo}..{hi}")
    raise ValidationFailure(f"no operator index {i} at level {n}: indices run 0..{n}")


def operator_name(n: int, m: int, i: int) -> str:
    return f"d_{i}" if m < n else f"s_{i}"


def operator_tuple(n: int, m: int, i: int) -> tuple[int, ...]:
    """The monotone map [m] -> [n] of the operator from level n to level m:
    the coface missing i, or the codegeneracy hitting i twice."""
    if m < n:
        return tuple(v for v in range(n + 1) if v != i)
    return tuple(v if v <= i else v - 1 for v in range(n + 2))


def simplicial_identities(N: int) -> list[tuple[str, int, list, list]]:
    """(name, n, lhs, rhs) for every simplicial identity on level n of an
    N-truncated object, as two operator paths that must agree: d_i d_j,
    then s_i s_j, then d_i s_j.  The empty path is the identity."""
    out = [
        (f"d_{i} d_{j}", n, [(n, n - 1, j), (n - 1, n - 2, i)],
         [(n, n - 1, i), (n - 1, n - 2, j - 1)])
        for n in range(2, N + 1) for j in range(n + 1) for i in range(j)
    ]
    out += [
        (f"s_{i} s_{j}", n, [(n, n + 1, j), (n + 1, n + 2, i)],
         [(n, n + 1, i), (n + 1, n + 2, j + 1)])
        for n in range(N - 1) for j in range(n + 1) for i in range(j + 1)
    ]
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    rhs = [(n, n - 1, i), (n - 1, n, j - 1)]
                elif i > j + 1:
                    rhs = [(n, n - 1, i - 1), (n - 1, n, j)]
                else:
                    rhs = []
                out.append((f"d_{i} s_{j}", n, [(n, n + 1, j), (n + 1, n, i)], rhs))
    return out


@dataclass(frozen=True, eq=False)
class SSet:
    """Levels 0..N; faces[m-1][i] and degens[m][i] are index tuples."""

    N: int
    levels: tuple[tuple, ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    degens: tuple[tuple[tuple[int, ...], ...], ...]
    indexes: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if not self.indexes:
            idx = tuple({lab: i for i, lab in enumerate(lvl)} for lvl in self.levels)
            object.__setattr__(self, "indexes", idx)

    @classmethod
    def build(cls, N, levels, op_fn) -> "SSet":
        """Tables from a label-level operator function: op_fn(n, m, i, lab)
        is the image of lab under the operator from level n to level m, and
        must be a label present at level m."""
        levels = tuple(tuple(lvl) for lvl in levels)
        index = [{lab: i for i, lab in enumerate(lvl)} for lvl in levels]

        def table(n, m, i):
            row = []
            for lab in levels[n]:
                out = op_fn(n, m, i, lab)
                if out not in index[m]:
                    kind = "face" if m < n else "degeneracy"
                    raise ValidationFailure(
                        f"{kind} {operator_name(n, m, i)} leaves the simplex set at level {n}"
                    )
                row.append(index[m][out])
            return tuple(row)

        return cls(N, levels, *operator_tables(N, table))

    def card(self, m: int) -> int:
        return len(self.levels[m])

    def label(self, m: int, idx: int):
        return self.levels[m][idx]

    def index_of(self, m: int, lab) -> int:
        return self.indexes[m][lab]

    def face(self, m: int, i: int, idx: int) -> int:
        return self.operator(m, m - 1, i)[idx]

    def degen(self, m: int, i: int, idx: int) -> int:
        return self.operator(m, m + 1, i)[idx]

    def operator(self, n: int, m: int, i: int) -> tuple[int, ...]:
        """Index table of the operator from level n to level m."""
        check_operator(self.N, n, m, i)
        return self.faces[n - 1][i] if m < n else self.degens[n][i]

    def __eq__(self, other):
        if not isinstance(other, SSet):
            return NotImplemented
        return (
            self.N == other.N
            and self.levels == other.levels
            and self.faces == other.faces
            and self.degens == other.degens
        )

    def __hash__(self):
        return hash((self.N, self.levels, self.faces, self.degens))


def apply_path(x: SSet, path, idx) -> tuple[int, ...]:
    """Images of the level-n simplices ``idx`` along an operator path."""
    out = tuple(idx)
    for step in path:
        table = x.operator(*step)
        out = tuple(table[v] for v in out)
    return out


def validate_sset(x: SSet):
    """Table shapes plus the simplicial identities."""
    if len(x.levels) != x.N + 1:
        raise ValidationFailure("level list does not match N")
    if len(x.faces) != x.N or len(x.degens) != x.N:
        raise ValidationFailure("operator tables do not match N")
    for n, m, i in operator_indices(x.N):
        face = m < n
        if i == 0 and len(x.faces[n - 1] if face else x.degens[n]) != n + 1:
            noun = "face operators" if face else "degeneracies"
            raise ValidationFailure(f"expected {n + 1} {noun} at level {n}")
        row = x.operator(n, m, i)
        if len(row) != x.card(n) or any(not (0 <= v < x.card(m)) for v in row):
            kind = "face" if face else "degeneracy"
            raise ValidationFailure(f"{kind} table malformed at level {n}")
    for name, n, lhs, rhs in simplicial_identities(x.N):
        idx = range(x.card(n))
        if apply_path(x, lhs, idx) != apply_path(x, rhs, idx):
            raise ValidationFailure(f"{name} identity fails at level {n}")


@dataclass(frozen=True, eq=False)
class SSetMap:
    """Levelwise index maps; ``weq`` records whether the map is known to be a
    weak equivalence (True/False) or unknown (None)."""

    source: SSet
    target: SSet
    levels: tuple[tuple[int, ...], ...]
    weq: bool | None = None

    def apply(self, m: int, idx: int) -> int:
        return self.levels[m][idx]

    def is_injective(self) -> bool:
        return all(len(set(lvl)) == len(lvl) for lvl in self.levels)

    def __matmul__(self, other: "SSetMap") -> "SSetMap":
        if other.target != self.source:
            raise ValidationFailure("simplicial map composition mismatch")
        lv = tuple(
            tuple(self.levels[m][v] for v in other.levels[m])
            for m in range(self.source.N + 1)
        )
        weq = True if (self.weq is True and other.weq is True) else None
        return SSetMap(other.source, self.target, lv, weq)

    def __eq__(self, other):
        if not isinstance(other, SSetMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.levels == other.levels
        )

    def __hash__(self):
        return hash((self.source, self.target, self.levels))


def validate_sset_map(f: SSetMap):
    if f.source.N != f.target.N:
        raise ValidationFailure("simplicial map between different truncations")
    for m in range(f.source.N + 1):
        if len(f.levels[m]) != f.source.card(m):
            raise ValidationFailure(f"level {m} map has wrong length")
        if any(not (0 <= v < f.target.card(m)) for v in f.levels[m]):
            raise ValidationFailure(f"level {m} map out of range")
    for n, m, i in operator_indices(f.source.N):
        ot, os_ = f.target.operator(n, m, i), f.source.operator(n, m, i)
        for idx in range(f.source.card(n)):
            if ot[f.apply(n, idx)] != f.apply(m, os_[idx]):
                raise ValidationFailure(f"map breaks {operator_name(n, m, i)} at level {n}")


def sset_map_from_labels(source: SSet, target: SSet, fn, weq=None) -> SSetMap:
    lv = []
    for m in range(source.N + 1):
        row = []
        for lab in source.levels[m]:
            out = fn(m, lab)
            row.append(target.index_of(m, out))
        lv.append(tuple(row))
    return SSetMap(source, target, tuple(lv), weq)


# ---------------------------------------------------------------------------
# families


def _tuple_op(n, m, i, lab):
    """d_i drops entry i of a tuple label, s_i repeats it."""
    return lab[:i] + lab[i + 1 :] if m < n else lab[: i + 1] + lab[i:]


@lru_cache(maxsize=None)
def delta(N: int, n: int) -> SSet:
    """The standard n-simplex truncated at level N; labels are monotone
    tuples [m] -> [n]."""
    levels = [monotone_maps(m, n) for m in range(N + 1)]
    return SSet.build(N, levels, _tuple_op)


def sub_sset_inclusion(amb: SSet, keep) -> SSetMap:
    """Inclusion of the subobject on labels passing ``keep(m, lab)``; raises
    if the selection is not closed under the operators."""
    levels = [
        tuple(lab for lab in amb.levels[m] if keep(m, lab)) for m in range(amb.N + 1)
    ]

    def op_fn(n, m, i, lab):
        out = amb.label(m, amb.operator(n, m, i)[amb.index_of(n, lab)])
        if not keep(m, out):
            kind = "faces" if m < n else "degeneracies"
            raise ValidationFailure(f"selection not closed under {kind}")
        return out

    sub = SSet.build(amb.N, levels, op_fn)
    return sset_map_from_labels(sub, amb, lambda m, lab: lab)


@lru_cache(maxsize=None)
def boundary_inclusion(N: int, n: int) -> SSetMap:
    """Boundary of the n-simplex (non-surjective tuples) into the simplex.
    Not a weak equivalence, and marked so."""
    full = frozenset(range(n + 1))
    incl = sub_sset_inclusion(delta(N, n), lambda m, lab: set(lab) != full)
    return SSetMap(incl.source, incl.target, incl.levels, False)


@lru_cache(maxsize=None)
def horn_inclusion(N: int, n: int, k: int) -> SSetMap:
    """The horn missing the k-th face: tuples whose image joined with {k} is
    still proper.  Marked as a weak equivalence."""
    if not (0 <= k <= n) or n < 1:
        raise ValidationFailure(f"no horn at position {k} of the {n}-simplex")
    full = set(range(n + 1))
    incl = sub_sset_inclusion(delta(N, n), lambda m, lab: set(lab) | {k} != full)
    return SSetMap(incl.source, incl.target, incl.levels, True)


def delta_map(N: int, alpha: tuple[int, ...], n: int) -> SSetMap:
    """The simplex map induced by a monotone alpha: [m] -> [n], acting by
    postcomposition on labels.  Always a weak equivalence."""
    alpha = tuple(alpha)
    factor_monotone(alpha, n)  # validates monotonicity and range
    src = delta(N, len(alpha) - 1)
    tgt = delta(N, n)
    return sset_map_from_labels(
        src, tgt, lambda m, lab: tuple(alpha[v] for v in lab), True
    )


def product(x: SSet, y: SSet) -> SSet:
    """Levelwise product; label (a, b), index row-major in the factors."""
    if x.N != y.N:
        raise ValidationFailure("product of different truncations")
    levels = tuple(tuple((a, b) for a in x.levels[m] for b in y.levels[m]) for m in range(x.N + 1))

    def op(n, m, i):
        ox, oy, cy = x.operator(n, m, i), y.operator(n, m, i), y.card(m)
        return tuple(ox[ix] * cy + oy[iy] for ix in range(x.card(n)) for iy in range(y.card(n)))

    return SSet(x.N, levels, *operator_tables(x.N, op))


# ---------------------------------------------------------------------------
# degeneracy structure and normalized chains


def degenerate_indices(x: SSet, m: int) -> frozenset[int]:
    if m == 0:
        return frozenset()
    out = set()
    for i in range(m):
        out.update(x.degens[m - 1][i])
    return frozenset(out)


def nondegenerate_indices(x: SSet, m: int) -> tuple[int, ...]:
    bad = degenerate_indices(x, m)
    return tuple(i for i in range(x.card(m)) if i not in bad)


def ez_decomposition(x: SSet) -> tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]:
    """Eilenberg-Zilber decomposition of every simplex, read off the
    degeneracy tables: entry [n][idx] is (m, sigma, I) with sigma the
    nondegenerate m-simplex and I = (i_1, ..., i_k) such that simplex idx is
    s_{i_1} ... s_{i_k} sigma.  sigma is unique; where several I give the
    same simplex, the one through the lowest s_i at each step is kept."""
    out = [tuple((0, idx, ()) for idx in range(x.card(0)))]
    for n in range(1, x.N + 1):
        parent: dict[int, tuple[int, int]] = {}
        for i in range(n):
            for rho, tau in enumerate(x.degens[n - 1][i]):
                parent.setdefault(tau, (i, rho))
        row = []
        for tau in range(x.card(n)):
            if tau in parent:
                i, rho = parent[tau]
                m, sigma, ops = out[n - 1][rho]
                row.append((m, sigma, (i,) + ops))
            else:
                row.append((n, tau, ()))
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=64)
def root_walk(x: SSet):
    """Each simplex rho of x as K(beta) tau for a root tau, a nondegenerate
    simplex that is no face of a nondegenerate one.  Going down the levels,
    a nondegenerate simplex not yet reached is a root (beta the identity)
    and passes beta along a coface to its nondegenerate faces not yet
    reached; then each degenerate s_i rho', i first in its Eilenberg-Zilber
    word, takes beta(rho') along the codegeneracy.  beta is a monotone tuple
    and moves like a label of the standard simplex.

    Returns (roots, steps, conds): roots as (n, idx); steps (n, idx, root,
    src), parents first, src None at a root and else (m, parent, i) for the
    operator from level m to n with index i; conds the (n, idx, i) whose
    face d_i was reached through another root or another beta, the only
    faces where root values must satisfy d_i x_idx = x_{d_i idx}.  The walk
    depends on x alone and is cached per x (the cotensors of one run see the
    same few Delta^n and boundaries again and again).
    """
    ez = ez_decomposition(x)
    nondeg = [nondegenerate_indices(x, n) for n in range(x.N + 1)]
    reached: list[dict[int, tuple[int, tuple[int, ...]]]] = [{} for _ in range(x.N + 1)]
    roots, steps = [], []
    for n in reversed(range(x.N + 1)):
        for idx in nondeg[n]:
            if idx not in reached[n]:
                reached[n][idx] = (len(roots), tuple(range(n + 1)))
                steps.append((n, idx, len(roots), None))
                roots.append((n, idx))
            root, beta = reached[n][idx]
            for i in range(n + 1 if n else 0):
                face = x.face(n, i, idx)
                if not ez[n - 1][face][2] and face not in reached[n - 1]:
                    reached[n - 1][face] = (root, _tuple_op(n, n - 1, i, beta))
                    steps.append((n - 1, face, root, (n, idx, i)))
    for n in range(1, x.N + 1):
        for idx in range(x.card(n)):
            ops = ez[n][idx][2]
            if ops:
                below = x.face(n, ops[0], idx)
                root, beta = reached[n - 1][below]
                reached[n][idx] = (root, _tuple_op(n - 1, n, ops[0], beta))
                steps.append((n, idx, root, (n - 1, below, ops[0])))
    conds = tuple(
        (n, idx, i)
        for n in range(1, x.N + 1)
        for idx in nondeg[n]
        for i in range(n + 1)
        if reached[n - 1][x.face(n, i, idx)]
        != (reached[n][idx][0], _tuple_op(n, n - 1, i, reached[n][idx][1]))
    )
    return tuple(roots), tuple(steps), conds


def normalized_chains(x: SSet, p: int) -> ChainComplex:
    """Chains on nondegenerate simplices in degrees 0..N, alternating-sum
    differential with degenerate faces sent to zero."""
    nd = [nondegenerate_indices(x, m) for m in range(x.N + 1)]
    pos = [{idx: j for j, idx in enumerate(row)} for row in nd]
    dims = [len(row) for row in nd]
    diffs = {}
    for m in range(1, x.N + 1):
        mat = np.zeros((dims[m - 1], dims[m]), dtype=np.int64)
        for col, idx in enumerate(nd[m]):
            for i in range(m + 1):
                tgt = x.face(m, i, idx)
                if tgt in pos[m - 1]:
                    mat[pos[m - 1][tgt], col] += (-1) ** (i % 2)
        diffs[m] = FpMatrix(p, mat)
    return ChainComplex.build(p, 0, dims, diffs)


def normalized_chains_map(f: SSetMap, p: int) -> ChainMap:
    src = normalized_chains(f.source, p)
    tgt = normalized_chains(f.target, p)
    blocks = {}
    for m in range(f.source.N + 1):
        nd_s = nondegenerate_indices(f.source, m)
        pos_t = {idx: j for j, idx in enumerate(nondegenerate_indices(f.target, m))}
        mat = np.zeros((len(pos_t), len(nd_s)), dtype=np.int64)
        for col, idx in enumerate(nd_s):
            out = f.apply(m, idx)
            if out in pos_t:
                mat[pos_t[out], col] = 1
        blocks[m] = FpMatrix(p, mat)
    return ChainMap.build(src, tgt, blocks)

