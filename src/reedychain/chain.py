"""Bounded chain complexes of finite-dimensional F_p vector spaces.

Homological grading: the differential lowers degree by one, d_t : X_t -> X_{t-1},
stored as a matrix of shape (dim_{t-1}, dim_t) acting on column vectors.
Supports are finite intervals, trimmed so that equality of canonical forms is
literal equality.

The model-structure vocabulary used downstream is decided here by exact rank
computations: weak equivalences are quasi-isomorphisms (detected through
mapping-cone acyclicity), fibrations are levelwise surjections, cofibrations
levelwise injections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import FieldMismatchError, ValidationFailure
from .linalg import (
    FpMatrix,
    eye,
    hstack,
    kernel_basis,
    quotient_by_columns,
    solve,
    vstack,
    zeros,
)
from .system import BlockSystem


@dataclass(frozen=True, eq=False)
class ChainComplex:
    p: int
    lo: int
    dims: tuple[int, ...]
    diffs: tuple[FpMatrix, ...]  # diffs[k] : degree lo+k+1 -> lo+k

    @classmethod
    def build(cls, p, lo, dims, diffs) -> "ChainComplex":
        """Construct with support trimming; ``diffs`` maps source degree t to
        the matrix of d_t."""
        dims = [int(x) for x in dims]
        # trim zero dims at both ends
        while dims and dims[0] == 0:
            dims = dims[1:]
            lo += 1
        while dims and dims[-1] == 0:
            dims = dims[:-1]
        if not dims:
            return cls(p, 0, (), ())
        hi = lo + len(dims) - 1
        mats = []
        for t in range(lo + 1, hi + 1):
            rows, cols = dims[t - 1 - lo], dims[t - lo]
            m = diffs.get(t)
            if m is None:
                m = zeros(p, rows, cols)
            if m.p != p:
                raise FieldMismatchError(f"diff at degree {t} has modulus {m.p}, expected {p}")
            if m.shape != (rows, cols):
                raise ValidationFailure(
                    f"diff at degree {t} has shape {m.shape}, expected {(rows, cols)}"
                )
            mats.append(m)
        return cls(p, lo, tuple(dims), tuple(mats))

    @property
    def hi(self) -> int:
        return self.lo + len(self.dims) - 1

    def degrees(self) -> list[int]:
        return list(range(self.lo, self.lo + len(self.dims)))

    def dim(self, t: int) -> int:
        k = t - self.lo
        if 0 <= k < len(self.dims):
            return self.dims[k]
        return 0

    def total_dim(self) -> int:
        return sum(self.dims)

    def d(self, t: int) -> FpMatrix:
        """Matrix of d_t : X_t -> X_{t-1} (zero-shaped outside the support)."""
        k = t - self.lo - 1
        if 0 <= k < len(self.diffs):
            return self.diffs[k]
        return zeros(self.p, self.dim(t - 1), self.dim(t))

    def is_zero(self) -> bool:
        return not self.dims

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (
            self.p == other.p
            and self.lo == other.lo
            and self.dims == other.dims
            and self.diffs == other.diffs
        )

    def __hash__(self):
        return hash((self.p, self.lo, self.dims, self.diffs))


def zero_complex(p: int) -> ChainComplex:
    return ChainComplex(p, 0, (), ())


def sphere(p: int, n: int) -> ChainComplex:
    """One copy of F_p in degree n."""
    return ChainComplex.build(p, n, [1], {})


def disk(p: int, n: int) -> ChainComplex:
    """F_p in degrees n and n-1 with identity differential; acyclic."""
    return ChainComplex.build(p, n - 1, [1, 1], {n: FpMatrix.from_rows(p, [[1]])})


def validate_complex(x: ChainComplex):
    """Shape bookkeeping plus d compose d = 0; raises ValidationFailure."""
    for t in x.degrees():
        if x.dim(t) < 0:
            raise ValidationFailure(f"negative dimension at degree {t}")
    for t in x.degrees():
        m = x.d(t) @ x.d(t + 1)
        if not m.is_zero():
            raise ValidationFailure(f"d.d != 0 entering degree {t - 1}")


@dataclass(frozen=True, eq=False)
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    blocks: tuple[FpMatrix, ...]  # indexed over source support degrees

    @classmethod
    def build(cls, source, target, blocks: dict) -> "ChainMap":
        if source.p != target.p:
            raise FieldMismatchError("source and target over different primes")
        mats = []
        for t in source.degrees():
            m = blocks.get(t)
            if m is None:
                m = zeros(source.p, target.dim(t), source.dim(t))
            if m.p != source.p:
                raise FieldMismatchError(f"block at degree {t} over wrong prime")
            if m.shape != (target.dim(t), source.dim(t)):
                raise ValidationFailure(
                    f"block at degree {t} has shape {m.shape}, "
                    f"expected {(target.dim(t), source.dim(t))}"
                )
            mats.append(m)
        return cls(source, target, tuple(mats))

    @property
    def p(self) -> int:
        return self.source.p

    def block(self, t: int) -> FpMatrix:
        k = t - self.source.lo
        if 0 <= k < len(self.blocks):
            return self.blocks[k]
        return zeros(self.p, self.target.dim(t), self.source.dim(t))

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return all(
            self.block(t) == other.block(t) for t in self.source.degrees()
        )

    def __hash__(self):
        return hash((self.source, self.target, self.blocks))

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        if other.target != self.source:
            raise ValidationFailure("composition mismatch")
        return ChainMap.build(
            other.source,
            self.target,
            {t: self.block(t) @ other.block(t) for t in other.source.degrees()},
        )

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.source != other.source or self.target != other.target:
            raise ValidationFailure("sum of maps with different ends")
        return ChainMap.build(
            self.source,
            self.target,
            {t: self.block(t) + other.block(t) for t in self.source.degrees()},
        )

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + other.scale(-1)

    def scale(self, c: int) -> "ChainMap":
        return ChainMap.build(
            self.source,
            self.target,
            {t: self.block(t).scale(c) for t in self.source.degrees()},
        )


def identity_map(x: ChainComplex) -> ChainMap:
    return ChainMap.build(x, x, {t: eye(x.p, x.dim(t)) for t in x.degrees()})


def zero_map(a: ChainComplex, b: ChainComplex) -> ChainMap:
    return ChainMap.build(a, b, {})


def validate_map(f: ChainMap):
    degs = set(f.source.degrees()) | set(f.target.degrees())
    for t in degs:
        lhs = f.target.d(t) @ f.block(t)
        rhs = f.block(t - 1) @ f.source.d(t)
        if lhs != rhs:
            raise ValidationFailure(f"map does not commute with d at degree {t}")


def sphere_disk_inclusion(p: int, n: int) -> ChainMap:
    """The generating cofibration sphere(n-1) -> disk(n)."""
    return ChainMap.build(
        sphere(p, n - 1), disk(p, n), {n - 1: FpMatrix.from_rows(p, [[1]])}
    )


def disk_from_zero(p: int, n: int) -> ChainMap:
    """The generating trivial cofibration 0 -> disk(n)."""
    return zero_map(zero_complex(p), disk(p, n))


# ---------------------------------------------------------------------------
# homology


def homology_dims(x: ChainComplex) -> dict[int, int]:
    ranks = [0] + [d.rank() for d in x.diffs] + [0]  # each differential ranked once
    h = {t: x.dims[k] - ranks[k] - ranks[k + 1] for k, t in enumerate(x.degrees())}
    return {t: v for t, v in h.items() if v}


def is_acyclic(x: ChainComplex) -> bool:
    return not homology_dims(x)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f)_t = target_t + source_{t-1}, d(b, a) = (d b + f a, -d a)."""
    a, b = f.source, f.target
    lo = min(b.lo, a.lo + 1) if not (a.is_zero() and b.is_zero()) else 0
    hi = max(b.hi, a.hi + 1) if not (a.is_zero() and b.is_zero()) else -1
    dims, diffs = [], {}
    for t in range(lo, hi + 1):
        dims.append(b.dim(t) + a.dim(t - 1))
    for t in range(lo + 1, hi + 1):
        top = hstack([b.d(t), f.block(t - 1)])
        bot = hstack([zeros(f.p, a.dim(t - 2), b.dim(t)), -a.d(t - 1)])
        diffs[t] = vstack([top, bot])
    return ChainComplex.build(f.p, lo, dims, diffs)


def is_quasi_iso(f: ChainMap) -> bool:
    return is_acyclic(mapping_cone(f))


def quasi_iso_witness(f: ChainMap) -> int | None:
    """First degree where homology of the cone is nonzero, None if quasi-iso."""
    h = homology_dims(mapping_cone(f))
    return min(h) if h else None


def is_epi(f: ChainMap) -> bool:
    return all(f.block(t).rank() == f.target.dim(t) for t in f.target.degrees())


def mono_witness(f: ChainMap) -> int | None:
    for t in f.source.degrees():
        if f.block(t).rank() != f.source.dim(t):
            return t
    return None


def epi_witness(f: ChainMap) -> int | None:
    for t in f.target.degrees():
        if f.block(t).rank() != f.target.dim(t):
            return t
    return None


def is_iso(f: ChainMap) -> bool:
    degs = sorted(set(f.source.degrees()) | set(f.target.degrees()))
    return all(f.source.dim(t) == f.target.dim(t) == f.block(t).rank() for t in degs)


def invert_map(f: ChainMap) -> ChainMap:
    """Degreewise inverse; the blocks must be square and invertible."""
    from .linalg import invert

    degs = set(f.source.degrees()) | set(f.target.degrees())
    blocks = {}
    for t in degs:
        b = f.block(t)
        if b.rows != b.cols:
            raise ValidationFailure(f"block at degree {t} is not square")
        if b.rows:
            blocks[t] = invert(b)
    return ChainMap.build(f.target, f.source, blocks)


# ---------------------------------------------------------------------------
# sums, shifts


def direct_sum(parts: list[ChainComplex]) -> ChainComplex:
    if not parts:
        raise ValueError("direct_sum of no parts needs an explicit prime; use zero_complex")
    p = parts[0].p
    for x in parts[1:]:
        if x.p != p:
            raise FieldMismatchError("direct sum over different primes")
    live = [x for x in parts if not x.is_zero()]
    if not live:
        return zero_complex(p)
    lo = min(x.lo for x in live)
    hi = max(x.hi for x in live)
    dims = [sum(x.dim(t) for x in parts) for t in range(lo, hi + 1)]
    diffs = {}
    for t in range(lo + 1, hi + 1):
        from .linalg import block_diag

        diffs[t] = block_diag(p, [x.d(t) for x in parts])
    return ChainComplex.build(p, lo, dims, diffs)


def direct_sum_with_maps(parts: list[ChainComplex]):
    """(sum, inclusions, projections) with the summand order of ``parts``.
    Part k starts at row ``offs[t][k]`` of degree t, so its inclusion and
    projection are a column and a row slice of that degree's identity."""
    total = direct_sum(parts)
    offs = {t: list(accumulate((x.dim(t) for x in parts), initial=0)) for t in total.degrees()}
    eyes = {t: np.eye(total.dim(t), dtype=np.int64) for t in total.degrees()}

    def piece(k, t):
        return eyes[t][offs[t][k] : offs[t][k + 1]]

    incs = [
        ChainMap.build(x, total, {t: FpMatrix(total.p, piece(k, t).T) for t in x.degrees()})
        for k, x in enumerate(parts)
    ]
    projs = [
        ChainMap.build(total, x, {t: FpMatrix(total.p, piece(k, t)) for t in total.degrees()})
        for k, x in enumerate(parts)
    ]
    return total, incs, projs


# ---------------------------------------------------------------------------
# kernels, cokernels, pushouts, pullbacks


def subcomplex(a: ChainComplex, bases: dict):
    """(K, incl) for the subcomplex of ``a`` whose degree-t part is spanned
    by the columns of ``bases[t]``, for every degree t of a; K_t has that
    basis, and the differential is induced from a's."""
    dims = [bases[t].cols for t in a.degrees()]
    diffs = {}
    for t in a.degrees():
        if t - 1 in bases and bases[t].cols and bases[t - 1].cols:
            m = solve(bases[t - 1], a.d(t) @ bases[t])
            if m is None:
                raise ValidationFailure("differential does not preserve the subcomplex")
            diffs[t] = m
    k = ChainComplex.build(a.p, a.lo, dims, diffs)
    incl = ChainMap.build(k, a, {t: bases[t] for t in a.degrees() if bases[t].cols})
    return k, incl


def kernel_complex(f: ChainMap):
    """(K, incl) with K_t = ker f_t and the induced differential."""
    return subcomplex(f.source, {t: kernel_basis(f.block(t)) for t in f.source.degrees()})


def quotient_complex(b: ChainComplex, spans: dict):
    """(Q, proj, sect) with Q_t = b_t / (column span of spans[t]) for every
    degree t of b; the spans must form a subcomplex.

    sect maps degree -> a linear (not chain) section of proj used to induce
    maps out of the quotient.
    """
    projs, sects = {}, {}
    for t in b.degrees():
        pr, se = quotient_by_columns(spans[t], b.dim(t))
        projs[t], sects[t] = pr, se
    dims = [projs[t].rows for t in b.degrees()]
    diffs = {}
    for t in b.degrees():
        if t - 1 in projs and projs[t].rows and projs[t - 1].rows:
            diffs[t] = projs[t - 1] @ b.d(t) @ sects[t]
    q = ChainComplex.build(b.p, b.lo, dims, diffs)
    proj = ChainMap.build(b, q, {t: projs[t] for t in b.degrees()})
    return q, proj, sects


def cokernel_complex(f: ChainMap):
    """(Q, proj, sect) with Q_t = target_t / im f_t, as in quotient_complex."""
    return quotient_complex(f.target, {t: f.block(t) for t in f.target.degrees()})


@dataclass(frozen=True)
class SpanResult:
    """Pushout or pullback with enough witnesses to mediate."""

    obj: ChainComplex
    left: ChainMap
    right: ChainMap
    _aux: tuple = field(repr=False, default=())


def pushout(f: ChainMap, g: ChainMap) -> SpanResult:
    """Pushout of target(f) <- source -> target(g), as a cokernel."""
    if f.source != g.source:
        raise ValidationFailure("pushout span must share its source")
    b, c = f.target, g.target
    amb, incs, _ = direct_sum_with_maps([b, c])
    span = ChainMap.build(
        f.source,
        amb,
        {
            t: vstack([f.block(t), -g.block(t)])
            for t in f.source.degrees()
        },
    )
    q, proj, sects = cokernel_complex(span)
    left = proj @ incs[0]
    right = proj @ incs[1]
    return SpanResult(q, left, right, (proj, sects, amb))


def pushout_mediator(res: SpanResult, u: ChainMap, v: ChainMap) -> ChainMap:
    """The unique map out of the pushout restricting to u and v."""
    proj, sects, amb = res._aux
    target = u.target
    if v.target != target:
        raise ValidationFailure("cocone legs must share a target")
    blocks = {}
    for t in res.obj.degrees():
        glued = hstack([u.block(t), v.block(t)])
        blocks[t] = glued @ sects[t]
    return ChainMap.build(res.obj, target, blocks)


def pullback(f: ChainMap, g: ChainMap) -> SpanResult:
    """Pullback of source(f) -> target <- source(g), as a kernel."""
    if f.target != g.target:
        raise ValidationFailure("pullback cospan must share its target")
    b, c = f.source, g.source
    amb, _, projs = direct_sum_with_maps([b, c])
    cospan = ChainMap.build(
        amb,
        f.target,
        {t: hstack([f.block(t), -g.block(t)]) for t in amb.degrees()},
    )
    k, incl = kernel_complex(cospan)
    left = projs[0] @ incl
    right = projs[1] @ incl
    return SpanResult(k, left, right, (incl, amb))


def pullback_mediator(res: SpanResult, u: ChainMap, v: ChainMap) -> ChainMap:
    """The unique map into the pullback with the given projections."""
    incl, amb = res._aux
    src = u.source
    if v.source != src:
        raise ValidationFailure("cone legs must share a source")
    blocks = {}
    for t in src.degrees():
        stacked = vstack([u.block(t), v.block(t)])
        m = solve(incl.block(t), stacked)
        if m is None:
            raise ValidationFailure("cone does not factor through the pullback")
        blocks[t] = m
    return ChainMap.build(src, res.obj, blocks)


# ---------------------------------------------------------------------------
# hom and tensor


def _block_map(p: int, sources, targets) -> FpMatrix:
    """Matrix of a linear map between sums of matrix blocks.  The source
    blocks X_s are given as (s, rows, cols) and become the unknowns (s,);
    each target block is (shape, terms), the sum of sign * L X_s R over its
    (key, L, R, sign) terms.  BlockSystem assembles it, row-major block by
    block in the order given."""
    sys = BlockSystem(p)
    for s, r, c in sources:
        sys.add_unknown((s,), r, c)
    for shape, terms in targets:
        sys.add_equation(shape, terms)
    return sys.matrix()


def _hom_blocks(a: ChainComplex, b: ChainComplex, t: int):
    """The nonzero blocks f_s : a_s -> b_{s+t} of Hom(a, b)_t as
    (s, dim b_{s+t}, dim a_s), s ascending."""
    return [(s, b.dim(s + t), a.dim(s)) for s in a.degrees() if b.dim(s + t) and a.dim(s)]


def _hom_d(key: tuple, a: ChainComplex, b: ChainComplex, t: int):
    """The blocks of delta f in Hom(a, b)_{t-1} for f in Hom(a, b)_t, whose
    f_s is the unknown key + (s,): (delta f)_s = d_b f_s - (-1)^t f_{s-1} d_a."""
    sign = 1 if t % 2 else -1
    return [
        (
            (b.dim(s + t - 1), a.dim(s)),
            [(key + (s,), b.d(s + t), None, 1), (key + (s - 1,), None, a.d(s), sign)],
        )
        for s in a.degrees()
    ]


def hom_complex(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Hom(a, b)_t = product over s of Hom(a_s, b_{s+t}), with differential
    (delta f)_s = d_b f_s - (-1)^t f_{s-1} d_a."""
    p = a.p
    if b.p != p:
        raise FieldMismatchError("hom over different primes")
    if a.is_zero() or b.is_zero():
        return zero_complex(p)
    lo = b.lo - a.hi
    hi = b.hi - a.lo
    blocks = {t: _hom_blocks(a, b, t) for t in range(lo, hi + 1)}
    dims = [sum(r * c for _, r, c in blocks[t]) for t in range(lo, hi + 1)]
    diffs = {t: _block_map(p, blocks[t], _hom_d((), a, b, t)) for t in range(lo + 1, hi + 1)}
    return ChainComplex.build(p, lo, dims, diffs)


def hom_precompose(
    a: ChainComplex, b: ChainComplex, g: ChainMap, h1: ChainComplex, h2: ChainComplex
) -> ChainMap:
    """Given g : a' -> a, the chain map Hom(a, b) -> Hom(a', b), f -> f g,
    between h1 = hom_complex(a, b) and h2 = hom_complex(a', b)."""
    aprime = g.source
    if g.target != a:
        raise ValidationFailure("precomposition target mismatch")
    blocks = {}
    for t in h1.degrees():
        targets = [
            ((b.dim(s + t), aprime.dim(s)), [((s,), None, g.block(s), 1)])
            for s in aprime.degrees()
        ]
        blocks[t] = _block_map(h1.p, _hom_blocks(a, b, t), targets)
    return ChainMap.build(h1, h2, blocks)


def hom_postcompose(
    a: ChainComplex, g: ChainMap, h1: ChainComplex, h2: ChainComplex
) -> ChainMap:
    """Hom(a, source of g) -> Hom(a, target of g), f -> g f, between
    h1 = hom_complex(a, source of g) and h2 = hom_complex(a, target of g)."""
    b, bprime = g.source, g.target
    blocks = {}
    for t in h1.degrees():
        targets = [
            ((bprime.dim(s + t), a.dim(s)), [((s,), g.block(s + t), None, 1)])
            for s in a.degrees()
        ]
        blocks[t] = _block_map(h1.p, _hom_blocks(a, b, t), targets)
    return ChainMap.build(h1, h2, blocks)


def _tensor_blocks(a: ChainComplex, b: ChainComplex, n: int):
    """The nonzero blocks a_s tensor b_{n-s} of (a tensor b)_n as
    (s, dim a_s, dim b_{n-s}), s ascending; x tensor y is the matrix x y^T."""
    return [(s, a.dim(s), b.dim(n - s)) for s in a.degrees() if a.dim(s) and b.dim(n - s)]


def tensor_complexes(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """(a tensor b)_n = sum over s of a_s tensor b_{n-s}, with
    d(x tensor y) = dx tensor y + (-1)^s x tensor dy."""
    p = a.p
    if b.p != p:
        raise FieldMismatchError("tensor over different primes")
    if a.is_zero() or b.is_zero():
        return zero_complex(p)
    lo, hi = a.lo + b.lo, a.hi + b.hi
    blocks = {n: _tensor_blocks(a, b, n) for n in range(lo, hi + 1)}
    dims = [sum(r * c for _, r, c in blocks[n]) for n in range(lo, hi + 1)]
    diffs = {}
    for n in range(lo + 1, hi + 1):
        # block s of degree n - 1 receives d_a X_{s+1} and (-1)^s X_s d_b^T
        targets = [
            (
                (a.dim(s), b.dim(n - 1 - s)),
                [
                    ((s + 1,), a.d(s + 1), None, 1),
                    ((s,), None, b.d(n - s).transpose(), -1 if s % 2 else 1),
                ],
            )
            for s in a.degrees()
        ]
        diffs[n] = _block_map(p, blocks[n], targets)
    return ChainComplex.build(p, lo, dims, diffs)


def tensor_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """Degreewise f tensor g (no signs; both maps have degree zero)."""
    src = tensor_complexes(f.source, g.source)
    tgt = tensor_complexes(f.target, g.target)
    blocks = {}
    for n in src.degrees():
        targets = [
            (
                (f.target.dim(s), g.target.dim(n - s)),
                [((s,), f.block(s), g.block(n - s).transpose(), 1)],
            )
            for s in f.target.degrees()
        ]
        blocks[n] = _block_map(src.p, _tensor_blocks(f.source, g.source, n), targets)
    return ChainMap.build(src, tgt, blocks)


# ---------------------------------------------------------------------------
# chain-map spaces


def add_chain_maps(sys: BlockSystem, key: tuple, a: ChainComplex, b: ChainComplex):
    """Add the blocks of a chain map f : a -> b to ``sys``: the unknowns
    key + (t,) of shape (dim b_t, dim a_t), in ascending degree where both
    are nonzero, and the equations d f_t = f_{t-1} d."""
    for t, r, c in _hom_blocks(a, b, 0):
        sys.add_unknown(key + (t,), r, c)
    for shape, terms in _hom_d(key, a, b, 0):  # chain maps are the 0-cycles of Hom
        sys.add_equation(shape, terms)


def chain_map_space(a: ChainComplex, b: ChainComplex):
    """Basis of the space of chain maps a -> b, as (basis, system): basis
    columns live in the ambient space of ``system``, whose unknowns are the
    blocks (t,)."""
    sys = BlockSystem(a.p)
    add_chain_maps(sys, (), a, b)
    return sys.kernel(), sys


def chain_map_from_vector(a, b, vec: FpMatrix, sys: BlockSystem) -> ChainMap:
    return ChainMap.build(a, b, {t: m for (t,), m in sys.blocks_from_vector(vec).items()})
