"""Truncated simplicial objects in chain complexes.

A simplicial object has chain complexes X_0..X_N and face/degeneracy chain
maps subject to the simplicial identities.  The matching object M_nX, the
limit over the boundary of the n-simplex, is the equalizer of its n + 1
codimension-one faces: families (x_0, ..., x_n) in X_{n-1} with
d_i x_j = d_{j-1} x_i for i < j, one condition per codimension-two face.
Latching objects are the degeneracy spans D_nX inside X_n, which is what
the colimit is once the latching map is known to be injective (Dold-Kan
splitting).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ssets as ss
from .chain import (
    ChainComplex,
    ChainMap,
    add_chain_maps,
    direct_sum,
    direct_sum_with_maps,
    identity_map,
    kernel_complex,
    quotient_complex,
    subcomplex,
    validate_complex,
    validate_map,
    zero_complex,
    zero_map,
)
from .errors import ValidationFailure
from .linalg import (
    FpMatrix,
    block_diag,
    canonical_basis,
    eye,
    hstack,
    kernel_basis,
    solve,
    vstack,
)
from .system import BlockSystem


@dataclass(frozen=True, eq=False)
class SimplicialObject:
    N: int
    levels: tuple[ChainComplex, ...]
    faces: tuple[tuple[ChainMap, ...], ...]  # faces[n-1][i] : X_n -> X_{n-1}
    degens: tuple[tuple[ChainMap, ...], ...]  # degens[n][i] : X_n -> X_{n+1}

    @property
    def p(self) -> int:
        return self.levels[0].p

    def level(self, n: int) -> ChainComplex:
        return self.levels[n]

    def face(self, n: int, i: int) -> ChainMap:
        return self.operator(n, n - 1, i)

    def degen(self, n: int, i: int) -> ChainMap:
        return self.operator(n, n + 1, i)

    def operator(self, n: int, m: int, i: int) -> ChainMap:
        """The operator from level n to level m: d_i or s_i."""
        ss.check_operator(self.N, n, m, i)
        return self.faces[n - 1][i] if m < n else self.degens[n][i]

    def __eq__(self, other):
        if not isinstance(other, SimplicialObject):
            return NotImplemented
        return (
            self.N == other.N
            and self.levels == other.levels
            and self.faces == other.faces
            and self.degens == other.degens
        )

    def __hash__(self):
        return hash((self.N, self.levels, self.faces, self.degens))


def constant(N: int, a: ChainComplex) -> SimplicialObject:
    """Every level is ``a`` and every operator the identity."""
    ident = identity_map(a)
    return SimplicialObject(
        N, tuple(a for _ in range(N + 1)), *ss.operator_tables(N, lambda n, m, i: ident)
    )


def validate_sobj(x: SimplicialObject):
    if len(x.levels) != x.N + 1 or len(x.faces) != x.N or len(x.degens) != x.N:
        raise ValidationFailure("level or operator count does not match N")
    for lvl in x.levels:
        validate_complex(lvl)
        if lvl.p != x.p:
            raise ValidationFailure("levels over different primes")
    for n, m, i in ss.operator_indices(x.N):
        face = m < n
        if i == 0 and len(x.faces[n - 1] if face else x.degens[n]) != n + 1:
            noun = "faces" if face else "degeneracies"
            raise ValidationFailure(f"expected {n + 1} {noun} at level {n}")
        op = x.operator(n, m, i)
        if op.source != x.level(n) or op.target != x.level(m):
            kind = "face" if face else "degeneracy"
            raise ValidationFailure(f"{kind} endpoints wrong at level {n}")
        validate_map(op)
    for name, n, lhs, rhs in ss.simplicial_identities(x.N):
        if along(x, lhs, n) != along(x, rhs, n):
            raise ValidationFailure(f"{name} fails at level {n}")


@dataclass(frozen=True, eq=False)
class SimplicialMap:
    source: SimplicialObject
    target: SimplicialObject
    levels: tuple[ChainMap, ...]

    @property
    def p(self) -> int:
        return self.source.p

    def level(self, n: int) -> ChainMap:
        return self.levels[n]

    def __matmul__(self, other: "SimplicialMap") -> "SimplicialMap":
        if other.target != self.source:
            raise ValidationFailure("simplicial map composition mismatch")
        return SimplicialMap(
            other.source,
            self.target,
            tuple(self.levels[n] @ other.levels[n] for n in range(len(self.levels))),
        )

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.levels == other.levels
        )

    def __hash__(self):
        return hash((self.source, self.target, self.levels))


def constant_map(N: int, f: ChainMap) -> SimplicialMap:
    return SimplicialMap(
        constant(N, f.source), constant(N, f.target), tuple(f for _ in range(N + 1))
    )


def identity_smap(x: SimplicialObject) -> SimplicialMap:
    return SimplicialMap(x, x, tuple(identity_map(lvl) for lvl in x.levels))


def zero_smap(x: SimplicialObject, y: SimplicialObject) -> SimplicialMap:
    return SimplicialMap(
        x, y, tuple(zero_map(x.level(n), y.level(n)) for n in range(x.N + 1))
    )


def validate_smap(f: SimplicialMap):
    if f.source.N != f.target.N:
        raise ValidationFailure("simplicial map between different truncations")
    if len(f.levels) != f.source.N + 1:
        raise ValidationFailure("level map count does not match N")
    for n in range(f.source.N + 1):
        m = f.level(n)
        if m.source != f.source.level(n) or m.target != f.target.level(n):
            raise ValidationFailure(f"level {n} map endpoints wrong")
        validate_map(m)
    for n, m, i in ss.operator_indices(f.source.N):
        if f.target.operator(n, m, i) @ f.level(n) != f.level(m) @ f.source.operator(n, m, i):
            raise ValidationFailure(f"map breaks {ss.operator_name(n, m, i)} at level {n}")


# ---------------------------------------------------------------------------
# tensoring with a simplicial set


def _route(p: int, table, card_tgt: int, block: FpMatrix) -> FpMatrix:
    """Block matrix from len(table) copies to card_tgt copies that holds
    ``block`` at copy (table[j], j) and zero elsewhere.  A copy with
    table[j] = -1 goes nowhere: it lands in a spare last copy, cut off."""
    r, c = block.shape
    out = np.zeros((card_tgt + 1, r, len(table), c), dtype=np.int64)
    out[np.asarray(table, dtype=np.intp), :, np.arange(len(table)), :] = block.a
    return FpMatrix(p, out[:card_tgt].reshape(card_tgt * r, len(table) * c))


def _copies_complex(a: ChainComplex, count: int) -> ChainComplex:
    """Direct sum of ``count`` copies of a, copy-major layout."""
    if count == 0 or a.is_zero():
        return zero_complex(a.p)
    diffs = {
        t: _route(a.p, range(count), count, a.d(t))
        for t in a.degrees()
        if a.dim(t) and a.dim(t - 1)
    }
    return ChainComplex.build(a.p, a.lo, [count * d for d in a.dims], diffs)


def tensor_sobj_with_sset(x: SimplicialObject, k: ss.SSet) -> SimplicialObject:
    """Diagonal tensor: level n is a sum of copies of X_n indexed by the
    n-simplices, and an operator routes copies along the simplex table
    while acting by the operator of X inside each copy."""
    if k.N != x.N:
        raise ValidationFailure("tensor truncations differ")
    levels = tuple(_copies_complex(x.level(n), k.card(n)) for n in range(k.N + 1))

    def op(n: int, m: int, i: int) -> ChainMap:
        inner, table = x.operator(n, m, i), k.operator(n, m, i)
        blocks = {
            t: _route(x.p, table, k.card(m), inner.block(t))
            for t in inner.source.degrees()
        }
        return ChainMap.build(levels[n], levels[m], blocks)

    return SimplicialObject(k.N, levels, *ss.operator_tables(k.N, op))


def tensor_smap_with_sset(f: SimplicialMap, k: ss.SSet) -> SimplicialMap:
    """f tensor k, identity on the simplex direction."""
    src = tensor_sobj_with_sset(f.source, k)
    tgt = tensor_sobj_with_sset(f.target, k)
    lv = []
    for n in range(k.N + 1):
        card = k.card(n)
        blocks = {
            t: _route(f.p, range(card), card, f.level(n).block(t))
            for t in f.source.level(n).degrees()
        }
        lv.append(ChainMap.build(src.level(n), tgt.level(n), blocks))
    return SimplicialMap(src, tgt, tuple(lv))


def tensor_sobj_sset_map(x: SimplicialObject, g: ss.SSetMap) -> SimplicialMap:
    """x tensor g, identity inside each copy."""
    src = tensor_sobj_with_sset(x, g.source)
    tgt = tensor_sobj_with_sset(x, g.target)
    lv = []
    for n in range(g.source.N + 1):
        blocks = {
            t: _route(x.p, g.levels[n], g.target.card(n), eye(x.p, x.level(n).dim(t)))
            for t in x.level(n).degrees()
        }
        lv.append(ChainMap.build(src.level(n), tgt.level(n), blocks))
    return SimplicialMap(src, tgt, tuple(lv))


def box_map(f: SimplicialMap, i: ss.SSetMap) -> SimplicialMap:
    """f boxed with an injective i: K -> L, by routing copies.  Level n of the
    source is the copies of X_n over L_n minus i(K_n), then those of Y_n over
    K_n (Hovey, Model Categories, 4.2): the cokernel basis of the pushout of
    X tensor L <- X tensor K -> Y tensor K.  An operator theta acts by Y(theta)
    on Y copies and by X(theta) on X copies, then by f_m on those it carries
    into i(K).  The map into Y tensor L is f_n on X copies, 1 on Y copies."""
    if not i.is_injective():
        raise ValidationFailure("pushout product needs an injective simplicial set map")
    x, y, k, l = f.source, f.target, i.source, i.target
    p, N, tgt = f.p, k.N, tensor_sobj_with_sset(y, l)
    # per level, indexed by the simplices of L: the K-simplex over it, or -1;
    # the simplices outside i(K); the position of each among them, or -1
    pre = [np.full(l.card(n), -1, dtype=np.intp) for n in range(N + 1)]
    for n in range(N + 1):
        pre[n][list(i.levels[n])] = np.arange(k.card(n))
    outside = [np.flatnonzero(q < 0) for q in pre]
    out_pos = [np.where(q < 0, np.cumsum(q < 0) - 1, -1) for q in pre]
    levels = tuple(
        direct_sum([_copies_complex(x.level(n), len(q)), _copies_complex(y.level(n), k.card(n))])
        for n, q in enumerate(outside)
    )

    def op(n: int, m: int, j: int) -> ChainMap:
        xop, yop = x.operator(n, m, j), y.operator(n, m, j)
        lands = np.asarray(l.operator(n, m, j), dtype=np.intp)[outside[n]]

        def block(t: int) -> FpMatrix:
            xx = _route(p, out_pos[m][lands], len(outside[m]), xop.block(t))
            xy = _route(p, pre[m][lands], k.card(m), f.level(m).block(t) @ xop.block(t))
            yy = _route(p, k.operator(n, m, j), k.card(m), yop.block(t))
            zero = np.zeros((xx.rows, yy.cols), dtype=np.int64)
            return FpMatrix(p, np.block([[xx.a, zero], [xy.a, yy.a]]))

        return ChainMap.build(levels[n], levels[m], {t: block(t) for t in levels[n].degrees()})

    src = SimplicialObject(N, levels, *ss.operator_tables(N, op))
    lv = tuple(
        ChainMap.build(src.level(n), tgt.level(n), {
            t: hstack([_route(p, outside[n], l.card(n), f.level(n).block(t)),
                       _route(p, i.levels[n], l.card(n), eye(p, y.level(n).dim(t)))])
            for t in levels[n].degrees()
        })
        for n in range(N + 1)
    )
    return SimplicialMap(src, tgt, lv)


def tensor_with_sset(a: ChainComplex, k: ss.SSet) -> SimplicialObject:
    """a tensor k: the constant object on a, tensored with k."""
    return tensor_sobj_with_sset(constant(k.N, a), k)


def tensor_chain_map(f: ChainMap, k: ss.SSet) -> SimplicialMap:
    """f tensor k: the constant map on f, tensored with k."""
    return tensor_smap_with_sset(constant_map(k.N, f), k)


def tensor_sset_map(a: ChainComplex, g: ss.SSetMap) -> SimplicialMap:
    """a tensor g: the constant object on a, tensored with g."""
    return tensor_sobj_sset_map(constant(g.source.N, a), g)


# ---------------------------------------------------------------------------
# structure maps


def along(x: SimplicialObject, path, n: int) -> ChainMap:
    """The chain map out of X_n along an operator path (ss.factor_monotone,
    ss.simplicial_identities); the empty path is the identity."""
    if not path:
        return identity_map(x.level(n))
    cur = x.operator(*path[0])
    for step in path[1:]:
        cur = x.operator(*step) @ cur
    return cur


def _stack_into_sum(maps: list[ChainMap], source: ChainComplex, p: int):
    """Direct-sum the targets; the stacked map has the given components."""
    if not maps:
        t0 = zero_complex(p)
        return t0, zero_map(source, t0)
    t0 = direct_sum([m.target for m in maps])
    blocks = {
        t: vstack([m.block(t) for m in maps]) for t in source.degrees()
    }
    return t0, ChainMap.build(source, t0, blocks)


def factor_through_mono(incl: ChainMap, u: ChainMap) -> ChainMap:
    """The unique m with incl . m = u, for levelwise-injective incl."""
    blocks = {}
    for t in u.source.degrees():
        m = solve(incl.block(t), u.block(t))
        if m is None:
            raise ValidationFailure("map does not factor through the subobject")
        blocks[t] = m
    return ChainMap.build(u.source, incl.source, blocks)


@dataclass(frozen=True)
class Latching:
    """The latching object L_nX as the degeneracy span D_nX inside X_n.

    The colimit of X over the proper quotients of [n] maps injectively into
    X_n (every simplicial object splits, X_n = N_nX + D_nX), and its image
    is the span of the degeneracies s_i : X_{n-1} -> X_n, so that span with
    its inclusion is the latching object with its latching map.
    """

    obj: ChainComplex
    to_level: ChainMap


def degeneracy_quotient(x: SimplicialObject, n: int):
    """(Q, proj, sects) with Q = X_n/D_nX, the cokernel of the degeneracies
    s_i : X_{n-1} -> X_n glued out of their sum, and sects a linear section
    of proj per degree.  Level 0 has no degeneracies, so Q = X_0."""
    lvl = x.level(n)
    if n == 0:
        return lvl, identity_map(lvl), {t: eye(x.p, lvl.dim(t)) for t in lvl.degrees()}
    spans = {t: hstack([x.degen(n - 1, i).block(t) for i in range(n)]) for t in lvl.degrees()}
    return quotient_complex(lvl, spans)


def latching(x: SimplicialObject, n: int) -> Latching:
    _, proj, _ = degeneracy_quotient(x, n)
    obj, to_level = kernel_complex(proj)
    return Latching(obj, to_level)


@dataclass(frozen=True)
class Matching:
    """The matching object M_nX, the limit of X over the boundary of the
    n-simplex, as an equalizer over its n + 1 codimension-one faces, with
    the comparison map from X_n and the presentation witnesses: ``amb``
    sums n + 1 copies of X_{n-1}, and copy c, with projection ``projs[c]``,
    holds the face missing vertex n - c."""

    obj: ChainComplex
    from_level: ChainMap
    amb: ChainComplex
    incl: ChainMap
    projs: tuple[ChainMap, ...]


def matching(x: SimplicialObject, n: int) -> Matching:
    """M_nX as the families (x_0, ..., x_n) in X_{n-1} with
    d_i x_j = d_{j-1} x_i for i < j, one condition per codimension-two face
    (Goerss-Jardine VII.1).  X_n maps to the face missing vertex k by d_k.

    A compatible family over all the proper faces of [n] is fixed by its
    codimension-one values, so when those faces come last its last nonzero
    coordinate lies among them: this kernel basis is that presentation's,
    restricted to the codimension-one faces."""
    p = x.p
    if n == 0:
        z = zero_complex(p)
        return Matching(z, zero_map(x.level(0), z), z, zero_map(z, z), ())
    amb, _, projs = direct_sum_with_maps([x.level(n - 1)] * (n + 1))
    conds = [
        x.face(n - 1, i) @ projs[n - j] - x.face(n - 1, j - 1) @ projs[n - i]
        for j in range(n + 1)
        for i in range(j)
        if n > 1
    ]
    _, cond_map = _stack_into_sum(conds, amb, p)
    m, incl = kernel_complex(cond_map)
    _, v = _stack_into_sum([x.face(n, k) for k in reversed(range(n + 1))], x.level(n), p)
    from_level = factor_through_mono(incl, v)
    return Matching(m, from_level, amb, incl, tuple(projs))


def matching_map_of(
    f: SimplicialMap, n: int, mx: Matching | None = None, my: Matching | None = None
) -> ChainMap:
    if mx is None:
        mx = matching(f.source, n)
    if my is None:
        my = matching(f.target, n)
    if n == 0:
        return zero_map(mx.obj, my.obj)
    blocks = {}
    for t in mx.amb.degrees():
        ft = block_diag(f.p, [f.level(n - 1).block(t)] * (n + 1))
        blocks[t] = ft @ mx.incl.block(t)
    big = ChainMap.build(mx.obj, my.amb, blocks)
    return factor_through_mono(my.incl, big)


# ---------------------------------------------------------------------------
# cotensor by a simplicial set


@dataclass(frozen=True)
class Cotensor:
    """Chain complex of operator-compatible families (x_sigma) indexed by
    the simplices of K, included into ``amb``, the sum of the levels of
    ``x`` over ``components`` in order.  In degree t, component c takes
    the rows ``offsets[t][c]`` up to ``offsets[t][c + 1]`` of ``amb``.
    ``roots`` are the simplices the family was solved at
    (``ss.root_walk``), and ``spread[t]`` maps their values, summed in that
    order, to the whole family: x_rho = X(beta) x_tau where rho = K(beta) tau."""

    obj: ChainComplex
    incl: ChainMap
    amb: ChainComplex
    components: tuple[tuple[int, int], ...]
    offsets: dict[int, tuple[int, ...]]
    x: SimplicialObject
    roots: tuple[tuple[int, int], ...]
    spread: dict[int, FpMatrix]


def cotensor0(x: SimplicialObject, k: ss.SSet) -> Cotensor:
    """X^K, solved only for the values at the roots of K (``ss.root_walk``).

    A compatible family is fixed by its root values, as x_rho = X(beta) x_tau
    whenever rho = K(beta) tau, and each X(beta) is one product from its
    parent's in the walk.  Root values must agree only at the faces the walk
    reached through two roots or two betas, so the simplex gets no condition
    and its boundary the facet equalizer of ``matching``.  Each degree gets
    the basis the all-simplex kernel would have there (``canonical_basis``).
    """
    if k.N != x.N:
        raise ValidationFailure("cotensor truncations differ")
    p = x.p
    components = tuple(
        (n, idx) for n in range(k.N + 1) for idx in range(k.card(n))
    )
    roots, steps, conds = ss.root_walk(k)
    if not components:
        z = zero_complex(p)
        return Cotensor(z, zero_map(z, z), z, components, {}, x, roots, {})
    parts = [x.level(n) for n, _ in components]
    amb = direct_sum(parts)
    first = list(itertools.accumulate((k.card(n) for n in range(k.N + 1)), initial=0))
    root_of = {(n, idx): r for n, idx, r, _ in steps}
    offsets, spread, bases = {}, {}, {}
    for t in amb.degrees():
        off = offsets[t] = tuple(itertools.accumulate((q.dim(t) for q in parts), initial=0))
        at = list(itertools.accumulate((x.level(n).dim(t) for n, _ in roots), initial=0))
        table = np.zeros((off[-1], at[-1]), dtype=np.int64)
        value = {}
        for n, idx, r, src in steps:
            if src is None:
                v = np.eye(x.level(n).dim(t), dtype=np.int64)
            else:
                m, parent, i = src
                v = x.operator(m, n, i).block(t).a @ value[(m, parent)] % p
            value[(n, idx)] = v
            c = first[n] + idx
            table[off[c] : off[c + 1], at[r] : at[r + 1]] = v
        rows = []
        for n, idx, i in conds:
            face = k.face(n, i, idx)
            row = np.zeros((x.level(n - 1).dim(t), at[-1]), dtype=np.int64)
            r, rf = root_of[(n, idx)], root_of[(n - 1, face)]
            row[:, at[r] : at[r + 1]] = x.face(n, i).block(t).a @ value[(n, idx)]
            row[:, at[rf] : at[rf + 1]] -= value[(n - 1, face)]
            rows.append(row)
        spread[t] = FpMatrix(p, table)
        span = spread[t] @ kernel_basis(FpMatrix(p, np.vstack(rows))) if rows else spread[t]
        bases[t] = canonical_basis(span)
    obj, incl = subcomplex(amb, bases)
    return Cotensor(obj, incl, amb, components, offsets, x, roots, spread)


def _components_of(ct: Cotensor, picked: list[int], target: ChainComplex) -> ChainMap:
    """The map X^K -> target whose degree-t block stacks the rows of
    ``incl`` at the components ``picked``, in that order."""
    blocks = {}
    for t in ct.obj.degrees():
        off = ct.offsets[t]
        rows = [r for c in picked for r in range(off[c], off[c + 1])]
        blocks[t] = FpMatrix(ct.obj.p, ct.incl.block(t).a[rows])
    return ChainMap.build(ct.obj, target, blocks)


def cotensor_component(ct: Cotensor, n: int, idx: int) -> ChainMap:
    """The value x_sigma at the simplex sigma = (n, idx), as a map X^K -> X_n."""
    return _components_of(ct, [ct.components.index((n, idx))], ct.x.level(n))


def yoneda_projection(x: SimplicialObject, n: int, ct: Cotensor | None = None) -> ChainMap:
    """Projection at the identity simplex; an isomorphism when the cotensor
    is taken against the standard n-simplex."""
    k = ss.delta(x.N, n)
    if ct is None:
        ct = cotensor0(x, k)
    ident = k.index_of(n, tuple(range(n + 1)))
    return cotensor_component(ct, n, ident)


def cotensor_restrict(i: ss.SSetMap, ct_big: Cotensor, ct_small: Cotensor) -> ChainMap:
    """Restriction X^L -> X^K along a simplicial map i: K -> L, between the
    cotensors X^L and X^K."""
    index = {c: j for j, c in enumerate(ct_big.components)}
    picked = [index[(n, i.apply(n, idx))] for (n, idx) in ct_small.components]
    return factor_through_mono(ct_small.incl, _components_of(ct_big, picked, ct_small.amb))


def cotensor_apply(f: SimplicialMap, ct_x: Cotensor, ct_y: Cotensor) -> ChainMap:
    """Induced map X^K -> Y^K for a simplicial map f: X -> Y, between the
    cotensors X^K and Y^K."""
    blocks = {}
    for t in ct_x.obj.degrees():
        ft = block_diag(f.p, [f.level(n).block(t) for n, _ in ct_x.components])
        blocks[t] = ft @ ct_x.incl.block(t)
    big = ChainMap.build(ct_x.obj, ct_y.amb, blocks)
    return factor_through_mono(ct_y.incl, big)


def boundary_cotensor_from_matching(
    x: SimplicialObject, n: int, ct: Cotensor | None = None, mt: Matching | None = None
) -> ChainMap:
    """The comparison map from the matching object to the cotensor against
    the boundary of the n-simplex: the roots there are the n + 1 facets, so
    the family is ``ct.spread`` applied to the facet values of M_nX."""
    k = ss.boundary_inclusion(x.N, n).source
    if ct is None:
        ct = cotensor0(x, k)
    if mt is None:
        mt = matching(x, n)
    # the root (n - 1, idx) is the facet missing one vertex v, matching copy n - v
    facets = [
        mt.projs[n - (set(range(n + 1)) - set(k.label(m, idx))).pop()] @ mt.incl
        for m, idx in ct.roots
    ]
    blocks = {
        t: ct.spread[t] @ vstack([f.block(t) for f in facets]) for t in mt.obj.degrees()
    }
    return factor_through_mono(ct.incl, ChainMap.build(mt.obj, ct.amb, blocks))


# ---------------------------------------------------------------------------
# levelwise pushouts, pullbacks, kernels, sums


@dataclass(frozen=True)
class SobjSpan:
    obj: SimplicialObject
    left: SimplicialMap
    right: SimplicialMap


def pushout_sobj(f: SimplicialMap, g: SimplicialMap) -> SobjSpan:
    """Levelwise pushout of target(f) <- source -> target(g); operators come
    from the universal property."""
    from .chain import pushout, pushout_mediator

    if f.source != g.source:
        raise ValidationFailure("pushout span must share its source")
    N = f.source.N
    res = [pushout(f.level(n), g.level(n)) for n in range(N + 1)]
    xb, yc = f.target, g.target

    def op(n: int, m: int, i: int) -> ChainMap:
        return pushout_mediator(
            res[n], res[m].left @ xb.operator(n, m, i), res[m].right @ yc.operator(n, m, i)
        )

    obj = SimplicialObject(N, tuple(r.obj for r in res), *ss.operator_tables(N, op))
    left = SimplicialMap(xb, obj, tuple(r.left for r in res))
    right = SimplicialMap(yc, obj, tuple(r.right for r in res))
    return SobjSpan(obj, left, right)


def pullback_sobj(f: SimplicialMap, g: SimplicialMap) -> SobjSpan:
    from .chain import pullback, pullback_mediator

    if f.target != g.target:
        raise ValidationFailure("pullback cospan must share its target")
    N = f.source.N
    res = [pullback(f.level(n), g.level(n)) for n in range(N + 1)]
    xb, yc = f.source, g.source

    def op(n: int, m: int, i: int) -> ChainMap:
        return pullback_mediator(
            res[m], xb.operator(n, m, i) @ res[n].left, yc.operator(n, m, i) @ res[n].right
        )

    obj = SimplicialObject(N, tuple(r.obj for r in res), *ss.operator_tables(N, op))
    left = SimplicialMap(obj, xb, tuple(r.left for r in res))
    right = SimplicialMap(obj, yc, tuple(r.right for r in res))
    return SobjSpan(obj, left, right)


def direct_sum_sobj(parts: list[SimplicialObject]):
    """(sum, inclusions, projections), levelwise."""
    N = parts[0].N
    p = parts[0].p
    per_level = [direct_sum_with_maps([q.level(n) for q in parts]) for n in range(N + 1)]
    levels = tuple(pl[0] for pl in per_level)

    def op(n: int, m: int, i: int) -> ChainMap:
        ops = [q.operator(n, m, i) for q in parts]
        blocks = {t: block_diag(p, [o.block(t) for o in ops]) for t in levels[n].degrees()}
        return ChainMap.build(levels[n], levels[m], blocks)

    total = SimplicialObject(N, levels, *ss.operator_tables(N, op))
    incs, projs = [], []
    for idx, part in enumerate(parts):
        incs.append(
            SimplicialMap(part, total, tuple(per_level[n][1][idx] for n in range(N + 1)))
        )
        projs.append(
            SimplicialMap(total, part, tuple(per_level[n][2][idx] for n in range(N + 1)))
        )
    return total, incs, projs


# ---------------------------------------------------------------------------
# spaces of simplicial maps


def add_smaps(sys: BlockSystem, key: tuple, x: SimplicialObject, y: SimplicialObject):
    """Add the blocks of a simplicial map f : X -> Y to ``sys``: the chain
    maps f_n under key + (n,), level-major, then f d_i = d_i f and
    f s_i = s_i f."""
    for n in range(x.N + 1):
        add_chain_maps(sys, key + (n,), x.level(n), y.level(n))
    for n, m, i in ss.operator_indices(x.N):
        oy, ox = y.operator(n, m, i), x.operator(n, m, i)
        for t in x.level(n).degrees():
            sys.add_equation(
                (y.level(m).dim(t), x.level(n).dim(t)),
                [(key + (n, t), oy.block(t), None, 1), (key + (m, t), None, ox.block(t), -1)],
            )


def smap_system(x: SimplicialObject, y: SimplicialObject, cap: int | None = None) -> BlockSystem:
    """Block system whose solutions are the simplicial chain maps X -> Y, with
    unknowns (level, degree).  Callers may add boundary conditions before
    solving."""
    sys = BlockSystem(x.p, cap)
    add_smaps(sys, (), x, y)
    return sys


def smap_space(x: SimplicialObject, y: SimplicialObject, cap: int | None = None):
    """Kernel basis of the space of simplicial chain maps X -> Y, with the
    smap_system it lives in."""
    sys = smap_system(x, y, cap)
    return sys.kernel(), sys


def smap_from_blocks(x: SimplicialObject, y: SimplicialObject, blocks: dict) -> SimplicialMap:
    """The map with level n, degree t block ``blocks[(n, t)]``, zero where
    absent."""
    per_level: dict[int, dict[int, FpMatrix]] = {}
    for (n, t), m in blocks.items():
        per_level.setdefault(n, {})[t] = m
    lv = tuple(
        ChainMap.build(x.level(n), y.level(n), per_level.get(n, {}))
        for n in range(x.N + 1)
    )
    return SimplicialMap(x, y, lv)


def smap_from_vector(x: SimplicialObject, y: SimplicialObject, vec: FpMatrix, sys: BlockSystem) -> SimplicialMap:
    return smap_from_blocks(x, y, sys.blocks_from_vector(vec))
