"""Total complexes of simplicial objects, in three flavors.

The full mode sums every level; the normalized mode first divides each
level by the span of the degeneracy images (the alternating face sum
descends because its identity terms cancel in pairs); the moore mode
instead intersects the kernels of all faces but the last.  Normalized and
moore totals have equal dimensions degree by degree and the same homology.

A truncated object only determines its realization up to the truncation.
The ``exact`` flag on a realization verdict certifies that nothing was cut:
it holds when the top normalized level vanishes on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainComplex,
    ChainMap,
    identity_map,
    kernel_complex,
    quasi_iso_witness,
    zero_complex,
    zero_map,
)
from .errors import ValidationFailure
from .linalg import FpMatrix, hstack, quotient_by_columns, vstack
from .sobj import SimplicialMap, SimplicialObject, factor_through_mono

MODES = ("full", "normalized", "moore")


@dataclass(frozen=True)
class TotalComplex:
    obj: ChainComplex
    mode: str
    levels: tuple[ChainComplex, ...]
    dprimes: tuple  # dprimes[s-1] : levels[s] -> levels[s-1]
    layout: dict  # n -> tuple of (s, t, dim, offset)
    witnesses: tuple  # per level: () for full, (proj, sects) or (incl,)


def _alternating_face_sum(x: SimplicialObject, s: int) -> ChainMap:
    total = zero_map(x.level(s), x.level(s - 1))
    for i in range(s + 1):
        total = total + x.face(s, i).scale((-1) ** (i % 2))
    return total


def _normalized_levels(x: SimplicialObject):
    """Per-level degeneracy quotients with their projection witnesses."""
    p = x.p
    levels, wits = [], []
    for s in range(x.N + 1):
        lvl = x.level(s)
        if s == 0:
            levels.append(lvl)
            wits.append((identity_map(lvl), {t: np.eye(lvl.dim(t), dtype=np.int64) for t in lvl.degrees()}))
            continue
        projs, sects = {}, {}
        dims = []
        for t in lvl.degrees():
            span = hstack([x.degen(s - 1, i).block(t) for i in range(s)])
            pr, se = quotient_by_columns(span, lvl.dim(t))
            projs[t], sects[t] = pr, se
            dims.append(pr.rows)
        diffs = {}
        for t in lvl.degrees():
            if t - 1 in projs and projs[t].rows and projs[t - 1].rows:
                diffs[t] = projs[t - 1] @ lvl.d(t) @ sects[t]
        q = ChainComplex.build(p, lvl.lo, dims, diffs)
        proj = ChainMap.build(lvl, q, projs)
        wits.append((proj, {t: sects[t].a for t in sects}))
        levels.append(q)
    return levels, wits


def _moore_levels(x: SimplicialObject):
    """Per-level intersections of the kernels of all but the last face."""
    from .chain import direct_sum

    levels, wits = [], []
    for s in range(x.N + 1):
        lvl = x.level(s)
        if s == 0:
            levels.append(lvl)
            wits.append((identity_map(lvl),))
            continue
        blocks = {
            t: vstack([x.face(s, i).block(t) for i in range(s)])
            for t in lvl.degrees()
        }
        tgt = direct_sum([x.level(s - 1) for _ in range(s)])
        stacked = ChainMap.build(lvl, tgt, blocks)
        k, incl = kernel_complex(stacked)
        levels.append(k)
        wits.append((incl,))
    return levels, wits


def _assemble(levels, dprimes, p: int):
    live = [(s, e) for s, e in enumerate(levels) if not e.is_zero()]
    if not live:
        empty = zero_complex(p)
        return empty, {}
    lo = min(s + e.lo for s, e in live)
    hi = max(s + e.hi for s, e in live)
    layout = {}
    for n in range(lo, hi + 1):
        row, off = [], 0
        for s, e in enumerate(levels):
            d = e.dim(n - s)
            if d:
                row.append((s, n - s, d, off))
                off += d
        layout[n] = tuple(row)
    dims = [sum(d for _, _, d, _ in layout[n]) for n in range(lo, hi + 1)]
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rows = dims[n - 1 - lo]
        cols = dims[n - lo]
        if rows == 0 or cols == 0:
            continue
        m = np.zeros((rows, cols), dtype=np.int64)
        tgt = {(s, t): (off, d) for s, t, d, off in layout[n - 1]}
        for s, t, d, off in layout[n]:
            if (s, t - 1) in tgt:
                o, dd = tgt[(s, t - 1)]
                sign = (-1) ** (s % 2)
                m[o : o + dd, off : off + d] += sign * levels[s].d(t).a
            if s >= 1 and (s - 1, t) in tgt:
                o, dd = tgt[(s - 1, t)]
                m[o : o + dd, off : off + d] += dprimes[s - 1].block(t).a
        diffs[n] = FpMatrix(p, m)
    obj = ChainComplex.build(p, lo, dims, diffs)
    return obj, layout


def total_complex(x: SimplicialObject, mode: str = "normalized") -> TotalComplex:
    if mode not in MODES:
        raise ValidationFailure(f"unknown total complex mode {mode!r}")
    p = x.p
    if mode == "full":
        levels = [x.level(s) for s in range(x.N + 1)]
        wits = tuple(() for _ in levels)
        dprimes = tuple(_alternating_face_sum(x, s) for s in range(1, x.N + 1))
    elif mode == "normalized":
        levels, wit_list = _normalized_levels(x)
        wits = tuple(wit_list)
        dprimes = []
        for s in range(1, x.N + 1):
            proj_lo, _ = wit_list[s - 1]
            _, sects = wit_list[s]
            alt = _alternating_face_sum(x, s)
            blocks = {
                t: proj_lo.block(t) @ alt.block(t) @ FpMatrix(p, sects[t])
                for t in x.level(s).degrees()
            }
            dprimes.append(ChainMap.build(levels[s], levels[s - 1], blocks))
        dprimes = tuple(dprimes)
    else:
        levels, wit_list = _moore_levels(x)
        wits = tuple(wit_list)
        dprimes = []
        for s in range(1, x.N + 1):
            (incl_s,) = wit_list[s]
            (incl_lo,) = wit_list[s - 1]
            last = x.face(s, s).scale((-1) ** (s % 2))
            dprimes.append(factor_through_mono(incl_lo, last @ incl_s))
        dprimes = tuple(dprimes)
    obj, layout = _assemble(levels, dprimes, p)
    return TotalComplex(obj, mode, tuple(levels), dprimes, layout, wits)


def is_skeletal(x: SimplicialObject) -> bool:
    """True when the top level is spanned by degeneracies, so truncation
    lost nothing of the normalized total.  Ranks the degeneracy span
    directly; ``realization_we`` reads the same fact off the top normalized
    level instead."""
    if x.N == 0:
        return True
    lvl = x.level(x.N)
    for t in lvl.degrees():
        span = hstack([x.degen(x.N - 1, i).block(t) for i in range(x.N)])
        if span.rank() < lvl.dim(t):
            return False
    return True


def level_maps(f: SimplicialMap, mode: str, tx: TotalComplex, ty: TotalComplex) -> list[ChainMap]:
    """The maps f induces between the levels of two totals of one mode:
    X_s -> Y_s, X_s/D_sX -> Y_s/D_sY or N_sX -> N_sY."""
    if tx.mode != mode or ty.mode != mode:
        raise ValidationFailure("total complex mode mismatch")
    out = []
    for s in range(f.source.N + 1):
        fs = f.level(s)
        if mode == "full":
            out.append(fs)
        elif mode == "normalized":
            if s == 0:
                out.append(fs)
                continue
            proj_y, _ = ty.witnesses[s]
            _, sects_x = tx.witnesses[s]
            blocks = {
                t: proj_y.block(t) @ fs.block(t) @ FpMatrix(f.p, sects_x[t])
                for t in f.source.level(s).degrees()
            }
            out.append(ChainMap.build(tx.levels[s], ty.levels[s], blocks))
        else:
            (incl_x,) = tx.witnesses[s]
            (incl_y,) = ty.witnesses[s]
            out.append(factor_through_mono(incl_y, fs @ incl_x))
    return out


def total_map(
    f: SimplicialMap,
    mode: str = "normalized",
    tx: TotalComplex | None = None,
    ty: TotalComplex | None = None,
) -> ChainMap:
    if tx is None:
        tx = total_complex(f.source, mode)
    if ty is None:
        ty = total_complex(f.target, mode)
    per_level = level_maps(f, mode, tx, ty)
    blocks = {}
    for n in tx.obj.degrees():
        m = np.zeros((ty.obj.dim(n), tx.obj.dim(n)), dtype=np.int64)
        tgt = {(s, t): (off, d) for s, t, d, off in ty.layout.get(n, ())}
        for s, t, d, off in tx.layout.get(n, ()):
            if (s, t) in tgt:
                o, dd = tgt[(s, t)]
                m[o : o + dd, off : off + d] = per_level[s].block(t).a
        blocks[n] = FpMatrix(f.p, m)
    return ChainMap.build(tx.obj, ty.obj, blocks)


@dataclass(frozen=True)
class RealizationResult:
    """Quasi-isomorphism verdict on the normalized total, with the exactness
    certificate and, on failure, the lowest bad cone degree."""

    we: bool
    exact: bool
    witness: int | None


def realization_we(f: SimplicialMap) -> RealizationResult:
    tx = total_complex(f.source, "normalized")
    ty = total_complex(f.target, "normalized")
    wit = quasi_iso_witness(total_map(f, "normalized", tx, ty))
    top = f.source.N
    exact = top == 0 or (tx.levels[top].is_zero() and ty.levels[top].is_zero())
    return RealizationResult(wit is None, exact, wit)
