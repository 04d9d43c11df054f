"""Total complexes of simplicial objects, full and normalized, and the
maps f induces between normalized totals.

The full mode sums every level; the normalized mode first divides each
level by the span of the degeneracy images, the quotient
``sobj.degeneracy_quotient`` builds (the alternating face sum descends
because its identity terms cancel in pairs).  Over a field the normalized
level X_n/D_nX is naturally isomorphic to the Moore level, the intersection
of the kernels of all faces but the last, and the alternating sum goes to
(-1)^n times the last face (Goerss-Jardine III.2), so Moore cycles and
Moore homology are read off the normalized total.

A truncated object only determines its realization up to the truncation.
The ``exact`` flag on a realization verdict certifies that nothing was cut:
it holds when the top normalized level vanishes on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .chain import ChainComplex, ChainMap, quasi_iso_witness, zero_complex
from .errors import ValidationFailure
from .linalg import FpMatrix
from .sobj import SimplicialMap, SimplicialObject, degeneracy_quotient

MODES = ("full", "normalized")


@dataclass(frozen=True)
class TotalComplex:
    """The levels and the d' of a total; the assembled complex ``obj`` is
    built on first read, since Moore's criterion reads only the levels."""

    levels: tuple[ChainComplex, ...]
    dprimes: tuple  # dprimes[s-1] : levels[s] -> levels[s-1]
    witnesses: tuple  # per level: () for full, (proj, sects) for normalized

    @cached_property
    def obj(self) -> ChainComplex:
        return _assemble(self.levels, self.dprimes, self.levels[0].p)


def _alternating_face_sum(x: SimplicialObject, s: int) -> ChainMap:
    src = x.level(s)
    blocks = {
        t: FpMatrix(x.p, sum((-1) ** i * x.face(s, i).block(t).a for i in range(s + 1)))
        for t in src.degrees()
    }
    return ChainMap.build(src, x.level(s - 1), blocks)


def _offsets(levels, n: int) -> list[int]:
    """Where level s starts in total degree n; the last entry is dim_n."""
    return list(accumulate((e.dim(n - s) for s, e in enumerate(levels)), initial=0))


def _assemble(levels, dprimes, p: int) -> ChainComplex:
    """(-1)^s d of level s on the diagonal block, d' of level s one block up."""
    live = [(s, e) for s, e in enumerate(levels) if not e.is_zero()]
    if not live:
        return zero_complex(p)
    lo = min(s + e.lo for s, e in live)
    hi = max(s + e.hi for s, e in live)
    offs = {n: _offsets(levels, n) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        r, c = offs[n - 1], offs[n]
        m = np.zeros((r[-1], c[-1]), dtype=np.int64)
        for s in range(len(levels)):
            if c[s] == c[s + 1]:
                continue
            if r[s] < r[s + 1]:
                m[r[s] : r[s + 1], c[s] : c[s + 1]] = (-1) ** (s % 2) * levels[s].d(n - s).a
            if s and r[s - 1] < r[s]:
                m[r[s - 1] : r[s], c[s] : c[s + 1]] = dprimes[s - 1].block(n - s).a
        diffs[n] = FpMatrix(p, m)
    return ChainComplex.build(p, lo, [offs[n][-1] for n in range(lo, hi + 1)], diffs)


def total_complex(x: SimplicialObject, mode: str = "normalized") -> TotalComplex:
    if mode not in MODES:
        raise ValidationFailure(f"unknown total complex mode {mode!r}")
    alts = [_alternating_face_sum(x, s) for s in range(1, x.N + 1)]
    if mode == "full":
        levels = [x.level(s) for s in range(x.N + 1)]
        wits = tuple(() for _ in levels)
        dprimes = tuple(alts)
    else:
        quots = [degeneracy_quotient(x, s) for s in range(x.N + 1)]
        levels = [q for q, _, _ in quots]
        wits = tuple((proj, sects) for _, proj, sects in quots)
        dprimes = []
        for s, alt in enumerate(alts, start=1):
            proj_lo, _ = wits[s - 1]
            _, sects = wits[s]
            blocks = {t: proj_lo.block(t) @ alt.block(t) @ sects[t] for t in x.level(s).degrees()}
            dprimes.append(ChainMap.build(levels[s], levels[s - 1], blocks))
        dprimes = tuple(dprimes)
    return TotalComplex(tuple(levels), dprimes, wits)


def level_maps(f: SimplicialMap, tx: TotalComplex, ty: TotalComplex) -> list[ChainMap]:
    """The maps N_sf: X_s/D_sX -> Y_s/D_sY between two normalized totals."""
    out = []
    for s in range(f.source.N + 1):
        proj_y, _ = ty.witnesses[s]
        _, sects_x = tx.witnesses[s]
        blocks = {
            t: proj_y.block(t) @ f.level(s).block(t) @ sects_x[t]
            for t in f.source.level(s).degrees()
        }
        out.append(ChainMap.build(tx.levels[s], ty.levels[s], blocks))
    return out


def total_map(
    f: SimplicialMap,
    tx: TotalComplex | None = None,
    ty: TotalComplex | None = None,
    per_level: list[ChainMap] | None = None,
) -> ChainMap:
    """The map of normalized totals; totals and their ``level_maps`` passed
    in are used as given."""
    if tx is None:
        tx = total_complex(f.source)
    if ty is None:
        ty = total_complex(f.target)
    if per_level is None:
        per_level = level_maps(f, tx, ty)
    blocks = {}
    for n in tx.obj.degrees():
        r, c = _offsets(ty.levels, n), _offsets(tx.levels, n)
        m = np.zeros((r[-1], c[-1]), dtype=np.int64)
        for s, g in enumerate(per_level):
            if r[s] < r[s + 1] and c[s] < c[s + 1]:
                m[r[s] : r[s + 1], c[s] : c[s + 1]] = g.block(n - s).a
        blocks[n] = FpMatrix(f.p, m)
    return ChainMap.build(tx.obj, ty.obj, blocks)


@dataclass(frozen=True)
class RealizationResult:
    """Quasi-isomorphism verdict on the normalized total, with the exactness
    certificate and, on failure, the lowest bad cone degree."""

    we: bool
    exact: bool
    witness: int | None

    @property
    def flag(self) -> str:
        return "exact" if self.exact else "truncation-limited"


def realization_we(
    f: SimplicialMap,
    tx: TotalComplex | None = None,
    ty: TotalComplex | None = None,
    per_level: list[ChainMap] | None = None,
) -> RealizationResult:
    """Realization verdict on f.  Normalized totals and their
    ``level_maps`` passed in are used as given, so a caller that already
    built them shares them."""
    if tx is None:
        tx = total_complex(f.source, "normalized")
    if ty is None:
        ty = total_complex(f.target, "normalized")
    wit = quasi_iso_witness(total_map(f, tx, ty, per_level))
    top = f.source.N
    exact = top == 0 or (tx.levels[top].is_zero() and ty.levels[top].is_zero())
    return RealizationResult(wit is None, exact, wit)
