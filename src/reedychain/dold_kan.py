"""Simplicial objects from Moore-style tower data.

Input: chain complexes M_0..M_N with structural chain maps
delta_s : M_s -> M_{s-1} composing to zero.  Level n of the output sums one
copy of M_p per monotone surjection [n] ->> [p]; an operator routes the
summand at eta through the epi-mono factorization of its composite.  The
mono part contributes the identity when trivial, delta scaled by (-1)^p
when it misses exactly the top vertex of [p], and zero otherwise.  The sign
matches the kernel-intersection extraction, which recovers the input data
on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ssets as ss
from .chain import ChainComplex, ChainMap, direct_sum_with_maps
from .errors import FieldMismatchError, ValidationFailure
from .linalg import FpMatrix
from .sobj import SimplicialObject


@dataclass(frozen=True)
class DoldKan:
    obj: SimplicialObject
    parts: tuple[ChainComplex, ...]
    deltas: tuple[ChainMap, ...]
    top_inclusions: tuple[ChainMap, ...]  # M_n into level n at the identity epi


def _epis(n: int, j: int):
    full = set(range(j + 1))
    return [a for a in ss.monotone_maps(n, j) if set(a) == full]


def _epi_mono_factor(sigma: tuple[int, ...]):
    """sigma = delta . pi with delta the sorted image and pi position map."""
    delta_t = tuple(sorted(set(sigma)))
    place = {v: i for i, v in enumerate(delta_t)}
    pi = tuple(place[v] for v in sigma)
    return delta_t, pi


def _level_epis(n: int):
    out = []
    for p in range(n + 1):
        out.extend(_epis(n, p))
    return out


def dold_kan(parts, deltas) -> DoldKan:
    parts = tuple(parts)
    deltas = tuple(deltas)
    if len(deltas) != len(parts) - 1:
        raise ValidationFailure("need one structural map per adjacent pair")
    p_mod = parts[0].p
    for c in parts:
        if c.p != p_mod:
            raise FieldMismatchError("tower parts over different primes")
    for s, d in enumerate(deltas, start=1):
        if d.source != parts[s] or d.target != parts[s - 1]:
            raise ValidationFailure(f"structural map {s} has wrong endpoints")
    for s in range(1, len(deltas)):
        if not (deltas[s - 1] @ deltas[s]).is_zero():
            raise ValidationFailure("structural maps do not compose to zero")
    N = len(parts) - 1

    epis = [_level_epis(n) for n in range(N + 1)]
    sums = [
        direct_sum_with_maps([parts[len(set(e)) - 1] for e in epis[n]])
        for n in range(N + 1)
    ]
    levels = tuple(s[0] for s in sums)

    def component(pp: int, eps: tuple[int, ...]) -> ChainMap | None:
        """Map M_pp -> M_q induced by the mono part eps: [q] -> [pp]."""
        if eps == tuple(range(pp + 1)):
            from .chain import identity_map

            return identity_map(parts[pp])
        if eps == tuple(range(pp)):
            return deltas[pp - 1].scale((-1) ** (pp % 2))
        return None

    def operator(n_src: int, n_tgt: int, i: int) -> ChainMap:
        alpha = ss.operator_tuple(n_src, n_tgt, i)
        src_epis, tgt_epis = epis[n_src], epis[n_tgt]
        tgt_index = {e: j for j, e in enumerate(tgt_epis)}
        src_lvl, tgt_lvl = levels[n_src], levels[n_tgt]
        blocks = {}
        placed = []
        for col, eta in enumerate(src_epis):
            pp = len(set(eta)) - 1
            comp_tuple = tuple(eta[v] for v in alpha)
            eps, pi = _epi_mono_factor(comp_tuple)
            m = component(pp, eps)
            if m is None:
                continue
            placed.append((tgt_index[pi], col, m))
        for t in src_lvl.degrees():
            mat = np.zeros((tgt_lvl.dim(t), src_lvl.dim(t)), dtype=np.int64)
            for row_idx, col_idx, m in placed:
                r_off = sum(
                    parts[len(set(e)) - 1].dim(t) for e in tgt_epis[:row_idx]
                )
                c_off = sum(
                    parts[len(set(e)) - 1].dim(t) for e in src_epis[:col_idx]
                )
                b = m.block(t)
                mat[r_off : r_off + b.rows, c_off : c_off + b.cols] += b.a
            blocks[t] = FpMatrix(p_mod, mat)
        return ChainMap.build(src_lvl, tgt_lvl, blocks)

    obj = SimplicialObject(N, levels, *ss.operator_tables(N, operator))
    tops = tuple(
        sums[n][1][epis[n].index(tuple(range(n + 1)))] for n in range(N + 1)
    )
    return DoldKan(obj, parts, deltas, tops)
