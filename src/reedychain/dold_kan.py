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

from itertools import accumulate

import numpy as np

from . import ssets as ss
from .chain import ChainMap, direct_sum, identity_map
from .errors import FieldMismatchError, ValidationFailure
from .linalg import FpMatrix
from .sobj import SimplicialObject


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


def dold_kan(parts, deltas) -> SimplicialObject:
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
    summands = [[parts[len(set(e)) - 1] for e in epis[n]] for n in range(N + 1)]
    levels = tuple(direct_sum(m) for m in summands)
    # offs[n][t][k]: where the summand at epis[n][k] starts in degree t of
    # level n; the top level spans every degree of every part
    offs = [
        {t: list(accumulate((m.dim(t) for m in ms), initial=0)) for t in levels[N].degrees()}
        for ms in summands
    ]
    # the component M_pp -> M_q of a mono part: the identity, or the signed
    # delta for the mono missing the top vertex
    ident = [identity_map(m) for m in parts]
    signed = [None] + [d.scale((-1) ** (s % 2)) for s, d in enumerate(deltas, start=1)]

    def operator(n_src: int, n_tgt: int, i: int) -> ChainMap:
        alpha = ss.operator_tuple(n_src, n_tgt, i)
        tgt_index = {e: j for j, e in enumerate(epis[n_tgt])}
        placed = []
        for col, eta in enumerate(epis[n_src]):
            pp = len(set(eta)) - 1
            eps, pi = _epi_mono_factor(tuple(eta[v] for v in alpha))
            if eps == tuple(range(pp + 1)):
                placed.append((tgt_index[pi], col, ident[pp]))
            elif eps == tuple(range(pp)):
                placed.append((tgt_index[pi], col, signed[pp]))
        src_lvl, tgt_lvl = levels[n_src], levels[n_tgt]
        blocks = {}
        for t in src_lvl.degrees():
            r, c = offs[n_tgt][t], offs[n_src][t]
            mat = np.zeros((r[-1], c[-1]), dtype=np.int64)
            for row, col, m in placed:
                mat[r[row] : r[row + 1], c[col] : c[col + 1]] = m.block(t).a
            blocks[t] = FpMatrix(p_mod, mat)
        return ChainMap.build(src_lvl, tgt_lvl, blocks)

    return SimplicialObject(N, levels, *ss.operator_tables(N, operator))
