"""Geometric realization and its right adjoint, the singular construction.

Over a field the realization |Y|, the coend of Y_n tensor N(Delta^n), is
the normalized total complex of Y (Dold-Kan; Goerss-Jardine III.2), so
``realize`` returns ``totals.total_complex(y, "normalized")`` and maps
realize through ``totals.total_map``.  ``sing`` is the levelwise hom out
of simplex chains, with operators acting by precomposition.  Both stay
inside the truncation everywhere.
"""

from __future__ import annotations

from functools import lru_cache

from . import ssets as ss
from .chain import ChainComplex, ChainMap, hom_complex, hom_postcompose, hom_precompose
from .sobj import SimplicialMap, SimplicialObject
from .totals import TotalComplex, total_complex


@lru_cache(maxsize=None)
def simplex_chains(p: int, N: int, n: int) -> ChainComplex:
    return ss.normalized_chains(ss.delta(N, n), p)


@lru_cache(maxsize=None)
def simplex_chains_map(p: int, N: int, alpha: tuple[int, ...], n: int) -> ChainMap:
    """Chains of the simplex map induced by monotone alpha: [m] -> [n]."""
    return ss.normalized_chains_map(ss.delta_map(N, alpha, n), p)


def realize(y: SimplicialObject) -> TotalComplex:
    """The realization of y: its normalized total complex, read from ``.obj``."""
    return total_complex(y, "normalized")


# ---------------------------------------------------------------------------
# the singular construction


def sing(a: ChainComplex, N: int) -> SimplicialObject:
    """Level n is hom(simplex chains, a); operators precompose.  Each level
    is built once and shared by the operators into and out of it."""
    p = a.p
    levels = tuple(hom_complex(simplex_chains(p, N, n), a) for n in range(N + 1))

    def op(n: int, m: int, i: int) -> ChainMap:
        cm = simplex_chains_map(p, N, ss.operator_tuple(n, m, i), n)
        return hom_precompose(simplex_chains(p, N, n), a, cm, levels[n], levels[m])

    return SimplicialObject(N, levels, *ss.operator_tables(N, op))


def sing_map(g: ChainMap, N: int) -> SimplicialMap:
    src = sing(g.source, N)
    tgt = sing(g.target, N)
    p = g.p
    lv = tuple(
        hom_postcompose(simplex_chains(p, N, n), g, src.level(n), tgt.level(n))
        for n in range(N + 1)
    )
    return SimplicialMap(src, tgt, lv)
