"""Geometric-realization coend and its singular counterpart.

``realize`` glues levels against simplex chains: the cokernel of the
relation map assembled over elementary cofaces and codegeneracies (the
relation for a composite operator is implied).  ``sing`` is the levelwise
hom out of simplex chains, with operators acting by precomposition.  Both
stay inside the truncation everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import ssets as ss
from .chain import (
    ChainComplex,
    ChainMap,
    cokernel_complex,
    direct_sum_with_maps,
    hom_complex,
    hom_postcompose,
    hom_precompose,
    identity_map,
    sphere,
    tensor_complexes,
    tensor_maps,
)
from .errors import ValidationFailure
from .linalg import FpMatrix, block_diag
from .sobj import SimplicialMap, SimplicialObject, _glue_out_of_sum

import numpy as np


@lru_cache(maxsize=None)
def simplex_chains(p: int, N: int, n: int) -> ChainComplex:
    return ss.normalized_chains(ss.delta(N, n), p)


@lru_cache(maxsize=None)
def simplex_chains_map(p: int, N: int, alpha: tuple[int, ...], n: int) -> ChainMap:
    """Chains of the simplex map induced by monotone alpha: [m] -> [n]."""
    return ss.normalized_chains_map(ss.delta_map(N, alpha, n), p)


def coface_tuple(n: int, i: int) -> tuple[int, ...]:
    return tuple(v for v in range(n + 1) if v != i)


def codegen_tuple(n: int, i: int) -> tuple[int, ...]:
    return tuple(v if v <= i else v - 1 for v in range(n + 2))


@dataclass(frozen=True)
class Realization:
    obj: ChainComplex
    amb: ChainComplex
    proj: ChainMap
    sects: dict
    incs: tuple[ChainMap, ...]
    summands: tuple[ChainComplex, ...]


def realize(y: SimplicialObject) -> Realization:
    """Coend of level tensor simplex-chains over the truncated index
    category, presented by elementary operator relations."""
    p, N = y.p, y.N
    summands = tuple(
        tensor_complexes(y.level(n), simplex_chains(p, N, n)) for n in range(N + 1)
    )
    amb, incs, _ = direct_sum_with_maps(list(summands))
    rels = []
    for n in range(1, N + 1):
        for i in range(n + 1):
            theta = coface_tuple(n, i)
            cm = simplex_chains_map(p, N, theta, n)
            rels.append(
                incs[n - 1] @ tensor_maps(y.face(n, i), identity_map(cm.source))
                - incs[n] @ tensor_maps(identity_map(y.level(n)), cm)
            )
    for n in range(N):
        for i in range(n + 1):
            theta = codegen_tuple(n, i)
            cm = simplex_chains_map(p, N, theta, n)
            rels.append(
                incs[n + 1] @ tensor_maps(y.degen(n, i), identity_map(cm.source))
                - incs[n] @ tensor_maps(identity_map(y.level(n)), cm)
            )
    _, rel_map = _glue_out_of_sum(rels, amb, p)
    q, proj, sects = cokernel_complex(rel_map)
    return Realization(q, amb, proj, sects, tuple(incs), summands)


def realize_map(
    f: SimplicialMap, rx: Realization | None = None, ry: Realization | None = None
) -> ChainMap:
    if rx is None:
        rx = realize(f.source)
    if ry is None:
        ry = realize(f.target)
    p, N = f.p, f.source.N
    per = [
        tensor_maps(f.level(n), identity_map(simplex_chains(p, N, n)))
        for n in range(N + 1)
    ]
    blocks = {}
    for t in rx.obj.degrees():
        big = block_diag(p, [m.block(t) for m in per])
        blocks[t] = ry.proj.block(t) @ big @ rx.sects[t]
    return ChainMap.build(rx.obj, ry.obj, blocks)


def augmentation(p: int, N: int, n: int) -> ChainMap:
    """Simplex chains to the point: every vertex to the generator."""
    c = simplex_chains(p, N, n)
    pt = sphere(p, 0)
    row = np.ones((1, c.dim(0)), dtype=np.int64)
    return ChainMap.build(c, pt, {0: FpMatrix(p, row)})


def realize_constant_comparison(a: ChainComplex, N: int) -> ChainMap:
    """The iso from the realization of the constant object back to its
    value, induced by the augmentations."""
    from .sobj import constant

    p = a.p
    r = realize(constant(N, a))
    legs = []
    for n in range(N + 1):
        aug = augmentation(p, N, n)
        leg = tensor_maps(identity_map(a), aug)
        if leg.target != a:
            raise ValidationFailure("tensor with the point did not collapse")
        legs.append(leg)
    blocks = {}
    for t in r.obj.degrees():
        from .linalg import hstack

        u = hstack([legs[n].block(t) for n in range(N + 1)])
        blocks[t] = u @ r.sects[t]
    return ChainMap.build(r.obj, a, blocks)


# ---------------------------------------------------------------------------
# the singular construction


def sing(a: ChainComplex, N: int) -> SimplicialObject:
    """Level n is hom(simplex chains, a); operators precompose.  Each level
    is built once and shared by the operators into and out of it."""
    p = a.p
    levels = tuple(hom_complex(simplex_chains(p, N, n), a) for n in range(N + 1))
    faces = []
    for n in range(1, N + 1):
        row = []
        for i in range(n + 1):
            cm = simplex_chains_map(p, N, coface_tuple(n, i), n)
            row.append(
                hom_precompose(simplex_chains(p, N, n), a, cm, levels[n], levels[n - 1])
            )
        faces.append(tuple(row))
    degens = []
    for n in range(N):
        row = []
        for i in range(n + 1):
            cm = simplex_chains_map(p, N, codegen_tuple(n, i), n)
            row.append(
                hom_precompose(simplex_chains(p, N, n), a, cm, levels[n], levels[n + 1])
            )
        degens.append(tuple(row))
    return SimplicialObject(N, levels, tuple(faces), tuple(degens))


def sing_map(g: ChainMap, N: int) -> SimplicialMap:
    src = sing(g.source, N)
    tgt = sing(g.target, N)
    p = g.p
    lv = tuple(
        hom_postcompose(simplex_chains(p, N, n), g, src.level(n), tgt.level(n))
        for n in range(N + 1)
    )
    return SimplicialMap(src, tgt, lv)
