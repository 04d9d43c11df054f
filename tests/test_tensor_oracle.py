"""Differential tests of the six tensor functions of ``sobj`` against the
Kronecker-product construction they replaced.

The reference path kept here builds every routing block as
``np.kron(M, B)``: M is the 0/1 matrix of a simplex operator table (or of a
simplicial set map) and B is the block of the chain-level operator, or the
identity.  The three chain-complex forms are built directly, not as the
constant-object case.  Every comparison is ``==`` on the full structure:
levels, operators and level maps.
"""

import numpy as np
import pytest

from reedychain import chain as ch
from reedychain import fixtures as fx
from reedychain import harness as hn
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain.config import Manifest
from reedychain.linalg import FpMatrix

P = 7


# ---------------------------------------------------------------------------
# reference path


def _copies_complex(a: ch.ChainComplex, count: int) -> ch.ChainComplex:
    if count == 0 or a.is_zero():
        return ch.zero_complex(a.p)
    dims = [count * d for d in a.dims]
    diffs = {}
    for t in a.degrees():
        if a.dim(t) and a.dim(t - 1):
            diffs[t] = FpMatrix(a.p, np.kron(np.eye(count, dtype=np.int64), a.d(t).a))
    return ch.ChainComplex.build(a.p, a.lo, dims, diffs)


def _index_matrix(card_tgt: int, table) -> np.ndarray:
    m = np.zeros((card_tgt, len(table)), dtype=np.int64)
    for src, tgt in enumerate(table):
        m[tgt, src] = 1
    return m


def _routed_block(p: int, mperm: np.ndarray, fb: FpMatrix) -> FpMatrix:
    if mperm.size == 0 or fb.rows * fb.cols == 0:
        shape = (mperm.shape[0] * fb.rows, mperm.shape[1] * fb.cols)
        return FpMatrix(p, np.zeros(shape, dtype=np.int64))
    return FpMatrix(p, np.kron(mperm, fb.a))


def ref_tensor_with_sset(a: ch.ChainComplex, k: ss.SSet) -> so.SimplicialObject:
    levels = tuple(_copies_complex(a, k.card(n)) for n in range(k.N + 1))

    def op_map(src_lvl, tgt_lvl, table, card_tgt):
        mperm = _index_matrix(card_tgt, table)
        blocks = {
            t: FpMatrix(a.p, np.kron(mperm, np.eye(a.dim(t), dtype=np.int64)))
            for t in a.degrees()
        }
        return ch.ChainMap.build(src_lvl, tgt_lvl, blocks)

    faces = tuple(
        tuple(
            op_map(levels[n], levels[n - 1], k.faces[n - 1][i], k.card(n - 1))
            for i in range(n + 1)
        )
        for n in range(1, k.N + 1)
    )
    degens = tuple(
        tuple(
            op_map(levels[n], levels[n + 1], k.degens[n][i], k.card(n + 1))
            for i in range(n + 1)
        )
        for n in range(k.N)
    )
    return so.SimplicialObject(k.N, levels, faces, degens)


def ref_tensor_chain_map(f: ch.ChainMap, k: ss.SSet) -> so.SimplicialMap:
    src = ref_tensor_with_sset(f.source, k)
    tgt = ref_tensor_with_sset(f.target, k)
    lv = []
    for n in range(k.N + 1):
        blocks = {
            t: FpMatrix(f.p, np.kron(np.eye(k.card(n), dtype=np.int64), f.block(t).a))
            for t in f.source.degrees()
        }
        lv.append(ch.ChainMap.build(src.level(n), tgt.level(n), blocks))
    return so.SimplicialMap(src, tgt, tuple(lv))


def ref_tensor_sset_map(a: ch.ChainComplex, g: ss.SSetMap) -> so.SimplicialMap:
    src = ref_tensor_with_sset(a, g.source)
    tgt = ref_tensor_with_sset(a, g.target)
    lv = []
    for n in range(g.source.N + 1):
        mperm = _index_matrix(g.target.card(n), g.levels[n])
        blocks = {
            t: FpMatrix(a.p, np.kron(mperm, np.eye(a.dim(t), dtype=np.int64)))
            for t in a.degrees()
        }
        lv.append(ch.ChainMap.build(src.level(n), tgt.level(n), blocks))
    return so.SimplicialMap(src, tgt, tuple(lv))


def ref_tensor_sobj_with_sset(x: so.SimplicialObject, k: ss.SSet) -> so.SimplicialObject:
    levels = tuple(_copies_complex(x.level(n), k.card(n)) for n in range(k.N + 1))

    def op_map(src_lvl, tgt_lvl, inner, table, card_tgt):
        mperm = _index_matrix(card_tgt, table)
        blocks = {t: _routed_block(x.p, mperm, inner.block(t)) for t in inner.source.degrees()}
        return ch.ChainMap.build(src_lvl, tgt_lvl, blocks)

    faces = tuple(
        tuple(
            op_map(levels[n], levels[n - 1], x.face(n, i), k.faces[n - 1][i], k.card(n - 1))
            for i in range(n + 1)
        )
        for n in range(1, k.N + 1)
    )
    degens = tuple(
        tuple(
            op_map(levels[n], levels[n + 1], x.degen(n, i), k.degens[n][i], k.card(n + 1))
            for i in range(n + 1)
        )
        for n in range(k.N)
    )
    return so.SimplicialObject(k.N, levels, faces, degens)


def ref_tensor_smap_with_sset(f: so.SimplicialMap, k: ss.SSet) -> so.SimplicialMap:
    src = ref_tensor_sobj_with_sset(f.source, k)
    tgt = ref_tensor_sobj_with_sset(f.target, k)
    lv = []
    for n in range(k.N + 1):
        ident = np.eye(k.card(n), dtype=np.int64)
        blocks = {
            t: _routed_block(f.p, ident, f.level(n).block(t))
            for t in f.source.level(n).degrees()
        }
        lv.append(ch.ChainMap.build(src.level(n), tgt.level(n), blocks))
    return so.SimplicialMap(src, tgt, tuple(lv))


def ref_tensor_sobj_sset_map(x: so.SimplicialObject, g: ss.SSetMap) -> so.SimplicialMap:
    src = ref_tensor_sobj_with_sset(x, g.source)
    tgt = ref_tensor_sobj_with_sset(x, g.target)
    lv = []
    for n in range(g.source.N + 1):
        mperm = _index_matrix(g.target.card(n), g.levels[n])
        ident = ch.identity_map(x.level(n))
        blocks = {t: _routed_block(x.p, mperm, ident.block(t)) for t in x.level(n).degrees()}
        lv.append(ch.ChainMap.build(src.level(n), tgt.level(n), blocks))
    return so.SimplicialMap(src, tgt, tuple(lv))


# ---------------------------------------------------------------------------
# inputs


def shapes(N: int, seeds: int = 4) -> list[ss.SSet]:
    out = [ss.delta(N, n) for n in range(N + 1)]
    out += [ss.boundary_inclusion(N, n).source for n in range(N + 1)]
    out += [ss.horn_inclusion(N, n, k).source for n in range(1, N + 1) for k in range(n + 1)]
    out += [sm.random_sset(N, sm.rng_for(f"tensor-oracle:sset:{N}:{s}")) for s in range(seeds)]
    return out


def complexes() -> list[ch.ChainComplex]:
    man = Manifest(p=P, trunc=2, window=(-2, 4), cap=4096, seed=0, samples=20)
    out = [fx.fixture(name, man) for name in ("sphere:0", "sphere:2", "disk:1")]
    out.append(ch.zero_complex(P))
    out += [sm.random_complex(P, sm.rng_for(f"tensor-oracle:complex:{s}")) for s in range(4)]
    return out


def chain_maps() -> list[ch.ChainMap]:
    out = [ch.sphere_disk_inclusion(P, 1), ch.zero_map(ch.zero_complex(P), ch.sphere(P, 0))]
    for s in range(4):
        rng = sm.rng_for(f"tensor-oracle:map:{s}")
        a, b = sm.random_complex(P, rng), sm.random_complex(P, rng)
        out.append(sm.random_chain_map(a, b, rng))
    return out


def sobj_maps(N: int) -> list[so.SimplicialMap]:
    out = [so.constant_map(N, f) for f in chain_maps()[:2]]
    out += [sm.random_small_map(P, N, sm.rng_for(f"tensor-oracle:smap:{N}:{s}")) for s in range(3)]
    return out


def sobjs(N: int) -> list[so.SimplicialObject]:
    out = [so.constant(N, a) for a in complexes()[:4]]
    out += [sm.sample("random_sobj", P, N, seed=s) for s in range(2)]
    for f in sobj_maps(N)[2:]:
        out += [f.source, f.target]
    return out


# ---------------------------------------------------------------------------
# differential tests


@pytest.mark.parametrize("N", (1, 2, 3))
def test_chain_complex_forms_equal_reference(N):
    for k in shapes(N):
        for a in complexes():
            assert so.tensor_with_sset(a, k) == ref_tensor_with_sset(a, k)
        for f in chain_maps():
            assert so.tensor_chain_map(f, k) == ref_tensor_chain_map(f, k)
    for _, g in hn.injective_pool(N):
        for a in complexes():
            assert so.tensor_sset_map(a, g) == ref_tensor_sset_map(a, g)


@pytest.mark.parametrize("N", (1, 2, 3))
def test_simplicial_object_forms_equal_reference(N):
    for k in shapes(N, seeds=2):
        for x in sobjs(N):
            assert so.tensor_sobj_with_sset(x, k) == ref_tensor_sobj_with_sset(x, k)
        for f in sobj_maps(N):
            assert so.tensor_smap_with_sset(f, k) == ref_tensor_smap_with_sset(f, k)
    for _, g in hn.injective_pool(N):
        for x in sobjs(N):
            assert so.tensor_sobj_sset_map(x, g) == ref_tensor_sobj_sset_map(x, g)


def test_zero_complex_tensors_to_zero_levels():
    k = ss.delta(2, 2)
    x = so.tensor_with_sset(ch.zero_complex(P), k)
    assert x == ref_tensor_with_sset(ch.zero_complex(P), k)
    assert all(lvl.is_zero() for lvl in x.levels)
