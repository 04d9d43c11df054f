"""Oracles for total complexes of simplicial objects.

Hand-computed values: the full total of a constant object picks up a
spurious top class at odd truncation that the degeneracy-normalized total
removes; the normalized total of a simplex tensor recovers the tensor with
the simplex chains.  The Moore total from ``test_reedy_oracle`` is checked
beside the library's normalized total and total map.

``ref_assemble`` and ``ref_total_map`` are the builders the library
replaced: they list every nonzero (level, degree) block of each total
degree with its running offset and match source and target blocks by key.
The library places the blocks at offsets computed once per degree; both
must give equal complexes and maps.
"""

import numpy as np
import pytest

from reedychain import chain as ch
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain import totals as tt
from reedychain.errors import ResourceCapError, ValidationFailure
from reedychain.linalg import FpMatrix
from test_realize_oracle import is_skeletal
from test_reedy_oracle import moore_total, moore_total_map

P = 7


def test_full_total_constant_odd_truncation():
    x = so.constant(1, ch.sphere(P, 0))
    t = tt.total_complex(x, mode="full")
    assert t.obj.dims == (1, 1)
    assert ch.homology_dims(t.obj) == {0: 1, 1: 1}


def test_full_total_constant_even_truncation():
    x = so.constant(2, ch.sphere(P, 0))
    t = tt.total_complex(x, mode="full")
    assert t.obj.dims == (1, 1, 1)
    assert ch.homology_dims(t.obj) == {0: 1}


def test_normalized_total_constant():
    for n in (1, 2, 3):
        x = so.constant(n, ch.sphere(P, 0))
        t = tt.total_complex(x, mode="normalized")
        assert t.obj.dims == (1,)
        assert ch.homology_dims(t.obj) == {0: 1}
        assert is_skeletal(x)


def test_moore_total_matches_normalized_dims():
    cases = [
        so.constant(2, ch.direct_sum([ch.sphere(P, 0), ch.disk(P, 2)])),
        so.tensor_with_sset(ch.sphere(P, 1), ss.delta(2, 1)),
        so.tensor_with_sset(ch.disk(P, 1), ss.boundary_inclusion(2, 2).source),
    ]
    for x in cases:
        tn = tt.total_complex(x, mode="normalized")
        tm = moore_total(x)
        assert tn.obj.dims == tm.obj.dims
        assert tn.obj.lo == tm.obj.lo
        assert ch.homology_dims(tn.obj) == ch.homology_dims(tm.obj)


def test_normalized_total_of_tensor_is_kunneth():
    a = ch.sphere(P, 1)
    k = ss.boundary_inclusion(2, 2).source
    x = so.tensor_with_sset(a, k)
    t = tt.total_complex(x, mode="normalized")
    assert ch.homology_dims(t.obj) == {1: 1, 2: 1}
    ck = ss.normalized_chains(k, P)
    ref = ch.tensor_complexes(ck, a)
    assert ch.homology_dims(t.obj) == ch.homology_dims(ref)


def totals_and_maps():
    """(total, total map): the library's normalized pair, then the Moore
    reference."""
    return [(tt.total_complex, tt.total_map), (moore_total, moore_total_map)]


def test_total_validates():
    x = so.tensor_with_sset(ch.disk(P, 1), ss.delta(2, 1))
    ch.validate_complex(tt.total_complex(x, mode="full").obj)
    for total, _ in totals_and_maps():
        ch.validate_complex(total(x).obj)


def test_total_map_identity_and_compose():
    k = ss.delta(2, 1)
    f = ch.sphere_disk_inclusion(P, 2)
    tf = so.tensor_chain_map(f, k)
    for total, total_map in totals_and_maps():
        tx = total(tf.source)
        ty = total(tf.target)
        m = total_map(tf, tx=tx, ty=ty)
        ch.validate_map(m)
        ident = total_map(so.identity_smap(tf.source), tx=tx, ty=tx)
        assert ident == ch.identity_map(tx.obj)
        g = so.tensor_chain_map(ch.zero_map(f.target, f.target), k)
        comp = total_map(g @ tf, tx=tx, ty=ty)
        assert comp == total_map(g, tx=ty, ty=ty) @ m


def test_total_complex_refuses_unknown_mode():
    x = so.tensor_with_sset(ch.disk(P, 1), ss.delta(2, 1))
    with pytest.raises(ValidationFailure):
        tt.total_complex(x, mode="moore")


def test_realization_we_constant_maps():
    f = ch.sphere_disk_inclusion(P, 1)  # not a quasi-iso
    r = tt.realization_we(so.constant_map(2, f))
    assert r.we is False
    assert r.exact is True
    assert r.witness is not None
    g = ch.identity_map(ch.disk(P, 3))
    r2 = tt.realization_we(so.constant_map(2, g))
    assert r2.we is True
    assert r2.exact is True


def test_realization_we_horn_tensor():
    g = ss.horn_inclusion(2, 1, 0)
    r = tt.realization_we(so.tensor_sset_map(ch.sphere(P, 0), g))
    assert r.we is True
    assert r.exact is True


def test_boundary_tensor_not_we():
    # at N = 2 the 2-simplex still has its nondegenerate top cell, so the
    # verdict is truncation-honest but not certified exact
    g = ss.boundary_inclusion(2, 2)
    r = tt.realization_we(so.tensor_sset_map(ch.sphere(P, 0), g))
    assert r.we is False
    assert r.exact is False
    # one level higher both ends are skeletal and the verdict is exact
    g3 = ss.boundary_inclusion(3, 2)
    r3 = tt.realization_we(so.tensor_sset_map(ch.sphere(P, 0), g3))
    assert r3.we is False
    assert r3.exact is True
    assert r3.witness == 2


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("kind", sm.KINDS)
def test_realization_exact_is_skeletal_ends(kind, N):
    """The exactness flag, read off the top normalized levels, agrees with
    ranking the top degeneracy span of both ends directly."""
    checked = 0
    for seed in range(4):
        try:
            f = sm.sample(kind, P, N, seed=seed, cap=512)
        except ResourceCapError:
            continue
        if kind == "random_sobj":
            f = so.identity_smap(f)
        want = is_skeletal(f.source) and is_skeletal(f.target)
        assert tt.realization_we(f).exact == want, seed
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("N", (2, 3))
def test_totals_assemble_on_first_read(N, monkeypatch):
    """Moore's criterion reads only levels and d': ``reedy_fib_witness``
    alone assembles no total.  ``classify`` assembles each end once, for the
    realization verdict, and what it reads equals the eager assembly."""
    from reedychain import classify as cl

    calls = []
    assemble = tt._assemble

    def counted(levels, dprimes, p):
        calls.append(len(levels))
        return assemble(levels, dprimes, p)

    monkeypatch.setattr(tt, "_assemble", counted)
    for kind in ("reedy_fibration", "equifibered_fibration", "reedy_cofibration"):
        f = sm.sample(kind, P, N, seed=0, cap=512)
        del calls[:]
        cl.reedy_fib_witness(f)
        assert calls == []
        cl.classify(f, check_invariant=False)
        assert len(calls) == 2
        del calls[:]
        for x in (f.source, f.target):
            t = tt.total_complex(x, "normalized")
            assert t.obj == assemble(t.levels, t.dprimes, P)
            assert t.obj is t.obj and len(calls) == 1
            del calls[:]


def ref_assemble(levels, dprimes, p: int):
    """(total, layout) with layout[n] the (s, t, dim, offset) of each
    nonzero level block in total degree n."""
    live = [(s, e) for s, e in enumerate(levels) if not e.is_zero()]
    if not live:
        return ch.zero_complex(p), {}
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
        rows, cols = dims[n - 1 - lo], dims[n - lo]
        if rows == 0 or cols == 0:
            continue
        m = np.zeros((rows, cols), dtype=np.int64)
        tgt = {(s, t): (off, d) for s, t, d, off in layout[n - 1]}
        for s, t, d, off in layout[n]:
            if (s, t - 1) in tgt:
                o, dd = tgt[(s, t - 1)]
                m[o : o + dd, off : off + d] += (-1) ** (s % 2) * levels[s].d(t).a
            if s >= 1 and (s - 1, t) in tgt:
                o, dd = tgt[(s - 1, t)]
                m[o : o + dd, off : off + d] += dprimes[s - 1].block(t).a
        diffs[n] = FpMatrix(p, m)
    return ch.ChainComplex.build(p, lo, dims, diffs), layout


def ref_total_map(f, tx, ty, per_level) -> ch.ChainMap:
    """Each level map's block written where the two layouts hold the same
    (level, degree) key."""
    _, lx = ref_assemble(tx.levels, tx.dprimes, f.p)
    _, ly = ref_assemble(ty.levels, ty.dprimes, f.p)
    blocks = {}
    for n in tx.obj.degrees():
        m = np.zeros((ty.obj.dim(n), tx.obj.dim(n)), dtype=np.int64)
        tgt = {(s, t): (off, d) for s, t, d, off in ly.get(n, ())}
        for s, t, d, off in lx.get(n, ()):
            if (s, t) in tgt:
                o, dd = tgt[(s, t)]
                m[o : o + dd, off : off + d] = per_level[s].block(t).a
        blocks[n] = FpMatrix(f.p, m)
    return ch.ChainMap.build(tx.obj, ty.obj, blocks)


def sampled_maps():
    """A few draws of every kind at N = 1..3 over F_3 and F_101; an object
    stands for its identity."""
    out = []
    for kind in sm.KINDS:
        for N in (1, 2, 3):
            for seed, p in enumerate((3, 101)):
                try:
                    f = sm.draw(kind, p, N, seed, cap=512)
                except ResourceCapError:
                    continue
                out.append(so.identity_smap(f) if kind == "random_sobj" else f)
    return out


@pytest.mark.parametrize("mode", tt.MODES)
def test_assemble_matches_layout_reference(mode):
    for f in sampled_maps():
        for x in (f.source, f.target):
            t = tt.total_complex(x, mode)
            assert t.obj == ref_assemble(t.levels, t.dprimes, x.p)[0]


def test_total_map_matches_layout_reference():
    for f in sampled_maps():
        tx, ty = tt.total_complex(f.source), tt.total_complex(f.target)
        per_level = tt.level_maps(f, tx, ty)
        assert tt.total_map(f, tx, ty, per_level) == ref_total_map(f, tx, ty, per_level)
