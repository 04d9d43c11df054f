"""Oracles for simplicial objects in chain complexes.

The latching and matching values for constant objects were derived by hand
(connected index category for latching at n >= 1; discrete two-object
category for matching at n = 1) and frozen here before implementation.
"""

import numpy as np
import pytest

from reedychain import chain as ch
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain.dold_kan import dold_kan
from reedychain.errors import ValidationFailure
from reedychain.linalg import FpMatrix
from test_reedy_oracle import fiber, structure_map
from test_ssets import operator_action

P = 7


def sph(n):
    return ch.sphere(P, n)


def test_constant_validates():
    x = so.constant(3, ch.direct_sum([sph(0), sph(2)]))
    so.validate_sobj(x)
    assert x.level(0) == ch.direct_sum([sph(0), sph(2)])


def test_tensor_with_sset_validates():
    a = ch.disk(P, 1)
    x = so.tensor_with_sset(a, ss.delta(2, 1))
    so.validate_sobj(x)
    assert x.level(0).total_dim() == 2 * a.total_dim()
    assert x.level(1).total_dim() == 3 * a.total_dim()
    assert x.level(2).total_dim() == 4 * a.total_dim()


def test_validate_catches_broken_degeneracy():
    x = so.constant(2, sph(0))
    degens = list(list(row) for row in x.degens)
    degens[0][0] = ch.zero_map(x.level(0), x.level(1))
    bad = so.SimplicialObject(x.N, x.levels, x.faces, tuple(tuple(r) for r in degens))
    with pytest.raises(ValidationFailure):
        so.validate_sobj(bad)


def test_structure_map_identity_and_constants():
    x = so.constant(3, ch.direct_sum([sph(0), sph(1)]))
    for n in range(4):
        ident = tuple(range(n + 1))
        assert structure_map(x, ident, n) == ch.identity_map(x.level(n))
    # on a constant object every operator acts as the identity
    m = structure_map(x, (0, 0, 2), 3)
    assert m == ch.identity_map(x.level(3)) @ m  # shape sanity
    assert m.block(0) == ch.identity_map(x.level(0)).block(0)


def test_structure_map_matches_sset_action():
    a = sph(0)
    k = ss.delta(3, 2)
    x = so.tensor_with_sset(a, k)
    for n in range(4):
        for mm in range(4):
            for alpha in ss.monotone_maps(mm, n)[:6]:
                act = operator_action(k, alpha, n)
                sm = structure_map(x, alpha, n)
                mat = np.zeros((k.card(mm), k.card(n)), dtype=np.int64)
                for src, tgt in enumerate(act):
                    mat[tgt, src] = 1
                assert sm.block(0).tolists() == mat.tolist()


def test_latching_bottom_levels():
    a = ch.direct_sum([sph(0), sph(1)])
    x = so.constant(3, a)
    l0 = so.latching(x, 0)
    assert l0.obj.is_zero()
    for n in (1, 2, 3):
        ln = so.latching(x, n)
        assert ln.obj.total_dim() == a.total_dim()
        assert ch.is_iso(ln.to_level)


def test_latching_of_simplex_tensor():
    a = sph(0)
    x = so.tensor_with_sset(a, ss.delta(2, 1))
    l1 = so.latching(x, 1)
    assert l1.obj.total_dim() == 2  # X_0, two vertices
    assert ch.mono_witness(l1.to_level) is None
    l2 = so.latching(x, 2)
    # every 2-simplex of the interval is degenerate, so this is onto
    assert l2.obj.total_dim() == 4
    assert ch.is_iso(l2.to_level)
    y = so.tensor_with_sset(a, ss.delta(2, 2))
    l2y = so.latching(y, 2)
    # nine of the ten 2-simplices of the triangle are degenerate
    assert l2y.obj.total_dim() == 9
    assert ch.mono_witness(l2y.to_level) is None
    assert not ch.is_epi(l2y.to_level)


def test_matching_bottom_levels():
    a = ch.direct_sum([sph(0), sph(1)])
    x = so.constant(3, a)
    m0 = so.matching(x, 0)
    assert m0.obj.is_zero()
    assert ch.is_epi(m0.from_level)
    m1 = so.matching(x, 1)
    # discrete two-object matching category: the diagonal is not epi
    assert m1.obj.total_dim() == 2 * a.total_dim()
    assert ch.mono_witness(m1.from_level) is None
    assert not ch.is_epi(m1.from_level)
    for n in (2, 3):
        mn = so.matching(x, n)
        assert mn.obj.total_dim() == a.total_dim()
        assert ch.is_iso(mn.from_level)


def test_matching_of_simplex_tensor():
    a = sph(0)
    x = so.tensor_with_sset(a, ss.delta(2, 1))
    m1 = so.matching(x, 1)
    assert m1.obj.total_dim() == 4
    assert ch.mono_witness(m1.from_level) is None
    assert not ch.is_epi(m1.from_level)


def test_matching_map_of_constant_map():
    f = ch.sphere_disk_inclusion(P, 1)
    sf = so.constant_map(2, f)
    mf = so.matching_map_of(sf, 1)
    assert mf.source.total_dim() == 2 * f.source.total_dim()
    assert ch.mono_witness(mf) is None


def test_cotensor_yoneda():
    for x in (
        so.constant(2, ch.direct_sum([sph(0), sph(1)])),
        so.tensor_with_sset(ch.disk(P, 1), ss.delta(2, 1)),
    ):
        for n in (0, 1, 2):
            ct = so.cotensor0(x, ss.delta(x.N, n))
            proj = so.yoneda_projection(x, n, ct)
            assert ch.is_iso(proj)


def test_cotensor_boundary_is_matching():
    for x in (
        so.constant(2, ch.direct_sum([sph(0), sph(1)])),
        so.tensor_with_sset(sph(0), ss.delta(2, 1)),
    ):
        for n in (1, 2):
            cmp_map = so.boundary_cotensor_from_matching(x, n)
            assert ch.is_iso(cmp_map)


def test_cotensor_restrict_composes():
    x = so.tensor_with_sset(sph(0), ss.delta(2, 1))
    i = ss.boundary_inclusion(2, 2)
    big = so.cotensor0(x, i.target)
    small = so.cotensor0(x, i.source)
    r = so.cotensor_restrict(i, big, small)
    assert r.source == big.obj
    assert r.target == small.obj
    ch.validate_map(r)


def test_pushout_pullback_levelwise():
    a = so.constant(2, sph(0))
    b = so.constant(2, ch.disk(P, 1))
    z = so.constant_map(2, ch.zero_map(ch.zero_complex(P), sph(0)))
    w = so.constant_map(2, ch.zero_map(ch.zero_complex(P), ch.disk(P, 1)))
    res = so.pushout_sobj(z, w)
    so.validate_sobj(res.obj)
    so.validate_smap(res.left)
    assert res.obj.level(0).total_dim() == 3
    pb = so.pullback_sobj(
        so.constant_map(2, ch.zero_map(sph(0), ch.zero_complex(P))),
        so.constant_map(2, ch.zero_map(ch.disk(P, 1), ch.zero_complex(P))),
    )
    so.validate_sobj(pb.obj)
    assert pb.obj.level(1).total_dim() == 3


def test_smap_space_constant_vs_chain():
    a = ch.direct_sum([sph(0), sph(1)])
    b = ch.disk(P, 1)
    basis, _ = so.smap_space(so.constant(2, a), so.constant(2, b))
    assert basis.cols == ch.chain_map_space(a, b)[0].cols
    # a simplicial map out of a simplex tensor is one chain map
    basis2, _ = so.smap_space(
        so.tensor_with_sset(a, ss.delta(2, 1)), so.constant(2, b)
    )
    assert basis2.cols == ch.chain_map_space(a, b)[0].cols


def test_smap_from_vector_roundtrip():
    x = so.tensor_with_sset(sph(0), ss.delta(2, 1))
    y = so.constant(2, sph(0))
    basis, system = so.smap_space(x, y)
    assert basis.cols >= 1
    f = so.smap_from_vector(x, y, basis.column(0), system)
    so.validate_smap(f)


def test_tensor_chain_map_functorial():
    k = ss.delta(2, 1)
    f = ch.sphere_disk_inclusion(P, 2)
    tf = so.tensor_chain_map(f, k)
    so.validate_smap(tf)
    g = ss.horn_inclusion(2, 1, 0)
    tg = so.tensor_sset_map(ch.disk(P, 2), g)
    so.validate_smap(tg)
    # composing the two squares agrees either way around
    left = so.tensor_chain_map(f, g.source)
    right = so.tensor_sset_map(f.source, g)
    c1 = tf @ so.tensor_sset_map(f.source, g)
    c2 = so.tensor_sset_map(f.target, g) @ left
    for n in range(3):
        assert c1.level(n) == c2.level(n)


def test_direct_sum_sobj():
    a = so.constant(2, sph(0))
    b = so.tensor_with_sset(sph(1), ss.delta(2, 1))
    total, incs, projs = so.direct_sum_sobj([a, b])
    so.validate_sobj(total)
    so.validate_smap(incs[0])
    so.validate_smap(projs[1])
    assert total.level(1).total_dim() == a.level(1).total_dim() + b.level(1).total_dim()


def test_validate_smap_names_the_broken_operator():
    x = so.constant(1, sph(0))
    so.validate_smap(so.identity_smap(x))
    doubled = so.SimplicialMap(x, x, (ch.identity_map(sph(0)).scale(2), ch.identity_map(sph(0))))
    with pytest.raises(ValidationFailure, match=r"^map breaks d_0 at level 1$"):
        so.validate_smap(doubled)
    # X_1 = M_0 + M_1 with M_1 killed by both faces; shearing M_0 into M_1
    # commutes with the faces but not with s_0
    y = dold_kan([sph(0), sph(0)], [ch.zero_map(sph(0), sph(0))])
    shear = ch.ChainMap.build(y.level(1), y.level(1), {0: FpMatrix.from_rows(P, [[1, 0], [1, 1]])})
    f = so.SimplicialMap(y, y, (ch.identity_map(y.level(0)), shear))
    with pytest.raises(ValidationFailure, match=r"^map breaks s_0 at level 0$"):
        so.validate_smap(f)


def test_operator_reads_the_tables():
    x = so.tensor_with_sset(sph(0), ss.delta(2, 1))
    assert x.operator(2, 1, 2) is x.face(2, 2)
    assert x.operator(1, 2, 1) is x.degen(1, 1)


def test_operator_refuses_out_of_range_indices():
    # d_0 out of level 0 used to read faces[-1][0], a top-level face
    x = so.tensor_with_sset(sph(0), ss.delta(2, 1))
    cases = [
        (lambda: x.face(0, 0), "no face out of level 0: face levels run 1..2"),
        (lambda: x.face(3, 0), "no face out of level 3: face levels run 1..2"),
        (lambda: x.face(2, 3), "no operator index 3 at level 2: indices run 0..2"),
        (lambda: x.degen(2, 0), "no degeneracy out of level 2: degeneracy levels run 0..1"),
        (lambda: x.degen(-1, 0), "no degeneracy out of level -1: degeneracy levels run 0..1"),
        (lambda: x.degen(1, -1), "no operator index -1 at level 1: indices run 0..1"),
        (lambda: x.operator(1, 1, 0), "no operator from level 1 to level 1"),
        (lambda: x.operator(0, 2, 0), "no operator from level 0 to level 2"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationFailure) as err:
            call()
        assert str(err.value) == message


def test_fiber_is_the_levelwise_kernel():
    f = so.tensor_chain_map(ch.direct_sum_with_maps([sph(1), sph(0)])[2][0], ss.delta(2, 1))
    fib = fiber(f)
    so.validate_sobj(fib)
    for n in range(3):
        assert fib.level(n) == ch.kernel_complex(f.level(n))[0]
    assert fib == so.tensor_with_sset(sph(0), ss.delta(2, 1))


def with_operator(x, n, m, i, op):
    """``x`` with the operator from level n to level m replaced, unvalidated."""
    faces = [list(group) for group in x.faces]
    degens = [list(group) for group in x.degens]
    (faces[n - 1] if m < n else degens[n])[i] = op
    return so.SimplicialObject(x.N, x.levels, tuple(map(tuple, faces)), tuple(map(tuple, degens)))


def test_validate_sobj_shape_messages():
    x = so.tensor_with_sset(ch.disk(P, 1), ss.delta(2, 1))
    other = so.constant(2, ch.sphere(11, 0))
    wrong = ch.zero_map(x.level(2), x.level(0))
    d0 = x.face(1, 0)
    bumped = FpMatrix(P, d0.block(0).a + np.eye(*d0.block(0).shape, dtype=np.int64))
    broken = ch.ChainMap(d0.source, d0.target, (bumped,) + d0.blocks[1:])
    cases = [
        (so.SimplicialObject(2, x.levels[:2], x.faces, x.degens),
         "level or operator count does not match N"),
        (so.SimplicialObject(2, x.levels, x.faces[:1], x.degens),
         "level or operator count does not match N"),
        (so.SimplicialObject(2, x.levels[:2] + other.levels[2:], x.faces, x.degens),
         "levels over different primes"),
        (so.SimplicialObject(2, x.levels, (x.faces[0][:1], x.faces[1]), x.degens),
         "expected 2 faces at level 1"),
        (so.SimplicialObject(2, x.levels, (x.faces[0], x.faces[1] * 2), x.degens),
         "expected 3 faces at level 2"),
        (so.SimplicialObject(2, x.levels, x.faces, (x.degens[0] * 2, x.degens[1])),
         "expected 1 degeneracies at level 0"),
        (with_operator(x, 2, 1, 1, wrong), "face endpoints wrong at level 2"),
        (with_operator(x, 1, 2, 0, ch.identity_map(x.level(1))),
         "degeneracy endpoints wrong at level 1"),
        (with_operator(x, 1, 0, 0, broken), "map does not commute with d at degree 1"),
    ]
    for bad, message in cases:
        with pytest.raises(ValidationFailure) as err:
            so.validate_sobj(bad)
        assert str(err.value) == message
