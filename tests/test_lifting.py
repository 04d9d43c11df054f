"""Oracles for the lifting solver and the generating families.

Hand-derived facts frozen first:

- Chain maps D^1 -> S^0 are zero (the degree-0 component must kill the
  boundary of the generator), so the square with i = cS^0 -> cD^1,
  p = cS^0 -> 0, top = id has no lift.
- Chain maps D^0 -> S^0 form a one-dimensional space, so the map
  0 -> cS^0 fails universal lifting against the m = 0 disk generator.
- The boundary of the 0-simplex is empty, making the n = 0 members of
  each family the constant promotions of their chain parts.
"""

import numpy as np
import pytest
from test_chain import extend_by_zero, inclusion_map, projection_map, rand_complex, rand_map

from reedychain import chain as ch
from reedychain import lifting as lf
from reedychain import realize as rz
from reedychain import sobj as so
from reedychain.errors import ResourceCapError

P = 7


def sph(n):
    return ch.sphere(P, n)


def proj_with_fiber(base, fiber):
    total, _, projs = ch.direct_sum_with_maps([base, fiber])
    return projs[0]


def const(a):
    return so.constant(2, a)


def test_rlp_identity_left_map():
    a = const(ch.direct_sum([sph(0), sph(1)]))
    x = const(ch.disk(P, 1))
    top = so.zero_smap(a, x)
    pm = so.constant_map(2, ch.zero_map(ch.disk(P, 1), sph(0)))
    pr = lf.LiftingProblem(so.identity_smap(a), pm, top, pm @ top)
    ok, h = lf.rlp(pr)
    assert ok
    assert all(h.level(n) == top.level(n) for n in range(3))


def test_rlp_split_projection():
    d = ch.disk(P, 1)
    pm = so.constant_map(2, proj_with_fiber(d, d))
    i = so.constant_map(2, ch.disk_from_zero(P, 1))
    top = so.zero_smap(i.source, pm.source)
    bottom = so.identity_smap(pm.target)
    ok, h = lf.rlp(lf.LiftingProblem(i, pm, top, bottom))
    assert ok
    assert all((pm @ h).level(n) == bottom.level(n) for n in range(3))


def test_rlp_refuses_to_split_a_sphere():
    i = so.constant_map(2, ch.sphere_disk_inclusion(P, 1))
    x = const(sph(0))
    pm = so.zero_smap(x, const(ch.zero_complex(P)))
    top = so.identity_smap(x)
    bottom = so.zero_smap(i.target, pm.target)
    ok, h = lf.rlp(lf.LiftingProblem(i, pm, top, bottom))
    assert not ok and h is None


def test_rlp_on_noncommuting_square_rejected():
    a = const(sph(0))
    i = so.identity_smap(a)
    pm = so.constant_map(2, proj_with_fiber(sph(0), sph(0)))
    top = so.zero_smap(a, pm.source)
    bad_bottom = so.identity_smap(a)
    with pytest.raises(lf.ValidationFailure):
        lf.rlp(lf.LiftingProblem(i, pm, top, bad_bottom))


def test_rlp_mono_against_trivial_epi():
    # any mono lifts against any epi quasi-iso over a field; at N=0 the
    # square is one of chain maps
    for seed in range(5):
        r = np.random.default_rng(200 + seed)
        a = rand_complex(r)
        b = ch.direct_sum([a, ch.disk(P, 1)])
        i = inclusion_map(a, b)
        x = rand_complex(r)
        acyc = ch.disk(P, 0)
        xa = ch.direct_sum([x, acyc])
        p_map = projection_map(xa, x)
        assert ch.is_quasi_iso(p_map) and ch.is_epi(p_map)
        top = rand_map(r, a, xa)
        # p top is defined on a; extend it by zero to b for the bottom
        bot_b = extend_by_zero(p_map @ top, b)
        pr = lf.LiftingProblem(*(so.constant_map(0, f) for f in (i, p_map, top, bot_b)))
        ok, h = lf.rlp(pr)
        assert ok
        assert h @ pr.i == pr.top
        assert pr.p @ h == pr.bottom


def test_rlp_resource_cap():
    a = const(ch.direct_sum([sph(0), sph(0), sph(1)]))
    pr = lf.LiftingProblem(
        so.identity_smap(a),
        so.identity_smap(a),
        so.identity_smap(a),
        so.identity_smap(a),
    )
    with pytest.raises(ResourceCapError):
        lf.rlp(pr, cap=2)


def test_generator_family_counts_and_marks():
    jp = lf.generators("J'", P, 2, (0, 2), (0, 2))
    assert jp.family == "J'"
    assert len(jp.members) == 9
    assert all(m.weq is False for m in jp.members)
    jpp = lf.generators("J''", P, 2, (0, 1), (1, 2))
    # faces of the 1- and 2-simplex: 2 + 3 per chain generator
    assert len(jpp.members) == 10
    assert all(m.weq is True for m in jpp.members)
    ii = lf.generators("I", P, 2, (0, 1), (0, 1))
    assert len(ii.members) == 4
    with pytest.raises(ValueError):
        lf.generators("K", P, 2, (0, 1), (0, 1))


def test_generators_at_n_zero_are_constant_promotions():
    ii = lf.generators("I", P, 2, (1, 1), (0, 0))
    (g,) = ii.members
    cf = so.constant_map(2, ch.sphere_disk_inclusion(P, 1))
    assert all(
        g.map.source.level(n).dims == cf.source.level(n).dims for n in range(3)
    )
    assert all(g.map.level(n) == cf.level(n) for n in range(3))


def test_generator_members_are_cofibrations():
    from reedychain import classify as cl

    jpp = lf.generators("J''", P, 2, (0, 0), (1, 1))
    for m in jpp.members:
        assert cl.classify(m.map).reedy_cof


def test_universal_rlp_of_sing_fibration_against_generators():
    q = rz.sing_map(proj_with_fiber(sph(0), sph(0)), 2)
    for fam in ("J'", "J''"):
        for m in lf.generators(fam, P, 2, (0, 1), (0, 1) if fam == "J'" else (1, 1)).members:
            assert lf.has_universal_rlp(m.map, q), m.label


def test_universal_rlp_failure_for_non_fibration():
    bad = so.zero_smap(const(ch.zero_complex(P)), const(sph(0)))
    gen = lf.generators("J'", P, 2, (0, 0), (0, 0)).members[0]
    assert not lf.has_universal_rlp(gen.map, bad)
