"""Oracles for the map classifiers.

Hand-derived facts frozen before the implementation existed:

- A constant map is a Reedy cofibration exactly when its value is a
  monomorphism; the relative latching comparison at n >= 1 is an
  isomorphism because both latching objects collapse to the values.
- A constant map whose value is not an epimorphism in every degree is
  never a Reedy fibration, and for a nonzero value the map to the
  terminal object already fails at level 1: the matching comparison
  there is the diagonal A -> A + A.
- Applying Sing to an epimorphism of complexes gives an equifibered
  Reedy fibration.  Applying it to an epi quasi-isomorphism gives a
  trivial Reedy fibration, which the runtime invariant then forces to
  be equifibered with a realization equivalence.
- The projection off a fibrant summand whose levels are not all
  quasi-isomorphic is a Reedy fibration that is not equifibered.
- Tensoring the cofibration generators with boundary inclusions gives
  Reedy cofibrations; doing it with acyclic disks gives trivial ones.
"""

import pytest

from reedychain import chain as ch
from reedychain import classify as cl
from reedychain import dold_kan as dk
from reedychain import harness as hn
from reedychain import realize as rz
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain import totals as tt
from test_reedy_oracle import homotopically_constant_witness

P = 7


def sph(n):
    return ch.sphere(P, n)


def proj_with_fiber(base, fiber):
    total, _, projs = ch.direct_sum_with_maps([base, fiber])
    return projs[0]


def test_constant_mono_is_cofibration_not_fibration():
    f0 = ch.sphere_disk_inclusion(P, 1)
    c = cl.classify(so.constant_map(2, f0))
    assert c.reedy_cof
    assert not c.level_we
    assert c.witnesses["level_we"][0] == 0
    # degree 1 of the disk is not hit at simplicial level 0
    assert not c.reedy_fib
    assert c.witnesses["reedy_fib"] == (0, 1)
    assert not c.reedy_trivial_cof and not c.reedy_trivial_fib


def test_constant_epi_value_is_not_cofibration():
    g0 = proj_with_fiber(sph(0), sph(0))
    c = cl.classify(so.constant_map(2, g0))
    assert not c.reedy_cof
    assert c.witnesses["reedy_cof"] == (0, 0)


def test_constant_to_terminal_fails_at_level_one():
    x = so.constant(2, sph(0))
    term = so.constant(2, ch.zero_complex(P))
    c = cl.classify(so.zero_smap(x, term))
    assert not c.reedy_fib
    # level 0 surjects onto zero; the diagonal into M_1 = A + A does not
    assert c.witnesses["reedy_fib"] == (1, 0)


def test_sing_is_fibrant():
    x = rz.sing(ch.direct_sum([sph(1), ch.disk(P, 1)]), 2)
    term = so.constant(2, ch.zero_complex(P))
    c = cl.classify(so.zero_smap(x, term))
    assert c.reedy_fib
    assert c.equifibered
    assert not c.level_we


def test_sing_of_epi_is_equifibered_fibration():
    g = proj_with_fiber(sph(1), sph(0))
    c = cl.classify(rz.sing_map(g, 2))
    assert c.reedy_fib
    assert c.equifibered
    assert not c.level_we
    assert not c.realization_we


def test_sing_of_trivial_fibration_passes_invariant():
    g = proj_with_fiber(sph(1), ch.disk(P, 1))
    c = cl.classify(rz.sing_map(g, 2))
    assert c.reedy_fib
    assert c.level_we
    # the runtime invariant has already enforced these two
    assert c.equifibered
    assert c.realization_we
    assert c.reedy_trivial_fib
    assert not c.realization_exact  # Sing is never skeletal


def test_projection_with_nonconstant_fiber_is_not_equifibered():
    z = ch.zero_complex(P)
    w = dk.dold_kan([z, sph(1), sph(1)], [ch.zero_map(sph(1), z), ch.identity_map(sph(1))])
    x = rz.sing(sph(0), 2)
    total, _, projs = so.direct_sum_sobj([x, w])
    c = cl.classify(projs[0])
    assert c.reedy_fib
    assert not c.equifibered
    assert c.witnesses["equifibered"][:2] == (0, 0)


def test_homotopically_constant():
    assert homotopically_constant_witness(so.constant(2, ch.direct_sum([sph(0), sph(2)]))) is None
    assert homotopically_constant_witness(rz.sing(sph(1), 2)) is None
    assert homotopically_constant_witness(so.tensor_with_sset(sph(0), ss.delta(2, 1))) is not None
    z = ch.zero_complex(P)
    w = dk.dold_kan([z, sph(1), sph(1)], [ch.zero_map(sph(1), z), ch.identity_map(sph(1))])
    # the cone over S^1 -> 0 first shows homology at degree 2
    assert homotopically_constant_witness(w) == (1, 0, 2)


def test_pushout_product_counterexample():
    # 0 -> S^0 boxed with the 0-horn of the interval: levelwise the
    # comparison fails immediately, yet realizations agree.
    f = ch.zero_map(ch.zero_complex(P), sph(0))
    i = ss.horn_inclusion(3, 1, 0)
    g = cl.pushout_product(f, i)
    direct = so.tensor_sset_map(sph(0), i)
    assert [g.source.level(n).total_dim() for n in range(4)] == [
        direct.source.level(n).total_dim() for n in range(4)
    ]
    c = cl.classify(g)
    assert not c.level_we
    assert c.witnesses["level_we"] == (0, 0)
    assert c.realization_we
    assert c.realization_exact
    assert cl.classify(direct).realization_we


def test_pushout_product_of_generators_is_cofibration():
    g = cl.pushout_product(ch.sphere_disk_inclusion(P, 1), ss.boundary_inclusion(2, 1))
    c = cl.classify(g)
    assert c.reedy_cof
    assert not c.reedy_trivial_cof


def test_pushout_product_with_disk_is_trivial_cofibration():
    g = cl.pushout_product(ch.disk_from_zero(P, 1), ss.boundary_inclusion(2, 1))
    c = cl.classify(g)
    assert c.reedy_cof
    assert c.level_we
    assert c.reedy_trivial_cof
    assert c.realization_we


def test_relative_matching_map_against_cotensor_form():
    f0 = ch.sphere_disk_inclusion(P, 1)
    cf = so.constant_map(2, f0)
    assert cl.matching_cotensor_comparison(cf, 1)
    assert cl.matching_cotensor_comparison(cf, 2)
    sm = rz.sing_map(proj_with_fiber(sph(0), ch.disk(P, 1)), 2)
    assert cl.matching_cotensor_comparison(sm, 1)
    assert cl.matching_cotensor_comparison(sm, 2)


def test_diagonal_tensor_and_simplicial_pushout_product():
    # boxing with a non-constant source: X = S^0 tensor Delta[1]
    x = so.tensor_with_sset(sph(0), ss.delta(2, 1))
    so.validate_sobj(so.tensor_sobj_with_sset(x, ss.delta(2, 1)))
    f = so.tensor_chain_map(ch.sphere_disk_inclusion(P, 1), ss.delta(2, 1))
    g = cl.pushout_product(f, ss.boundary_inclusion(2, 1))
    so.validate_smap(g)
    assert cl.classify(g).reedy_cof
    # promotion of a chain map agrees with boxing its constant extension
    h0 = ch.sphere_disk_inclusion(P, 1)
    i = ss.boundary_inclusion(2, 1)
    a = cl.pushout_product(h0, i)
    b = cl.pushout_product(so.constant_map(2, h0), i)
    assert all(a.level(n) == b.level(n) for n in range(3))


def test_identity_classifies_as_everything():
    x = so.tensor_with_sset(ch.direct_sum([sph(0), sph(1)]), ss.delta(2, 1))
    c = cl.classify(so.identity_smap(x))
    assert c.level_we and c.reedy_cof and c.reedy_fib
    assert c.equifibered and c.realization_we
    assert c.reedy_trivial_cof and c.reedy_trivial_fib
    assert c.witnesses == {}


def test_classify_builds_each_total_once(monkeypatch):
    """One normalized total per end serves both the fibration and the
    realization verdicts."""
    calls = []
    build = tt.total_complex

    def counted(x, mode="normalized"):
        calls.append(mode)
        return build(x, mode)

    monkeypatch.setattr(tt, "total_complex", counted)
    f = so.tensor_sset_map(ch.sphere(P, 0), ss.horn_inclusion(2, 1, 0))
    c = cl.classify(f)
    assert calls == ["normalized", "normalized"]
    assert c.reedy_cof and c.realization_we


def test_classify_and_the_j_check_build_the_level_maps_once(monkeypatch):
    """The level maps N_nf of the normal form serve every verdict read off
    it: classify builds them once, realization included, and so does the
    equifibered verdict of the J check."""
    calls = []
    build = tt.level_maps

    def counted(f, tx, ty):
        calls.append(f)
        return build(f, tx, ty)

    monkeypatch.setattr(tt, "level_maps", counted)
    f = rz.sing_map(proj_with_fiber(sph(1), sph(0)), 2)
    c = cl.classify(f)
    assert c.reedy_fib and c.equifibered and "realization_we" in c.witnesses
    assert calls == [f]
    rep = hn.check_j_injective_vs_equifibered(f, window=(0, 1), n_range=(0, 1))
    assert rep["equifibered"]
    assert calls == [f, f]


def test_classify_decides_face_squares_only_for_fibrations(monkeypatch):
    """The equifibered verdict is read only where it is reported: a map that
    is not a Reedy fibration gets no face-square check, and a fibration gets
    one, from its fiber, with no pullback built."""
    calls = {"squares": 0, "pullbacks": 0}
    squares, pullback = cl._face_squares, ch.pullback

    def counted_squares(fn):
        calls["squares"] += 1
        return squares(fn)

    def counted_pullback(f, g):
        calls["pullbacks"] += 1
        return pullback(f, g)

    monkeypatch.setattr(cl, "_face_squares", counted_squares)
    monkeypatch.setattr(ch, "pullback", counted_pullback)
    monkeypatch.setattr(cl, "pullback", counted_pullback)
    c = cl.classify(so.constant_map(2, ch.sphere_disk_inclusion(P, 1)))
    assert c.witnesses["reedy_fib"] == (0, 1) and c.witnesses["equifibered"] == (0, 1)
    assert calls["squares"] == 0
    c = cl.classify(rz.sing_map(proj_with_fiber(sph(1), sph(0)), 2))
    assert c.reedy_fib and c.equifibered
    assert calls == {"squares": 1, "pullbacks": 0}
