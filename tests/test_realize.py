"""Oracles for the realization coend and its right adjoint direction.

The constant-object comparison (augmentation) being an isomorphism is the
load-bearing fact; the tensor cases cross-check against simplex chains
computed by the independent simplicial-set module.
"""

import pytest

from reedychain import chain as ch
from reedychain import realize as rz
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain import totals as tt

P = 7


def test_realize_constant_comparison_is_iso():
    for a in (
        ch.direct_sum([ch.sphere(P, 0), ch.sphere(P, 1)]),
        ch.disk(P, 2),
        ch.zero_complex(P),
    ):
        for n in (1, 2, 3):
            cmp_map = rz.realize_constant_comparison(a, n)
            assert cmp_map.target == a
            assert ch.is_iso(cmp_map)


def test_realize_validates():
    y = so.tensor_with_sset(ch.disk(P, 1), ss.delta(2, 1))
    r = rz.realize(y)
    ch.validate_complex(r.obj)


def test_realize_tensor_matches_simplex_chains():
    for k in (ss.delta(2, 1), ss.boundary_inclusion(2, 2).source):
        a = ch.sphere(P, 1)
        r = rz.realize(so.tensor_with_sset(a, k))
        ref = ch.tensor_complexes(a, ss.normalized_chains(k, P))
        assert ch.homology_dims(r.obj) == ch.homology_dims(ref)


def test_realize_agrees_with_normalized_total_on_skeletal():
    cases = [
        so.constant(2, ch.direct_sum([ch.sphere(P, 0), ch.disk(P, 2)])),
        so.tensor_with_sset(ch.sphere(P, 1), ss.delta(2, 1)),
        so.tensor_with_sset(ch.disk(P, 1), ss.boundary_inclusion(2, 2).source),
    ]
    for y in cases:
        assert tt.is_skeletal(y)
        r = rz.realize(y)
        t = tt.total_complex(y, mode="normalized")
        assert ch.homology_dims(r.obj) == ch.homology_dims(t.obj)


def test_realize_map_functorial():
    k = ss.delta(2, 1)
    f = ch.sphere_disk_inclusion(P, 1)
    sf = so.tensor_chain_map(f, k)
    rx = rz.realize(sf.source)
    ry = rz.realize(sf.target)
    m = rz.realize_map(sf, rx, ry)
    ch.validate_map(m)
    ident = rz.realize_map(so.identity_smap(sf.source), rx, rx)
    assert ident == ch.identity_map(rx.obj)


def test_sing_levels_are_quasi_isomorphic_to_target():
    a = ch.direct_sum([ch.sphere(P, 1), ch.disk(P, 0)])
    x = rz.sing(a, 2)
    so.validate_sobj(x)
    for n in range(3):
        assert ch.homology_dims(x.level(n)) == ch.homology_dims(a)


def test_sing_level_zero_is_target():
    a = ch.disk(P, 1)
    x = rz.sing(a, 2)
    assert x.level(0).dims == a.dims
    assert ch.homology_dims(x.level(0)) == ch.homology_dims(a)


def test_sing_is_never_skeletal():
    x = rz.sing(ch.sphere(P, 0), 2)
    assert not tt.is_skeletal(x)


def test_sing_total_recovers_homology():
    a = ch.direct_sum([ch.sphere(P, 0), ch.sphere(P, 2)])
    x = rz.sing(a, 2)
    t = tt.total_complex(x, mode="normalized")
    assert ch.homology_dims(t.obj) == ch.homology_dims(a)


def test_sing_map_of_epi_is_levelwise_epi():
    whole = ch.direct_sum([ch.sphere(P, 1), ch.disk(P, 1)])
    g = ch.projection_map(whole, ch.sphere(P, 1))
    sm = rz.sing_map(g, 2)
    so.validate_smap(sm)
    for n in range(3):
        assert ch.is_epi(sm.level(n))
