"""Realization and its right adjoint, sing.

Realization of a constant object gives back its value; the tensor cases
cross-check against simplex chains computed by the independent
simplicial-set module.  The coend presentation of the realization is the
reference in test_realize_oracle.
"""

import pytest

from reedychain import chain as ch
from reedychain import realize as rz
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain import totals as tt
from test_chain import projection_map
from test_realize_oracle import is_skeletal

P = 7


def test_realize_of_constant_is_the_complex():
    """The realization of the constant object at a is a itself, for
    spheres, disks, sums and the zero complex at N = 1..3."""
    for a in (
        ch.sphere(P, 0),
        ch.sphere(P, 2),
        ch.disk(P, 1),
        ch.direct_sum([ch.sphere(P, 0), ch.sphere(P, 1)]),
        ch.direct_sum([ch.sphere(P, -1), ch.disk(P, 2)]),
        ch.zero_complex(P),
    ):
        for n in (1, 2, 3):
            assert rz.realize(so.constant(n, a)).obj == a


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
    assert not is_skeletal(x)


def test_sing_total_recovers_homology():
    a = ch.direct_sum([ch.sphere(P, 0), ch.sphere(P, 2)])
    x = rz.sing(a, 2)
    t = tt.total_complex(x, mode="normalized")
    assert ch.homology_dims(t.obj) == ch.homology_dims(a)


def test_sing_map_of_epi_is_levelwise_epi():
    whole = ch.direct_sum([ch.sphere(P, 1), ch.disk(P, 1)])
    g = projection_map(whole, ch.sphere(P, 1))
    sm = rz.sing_map(g, 2)
    so.validate_smap(sm)
    for n in range(3):
        assert ch.is_epi(sm.level(n))
