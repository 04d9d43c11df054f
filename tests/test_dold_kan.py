"""Oracles for the simplicial object built from Moore-style data.

The component rule (identity for an identity mono part, the structural
differential with an alternating sign for the mono missing the top vertex,
zero otherwise) is validated here computationally: the simplicial
identities must hold exactly and the Moore extraction must return the
input data on the nose.
"""

import pytest

from reedychain import chain as ch
from reedychain import dold_kan as dk
from reedychain import sobj as so
from reedychain import totals as tt
from reedychain.errors import ValidationFailure
from test_chain import projection_map
from test_reedy_oracle import moore_total

P = 7


def moore_example():
    m0 = ch.sphere(P, 0)
    m1 = ch.direct_sum([ch.sphere(P, 0), ch.sphere(P, 0)])
    m2 = ch.sphere(P, 0)
    d1 = projection_map(m1, m0)  # kills the second copy
    d2 = ch.ChainMap.build(
        m2, m1, {0: ch.identity_map(m1).block(0).column(1)}
    )  # hits the second copy
    assert (d1 @ d2).is_zero()
    return [m0, m1, m2], [d1, d2]


def test_dold_kan_constant_case():
    a = ch.direct_sum([ch.sphere(P, 0), ch.disk(P, 2)])
    parts = [a, ch.zero_complex(P), ch.zero_complex(P)]
    deltas = [ch.zero_map(parts[1], parts[0]), ch.zero_map(parts[2], parts[1])]
    g = dk.dold_kan(parts, deltas)
    so.validate_sobj(g.obj)
    assert g.obj == so.constant(2, a)


def test_dold_kan_satisfies_simplicial_identities():
    parts, deltas = moore_example()
    g = dk.dold_kan(parts, deltas)
    so.validate_sobj(g.obj)
    # level dimensions: one copy of M_p per monotone surjection [n] -> [p]
    assert g.obj.level(0).total_dim() == 1
    assert g.obj.level(1).total_dim() == 1 + 2
    assert g.obj.level(2).total_dim() == 1 + 2 * 2 + 1


def test_dold_kan_moore_roundtrip():
    parts, deltas = moore_example()
    g = dk.dold_kan(parts, deltas)
    t = moore_total(g.obj)
    isos = []
    for s in range(3):
        (incl,) = t.witnesses[s]
        iso = so.factor_through_mono(incl, g.top_inclusions[s])
        assert ch.is_iso(iso)
        isos.append(iso)
    for s in (1, 2):
        assert t.dprimes[s - 1] @ isos[s] == isos[s - 1] @ deltas[s - 1]


def test_dold_kan_total_homology_matches_assembled_data():
    parts, deltas = moore_example()
    g = dk.dold_kan(parts, deltas)
    t = tt.total_complex(g.obj, mode="normalized")
    ref, _ = tt._assemble(parts, deltas, P)
    assert ch.homology_dims(t.obj) == ch.homology_dims(ref)


def test_dold_kan_rejects_bad_data():
    m = ch.sphere(P, 0)
    ident = ch.identity_map(m)
    with pytest.raises(ValidationFailure):
        dk.dold_kan([m, m, m], [ident, ident])  # composite not zero


def test_dold_kan_of_iso_between_acyclics_is_skeletal_friendly():
    # Moore data 0 <- C <-iso- C in degrees 1, 2 gives a fibrant-ready
    # object whose top level is reached by the sampler for exact verdicts
    c = ch.disk(P, 1)
    z = ch.zero_complex(P)
    g = dk.dold_kan([z, c, c], [ch.zero_map(c, z), ch.identity_map(c)])
    so.validate_sobj(g.obj)
    t = tt.total_complex(g.obj, mode="normalized")
    assert ch.homology_dims(t.obj) == {}
