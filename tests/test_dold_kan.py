"""Oracles for the simplicial object built from Moore-style data.

The component rule (identity for an identity mono part, the structural
differential with an alternating sign for the mono missing the top vertex,
zero otherwise) is validated here computationally: the simplicial
identities must hold exactly and the Moore extraction must return the
input data on the nose.

``ref_dold_kan`` is the builder the library replaced: it re-adds the summand
dimensions before every block it places.  The library reads each block's
offsets off one table per level; both must give equal objects.
"""

import numpy as np
import pytest

from reedychain import chain as ch
from reedychain import dold_kan as dk
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain import totals as tt
from reedychain.errors import ValidationFailure
from reedychain.linalg import FpMatrix
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
    so.validate_sobj(g)
    assert g == so.constant(2, a)


def test_dold_kan_satisfies_simplicial_identities():
    parts, deltas = moore_example()
    g = dk.dold_kan(parts, deltas)
    so.validate_sobj(g)
    # level dimensions: one copy of M_p per monotone surjection [n] -> [p]
    assert g.level(0).total_dim() == 1
    assert g.level(1).total_dim() == 1 + 2
    assert g.level(2).total_dim() == 1 + 2 * 2 + 1


def top_inclusion(parts, n: int) -> ch.ChainMap:
    """M_n into level n at the identity surjection, which ``_level_epis``
    lists last, so it is the last summand of the level."""
    epis = dk._level_epis(n)
    assert epis[-1] == tuple(range(n + 1))
    return ch.direct_sum_with_maps([parts[len(set(e)) - 1] for e in epis])[1][-1]


def test_dold_kan_moore_roundtrip():
    parts, deltas = moore_example()
    g = dk.dold_kan(parts, deltas)
    t = moore_total(g)
    isos = []
    for s in range(3):
        (incl,) = t.witnesses[s]
        iso = so.factor_through_mono(incl, top_inclusion(parts, s))
        assert ch.is_iso(iso)
        isos.append(iso)
    for s in (1, 2):
        assert t.dprimes[s - 1] @ isos[s] == isos[s - 1] @ deltas[s - 1]


def test_dold_kan_total_homology_matches_assembled_data():
    parts, deltas = moore_example()
    g = dk.dold_kan(parts, deltas)
    t = tt.total_complex(g, mode="normalized")
    ref = tt._assemble(parts, deltas, P)
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
    so.validate_sobj(g)
    t = tt.total_complex(g, mode="normalized")
    assert ch.homology_dims(t.obj) == {}


def ref_dold_kan(parts, deltas) -> so.SimplicialObject:
    """The block builder the library replaced: each block's row and column
    offsets are the summed dimensions of the summands before it."""
    p, N = parts[0].p, len(parts) - 1
    epis = [dk._level_epis(n) for n in range(N + 1)]
    levels = [ch.direct_sum([parts[len(set(e)) - 1] for e in epis[n]]) for n in range(N + 1)]

    def component(pp, eps):
        if eps == tuple(range(pp + 1)):
            return ch.identity_map(parts[pp])
        if eps == tuple(range(pp)):
            return deltas[pp - 1].scale((-1) ** (pp % 2))
        return None

    def operator(n_src, n_tgt, i):
        alpha = ss.operator_tuple(n_src, n_tgt, i)
        src_epis, tgt_epis = epis[n_src], epis[n_tgt]
        placed = []
        for col, eta in enumerate(src_epis):
            eps, pi = dk._epi_mono_factor(tuple(eta[v] for v in alpha))
            m = component(len(set(eta)) - 1, eps)
            if m is not None:
                placed.append((tgt_epis.index(pi), col, m))
        blocks = {}
        for t in levels[n_src].degrees():
            mat = np.zeros((levels[n_tgt].dim(t), levels[n_src].dim(t)), dtype=np.int64)
            for row_idx, col_idx, m in placed:
                r_off = sum(parts[len(set(e)) - 1].dim(t) for e in tgt_epis[:row_idx])
                c_off = sum(parts[len(set(e)) - 1].dim(t) for e in src_epis[:col_idx])
                b = m.block(t)
                mat[r_off : r_off + b.rows, c_off : c_off + b.cols] += b.a
            blocks[t] = FpMatrix(p, mat)
        return ch.ChainMap.build(levels[n_src], levels[n_tgt], blocks)

    return so.SimplicialObject(N, tuple(levels), *ss.operator_tables(N, operator))


@pytest.mark.parametrize("p", (2, 3, 101))
def test_dold_kan_matches_summed_offset_reference(p):
    """Random Moore data of every family at N = 1..4: the library's object
    equals the reference's, operator by operator."""
    for N in range(1, 5):
        for seed in range(6):
            parts, deltas = sm.random_moore(p, N, sm.rng_for(f"dold-kan:{p}:{N}:{seed}"))
            assert dk.dold_kan(parts, deltas) == ref_dold_kan(parts, deltas), (N, seed)
