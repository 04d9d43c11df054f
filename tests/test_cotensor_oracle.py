"""Differential tests of the cotensor over nondegenerate simplices against
the all-simplex presentation.

The reference path kept here is the one ``sobj.cotensor0`` replaced: X^K as
the kernel of the relation map on the sum of X_n over every simplex of K,
degenerate ones included, with one condition for every face and every
degeneracy.  The reduced presentation must give the same complex and the
same inclusion, entry for entry, because it canonicalizes each degree to
the basis this kernel has.
"""

import itertools
from typing import NamedTuple

import pytest

from reedychain import chain as ch
from reedychain import fixtures as fx
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain.config import Manifest

P = 7
# the samplers' dimension cap, and the largest all-simplex ambient (total
# dimension) the reference is asked to solve: beyond it the reference's
# dense elimination takes seconds per shape
CAP = 512
MAP_KINDS = tuple(k for k in sm.KINDS if k != "random_sobj")


# ---------------------------------------------------------------------------
# reference path


class Reference(NamedTuple):
    """X^K as a subcomplex of the sum over every simplex of K, with the
    dense projections of that sum onto its summands."""

    obj: ch.ChainComplex
    incl: ch.ChainMap
    amb: ch.ChainComplex
    components: tuple[tuple[int, int], ...]
    projs: tuple[ch.ChainMap, ...]


def all_simplex_cotensor(x: so.SimplicialObject, k: ss.SSet) -> Reference:
    p = x.p
    components = tuple((n, idx) for n in range(k.N + 1) for idx in range(k.card(n)))
    if not components:
        z = ch.zero_complex(p)
        return Reference(z, ch.zero_map(z, z), z, components, ())
    amb, _, projs = ch.direct_sum_with_maps([x.level(n) for n, _ in components])
    comp_index = {c: i for i, c in enumerate(components)}
    conds = []
    for n in range(1, k.N + 1):
        for i in range(n + 1):
            for idx in range(k.card(n)):
                tgt = (n - 1, k.face(n, i, idx))
                conds.append(
                    x.face(n, i) @ projs[comp_index[(n, idx)]] - projs[comp_index[tgt]]
                )
    for n in range(k.N):
        for i in range(n + 1):
            for idx in range(k.card(n)):
                tgt = (n + 1, k.degen(n, i, idx))
                conds.append(
                    x.degen(n, i) @ projs[comp_index[(n, idx)]] - projs[comp_index[tgt]]
                )
    _, cond_map = so._stack_into_sum(conds, amb, p)
    obj, incl = ch.kernel_complex(cond_map)
    return Reference(obj, incl, amb, components, tuple(projs))


def ambient_dim(x: so.SimplicialObject, k: ss.SSet) -> int:
    return sum(x.level(n).total_dim() * k.card(n) for n in range(k.N + 1))


def assert_same_cotensor(x, k):
    got, want = so.cotensor0(x, k), all_simplex_cotensor(x, k)
    assert got.obj == want.obj
    assert got.incl == want.incl
    assert got.amb == want.amb
    assert got.components == want.components
    for (n, idx), proj in zip(want.components, want.projs):
        assert so.cotensor_component(got, n, idx) == proj @ want.incl


# ---------------------------------------------------------------------------
# inputs


def shapes(N: int) -> list[ss.SSet]:
    """Every simplex, boundary (the empty one of the 0-simplex included) and
    horn at truncation N, two products and three random_sset draws."""
    out = [ss.delta(N, n) for n in range(N + 1)]
    out += [ss.boundary_inclusion(N, n).source for n in range(N + 1)]
    out += [ss.horn_inclusion(N, n, j).source for n in range(1, N + 1) for j in range(n + 1)]
    out.append(ss.product(ss.delta(N, 1), ss.delta(N, 1)))
    out.append(ss.product(ss.boundary_inclusion(N, 1).source, ss.delta(N, 1)))
    out += [sm.random_sset(N, sm.rng_for(f"cotensor-oracle:sset:{N}:{s}")) for s in range(3)]
    return out


def fixture_objects(N: int) -> list[so.SimplicialObject]:
    man = Manifest(p=P, trunc=N)
    names = ["const:sphere:0", "const:sphere:1", "const:disk:1", "const:disk:2"]
    return [fx.fixture(name, man) for name in names]


def constant_objects(N: int) -> list[so.SimplicialObject]:
    rng = sm.rng_for(f"cotensor-oracle:constant:{N}")
    return [so.constant(N, sm.random_complex(P, rng)) for _ in range(2)]


def small_map_objects(N: int) -> list[so.SimplicialObject]:
    out = []
    for s in range(4):
        f = sm.random_small_map(P, N, sm.rng_for(f"cotensor-oracle:small:{N}:{s}"))
        out += [f.source, f.target]
    return out


def sampled_objects(N: int) -> list[so.SimplicialObject]:
    out = [sm.sample("random_sobj", P, N, seed=0, cap=CAP)]
    for kind in MAP_KINDS:
        f = sm.sample(kind, P, N, seed=0, cap=CAP)
        out += [f.source, f.target]
    return out


SOURCES = {
    "fixtures": fixture_objects,
    "constant": constant_objects,
    "small_map": small_map_objects,
    "sample": sampled_objects,
}


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_reduced_cotensor_matches_all_simplex(source, N):
    for x in SOURCES[source](N):
        compared = 0
        for k in shapes(N):
            if ambient_dim(x, k) <= CAP:
                assert_same_cotensor(x, k)
                compared += 1
        assert compared


def test_lem_match_inputs_match_all_simplex():
    """The simplex and boundary shapes a lem-match trial cotensors against,
    on random_small_map draws at N=3: the first three, and the first whose
    level dimensions grow as 2, 3, 4, 5 (a tensor with the 1-simplex, whose
    cotensor against the 3-simplex solves a 1172x293 all-simplex system)."""
    draws = [sm.random_small_map(101, 3, sm.rng_for(f"cotensor-oracle:lem:{s}")) for s in range(3)]
    for s in itertools.count():
        f = sm.random_small_map(101, 3, sm.rng_for(f"cotensor-oracle:growing:{s}"))
        if [f.source.level(n).total_dim() for n in range(4)] == [2, 3, 4, 5]:
            draws.append(f)
            break
    for f in draws:
        for n in range(4):
            for k in (ss.delta(3, n), ss.boundary_inclusion(3, n).source):
                assert_same_cotensor(f.source, k)
                assert_same_cotensor(f.target, k)


def test_simplex_degenerate_in_two_ways():
    """(0,0,1,1) in the 1-simplex is s_0 (0,1,1) and s_2 (0,0,1), through
    two different 2-simplices.  The decomposition keeps one path; the other
    must give the same component, since s_0 s_1 = s_2 s_0."""
    N = 3
    k = ss.delta(N, 1)
    tau = k.index_of(3, (0, 0, 1, 1))
    sigma = k.index_of(1, (0, 1))
    assert k.degen(2, 0, k.index_of(2, (0, 1, 1))) == tau
    assert k.degen(2, 2, k.index_of(2, (0, 0, 1))) == tau
    assert ss.ez_decomposition(k)[3][tau] == (1, sigma, (0, 1))
    for x in fixture_objects(N) + small_map_objects(N):
        ct = so.cotensor0(x, k)
        at_sigma = so.cotensor_component(ct, 1, sigma)
        at_tau = so.cotensor_component(ct, 3, tau)
        assert at_tau == x.degen(2, 0) @ x.degen(1, 1) @ at_sigma
        assert at_tau == x.degen(2, 2) @ x.degen(1, 0) @ at_sigma
        assert_same_cotensor(x, k)


def test_ez_decomposition_of_boundary():
    """Nondegenerate simplices of the boundary of the 2-simplex are its
    three vertices and three edges; every other simplex is a degeneracy of
    one of them."""
    k = ss.boundary_inclusion(3, 2).source
    ez = ss.ez_decomposition(k)
    for n in range(k.N + 1):
        nondeg = [idx for idx in range(k.card(n)) if not ez[n][idx][2]]
        assert tuple(nondeg) == ss.nondegenerate_indices(k, n)
        for idx in range(k.card(n)):
            m, sigma, ops = ez[n][idx]
            cur = sigma
            for i in reversed(ops):
                cur = k.degen(m, i, cur)
                m += 1
            assert (m, cur) == (n, idx)
    assert [len(ss.nondegenerate_indices(k, n)) for n in range(4)] == [3, 3, 0, 0]
