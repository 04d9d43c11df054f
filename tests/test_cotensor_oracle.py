"""Differential tests of the cotensor solved at the roots of K against two
earlier presentations.

``sobj.cotensor0`` solves X^K only for the values at the roots of
``ss.root_walk`` (the nondegenerate simplices that are no face of a
nondegenerate one) and reads every other component off one structure-map
product.  Two references are kept here:

- the all-simplex presentation: X^K as the kernel of the relation map on
  the sum of X_n over every simplex of K, degenerate ones included, with
  one condition for every face and every degeneracy;
- the Eilenberg-Zilber presentation: unknowns at every nondegenerate
  simplex, one condition d_i x_sigma = X(s_I) x_sigma' per face, and every
  degenerate component extended by X(s_I) through dense projections of the
  reduced sum.

All three must give the same complex and the same inclusion, entry for
entry, because each canonicalizes every degree to the basis the all-simplex
kernel has.
"""

import itertools
from typing import NamedTuple

import pytest

from reedychain import chain as ch
from reedychain import fixtures as fx
from reedychain import harness as hn
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain.config import Manifest
from reedychain.linalg import canonical_basis, kernel_basis
from test_reedy_oracle import structure_map
from test_ssets import circle

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


def ez_cotensor(x: so.SimplicialObject, k: ss.SSet) -> so.Cotensor:
    """X^K solved over the nondegenerate simplices of K: d_i x_sigma =
    X(s_I) x_sigma' where d_i sigma = s_I sigma', and every other component
    is x_tau = X(s_I) x_sigma for tau = s_I sigma.  The kernel of that
    reduced system is carried into the sum over all simplices.  Its roots
    and spread are left empty: they belong to the root presentation."""
    p = x.p
    components = tuple((n, idx) for n in range(k.N + 1) for idx in range(k.card(n)))
    if not components:
        z = ch.zero_complex(p)
        return so.Cotensor(z, ch.zero_map(z, z), z, components, {}, x, (), {})
    parts = [x.level(n) for n, _ in components]
    amb = ch.direct_sum(parts)
    ez = ss.ez_decomposition(k)
    nondeg = [(n, idx) for n, idx in components if not ez[n][idx][2]]
    red, _, red_projs = ch.direct_sum_with_maps([x.level(n) for n, _ in nondeg])
    red_index = {c: i for i, c in enumerate(nondeg)}

    def extend(n: int, idx: int) -> ch.ChainMap:
        m, sigma, ops = ez[n][idx]
        cur = red_projs[red_index[(m, sigma)]]
        for i in reversed(ops):
            cur = x.degen(m, i) @ cur
            m += 1
        return cur

    ext = {c: extend(*c) for c in components}
    conds = [
        x.face(n, i) @ red_projs[red_index[(n, idx)]] - ext[(n - 1, k.face(n, i, idx))]
        for n, idx in nondeg
        if n
        for i in range(n + 1)
    ]
    _, cond_map = so._stack_into_sum(conds, red, p)
    _, to_amb = so._stack_into_sum([ext[c] for c in components], red, p)
    bases = {
        t: canonical_basis(to_amb.block(t) @ kernel_basis(cond_map.block(t)))
        for t in amb.degrees()
    }
    obj, incl = ch.subcomplex(amb, bases)
    offsets = {
        t: tuple(itertools.accumulate((q.dim(t) for q in parts), initial=0))
        for t in amb.degrees()
    }
    return so.Cotensor(obj, incl, amb, components, offsets, x, (), {})


def composed_boundary_cotensor(
    x: so.SimplicialObject, n: int, ct: so.Cotensor, mt: so.Matching
) -> ch.ChainMap:
    """The comparison from M_nX into the cotensor ``ct`` against the
    boundary of the n-simplex, one composed operator path per simplex: the
    component at a non-surjective sigma is X(alpha) of the codimension-one
    face missing the least vertex k outside the image of sigma, where
    sigma = d^k alpha."""
    k = ss.boundary_inclusion(x.N, n).source
    faces = [pr @ mt.incl for pr in mt.projs]
    pieces = []
    for m, idx in ct.components:
        sigma = k.label(m, idx)
        miss = min(set(range(n + 1)) - set(sigma))
        alpha = tuple(v - (v > miss) for v in sigma)
        pieces.append(structure_map(x, alpha, n - 1) @ faces[n - miss])
    _, e = so._stack_into_sum(pieces, mt.obj, x.p)
    return so.factor_through_mono(ct.incl, e)


def same_cotensor(got: so.Cotensor, want: so.Cotensor) -> bool:
    return (got.obj, got.incl, got.amb, got.components, got.offsets) == (
        want.obj, want.incl, want.amb, want.components, want.offsets
    )


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


# ---------------------------------------------------------------------------
# the root presentation against the Eilenberg-Zilber one


def corpus_objects(p: int, N: int) -> list[so.SimplicialObject]:
    """Both ends of one draw of every sampler kind (the object itself for
    random_sobj) and of two random_small_map draws."""
    out = []
    for kind in sm.KINDS:
        got = sm.sample(kind, p, N, seed=0, cap=CAP)
        out += [got] if kind == "random_sobj" else [got.source, got.target]
    for s in range(2):
        f = sm.random_small_map(p, N, sm.rng_for(f"cotensor-oracle:roots:{p}:{N}:{s}"))
        out += [f.source, f.target]
    return out


def corpus_shapes(N: int) -> list[ss.SSet]:
    """Both ends of every injective_pool member, each shape once, then
    the 1-simplex squared, the horn of the 2-simplex at 1 times the
    1-simplex, and at N = 1 the circle."""
    ends = [end for _, i in hn.injective_pool(N) for end in (i.source, i.target)]
    out = list({id(k): k for k in ends}.values())
    out.append(ss.product(ss.delta(N, 1), ss.delta(N, 1)))
    out.append(ss.product(ss.horn_inclusion(N, 2, 1).source, ss.delta(N, 1)))
    if N == 1:
        out.append(circle())
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 101])
def test_root_cotensor_matches_ez_reference(p, N):
    cases = 0
    for x in corpus_objects(p, N):
        for k in corpus_shapes(N):
            assert same_cotensor(so.cotensor0(x, k), ez_cotensor(x, k)), (k.levels[0], x.N)
            cases += 1
    assert cases == 15 * (13 if N > 1 else 9)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_boundary_comparison_matches_composed_paths(N):
    """The matching-to-cotensor comparison read off the spread equals the
    one composed along an operator path per simplex."""
    for p in (2, 101):
        for x in corpus_objects(p, N):
            for n in range(N + 1):
                ct = so.cotensor0(x, ss.boundary_inclusion(N, n).source)
                mt = so.matching(x, n)
                got = so.boundary_cotensor_from_matching(x, n, ct, mt)
                assert got == composed_boundary_cotensor(x, n, ct, mt), (p, n)


def test_simplex_needs_no_condition_rows(monkeypatch):
    """Against the n-simplex the identity is the one root and no face is
    reached twice, so X^{Delta^n} is X_n with no kernel taken; against its
    boundary the roots are the n + 1 facets."""
    for N in range(1, 6):
        for n in range(N + 1):
            k = ss.delta(N, n)
            roots, steps, conds = ss.root_walk(k)
            assert roots == ((n, k.index_of(n, tuple(range(n + 1)))),)
            assert conds == ()
            assert len(steps) == sum(k.card(m) for m in range(N + 1))
            facets = ss.root_walk(ss.boundary_inclusion(N, n).source)[0]
            assert [m for m, _ in facets] == [n - 1] * (n + 1 if n else 0)
    # the 3-simplex boundary: 6 conditions on the edges, 4 on the vertices
    assert len(ss.root_walk(ss.boundary_inclusion(3, 3).source)[2]) == 10
    calls, kernel = [], so.kernel_basis
    monkeypatch.setattr(so, "kernel_basis", lambda m: calls.append(m.shape) or kernel(m))
    for x in small_map_objects(3):
        for n in range(4):
            ct = so.cotensor0(x, ss.delta(3, n))
            assert ct.obj.dims == x.level(n).dims
    assert calls == []
