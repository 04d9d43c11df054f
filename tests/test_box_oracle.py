"""Differential tests of ``classify.pushout_product`` against the cokernel
construction it replaced.

The reference path kept here glues X tensor L and Y tensor K over
X tensor K as a levelwise cokernel (``sobj.pushout_sobj``, whose operators
come from ``chain.pushout_mediator``) and reads the box map off the
universal property.  The routed box must give the same bytes under
``serialization.dumps``: levels, operators and level maps.

The corpus crosses sampled Reedy cofibrations, sampled trivial
cofibrations and the sphere-disk and disk generators in degrees -1, 0 and
1 with every ``harness.injective_pool`` member, at N = 1, 2 and 3; it is
largest at p = 101.  The boxes of ``lifting.generators`` are checked too.
"""

import pytest

from reedychain import chain as ch
from reedychain import classify as cl
from reedychain import harness as hn
from reedychain import lifting as lf
from reedychain import linalg as la
from reedychain import sampling as sm
from reedychain import serialization as sz
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain.errors import ValidationFailure

# ---------------------------------------------------------------------------
# reference path


def ref_pushout_product(f, i: ss.SSetMap) -> so.SimplicialMap:
    if isinstance(f, ch.ChainMap):
        f = so.constant_map(i.source.N, f)
    xi = so.tensor_sobj_sset_map(f.source, i)
    fk = so.tensor_smap_with_sset(f, i.source)
    span = so.pushout_sobj(xi, fk)
    fl = so.tensor_smap_with_sset(f, i.target)
    yi = so.tensor_sobj_sset_map(f.target, i)
    lv = tuple(
        ch.pushout_mediator(ch.pushout(xi.level(n), fk.level(n)), fl.level(n), yi.level(n))
        for n in range(span.obj.N + 1)
    )
    return so.SimplicialMap(span.obj, yi.target, lv)


def assert_same_box(f, i, where):
    assert sz.dumps(cl.pushout_product(f, i)) == sz.dumps(ref_pushout_product(f, i)), where


# ---------------------------------------------------------------------------
# inputs


def chain_generators(p: int) -> list[ch.ChainMap]:
    out = [ch.sphere_disk_inclusion(p, m) for m in (-1, 0, 1)]
    return out + [ch.disk_from_zero(p, m) for m in (-1, 0, 1)]


# (p, N) -> sampled Reedy cofibrations, sampled trivial cofibrations and
# chain generators (all six, or every other one).  Level dimensions grow
# fast with N, so N = 3 and the small primes take fewer samples.
CORPUS = {(101, 1): (8, 7, 1), (101, 2): (5, 4, 1), (101, 3): (1, 1, 1)}
CORPUS |= {(p, N): (2, 1, 2) for p in (2, 3) for N in (1, 2)}
CORPUS |= {(p, 3): (0, 1, 2) for p in (2, 3)}


def corpus(p: int, N: int) -> list:
    reedy, trivial, step = CORPUS[(p, N)]
    out = [sm.draw("reedy_cofibration", p, N, seed=s) for s in range(reedy)]
    out += [
        sm.random_trivial_cofibration(p, N, sm.rng_for(f"box-oracle:{p}:{N}:{s}"))
        for s in range(trivial)
    ]
    return out + chain_generators(p)[::step]


# ---------------------------------------------------------------------------
# differential tests


@pytest.mark.parametrize("p, N", sorted(CORPUS))
def test_boxes_equal_reference(p, N):
    for c, f in enumerate(corpus(p, N)):
        for label, i in hn.injective_pool(N):
            assert_same_box(f, i, (c, label))


@pytest.mark.parametrize("family", lf.FAMILIES)
def test_generator_boxes_equal_reference(family):
    p, N, window = 7, 2, (-1, 3)
    n_range = (1, 2) if family == "J''" else (0, 2)
    gens = lf.generators(family, p, N, window, n_range).members
    members = lf._members(family, window, n_range)
    assert len(gens) == len(members)
    chain_gen = ch.disk_from_zero if family == "J'" else ch.sphere_disk_inclusion
    for g, (label, m, _, n, j) in zip(gens, members):
        if j is None:
            i = ss.boundary_inclusion(N, n)
        else:
            i = ss.delta_map(N, ss.operator_tuple(n, n - 1, j), n)
        assert g.label == label
        assert sz.dumps(g.map) == sz.dumps(ref_pushout_product(chain_gen(p, m), i)), label


def test_pushout_product_runs_no_elimination(monkeypatch):
    # rref, solve and kernel_basis all eliminate through _rref_inplace
    calls = []
    real = la._rref_inplace
    monkeypatch.setattr(la, "_rref_inplace", lambda p, a: calls.append(a.shape) or real(p, a))
    f = sm.draw("reedy_cofibration", 5, 2, seed=1)
    calls.clear()
    for _, i in hn.injective_pool(2):
        cl.pushout_product(f, i)
        cl.pushout_product(ch.sphere_disk_inclusion(5, 0), i)
    assert calls == []
    # the reference path does eliminate, so the counter is live
    ref_pushout_product(f, ss.boundary_inclusion(2, 1))
    assert calls


def test_pushout_product_refuses_non_injective_maps():
    i = ss.delta_map(2, (0, 0, 1), 1)
    assert not i.is_injective()
    with pytest.raises(ValidationFailure) as err:
        cl.pushout_product(ch.sphere_disk_inclusion(5, 0), i)
    assert str(err.value) == "pushout product needs an injective simplicial set map"
