"""Desk-scale acceptance checks: every numbered suite here is an end-to-end
property run at p = 101 with small level dimensions, and each one is expected
to finish well inside a minute.  The terminal summary prints one line per
suite (see conftest)."""

import reedychain.chain as ch
import reedychain.classify as cl
import reedychain.config as cf
import reedychain.fixtures as fx
import reedychain.harness as hn
import reedychain.realize as rz
import reedychain.sampling as sm
import reedychain.sobj as so
import reedychain.ssets as ss
import reedychain.totals as tt
from reedychain.linalg import FpMatrix
from test_realize_oracle import coend, is_skeletal
from test_reedy_oracle import homotopically_constant_witness

P = 101
DIM_BOUND = 8


def max_level_dim(x: so.SimplicialObject) -> int:
    return max(sum(x.level(n).dims) for n in range(x.N + 1))


def bounded_sample(kind: str, N: int, seed: int) -> so.SimplicialMap:
    """Library sample with every level dimension inside the desk budget,
    found by scanning unclassified draws forward from the requested seed;
    only the accepted draw is classified."""
    s = seed
    while True:
        f = sm.draw(kind, P, N, seed=s)
        if max(max_level_dim(f.source), max_level_dim(f.target)) <= DIM_BOUND:
            return sm.sample(kind, P, N, seed=s)
        s += 100003


def test_a01_seeded_constructors_validate():
    """200 seeded constructions of every flavor pass structural validation."""
    checked = 0
    for s in range(200):
        rng = sm.rng_for(f"acceptance:constructors:{P}:{s}")
        style = s % 5
        if style == 0:
            so.validate_sobj(so.constant(3, sm.random_complex(P, rng)))
        elif style == 1:
            a = sm.random_complex(P, rng, pieces=(1, 1), lo=0, hi=1)
            k = ss.delta(2, 1) if rng.random() < 0.5 else ss.boundary_inclusion(2, 2).source
            so.validate_sobj(so.tensor_with_sset(a, k))
        elif style == 2:
            so.validate_sobj(rz.sing(sm.random_complex(P, rng, pieces=(1, 1)), 2))
        elif style == 3:
            m = int(rng.integers(0, 2))
            gen = cl.pushout_product(
                ch.sphere_disk_inclusion(P, m), ss.boundary_inclusion(2, 1)
            )
            z = sm.random_sobj_obj(P, 2, rng)
            u = sm.random_smap(gen.source, z, rng)
            so.validate_smap(so.pushout_sobj(gen, u).right)
        else:
            out = sm.sample(sm.KINDS[(s // 5) % len(sm.KINDS)], P, 2, seed=s)
            if isinstance(out, so.SimplicialMap):
                so.validate_smap(out)
            else:
                so.validate_sobj(out)
        checked += 1
    assert checked == 200


def test_a02_relative_matching_matches_boundary_corner():
    """50 sampled maps: the relative matching map agrees with the corner map
    against the boundary inclusion at every level n <= 3."""
    rep = hn.check_lem_match(P, 3, 50, seed=0)
    assert rep["status"] == "ok"
    assert rep["trials"] == 50
    assert rep["violations"] == []


def test_a03_boundary_cotensor_is_matching_object():
    """30 sampled objects: the cotensor against the simplex boundary carries
    the same homology as the matching object, through an explicit iso."""
    for s in range(30):
        rng = sm.rng_for(f"acceptance:boundary-cotensor:{P}:{s}")
        x = sm.random_small_map(P, 3, rng).source
        for n in range(4):
            k = ss.boundary_inclusion(x.N, n).source
            ct = so.cotensor0(x, k)
            mt = so.matching(x, n)
            theta = so.boundary_cotensor_from_matching(x, n, ct, mt)
            assert ch.is_iso(theta), (s, n)
            assert ch.homology_dims(ct.obj) == ch.homology_dims(mt.obj), (s, n)


def test_a04_box_with_injective_preserves_reedy_cofibrations():
    """50 sampled Reedy cofibrations, boxed against every built-in injective
    up to level 2: the box is a Reedy cofibration, and level-trivial whenever
    the cofibration is."""
    pool = hn.injective_pool(2)
    assert len(pool) == 13
    for s in range(50):
        f = sm.sample("reedy_cofibration", P, 2, seed=s)
        trivial = cl.level_we_witness(f) is None
        for label, i in pool:
            box = cl.pushout_product(f, i)
            assert cl.reedy_cof_witness(box) is None, (s, label)
            if trivial:
                assert cl.level_we_witness(box) is None, (s, label)


def test_a05_canonical_box_separates_level_from_realization():
    """The canonical pair (zero map into a constant sphere, horn of the
    interval) boxes to a map that fails levelwise but realizes to a
    quasi-isomorphism, confirmed against hand-built interval chains."""
    man = cf.Manifest(p=P, trunc=2, window=(-2, 4), cap=4096, seed=0, samples=20)
    f, i = fx.fixture("reedy-sm7", man)
    box = cl.pushout_product(f, i)

    assert cl.reedy_cof_witness(box) is None
    assert cl.level_we_witness(box) is not None
    res = tt.realization_we(box)
    assert res.we and res.exact

    # two vertices and the edge joining them, tensored with a point
    interval = ch.ChainComplex.build(
        P, 0, [2, 1], {1: FpMatrix.from_rows(P, [[1], [P - 1]])}
    )
    oracle = ch.tensor_complexes(interval, ch.sphere(P, 0))
    assert ch.homology_dims(oracle) == {0: 1}

    src = rz.realize(box.source).obj
    tgt = rz.realize(box.target).obj
    assert (tgt.lo, tgt.dims) == (oracle.lo, oracle.dims)
    assert ch.homology_dims(src) == ch.homology_dims(oracle)
    assert ch.homology_dims(tgt) == ch.homology_dims(oracle)


def test_a06_exact_equifibered_realization_equivalences_are_level():
    """100 sampled equifibered fibrations whose realization equivalence holds
    with the exact flag are level equivalences, with no exceptions."""
    for s in range(100):
        N = 2 if s < 50 else 3
        g = sm.sample("equifibered_exact", P, N, seed=s)
        c = cl.classify(g)
        assert c.reedy_fib and c.equifibered, s
        assert c.realization_we and c.realization_exact, s
        assert c.level_we, s


def test_a07_trivial_fibrations_are_equifibered():
    """100 sampled Reedy trivial fibrations are equifibered realization
    equivalences, with no exceptions."""
    for s in range(100):
        g = sm.sample("trivial_fibration", P, 2, seed=s)
        c = cl.classify(g)
        assert c.reedy_trivial_fib, s
        assert c.equifibered, s
        assert c.realization_we, s


def test_a08_equifibered_fibrations_lift_against_j_window():
    """50 sampled equifibered fibrations lift against every generator of
    both J families over degrees -1..3 and levels up to 2; the converse
    direction stays report-only."""
    for s in range(50):
        g = bounded_sample("equifibered_fibration", 2, seed=s)
        rep = hn.check_j_injective_vs_equifibered(g, window=(-1, 3), n_range=(0, 2))
        assert rep["equifibered"], s
        assert rep["rlp_all"], (s, [r for r in rep["members"] if not r["rlp"]])
        assert rep["violations"] == []
        assert rep["caveat"]


def test_a09_adjunction_dimension_identities():
    """30 sampled pairs: mapping-space dimensions agree across the
    constant/evaluation and realization/sing adjunctions."""
    for s in range(30):
        rng = sm.rng_for(f"acceptance:adjunction:{P}:{s}")
        a = sm.random_complex(P, rng, pieces=(1, 1))
        y = sm.random_sobj_obj(P, 2, rng)
        k1, _ = so.smap_space(so.constant(2, a), y, cf.DEFAULT_CAP)
        assert k1.cols == ch.chain_map_space(a, y.level(0))[0].cols, s
        k2, _ = so.smap_space(y, rz.sing(a, 2), cf.DEFAULT_CAP)
        assert k2.cols == ch.chain_map_space(rz.realize(y).obj, a)[0].cols, s


def test_a10_realization_homology_equals_normalized_total():
    """30 skeletal samples: the homology of the realization coend equals
    the homology of the normalized total complex, which ``realize``
    returns."""
    for s in range(30):
        rng = sm.rng_for(f"acceptance:skeletal:{P}:{s}")
        N = 2 if s % 2 == 0 else 3
        y = sm.random_skeletal_sobj(P, N, rng)
        assert is_skeletal(y), s
        r = coend(y).obj
        t = rz.realize(y).obj
        assert ch.homology_dims(r) == ch.homology_dims(t), s


def test_a11_sing_and_constant_are_homotopically_constant():
    """20 sampled complexes: both promotions to simplicial objects classify
    as homotopically constant."""
    for s in range(20):
        rng = sm.rng_for(f"acceptance:hconst:{P}:{s}")
        N = 2 if s % 2 == 0 else 3
        a = sm.random_complex(P, rng)
        assert homotopically_constant_witness(so.constant(N, a)) is None, s
        b = a if N == 2 else sm.random_complex(P, rng, pieces=(1, 1))
        assert homotopically_constant_witness(rz.sing(b, N)) is None, s
