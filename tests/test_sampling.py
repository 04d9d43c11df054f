"""Seeded samplers emit members of the class they advertise."""

import pytest

import reedychain.chain as ch
import reedychain.classify as cl
import reedychain.sampling as sm
import reedychain.sobj as so
import reedychain.totals as tt
from test_realize_oracle import is_skeletal

P = 7
N = 2


def test_random_complex_validates_and_is_seeded():
    rng = sm.rng_for("complex:0")
    xs = [sm.random_complex(P, rng) for _ in range(5)]
    for x in xs:
        ch.validate_complex(x)
        assert x.p == P
    again = sm.rng_for("complex:0")
    ys = [sm.random_complex(P, again) for _ in range(5)]
    assert xs == ys


def test_random_chain_map_commutes():
    rng = sm.rng_for("cmap:0")
    for _ in range(5):
        a = sm.random_complex(P, rng)
        b = sm.random_complex(P, rng)
        f = sm.random_chain_map(a, b, rng)
        ch.validate_map(f)


def test_random_epi_is_epi_and_acyclic_fiber_gives_qis():
    rng = sm.rng_for("epi:0")
    for _ in range(4):
        g = sm.random_epi(P, rng, acyclic_fiber=False)
        ch.validate_map(g)
        assert ch.is_epi(g)
    for _ in range(4):
        g = sm.random_epi(P, rng, acyclic_fiber=True)
        assert ch.is_epi(g)
        assert ch.is_quasi_iso(g)


def test_random_sobj_validates():
    for seed in range(4):
        x = sm.sample("random_sobj", P, N, seed)
        so.validate_sobj(x)
        assert x.N == N
        assert x.p == P


def test_random_skeletal_sobj_is_skeletal():
    rng = sm.rng_for("skel:0")
    for _ in range(6):
        x = sm.random_skeletal_sobj(P, N, rng)
        so.validate_sobj(x)
        assert is_skeletal(x)


def test_sample_is_deterministic_per_seed():
    for kind in sm.KINDS:
        a = sm.sample(kind, P, N, seed=3)
        b = sm.sample(kind, P, N, seed=3)
        assert a == b, kind


def test_draw_is_the_sample_unclassified():
    """Size scans reject on ``draw`` and classify only the accepted seed,
    so the two must return the same build."""
    for kind in sm.KINDS:
        for s in range(3):
            assert sm.draw(kind, P, N, seed=s) == sm.sample(kind, P, N, seed=s), (kind, s)
    with pytest.raises(ValueError):
        sm.draw("nope", P, N, seed=0)


def test_sample_varies_with_seed():
    # not every pair differs, but across a few seeds something must
    for kind in sm.KINDS:
        outs = [sm.sample(kind, P, N, seed=s) for s in range(4)]
        assert any(o != outs[0] for o in outs[1:]), kind


def test_reedy_cofibration_samples_classify():
    for seed in range(6):
        f = sm.sample("reedy_cofibration", P, N, seed)
        so.validate_smap(f)
        assert cl.classify(f, check_invariant=False).reedy_cof


def test_reedy_fibration_samples_classify():
    for seed in range(6):
        f = sm.sample("reedy_fibration", P, N, seed)
        so.validate_smap(f)
        assert cl.classify(f).reedy_fib


def test_equifibered_samples_classify():
    for seed in range(6):
        f = sm.sample("equifibered_fibration", P, N, seed)
        c = cl.classify(f)
        assert c.reedy_fib
        assert c.equifibered


def test_equifibered_exact_samples_hit_the_exact_flag():
    for seed in range(6):
        f = sm.sample("equifibered_exact", P, N, seed)
        c = cl.classify(f)
        assert c.equifibered
        assert c.realization_we
        assert c.realization_exact


def test_trivial_fibration_samples_classify():
    for seed in range(6):
        f = sm.sample("trivial_fibration", P, N, seed)
        c = cl.classify(f)
        assert c.reedy_trivial_fib


def test_equifibered_exact_at_higher_truncation():
    f = sm.sample("equifibered_exact", P, 3, seed=1)
    c = cl.classify(f)
    assert c.equifibered and c.realization_we and c.realization_exact


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        sm.sample("nonsense", P, N, 0)
