"""Differential tests of classify's normal form.

``classify`` reads all four of its own verdicts off the normalized level
maps N_nf.  Here its level and cofibration witnesses are compared with the
full-level ones, the standalone face-square witness with the pullback path
of ``test_reedy_oracle``, and every report with the report of the same map
after a random change of basis in every level of both ends.  The J-window
lifting check and the lem-match comparison get the same change of basis.

The corpus: five sampler kinds at p = 2, 3 and 101, N = 1..3, seeds 0-1,
three random small maps per (p, N), and the boxes of Reedy cofibrations at
N = 2 and 3 against the injective pool.
"""

from functools import lru_cache

import pytest

from reedychain import chain as ch
from reedychain import classify as cl
from reedychain import harness as hn
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain.errors import ResourceCapError
from test_reedy_oracle import MAP_KINDS, face_square_outcome, reference_face_square_witness

PRIMES = (2, 3, 101)


@lru_cache(maxsize=None)
def sampled_corpus() -> tuple:
    """Sampler draws that pass the cap, then random small maps."""
    out = []
    for p in PRIMES:
        for N in (1, 2, 3):
            for kind in MAP_KINDS:
                for seed in (0, 1):
                    try:
                        out.append(sm.draw(kind, p, N, seed, cap=512))
                    except ResourceCapError:
                        continue
            rng = sm.rng_for(f"normal-form:{p}:{N}")
            out += [sm.random_small_map(p, N, rng) for _ in range(3)]
    return tuple(out)


@lru_cache(maxsize=None)
def boxes() -> tuple:
    return tuple(
        cl.pushout_product(sm.draw("reedy_cofibration", 3, N, seed=0), i)
        for N in (2, 3)
        for _, i in hn.injective_pool(N)
    )


def pullback_face_square_outcome(f: so.SimplicialMap):
    """The refusal of an f that is not onto at some full level, else the
    first face square whose pullback comparison is not a quasi-isomorphism."""
    for n, m in enumerate(f.levels):
        t = ch.epi_witness(m)
        if t is not None:
            return f"face squares need f onto at every level; f_{n} is not onto in degree {t}"
    return reference_face_square_witness(f)


def test_level_witnesses_equal_full_levels():
    """classify's level_we and reedy_cof witnesses, read off N_nf, are the
    first failing full level and degree; failures above level 0 occur."""
    above_zero = {"level_we": 0, "reedy_cof": 0}
    for f in sampled_corpus() + boxes():
        got = cl.classify(f, check_invariant=False).witnesses
        want = {"level_we": cl.level_we_witness(f), "reedy_cof": cl.reedy_cof_witness(f)}
        for key, w in want.items():
            assert got.get(key) == w, key
            above_zero[key] += w is not None and w[0] >= 1
    assert min(above_zero.values()) >= 5, above_zero


def test_face_square_outcomes_equal_pullback_path():
    """The standalone face-square witness, or its refusal message, is the
    pullback path's; refusals, witnesses and passes all occur."""
    outcomes = []
    for f in sampled_corpus() + boxes():
        got = face_square_outcome(cl.face_square_witness, f)
        assert got == pullback_face_square_outcome(f)
        outcomes.append(got)
    assert sum(isinstance(w, str) for w in outcomes) >= 10
    assert sum(isinstance(w, tuple) for w in outcomes) >= 4
    assert None in outcomes


def conjugate_sobj(x: so.SimplicialObject, rng):
    """x with every level changed by a random basis, the operators
    conjugated to match; returns it with the level isomorphisms onto x."""
    pairs = [sm.conjugate_with_iso(x.level(n), rng) for n in range(x.N + 1)]
    isos = [iso for _, iso in pairs]

    def op(n: int, m: int, i: int) -> ch.ChainMap:
        return ch.invert_map(isos[m]) @ x.operator(n, m, i) @ isos[n]

    xc = so.SimplicialObject(x.N, tuple(c for c, _ in pairs), *ss.operator_tables(x.N, op))
    return xc, isos


def conjugate_smap(f: so.SimplicialMap, rng) -> so.SimplicialMap:
    xc, ix = conjugate_sobj(f.source, rng)
    yc, iy = conjugate_sobj(f.target, rng)
    levels = tuple(ch.invert_map(iy[n]) @ f.level(n) @ ix[n] for n in range(f.source.N + 1))
    return so.SimplicialMap(xc, yc, levels)


def test_reports_are_invariant_under_change_of_basis():
    """Every verdict and witness is a statement about isomorphism classes:
    the report of a map equals that of the map with every level of both
    ends in a random basis."""
    rng = sm.rng_for("normal-form:conjugate")
    changed = 0
    for f in sampled_corpus():
        g = conjugate_smap(f, rng)
        so.validate_smap(g)
        changed += g != f
        want = cl.classification_report(cl.classify(f, check_invariant=False))
        assert cl.classification_report(cl.classify(g, check_invariant=False)) == want
    assert changed >= len(sampled_corpus()) // 2


def bounded_draws(N: int) -> list:
    """Three draws of every map kind over F_101 at cap 512 whose levels all
    have dimension at most 8, scanning seeds forward."""
    out = []
    for kind in MAP_KINDS:
        for seed in range(3):
            while True:
                try:
                    f = sm.draw(kind, 101, N, seed=seed, cap=512)
                except ResourceCapError:
                    f = None
                if f is not None and all(
                    x.level(n).total_dim() <= 8 for x in (f.source, f.target) for n in range(N + 1)
                ):
                    out.append(f)
                    break
                seed += 100003
    return out


@pytest.mark.parametrize("N", (2, 3))
def test_j_window_is_invariant_under_change_of_basis(N):
    """Lifting against each member of J' and J'' over degrees -1..3 and
    the equifibered verdict do not depend on the bases of the levels.
    Every J' corner of a Reedy fibration is onto, so the Reedy
    cofibrations are what make a basis-dependent J' verdict show; members
    fail and pass, so the comparison is not vacuous."""
    rng = sm.rng_for(f"normal-form:j-window:{N}")
    verdicts = []
    for f in bounded_draws(N):
        g = conjugate_smap(f, rng)
        want = hn.check_j_injective_vs_equifibered(f, window=(-1, 3), n_range=(0, 2))
        got = hn.check_j_injective_vs_equifibered(g, window=(-1, 3), n_range=(0, 2))
        assert (got["members"], got["equifibered"]) == (want["members"], want["equifibered"])
        verdicts += [r["rlp"] for r in got["members"]]
    assert verdicts.count(False) >= 5 and verdicts.count(True) >= 5


@pytest.mark.parametrize("N", (2, 3))
def test_lem_match_holds_after_change_of_basis(N):
    """The lem-match comparison holds at every n for conjugated
    ``random_small_map`` draws."""
    rng = sm.rng_for(f"normal-form:lem-match:{N}")
    for _ in range(6):
        g = conjugate_smap(sm.random_small_map(101, N, rng), rng)
        so.validate_smap(g)
        for n in range(N + 1):
            assert cl.matching_cotensor_comparison(g, n), n
