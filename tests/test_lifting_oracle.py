"""Differential tests of lifting through the corner maps against the
square-system decision on boxed generators and against the cotensor
corners.

``lifting.generator_rlp`` decides whether f box i has the universal RLP
against q from the corner map of q along i and a closed form in the chain
generator f.  The first reference is the path the corners replaced:
build the box with ``classify.pushout_product`` and decide with
``lifting.has_universal_rlp``, which solves for the span of commuting
squares and the image of the hom space.  The J check's report is compared
whole against the report that path gave, with the equifibered verdict read
from ``classify``.

The second reference is the corner as a general limit, the cotensor corner
X^L -> Y^L x_{Y^K} X^K built from ``sobj.cotensor0``.  The library reads
the same corner, up to isomorphism, off the levels and matching objects
(``lifting.corner_map``); the tests compare the verdicts and cap refusals
of both, and exhibit the isomorphism of each coface corner through the
Yoneda projections.
"""

import pytest

from reedychain import chain as ch
from reedychain import classify as cl
from reedychain import harness as hn
from reedychain import lifting as lf
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain.errors import ResourceCapError

P = 101
N = 2
CAP = 512
DIM_BOUND = 8
J_FAMILIES = ("J'", "J''")
WINDOW = (-1, 3)
N_RANGE = (0, 2)
KINDS = ("reedy_fibration", "reedy_cofibration", "trivial_fibration", "equifibered_fibration")


# ---------------------------------------------------------------------------
# reference path


def boxes(families, window, n_range) -> list[lf.Generator]:
    return [m for fam in families for m in lf.generators(fam, P, N, window, n_range).members]


def reference_report(pm, families, window, n_range, members) -> dict:
    """check_j_injective_vs_equifibered by boxes, square systems and a full
    classify; ``members`` are the boxes of the families."""
    results = [{"label": m.label, "rlp": lf.has_universal_rlp(m.map, pm)} for m in members]
    rlp_all = all(r["rlp"] for r in results)
    equif = cl.classify(pm, check_invariant=False).equifibered
    violations = [r for r in results if not r["rlp"]] if equif and not rlp_all else []
    return {
        "check": "j-vs-equifibered",
        "p": pm.source.p,
        "N": pm.source.N,
        "families": list(families),
        "window": list(window),
        "n_range": list(n_range),
        "members": results,
        "rlp_all": rlp_all,
        "equifibered": equif,
        "agreement": rlp_all == equif,
        "caveat": (
            "lifting against the finite generator window is necessary for an "
            "equifibered fibration; the converse is not asserted at finite truncation"
        ),
        "violations": violations,
        "status": "violation" if violations else "ok",
    }


# closed form deciding a corner against each family's chain generator
CLOSED_FORMS = {
    "I": lf.rlp_against_sphere_disk,
    "J'": lf.rlp_against_disk,
    "J''": lf.rlp_against_sphere_disk,
}


def simplicial_part(N: int, n: int, j: int | None) -> ss.SSetMap:
    """The boundary inclusion of the n-simplex (j None) or the coface d^j."""
    if j is None:
        return ss.boundary_inclusion(N, n)
    return ss.delta_map(N, ss.operator_tuple(n, n - 1, j), n)


def cotensor_generator_rlp(q, families, window, n_range, cap=None) -> list:
    """generator_rlp through the cotensor corner c: X^L -> Y^L x_{Y^K} X^K
    of q along each simplicial part i: K -> L, each cotensor built once per
    shape and each corner once per part."""
    cotensors = {}
    corners = {}

    def cotensors_at(k: ss.SSet):
        if k not in cotensors:
            cotensors[k] = (so.cotensor0(q.source, k), so.cotensor0(q.target, k))
        return cotensors[k]

    def corner(part: str, i: ss.SSetMap) -> ch.ChainMap:
        if part not in corners:
            xk, yk = cotensors_at(i.source)
            xl, yl = cotensors_at(i.target)
            span = ch.pullback(so.cotensor_restrict(i, yl, yk), so.cotensor_apply(q, xk, yk))
            al, rx = so.cotensor_apply(q, xl, yl), so.cotensor_restrict(i, xl, xk)
            corners[part] = ch.pullback_mediator(span, al, rx)
        return corners[part]

    out = []
    for family in families:
        for label, m, part, n, j in lf._members(family, window, n_range):
            c = corner(part, simplicial_part(q.source.N, n, j))
            out.append((label, CLOSED_FORMS[family](c, m, cap)))
    return out


# ---------------------------------------------------------------------------
# inputs


def bounded_sample(kind: str, seed: int) -> so.SimplicialMap:
    """A sampled map at cap 512 with every level dimension at most 8,
    scanning unclassified draws forward from the seed as acceptance a08
    does; only the accepted draw is classified."""
    while True:
        try:
            f = sm.draw(kind, P, N, seed=seed, cap=CAP)
        except ResourceCapError:
            f = None
        if f is not None and all(
            x.level(n).total_dim() <= DIM_BOUND for x in (f.source, f.target) for n in range(N + 1)
        ):
            return sm.sample(kind, P, N, seed=seed, cap=CAP)
        seed += 100003


def maps():
    out = [(f"{kind}:{s}", bounded_sample(kind, s)) for kind in KINDS for s in range(4)]
    for s in range(8):
        out.append((f"small:{s}", sm.random_small_map(P, N, sm.rng_for(f"lifting-oracle:{s}"))))
    return out


# ---------------------------------------------------------------------------
# tests


def test_corner_verdicts_match_boxes():
    """Every member of I, J' and J'' over degrees -1..3 and simplices 0..2,
    on 16 bounded samples of four kinds and 8 random_small_map draws: the
    J check's report equals the square-system reference key for key, and
    the corner verdicts on I equal the reference verdicts."""
    i_members = boxes(("I",), WINDOW, N_RANGE)
    j_members = boxes(J_FAMILIES, WINDOW, N_RANGE)
    assert len(i_members) + len(j_members) == 55
    negatives = 0
    for name, pm in maps():
        got_i = lf.generator_rlp(pm, ["I"], WINDOW, N_RANGE)
        want_i = [(m.label, lf.has_universal_rlp(m.map, pm)) for m in i_members]
        assert got_i == want_i, name
        got = hn.check_j_injective_vs_equifibered(pm, J_FAMILIES, WINDOW, N_RANGE)
        want = reference_report(pm, J_FAMILIES, WINDOW, N_RANGE, j_members)
        assert got == want, name
        negatives += sum(not ok for _, ok in got_i)
        negatives += sum(not r["rlp"] for r in got["members"])
    # the agreement must not be vacuous
    assert negatives >= 50


def test_j_check_refuses_non_j_families():
    """Lifting against I characterizes trivial fibrations, not equifibered
    ones: the J check refuses I rather than report its failures as
    violations.  The equifibered sample from seed 2 fails against I."""
    pm = bounded_sample("equifibered_fibration", 2)
    assert not all(ok for _, ok in lf.generator_rlp(pm, ["I"], WINDOW, N_RANGE))
    for families in (("I",), ("I", "J'", "J''"), ("J'", "K")):
        with pytest.raises(ValueError):
            hn.check_j_injective_vs_equifibered(pm, families, WINDOW, N_RANGE)
    rep = hn.check_j_injective_vs_equifibered(pm, J_FAMILIES, WINDOW, N_RANGE)
    assert rep["equifibered"] and rep["status"] == "ok"


def _universal_rlp_at_chain_level(f: ch.ChainMap, c: ch.ChainMap) -> bool:
    return lf.has_universal_rlp(so.constant_map(0, f), so.constant_map(0, c))


def _hand_built_maps():
    s0, s1 = ch.sphere(P, 0), ch.sphere(P, 1)
    d1 = ch.disk(P, 1)
    mixed = ch.direct_sum([s0, d1, s1])
    return {
        "identity": ch.identity_map(mixed),
        "zero-to-sphere": ch.zero_map(ch.zero_complex(P), s1),
        # onto in every degree, but the cycle of S^0 has no preimage bounding it
        "sphere-to-zero": ch.zero_map(s0, ch.zero_complex(P)),
        "disk-to-zero": ch.zero_map(d1, ch.zero_complex(P)),
        "sphere-into-disk": ch.sphere_disk_inclusion(P, 1),
    }


@pytest.mark.parametrize("m", [-1, 0, 1, 2])
@pytest.mark.parametrize("name", sorted(_hand_built_maps()))
def test_closed_forms_match_chain_level_lifting(name, m):
    c = _hand_built_maps()[name]
    assert lf.rlp_against_disk(c, m) == _universal_rlp_at_chain_level(ch.disk_from_zero(P, m), c)
    assert lf.rlp_against_sphere_disk(c, m) == _universal_rlp_at_chain_level(
        ch.sphere_disk_inclusion(P, m), c
    )


def test_closed_forms_on_hand_built_maps():
    maps_ = _hand_built_maps()
    for m in (-1, 0, 1, 2):
        assert lf.rlp_against_disk(maps_["identity"], m)
        assert lf.rlp_against_sphere_disk(maps_["identity"], m)
        assert lf.rlp_against_sphere_disk(maps_["disk-to-zero"], m)
    # 0 -> S^1 is not onto in degree 1
    assert not lf.rlp_against_disk(maps_["zero-to-sphere"], 1)
    assert lf.rlp_against_disk(maps_["zero-to-sphere"], 0)
    # S^0 -> 0 is onto in degree 1, yet the square (x, 0) on the cycle x
    # of S^0 has no lift, since S^0 has nothing in degree 1
    assert lf.rlp_against_disk(maps_["sphere-to-zero"], 1)
    assert not lf.rlp_against_sphere_disk(maps_["sphere-to-zero"], 1)


def test_corner_path_honours_cap():
    pm = bounded_sample("equifibered_fibration", 0)
    with pytest.raises(ResourceCapError):
        hn.check_j_injective_vs_equifibered(pm, window=(0, 1), n_range=(0, 1), cap=1)
    with pytest.raises(ResourceCapError):
        lf.rlp_against_sphere_disk(ch.identity_map(ch.disk(P, 1)), 1, cap=1)
    assert lf.rlp_against_sphere_disk(ch.identity_map(ch.disk(P, 1)), 1, cap=2)


def test_generator_rlp_refuses_what_generators_refuses():
    q = so.identity_smap(so.constant(N, ch.sphere(P, 0)))
    for family, window, n_range in (("K", (0, 1), (0, 1)), ("J'", (1, 0), (0, 1))):
        with pytest.raises(ValueError):
            lf.generators(family, P, N, window, n_range)
        with pytest.raises(ValueError):
            lf.generator_rlp(q, [family], window, n_range)


# ---------------------------------------------------------------------------
# corners read off the levels against the cotensor corners


def corner_maps(N: int) -> list:
    """Two bounded draws of three kinds and four random_small_map draws at
    truncation N, p = 101."""
    out = []
    for kind in ("reedy_fibration", "trivial_fibration", "equifibered_fibration"):
        for seed in range(2):
            try:
                out.append(sm.draw(kind, P, N, seed=seed, cap=CAP))
            except ResourceCapError:
                continue
    for s in range(4):
        out.append(sm.random_small_map(P, N, sm.rng_for(f"corner-oracle:{N}:{s}")))
    return out


def rlp_outcome(decide, q, cap):
    try:
        return decide(q, lf.FAMILIES, (-2, 4), (0, q.source.N), cap)
    except ResourceCapError as e:
        return str(e)


@pytest.mark.parametrize("N", (1, 2, 3))
def test_level_corners_match_cotensor_corners(N):
    """I, J' and J'' over degrees -2..4 and every simplex up to N: the
    verdicts from the level corners equal the cotensor corners' verdicts,
    and under a small cap the refusal messages are the same strings."""
    outcomes = []
    for q in corner_maps(N):
        for cap in (None, 6):
            got = rlp_outcome(lf.generator_rlp, q, cap)
            assert got == rlp_outcome(cotensor_generator_rlp, q, cap)
            outcomes.append(got)
    verdicts = [ok for got in outcomes if isinstance(got, list) for _, ok in got]
    assert any(isinstance(got, str) for got in outcomes)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("N", (1, 2, 3))
def test_coface_corner_is_isomorphic_to_cotensor_corner(N):
    """For each coface d^j into the n-simplex, the Yoneda projections carry
    the cotensor corner X^{Delta^n} -> Y^{Delta^n} x X^{Delta^{n-1}} onto
    the level corner X_n -> Y_n x_{Y_{n-1}} X_{n-1}: the mediator theta of
    the projected legs is an isomorphism with theta c = c' phi.  Each
    boundary corner is the relative matching map, which
    ``matching_cotensor_comparison`` identifies with its cotensor corner."""
    for q in corner_maps(N)[:3]:
        x, y = q.source, q.target
        for n in range(N + 1):
            assert lf.corner_map(q, n) == cl.relative_matching(q, n).map
            assert cl.matching_cotensor_comparison(q, n)
        for n in range(1, N + 1):
            for j in range(n + 1):
                sq = cl.cotensor_map(q, simplicial_part(N, n, j))
                level = lf.corner_map(q, n, j)
                span = ch.pullback(y.face(n, j), q.level(n - 1))
                phi_x = so.yoneda_projection(x, n, sq.xl)
                phi_y = so.yoneda_projection(y, n, sq.yl)
                phi_xk = so.yoneda_projection(x, n - 1, sq.xk)
                assert ch.is_iso(phi_x) and ch.is_iso(phi_y) and ch.is_iso(phi_xk)
                theta = ch.pullback_mediator(
                    span, phi_y @ sq.span.left, phi_xk @ sq.span.right
                )
                assert ch.is_iso(theta), (n, j)
                assert theta @ sq.map == level @ phi_x, (n, j)


def test_generator_rlp_builds_no_cotensor_and_no_simplicial_part(monkeypatch):
    """The corners come from levels and matching objects alone: no
    ``cotensor0`` call, and no boundary inclusion or coface map is built."""
    q = corner_maps(2)[0]
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for mod, name in ((so, "cotensor0"), (ss, "boundary_inclusion"), (ss, "delta_map")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    got = lf.generator_rlp(q, lf.FAMILIES, WINDOW, N_RANGE)
    assert calls == []
    assert got == cotensor_generator_rlp(q, lf.FAMILIES, WINDOW, N_RANGE)
    assert "cotensor0" in calls


def test_generator_rlp_refuses_simplices_beyond_the_truncation():
    """X^{Delta^n} is the level X_n only for n <= N: a range past the
    truncation is refused."""
    q = so.identity_smap(so.constant(N, ch.sphere(P, 0)))
    with pytest.raises(ValueError, match="exceeds the truncation"):
        lf.generator_rlp(q, ["J'"], (0, 1), (0, N + 1))
    assert lf.generator_rlp(q, ["J'"], (0, 1), (0, N))
