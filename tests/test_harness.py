"""Check suites: report shape, determinism, and the frozen verdicts."""

import dataclasses
import json

import pytest

import reedychain.chain as ch
import reedychain.classify as cl
import reedychain.harness as hn
import reedychain.sampling as sm
import reedychain.sobj as so
import reedychain.ssets as ss
from reedychain.errors import ValidationFailure
from reedychain.linalg import FpMatrix

P = 7
N = 2


def counterexample_pair():
    zero = ch.zero_complex(P)
    f = so.constant_map(N, ch.zero_map(zero, ch.sphere(P, 0)))
    i = ss.horn_inclusion(N, 1, 0)
    return f, i


def test_sm7_single_reedy_reports_expected_failure():
    f, i = counterexample_pair()
    rep = hn.check_sm7(f, i, "reedy")
    assert rep["status"] == "ok"
    assert rep["parts"]["cofibration"] is True
    assert rep["parts"]["trivial"] is None  # f is not a level we
    assert rep["expected_failure"] is True
    assert rep["violations"] == []


def test_sm7_single_realization_asserts_part_three():
    f, i = counterexample_pair()
    rep = hn.check_sm7(f, i, "realization")
    assert rep["status"] == "ok"
    assert rep["parts"]["weq"] is True
    assert rep["expected_failure"] is False


def test_sm7_trivial_cofibration_hits_part_two():
    rng = sm.rng_for("sm7-trivial")
    f = sm.random_trivial_cofibration(P, N, rng)
    rep = hn.check_sm7(f, ss.boundary_inclusion(N, 1), "reedy")
    assert rep["status"] == "ok"
    assert rep["parts"]["trivial"] is True
    # boundary inclusions are not weak equivalences, part 3 does not apply
    assert rep["parts"]["weq"] is None


def test_sm7_part_two_reads_the_level_verdict_of_f():
    """Boxing with the identity of Delta^0 gives an isomorphism, a level
    equivalence, but f = S^1 -> D^2 is not one: part 2 does not apply."""
    f = so.constant_map(N, ch.sphere_disk_inclusion(101, 1))
    i = ss.delta_map(N, (0,), 0)
    assert cl.level_we_witness(f) is not None
    assert cl.level_we_witness(cl.pushout_product(f, i)) is None
    for structure in ("reedy", "realization"):
        rep = hn.check_sm7(f, i, structure)
        assert rep["parts"]["trivial"] is None, structure
        assert rep["violations"] == []


def test_sm7_preconditions():
    g = ch.ChainMap.build(
        ch.direct_sum([ch.sphere(P, 0), ch.sphere(P, 0)]),
        ch.sphere(P, 0),
        {0: FpMatrix.from_rows(P, [[1, 1]])},
    )
    not_cof = so.constant_map(N, g)
    with pytest.raises(ValidationFailure):
        hn.check_sm7(not_cof, ss.boundary_inclusion(N, 1), "reedy")
    f, _ = counterexample_pair()
    collapse = ss.delta_map(N, (0, 0), 0)  # Delta[1] -> Delta[0], not injective
    with pytest.raises(ValidationFailure):
        hn.check_sm7(f, collapse, "reedy")


def test_sm7_suite_ok_and_deterministic():
    a = hn.check_sm7_suite(P, N, samples=4, seed=0, structure="reedy")
    b = hn.check_sm7_suite(P, N, samples=4, seed=0, structure="reedy")
    assert a == b
    assert a["status"] == "ok"
    assert a["trials"] == 4
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def sm7_from_classifications(f, i, cf, cb, structure: str) -> dict:
    """The sm7 report rebuilt from the full classifications of f and of
    its box, as check_sm7 computed it before it called the three
    predicates directly."""
    violations = []
    parts = {"cofibration": cb.reedy_cof, "trivial": None, "weq": None}
    if not cb.reedy_cof:
        violations.append({"part": 1, "witness": cl.jsonable_witness(cb.witnesses.get("reedy_cof"))})
    if cf.level_we:
        parts["trivial"] = cb.level_we
        if not cb.level_we:
            violations.append({"part": 2, "witness": cl.jsonable_witness(cb.witnesses.get("level_we"))})
    expected_failure = False
    part3 = "skipped:unknown-weq" if i.weq is None else "skipped:not-weq"
    if i.weq is True and structure == "realization":
        parts["weq"] = cb.realization_we
        part3 = "asserted"
        if not cb.realization_we:
            violations.append(
                {
                    "part": 3,
                    "witness": cl.jsonable_witness(cb.witnesses.get("realization_we")),
                    "flag": cb.realization_flag,
                }
            )
    elif i.weq is True:
        parts["weq"] = cb.level_we
        part3 = "reported"
        expected_failure = not cb.level_we
    return {
        "check": "sm7",
        "structure": structure,
        "p": f.source.p,
        "N": f.source.N,
        "parts": parts,
        "part3": part3,
        "expected_failure": expected_failure,
        "violations": violations,
        "status": "violation" if violations else "ok",
    }


def test_sm7_reports_match_full_classification():
    """The suite's trials at p = 101, N = 2, seeds 0-11: check_sm7 reports
    equal the ones rebuilt from classify on f and on its box, for both
    structures, the truncation-limited clause-3 violations included."""
    p, pool = 101, hn.injective_pool(N)
    flags = []
    for s in range(12):
        rng = sm.rng_for(f"sm7-suite:{p}:{N}:{s}")
        if rng.random() < 0.3:
            f = sm.random_trivial_cofibration(p, N, rng, 512)
        else:
            f = sm.sample_reedy_cofibration(p, N, rng, 512)
        _, i = pool[s % len(pool)]
        cf = cl.classify(f, check_invariant=False)
        cb = cl.classify(cl.pushout_product(f, i), check_invariant=False)
        for structure in ("reedy", "realization"):
            rep = hn.check_sm7(f, i, structure)
            assert rep == sm7_from_classifications(f, i, cf, cb, structure), (s, structure)
            flags += [v["flag"] for v in rep["violations"] if v["part"] == 3]
    assert "truncation-limited" in flags


def test_realization_axiom_suite_ok():
    rep = hn.check_realization_axiom(P, N, samples=6, seed=0)
    assert rep["status"] == "ok"
    assert rep["in_scope"] >= 1
    assert rep["violations"] == []


def test_realization_axiom_reports_corruption():
    def corrupted(f, check_invariant=True):
        c = cl.classify(f, check_invariant=False)
        if c.equifibered and c.realization_we and c.realization_exact:
            return dataclasses.replace(
                c, level_we=False, witnesses={**c.witnesses, "level_we": (0, 0)}
            )
        return c

    rep = hn.check_realization_axiom(P, N, samples=4, seed=0, classifier=corrupted)
    assert rep["status"] == "violation"
    assert rep["violations"]
    assert all("witness" in v for v in rep["violations"])


def test_lem_match_suite_ok():
    rep = hn.check_lem_match(P, N, samples=5, seed=0)
    assert rep["status"] == "ok"
    assert rep["n_max"] == N
    assert rep["violations"] == []


def test_prop_proof_suite_ok():
    rep = hn.check_prop_proof(P, N, samples=4, seed=0)
    assert rep["status"] == "ok"
    assert rep["violations"] == []


def test_prop_proof_trivial_clause_needs_a_fibration(monkeypatch):
    """Level equivalences that are not Reedy fibrations fall outside the
    trivial-fibration clause, even where their corner is not onto."""
    drawn = []

    def trivial_cofibration(p, n, rng, cap=None):
        f = sm.random_trivial_cofibration(p, n, rng, cap)
        drawn.append(f)
        return f

    monkeypatch.setattr(sm, "sample_reedy_fibration", trivial_cofibration)
    monkeypatch.setattr(sm, "sample_trivial_fibration", trivial_cofibration)
    rep = hn.check_prop_proof(P, N, samples=4, seed=0)
    assert all(cl.level_we_witness(f) is None for f in drawn)
    assert all(cl.reedy_fib_witness(f) is not None for f in drawn)
    clauses = [v["clause"] for v in rep["violations"]]
    assert "epi" in clauses
    assert "trivial" not in clauses


def test_prop_i_cof_suite_ok_and_corruptible():
    rep = hn.check_prop_i_cof(P, N, samples=5, seed=0)
    assert rep["status"] == "ok"

    def corrupted(f, check_invariant=True):
        c = cl.classify(f, check_invariant=False)
        return dataclasses.replace(c, equifibered=False)

    bad = hn.check_prop_i_cof(P, N, samples=3, seed=0, classifier=corrupted)
    assert bad["status"] == "violation"


def test_j_suite_identity_agrees():
    x = so.tensor_with_sset(ch.sphere(P, 0), ss.delta(N, 1))
    rep = hn.check_j_injective_vs_equifibered(
        so.identity_smap(x), window=(0, 1), n_range=(0, 1)
    )
    assert rep["equifibered"] is True
    assert rep["rlp_all"] is True
    assert rep["agreement"] is True
    assert rep["status"] == "ok"
    assert rep["window"] == [0, 1]
    assert any("necessary" in w for w in [rep["caveat"]])


def test_j_suite_non_fibration_both_false():
    zero = ch.zero_complex(P)
    f = so.constant_map(N, ch.zero_map(zero, ch.sphere(P, 0)))
    rep = hn.check_j_injective_vs_equifibered(f, window=(0, 1), n_range=(0, 1))
    assert rep["equifibered"] is False
    assert rep["rlp_all"] is False
    assert rep["agreement"] is True
    assert rep["status"] == "ok"


def test_reports_are_json_serializable():
    f, i = counterexample_pair()
    for rep in (
        hn.check_sm7(f, i, "reedy"),
        hn.check_lem_match(P, N, samples=2, seed=1),
        hn.check_prop_i_cof(P, N, samples=2, seed=1),
    ):
        json.dumps(rep, sort_keys=True)
