"""Property-check suites over sampled instances.

Each suite draws per-trial seeds ``seed + t``, runs every trial in seed
order as a pure function of its seed, and aggregates in that order, so
reports are byte-identical for a fixed manifest.  Violations are report
content, not exceptions; a violation means an implementation bug, and the
report carries the witness.
"""

from __future__ import annotations

from . import chain as ch
from . import classify as cl
from . import lifting as lf
from . import sampling as sm
from . import sobj as so
from . import ssets as ss
from . import totals as tt
from .errors import ValidationFailure

CHECKS = ("sm7", "realization-axiom", "lem-match", "prop-proof", "prop-i-cof")


def _status(violations) -> str:
    return "violation" if violations else "ok"


def injective_pool(N: int):
    """Built-in injective simplicial set maps with known weq marks."""
    pool = []
    for n in range(0, min(2, N) + 1):
        pool.append((f"boundary:{n}", ss.boundary_inclusion(N, n)))
    for n in range(1, min(2, N) + 1):
        for k in range(n + 1):
            pool.append((f"horn:{n}:{k}", ss.horn_inclusion(N, n, k)))
        for j in range(n + 1):
            pool.append((f"coface:{n}:{j}", ss.delta_map(N, ss.operator_tuple(n, n - 1, j), n)))
    return pool


# ---------------------------------------------------------------------------
# SM7 in the two candidate structures


def check_sm7(f: so.SimplicialMap, i: ss.SSetMap, structure: str) -> dict:
    """Pushout-product check for one (f, i).

    Parts: (1) the box map is a Reedy cofibration; (2) if f is a level weak
    equivalence so is the box map; (3) when i is marked a weak equivalence,
    the box map is asserted to be a realization equivalence under
    structure="realization", while under structure="reedy" the level-we
    verdict is only reported (its failure is the expected one).
    """
    if structure not in ("reedy", "realization"):
        raise ValueError(f"unknown structure {structure!r}")
    if cl.reedy_cof_witness(f) is not None:
        raise ValidationFailure("check_sm7 needs a Reedy cofibration on the chain side")
    if not i.is_injective():
        raise ValidationFailure("check_sm7 needs an injective simplicial set map")
    box = cl.pushout_product(f, i)
    cof = cl.reedy_cof_witness(box)
    lw = cl.level_we_witness(box)

    violations = []
    parts = {"cofibration": cof is None, "trivial": None, "weq": None}
    if cof is not None:
        violations.append({"part": 1, "witness": cl.jsonable_witness(cof)})
    if cl.level_we_witness(f) is None:
        parts["trivial"] = lw is None
        if lw is not None:
            violations.append({"part": 2, "witness": cl.jsonable_witness(lw)})

    expected_failure = False
    part3 = "skipped:unknown-weq" if i.weq is None else "skipped:not-weq"
    if i.weq is True:
        if structure == "realization":
            rr = tt.realization_we(box)
            parts["weq"] = rr.we
            part3 = "asserted"
            if not rr.we:
                violations.append({"part": 3, "witness": cl.jsonable_witness(rr.witness), "flag": rr.flag})
        else:
            parts["weq"] = lw is None
            part3 = "reported"
            if lw is not None:
                expected_failure = True

    return {
        "check": "sm7",
        "structure": structure,
        "p": f.source.p,
        "N": f.source.N,
        "parts": parts,
        "part3": part3,
        "expected_failure": expected_failure,
        "violations": violations,
        "status": _status(violations),
    }


def _suite(check: str, p: int, N: int, samples: int, seed: int, trial, extra=None) -> dict:
    """The report of ``trial(s)`` run at the seeds seed, ..., seed + samples - 1
    in order: each trial returns a row holding its ``violations``, and
    ``extra(rows)`` gives the suite's own fields."""
    rows = [trial(s) for s in range(seed, seed + samples)]
    violations = [v for r in rows for v in r["violations"]]
    return {
        "check": check,
        "p": p,
        "N": N,
        "samples": samples,
        "seed": seed,
        "trials": len(rows),
        "violations": violations,
        "status": _status(violations),
        **(extra(rows) if extra else {}),
    }


def check_sm7_suite(
    p: int,
    N: int,
    samples: int,
    seed: int,
    structure: str,
    cap=None,
) -> dict:
    pool = injective_pool(N)

    def trial(s):
        rng = sm.rng_for(f"sm7-suite:{p}:{N}:{s}")
        if rng.random() < 0.3:
            f = sm.random_trivial_cofibration(p, N, rng, cap)
        else:
            f = sm.sample_reedy_cofibration(p, N, rng, cap)
        label, i = pool[(s - seed) % len(pool)]
        rep = check_sm7(f, i, structure)
        return {
            "seed": s,
            "i": label,
            "violations": [{"seed": s, "i": label, **v} for v in rep["violations"]],
            "expected_failure": rep["expected_failure"],
        }

    def extra(rows):
        expected = [{"seed": r["seed"], "i": r["i"]} for r in rows if r["expected_failure"]]
        return {"structure": structure, "expected_failures": expected}

    return _suite("sm7", p, N, samples, seed, trial, extra)


# ---------------------------------------------------------------------------
# realization axiom on exact-flag samples


def check_realization_axiom(
    p: int,
    N: int,
    samples: int,
    seed: int,
    cap=None,
    classifier=cl.classify,
) -> dict:
    def trial(s):
        rng = sm.rng_for(f"real-axiom:{p}:{N}:{s}")
        if rng.random() < 2 / 3:
            f = sm.sample_equifibered_exact(p, N, rng, cap)
        else:
            f = sm.sample_equifibered(p, N, rng, cap)
        c = classifier(f, check_invariant=False)
        if not (c.equifibered and c.realization_we and c.realization_exact):
            return {"in_scope": False, "violations": []}
        if c.level_we:
            return {"in_scope": True, "violations": []}
        witness = cl.jsonable_witness(c.witnesses.get("level_we"))
        return {"in_scope": True, "violations": [{"seed": s, "witness": witness}]}

    def extra(rows):
        in_scope = sum(r["in_scope"] for r in rows)
        return {"in_scope": in_scope, "skipped": len(rows) - in_scope}

    return _suite("realization-axiom", p, N, samples, seed, trial, extra)


# ---------------------------------------------------------------------------
# matching maps against the boundary cotensor


def check_lem_match(p: int, N: int, samples: int, seed: int) -> dict:
    def trial(s):
        rng = sm.rng_for(f"lem-match:{p}:{N}:{s}")
        f = sm.random_small_map(p, N, rng)
        bad = [n for n in range(N + 1) if not cl.matching_cotensor_comparison(f, n)]
        return {"violations": [{"seed": s, "n": n} for n in bad]}

    return _suite("lem-match", p, N, samples, seed, trial, lambda rows: {"n_max": N})


# ---------------------------------------------------------------------------
# cotensor of a fibration along an injective map


def check_prop_proof(
    p: int,
    N: int,
    samples: int,
    seed: int,
    cap=None,
) -> dict:
    pool = injective_pool(N)

    def trial(s):
        rng = sm.rng_for(f"prop-proof:{p}:{N}:{s}")
        if rng.random() < 0.5:
            g = sm.sample_reedy_fibration(p, N, rng, cap)
        else:
            g = sm.sample_trivial_fibration(p, N, rng, cap)
        label, i = pool[(s - seed) % len(pool)]
        sq = cl.cotensor_map(g, i)
        out = []
        if not ch.is_epi(sq.map):
            out.append({"seed": s, "i": label, "clause": "epi"})
        trivial_fib = cl.level_we_witness(g) is None and cl.reedy_fib_witness(g) is None
        if trivial_fib and not (ch.is_epi(sq.map) and ch.is_quasi_iso(sq.map)):
            out.append({"seed": s, "i": label, "clause": "trivial"})
        return {"violations": out}

    return _suite("prop-proof", p, N, samples, seed, trial)


# ---------------------------------------------------------------------------
# trivial fibrations are equifibered realization equivalences


def check_prop_i_cof(
    p: int,
    N: int,
    samples: int,
    seed: int,
    cap=None,
    classifier=cl.classify,
) -> dict:
    def trial(s):
        rng = sm.rng_for(f"prop-i-cof:{p}:{N}:{s}")
        f = sm.sample_trivial_fibration(p, N, rng, cap)
        c = classifier(f, check_invariant=False)
        out = []
        if c.reedy_trivial_fib and not c.equifibered:
            out.append({"seed": s, "clause": "equifibered", "witness": cl.jsonable_witness(c.witnesses.get("equifibered"))})
        if c.reedy_trivial_fib and not c.realization_we:
            out.append({"seed": s, "clause": "realization", "witness": cl.jsonable_witness(c.witnesses.get("realization_we"))})
        return {"violations": out}

    return _suite("prop-i-cof", p, N, samples, seed, trial)


# ---------------------------------------------------------------------------
# lifting against the generator window vs the equifibered classifier


def check_j_injective_vs_equifibered(
    pm: so.SimplicialMap,
    families=("J'", "J''"),
    window=(0, 1),
    n_range=None,
    cap=None,
) -> dict:
    """Lifting of pm against every member of the generator families over
    the degree window and simplex range, set beside pm's equifibered
    verdict.

    Each member's universal RLP comes from ``lifting.generator_rlp``,
    through the cotensor corners of pm; ``cap`` bounds its matrices.  The
    equifibered verdict is classify's: pm is a Reedy fibration whose face
    squares are homotopy cartesian.  A violation is an equifibered pm that
    fails to lift against some member.  Only J' and J'' are accepted:
    lifting against I characterizes the trivial fibrations, so a failure
    against I says nothing about the equifibered condition.
    """
    bad = [fam for fam in families if fam not in ("J'", "J''")]
    if bad:
        raise ValueError(f"families {bad} are not J-families; choose from J', J''")
    prime = pm.source.p
    N = pm.source.N
    nr = (0, min(2, N)) if n_range is None else n_range
    results = [
        {"label": label, "rlp": ok}
        for label, ok in lf.generator_rlp(pm, families, window, nr, cap)
    ]
    rlp_all = all(r["rlp"] for r in results)
    nf = cl.normal_form(pm)
    equif = cl.reedy_fib_witness(pm, nf) is None and cl.face_square_witness(pm, nf) is None
    violations = []
    if equif and not rlp_all:
        violations = [r for r in results if not r["rlp"]]
    return {
        "check": "j-vs-equifibered",
        "p": prime,
        "N": N,
        "families": list(families),
        "window": list(window),
        "n_range": list(nr),
        "members": results,
        "rlp_all": rlp_all,
        "equifibered": equif,
        "agreement": rlp_all == equif,
        "caveat": (
            "lifting against the finite generator window is necessary for an "
            "equifibered fibration; the converse is not asserted at finite truncation"
        ),
        "violations": violations,
        "status": _status(violations),
    }
