"""Command-line interface: load inputs, dispatch operations, emit reports.

Inputs are file paths or fixture names; reports are JSON with sorted keys
(deterministic for a fixed manifest) or, with --pretty, indented text.
Exit codes: 0 all asserted properties hold, 1 violation, 2 parse or
validation error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chain as ch
from . import classify as cl
from . import config as cf
from . import fixtures as fx
from . import harness as hn
from . import lifting as lf
from . import realize as rz
from . import serialization as sz
from . import sobj as so
from . import ssets as ss
from . import totals as tt
from .errors import ResourceCapError, SchemaError, ValidationFailure

_FAMILY_ALIASES = {
    "I": "I",
    "Jprime": "J'",
    "J'": "J'",
    "Jsecond": "J''",
    "J''": "J''",
}

_FAMILY_CANONICAL = {"I": "I", "J'": "Jprime", "J''": "Jsecond"}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="reedychain",
        description="Exact model-category classifiers for truncated simplicial "
        "objects in chain complexes over a prime field.",
    )
    top.add_argument("--p", type=int, default=None, help="prime field order")
    top.add_argument("--trunc", type=int, default=None, help="simplicial truncation N")
    top.add_argument("--window", type=str, default=None, help="degree window lo..hi")
    top.add_argument(
        "--cap", type=int, default=None,
        help="refuse assembled linear systems of more than cap^2 entries "
        "(rlp and the sampled check suites; lem-match and generators are unbounded)",
    )
    top.add_argument("--seed", type=int, default=None, help="base seed for sampled suites")
    top.add_argument("--samples", type=int, default=None, help="trial count for sampled suites")
    fmt = top.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report output (default)")
    fmt.add_argument("--pretty", action="store_true", help="indented text report output")

    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate any input document")
    sp.add_argument("input")

    sp = sub.add_parser("homology", help="homology dimensions of a chain complex")
    sp.add_argument("input")

    sp = sub.add_parser("classify", help="run every classifier on a simplicial map")
    sp.add_argument("input")

    sp = sub.add_parser("total-complex", help="total complex of a simplicial object")
    sp.add_argument("input")
    sp.add_argument("--normalized", action="store_true")

    sp = sub.add_parser("latching", help="latching object at level n")
    sp.add_argument("n", type=int)
    sp.add_argument("input")

    sp = sub.add_parser("matching", help="matching object at level n")
    sp.add_argument("n", type=int)
    sp.add_argument("input")

    sp = sub.add_parser("tensor", help="tensor a complex or simplicial object with a simplicial set")
    sp.add_argument("left")
    sp.add_argument("shape")

    sp = sub.add_parser("cotensor", help="cotensor a simplicial object against a simplicial set")
    sp.add_argument("input")
    sp.add_argument("shape")

    sp = sub.add_parser("realize", help="realization of a simplicial object")
    sp.add_argument("input")

    sp = sub.add_parser("sing", help="simplicial resolution of a chain complex")
    sp.add_argument("input")

    sp = sub.add_parser("rlp", help="solve one lifting problem")
    sp.add_argument("input")

    sp = sub.add_parser("generators", help="generating cofibration families")
    sp.add_argument("family", choices=sorted(_FAMILY_ALIASES))

    sp = sub.add_parser("check", help="run a sampled property suite")
    sp.add_argument("name", choices=hn.CHECKS)
    sp.add_argument(
        "--structure", choices=["reedy", "realization"], default="reedy",
        help="candidate structure for the sm7 suite",
    )

    sp = sub.add_parser("counterexample", help="emit a canonical counterexample")
    sp.add_argument("which", choices=["reedy-sm7"])

    return top


def _manifest(args) -> cf.Manifest:
    window = cf.parse_window(args.window) if args.window else None
    return cf.from_env(
        p=args.p,
        trunc=args.trunc,
        window=window,
        cap=args.cap,
        seed=args.seed,
        samples=args.samples,
    )


def _load(token: str, manifest: cf.Manifest):
    if os.path.exists(token):
        with open(token, encoding="utf-8") as fh:
            text = fh.read()
        return sz.loads(text)
    try:
        return fx.fixture(token, manifest)
    except SchemaError as e:
        raise SchemaError(f"{token!r} is neither a readable file nor a fixture: {e}") from e


def _want(obj, kinds, token):
    if not isinstance(obj, kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise SchemaError(f"{token!r} resolved to {type(obj).__name__}, expected {names}")
    return obj


def _dims_by_degree(x: ch.ChainComplex) -> dict:
    return {str(t): x.dim(t) for t in x.degrees() if x.dim(t)}


def _homology_by_degree(x: ch.ChainComplex) -> dict:
    return {str(t): d for t, d in sorted(ch.homology_dims(x).items()) if d}


def _pretty_lines(doc, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            val = doc[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}-")
                lines.extend(_pretty_lines(val, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(val)}")
    else:
        lines.append(f"{pad}{json.dumps(doc)}")
    return lines


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print("\n".join(_pretty_lines(report)))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def _run(args, manifest: cf.Manifest) -> tuple[dict, int]:
    p, N, cap = manifest.p, manifest.trunc, manifest.cap
    cmd = args.command

    if cmd == "validate":
        obj = _load(args.input, manifest)
        kind = next(
            (k for k, t in (
                ("complex", ch.ChainComplex),
                ("chain_map", ch.ChainMap),
                ("sset", ss.SSet),
                ("sset_map", ss.SSetMap),
                ("sobj", so.SimplicialObject),
                ("smap", so.SimplicialMap),
            ) if isinstance(obj, t)),
            "problem",
        )
        if kind == "problem":
            lf.validate_problem(obj)
        return {"command": "validate", "kind": kind, "valid": True}, 0

    if cmd == "homology":
        x = _want(_load(args.input, manifest), (ch.ChainComplex,), args.input)
        ch.validate_complex(x)
        return {
            "command": "homology",
            "p": x.p,
            "dims": _dims_by_degree(x),
            "homology": _homology_by_degree(x),
        }, 0

    if cmd == "classify":
        f = _want(_load(args.input, manifest), (so.SimplicialMap,), args.input)
        rep = cl.classification_report(cl.classify(f))
        rep["command"] = "classify"
        rep["p"] = f.source.p
        rep["N"] = f.source.N
        return rep, 0

    if cmd == "total-complex":
        x = _want(_load(args.input, manifest), (so.SimplicialObject,), args.input)
        mode = "normalized" if args.normalized else "full"
        total = tt.total_complex(x, mode)
        return {
            "command": "total-complex",
            "mode": mode,
            "p": x.p,
            "dims": _dims_by_degree(total.obj),
            "homology": _homology_by_degree(total.obj),
        }, 0

    if cmd in ("latching", "matching"):
        x = _want(_load(args.input, manifest), (so.SimplicialObject,), args.input)
        if not 0 <= args.n <= x.N:
            raise SchemaError(f"level {args.n} outside 0..{x.N}")
        built = so.latching(x, args.n) if cmd == "latching" else so.matching(x, args.n)
        return {
            "command": cmd,
            "n": args.n,
            "p": x.p,
            "dims": _dims_by_degree(built.obj),
            "level_dims": _dims_by_degree(x.level(args.n)),
        }, 0

    if cmd == "tensor":
        left = _load(args.left, manifest)
        shape = _want(_load(args.shape, manifest), (ss.SSet,), args.shape)
        if isinstance(left, ch.ChainComplex):
            out = so.tensor_with_sset(left, shape)
        elif isinstance(left, so.SimplicialObject):
            out = so.tensor_sobj_with_sset(left, shape)
        else:
            raise SchemaError(
                f"{args.left!r} resolved to {type(left).__name__}, expected a "
                "chain complex or simplicial object"
            )
        return {"command": "tensor", "result": sz.sobj_to_doc(out)}, 0

    if cmd == "cotensor":
        x = _want(_load(args.input, manifest), (so.SimplicialObject,), args.input)
        shape = _want(_load(args.shape, manifest), (ss.SSet,), args.shape)
        ct = so.cotensor0(x, shape)
        return {
            "command": "cotensor",
            "p": x.p,
            "dims": _dims_by_degree(ct.obj),
            "result": sz.complex_to_doc(ct.obj),
        }, 0

    if cmd == "realize":
        x = _want(_load(args.input, manifest), (so.SimplicialObject,), args.input)
        r = rz.realize(x)
        return {
            "command": "realize",
            "p": x.p,
            "dims": _dims_by_degree(r.obj),
            "homology": _homology_by_degree(r.obj),
            "result": sz.complex_to_doc(r.obj),
        }, 0

    if cmd == "sing":
        a = _want(_load(args.input, manifest), (ch.ChainComplex,), args.input)
        return {"command": "sing", "result": sz.sobj_to_doc(rz.sing(a, N))}, 0

    if cmd == "rlp":
        pr = _want(_load(args.input, manifest), (lf.LiftingProblem,), args.input)
        lf.validate_problem(pr)
        exists, witness = lf.rlp(pr, cap)
        return {
            "command": "rlp",
            "exists": exists,
            "witness": sz.smap_to_doc(witness) if witness is not None else None,
        }, 0

    if cmd == "generators":
        family = _FAMILY_ALIASES[args.family]
        n_range = (0, min(2, N))
        fam = lf.generators(family, p, N, manifest.window, n_range)
        return {
            "command": "generators",
            "family": _FAMILY_CANONICAL[family],
            "p": p,
            "N": N,
            "window": list(manifest.window),
            "n_range": list(n_range),
            "count": len(fam.members),
            "members": [{"label": m.label, "weq": m.weq} for m in fam.members],
        }, 0

    if cmd == "check":
        seed, samples = manifest.seed, manifest.samples
        if args.name == "sm7":
            rep = hn.check_sm7_suite(p, N, samples, seed, args.structure, cap)
        elif args.name == "realization-axiom":
            rep = hn.check_realization_axiom(p, N, samples, seed, cap)
        elif args.name == "lem-match":
            rep = hn.check_lem_match(p, N, samples, seed)
        elif args.name == "prop-proof":
            rep = hn.check_prop_proof(p, N, samples, seed, cap)
        else:
            rep = hn.check_prop_i_cof(p, N, samples, seed, cap)
        rep["command"] = "check"
        return rep, 1 if rep["status"] == "violation" else 0

    if cmd == "counterexample":
        f, i = fx.fixture("reedy-sm7", manifest)
        box = cl.pushout_product(f, i)
        c = cl.classify(box, check_invariant=False)
        wit = c.witnesses.get("level_we")
        return {
            "command": "counterexample",
            "instance": "reedy-sm7",
            "p": p,
            "N": N,
            "box_reedy_cof": c.reedy_cof,
            "level_we": c.level_we,
            "level_we_witness": list(wit) if isinstance(wit, tuple) else wit,
            "realization_we": c.realization_we,
            "flag": c.realization_flag,
        }, 0

    raise SchemaError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = _manifest(args)
        report, code = _run(args, manifest)
    except (SchemaError, ValidationFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceCapError as e:
        print(f"resource cap exceeded: {e}", file=sys.stderr)
        return 3
    _emit(report, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
