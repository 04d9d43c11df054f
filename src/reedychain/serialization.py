"""JSON codecs for every domain type.

Canonical form: sorted keys, canonical residues in 0..p-1, chain-map blocks
emitted exactly for the degrees where both endpoints have positive dimension.
On canonical documents ``dumps(loads(s)) == s`` byte for byte; structural
problems raise SchemaError naming the offending field path.
"""

from __future__ import annotations

import json

import numpy as np

from . import chain as ch
from . import sobj as so
from . import ssets as ss
from .config import check_prime
from .errors import SchemaError
from .lifting import LiftingProblem
from .linalg import FpMatrix


def _need(doc, key, path):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in doc:
        raise SchemaError(f"{path}.{key}: missing field")
    return doc[key]


def _int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}: expected an integer")
    if not -(2**63) <= v < 2**63:
        raise SchemaError(f"{path}: integer {v} does not fit in 64 bits")
    return v


def _prime(v, path):
    return check_prime(_int(v, path), path)


def _int_list(v, path):
    if not isinstance(v, list):
        raise SchemaError(f"{path}: expected an array")
    return [_int(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _matrix(p, v, rows, cols, path) -> FpMatrix:
    if not isinstance(v, list):
        raise SchemaError(f"{path}: expected a matrix (array of rows)")
    if rows and len(v) != rows:
        raise SchemaError(f"{path}: expected {rows} rows, found {len(v)}")
    flat = []
    for r, row in enumerate(v):
        got = _int_list(row, f"{path}[{r}]")
        if len(got) != cols:
            raise SchemaError(f"{path}[{r}]: expected {cols} entries, found {len(got)}")
        flat.append(got)
    if rows == 0:
        return FpMatrix(p, np.zeros((0, cols), dtype=np.int64))
    return FpMatrix.from_rows(p, flat)


# ---------------------------------------------------------------------------
# chain complexes and chain maps


def complex_to_doc(x: ch.ChainComplex) -> dict:
    degs = list(x.degrees())
    return {
        "p": x.p,
        "complex": {
            "lo": x.lo,
            "hi": x.hi,
            "dims": [x.dim(t) for t in degs],
            "diff": [x.d(t).a.tolist() for t in degs[1:]],
        },
    }


def _inner_complex_from_doc(p: int, doc, path: str) -> ch.ChainComplex:
    lo = _int(_need(doc, "lo", path), f"{path}.lo")
    hi = _int(_need(doc, "hi", path), f"{path}.hi")
    dims = _int_list(_need(doc, "dims", path), f"{path}.dims")
    if len(dims) != max(hi - lo + 1, 0):
        raise SchemaError(f"{path}.dims: length disagrees with lo..hi")
    if any(d < 0 for d in dims):
        raise SchemaError(f"{path}.dims: dimensions must be nonnegative")
    diff = _need(doc, "diff", path)
    if not isinstance(diff, list):
        raise SchemaError(f"{path}.diff: expected an array")
    if len(diff) != max(len(dims) - 1, 0):
        raise SchemaError(f"{path}.diff: expected {max(len(dims) - 1, 0)} matrices")
    diffs = {}
    for k, mat in enumerate(diff):
        t = lo + k + 1
        diffs[t] = _matrix(p, mat, dims[k], dims[k + 1], f"{path}.diff[{k}]")
    try:
        return ch.ChainComplex.build(p, lo, dims, diffs)
    except Exception as e:  # noqa: BLE001 - surface as schema problem
        raise SchemaError(f"{path}: {e}") from e


def complex_from_doc(doc) -> ch.ChainComplex:
    p = _prime(_need(doc, "p", "complex"), "complex.p")
    return _inner_complex_from_doc(p, _need(doc, "complex", "complex"), "complex.complex")


def _blocks_to_doc(f: ch.ChainMap) -> dict:
    out = {}
    for t in f.source.degrees():
        if f.source.dim(t) and f.target.dim(t):
            out[str(t)] = f.block(t).a.tolist()
    return out


def _map_from_blocks(a, b, doc, path) -> ch.ChainMap:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object of degree -> matrix")
    blocks = {}
    seen = set()
    for key, mat in doc.items():
        try:
            t = int(key)
        except ValueError as e:
            raise SchemaError(f"{path}.{key}: degree keys must be integers") from e
        seen.add(t)
        blocks[t] = _matrix(a.p, mat, b.dim(t), a.dim(t), f"{path}.{key}")
    for t in a.degrees():
        if a.dim(t) and b.dim(t) and t not in seen:
            raise SchemaError(f"{path}: missing block for degree {t}")
    return ch.ChainMap.build(a, b, blocks)


def chain_map_to_doc(f: ch.ChainMap) -> dict:
    return {
        "p": f.source.p,
        "source": complex_to_doc(f.source)["complex"],
        "target": complex_to_doc(f.target)["complex"],
        "blocks": _blocks_to_doc(f),
    }


def chain_map_from_doc(doc) -> ch.ChainMap:
    p = _prime(_need(doc, "p", "map"), "map.p")
    a = _inner_complex_from_doc(p, _need(doc, "source", "map"), "map.source")
    b = _inner_complex_from_doc(p, _need(doc, "target", "map"), "map.target")
    return _map_from_blocks(a, b, _need(doc, "blocks", "map"), "map.blocks")


# ---------------------------------------------------------------------------
# simplicial sets and their maps


def _label_to_doc(lab):
    if isinstance(lab, tuple):
        return [_label_to_doc(v) for v in lab]
    return lab


def _label_from_doc(v):
    if isinstance(v, list):
        return tuple(_label_from_doc(x) for x in v)
    return v


def sset_to_doc(k: ss.SSet) -> dict:
    return {
        "N": k.N,
        "levels": [[_label_to_doc(lab) for lab in lvl] for lvl in k.levels],
        "faces": [[list(row) for row in per_m] for per_m in k.faces],
        "degeneracies": [[list(row) for row in per_m] for per_m in k.degens],
    }


def _index_tables(v, counts_src, counts_tgt, arity, path):
    if not isinstance(v, list) or len(v) != len(arity):
        raise SchemaError(f"{path}: expected {len(arity)} operator groups")
    out = []
    for m, per_m in enumerate(v):
        if not isinstance(per_m, list) or len(per_m) != arity[m]:
            raise SchemaError(f"{path}[{m}]: expected {arity[m]} operators")
        rows = []
        for i, row in enumerate(per_m):
            got = _int_list(row, f"{path}[{m}][{i}]")
            if len(got) != counts_src[m]:
                raise SchemaError(
                    f"{path}[{m}][{i}]: expected {counts_src[m]} entries"
                )
            if any(x < 0 or x >= counts_tgt[m] for x in got):
                raise SchemaError(f"{path}[{m}][{i}]: index out of range")
            rows.append(tuple(got))
        out.append(tuple(rows))
    return tuple(out)


def sset_from_doc(doc) -> ss.SSet:
    N = _int(_need(doc, "N", "sset"), "sset.N")
    if N < 0:
        raise SchemaError("sset.N: truncation must be nonnegative")
    levels_doc = _need(doc, "levels", "sset")
    if not isinstance(levels_doc, list) or len(levels_doc) != N + 1:
        raise SchemaError("sset.levels: expected N+1 label arrays")
    levels = tuple(
        tuple(_label_from_doc(lab) for lab in lvl) for lvl in levels_doc
    )
    card = [len(lvl) for lvl in levels]
    faces = _index_tables(
        _need(doc, "faces", "sset"),
        [card[m] for m in range(1, N + 1)],
        [card[m - 1] for m in range(1, N + 1)],
        [m + 1 for m in range(1, N + 1)],
        "sset.faces",
    )
    degens = _index_tables(
        _need(doc, "degeneracies", "sset"),
        [card[m] for m in range(N)],
        [card[m + 1] for m in range(N)],
        [m + 1 for m in range(N)],
        "sset.degeneracies",
    )
    k = ss.SSet(N, levels, faces, degens)
    try:
        ss.validate_sset(k)
    except Exception as e:  # noqa: BLE001
        raise SchemaError(f"sset: {e}") from e
    return k


def sset_map_to_doc(g: ss.SSetMap) -> dict:
    return {
        "source": sset_to_doc(g.source),
        "target": sset_to_doc(g.target),
        "levels": [list(lvl) for lvl in g.levels],
        "weq": g.weq,
    }


def sset_map_from_doc(doc) -> ss.SSetMap:
    src = sset_from_doc(_need(doc, "source", "sset_map"))
    tgt = sset_from_doc(_need(doc, "target", "sset_map"))
    levels_doc = _need(doc, "levels", "sset_map")
    if not isinstance(levels_doc, list) or len(levels_doc) != src.N + 1:
        raise SchemaError("sset_map.levels: expected N+1 index arrays")
    levels = []
    for m, row in enumerate(levels_doc):
        got = _int_list(row, f"sset_map.levels[{m}]")
        if len(got) != src.card(m):
            raise SchemaError(f"sset_map.levels[{m}]: wrong length")
        if any(x < 0 or x >= tgt.card(m) for x in got):
            raise SchemaError(f"sset_map.levels[{m}]: index out of range")
        levels.append(tuple(got))
    weq = _need(doc, "weq", "sset_map")
    if weq is not None and not isinstance(weq, bool):
        raise SchemaError("sset_map.weq: expected true, false, or null")
    g = ss.SSetMap(src, tgt, tuple(levels), weq)
    try:
        ss.validate_sset_map(g)
    except Exception as e:  # noqa: BLE001
        raise SchemaError(f"sset_map: {e}") from e
    return g


# ---------------------------------------------------------------------------
# simplicial objects and their maps


def sobj_to_doc(x: so.SimplicialObject) -> dict:
    return {
        "p": x.p,
        "N": x.N,
        "levels": [complex_to_doc(x.level(n))["complex"] for n in range(x.N + 1)],
        "faces": [
            [{"blocks": _blocks_to_doc(x.face(n, i))} for i in range(n + 1)]
            for n in range(1, x.N + 1)
        ],
        "degeneracies": [
            [{"blocks": _blocks_to_doc(x.degen(n, i))} for i in range(n + 1)]
            for n in range(x.N)
        ],
    }


def sobj_from_doc(doc) -> so.SimplicialObject:
    p = _prime(_need(doc, "p", "sobj"), "sobj.p")
    N = _int(_need(doc, "N", "sobj"), "sobj.N")
    if N < 0:
        raise SchemaError("sobj.N: truncation must be nonnegative")
    levels_doc = _need(doc, "levels", "sobj")
    if not isinstance(levels_doc, list) or len(levels_doc) != N + 1:
        raise SchemaError("sobj.levels: expected N+1 complexes")
    levels = tuple(
        _inner_complex_from_doc(p, lvl, f"sobj.levels[{n}]")
        for n, lvl in enumerate(levels_doc)
    )
    faces_doc = _need(doc, "faces", "sobj")
    if not isinstance(faces_doc, list) or len(faces_doc) != N:
        raise SchemaError("sobj.faces: expected N groups")
    degens_doc = _need(doc, "degeneracies", "sobj")
    if not isinstance(degens_doc, list) or len(degens_doc) != N:
        raise SchemaError("sobj.degeneracies: expected N groups")
    faces = []
    for n in range(1, N + 1):
        group = faces_doc[n - 1]
        if not isinstance(group, list) or len(group) != n + 1:
            raise SchemaError(f"sobj.faces[{n - 1}]: expected {n + 1} maps")
        faces.append(
            tuple(
                _map_from_blocks(
                    levels[n],
                    levels[n - 1],
                    _need(m, "blocks", f"sobj.faces[{n - 1}][{i}]"),
                    f"sobj.faces[{n - 1}][{i}].blocks",
                )
                for i, m in enumerate(group)
            )
        )
    degens = []
    for n in range(N):
        group = degens_doc[n]
        if not isinstance(group, list) or len(group) != n + 1:
            raise SchemaError(f"sobj.degeneracies[{n}]: expected {n + 1} maps")
        degens.append(
            tuple(
                _map_from_blocks(
                    levels[n],
                    levels[n + 1],
                    _need(m, "blocks", f"sobj.degeneracies[{n}][{i}]"),
                    f"sobj.degeneracies[{n}][{i}].blocks",
                )
                for i, m in enumerate(group)
            )
        )
    x = so.SimplicialObject(N, levels, tuple(faces), tuple(degens))
    try:
        so.validate_sobj(x)
    except Exception as e:  # noqa: BLE001
        raise SchemaError(f"sobj: {e}") from e
    return x


def smap_to_doc(f: so.SimplicialMap) -> dict:
    return {
        "p": f.source.p,
        "N": f.source.N,
        "source": sobj_to_doc(f.source),
        "target": sobj_to_doc(f.target),
        "levels": [
            {"blocks": _blocks_to_doc(f.level(n))} for n in range(f.source.N + 1)
        ],
    }


def smap_from_doc(doc) -> so.SimplicialMap:
    p = _prime(_need(doc, "p", "smap"), "smap.p")
    N = _int(_need(doc, "N", "smap"), "smap.N")
    src = sobj_from_doc(_need(doc, "source", "smap"))
    tgt = sobj_from_doc(_need(doc, "target", "smap"))
    if src.p != p or tgt.p != p:
        raise SchemaError("smap.p: prime disagrees with source/target")
    if src.N != N or tgt.N != N:
        raise SchemaError("smap.N: truncation disagrees with source/target")
    levels_doc = _need(doc, "levels", "smap")
    if not isinstance(levels_doc, list) or len(levels_doc) != N + 1:
        raise SchemaError("smap.levels: expected N+1 level maps")
    levels = tuple(
        _map_from_blocks(
            src.level(n),
            tgt.level(n),
            _need(m, "blocks", f"smap.levels[{n}]"),
            f"smap.levels[{n}].blocks",
        )
        for n, m in enumerate(levels_doc)
    )
    f = so.SimplicialMap(src, tgt, levels)
    try:
        so.validate_smap(f)
    except Exception as e:  # noqa: BLE001
        raise SchemaError(f"smap: {e}") from e
    return f


# ---------------------------------------------------------------------------
# lifting problems


def problem_to_doc(pr: LiftingProblem) -> dict:
    return {
        "i": smap_to_doc(pr.i),
        "p": smap_to_doc(pr.p),
        "top": smap_to_doc(pr.top),
        "bottom": smap_to_doc(pr.bottom),
    }


def problem_from_doc(doc) -> LiftingProblem:
    parts = {}
    for key in ("i", "p", "top", "bottom"):
        parts[key] = smap_from_doc(_need(doc, key, "problem"))
    primes = {key: parts[key].source.p for key in parts}
    if len(set(primes.values())) != 1:
        detail = ", ".join(f"{k}.p={v}" for k, v in sorted(primes.items()))
        raise SchemaError(f"problem: mixed primes ({detail})")
    return LiftingProblem(**parts)


# ---------------------------------------------------------------------------
# generic entry points


def detect_kind(doc) -> str:
    if not isinstance(doc, dict):
        raise SchemaError("input: expected a JSON object")
    if "complex" in doc:
        return "complex"
    if "blocks" in doc:
        return "chain_map"
    if all(k in doc for k in ("i", "p", "top", "bottom")) and isinstance(
        doc.get("p"), dict
    ):
        return "problem"
    if "faces" in doc and "p" not in doc and "weq" not in doc:
        return "sset"
    if "weq" in doc:
        return "sset_map"
    if "faces" in doc:
        return "sobj"
    if "levels" in doc and "source" in doc:
        return "smap"
    raise SchemaError("input: unrecognized document shape")


_TO_DOC = {
    ch.ChainComplex: complex_to_doc,
    ch.ChainMap: chain_map_to_doc,
    ss.SSet: sset_to_doc,
    ss.SSetMap: sset_map_to_doc,
    so.SimplicialObject: sobj_to_doc,
    so.SimplicialMap: smap_to_doc,
    LiftingProblem: problem_to_doc,
}

_FROM_DOC = {
    "complex": complex_from_doc,
    "chain_map": chain_map_from_doc,
    "sset": sset_from_doc,
    "sset_map": sset_map_from_doc,
    "sobj": sobj_from_doc,
    "smap": smap_from_doc,
    "problem": problem_from_doc,
}


def to_doc(obj) -> dict:
    fn = _TO_DOC.get(type(obj))
    if fn is None:
        raise TypeError(f"no serializer for {type(obj).__name__}")
    return fn(obj)


def from_doc(doc):
    return _FROM_DOC[detect_kind(doc)](doc)


def dumps(obj) -> str:
    doc = to_doc(obj) if not isinstance(obj, dict) else obj
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def loads(s: str):
    try:
        doc = json.loads(s)
    except ValueError as e:  # malformed JSON or an integer past Python's digit limit
        raise SchemaError(f"input is not valid JSON: {e}") from e
    return from_doc(doc)
