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


def _operator_groups(doc, path, N, words, read, upfront=False):
    """(faces, degens) read from doc["faces"][n-1][i] and
    doc["degeneracies"][n][i] through ss.operator_tables, as
    read(n, m, entry, where) of each entry.  A group list's count is checked
    when it is first reached (both before any entry when ``upfront``) and a
    group's size before its first entry; ``words`` names the two counts."""
    keys = ("faces", "degeneracies")
    lists = {}

    def group_list(key):
        if key not in lists:
            v = _need(doc, key, path)
            if not isinstance(v, list) or len(v) != N:
                raise SchemaError(f"{path}.{key}: expected {words[0]}")
            lists[key] = v
        return lists[key]

    def op(n, m, i):
        key, g = ("faces", n - 1) if m < n else ("degeneracies", n)
        group = group_list(key)[g]
        if i == 0 and (not isinstance(group, list) or len(group) != n + 1):
            raise SchemaError(f"{path}.{key}[{g}]: expected {n + 1} {words[1]}")
        return read(n, m, group[i], f"{path}.{key}[{g}][{i}]")

    if upfront:
        for key in keys:
            group_list(key)
    tables = ss.operator_tables(N, op)
    for key in keys:  # an N = 0 document reaches no operator
        group_list(key)
    return tables


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

    def row(n, m, v, where):
        got = _int_list(v, where)
        if len(got) != card[n]:
            raise SchemaError(f"{where}: expected {card[n]} entries")
        if any(x < 0 or x >= card[m] for x in got):
            raise SchemaError(f"{where}: index out of range")
        return tuple(got)

    tables = _operator_groups(doc, "sset", N, (f"{N} operator groups", "operators"), row)
    k = ss.SSet(N, levels, *tables)
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
    faces, degens = ss.operator_tables(
        x.N, lambda n, m, i: {"blocks": _blocks_to_doc(x.operator(n, m, i))}
    )
    return {
        "p": x.p,
        "N": x.N,
        "levels": [complex_to_doc(x.level(n))["complex"] for n in range(x.N + 1)],
        "faces": [list(group) for group in faces],
        "degeneracies": [list(group) for group in degens],
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

    def chain_map(n, m, v, where):
        return _map_from_blocks(levels[n], levels[m], _need(v, "blocks", where), f"{where}.blocks")

    tables = _operator_groups(doc, "sobj", N, ("N groups", "maps"), chain_map, upfront=True)
    x = so.SimplicialObject(N, levels, *tables)
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
