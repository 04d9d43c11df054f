"""Layer wrappers for the traced run, installed from the benchmark's side.

``Tracer.install`` replaces each traced library function by a wrapper that
records a span (name, start, end, parent span, op id).  Modules import
library functions by name (``from .linalg import solve``), so patching only
the defining module would miss most calls: every module-level name in
``reedychain.*`` that *is* the original function object is rebound, as are
module-level dict values (``sampling._BUILDERS``) and default arguments
(``harness.check_realization_axiom(classifier=cl.classify)``) that hold it.
Methods are patched on their class.  Nothing is installed when tracing is
off.

Spans stay in memory and are written once, when the run ends.  A span's
self time is its duration minus the durations of its direct child spans.

Per-layer metrics aggregate the spans of timed ops only (op id >= 0), so
the samplers' own classifications during set-up do not count as op work.
The exception is the set-up layers of SETUP_LAYERS (the samplers, box
construction and its L1 routing), which aggregate set-up spans (op id -1)
as well: they are what set-up time is made of.  Spans of the warm-up op
(op id -2) count nowhere.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) for every span-recording wrapper.  "Class.method" names
# are patched on the class.  The module is where the function is defined.
SPANS = {
    "linalg": ("rref", "solve", "kernel_basis", "quotient_by_columns"),
    "system": ("BlockSystem.solve", "BlockSystem.kernel"),
    "sobj": (
        "tensor_with_sset",
        "tensor_sobj_with_sset",
        "tensor_smap_with_sset",
        "tensor_sobj_sset_map",
        "tensor_sset_map",
        "latching",
        "matching",
        "cotensor0",
        "pushout_sobj",
        "smap_space",
    ),
    "chain": ("pushout", "pullback", "kernel_complex", "cokernel_complex", "homology_dims"),
    "totals": ("total_complex", "total_map", "realization_we"),
    "realize": ("realize", "sing"),
    "classify": (
        "classify",
        "level_we_witness",
        "reedy_cof_witness",
        "reedy_fib_witness",
        "face_square_witness",
        "pushout_product",
        "cotensor_map",
        "matching_cotensor_comparison",
    ),
    "lifting": ("generators", "has_universal_rlp", "rlp"),
    "harness": (
        "check_sm7",
        "check_sm7_suite",
        "check_realization_axiom",
        "check_lem_match",
        "check_prop_proof",
        "check_prop_i_cof",
        "check_j_injective_vs_equifibered",
    ),
    "sampling": (
        "sample",
        "sample_reedy_fibration",
        "sample_equifibered",
        "sample_equifibered_exact",
        "sample_trivial_fibration",
        "sample_reedy_cofibration",
    ),
    "serialization": ("loads", "dumps"),
    "cli": ("main",),
}

# Spans whose children are a large share of their time: total_s is reported
# beside self_s for these.  For the rest total_s is close to self_s or is
# covered by a parent's total, and the metric budget (128) goes elsewhere.
TOTALS = (
    "classify.classify",
    "classify.matching_cotensor_comparison",
    "sobj.cotensor0",
    "lifting.generators",
    "lifting.has_universal_rlp",
    "system.BlockSystem.solve",
    "sampling.sample",
)

# Functions whose set-up spans count beside their op spans: set-up samples
# every input and builds classify-mix's boxes.
SETUP_LAYERS = (
    "sampling.",
    "sobj.tensor_",
    "classify.pushout_product",
)

# Repeated-work counters: share of op-phase calls whose key was already seen
# by an earlier op-phase call of the same function in this run.
REPEATS = (
    "linalg.rref",
    "linalg.kernel_basis",
    "sobj.latching",
    "sobj.matching",
    "lifting.generators",
)

# Benchmark-level figures reported only by the traced run.
BENCH_METRICS = (
    ("bench.traced_ops_per_s", "ops/s"),
    ("cli.sm7_realization.violations", "count"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    out = []
    for mod, funcs in SPANS.items():
        for fn in funcs:
            name = f"{mod}.{fn}"
            out.append((f"{name}.calls", "count"))
            out.append((f"{name}.self_s", "s"))
            if name in TOTALS:
                out.append((f"{name}.total_s", "s"))
            if name in REPEATS:
                out.append((f"{name}.repeat_frac", "fraction"))
    out += [
        ("linalg.elim.entries", "count"),
        ("linalg.elim.max_entries", "count"),
        ("linalg.elim.elim_ops_computed", "count"),
        ("linalg.FpMatrix.constructions", "count"),
        ("system.BlockSystem.rows.max", "count"),
        ("system.BlockSystem.cols.max", "count"),
        ("system.BlockSystem.cap_frac.max", "fraction"),
    ]
    out += list(BENCH_METRICS)
    return out


def _matrix_key(m, *_args, **_kwargs):
    digest = hashlib.blake2b(m.a.tobytes(), digest_size=16).digest()
    return (m.p, m.shape, digest)


def _args_key(*args, **kwargs):
    return (args, tuple(sorted(kwargs.items())))


class Tracer:
    """Span recorder and counters for one traced run."""

    def __init__(self):
        self.op = -1  # -1 in set-up, -2 in the warm-up op, else the timed op's id
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._repeats: dict[str, int] = defaultdict(int)
        self._calls_keyed: dict[str, int] = defaultdict(int)
        self._alive: dict = {}  # keeps keyed objects alive so ids stay unique

    # -- wrappers ---------------------------------------------------------

    def _note_repeat(self, name, key):
        self._calls_keyed[name] += 1
        seen = self._seen[name]
        if key in seen:
            self._repeats[name] += 1
        else:
            seen.add(key)

    def _span(self, name, fn, key_fn=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if key_fn is not None and self.op >= 0:
                self._note_repeat(name, key_fn(*args, **kwargs))
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _identity_key(self, x, n, *_args, **_kwargs):
        self._alive[id(x)] = x
        return (id(x), n)

    def _elim(self, fn):
        def wrapper(p, a):
            rows, cols = a.shape
            pivots = fn(p, a)
            if self.op >= 0:
                entries = rows * cols
                self.counts["linalg.elim.entries"] += entries
                self.counts["linalg.elim.elim_ops_computed"] += entries * len(pivots)
                self.maxima["linalg.elim.max_entries"] = max(
                    self.maxima["linalg.elim.max_entries"], entries
                )
            return pivots

        return wrapper

    def _construction(self, fn):
        def wrapper(obj):
            if self.op >= 0:
                self.counts["linalg.FpMatrix.constructions"] += 1
            return fn(obj)

        return wrapper

    def _assemble(self, fn):
        def wrapper(system):
            a, b = fn(system)
            if self.op >= 0:
                rows, cols = a.shape
                mx = self.maxima
                mx["system.BlockSystem.rows.max"] = max(mx["system.BlockSystem.rows.max"], rows)
                mx["system.BlockSystem.cols.max"] = max(mx["system.BlockSystem.cols.max"], cols)
                if system.cap:
                    frac = rows * cols / system.cap**2
                    mx["system.BlockSystem.cap_frac.max"] = max(
                        mx["system.BlockSystem.cap_frac.max"], frac
                    )
            return a, b

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Install every wrapper; returns the number of bindings replaced."""
        key_fns = {
            "linalg.rref": _matrix_key,
            "linalg.kernel_basis": _matrix_key,
            "sobj.latching": self._identity_key,
            "sobj.matching": self._identity_key,
            "lifting.generators": _args_key,
        }
        replace = {}  # id(original) -> (original, wrapper)
        methods = []  # (class, attribute, wrapper)
        for mod_name, funcs in SPANS.items():
            mod = importlib.import_module(f"reedychain.{mod_name}")
            for fn_name in funcs:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    methods.append((cls, attr, self._span(name, getattr(cls, attr))))
                else:
                    orig = getattr(mod, fn_name)
                    replace[id(orig)] = (orig, self._span(name, orig, key_fns.get(name)))
        linalg = importlib.import_module("reedychain.linalg")
        system = importlib.import_module("reedychain.system")
        orig = linalg._rref_inplace
        replace[id(orig)] = (orig, self._elim(orig))
        methods.append(
            (linalg.FpMatrix, "__post_init__", self._construction(linalg.FpMatrix.__post_init__))
        )
        methods.append(
            (system.BlockSystem, "_assemble", self._assemble(system.BlockSystem._assemble))
        )

        def wrapped(v):
            hit = replace.get(id(v))
            return hit[1] if hit is not None and hit[0] is v else None

        rebound = 0
        for cls, attr, wrapper in methods:
            setattr(cls, attr, wrapper)
            rebound += 1
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("reedychain"):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, dict):
                    for k, v in list(val.items()):
                        if wrapped(v) is not None:
                            val[k] = wrapped(v)
                            rebound += 1
                    continue
                defaults = getattr(val, "__defaults__", None)
                if defaults and getattr(val, "__module__", "").startswith("reedychain"):
                    new = tuple(wrapped(d) or d for d in defaults)
                    if any(a is not b for a, b in zip(new, defaults)):
                        val.__defaults__ = new
                        rebound += 1
                if wrapped(val) is not None:
                    setattr(mod, attr, wrapped(val))
                    rebound += 1
        return rebound

    # -- results ----------------------------------------------------------

    def metrics(self, extra: dict) -> dict:
        """Per-layer metrics by name, in the order of ``per_layer_metrics``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(spans):
            if op < -1 or (op == -1 and not name.startswith(SETUP_LAYERS)):
                continue
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            total_s[name] += dur
        values = {}
        for name in (n for mod, fs in SPANS.items() for n in (f"{mod}.{f}" for f in fs)):
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
            values[f"{name}.total_s"] = total_s[name]
            keyed = self._calls_keyed[name]
            values[f"{name}.repeat_frac"] = self._repeats[name] / keyed if keyed else 0.0
        values.update(self.counts)
        values.update(self.maxima)
        values.update(extra)
        return {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in per_layer_metrics()
        }

    def write(self, path) -> None:
        """Write the spans as compact JSON: a name table and one row per span
        of [name index, start s, end s, parent span index, op id]."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(s - t0, 7), round(e - t0, 7), parent, op]
            for n, s, e, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
