"""Benchmark entry point: one closed-loop client per workload.

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

A run imports the library from ``src/``, sets up every op input (sampling,
box construction, JSON files), runs one warm-up op on an input from a
disjoint seed range, and then times the ops one after another, each starting
when the previous one returned.  Every op's result is checked by the
workload's oracle.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics; with ``--trace 1`` the same ops run under the layer
wrappers of ``tracing.py`` and the result carries the per-layer metrics.  The
line before the result is a run record (machine, versions, op counts).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WARM_UP = -2  # op id of the warm-up op; set-up outside it is -1
WORKLOAD_NAMES = ("classify-mix", "lift-jwindow", "cotensor-match", "cli-mix")
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def tail(durations: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least 10 ops beyond it (nearest
    rank), capped at p99; with 10 ops or fewer, the maximum as p100."""
    d = sorted(durations)
    n = len(d)
    if n <= 10:
        return d[-1], 100
    q = min(99, (100 * (n - 10)) // n)
    return d[max(0, math.ceil(q * n / 100) - 1)], q


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "reedychain" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        rebound = tracer.install()

    out_dir = HERE / "out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        total_ops = max(1, round(args.seconds * wl.rate))
        durations, errors = [], []
        failed = 0

        def run_op(inp, op_id):
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                errors.append(traceback.format_exc(limit=3))
                return False, t0, time.perf_counter()
            finally:
                if tracer is not None:
                    tracer.op = -1
            t1 = time.perf_counter()
            try:
                ok = bool(wl.check(inp, out))
            except Exception:  # noqa: BLE001 - an unreadable result fails the oracle
                errors.append(traceback.format_exc(limit=3))
                ok = False
            return ok, t0, t1

        inputs = [wl.make_input(j) for j in range(total_ops)]
        inputs_s = time.perf_counter() - T0 - import_s
        warm_ok, warm_t0, warm_t1 = run_op(wl.warm_input(), WARM_UP)
        gc.collect()

        start = time.perf_counter()
        for j, inp in enumerate(inputs):
            ok, t0, t1 = run_op(inp, j)
            failed += not ok
            durations.append(t1 - t0)
        timed_s = t1 - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = total_ops
    correct_ops = attempted - failed
    ops_per_s = correct_ops / timed_s
    tail_value, tail_pct = tail(durations)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine(),
        "numpy": np.__version__,
        "git_rev": git_rev(),
        "ops": attempted,
        "import_s": import_s,
        "inputs_s": inputs_s,
        "warmup_s": warm_t1 - warm_t0,
        "timed_s": timed_s,
        "op_ms.tail": {"percentile": tail_pct, "ops": attempted},
        "error_rate": failed / attempted,
        "warmup_ok": warm_ok,
        **wl.record(),
        "errors": errors[:5],
    }

    if tracer is None:
        values = {
            "setup_s": start - T0,
            "op_ms.p50": 1000 * statistics.median(durations),
            "op_ms.tail": 1000 * tail_value,
            "ops_per_s": ops_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": correct_ops / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = tracer.metrics(
            {
                "bench.traced_ops_per_s": ops_per_s,
                "cli.sm7_realization.violations": record.get("sm7_realization_violations", 0),
            }
        )
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["spans"] = len(tracer.spans)
        record["bindings_rebound"] = rebound

    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another, and print
    each metric by workload, name and unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
            print(f"{name:15s} {metric:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
