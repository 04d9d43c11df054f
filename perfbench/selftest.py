"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

For each workload, runs run.py with --seconds 1 untraced and traced, and
asserts that the result line has the four keys, that every metric named in
BENCHMARK.json is printed with its unit and no other, that no op failed,
and that the run record carries the machine facts.  Exits 1 on the first
failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD_KEYS = ("nproc", "cpu", "python", "numpy", "git_rev", "seed", "ops", "error_rate")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace in (0, 1):
            record, res = run(w, trace)
            tag = f"{w} trace={trace}"
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, tag
            assert res["correct"] is True, (tag, record["errors"])
            assert res["failed"] == 0 and res["attempted"] >= 1, tag
            assert record["error_rate"] == 0, tag
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == wanted[trace], (tag, set(got) ^ set(wanted[trace]))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (tag, name)
            if trace == 0:
                assert res["metrics"]["ok_frac"]["value"] == 1.0, tag
            missing = [k for k in RECORD_KEYS if k not in record]
            assert not missing, (tag, missing)
            print(f"ok  {tag}: {res['attempted']} ops, {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
