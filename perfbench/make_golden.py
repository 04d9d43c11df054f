"""Write the pinned inputs of the benchmark.

    python3 perfbench/make_golden.py

golden.json holds the exit code and report digest of every cli-mix command.
Seeded commands are run for every input index k in 0..GOLDEN_POOL-1, the
others once.  sm7-realization has no golden entry (see CliMix.check).

lift_seeds.json holds the sampler seeds of lift-jwindow's maps: for each
size bucket, LIFT_PINS[bucket] seeds from the timed range whose draws pass
the cap and the level-dimension bound and fall in that bucket, and one seed
of the 20 bucket from the warm-up range.  The scan counts the draws it
rejected.

Run this only when a change is meant to alter CLI reports or the sampler;
the digests pin reports byte for byte.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reedychain.sampling as sm  # noqa: E402
from reedychain.errors import ResourceCapError  # noqa: E402
from workloads import (  # noqa: E402
    CLI_COMMANDS,
    GOLDEN_POOL,
    LIFT_BUCKETS,
    LIFT_KIND,
    LIFT_SEEDS,
    P,
    SAMPLE_CAP,
    digest,
    golden_key,
    lift_bucket,
    run_cli,
    timed_seed,
    warm_seed,
    within_dim_bound,
    write_inputs,
)

# Pins per bucket: five times its ops per twenty, enough for a 60 s run
# (90 ops) without reuse.
LIFT_PINS = {top: 5 * per20 for top, per20 in LIFT_BUCKETS}


def scan(seed_of, wanted: dict) -> tuple[dict, int, int]:
    """Pin seeds ``seed_of(a)``, a = 0, 1, ..., until every bucket has its
    wanted count; returns the pins, draws made and draws rejected."""
    pins = {top: [] for top in wanted}
    rejected = 0
    for a in itertools.count():
        if all(len(pins[t]) == n for t, n in wanted.items()):
            return pins, a, rejected
        seed = seed_of(a)
        try:
            f = sm.sample(LIFT_KIND, P, 2, seed=seed, cap=SAMPLE_CAP)
        except ResourceCapError:
            f = None
        if f is not None and within_dim_bound(f):
            top = lift_bucket(f)
            if top in pins and len(pins[top]) < wanted[top]:
                pins[top].append(seed)
                continue
        rejected += 1


def write_lift_seeds() -> None:
    timed, draws, rejected = scan(lambda a: timed_seed("lift-jwindow", "pin", a), LIFT_PINS)
    warm, _, _ = scan(lambda a: warm_seed("lift-jwindow", "pin", a), {20: 1})
    pins = {
        "timed": {str(top): seeds for top, seeds in timed.items()},
        "warm": warm[20][0],
        "timed_draws": draws,
        "timed_rejected": rejected,
    }
    LIFT_SEEDS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(LIFT_PINS.values())} pins to {LIFT_SEEDS} ({rejected} of {draws} draws rejected)")


def write_golden() -> None:
    workdir = HERE / "out" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    golden = {}
    try:
        for k in range(GOLDEN_POOL):
            write_inputs(k, workdir)
            for name, seeded, build in CLI_COMMANDS:
                if name == "sm7-realization" or (k > 0 and not seeded):
                    continue
                code, text = run_cli(build(k, workdir))
                golden[golden_key(name, seeded, k)] = [code, digest(text)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} digests to {path}")


def main() -> int:
    write_golden()
    write_lift_seeds()
    return 0


if __name__ == "__main__":
    sys.exit(main())
