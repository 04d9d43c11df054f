#!/usr/bin/env python3
"""Run the acceptance suites and print the per-suite summary table.

Per-test times are printed (``--durations=0``).  Extra arguments are
passed straight to pytest after that flag, so e.g.

    python3 scripts/run_acceptance.py -k adjunction
    python3 scripts/run_acceptance.py --durations=5
"""

import pathlib
import sys

import pytest


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    # pyproject.toml's pythonpath puts this checkout's src/ first on sys.path
    return pytest.main(
        ["-v", "--durations=0", str(root / "tests" / "test_acceptance.py"), *sys.argv[1:]]
    )


if __name__ == "__main__":
    raise SystemExit(main())
