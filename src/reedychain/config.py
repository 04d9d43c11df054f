"""Run manifest: prime, truncation, degree window, caps, seed.

Values resolve in three layers: built-in defaults, then REEDYCHAIN_*
environment variables, then explicit arguments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import SchemaError

ENV_PREFIX = "REEDYCHAIN_"

DEFAULT_P = 101
DEFAULT_TRUNC = 3
DEFAULT_WINDOW = (-2, 4)
DEFAULT_CAP = 4096
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 20


# Largest modulus the int64 arithmetic of ``linalg`` keeps exact.
MAX_P = 2**15


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int, name: str = "p") -> int:
    """Return p if it is a prime at most MAX_P; raise SchemaError otherwise."""
    if p > MAX_P:
        raise SchemaError(
            f"{name}={p} exceeds {MAX_P}, the largest modulus the arithmetic keeps exact"
        )
    if not is_prime(p):
        raise SchemaError(f"{name}={p} is not prime")
    return p


def parse_window(text: str) -> tuple[int, int]:
    """Accepts "lo..hi" with either bound possibly negative."""
    parts = text.split("..")
    if len(parts) != 2:
        raise SchemaError(f"window {text!r} must look like lo..hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as e:
        raise SchemaError(f"window {text!r} must have integer bounds") from e
    if lo > hi:
        raise SchemaError(f"window {text!r} is empty")
    return lo, hi


@dataclass(frozen=True)
class Manifest:
    p: int = DEFAULT_P
    trunc: int = DEFAULT_TRUNC
    window: tuple[int, int] = DEFAULT_WINDOW
    cap: int = DEFAULT_CAP
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        check_prime(self.p)
        if self.trunc < 1:
            raise SchemaError(f"truncation must be at least 1, got {self.trunc}")
        if self.window[0] > self.window[1]:
            raise SchemaError(f"degree window {self.window} is empty")
        if self.cap < 1:
            raise SchemaError(f"dimension cap must be positive, got {self.cap}")
        if self.samples < 0:
            raise SchemaError(f"sample count must be nonnegative, got {self.samples}")


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as e:
        raise SchemaError(f"{ENV_PREFIX}{name}={raw!r} is not an integer") from e


def from_env(**overrides) -> Manifest:
    """Manifest from environment with keyword overrides winning."""
    values = {
        "p": _env_int("P", DEFAULT_P),
        "trunc": _env_int("TRUNC", DEFAULT_TRUNC),
        "cap": _env_int("CAP", DEFAULT_CAP),
        "seed": _env_int("SEED", DEFAULT_SEED),
        "samples": _env_int("SAMPLES", DEFAULT_SAMPLES),
    }
    raw_window = os.environ.get(ENV_PREFIX + "WINDOW")
    values["window"] = parse_window(raw_window) if raw_window else DEFAULT_WINDOW
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return Manifest(**values)
