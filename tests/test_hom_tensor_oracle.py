"""Differential tests of the hom and tensor builders against the np.kron
builders they replaced.

The library hands each hom or tensor matrix to ``BlockSystem`` as source
blocks and L @ X @ R terms per target block.  The reference path kept here
writes every matrix out by hand, one ``np.kron`` per block with its own
(s, rows, cols, offset) layout, as the library did before.  Both paths must
give equal complexes and maps, not just isomorphic ones: on random complexes
with negative degrees, gaps and zero ends, on ``realize.sing`` and
``sing_map`` objects, and on the chain-map spaces drawn from them.
"""

import numpy as np
import pytest

from reedychain import chain as ch
from reedychain import realize as rz
from reedychain.errors import FieldMismatchError, ValidationFailure
from reedychain.linalg import FpMatrix, kernel_basis
from test_chain import rand_complex, rand_map

PRIMES = (2, 3, 101, 32749)


# ---------------------------------------------------------------------------
# reference path


def ref_hom_layout(a, b, t):
    """Blocks of Hom(a, b)_t as (s, rows=dim b_{s+t}, cols=dim a_s, offset)."""
    out, off = [], 0
    for s in a.degrees():
        r, c = b.dim(s + t), a.dim(s)
        if r and c:
            out.append((s, r, c, off))
            off += r * c
    return out


def ref_hom_complex(a, b):
    p = a.p
    if b.p != p:
        raise FieldMismatchError("hom over different primes")
    if a.is_zero() or b.is_zero():
        return ch.zero_complex(p)
    lo, hi = b.lo - a.hi, b.hi - a.lo
    layouts = {t: ref_hom_layout(a, b, t) for t in range(lo, hi + 1)}
    dims = [sum(r * c for _, r, c, _ in layouts[t]) for t in range(lo, hi + 1)]
    diffs = {}
    for t in range(lo + 1, hi + 1):
        rows, cols = dims[t - 1 - lo], dims[t - lo]
        if rows == 0 or cols == 0:
            continue
        m = np.zeros((rows, cols), dtype=np.int64)
        tgt = {s: (off, r, c) for s, r, c, off in layouts[t - 1]}
        for s, r, c, off in layouts[t]:
            if s in tgt:  # d_b f_s
                o, tr, tc = tgt[s]
                m[o : o + tr * tc, off : off + r * c] += np.kron(
                    b.d(s + t).a, np.eye(c, dtype=np.int64)
                )
            if s + 1 in tgt:  # -(-1)^t f_s d_a lands in block s + 1
                o, tr, tc = tgt[s + 1]
                m[o : o + tr * tc, off : off + r * c] += (-((-1) ** (t % 2)) % p) * np.kron(
                    np.eye(r, dtype=np.int64), a.d(s + 1).a.T
                )
        diffs[t] = FpMatrix(p, m)
    return ch.ChainComplex.build(p, lo, dims, diffs)


def ref_hom_precompose(a, b, g, h1, h2):
    if g.target != a:
        raise ValidationFailure("precomposition target mismatch")
    blocks = {}
    for t in h1.degrees():
        tgt = {s: (off, r, c) for s, r, c, off in ref_hom_layout(g.source, b, t)}
        m = np.zeros((h2.dim(t), h1.dim(t)), dtype=np.int64)
        for s, r, c, off in ref_hom_layout(a, b, t):
            if s in tgt:
                o, tr, tc = tgt[s]
                m[o : o + tr * tc, off : off + r * c] += np.kron(
                    np.eye(r, dtype=np.int64), g.block(s).a.T
                )
        blocks[t] = FpMatrix(h1.p, m)
    return ch.ChainMap.build(h1, h2, blocks)


def ref_hom_postcompose(a, g, h1, h2):
    blocks = {}
    for t in h1.degrees():
        tgt = {s: (off, r, c) for s, r, c, off in ref_hom_layout(a, g.target, t)}
        m = np.zeros((h2.dim(t), h1.dim(t)), dtype=np.int64)
        for s, r, c, off in ref_hom_layout(a, g.source, t):
            if s in tgt:
                o, tr, tc = tgt[s]
                m[o : o + tr * tc, off : off + r * c] += np.kron(
                    g.block(s + t).a, np.eye(c, dtype=np.int64)
                )
        blocks[t] = FpMatrix(h1.p, m)
    return ch.ChainMap.build(h1, h2, blocks)


def ref_tensor_layout(a, b, n):
    """Blocks of (a tensor b)_n as (s, rows=dim a_s, cols=dim b_{n-s}, offset)."""
    out, off = [], 0
    for s in a.degrees():
        r, c = a.dim(s), b.dim(n - s)
        if r and c:
            out.append((s, r, c, off))
            off += r * c
    return out


def ref_tensor_complexes(a, b):
    p = a.p
    if b.p != p:
        raise FieldMismatchError("tensor over different primes")
    if a.is_zero() or b.is_zero():
        return ch.zero_complex(p)
    lo, hi = a.lo + b.lo, a.hi + b.hi
    layouts = {n: ref_tensor_layout(a, b, n) for n in range(lo, hi + 1)}
    dims = [sum(r * c for _, r, c, _ in layouts[n]) for n in range(lo, hi + 1)]
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rows, cols = dims[n - 1 - lo], dims[n - lo]
        if rows == 0 or cols == 0:
            continue
        m = np.zeros((rows, cols), dtype=np.int64)
        tgt = {s: (off, r, c) for s, r, c, off in layouts[n - 1]}
        for s, r, c, off in layouts[n]:
            if s - 1 in tgt:  # d_a tensor id
                o, tr, tc = tgt[s - 1]
                m[o : o + tr * tc, off : off + r * c] += np.kron(
                    a.d(s).a, np.eye(c, dtype=np.int64)
                )
            if s in tgt:  # (-1)^s id tensor d_b
                o, tr, tc = tgt[s]
                m[o : o + tr * tc, off : off + r * c] += (((-1) ** (s % 2)) % p) * np.kron(
                    np.eye(r, dtype=np.int64), b.d(n - s).a
                )
        diffs[n] = FpMatrix(p, m)
    return ch.ChainComplex.build(p, lo, dims, diffs)


def ref_tensor_maps(f, g):
    src = ref_tensor_complexes(f.source, g.source)
    tgt = ref_tensor_complexes(f.target, g.target)
    blocks = {}
    for n in src.degrees():
        offs = {s: (off, r, c) for s, r, c, off in ref_tensor_layout(f.target, g.target, n)}
        m = np.zeros((tgt.dim(n), src.dim(n)), dtype=np.int64)
        for s, r, c, off in ref_tensor_layout(f.source, g.source, n):
            if s in offs:
                o, tr, tc = offs[s]
                m[o : o + tr * tc, off : off + r * c] += np.kron(f.block(s).a, g.block(n - s).a)
        blocks[n] = FpMatrix(src.p, m)
    return ch.ChainMap.build(src, tgt, blocks)


def ref_chain_map_basis(a, b):
    """Chain maps are the 0-cycles of Hom(a, b), in Hom_0's block layout."""
    h = ref_hom_complex(a, b)
    return kernel_basis(h.d(0)) if h.dim(0) else None


# ---------------------------------------------------------------------------
# inputs


def gapped_complex(rng, p):
    """A random complex in low degrees plus one in high degrees, with at
    least one zero degree between them."""
    low = rand_complex(rng, p, lo=-2, width=1, maxdim=3)
    high = rand_complex(rng, p, lo=2, width=1, maxdim=3)
    return ch.direct_sum([low, high])


def complexes(p: int, seed: int):
    """Zero complexes, random complexes with negative degrees, and gapped
    ones, over F_p."""
    rng = np.random.default_rng(seed)
    out = [ch.zero_complex(p)]
    for lo in (-2, -1, 0, 1):
        out.append(rand_complex(rng, p, lo=lo, width=int(rng.integers(0, 4)), maxdim=3))
    out.append(gapped_complex(rng, p))
    out.append(ch.ChainComplex.build(p, -1, [2, 0, 0, 1], {}))
    return out


def pairs(p: int, seed: int):
    xs = complexes(p, seed)
    return [(a, b) for a in xs for b in xs]


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("p", PRIMES)
def test_hom_and_tensor_complexes_equal_reference(p):
    for a, b in pairs(p, seed=p):
        assert ch.hom_complex(a, b) == ref_hom_complex(a, b)
        assert ch.tensor_complexes(a, b) == ref_tensor_complexes(a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_composition_and_tensor_maps_equal_reference(p):
    rng = np.random.default_rng(1000 + p)
    xs = complexes(p, seed=2000 + p)
    for a, b in pairs(p, seed=3000 + p):
        c = xs[int(rng.integers(0, len(xs)))]
        g = rand_map(rng, c, a)
        h1, h2 = ch.hom_complex(a, b), ch.hom_complex(c, b)
        assert ch.hom_precompose(a, b, g, h1, h2) == ref_hom_precompose(a, b, g, h1, h2)
        g = rand_map(rng, b, c)
        h2 = ch.hom_complex(a, c)
        assert ch.hom_postcompose(a, g, h1, h2) == ref_hom_postcompose(a, g, h1, h2)
        f = rand_map(rng, a, b)
        assert ch.tensor_maps(f, g) == ref_tensor_maps(f, g)


@pytest.mark.parametrize("p", PRIMES)
def test_chain_map_space_is_the_reference_hom_cycles(p):
    rng = np.random.default_rng(4000 + p)
    for a, b in pairs(p, seed=5000 + p):
        basis, sys = ch.chain_map_space(a, b)
        ref = ref_chain_map_basis(a, b)
        if ref is None:
            assert basis.rows == 0
            continue
        assert basis == ref
        coeffs = FpMatrix(p, rng.integers(0, p, size=(basis.cols, 1)))
        drawn = ch.chain_map_from_vector(a, b, basis @ coeffs, sys)
        ch.validate_map(drawn)


@pytest.fixture
def reference_sing(monkeypatch):
    """Make ``realize.sing`` and ``sing_map`` build through the reference
    builders for the duration of a call."""

    def run(build, *args):
        with monkeypatch.context() as m:
            m.setattr(rz, "hom_complex", ref_hom_complex)
            m.setattr(rz, "hom_precompose", ref_hom_precompose)
            m.setattr(rz, "hom_postcompose", ref_hom_postcompose)
            return build(*args)

    return run


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_sing_and_sing_map_equal_reference(p, N, reference_sing):
    rng = np.random.default_rng(100 * N + p)
    width = 2 if N < 4 else 1
    for lo in (-1, 0, 1):
        a = rand_complex(rng, p, lo=lo, width=width, maxdim=2)
        b = rand_complex(rng, p, lo=lo - 1, width=width, maxdim=2)
        g = rand_map(rng, a, b)
        assert rz.sing(a, N) == reference_sing(rz.sing, a, N)
        assert rz.sing_map(g, N) == reference_sing(rz.sing_map, g, N)
