"""Seeded samplers for complexes, simplicial objects, and classified maps.

Every map-valued kind is built constructively inside the advertised class
(projections with fibrant complements, Sing of surjections, pullbacks and
composites of those, pushouts of generator cofibrations).  ``draw`` returns
the validated build; ``sample`` also re-checks it with the classifiers.  A
sample that fails its own membership check is a bug, not a retry.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import chain as ch
from . import classify as cl
from . import dold_kan as dk
from . import linalg as la
from . import realize as rz
from . import sobj as so
from . import ssets as ss
from .errors import InternalInvariantError

KINDS = (
    "random_sobj",
    "reedy_fibration",
    "equifibered_fibration",
    "equifibered_exact",
    "trivial_fibration",
    "reedy_cofibration",
)


def rng_for(token) -> np.random.Generator:
    digest = hashlib.sha256(str(token).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def _randint(rng, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _pick(rng, seq):
    return seq[_randint(rng, 0, len(seq) - 1)]


# ---------------------------------------------------------------------------
# chain-level samplers


def conjugate_with_iso(x: ch.ChainComplex, rng):
    """Random change of basis: returns (x', iso : x' -> x)."""
    hs = {t: la.random_invertible(x.p, x.dim(t), rng) for t in x.degrees()}
    diffs = {}
    for t in x.degrees():
        if x.dim(t) and x.dim(t - 1):
            diffs[t] = la.invert(hs[t - 1]) @ x.d(t) @ hs[t]
    xc = ch.ChainComplex.build(x.p, x.lo, [x.dim(t) for t in x.degrees()], diffs)
    iso = ch.ChainMap.build(xc, x, {t: hs[t] for t in x.degrees() if x.dim(t)})
    return xc, iso


def conjugate_complex(x: ch.ChainComplex, rng) -> ch.ChainComplex:
    return conjugate_with_iso(x, rng)[0]


def random_complex(p: int, rng, pieces=(1, 2), lo: int = -1, hi: int = 2) -> ch.ChainComplex:
    parts = []
    for _ in range(_randint(rng, *pieces)):
        t = _randint(rng, lo, hi)
        parts.append(ch.sphere(p, t) if rng.random() < 0.5 else ch.disk(p, t))
    return conjugate_complex(ch.direct_sum(parts), rng)


def random_acyclic(p: int, rng, pieces=(1, 2), lo: int = 0, hi: int = 2) -> ch.ChainComplex:
    parts = [ch.disk(p, _randint(rng, lo, hi)) for _ in range(_randint(rng, *pieces))]
    return conjugate_complex(ch.direct_sum(parts), rng)


def _random_combination(p: int, basis: la.FpMatrix, rng) -> la.FpMatrix:
    coeffs = rng.integers(0, p, size=(basis.cols, 1))
    return basis @ la.FpMatrix(p, coeffs)


def random_chain_map(a: ch.ChainComplex, b: ch.ChainComplex, rng) -> ch.ChainMap:
    basis, system = ch.chain_map_space(a, b)
    if basis.cols == 0:
        return ch.zero_map(a, b)
    return ch.chain_map_from_vector(a, b, _random_combination(a.p, basis, rng), system)


def random_epi(p: int, rng, acyclic_fiber: bool) -> ch.ChainMap:
    """Levelwise surjection with the split structure hidden by conjugation."""
    base = random_complex(p, rng)
    fiber = random_acyclic(p, rng) if acyclic_fiber else random_complex(p, rng)
    total, _, projs = ch.direct_sum_with_maps([base, fiber])
    _, ti = conjugate_with_iso(total, rng)
    _, bi = conjugate_with_iso(base, rng)
    return ch.invert_map(bi) @ projs[0] @ ti


# ---------------------------------------------------------------------------
# object samplers


def random_sset(N: int, rng, _delta_max: int = 2) -> ss.SSet:
    """A standard simplex up to dimension ``_delta_max``, a boundary or a horn."""
    n_max = min(2, N)
    options = [("delta", n) for n in range(min(n_max, _delta_max) + 1)]
    options += [("boundary", n) for n in range(1, n_max + 1)]
    options += [("horn", n, k) for n in range(1, n_max + 1) for k in range(n + 1)]
    choice = _pick(rng, options)
    if choice[0] == "delta":
        return ss.delta(N, choice[1])
    if choice[0] == "boundary":
        return ss.boundary_inclusion(N, choice[1]).source
    return ss.horn_inclusion(N, choice[1], choice[2]).source


def random_moore(p: int, N: int, rng):
    """Moore data (parts, deltas) for the level-splitting constructor."""
    z = ch.zero_complex(p)
    families = ["constant", "free", "skeletal-iso"]
    if N >= 2:
        families.append("acyclic-iso")
    fam = _pick(rng, families)
    parts = [z] * (N + 1)
    if fam == "constant":
        parts[0] = random_complex(p, rng)
    elif fam == "free":
        parts[0] = random_complex(p, rng, pieces=(1, 1))
        parts[1] = random_complex(p, rng, pieces=(1, 1))
    elif fam == "skeletal-iso":
        c = random_complex(p, rng, pieces=(1, 1))
        parts[0], parts[1] = c, c
    else:
        c = random_acyclic(p, rng, pieces=(1, 1))
        parts[1], parts[2] = c, c
    deltas = []
    for s in range(N):
        if fam == "free" and s == 0:
            deltas.append(random_chain_map(parts[1], parts[0], rng))
        elif fam == "skeletal-iso" and s == 0:
            deltas.append(ch.identity_map(parts[0]))
        elif fam == "acyclic-iso" and s == 1:
            deltas.append(ch.identity_map(parts[1]))
        else:
            deltas.append(ch.zero_map(parts[s + 1], parts[s]))
    return parts, deltas


def random_sobj_obj(p: int, N: int, rng) -> so.SimplicialObject:
    style = _pick(rng, ("constant", "tensor", "sing", "moore"))
    if style == "constant":
        return so.constant(N, random_complex(p, rng))
    if style == "tensor":
        return so.tensor_with_sset(random_complex(p, rng, pieces=(1, 1)), random_sset(N, rng))
    if style == "sing":
        return rz.sing(random_complex(p, rng, pieces=(1, 1), lo=0, hi=1), N)
    parts, deltas = random_moore(p, N, rng)
    return dk.dold_kan(parts, deltas)


def random_skeletal_sobj(p: int, N: int, rng) -> so.SimplicialObject:
    """Objects whose top level is spanned by degeneracies."""
    style = _pick(rng, ("constant", "tensor", "moore"))
    if style == "constant":
        return so.constant(N, random_complex(p, rng))
    if style == "tensor":
        # any shape with no nondegenerate top cells works
        k = random_sset(N, rng, N - 1)
        return so.tensor_with_sset(random_complex(p, rng, pieces=(1, 1)), k)
    if N < 2:
        return so.constant(N, random_complex(p, rng))
    parts, deltas = random_moore(p, N, rng)
    while any(parts[N].dim(t) for t in parts[N].degrees()):
        parts, deltas = random_moore(p, N, rng)
    return dk.dold_kan(parts, deltas)


def random_smap(x: so.SimplicialObject, y: so.SimplicialObject, rng, cap=None) -> so.SimplicialMap:
    basis, system = so.smap_space(x, y, cap)
    if basis.cols == 0:
        return so.zero_smap(x, y)
    return so.smap_from_vector(x, y, _random_combination(x.p, basis, rng), system)


# ---------------------------------------------------------------------------
# fibrant complements


def acyclic_dk_fiber(p: int, N: int, rng) -> so.SimplicialObject:
    """Fibrant, skeletal, homotopically constant, levelwise acyclic."""
    c = random_acyclic(p, rng, pieces=(1, 1))
    z = ch.zero_complex(p)
    parts = [c, c] + [z] * (N - 1)
    deltas = [ch.identity_map(c)]
    deltas += [ch.zero_map(parts[s + 1], parts[s]) for s in range(1, N)]
    return dk.dold_kan(parts, deltas)


def fibrant_twisted_fiber(p: int, N: int, rng) -> so.SimplicialObject:
    """Fibrant but not homotopically constant in general."""
    c = random_complex(p, rng, pieces=(1, 1))
    z = ch.zero_complex(p)
    if N == 1:
        parts = [z, c]
        deltas = [ch.zero_map(c, z)]
    else:
        parts = [z, c, c] + [z] * (N - 2)
        deltas = [ch.zero_map(c, z), ch.identity_map(c)]
        deltas += [ch.zero_map(parts[s + 1], parts[s]) for s in range(2, N)]
    return dk.dold_kan(parts, deltas)


# ---------------------------------------------------------------------------
# map samplers, one per advertised kind


def sample_equifibered_exact(p: int, N: int, rng, cap=None) -> so.SimplicialMap:
    style = _pick(rng, ("identity", "projection", "double"))
    x = random_skeletal_sobj(p, N, rng)
    if style == "identity" or N < 2:
        return so.identity_smap(x)
    w = acyclic_dk_fiber(p, N, rng)
    total, _, projs = so.direct_sum_sobj([x, w])
    if style == "projection":
        return projs[0]
    w2 = acyclic_dk_fiber(p, N, rng)
    _, _, outer = so.direct_sum_sobj([total, w2])
    return projs[0] @ outer[0]


def sample_equifibered(p: int, N: int, rng, cap=None) -> so.SimplicialMap:
    style = _pick(rng, ("sing", "projection", "pullback", "composite", "exact"))
    if style == "sing":
        return rz.sing_map(random_epi(p, rng, acyclic_fiber=rng.random() < 0.5), N)
    if style == "exact":
        return sample_equifibered_exact(p, N, rng, cap)
    if style == "projection" or N < 2:
        x = random_sobj_obj(p, N, rng)
        w = acyclic_dk_fiber(p, N, rng) if N >= 2 else rz.sing(
            random_acyclic(p, rng, pieces=(1, 1)), N
        )
        _, _, projs = so.direct_sum_sobj([x, w])
        return projs[0]
    if style == "pullback":
        q = rz.sing_map(random_epi(p, rng, acyclic_fiber=False), N)
        z = random_sobj_obj(p, N, rng)
        u = random_smap(z, q.target, rng, cap)
        return so.pullback_sobj(q, u).right
    x = random_sobj_obj(p, N, rng)
    w1 = acyclic_dk_fiber(p, N, rng)
    w2 = acyclic_dk_fiber(p, N, rng)
    total, _, projs = so.direct_sum_sobj([x, w1])
    _, _, outer = so.direct_sum_sobj([total, w2])
    return projs[0] @ outer[0]


def sample_reedy_fibration(p: int, N: int, rng, cap=None) -> so.SimplicialMap:
    style = _pick(rng, ("equifibered", "twisted", "twisted-pullback"))
    if style == "equifibered":
        return sample_equifibered(p, N, rng, cap)
    x = random_sobj_obj(p, N, rng)
    w = fibrant_twisted_fiber(p, N, rng)
    _, _, projs = so.direct_sum_sobj([x, w])
    if style == "twisted":
        return projs[0]
    z = random_sobj_obj(p, N, rng)
    u = random_smap(z, x, rng, cap)
    return so.pullback_sobj(projs[0], u).right


def sample_trivial_fibration(p: int, N: int, rng, cap=None) -> so.SimplicialMap:
    style = _pick(rng, ("sing-qis", "projection", "pullback", "identity"))
    if style == "identity":
        return so.identity_smap(random_sobj_obj(p, N, rng))
    if style == "sing-qis" or N < 2:
        return rz.sing_map(random_epi(p, rng, acyclic_fiber=True), N)
    x = random_sobj_obj(p, N, rng)
    w = acyclic_dk_fiber(p, N, rng)
    _, _, projs = so.direct_sum_sobj([x, w])
    if style == "projection":
        return projs[0]
    z = random_sobj_obj(p, N, rng)
    u = random_smap(z, x, rng, cap)
    return so.pullback_sobj(projs[0], u).right


def sample_reedy_cofibration(p: int, N: int, rng, cap=None) -> so.SimplicialMap:
    n_max = 2 if N <= 2 else 1
    cur = random_sobj_obj(p, N, rng)
    f = so.identity_smap(cur)
    for _ in range(_randint(rng, 1, 3)):
        if rng.random() < 0.4:
            w = random_sobj_obj(p, N, rng)
            _, incs, _ = so.direct_sum_sobj([cur, w])
            step = incs[0]
        else:
            m = _randint(rng, 0, 1)
            part = (
                ch.sphere_disk_inclusion(p, m)
                if rng.random() < 0.5
                else ch.disk_from_zero(p, m)
            )
            gen = cl.pushout_product(part, ss.boundary_inclusion(N, _randint(rng, 0, n_max)))
            u = random_smap(gen.source, cur, rng, cap)
            step = so.pushout_sobj(gen, u).right
        f = step @ f
        cur = step.target
    return f


def random_small_map(p: int, N: int, rng) -> so.SimplicialMap:
    """Generic map sampler tuned for cheap matching/cotensor comparisons.

    Level dimensions of every draw stay at desk scale for truncations up
    to 4, so systems over boundary shapes remain small; the pricier
    styles only appear at low truncation where they are still cheap.
    """
    styles = ["constant", "constant", "constant", "tensor", "tensor", "identity", "zero"]
    if N <= 2:
        styles.append("sing")
    style = _pick(rng, styles)
    if style == "constant":
        a = random_complex(p, rng, pieces=(1, 1))
        b = random_complex(p, rng, pieces=(1, 1))
        return so.constant_map(N, random_chain_map(a, b, rng))
    if style == "tensor":
        a = random_complex(p, rng, pieces=(1, 1), lo=0, hi=1)
        b = random_complex(p, rng, pieces=(1, 1), lo=0, hi=1)
        n = 0 if N >= 3 else _randint(rng, 0, 1)
        k = ss.delta(N, n) if rng.random() < 0.5 else ss.boundary_inclusion(N, max(n, 1)).source
        return so.tensor_chain_map(random_chain_map(a, b, rng), k)
    if style == "identity":
        if N >= 3:
            a = random_complex(p, rng, pieces=(1, 1), lo=0, hi=0)
            return so.identity_smap(so.tensor_with_sset(a, ss.delta(N, 1)))
        a = random_complex(p, rng, pieces=(1, 1), lo=0, hi=1)
        return so.identity_smap(so.tensor_with_sset(a, ss.delta(N, _randint(rng, 0, 1))))
    if style == "sing":
        m = _randint(rng, 0, 1)
        a = ch.sphere(p, m)
        b = ch.sphere(p, m) if N == 2 else ch.disk(p, m)
        return rz.sing_map(random_chain_map(a, b, rng), N)
    x = so.constant(N, random_complex(p, rng, pieces=(1, 1)))
    y = so.constant(N, random_complex(p, rng, pieces=(1, 1)))
    return so.zero_smap(x, y)


def random_trivial_cofibration(p: int, N: int, rng, cap=None) -> so.SimplicialMap:
    """Levelwise trivial Reedy cofibration: a disk-generator box, optionally
    pushed out along a random attaching map."""
    m = _randint(rng, 0, 1)
    n = _randint(rng, 0, min(2, N))
    base = cl.pushout_product(ch.disk_from_zero(p, m), ss.boundary_inclusion(N, n))
    if rng.random() < 0.5:
        return base
    z = random_sobj_obj(p, N, rng)
    u = random_smap(base.source, z, rng, cap)
    return so.pushout_sobj(base, u).right


_BUILDERS = {
    "reedy_fibration": sample_reedy_fibration,
    "equifibered_fibration": sample_equifibered,
    "equifibered_exact": sample_equifibered_exact,
    "trivial_fibration": sample_trivial_fibration,
    "reedy_cofibration": sample_reedy_cofibration,
}

_REQUIRED = {
    "reedy_fibration": ("reedy_fib",),
    "equifibered_fibration": ("reedy_fib", "equifibered"),
    "equifibered_exact": ("equifibered", "realization_we", "realization_exact"),
    "trivial_fibration": ("reedy_trivial_fib",),
    "reedy_cofibration": ("reedy_cof",),
}


def draw(kind: str, p: int, N: int, seed: int, cap=None):
    """Build and validate one sample of the given kind without classifying
    it; deterministic in (kind, p, N, seed), and the map ``sample`` returns
    for the same arguments."""
    if kind not in KINDS:
        raise ValueError(f"unknown sample kind {kind!r}; choose from {KINDS}")
    rng = rng_for(f"{kind}:{p}:{N}:{seed}")
    if kind == "random_sobj":
        x = random_sobj_obj(p, N, rng)
        so.validate_sobj(x)
        return x
    f = _BUILDERS[kind](p, N, rng, cap)
    so.validate_smap(f)
    return f


def sample(kind: str, p: int, N: int, seed: int, cap=None):
    """Draw one sample of the given kind and check, with the classifiers,
    that it lies in its advertised class."""
    out = draw(kind, p, N, seed, cap)
    if kind == "random_sobj":
        return out
    cls = cl.classify(out, check_invariant=kind != "reedy_cofibration")
    for attr in _REQUIRED[kind]:
        if not getattr(cls, attr):
            raise InternalInvariantError(
                f"sampler for {kind!r} produced a map failing {attr}"
            )
    return out
