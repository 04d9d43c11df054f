"""The realization coend as the reference for ``realize``.

``realize.realize`` returns the normalized total complex Tot N Y (Dold-Kan).
The reference is the general presentation it replaced: the coend of
Y_n tensor N(Delta^n) over the truncated index category, the cokernel of
the relation map assembled over elementary cofaces and codegeneracies (the
relation for a composite operator is implied).

The comparison from the coend to Tot N Y sends y tensor theta, with y in
degree t of Y_n and theta a nondegenerate k-simplex of Delta^n, to
(-1)^(t k) [theta^* y] in degree t of N_k Y, the class of theta^* y in
Y_k / D_k Y.  The sign turns the Koszul sign of the tensor product (on the
simplex factor) into Tot's (on the internal differential).  The tests
assert that the comparison kills the relations, is a chain isomorphism,
and is natural: comparison . coend_map(f) == total_map(f) . comparison.

``is_skeletal`` is kept here as the independent check of the realization
``exact`` flag: it ranks the degeneracy span of the top level directly,
where ``totals.realization_we`` reads the same fact off the top normalized
level.
"""

from typing import NamedTuple

import numpy as np
import pytest

from reedychain import chain as ch
from reedychain import realize as rz
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain import totals as tt
from reedychain.linalg import FpMatrix, block_diag, hstack
from test_reedy_oracle import glue_out_of_sum, structure_map

P = 7
SAMPLE_P = 101
SEEDS = range(4)


# ---------------------------------------------------------------------------
# reference path


def is_skeletal(x: so.SimplicialObject) -> bool:
    """True when the top level is spanned by degeneracies, so truncation
    lost nothing of the normalized total."""
    if x.N == 0:
        return True
    lvl = x.level(x.N)
    for t in lvl.degrees():
        span = hstack([x.degen(x.N - 1, i).block(t) for i in range(x.N)])
        if span.rank() < lvl.dim(t):
            return False
    return True


class Coend(NamedTuple):
    obj: ch.ChainComplex
    proj: ch.ChainMap  # ambient sum -> obj
    sects: dict  # degree -> section of proj
    projs: tuple  # ambient sum -> summand n
    rel: ch.ChainMap  # relations -> ambient sum


def coend(y: so.SimplicialObject) -> Coend:
    """Coend of level tensor simplex-chains, presented by elementary
    operator relations."""
    p, N = y.p, y.N
    summands = tuple(
        ch.tensor_complexes(y.level(n), rz.simplex_chains(p, N, n)) for n in range(N + 1)
    )
    amb, incs, projs = ch.direct_sum_with_maps(list(summands))
    rels = []
    for n, m, i in ss.operator_indices(N):
        cm = rz.simplex_chains_map(p, N, ss.operator_tuple(n, m, i), n)
        rels.append(
            incs[m] @ ch.tensor_maps(y.operator(n, m, i), ch.identity_map(cm.source))
            - incs[n] @ ch.tensor_maps(ch.identity_map(y.level(n)), cm)
        )
    _, rel = glue_out_of_sum(rels, amb, p)
    q, proj, sects = ch.cokernel_complex(rel)
    return Coend(q, proj, sects, tuple(projs), rel)


def coend_map(f: so.SimplicialMap, rx: Coend, ry: Coend) -> ch.ChainMap:
    p, N = f.p, f.source.N
    per = [
        ch.tensor_maps(f.level(n), ch.identity_map(rz.simplex_chains(p, N, n)))
        for n in range(N + 1)
    ]
    blocks = {}
    for t in rx.obj.degrees():
        big = block_diag(p, [m.block(t) for m in per])
        blocks[t] = ry.proj.block(t) @ big @ rx.sects[t]
    return ch.ChainMap.build(rx.obj, ry.obj, blocks)


# ---------------------------------------------------------------------------
# the comparison coend -> Tot N


def summand_comparison(y: so.SimplicialObject, n: int, tot: tt.TotalComplex) -> ch.ChainMap:
    """Y_n tensor N(Delta^n) -> Tot N Y: y tensor theta to
    (-1)^(t k) [theta^* y] at level k, internal degree t."""
    p, N = y.p, y.N
    shape = ss.delta(N, n)
    chains = rz.simplex_chains(p, N, n)
    src = ch.tensor_complexes(y.level(n), chains)
    blocks = {}
    for d in src.degrees():
        m = np.zeros((tot.obj.dim(d), src.dim(d)), dtype=np.int64)
        # level k of the total starts at row rows[k] in degree d
        rows, start = [], 0
        for k, e in enumerate(tot.levels):
            rows.append(start)
            start += e.dim(d - k)
        # the nonzero blocks y_t tensor chains_{d-t} in ascending t; the column
        # of y_i tensor theta_j in a block at offset off is off + i * c + j
        off = 0
        for t in y.level(n).degrees():
            r, c = y.level(n).dim(t), chains.dim(d - t)
            if not (r and c):
                continue
            k = d - t
            if tot.levels[k].dim(t):  # else N_k Y vanishes in degree t
                o = rows[k]
                to_normalized = tot.witnesses[k][0].block(t)
                sign = -1 if (t * k) % 2 else 1
                for j, idx in enumerate(ss.nondegenerate_indices(shape, k)):
                    img = to_normalized @ structure_map(y, shape.label(k, idx), n).block(t)
                    m[o : o + img.rows, off + j : off + r * c : c] = sign * img.a
            off += r * c
        blocks[d] = FpMatrix(p, m)
    return ch.ChainMap.build(src, tot.obj, blocks)


def comparison(y: so.SimplicialObject, r: Coend, tot: tt.TotalComplex) -> ch.ChainMap:
    """The chain map coend -> Tot N Y induced by the summand comparisons.
    Asserts that each summand comparison is a chain map and that together
    they kill the relations, so the map is well defined."""
    legs = [summand_comparison(y, n, tot) for n in range(y.N + 1)]
    for leg in legs:
        ch.validate_map(leg)
    whole = ch.zero_map(r.proj.source, tot.obj)
    for leg, pr in zip(legs, r.projs):
        whole = whole + leg @ pr
    assert whole @ r.rel == ch.zero_map(r.rel.source, tot.obj)
    blocks = {d: whole.block(d) @ r.sects[d] for d in r.obj.degrees()}
    cmp_map = ch.ChainMap.build(r.obj, tot.obj, blocks)
    assert cmp_map @ r.proj == whole
    return cmp_map


def assert_comparison_iso(y: so.SimplicialObject):
    r = coend(y)
    tot = rz.realize(y)
    cmp_map = comparison(y, r, tot)
    ch.validate_map(cmp_map)
    assert ch.is_iso(cmp_map)
    return r, tot, cmp_map


def assert_natural(f: so.SimplicialMap):
    rx, tx, cx = assert_comparison_iso(f.source)
    ry, ty, cy = assert_comparison_iso(f.target)
    assert cy @ coend_map(f, rx, ry) == tt.total_map(f, tx, ty) @ cx


# ---------------------------------------------------------------------------
# inputs


def fixture_objects():
    a = ch.direct_sum([ch.sphere(P, 0), ch.sphere(P, 1)])
    out = []
    for N in (1, 2, 3):
        out += [
            so.constant(N, a),
            so.constant(N, ch.disk(P, 2)),
            so.constant(N, ch.zero_complex(P)),
            so.tensor_with_sset(ch.disk(P, 1), ss.delta(N, 1)),
            so.tensor_with_sset(ch.sphere(P, 1), ss.boundary_inclusion(N, min(N, 2)).source),
            rz.sing(ch.disk(P, 0), N),
        ]
    return out


def fixture_maps():
    k = ss.delta(2, 1)
    f = ch.sphere_disk_inclusion(P, 1)
    return [
        so.tensor_chain_map(f, k),
        so.tensor_sset_map(ch.sphere(P, 0), ss.boundary_inclusion(2, 1)),
        so.constant_map(3, ch.disk_from_zero(P, 0)),
        rz.sing_map(ch.sphere_disk_inclusion(P, 0), 2),
    ]


def drawn(kind: str, N: int, seed: int):
    if kind == "random_small_map":
        return sm.random_small_map(SAMPLE_P, N, sm.rng_for(f"realize-oracle:{N}:{seed}"))
    return sm.draw(kind, SAMPLE_P, N, seed)


# ---------------------------------------------------------------------------
# tests


def test_coend_validates():
    y = so.tensor_with_sset(ch.disk(P, 1), ss.delta(2, 1))
    ch.validate_complex(coend(y).obj)


def test_coend_tensor_matches_simplex_chains():
    for k in (ss.delta(2, 1), ss.boundary_inclusion(2, 2).source):
        a = ch.sphere(P, 1)
        r = coend(so.tensor_with_sset(a, k))
        ref = ch.tensor_complexes(a, ss.normalized_chains(k, P))
        assert ch.homology_dims(r.obj) == ch.homology_dims(ref)


def test_coend_agrees_with_normalized_total_on_skeletal():
    cases = [
        so.constant(2, ch.direct_sum([ch.sphere(P, 0), ch.disk(P, 2)])),
        so.tensor_with_sset(ch.sphere(P, 1), ss.delta(2, 1)),
        so.tensor_with_sset(ch.disk(P, 1), ss.boundary_inclusion(2, 2).source),
    ]
    for y in cases:
        assert is_skeletal(y)
        r = coend(y)
        t = tt.total_complex(y, mode="normalized")
        assert ch.homology_dims(r.obj) == ch.homology_dims(t.obj)


def test_coend_map_functorial():
    sf = so.tensor_chain_map(ch.sphere_disk_inclusion(P, 1), ss.delta(2, 1))
    rx = coend(sf.source)
    ry = coend(sf.target)
    ch.validate_map(coend_map(sf, rx, ry))
    assert coend_map(so.identity_smap(sf.source), rx, rx) == ch.identity_map(rx.obj)


def test_comparison_is_iso_on_fixtures():
    for y in fixture_objects():
        assert_comparison_iso(y)


def test_comparison_is_natural_on_fixture_maps():
    for f in fixture_maps():
        assert_natural(f)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("kind", [*sm.KINDS, "random_small_map"])
def test_comparison_is_natural_iso_on_samples(kind, N):
    """Every sampler kind at seeds 0-3: the comparison is an isomorphism on
    each sampled object, and natural along each sampled map."""
    for seed in SEEDS:
        out = drawn(kind, N, seed)
        if isinstance(out, so.SimplicialObject):
            assert_comparison_iso(out)
        else:
            assert_natural(out)
