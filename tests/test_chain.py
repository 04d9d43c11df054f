"""Chain complexes over F_p: constructors, homology, cones, (co)limits, hom
and tensor.

Expected homology tables were computed by hand before implementing:
  * disk(n) is acyclic, sphere(n) has one class in degree n
  * cone of the zero endomorphism of sphere(n) has classes in n and n+1
  * pushout of disk(n) <- sphere(n-1) -> 0 collapses to a sphere in degree n
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reedychain import chain as ch
from reedychain import linalg as la
from reedychain.errors import FieldMismatchError, ValidationFailure
from reedychain.linalg import FpMatrix, random_invertible

P = 7


def rand_complex(rng, p=P, lo=-1, width=3, maxdim=3):
    """Random complex built as conjugated spheres and disks, so d*d = 0 holds
    by construction."""
    degs = list(range(lo, lo + width + 1))
    spheres = {t: int(rng.integers(0, 2)) for t in degs}
    disks = {t: int(rng.integers(0, maxdim - 1)) for t in degs}
    parts = []
    for t in degs:
        parts += [ch.sphere(p, t)] * spheres[t]
        parts += [ch.disk(p, t)] * disks[t]
    if not parts:
        return ch.zero_complex(p)
    x = ch.direct_sum(parts)
    blocks = {}
    for t in x.degrees():
        blocks[t] = random_invertible(p, x.dim(t), rng)
    diffs = {}
    for t in x.degrees():
        if x.dim(t) and x.dim(t - 1):
            u_out = blocks.get(t - 1)
            u_in = blocks[t]
            from reedychain.linalg import invert

            diffs[t] = u_out @ x.d(t) @ invert(u_in) if u_out is not None else x.d(t)
    return ch.ChainComplex.build(p, x.lo, list(x.dims), diffs)


def rand_map(rng, a, b):
    basis, system = ch.chain_map_space(a, b)
    if basis.cols == 0:
        return ch.zero_map(a, b)
    coeffs = FpMatrix(a.p, rng.integers(0, a.p, size=(basis.cols, 1)))
    return ch.chain_map_from_vector(a, b, basis @ coeffs, system)


def inclusion_map(part, whole):
    """Inclusion of ``part`` as the leading direct summand of ``whole``."""
    blocks = {}
    for t in part.degrees():
        m = np.zeros((whole.dim(t), part.dim(t)), dtype=np.int64)
        m[: part.dim(t)] = np.eye(part.dim(t), dtype=np.int64)
        blocks[t] = FpMatrix(part.p, m)
    return ch.ChainMap.build(part, whole, blocks)


def projection_map(whole, part):
    """Projection of ``whole`` onto its leading direct summand ``part``."""
    blocks = {}
    for t in whole.degrees():
        m = np.zeros((part.dim(t), whole.dim(t)), dtype=np.int64)
        m[:, : part.dim(t)] = np.eye(part.dim(t), dtype=np.int64)
        blocks[t] = FpMatrix(part.p, m)
    return ch.ChainMap.build(whole, part, blocks)


def extend_by_zero(f, bigger_source):
    """Extend f along the leading-summand inclusion source -> bigger_source
    by zero on the complement."""
    blocks = {}
    for t in bigger_source.degrees():
        m = np.zeros((f.target.dim(t), bigger_source.dim(t)), dtype=np.int64)
        b = f.block(t)
        m[:, : b.cols] = b.a
        blocks[t] = FpMatrix(f.p, m)
    return ch.ChainMap.build(bigger_source, f.target, blocks)


def shift_complex(x, k):
    """Degree shift: (x[k])_t = x_{t-k}, differential scaled by (-1)^k."""
    sign = -1 if k % 2 else 1
    diffs = {t + k: x.d(t).scale(sign) for t in x.degrees()}
    return ch.ChainComplex.build(x.p, x.lo + k, list(x.dims), diffs)


def homology_coords(x, t):
    """Cycle basis, projection onto homology classes, and a linear section."""
    z = la.kernel_basis(x.d(t))
    w = la.solve(z, x.d(t + 1))
    if w is None:
        raise ValidationFailure("boundaries not contained in cycles; complex invalid")
    proj, sect = la.quotient_by_columns(w, z.cols)
    return z, proj, sect


def homology_map_bijective(f, t):
    """Whether f induces a bijection H_t(source) -> H_t(target)."""
    za, _, secta = homology_coords(f.source, t)
    zb, projb, _ = homology_coords(f.target, t)
    v = la.solve(zb, f.block(t) @ za)
    if v is None:
        raise ValidationFailure("map does not preserve cycles; not a chain map?")
    m = projb @ v @ secta
    return m.rows == m.cols and m.rank() == m.rows


def test_sphere_disk_homology():
    s = ch.sphere(P, 1)
    d = ch.disk(P, 2)
    ch.validate_complex(s)
    ch.validate_complex(d)
    assert ch.homology_dims(s) == {1: 1}
    assert ch.homology_dims(d) == {}
    assert ch.homology_dims(ch.direct_sum([s, d])) == {1: 1}


def test_zero_complex_is_canonical():
    z = ch.zero_complex(P)
    assert z.dims == ()
    assert ch.homology_dims(z) == {}
    # building with explicit zero levels trims to the same canonical form
    z2 = ch.ChainComplex.build(P, 3, [0, 0], {})
    assert z == z2


def test_support_trimming():
    x = ch.ChainComplex.build(P, -2, [0, 2, 0], {})
    assert x.lo == -1
    assert x.dims == (2,)


def test_d_squared_violation_detected():
    bad = ch.ChainComplex.build(
        P, 0, [1, 1, 1], {1: FpMatrix.from_rows(P, [[1]]), 2: FpMatrix.from_rows(P, [[1]])}
    )
    with pytest.raises(ValidationFailure):
        ch.validate_complex(bad)


def test_cone_of_zero_endomorphism():
    s = ch.sphere(P, 2)
    cone = ch.mapping_cone(ch.zero_map(s, s))
    ch.validate_complex(cone)
    assert ch.homology_dims(cone) == {2: 1, 3: 1}


def test_cone_of_map_to_zero():
    s = ch.sphere(P, 0)
    cone = ch.mapping_cone(ch.zero_map(s, ch.zero_complex(P)))
    assert ch.homology_dims(cone) == {1: 1}


def test_quasi_iso_identity_and_failure():
    s = ch.sphere(P, 0)
    assert ch.is_quasi_iso(ch.identity_map(s))
    assert not ch.is_quasi_iso(ch.zero_map(s, ch.zero_complex(P)))
    d = ch.disk(P, 1)
    # disk -> 0 is a quasi-iso since the disk is acyclic
    assert ch.is_quasi_iso(ch.zero_map(d, ch.zero_complex(P)))


def ref_direct_sum_with_maps(parts):
    """The builder the library replaced: one zero matrix per part and
    degree, the identity written at a running offset."""
    total = ch.direct_sum(parts)
    offs = dict.fromkeys(total.degrees(), 0)
    incs, projs = [], []
    for part in parts:
        iblocks, pblocks = {}, {}
        for t in part.degrees():
            m = np.zeros((total.dim(t), part.dim(t)), dtype=np.int64)
            m[offs[t] : offs[t] + part.dim(t)] = np.eye(part.dim(t), dtype=np.int64)
            iblocks[t] = FpMatrix(total.p, m)
        for t in total.degrees():
            m = np.zeros((part.dim(t), total.dim(t)), dtype=np.int64)
            m[:, offs[t] : offs[t] + part.dim(t)] = np.eye(part.dim(t), dtype=np.int64)
            pblocks[t] = FpMatrix(total.p, m)
            offs[t] += part.dim(t)
        incs.append(ch.ChainMap.build(part, total, iblocks))
        projs.append(ch.ChainMap.build(total, part, pblocks))
    return total, incs, projs


def gapped_complex(rng, p):
    """Zero dimensions inside the support, zero differential."""
    dims = [int(rng.integers(1, 3))] + [0] * int(rng.integers(1, 3)) + [int(rng.integers(1, 3))]
    return ch.ChainComplex.build(p, int(rng.integers(-2, 2)), dims, {})


@pytest.mark.parametrize("p", (2, 3, 101))
def test_direct_sum_with_maps_matches_running_offset_reference(p):
    """Sums of zero, gapped and random complexes with disjoint or
    overlapping supports: the library's sum, inclusions and projections
    equal the reference's."""
    rng = np.random.default_rng(p)
    for _ in range(40):
        parts = []
        for _ in range(int(rng.integers(1, 5))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                parts.append(ch.zero_complex(p))
            elif kind == 1:
                parts.append(gapped_complex(rng, p))
            else:
                lo = int(rng.integers(-3, 3))
                parts.append(rand_complex(rng, p, lo=lo, width=int(rng.integers(0, 3))))
        assert ch.direct_sum_with_maps(parts) == ref_direct_sum_with_maps(parts)


def test_mono_epi():
    s = ch.sphere(P, 1)
    d = ch.disk(P, 2)
    inc = ch.sphere_disk_inclusion(P, 2)
    assert ch.mono_witness(inc) is None
    assert not ch.is_epi(inc)
    proj = ch.zero_map(d, ch.zero_complex(P))
    assert ch.is_epi(proj)
    assert ch.mono_witness(proj) is not None
    assert ch.mono_witness(ch.identity_map(s)) is None and ch.is_epi(ch.identity_map(s))


def test_homology_dims_and_is_iso_rank_each_matrix_once(monkeypatch):
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda m: calls.append(m.shape) or rref(m))
    # degrees 0, 1, 2: two differentials, three map blocks
    x = ch.direct_sum([ch.disk(P, 1), ch.disk(P, 2), ch.sphere(P, 1)])
    assert x.degrees() == [0, 1, 2]
    assert ch.homology_dims(x) == {1: 1}
    assert len(calls) == 2
    calls.clear()
    assert ch.is_iso(ch.identity_map(x))
    assert len(calls) == 3
    inc = ch.sphere_disk_inclusion(P, 2)
    proj = ch.zero_map(ch.disk(P, 2), ch.zero_complex(P))
    one = FpMatrix.from_rows(P, [[1]])
    shear = ch.ChainMap.build(
        x, x, {0: one, 1: FpMatrix.from_rows(P, [[1, 0, 0], [0, 1, 0], [1, 0, 1]]), 2: one}
    )
    ch.validate_map(shear)
    for f in (inc, proj, shear, shear.scale(0), ch.identity_map(x)):
        assert ch.is_iso(f) == (ch.mono_witness(f) is None and ch.is_epi(f))


def test_sphere_disk_inclusion_shape():
    inc = ch.sphere_disk_inclusion(P, 3)
    assert inc.source == ch.sphere(P, 2)
    assert inc.target == ch.disk(P, 3)
    ch.validate_map(inc)


def test_pushout_collapses_disk_to_sphere():
    inc = ch.sphere_disk_inclusion(P, 2)
    bang = ch.zero_map(inc.source, ch.zero_complex(P))
    res = ch.pushout(inc, bang)
    ch.validate_complex(res.obj)
    assert ch.homology_dims(res.obj) == {2: 1}
    ch.validate_map(res.left)
    ch.validate_map(res.right)
    # square commutes
    assert res.left @ inc == res.right @ bang


def test_pushout_universal_property():
    rng = np.random.default_rng(5)
    a = rand_complex(rng)
    b = rand_complex(rng)
    c = rand_complex(rng)
    f = rand_map(rng, a, b)
    g = rand_map(rng, a, c)
    res = ch.pushout(f, g)
    ch.validate_complex(res.obj)
    t = rand_complex(rng)
    u = rand_map(rng, b, t)
    # rig v so the cocone commutes: need u f = v g; take v from solving is hard,
    # so test with the canonical cocone into the pushout itself instead
    m = ch.pushout_mediator(res, res.left, res.right)
    assert m == ch.identity_map(res.obj)
    # and with a composed cocone through any map out of the pushout
    w = rand_map(rng, res.obj, t)
    m2 = ch.pushout_mediator(res, w @ res.left, w @ res.right)
    assert m2 == w


def test_pullback_universal_property():
    rng = np.random.default_rng(6)
    b = rand_complex(rng)
    c = rand_complex(rng)
    d = rand_complex(rng)
    f = rand_map(rng, b, d)
    g = rand_map(rng, c, d)
    res = ch.pullback(f, g)
    ch.validate_complex(res.obj)
    assert f @ res.left == g @ res.right
    m = ch.pullback_mediator(res, res.left, res.right)
    assert m == ch.identity_map(res.obj)
    t = rand_complex(rng)
    w = rand_map(rng, t, res.obj)
    m2 = ch.pullback_mediator(res, res.left @ w, res.right @ w)
    assert m2 == w


def test_pullback_over_zero_is_product():
    b = ch.sphere(P, 0)
    c = ch.disk(P, 1)
    z = ch.zero_complex(P)
    res = ch.pullback(ch.zero_map(b, z), ch.zero_map(c, z))
    assert res.obj.dim(0) == b.dim(0) + c.dim(0)
    assert res.obj.dim(1) == c.dim(1)


def test_kernel_cokernel():
    inc = ch.sphere_disk_inclusion(P, 2)
    q, proj, _ = ch.cokernel_complex(inc)
    ch.validate_complex(q)
    ch.validate_map(proj)
    assert (proj @ inc).is_zero()
    assert ch.homology_dims(q) == {2: 1}
    k, kinc = ch.kernel_complex(proj)
    ch.validate_map(kinc)
    assert ch.homology_dims(k) == ch.homology_dims(inc.source)


def test_hom_complex_from_sphere_is_shift():
    rng = np.random.default_rng(7)
    b = rand_complex(rng)
    n = 2
    h = ch.hom_complex(ch.sphere(P, n), b)
    hb = ch.homology_dims(b)
    hh = ch.homology_dims(h)
    assert hh == {t - n: v for t, v in hb.items()}
    for t in h.degrees():
        assert h.dim(t) == b.dim(t + n)


def test_hom_degree_zero_cycles_are_chain_maps():
    rng = np.random.default_rng(8)
    for seed in range(6):
        r = np.random.default_rng(seed)
        a = rand_complex(r)
        b = rand_complex(r)
        h = ch.hom_complex(a, b)
        z0 = h.dim(0) - h.d(0).rank()
        basis, _ = ch.chain_map_space(a, b)
        assert z0 == basis.cols


def test_tensor_dims_and_kunneth():
    rng = np.random.default_rng(9)
    a = rand_complex(rng)
    b = rand_complex(rng)
    t = ch.tensor_complexes(a, b)
    ch.validate_complex(t)
    for n in t.degrees():
        assert t.dim(n) == sum(a.dim(s) * b.dim(n - s) for s in a.degrees())
    ha, hb, ht = ch.homology_dims(a), ch.homology_dims(b), ch.homology_dims(t)
    for n in set(s + u for s in ha for u in hb) | set(ht):
        expect = sum(ha.get(s, 0) * hb.get(n - s, 0) for s in ha)
        assert ht.get(n, 0) == expect


def test_tensor_unit():
    rng = np.random.default_rng(10)
    a = rand_complex(rng)
    unit = ch.sphere(P, 0)
    t = ch.tensor_complexes(a, unit)
    assert t == a


def test_shift_homology():
    rng = np.random.default_rng(11)
    a = rand_complex(rng)
    for k in (-1, 2):
        s = shift_complex(a, k)
        ch.validate_complex(s)
        assert ch.homology_dims(s) == {t + k: v for t, v in ch.homology_dims(a).items()}


def test_field_mismatch():
    a = ch.sphere(5, 0)
    b = ch.sphere(7, 0)
    with pytest.raises(FieldMismatchError):
        ch.direct_sum([a, b])


def test_euler_characteristic_matches_homology():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = rand_complex(rng)
        chi_dims = sum((-1) ** t * x.dim(t) for t in x.degrees())
        h = ch.homology_dims(x)
        chi_h = sum((-1) ** t * v for t, v in h.items())
        assert chi_dims == chi_h


def test_quasi_iso_three_routes_agree():
    # cone acyclicity, homology bijectivity, and levelwise homology dims
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        a = rand_complex(rng)
        b = rand_complex(rng)
        f = rand_map(rng, a, b)
        via_cone = ch.is_quasi_iso(f)
        degs = set(a.degrees()) | set(b.degrees()) | {0}
        via_maps = all(homology_map_bijective(f, t) for t in degs)
        assert via_cone == via_maps
        if via_cone:
            assert ch.homology_dims(a) == ch.homology_dims(b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 400))
def test_homology_dims_nonnegative_and_bounded(seed):
    rng = np.random.default_rng(seed)
    x = rand_complex(rng)
    h = ch.homology_dims(x)
    for t, v in h.items():
        assert 0 < v <= x.dim(t)
