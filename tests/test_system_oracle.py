"""Differential tests of the hom-space builders against the loops they
replaced.

The reference path kept here writes every system out by hand, as the
library did before ``chain.add_chain_maps`` and ``sobj.add_smaps``: the
loop-based chain-map space with its (degree, rows, cols, offset) layout,
the simplicial-map system with its (level, degree, rows, cols, offset)
layout, the square system with its own unknown and equation loops, the
universal lifting test that builds a SimplicialMap per hom basis vector and
flattens (h g, q h) through the square layout, and the chain-level lifting
solver.  Both paths add the unknowns in the same order, so kernels, lifting
witnesses and sampler draws must be equal, not just equivalent.
"""

import numpy as np
import pytest

from reedychain import chain as ch
from reedychain import lifting as lf
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain.errors import ResourceCapError
from reedychain.linalg import FpMatrix, hstack
from reedychain.system import BlockSystem

P = 7
CAP = 512
MAP_KINDS = tuple(k for k in sm.KINDS if k != "random_sobj")


# ---------------------------------------------------------------------------
# reference path


def ref_chain_map_space(a, b):
    sys = BlockSystem(a.p)
    layout = []
    off = 0
    for t in [t for t in a.degrees() if a.dim(t) and b.dim(t)]:
        r, c = b.dim(t), a.dim(t)
        sys.add_unknown(t, r, c)
        layout.append((t, r, c, off))
        off += r * c
    for t in sorted(set(a.degrees()) | set(b.degrees())):
        rows, cols = b.dim(t - 1), a.dim(t)
        if rows and cols:
            sys.add_equation((rows, cols), [(t, b.d(t), None, 1), (t - 1, None, a.d(t), -1)])
    return sys.kernel(), layout


def ref_chain_map_from_vector(a, b, vec, layout):
    arr = vec.a.reshape(-1)
    blocks = {t: FpMatrix(a.p, arr[off : off + r * c].reshape(r, c)) for t, r, c, off in layout}
    return ch.ChainMap.build(a, b, blocks)


def ref_random_chain_map(a, b, rng):
    basis, layout = ref_chain_map_space(a, b)
    if basis.cols == 0:
        return ch.zero_map(a, b)
    coeffs = FpMatrix(a.p, rng.integers(0, a.p, size=(basis.cols, 1)))
    return ref_chain_map_from_vector(a, b, basis @ coeffs, layout)


def ref_chain_lift(i, p_map, top, bottom):
    bb, xx = i.target, p_map.source
    sys = BlockSystem(i.p)
    for t in bb.degrees():
        if bb.dim(t) and xx.dim(t):
            sys.add_unknown(t, xx.dim(t), bb.dim(t))
    for t in sorted(set(bb.degrees()) | set(xx.degrees())):
        rows, cols = xx.dim(t - 1), bb.dim(t)
        if rows and cols:
            sys.add_equation((rows, cols), [(t, xx.d(t), None, 1), (t - 1, None, bb.d(t), -1)])
    for t in i.source.degrees():
        rows, cols = xx.dim(t), i.source.dim(t)
        if rows and cols:
            sys.add_equation((rows, cols), [(t, None, i.block(t), 1)], rhs=top.block(t))
    for t in bb.degrees():
        rows, cols = p_map.target.dim(t), bb.dim(t)
        if rows and cols:
            sys.add_equation((rows, cols), [(t, p_map.block(t), None, 1)], rhs=bottom.block(t))
    sol = sys.solve()
    return None if sol is None else ch.ChainMap.build(bb, xx, sol)


def ref_smap_system(x, y, cap=None):
    sys = BlockSystem(x.p, cap)
    layout = []
    off = 0
    for n in range(x.N + 1):
        for t in x.level(n).degrees():
            r, c = y.level(n).dim(t), x.level(n).dim(t)
            if r and c:
                sys.add_unknown((n, t), r, c)
                layout.append((n, t, r, c, off))
                off += r * c
    for n in range(x.N + 1):
        for t in sorted(set(x.level(n).degrees()) | set(y.level(n).degrees())):
            rows, cols = y.level(n).dim(t - 1), x.level(n).dim(t)
            if rows and cols:
                sys.add_equation(
                    (rows, cols),
                    [((n, t), y.level(n).d(t), None, 1), ((n, t - 1), None, x.level(n).d(t), -1)],
                )
    for n in range(1, x.N + 1):
        for i in range(n + 1):
            fy, fx = y.face(n, i), x.face(n, i)
            for t in x.level(n).degrees():
                rows, cols = y.level(n - 1).dim(t), x.level(n).dim(t)
                if rows and cols:
                    sys.add_equation(
                        (rows, cols),
                        [((n, t), fy.block(t), None, 1), ((n - 1, t), None, fx.block(t), -1)],
                    )
    for n in range(x.N):
        for i in range(n + 1):
            sy, sx = y.degen(n, i), x.degen(n, i)
            for t in x.level(n).degrees():
                rows, cols = y.level(n + 1).dim(t), x.level(n).dim(t)
                if rows and cols:
                    sys.add_equation(
                        (rows, cols),
                        [((n, t), sy.block(t), None, 1), ((n + 1, t), None, sx.block(t), -1)],
                    )
    return sys, layout


def ref_smap_from_vector(x, y, vec, layout):
    arr = vec.a.reshape(-1)
    per_level = {}
    for n, t, r, c, off in layout:
        per_level.setdefault(n, {})[t] = FpMatrix(x.p, arr[off : off + r * c].reshape(r, c))
    lv = tuple(
        ch.ChainMap.build(x.level(n), y.level(n), per_level.get(n, {})) for n in range(x.N + 1)
    )
    return so.SimplicialMap(x, y, lv)


def ref_random_smap(x, y, rng, cap=None):
    sys, layout = ref_smap_system(x, y, cap)
    basis = sys.kernel()
    if basis.cols == 0:
        return so.zero_smap(x, y)
    coeffs = FpMatrix(x.p, rng.integers(0, x.p, size=(basis.cols, 1)))
    return ref_smap_from_vector(x, y, basis @ coeffs, layout)


def ref_rlp(problem, cap=None):
    """The deterministic filler, or None."""
    a, b = problem.i.source, problem.i.target
    x, y = problem.p.source, problem.p.target
    sys, _ = ref_smap_system(b, x, cap)
    for n in range(b.N + 1):
        ib, tb = problem.i.level(n), problem.top.level(n)
        for t in a.level(n).degrees():
            rows, cols = x.level(n).dim(t), a.level(n).dim(t)
            if rows and cols:
                sys.add_equation((rows, cols), [((n, t), None, ib.block(t), 1)], rhs=tb.block(t))
        pb, bb = problem.p.level(n), problem.bottom.level(n)
        for t in b.level(n).degrees():
            rows, cols = y.level(n).dim(t), b.level(n).dim(t)
            if rows and cols:
                sys.add_equation((rows, cols), [((n, t), pb.block(t), None, 1)], rhs=bb.block(t))
    sol = sys.solve()
    if sol is None:
        return None
    lv = tuple(
        ch.ChainMap.build(b.level(n), x.level(n), {t: m for (ln, t), m in sol.items() if ln == n})
        for n in range(b.N + 1)
    )
    return so.SimplicialMap(b, x, lv)


def ref_square_system(g, q, cap=None):
    """(system, layout) with layout entries (tag, level, degree, rows, cols,
    offset) in the order the unknowns were added."""
    a, b = g.source, g.target
    x, y = q.source, q.target
    sys = BlockSystem(a.p, cap)
    layout = []

    def add_hom_unknowns(tag, src, tgt):
        for n in range(src.N + 1):
            for t in src.level(n).degrees():
                r, c = tgt.level(n).dim(t), src.level(n).dim(t)
                if r and c:
                    layout.append((tag, n, t, r, c, sys.ambient_dim))
                    sys.add_unknown((tag, n, t), r, c)

    def add_hom_equations(tag, src, tgt):
        for n in range(src.N + 1):
            for t in sorted(set(src.level(n).degrees()) | set(tgt.level(n).degrees())):
                rows, cols = tgt.level(n).dim(t - 1), src.level(n).dim(t)
                if rows and cols:
                    sys.add_equation(
                        (rows, cols),
                        [
                            ((tag, n, t), tgt.level(n).d(t), None, 1),
                            ((tag, n, t - 1), None, src.level(n).d(t), -1),
                        ],
                    )
        for n in range(1, src.N + 1):
            for i in range(n + 1):
                ft, fs = tgt.face(n, i), src.face(n, i)
                for t in src.level(n).degrees():
                    rows, cols = tgt.level(n - 1).dim(t), src.level(n).dim(t)
                    if rows and cols:
                        sys.add_equation(
                            (rows, cols),
                            [((tag, n, t), ft.block(t), None, 1), ((tag, n - 1, t), None, fs.block(t), -1)],
                        )
        for n in range(src.N):
            for i in range(n + 1):
                st, ssrc = tgt.degen(n, i), src.degen(n, i)
                for t in src.level(n).degrees():
                    rows, cols = tgt.level(n + 1).dim(t), src.level(n).dim(t)
                    if rows and cols:
                        sys.add_equation(
                            (rows, cols),
                            [((tag, n, t), st.block(t), None, 1), ((tag, n + 1, t), None, ssrc.block(t), -1)],
                        )

    add_hom_unknowns("u", a, x)
    add_hom_unknowns("v", b, y)
    add_hom_equations("u", a, x)
    add_hom_equations("v", b, y)
    for n in range(a.N + 1):
        for t in a.level(n).degrees():
            rows, cols = y.level(n).dim(t), a.level(n).dim(t)
            if rows and cols:
                sys.add_equation(
                    (rows, cols),
                    [
                        (("u", n, t), q.level(n).block(t), None, 1),
                        (("v", n, t), None, g.level(n).block(t), -1),
                    ],
                )
    return sys, layout


def ref_flatten_square(ambient, layout, u, v):
    vec = np.zeros((ambient, 1), dtype=np.int64)
    maps = {"u": u, "v": v}
    for tag, n, t, r, c, off in layout:
        vec[off : off + r * c, 0] = maps[tag].level(n).block(t).a.reshape(-1)
    return vec


def ref_square_from_vector(g, q, vec, layout):
    """The square (u, v) with flattened blocks ``vec``."""
    arr = vec.a.reshape(-1)
    ends = {"u": (g.source, q.source), "v": (g.target, q.target)}
    blocks = {"u": {}, "v": {}}
    for tag, n, t, r, c, off in layout:
        blocks[tag].setdefault(n, {})[t] = FpMatrix(g.p, arr[off : off + r * c].reshape(r, c))
    out = []
    for tag in ("u", "v"):
        src, tgt = ends[tag]
        lv = tuple(
            ch.ChainMap.build(src.level(n), tgt.level(n), blocks[tag].get(n, {}))
            for n in range(src.N + 1)
        )
        out.append(so.SimplicialMap(src, tgt, lv))
    return out


def ref_has_universal_rlp(g, q, cap=None):
    sq_sys, sq_layout = ref_square_system(g, q, cap)
    if sq_sys.ambient_dim == 0:
        return True
    squares = sq_sys.kernel()
    if squares.cols == 0:
        return True
    hom_sys, hom_layout = ref_smap_system(g.target, q.source, cap)
    hom = hom_sys.kernel()
    cols = []
    for j in range(hom.cols):
        h = ref_smap_from_vector(g.target, q.source, hom.column(j), hom_layout)
        cols.append(ref_flatten_square(sq_sys.ambient_dim, sq_layout, h @ g, q @ h))
    if not cols:
        image = FpMatrix(g.p, np.zeros((sq_sys.ambient_dim, 0), dtype=np.int64))
    else:
        image = FpMatrix(g.p, np.hstack(cols) % g.p)
    return hstack([image, squares]).rank() == image.rank()


# ---------------------------------------------------------------------------
# comparisons


def squares_for(g, q, rng, cap=None):
    """Commuting squares from g to q: one with a known filler h (top h g,
    bottom q h) and one drawn from the span of all commuting squares."""
    h = ref_random_smap(g.target, q.source, rng, cap)
    out = [(h @ g, q @ h)]
    sys, layout = ref_square_system(g, q, cap)
    basis = sys.kernel()
    coeffs = FpMatrix(g.p, rng.integers(0, g.p, size=(basis.cols, 1)))
    out.append(tuple(ref_square_from_vector(g, q, basis @ coeffs, layout)))
    return out


def assert_agree(g, q, rng, cap=None):
    """Square kernels, fillers of sampled squares and the universal verdict
    agree; returns the verdict and whether each square had a filler."""
    assert lf._square_system(g, q, cap).kernel() == ref_square_system(g, q, cap)[0].kernel()
    lifted = []
    for top, bottom in squares_for(g, q, rng, cap):
        pr = lf.LiftingProblem(g, q, top, bottom)
        ok, h = lf.rlp(pr, cap)
        ref = ref_rlp(pr, cap)
        assert ok == (ref is not None)
        assert h == ref
        lifted.append(ok)
    verdict = lf.has_universal_rlp(g, q, cap)
    assert verdict == ref_has_universal_rlp(g, q, cap)
    return verdict, lifted


def assert_smap_space_agrees(x, y, token, cap=None):
    basis, _ = so.smap_space(x, y, cap)
    ref_sys, _ = ref_smap_system(x, y, cap)
    assert basis == ref_sys.kernel()
    new = sm.random_smap(x, y, sm.rng_for(token), cap)
    assert new == ref_random_smap(x, y, sm.rng_for(token), cap)


def test_chain_map_space_and_draws_match_reference():
    for s in range(40):
        rng = sm.rng_for(f"system-oracle:chain:{s}")
        a, b = sm.random_complex(P, rng), sm.random_complex(P, rng)
        assert ch.chain_map_space(a, b)[0] == ref_chain_map_space(a, b)[0], s
        tok = f"system-oracle:chain-draw:{s}"
        assert sm.random_chain_map(a, b, sm.rng_for(tok)) == ref_random_chain_map(
            a, b, sm.rng_for(tok)
        ), s


def test_chain_lift_is_rlp_at_level_zero():
    """At N=0 the simplicial system is the chain-map system, so rlp on
    constant maps returns the old chain-level filler."""
    outcomes = set()
    for s in range(30):
        rng = sm.rng_for(f"system-oracle:lift0:{s}")
        a, b, x, y = (sm.random_complex(P, rng) for _ in range(4))
        i, p_map = sm.random_chain_map(a, b, rng), sm.random_chain_map(x, y, rng)
        g, q = so.constant_map(0, i), so.constant_map(0, p_map)
        _, lifted = assert_agree(g, q, rng)
        for top, bottom in squares_for(g, q, rng):
            ok, h = lf.rlp(lf.LiftingProblem(g, q, top, bottom))
            ref = ref_chain_lift(i, p_map, top.level(0), bottom.level(0))
            assert ok == (ref is not None), s
            if ok:
                assert h.level(0) == ref, s
            outcomes.add(ok)
        outcomes.update(lifted)
    assert outcomes == {True, False}


def test_builders_match_reference_on_random_smaps():
    outcomes, compared = set(), 0
    for s in range(12):
        rng = sm.rng_for(f"system-oracle:smap:{s}")
        a, b, x, y = (sm.random_sobj_obj(P, 2, rng) for _ in range(4))
        try:
            assert_smap_space_agrees(a, b, f"system-oracle:smap-draw:{s}", CAP)
            g = sm.random_smap(a, b, rng, CAP)
            q = sm.random_smap(x, y, rng, CAP)
            _, lifted = assert_agree(g, q, rng, CAP)
        except ResourceCapError:
            continue
        compared += 1
        outcomes.update(lifted)
    assert compared >= 6 and True in outcomes


@pytest.mark.parametrize("N", [2, 3])
def test_builders_match_reference_on_every_kind(N):
    drawn = dict.fromkeys(MAP_KINDS, 0)
    for kind in MAP_KINDS:
        for seed in range(4):
            try:
                f = sm.sample(kind, P, N, seed=seed, cap=CAP)
            except ResourceCapError:
                continue
            tok = f"system-oracle:{kind}:{N}:{seed}"
            try:
                assert_smap_space_agrees(f.source, f.target, tok, CAP)
                assert_smap_space_agrees(f.target, f.source, tok, CAP)
                assert_agree(f, f, sm.rng_for(tok), CAP)
            except ResourceCapError:
                continue
            drawn[kind] += 1
    assert all(drawn.values()), drawn


def max_level_dim(f):
    return max(sum(z.level(n).dims) for z in (f.source, f.target) for n in range(f.source.N + 1))


@pytest.mark.parametrize("kind", ["equifibered_fibration", "reedy_fibration"])
def test_universal_rlp_verdicts_on_the_j_window(kind):
    members = [
        m
        for fam in ("J'", "J''")
        for m in lf.generators(fam, P, 2, (-1, 3), (0, 2)).members
    ]
    verdicts = []
    seed = 0
    for _ in range(4):
        f = sm.sample(kind, P, 2, seed=seed)
        while max_level_dim(f) > 8:
            seed += 1
            f = sm.sample(kind, P, 2, seed=seed)
        seed += 1
        for m in members:
            verdict = lf.has_universal_rlp(m.map, f)
            assert verdict == ref_has_universal_rlp(m.map, f), (seed, m.label)
            verdicts.append(verdict)
    assert True in verdicts
    if kind == "reedy_fibration":
        assert False in verdicts
