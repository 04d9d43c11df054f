"""Differential tests of the Dold-Kan classifiers against the general
colimit and limit presentations.

The reference path kept here is the one the classifiers replaced: the
latching object as the cokernel of the relation map over the proper
quotients of [n], the relative latching map out of the pushout
X_n +_{L_nX} L_nY, and the relative matching map into the pullback
Y_n x_{M_nY} M_nX.  A map is a Reedy cofibration (fibration) when every
relative latching (matching) map is injective (surjective); the witness is
the first failing level and, within it, the lowest failing degree.

The matching object is kept here as the limit over all the proper faces of
[n], with one condition per face of a face, ordered by dimension so that
the codimension-one faces come last.  The library takes the equalizer of
the codimension-one faces alone; since a compatible family is fixed by
its codimension-one values, both kernels have the same basis there, so
every map read off the matching objects is compared by equality.

The Moore complex is kept here too: N_nX is the intersection of the
kernels of the faces d_0, ..., d_{n-1} and d' is (-1)^n d_n restricted to
it.  Moore's criterion evaluated on it is the reference for the
fibration witness, which the library reads off the normalized complex.

The face squares are kept here as well: for each face d_i at level m + 1,
the comparison of X_{m+1} with the pullback X_m x_{Y_m} Y_{m+1}.  A Reedy
fibration is equifibered when every comparison is a quasi-isomorphism; the
library reads the same witness off the homology of the normalized fiber
ker N_kf.  The fiber as a whole simplicial object, degeneracies included,
is kept here with the witness read off its faces one by one, as the
reference for that path; the same face-by-face search is the reference for
``homotopically_constant_witness``, which reads the normalized levels with
the library's ``classify._first_nonconstant``.
"""

from functools import lru_cache

from dataclasses import dataclass

import numpy as np
import pytest

from reedychain import chain as ch
from reedychain import classify as cl
from reedychain import dold_kan as dk
from reedychain import fixtures as fx
from reedychain import harness as hn
from reedychain import realize as rz
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain import totals as tt
from reedychain.config import Manifest
from reedychain.errors import ResourceCapError, ValidationFailure
from reedychain.linalg import FpMatrix, block_diag, eye, hstack, kernel_basis

P = 7
MAP_KINDS = tuple(k for k in sm.KINDS if k != "random_sobj")


def homotopically_constant_witness(x: so.SimplicialObject):
    """First (level, face, degree) where a face map of x fails to be a
    quasi-isomorphism, read off its normalized levels; all degeneracies
    follow by two-out-of-three."""
    return cl._first_nonconstant(tt.total_complex(x, "normalized").levels[1:])


# ---------------------------------------------------------------------------
# reference path


def structure_map(x: so.SimplicialObject, alpha, n: int) -> ch.ChainMap:
    """X(alpha) : X_n -> X_m for monotone alpha: [m] -> [n], composed along
    the operator path of ``ss.factor_monotone``."""
    alpha = tuple(alpha)
    if n > x.N or len(alpha) - 1 > x.N:
        raise ValidationFailure("structure map outside the truncation")
    return so.along(x, ss.factor_monotone(alpha, n), n)


def glue_out_of_sum(maps: list[ch.ChainMap], target: ch.ChainComplex, p: int):
    """Direct-sum the sources; the glued map restricts to each given map."""
    if not maps:
        d = ch.zero_complex(p)
        return d, ch.zero_map(d, target)
    d = ch.direct_sum([m.source for m in maps])
    blocks = {t: hstack([m.block(t) for m in maps]) for t in d.degrees()}
    return d, ch.ChainMap.build(d, target, blocks)


@dataclass(frozen=True)
class ColimitLatching:
    """Colimit of X over the proper quotients of [n], with its comparison
    map into X_n and the presentation witnesses."""

    obj: ch.ChainComplex
    to_level: ch.ChainMap
    objects: tuple
    proj: ch.ChainMap
    sects: dict


def colimit_latching(x: so.SimplicialObject, n: int) -> ColimitLatching:
    p = x.p
    if n == 0:
        z = ch.zero_complex(p)
        return ColimitLatching(z, ch.zero_map(z, x.level(0)), (), ch.zero_map(z, z), {})
    objects = tuple(a for j in range(n) for a in dk._epis(n, j))
    amb, incs, _ = ch.direct_sum_with_maps([x.level(len(set(a)) - 1) for a in objects])
    index = {a: i for i, a in enumerate(objects)}
    rels = []
    for a in objects:
        j = len(set(a)) - 1
        for i in range(j):
            b = tuple(v if v <= i else v - 1 for v in a)
            rels.append(incs[index[a]] @ x.degen(j - 1, i) - incs[index[b]])
    _, rel_map = glue_out_of_sum(rels, amb, p)
    q, proj, sects = ch.cokernel_complex(rel_map)
    into_level = [structure_map(x, a, len(set(a)) - 1) for a in objects]
    _, u = glue_out_of_sum(into_level, x.level(n), p)
    # u kills the relations, so it descends along the quotient sections
    to_level = ch.ChainMap.build(q, x.level(n), {t: u.block(t) @ sects[t] for t in q.degrees()})
    return ColimitLatching(q, to_level, objects, proj, sects)


def latching_map_of(f: so.SimplicialMap, n: int, lx: ColimitLatching, ly: ColimitLatching):
    if n == 0:
        return ch.zero_map(lx.obj, ly.obj)
    blocks = {}
    for t in lx.obj.degrees():
        ft = block_diag(f.p, [f.level(len(set(a)) - 1).block(t) for a in lx.objects])
        blocks[t] = ly.proj.block(t) @ ft @ lx.sects[t]
    return ch.ChainMap.build(lx.obj, ly.obj, blocks)


def relative_latching(f: so.SimplicialMap, n: int) -> ch.ChainMap:
    lx = colimit_latching(f.source, n)
    ly = colimit_latching(f.target, n)
    span = ch.pushout(lx.to_level, latching_map_of(f, n, lx, ly))
    return ch.pushout_mediator(span, f.level(n), ly.to_level)


@dataclass(frozen=True)
class AllFacesMatching:
    """Limit of X over the proper faces of [n], with the comparison map
    from X_n and the presentation witnesses."""

    obj: ch.ChainComplex
    from_level: ch.ChainMap
    objects: tuple
    amb: ch.ChainComplex
    incl: ch.ChainMap
    projs: tuple


def all_faces_matching(x: so.SimplicialObject, n: int) -> AllFacesMatching:
    p = x.p
    if n == 0:
        z = ch.zero_complex(p)
        return AllFacesMatching(z, ch.zero_map(x.level(0), z), (), z, ch.zero_map(z, z), ())
    objects = tuple(
        a for j in range(n) for a in ss.monotone_maps(j, n) if len(set(a)) == j + 1
    )
    amb, _, projs = ch.direct_sum_with_maps([x.level(len(a) - 1) for a in objects])
    index = {a: i for i, a in enumerate(objects)}
    conds = []
    for a in objects:
        j = len(a) - 1
        if j == 0:
            continue
        for i in range(j + 1):
            b = a[:i] + a[i + 1 :]
            conds.append(x.face(j, i) @ projs[index[a]] - projs[index[b]])
    _, cond_map = so._stack_into_sum(conds, amb, p)
    m, incl = ch.kernel_complex(cond_map)
    _, v = so._stack_into_sum([structure_map(x, a, n) for a in objects], x.level(n), p)
    from_level = so.factor_through_mono(incl, v)
    return AllFacesMatching(m, from_level, objects, amb, incl, tuple(projs))


def all_faces_matching_map_of(
    f: so.SimplicialMap, n: int, mx: AllFacesMatching, my: AllFacesMatching
) -> ch.ChainMap:
    if n == 0:
        return ch.zero_map(mx.obj, my.obj)
    blocks = {}
    for t in mx.amb.degrees():
        ft = block_diag(f.p, [f.level(len(a) - 1).block(t) for a in mx.objects])
        blocks[t] = ft @ mx.incl.block(t)
    big = ch.ChainMap.build(mx.obj, my.amb, blocks)
    return so.factor_through_mono(my.incl, big)


def all_faces_relative_matching(f: so.SimplicialMap, n: int):
    """(map, span, mx, my) of the relative matching map
    X_n -> Y_n x_{M_nY} M_nX."""
    mx, my = all_faces_matching(f.source, n), all_faces_matching(f.target, n)
    span = ch.pullback(my.from_level, all_faces_matching_map_of(f, n, mx, my))
    return ch.pullback_mediator(span, f.level(n), mx.from_level), span, mx, my


def all_faces_boundary_cotensor(
    x: so.SimplicialObject, n: int, ct: so.Cotensor, mt: AllFacesMatching
) -> ch.ChainMap:
    """The comparison map from M_nX into the cotensor ``ct`` against the
    boundary of the n-simplex: the component at sigma = delta . pi is X(pi)
    applied to the face delta."""
    k = ss.boundary_inclusion(x.N, n).source
    index = {a: i for i, a in enumerate(mt.objects)}
    pieces = []
    for m, idx in ct.components:
        delta_t, pi = dk._epi_mono_factor(k.label(m, idx))
        comp = mt.projs[index[delta_t]] @ mt.incl
        pieces.append(structure_map(x, pi, len(delta_t) - 1) @ comp)
    _, e = so._stack_into_sum(pieces, mt.obj, x.p)
    return so.factor_through_mono(ct.incl, e)


def reference_cof_witness(f: so.SimplicialMap):
    for n in range(f.source.N + 1):
        t = ch.mono_witness(relative_latching(f, n))
        if t is not None:
            return (n, t)
    return None


def reference_fib_witness(f: so.SimplicialMap):
    for n in range(f.source.N + 1):
        t = ch.epi_witness(all_faces_relative_matching(f, n)[0])
        if t is not None:
            return (n, t)
    return None


def moore_total(x: so.SimplicialObject) -> tt.TotalComplex:
    """Total of the Moore complex; the witness of each level is its
    inclusion into X_n."""
    incls = [ch.identity_map(x.level(0))]
    for n in range(1, x.N + 1):
        _, faces = so._stack_into_sum([x.face(n, i) for i in range(n)], x.level(n), x.p)
        incls.append(ch.kernel_complex(faces)[1])
    dprimes = tuple(
        so.factor_through_mono(incls[n - 1], x.face(n, n).scale((-1) ** (n % 2)) @ incls[n])
        for n in range(1, x.N + 1)
    )
    levels = tuple(incl.source for incl in incls)
    return tt.TotalComplex(levels, dprimes, tuple((i,) for i in incls))


def moore_level_maps(f: so.SimplicialMap, tx: tt.TotalComplex, ty: tt.TotalComplex):
    """N_nX -> N_nY, the restrictions of the f_n."""
    return [
        so.factor_through_mono(ty.witnesses[n][0], f.level(n) @ tx.witnesses[n][0])
        for n in range(f.source.N + 1)
    ]


def level_starts(levels, n: int) -> list[int]:
    """Where level s starts in total degree n, by a running sum; the last
    entry is the total dimension."""
    out, off = [], 0
    for s, e in enumerate(levels):
        out.append(off)
        off += e.dim(n - s)
    return out + [off]


def moore_total_map(f: so.SimplicialMap, tx: tt.TotalComplex, ty: tt.TotalComplex) -> ch.ChainMap:
    per_level = moore_level_maps(f, tx, ty)
    blocks = {}
    for n in tx.obj.degrees():
        rows, cols = level_starts(ty.levels, n), level_starts(tx.levels, n)
        m = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
        for s, g in enumerate(per_level):
            b = g.block(n - s)
            m[rows[s] : rows[s] + b.rows, cols[s] : cols[s] + b.cols] = b.a
        blocks[n] = FpMatrix(f.p, m)
    return ch.ChainMap.build(tx.obj, ty.obj, blocks)


def moore_fib_witness(f: so.SimplicialMap):
    """First (n, t) where f fails to map the Moore cycles Z_nX onto Z_nY
    or, for n >= 1, to be injective on Moore homology H_{n-1}."""
    tx, ty = moore_total(f.source), moore_total(f.target)
    fn = moore_level_maps(f, tx, ty)

    def cycles(tot, n, t):
        if n == 0:
            return eye(f.p, tot.levels[0].dim(t))
        return kernel_basis(tot.dprimes[n - 1].block(t))

    for n in range(f.source.N + 1):
        degs = set(ty.levels[n].degrees())
        if n >= 1:
            degs |= set(tx.levels[n - 1].degrees())
        for t in sorted(degs):
            if (fn[n].block(t) @ cycles(tx, n, t)).rank() != cycles(ty, n, t).cols:
                return (n, t)
            if n == 0:
                continue
            zx1 = cycles(tx, n - 1, t)
            by = ty.dprimes[n - 1].block(t)
            image = hstack([fn[n - 1].block(t) @ zx1, by]).rank() - by.rank()
            if image != zx1.cols - tx.dprimes[n - 1].block(t).rank():
                return (n, t)
    return None


def reference_face_square_witness(f: so.SimplicialMap):
    """First (m, i, degree) where the comparison of X_{m+1} with the
    pullback X_m x_{Y_m} Y_{m+1} over the i-th face is not a
    quasi-isomorphism."""
    x, y = f.source, f.target
    for m in range(x.N):
        for i in range(m + 2):
            span = ch.pullback(f.level(m), y.face(m + 1, i))
            corner = ch.pullback_mediator(span, x.face(m + 1, i), f.level(m + 1))
            t = ch.quasi_iso_witness(corner)
            if t is not None:
                return (m, i, t)
    return None


def fiber(f: so.SimplicialMap) -> so.SimplicialObject:
    """The levelwise kernel F_n = ker f_n, with the operators of the source
    restricted to it."""
    kers = [ch.kernel_complex(f.level(n)) for n in range(f.source.N + 1)]

    def op(n: int, m: int, i: int) -> ch.ChainMap:
        return so.factor_through_mono(kers[m][1], f.source.operator(n, m, i) @ kers[n][1])

    return so.SimplicialObject(
        f.source.N, tuple(k for k, _ in kers), *ss.operator_tables(f.source.N, op)
    )


def face_by_face_witness(x: so.SimplicialObject):
    """First (level, face, degree) where a face map of x is not a
    quasi-isomorphism, levels 1..N in order and each face in turn."""
    for n in range(1, x.N + 1):
        for i in range(n + 1):
            t = ch.quasi_iso_witness(x.face(n, i))
            if t is not None:
                return (n, i, t)
    return None


def fiber_face_square_witness(f: so.SimplicialMap):
    """The face-square witness read off the faces of the whole fiber, after
    refusing an f that is not onto at some level."""
    fib = fiber(f)
    for n in range(f.source.N + 1):
        for t in f.target.level(n).degrees():
            if fib.level(n).dim(t) != f.source.level(n).dim(t) - f.target.level(n).dim(t):
                raise ValidationFailure(
                    f"face squares need f onto at every level; f_{n} is not onto in degree {t}"
                )
    w = face_by_face_witness(fib)
    return None if w is None else (w[0] - 1, w[1], w[2])


def assert_face_squares_agree(f: so.SimplicialMap):
    """For a Reedy fibration: the fiber is a simplicial object, and its
    faces give the pullback path's witness and the library's.  Returns that
    witness."""
    so.validate_sobj(fiber(f))
    sq = cl.face_square_witness(f)
    assert sq == reference_face_square_witness(f)
    assert sq == fiber_face_square_witness(f)
    return sq


def assert_witnesses_agree(f: so.SimplicialMap):
    assert cl.reedy_cof_witness(f) == reference_cof_witness(f)
    fib = cl.reedy_fib_witness(f)
    assert fib == moore_fib_witness(f)
    assert fib == reference_fib_witness(f)
    if fib is None:
        assert_face_squares_agree(f)


def nonzero_dims(c: ch.ChainComplex) -> dict:
    return {t: c.dim(t) for t in c.degrees() if c.dim(t)}


# ---------------------------------------------------------------------------
# witnesses


@lru_cache(maxsize=None)
def sampled_maps(kind: str, N: int) -> tuple:
    """The draws of ``kind`` at seeds 0-7 that pass the cap."""
    out = []
    for seed in range(8):
        try:
            out.append(sm.sample(kind, P, N, seed=seed, cap=512))
        except ResourceCapError:
            continue
    return tuple(out)


@pytest.mark.parametrize("N", (1, 2, 3))
@pytest.mark.parametrize("kind", MAP_KINDS)
def test_witnesses_agree_on_samplers(kind, N):
    maps = sampled_maps(kind, N)
    for f in maps:
        assert_witnesses_agree(f)
    assert len(maps) >= 6


def test_face_square_witnesses_agree_on_sampled_fibrations():
    """Every sampled Reedy fibration, N = 1..3, is onto at every level, and
    the fiber witness is the pullback witness; both verdicts occur."""
    found = [
        assert_face_squares_agree(f)
        for kind in MAP_KINDS
        for N in (1, 2, 3)
        for f in sampled_maps(kind, N)
        if cl.reedy_fib_witness(f) is None
    ]
    assert len(found) >= 90
    assert None in found and sum(w is not None for w in found) >= 5


def face_square_outcome(witness, f: so.SimplicialMap):
    """The witness, or the refusal message of a map that is not onto."""
    try:
        return witness(f)
    except ValidationFailure as e:
        return str(e)


def test_face_square_witness_equals_whole_fiber_reference():
    """On the sampler draws, N = 1..3, and 60 random small maps, Reedy
    fibrations or not: the witness read off the restricted faces equals the
    whole fiber's, and so does every refusal message; witnesses, passes and
    refusals all occur."""
    maps = [f for kind in MAP_KINDS for N in (1, 2, 3) for f in sampled_maps(kind, N)]
    maps += [
        sm.random_small_map(P, N, sm.rng_for(f"oracle:{N}:{seed}"))
        for N in (2, 3)
        for seed in range(30)
    ]
    outcomes = []
    for f in maps:
        got = face_square_outcome(cl.face_square_witness, f)
        assert got == face_square_outcome(fiber_face_square_witness, f)
        outcomes.append(got)
    refusals = sum(isinstance(w, str) for w in outcomes)
    witnesses = sum(isinstance(w, tuple) for w in outcomes)
    assert refusals >= 10 and witnesses >= 5 and None in outcomes


def constancy_objects():
    """random_sobj draws, singular and constant objects, simplex tensors and
    the fibers of the first sampled fibrations, N = 1..3."""
    out = []
    for N in (1, 2, 3):
        rng = sm.rng_for(f"constancy:{N}")
        out += [sm.draw("random_sobj", P, N, seed) for seed in range(4)]
        for _ in range(2):
            a = sm.random_complex(P, rng)
            out += [so.constant(N, a), rz.sing(a, N)]
            out += [so.tensor_with_sset(a, ss.delta(N, n)) for n in range(1, N + 1)]
            out.append(so.tensor_with_sset(a, ss.boundary_inclusion(N, min(N, 2)).source))
        fibs = [f for kind in MAP_KINDS for f in sampled_maps(kind, N) if cl.reedy_fib_witness(f) is None]
        out += [fiber(f) for f in fibs[:12]]
    return out


def test_homotopically_constant_witness_equals_face_by_face():
    """The witness read off the normalized levels is the first face, level
    by level, that is not a quasi-isomorphism; both verdicts occur."""
    found = []
    for x in constancy_objects():
        w = homotopically_constant_witness(x)
        assert w == face_by_face_witness(x)
        found.append(w)
    assert None in found and sum(w is not None for w in found) >= 10


def test_face_square_witness_refuses_maps_that_are_not_onto():
    f = sm.sample("reedy_cofibration", P, 2, seed=0)
    assert cl.reedy_fib_witness(f) is not None
    with pytest.raises(ValidationFailure, match="not onto"):
        cl.face_square_witness(f)


@pytest.mark.parametrize("N", (2, 3))
def test_witnesses_agree_on_random_small_maps(N):
    fibrations = 0
    for seed in range(30):
        f = sm.random_small_map(P, N, sm.rng_for(f"oracle:{N}:{seed}"))
        assert_witnesses_agree(f)
        fibrations += cl.reedy_fib_witness(f) is None
    assert fibrations


def test_witnesses_agree_on_boxes_with_injectives():
    for seed in range(3):
        f = sm.sample("reedy_cofibration", P, 2, seed=seed)
        for _, i in hn.injective_pool(2):
            assert_witnesses_agree(cl.pushout_product(f, i))


def test_fibration_witness_degree_outside_target_level():
    """X = Y + A as constant objects, A in degree 0 only: the projection is
    onto everywhere, but M_1X = X + X carries A in degree 0, where Y_1 is
    zero, and the diagonal A -> A + A is not onto.  The witness sits in a
    degree of X_0 that no level of Y has."""
    y = ch.sphere(P, 1)
    _, _, projs = ch.direct_sum_with_maps([y, ch.sphere(P, 0)])
    f = so.constant_map(3, projs[0])
    assert f.target.level(1).degrees() == [1]
    assert reference_fib_witness(f) == (1, 0)
    assert cl.reedy_fib_witness(f) == (1, 0)
    assert_witnesses_agree(f)


# ---------------------------------------------------------------------------
# latching objects


def latching_objects():
    man = Manifest(p=P, trunc=3, window=(-2, 4), cap=4096, seed=0, samples=20)
    out = []
    for name in ("const:sphere:0", "const:sphere:2", "const:disk:1"):
        out.append(fx.fixture(name, man))
    f, _ = fx.fixture("reedy-sm7", man)
    out += [f.source, f.target]
    for name in ("delta:2", "boundary:2", "horn:2:1"):
        out.append(so.tensor_with_sset(ch.disk(P, 1), fx.fixture(name, man)))
    for k in range(4):
        out.append(so.tensor_with_sset(ch.sphere(P, 0), ss.delta(3, k)))
    for seed in range(4):
        out.append(sm.sample("random_sobj", P, 3, seed=seed))
        f = sm.sample("equifibered_fibration", P, 2, seed=seed)
        out += [f.source, f.target]
    return out


def test_latching_span_is_the_colimit():
    """Degree by degree the degeneracy span has the dimensions of the colimit
    presentation, and both have the same image in X_n."""
    for x in latching_objects():
        for n in range(x.N + 1):
            new, old = so.latching(x, n), colimit_latching(x, n)
            assert nonzero_dims(new.obj) == nonzero_dims(old.obj), n
            assert ch.mono_witness(new.to_level) is None and ch.mono_witness(old.to_level) is None
            for t in x.level(n).degrees():
                a, b = new.to_level.block(t), old.to_level.block(t)
                assert hstack([a, b]).rank() == a.rank() == b.rank(), (n, t)


def test_degeneracy_quotient_is_cokernel_of_glued_degeneracies():
    """The per-degree quotient by the stacked degeneracy blocks is the
    cokernel of the map glued out of the sum of the degeneracies, with the
    same projection and sections; level 0 is the level itself."""
    for x in latching_objects():
        q0, proj0, sects0 = so.degeneracy_quotient(x, 0)
        assert q0 == x.level(0) and proj0 == ch.identity_map(x.level(0))
        assert all(sects0[t] == eye(P, x.level(0).dim(t)) for t in x.level(0).degrees())
        for n in range(1, x.N + 1):
            _, glued = glue_out_of_sum([x.degen(n - 1, i) for i in range(n)], x.level(n), P)
            q, proj, sects = so.degeneracy_quotient(x, n)
            wq, wproj, wsects = ch.cokernel_complex(glued)
            assert (q, proj) == (wq, wproj), n
            assert sects.keys() == wsects.keys()
            assert all(sects[t] == wsects[t] for t in sects), n


def test_latching_map_of_constant_map():
    f = ch.sphere_disk_inclusion(P, 1)
    sf = so.constant_map(2, f)
    so.validate_smap(sf)
    lx, ly = colimit_latching(sf.source, 2), colimit_latching(sf.target, 2)
    lf = latching_map_of(sf, 2, lx, ly)
    assert lf.source.total_dim() == f.source.total_dim()
    assert ch.mono_witness(lf) is None
    assert cl.reedy_cof_witness(sf) is None


# ---------------------------------------------------------------------------
# matching objects


@lru_cache(maxsize=None)
def matching_maps(p: int, N: int) -> tuple:
    """Per map kind, the first draws at seeds 0-7 that pass the cap and keep
    every level within 40 dimensions, where the boundary cotensors stay
    cheap: two up to N = 3 and one at N = 4.  Then as many random small
    maps as there are draws."""
    per_kind = 2 if N < 4 else 1
    out = []
    for kind in MAP_KINDS:
        found = []
        for seed in range(8):
            try:
                f = sm.draw(kind, p, N, seed, cap=512)
            except ResourceCapError:
                continue
            if max(x.level(n).total_dim() for x in (f.source, f.target) for n in range(N + 1)) <= 40:
                found.append(f)
            if len(found) == per_kind:
                break
        assert len(found) == per_kind, kind
        out += found
    rng = sm.rng_for(f"matching:{p}:{N}")
    return tuple(out + [sm.random_small_map(p, N, rng) for _ in out])


@pytest.mark.parametrize("N", (1, 2, 3, 4))
@pytest.mark.parametrize("p", (2, 3, 101))
def test_equalizer_matching_equals_all_faces_limit(p, N):
    """M_nX, its map from X_n, the induced map of matching objects, the
    relative matching map with its span legs and the comparison into the
    boundary cotensor are equal, not merely isomorphic, to the all-faces
    presentation's, for n = 0..N."""
    for f in matching_maps(p, N):
        for n in range(N + 1):
            rel = cl.relative_matching(f, n)
            want, span, mx, my = all_faces_relative_matching(f, n)
            for got, ref in ((rel.mx, mx), (rel.my, my)):
                assert (got.obj, got.from_level) == (ref.obj, ref.from_level), n
            assert so.matching_map_of(f, n, rel.mx, rel.my) == all_faces_matching_map_of(f, n, mx, my)
            assert (rel.map, rel.span.left, rel.span.right) == (want, span.left, span.right), n
            ct = so.cotensor0(f.source, ss.boundary_inclusion(N, n).source)
            got = so.boundary_cotensor_from_matching(f.source, n, ct, rel.mx)
            assert got == all_faces_boundary_cotensor(f.source, n, ct, mx), n
