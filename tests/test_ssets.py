"""Frozen combinatorial oracles for truncated simplicial sets.

Counts, level orders, and boundary matrices below were worked out by hand
from monotone-tuple combinatorics before the module was written.
"""

import math

import pytest

from reedychain import chain as ch
from reedychain import sampling as sm
from reedychain import sobj as so
from reedychain import ssets as ss
from reedychain.errors import ValidationFailure
from reedychain.linalg import FpMatrix

P = 5


def test_monotone_maps_counts():
    # monotone [m] -> [n] are counted by C(n+m+1, m+1)
    assert len(ss.monotone_maps(2, 2)) == 10
    assert len(ss.monotone_maps(1, 3)) == 10
    assert len(ss.monotone_maps(0, 2)) == 3
    for m in range(4):
        for n in range(4):
            assert len(ss.monotone_maps(m, n)) == math.comb(n + m + 1, m + 1)
    # lex order
    assert ss.monotone_maps(1, 1) == ((0, 0), (0, 1), (1, 1))


def test_delta_counts_and_order():
    x = ss.delta(3, 1)
    assert [x.card(m) for m in range(4)] == [2, 3, 4, 5]
    ss.validate_sset(x)
    y = ss.delta(2, 2)
    assert [y.card(m) for m in range(3)] == [3, 6, 10]
    ss.validate_sset(y)
    assert x.levels[1] == ((0, 0), (0, 1), (1, 1))


def test_face_degen_on_delta():
    x = ss.delta(1, 1)
    e = x.index_of(1, (0, 1))
    assert x.label(0, x.face(1, 0, e)) == (1,)
    assert x.label(0, x.face(1, 1, e)) == (0,)
    v = x.index_of(0, (0,))
    assert x.label(1, x.degen(0, 0, v)) == (0, 0)


def test_validate_catches_tampered_table():
    x = ss.delta(2, 1)
    faces = [list(map(list, lvl)) for lvl in x.faces]
    faces[0][0][x.index_of(1, (0, 1))] = x.index_of(0, (0,))  # d_0 edge -> wrong vertex
    bad = ss.SSet(x.N, x.levels, tuple(tuple(tuple(r) for r in lvl) for lvl in faces), x.degens)
    with pytest.raises(ValidationFailure):
        ss.validate_sset(bad)


def test_boundary_and_horn_counts():
    b = ss.boundary_inclusion(2, 2)
    assert [b.source.card(m) for m in range(3)] == [3, 6, 9]
    ss.validate_sset(b.source)
    ss.validate_sset_map(b)
    assert b.is_injective()
    assert b.weq is False

    h = ss.horn_inclusion(2, 2, 1)
    assert [h.source.card(m) for m in range(3)] == [3, 5, 7]
    ss.validate_sset_map(h)
    assert h.weq is True

    tiny = ss.horn_inclusion(2, 1, 0)
    assert [tiny.source.card(m) for m in range(3)] == [1, 1, 1]
    assert tiny.source.levels[0] == ((0,),)


def test_product_counts():
    q = ss.product(ss.delta(2, 1), ss.delta(2, 1))
    assert [q.card(m) for m in range(3)] == [4, 9, 16]
    ss.validate_sset(q)
    assert len(ss.nondegenerate_indices(q, 1)) == 5
    assert len(ss.nondegenerate_indices(q, 2)) == 2
    c = ss.normalized_chains(q, P)
    assert c.dims == (4, 5, 2)
    assert ch.homology_dims(c) == {0: 1}


def operator_action(x, alpha, n):
    """Index map X_n -> X_m of monotone alpha: [m] -> [n], both within the
    truncation: ``ss.apply_path`` along ``ss.factor_monotone``."""
    if n > x.N or len(alpha) - 1 > x.N:
        raise ValidationFailure("operator action outside the truncation")
    return ss.apply_path(x, ss.factor_monotone(tuple(alpha), n), range(x.card(n)))


def test_is_degenerate():
    x = ss.delta(2, 1)
    degenerate = ss.degenerate_indices(x, 1)
    assert x.index_of(1, (0, 0)) in degenerate
    assert x.index_of(1, (1, 1)) in degenerate
    assert x.index_of(1, (0, 1)) not in degenerate
    assert ss.nondegenerate_indices(x, 2) == ()


def test_operator_action_is_precomposition():
    x = ss.delta(3, 2)
    for n in range(4):
        for m in range(4):
            for alpha in ss.monotone_maps(m, n):
                act = operator_action(x, alpha, n)
                for idx in range(x.card(n)):
                    lab = x.label(n, idx)
                    expect = tuple(lab[a] for a in alpha)
                    assert x.label(m, act[idx]) == expect


def test_normalized_chains_interval():
    c = ss.normalized_chains(ss.delta(1, 1), P)
    assert c.dims == (2, 1)
    assert c.d(1) == FpMatrix.from_rows(P, [[P - 1], [1]])
    assert ch.homology_dims(c) == {0: 1}


def test_normalized_chains_circle_and_horn():
    circ = ss.normalized_chains(ss.boundary_inclusion(2, 2).source, P)
    assert circ.dims == (3, 3)
    assert ch.homology_dims(circ) == {0: 1, 1: 1}
    horn = ss.normalized_chains(ss.horn_inclusion(2, 2, 1).source, P)
    assert horn.dims == (3, 2)
    assert ch.homology_dims(horn) == {0: 1}


def test_normalized_chains_full_simplex():
    c = ss.normalized_chains(ss.delta(3, 3), P)
    assert c.dims == (4, 6, 4, 1)
    ch.validate_complex(c)
    assert ch.homology_dims(c) == {0: 1}


def test_truncation_cuts_top_cells():
    # the 2-simplex truncated at level 1 has the same chains as its boundary
    c = ss.normalized_chains(ss.delta(1, 2), P)
    assert c.dims == (3, 3)
    assert ch.homology_dims(c) == {0: 1, 1: 1}


def test_chains_functorial():
    a = ss.delta_map(2, (0, 2), 2)
    b = ss.delta_map(2, (0, 0, 1), 1)
    ca = ss.normalized_chains_map(a, P)
    cb = ss.normalized_chains_map(b, P)
    ch.validate_map(ca)
    ch.validate_map(cb)
    comp = b @ a
    ss.validate_sset_map(comp)
    assert ss.normalized_chains_map(comp, P) == cb @ ca


def test_chains_kill_degenerate_images():
    collapse = ss.delta_map(1, (0, 0), 0)
    c = ss.normalized_chains_map(collapse, P)
    assert c.block(1).is_zero()
    assert not c.block(0).is_zero()


def test_sset_map_injectivity_flags():
    assert ss.boundary_inclusion(2, 2).is_injective()
    assert not ss.delta_map(2, (0, 0, 1), 1).is_injective()
    assert ss.delta_map(2, (0, 2), 2).weq is True


def test_operator_tables_order_and_lookup():
    """Faces come first, level by level, then degeneracies; a table entry
    is the operator from level n to level m."""
    assert ss.operator_indices(2) == [
        (1, 0, 0), (1, 0, 1), (2, 1, 0), (2, 1, 1), (2, 1, 2),
        (0, 1, 0), (1, 2, 0), (1, 2, 1),
    ]
    seen = []
    faces, degens = ss.operator_tables(2, lambda n, m, i: seen.append((n, m, i)) or (n, m, i))
    assert seen == ss.operator_indices(2)
    assert faces[1][2] == (2, 1, 2) and degens[1][0] == (1, 2, 0)
    x = ss.delta(2, 1)
    assert x.operator(2, 1, 2) == x.faces[1][2] and x.operator(1, 2, 0) == x.degens[1][0]
    # the coface misses i, the codegeneracy hits i twice
    assert ss.operator_tuple(2, 1, 1) == (0, 2)
    assert ss.operator_tuple(1, 2, 0) == (0, 0, 1)


def circle() -> ss.SSet:
    """One vertex and one loop, truncated at level 1."""
    return ss.SSet(1, ((0,), ("s0", "loop")), (((0, 0), (0, 0)),), (((0,),),))


def test_validate_sset_map_names_the_broken_operator():
    x = ss.delta(1, 1)
    swap = ss.SSetMap(x, x, ((1, 0), (0, 1, 2)))
    with pytest.raises(ValidationFailure, match=r"^map breaks d_0 at level 1$"):
        ss.validate_sset_map(swap)
    c = circle()
    ss.validate_sset(c)
    ss.validate_sset_map(ss.SSetMap(c, c, ((0,), (0, 1))))
    # every edge to the loop commutes with the faces, not with s_0
    with pytest.raises(ValidationFailure, match=r"^map breaks s_0 at level 0$"):
        ss.validate_sset_map(ss.SSetMap(c, c, ((0,), (1, 1))))


def test_sub_sset_inclusion_refuses_open_selections():
    x = ss.delta(1, 1)
    with pytest.raises(ValidationFailure, match=r"^selection not closed under faces$"):
        ss.sub_sset_inclusion(x, lambda m, lab: lab in ((0,), (0, 1)))
    with pytest.raises(ValidationFailure, match=r"^selection not closed under degeneracies$"):
        ss.sub_sset_inclusion(x, lambda m, lab: m == 0 or lab == (0, 1))


def test_build_refuses_operators_leaving_the_levels():
    with pytest.raises(ValidationFailure, match=r"^face d_0 leaves the simplex set at level 1$"):
        ss.SSet.build(1, [((0,),), ((0, 1),)], ss._tuple_op)
    with pytest.raises(
        ValidationFailure, match=r"^degeneracy s_0 leaves the simplex set at level 0$"
    ):
        ss.SSet.build(1, [((0,), (1,)), ((0, 1),)], ss._tuple_op)


def test_factor_monotone_returns_operator_paths():
    """Faces first, then degeneracies; each step is the (n, m, i) of an
    operator and starts where the previous one ended."""
    assert ss.factor_monotone((0, 1, 2), 2) == []
    assert ss.factor_monotone((0, 2), 2) == [(2, 1, 1)]
    assert ss.factor_monotone((0, 0, 2), 2) == [(2, 1, 1), (1, 2, 0)]
    assert ss.factor_monotone((1, 1, 1, 3), 3) == [(3, 2, 0), (2, 1, 1), (1, 2, 0), (2, 3, 0)]
    assert ss.factor_monotone((0, 1, 1, 2, 2), 2) == [(2, 3, 2), (3, 4, 1)]
    for n in range(4):
        for m in range(4):
            for alpha in ss.monotone_maps(m, n):
                path = ss.factor_monotone(alpha, n)
                levels = [n] + [step[1] for step in path]
                assert [step[0] for step in path] == levels[:-1] and levels[-1] == m
                kinds = [step[1] < step[0] for step in path]
                assert kinds == sorted(kinds, reverse=True)


def _paths(N, n, length):
    """Every operator path of the given length out of level n."""
    if length == 0:
        return [[]]
    out = []
    for step in ss.operator_indices(N):
        if step[0] == n:
            out += [[step] + rest for rest in _paths(N, step[1], length - 1)]
    return out


def test_apply_path_composes_faces_and_degeneracies():
    for x in (ss.delta(3, 2), ss.boundary_inclusion(3, 2).source):
        for n in range(x.N + 1):
            for length in range(4):
                for path in _paths(x.N, n, length):
                    want = []
                    for idx in range(x.card(n)):
                        for lvl, m, i in path:
                            idx = x.face(lvl, i, idx) if m < lvl else x.degen(lvl, i, idx)
                        want.append(idx)
                    assert ss.apply_path(x, path, range(x.card(n))) == tuple(want)


def test_along_composes_face_and_degeneracy_maps():
    x = sm.draw("random_sobj", P, 2, seed=3)
    for n in range(x.N + 1):
        for length in range(3):
            for path in _paths(x.N, n, length):
                want = ch.identity_map(x.level(n))
                for lvl, m, i in path:
                    want = (x.face(lvl, i) if m < lvl else x.degen(lvl, i)) @ want
                assert so.along(x, path, n) == want


def test_simplicial_identities_listing():
    ids = ss.simplicial_identities(2)
    names = [(name, n) for name, n, _, _ in ids]
    assert names == [
        ("d_0 d_1", 2), ("d_0 d_2", 2), ("d_1 d_2", 2),
        ("s_0 s_0", 0),
        ("d_0 s_0", 0), ("d_1 s_0", 0),
        ("d_0 s_0", 1), ("d_1 s_0", 1), ("d_2 s_0", 1),
        ("d_0 s_1", 1), ("d_1 s_1", 1), ("d_2 s_1", 1),
    ]
    by_name = {(name, n): (lhs, rhs) for name, n, lhs, rhs in ids}
    assert by_name["d_0 d_2", 2] == ([(2, 1, 2), (1, 0, 0)], [(2, 1, 0), (1, 0, 1)])
    assert by_name["s_0 s_0", 0] == ([(0, 1, 0), (1, 2, 0)], [(0, 1, 0), (1, 2, 1)])
    assert by_name["d_1 s_0", 1] == ([(1, 2, 0), (2, 1, 1)], [])
    assert by_name["d_2 s_0", 1] == ([(1, 2, 0), (2, 1, 2)], [(1, 0, 1), (0, 1, 0)])
    assert by_name["d_0 s_1", 1] == ([(1, 2, 1), (2, 1, 0)], [(1, 0, 0), (0, 1, 0)])
    # both sides of every identity run between the same levels
    for N in range(5):
        for _, n, lhs, rhs in ss.simplicial_identities(N):
            assert lhs[0][0] == n and (not rhs or rhs[0][0] == n)
            assert lhs[-1][1] == (rhs[-1][1] if rhs else n)
            assert all(0 <= step[1] <= N for step in lhs + rhs)


def retabled(x, faces=None, degens=None, levels=None) -> ss.SSet:
    """``x`` with some of its fields replaced, unvalidated."""
    return ss.SSet(
        x.N, x.levels if levels is None else levels,
        x.faces if faces is None else faces, x.degens if degens is None else degens,
    )


def tampered(x, n, m, i, lab, out) -> ss.SSet:
    """``x`` with the operator from level n to level m sending lab to out."""
    faces = [[list(row) for row in group] for group in x.faces]
    degens = [[list(row) for row in group] for group in x.degens]
    (faces[n - 1] if m < n else degens[n])[i][x.index_of(n, lab)] = x.index_of(m, out)
    frozen = lambda groups: tuple(tuple(tuple(row) for row in g) for g in groups)  # noqa: E731
    return retabled(x, frozen(faces), frozen(degens))


# One tampered entry per identity family; each is the first identity to fail.
IDENTITY_TAMPERS = [
    (3, (2, 1, 0), (0, 0, 1), (0, 0), "d_0 d_1", 2),
    (3, (1, 2, 0), (0, 1), (0, 0, 0), "s_0 s_1", 1),
    (3, (0, 1, 0), (1,), (0, 0), "d_0 s_0", 0),
    (2, (1, 2, 1), (0, 1), (0, 0, 0), "d_0 s_1", 1),
]


@pytest.mark.parametrize("N, op, lab, out, name, level", IDENTITY_TAMPERS)
def test_validators_name_the_failing_identity(N, op, lab, out, name, level):
    """A tampered simplicial set, and the simplicial object of its chains,
    fail the same identity."""
    bad = tampered(ss.delta(N, 1), *op, lab, out)
    with pytest.raises(ValidationFailure, match=rf"^{name} identity fails at level {level}$"):
        ss.validate_sset(bad)
    with pytest.raises(ValidationFailure, match=rf"^{name} fails at level {level}$"):
        so.validate_sobj(so.tensor_with_sset(ch.sphere(P, 0), bad))


def test_validate_sset_shape_messages():
    x = ss.delta(2, 1)
    cases = [
        (retabled(x, levels=x.levels[:2]), "level list does not match N"),
        (retabled(x, faces=x.faces[:1]), "operator tables do not match N"),
        (retabled(x, degens=x.degens + x.degens[:1]), "operator tables do not match N"),
        (retabled(x, faces=(x.faces[0][:1], x.faces[1])), "expected 2 face operators at level 1"),
        (retabled(x, faces=(x.faces[0], x.faces[1] + x.faces[1][:1])),
         "expected 3 face operators at level 2"),
        (retabled(x, faces=(x.faces[0], (x.faces[1][0][:-1],) + x.faces[1][1:])),
         "face table malformed at level 2"),
        (retabled(x, faces=((x.faces[0][0], (2,) + x.faces[0][1][1:]), x.faces[1])),
         "face table malformed at level 1"),
        (retabled(x, degens=(x.degens[0] * 2, x.degens[1])), "expected 1 degeneracies at level 0"),
        (retabled(x, degens=(x.degens[0], x.degens[1][:1])), "expected 2 degeneracies at level 1"),
        (retabled(x, degens=((x.degens[0][0] + (0,),), x.degens[1])),
         "degeneracy table malformed at level 0"),
        (retabled(x, degens=(x.degens[0], (x.degens[1][0], (-1,) + x.degens[1][1][1:]))),
         "degeneracy table malformed at level 1"),
    ]
    for bad, message in cases:
        with pytest.raises(ValidationFailure) as err:
            ss.validate_sset(bad)
        assert str(err.value) == message


OUT_OF_RANGE = [
    ((0, -1, 0), "no face out of level 0: face levels run 1..2"),
    ((3, 2, 0), "no face out of level 3: face levels run 1..2"),
    ((2, 3, 0), "no degeneracy out of level 2: degeneracy levels run 0..1"),
    ((-1, 0, 0), "no degeneracy out of level -1: degeneracy levels run 0..1"),
    ((1, 0, 2), "no operator index 2 at level 1: indices run 0..1"),
    ((1, 2, -1), "no operator index -1 at level 1: indices run 0..1"),
    ((2, 2, 0), "no operator from level 2 to level 2"),
    ((2, 0, 0), "no operator from level 2 to level 0"),
]


@pytest.mark.parametrize("args, message", OUT_OF_RANGE)
def test_operator_refuses_out_of_range_indices(args, message):
    x = ss.delta(2, 1)
    with pytest.raises(ValidationFailure) as err:
        x.operator(*args)
    assert str(err.value) == message


def test_face_and_degen_refuse_out_of_range_levels():
    x = ss.delta(2, 1)
    cases = [
        (lambda: x.face(0, 0, 0), "no face out of level 0: face levels run 1..2"),
        (lambda: x.face(1, 2, 0), "no operator index 2 at level 1: indices run 0..1"),
        (lambda: x.degen(2, 0, 0), "no degeneracy out of level 2: degeneracy levels run 0..1"),
        (lambda: x.degen(1, 2, 0), "no operator index 2 at level 1: indices run 0..1"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationFailure) as err:
            call()
        assert str(err.value) == message
