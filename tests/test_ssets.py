"""Frozen combinatorial oracles for truncated simplicial sets.

Counts, level orders, and boundary matrices below were worked out by hand
from monotone-tuple combinatorics before the module was written.
"""

import math

import pytest

from reedychain import chain as ch
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


def test_product_map_commutes():
    f = ss.delta_map(2, (0, 2), 2)
    g = ss.delta_map(2, (0, 0, 1), 1)
    pm = ss.product_map(f, g)
    ss.validate_sset_map(pm)
    assert pm.source.card(1) == ss.delta(2, 1).card(1) * ss.delta(2, 2).card(1)


def test_box_boundary_square_perimeter():
    f = ss.boundary_inclusion(1, 1)
    incl = ss.box_boundary(f, f)
    assert incl.source.card(0) == 4
    assert incl.source.card(1) == 8
    ss.validate_sset_map(incl)
    c = ss.normalized_chains(incl.source, P)
    assert ch.homology_dims(c) == {0: 1, 1: 1}


def test_box_boundary_horn_side():
    # left edge plus top and bottom of the square: a contractible snake
    incl = ss.box_boundary(ss.horn_inclusion(2, 1, 0), ss.boundary_inclusion(2, 1))
    c = ss.normalized_chains(incl.source, P)
    assert c.dims == (4, 3)
    assert ch.homology_dims(c) == {0: 1}


def test_is_degenerate():
    x = ss.delta(2, 1)
    assert ss.is_degenerate(x, 1, x.index_of(1, (0, 0)))
    assert ss.is_degenerate(x, 1, x.index_of(1, (1, 1)))
    assert not ss.is_degenerate(x, 1, x.index_of(1, (0, 1)))
    assert ss.nondegenerate_indices(x, 2) == ()


def test_operator_action_is_precomposition():
    x = ss.delta(3, 2)
    for n in range(4):
        for m in range(4):
            for alpha in ss.monotone_maps(m, n):
                act = ss.operator_action(x, alpha, n)
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
