"""JSON codecs: canonical forms, round trips, and schema diagnostics."""

import copy
import json

import pytest

import reedychain.chain as ch
import reedychain.lifting as lf
import reedychain.realize as rz
import reedychain.sampling as sm
import reedychain.serialization as sz
import reedychain.sobj as so
import reedychain.ssets as ss
from reedychain.errors import SchemaError

P = 7


def test_sphere_doc_is_frozen():
    doc = sz.complex_to_doc(ch.sphere(P, 1))
    assert doc == {"p": 7, "complex": {"lo": 1, "hi": 1, "dims": [1], "diff": []}}


def test_disk_doc_is_frozen():
    doc = sz.complex_to_doc(ch.disk(P, 1))
    assert doc == {
        "p": 7,
        "complex": {"lo": 0, "hi": 1, "dims": [1, 1], "diff": [[[1]]]},
    }


def test_complex_round_trip():
    rng = sm.rng_for("ser-complex")
    for _ in range(6):
        x = sm.random_complex(P, rng)
        doc = sz.complex_to_doc(x)
        assert sz.complex_from_doc(doc) == x
        s = sz.dumps(x)
        assert sz.dumps(sz.loads(s)) == s


def test_zero_complex_round_trips():
    z = ch.zero_complex(P)
    assert sz.complex_from_doc(sz.complex_to_doc(z)) == z


def test_chain_map_round_trip():
    rng = sm.rng_for("ser-cmap")
    for _ in range(6):
        a = sm.random_complex(P, rng)
        b = sm.random_complex(P, rng)
        f = sm.random_chain_map(a, b, rng)
        assert sz.chain_map_from_doc(sz.chain_map_to_doc(f)) == f
        s = sz.dumps(f)
        assert sz.dumps(sz.loads(s)) == s


def test_sset_round_trip_including_products():
    shapes = [
        ss.delta(2, 1),
        ss.boundary_inclusion(2, 2).source,
        ss.horn_inclusion(2, 2, 0).source,
        ss.product(ss.delta(2, 1), ss.delta(2, 1)),
    ]
    for k in shapes:
        doc = sz.sset_to_doc(k)
        assert sz.sset_from_doc(doc) == k
        s = sz.dumps(k)
        assert sz.dumps(sz.loads(s)) == s


def test_sset_map_round_trip_keeps_weq_mark():
    for g in (ss.horn_inclusion(2, 1, 0), ss.boundary_inclusion(2, 1)):
        back = sz.sset_map_from_doc(sz.sset_map_to_doc(g))
        assert back == g
        assert back.weq == g.weq


def test_sobj_round_trip():
    rng = sm.rng_for("ser-sobj")
    for seed in range(4):
        x = sm.sample("random_sobj", P, 2, seed)
        doc = sz.sobj_to_doc(x)
        assert sz.sobj_from_doc(doc) == x
        s = sz.dumps(x)
        assert sz.dumps(sz.loads(s)) == s


def test_smap_round_trip():
    rng = sm.rng_for("ser-smap")
    f = sm.random_small_map(P, 2, rng)
    assert sz.smap_from_doc(sz.smap_to_doc(f)) == f
    g = rz.sing_map(ch.identity_map(ch.sphere(P, 0)), 2)
    assert sz.smap_from_doc(sz.smap_to_doc(g)) == g


def test_problem_round_trip():
    x = so.constant(1, ch.disk(P, 1))
    i = so.zero_smap(so.constant(1, ch.zero_complex(P)), x)
    pr = lf.LiftingProblem(
        i=i,
        p=so.identity_smap(x),
        top=so.zero_smap(i.source, x),
        bottom=so.identity_smap(x),
    )
    back = sz.problem_from_doc(sz.problem_to_doc(pr))
    assert back.i == pr.i and back.p == pr.p
    assert back.top == pr.top and back.bottom == pr.bottom


def test_detect_kind():
    x = ch.sphere(P, 0)
    assert sz.detect_kind(sz.complex_to_doc(x)) == "complex"
    f = ch.identity_map(x)
    assert sz.detect_kind(sz.chain_map_to_doc(f)) == "chain_map"
    k = ss.delta(2, 1)
    assert sz.detect_kind(sz.sset_to_doc(k)) == "sset"
    assert sz.detect_kind(sz.sset_map_to_doc(ss.boundary_inclusion(2, 1))) == "sset_map"
    y = so.constant(2, x)
    assert sz.detect_kind(sz.sobj_to_doc(y)) == "sobj"
    assert sz.detect_kind(sz.smap_to_doc(so.identity_smap(y))) == "smap"
    pr = lf.LiftingProblem(
        i=so.identity_smap(y), p=so.identity_smap(y),
        top=so.identity_smap(y), bottom=so.identity_smap(y),
    )
    assert sz.detect_kind(sz.problem_to_doc(pr)) == "problem"


def test_generic_loads_dispatches():
    x = so.constant(2, ch.sphere(P, 0))
    assert sz.loads(sz.dumps(x)) == x


def test_missing_field_names_the_field():
    doc = sz.sobj_to_doc(so.constant(1, ch.sphere(P, 0)))
    del doc["degeneracies"]
    with pytest.raises(SchemaError, match="degeneracies"):
        sz.sobj_from_doc(doc)


def test_bad_matrix_shape_is_schema_error():
    doc = sz.complex_to_doc(ch.disk(P, 1))
    doc["complex"]["diff"] = [[[1, 2]]]  # 1x2 against dims 1,1
    with pytest.raises(SchemaError, match="diff"):
        sz.complex_from_doc(doc)


def test_bad_prime_is_schema_error():
    doc = sz.complex_to_doc(ch.sphere(P, 0))
    doc["p"] = 1
    with pytest.raises(SchemaError, match="p"):
        sz.complex_from_doc(doc)


def test_mixed_primes_rejected():
    x = so.constant(1, ch.sphere(P, 0))
    pr = lf.LiftingProblem(
        i=so.identity_smap(x), p=so.identity_smap(x),
        top=so.identity_smap(x), bottom=so.identity_smap(x),
    )
    doc = sz.problem_to_doc(pr)
    doc["top"]["p"] = 11
    doc["top"]["source"]["p"] = 11
    doc["top"]["target"]["p"] = 11
    with pytest.raises(SchemaError, match="prime"):
        sz.problem_from_doc(doc)


def test_not_json_is_schema_error():
    with pytest.raises(SchemaError):
        sz.loads("{nope")
    with pytest.raises(SchemaError):
        sz.loads(json.dumps({"unrecognized": 1}))


def _edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def _set(key, *where, value):
    """An edit setting doc[key][where...] to value."""
    def edit(doc):
        path = (key, *where)
        target = doc
        for w in path[:-1]:
            target = target[w]
        target[path[-1]] = value
    return edit


# (edit, message) for the group checks of both codecs.  A face or
# degeneracy list is checked when the sset codec reaches it, and both up
# front in the sobj codec; so with two faults they report different ones.
SSET_GROUP_CASES = [
    (lambda d: d.pop("faces"), "sset.faces: missing field"),
    (_set("faces", value=3), "sset.faces: expected 2 operator groups"),
    (lambda d: d["faces"].pop(), "sset.faces: expected 2 operator groups"),
    (_set("faces", 0, value={}), "sset.faces[0]: expected 2 operators"),
    (lambda d: d["faces"][1].pop(), "sset.faces[1]: expected 3 operators"),
    (_set("faces", 1, 2, value=7), "sset.faces[1][2]: expected an array"),
    (_set("faces", 1, 2, 0, value=True), "sset.faces[1][2][0]: expected an integer"),
    (lambda d: d["faces"][1][0].pop(), "sset.faces[1][0]: expected 9 entries"),
    (_set("faces", 0, 1, 0, value=3), "sset.faces[0][1]: index out of range"),
    (lambda d: d.pop("degeneracies"), "sset.degeneracies: missing field"),
    (lambda d: d["degeneracies"].append([]), "sset.degeneracies: expected 2 operator groups"),
    (lambda d: d["degeneracies"][0].append([0, 0, 0]), "sset.degeneracies[0]: expected 1 operators"),
    (_set("degeneracies", 1, 1, value="x"), "sset.degeneracies[1][1]: expected an array"),
    (lambda d: d["degeneracies"][1][1].append(0), "sset.degeneracies[1][1]: expected 6 entries"),
    (_set("degeneracies", 0, 0, 2, value=-1), "sset.degeneracies[0][0]: index out of range"),
    (lambda d: (d["faces"][0].pop(), d.pop("degeneracies")), "sset.faces[0]: expected 2 operators"),
    (lambda d: d.update(N=0, levels=d["levels"][:1]), "sset.faces: expected 0 operator groups"),
    (lambda d: d.update(N=0, levels=d["levels"][:1], faces=[]),
     "sset.degeneracies: expected 0 operator groups"),
]

SOBJ_GROUP_CASES = [
    (lambda d: d.pop("faces"), "sobj.faces: missing field"),
    (lambda d: d["faces"].pop(), "sobj.faces: expected N groups"),
    (_set("faces", 1, value=None), "sobj.faces[1]: expected 3 maps"),
    (lambda d: d["faces"][0].append({}), "sobj.faces[0]: expected 2 maps"),
    (_set("faces", 1, 0, value=[]), "sobj.faces[1][0]: expected an object"),
    (lambda d: d["faces"][1][2].pop("blocks"), "sobj.faces[1][2].blocks: missing field"),
    (_set("faces", 0, 1, "blocks", value=[]),
     "sobj.faces[0][1].blocks: expected an object of degree -> matrix"),
    (lambda d: d.pop("degeneracies"), "sobj.degeneracies: missing field"),
    (_set("degeneracies", value={}), "sobj.degeneracies: expected N groups"),
    (lambda d: d["degeneracies"][1].pop(), "sobj.degeneracies[1]: expected 2 maps"),
    (lambda d: d["degeneracies"][0][0].pop("blocks"), "sobj.degeneracies[0][0].blocks: missing field"),
    (lambda d: (d["faces"][0].pop(), d.pop("degeneracies")), "sobj.degeneracies: missing field"),
    (lambda d: d.update(N=0, levels=d["levels"][:1], faces=[], degeneracies=[[]]),
     "sobj.degeneracies: expected N groups"),
    (lambda d: (d.update(N=0, levels=d["levels"][:1]), d.pop("faces")), "sobj.faces: missing field"),
]


@pytest.mark.parametrize("edit, message", SSET_GROUP_CASES)
def test_sset_codec_group_checks(edit, message):
    doc = _edited(sz.sset_to_doc(ss.boundary_inclusion(2, 2).source), edit)
    with pytest.raises(SchemaError) as err:
        sz.sset_from_doc(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("edit, message", SOBJ_GROUP_CASES)
def test_sobj_codec_group_checks(edit, message):
    doc = _edited(sz.sobj_to_doc(so.tensor_with_sset(ch.disk(P, 1), ss.delta(2, 1))), edit)
    with pytest.raises(SchemaError) as err:
        sz.sobj_from_doc(doc)
    assert str(err.value) == message
