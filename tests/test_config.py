"""Manifest resolution and fixture names."""

import pytest

import reedychain.chain as ch
import reedychain.config as cf
import reedychain.fixtures as fx
import reedychain.sobj as so
import reedychain.ssets as ss
from reedychain.errors import SchemaError


def test_defaults():
    m = cf.Manifest()
    assert m.p == 101
    assert m.trunc == 3
    assert m.window == (-2, 4)
    assert m.cap == 4096
    assert m.seed == 0


def test_invariants_rejected():
    with pytest.raises(SchemaError, match="prime"):
        cf.Manifest(p=100)
    with pytest.raises(SchemaError, match="exceeds"):
        cf.Manifest(p=32771)  # prime, but past the int64-exact bound
    assert cf.Manifest(p=32749).p == 32749
    with pytest.raises(SchemaError, match="truncation"):
        cf.Manifest(trunc=0)
    with pytest.raises(SchemaError, match="cap"):
        cf.Manifest(cap=0)


def test_window_parsing():
    assert cf.parse_window("-2..4") == (-2, 4)
    assert cf.parse_window("0..0") == (0, 0)
    with pytest.raises(SchemaError):
        cf.parse_window("4..-2")
    with pytest.raises(SchemaError):
        cf.parse_window("nope")


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("REEDYCHAIN_P", "7")
    monkeypatch.setenv("REEDYCHAIN_TRUNC", "2")
    monkeypatch.setenv("REEDYCHAIN_WINDOW", "-1..1")
    m = cf.from_env()
    assert (m.p, m.trunc, m.window) == (7, 2, (-1, 1))
    # explicit overrides win over the environment
    m2 = cf.from_env(p=11, window=(0, 2))
    assert (m2.p, m2.trunc, m2.window) == (11, 2, (0, 2))


def test_env_garbage_is_schema_error(monkeypatch):
    monkeypatch.setenv("REEDYCHAIN_SEED", "zero")
    with pytest.raises(SchemaError, match="SEED"):
        cf.from_env()


def test_fixture_complexes():
    m = cf.Manifest(p=7, trunc=2)
    assert fx.fixture("sphere:1", m) == ch.sphere(7, 1)
    assert fx.fixture("disk:2", m) == ch.disk(7, 2)


def test_fixture_constants_use_manifest_truncation():
    m = cf.Manifest(p=7, trunc=2)
    c = fx.fixture("const:sphere:0", m)
    assert isinstance(c, so.SimplicialObject)
    assert c.N == 2
    assert c.level(0) == ch.sphere(7, 0)


def test_fixture_ssets():
    m = cf.Manifest(p=7, trunc=2)
    assert fx.fixture("delta:1", m) == ss.delta(2, 1)
    assert fx.fixture("boundary:2", m) == ss.boundary_inclusion(2, 2).source
    # the 0-horn of the 1-simplex is the vertex: same labels as delta:0
    assert fx.fixture("horn:1:0", m) == ss.delta(2, 0)


def test_fixture_counterexample_pair():
    m = cf.Manifest(p=7, trunc=2)
    f, i = fx.fixture("reedy-sm7", m)
    assert f.source.level(0).is_zero()
    assert i.weq is True
    assert i.source == ss.horn_inclusion(2, 1, 0).source


def test_fixture_unknown_name():
    m = cf.Manifest(p=7, trunc=2)
    with pytest.raises(SchemaError, match="unknown fixture"):
        fx.fixture("torus:2", m)
    with pytest.raises(SchemaError):
        fx.fixture("horn:9:0", m)
