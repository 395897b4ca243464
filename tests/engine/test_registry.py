"""Tests for the engine registry and the live METHODS view."""

import pytest

import repro
from repro import knn_join
from repro.baselines.brute_force import brute_force_knn
from repro.engine import (EngineCaps, EngineSpec, engine_names, get_engine,
                          register, unregister)
from repro.errors import ValidationError

BUILTIN = ("sweet", "ti-gpu", "ti-cpu", "cublas", "brute", "kdtree",
           "range-join", "self-join-eps", "rknn", "range-join-brute",
           "rknn-brute", "graph-bfs", "graph-greedy",
           "ti-flat")


def _toy_run(queries, targets, k, ctx, **options):
    return brute_force_knn(queries, targets, k)


@pytest.fixture
def toy_engine():
    spec = register(EngineSpec(name="toy", run=_toy_run,
                               description="brute force in disguise"))
    yield spec
    try:
        unregister("toy")
    except ValidationError:
        pass


class TestRegistry:
    def test_builtin_engines(self):
        assert engine_names() == BUILTIN

    def test_get_engine_roundtrip(self):
        spec = get_engine("sweet")
        assert spec.name == "sweet"
        assert spec.caps.needs_device
        assert spec.caps.supports_prepared_index

    def test_unknown_method_lists_registered_names(self):
        with pytest.raises(ValidationError) as err:
            get_engine("magic")
        message = str(err.value)
        assert "magic" in message
        for name in BUILTIN:
            assert name in message

    def test_register_rejects_non_spec(self):
        with pytest.raises(ValidationError):
            register(object())

    def test_register_duplicate_requires_replace(self, toy_engine):
        with pytest.raises(ValidationError):
            register(EngineSpec(name="toy", run=_toy_run))
        replaced = register(EngineSpec(name="toy", run=_toy_run),
                            replace=True)
        assert get_engine("toy") is replaced

    def test_unregister_unknown(self):
        with pytest.raises(ValidationError):
            unregister("magic")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EngineSpec(name="", run=_toy_run)
        with pytest.raises(ValueError):
            EngineSpec(name="x", run="not callable")


class TestCustomEngine:
    def test_dispatchable_via_knn_join(self, toy_engine, clustered_points):
        ref = knn_join(clustered_points, clustered_points, 5, method="brute")
        res = knn_join(clustered_points, clustered_points, 5, method="toy")
        assert res.matches(ref)

    def test_caps_default_to_minimal(self, toy_engine):
        assert toy_engine.caps == EngineCaps()
        assert not toy_engine.caps.needs_device
        assert not toy_engine.caps.supports_prepared_index


class TestMethodsView:
    def test_matches_builtin_tuple(self):
        assert repro.METHODS == BUILTIN
        assert tuple(repro.METHODS) == BUILTIN
        assert len(repro.METHODS) == len(BUILTIN)
        assert repro.METHODS[0] == "sweet"

    def test_tracks_registration(self, toy_engine):
        assert "toy" in repro.METHODS
        unregister("toy")
        assert "toy" not in repro.METHODS
        assert repro.METHODS == BUILTIN

    def test_unhashable_live_view(self):
        with pytest.raises(TypeError):
            hash(repro.METHODS)
