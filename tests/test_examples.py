"""Smoke tests: the example applications must stay runnable.

Each example's ``main()`` is imported and executed with its workload
constants monkeypatched down so the suite stays fast; the examples'
own assertions (exactness versus the baseline) still run.
"""

import importlib.util
import os

_EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


def _load(name):
    path = os.path.join(_EXAMPLES, name + ".py")
    spec = importlib.util.spec_from_file_location("example_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart(capsys):
    example = _load("quickstart")
    example.main()
    out = capsys.readouterr().out
    assert "sweet" in out
    assert "True" in out  # exactness checks


def test_image_retrieval(capsys, monkeypatch):
    example = _load("image_retrieval")
    monkeypatch.setattr(example, "CORPUS_SIZE", 600)
    monkeypatch.setattr(example, "QUERY_SIZE", 60)
    monkeypatch.setattr(example, "DESCRIPTOR_DIM", 16)
    example.main()
    out = capsys.readouterr().out
    assert "classification accuracy" in out


def test_spatial_join(capsys, monkeypatch):
    example = _load("spatial_join")
    monkeypatch.setattr(example, "PROBES", 800)
    monkeypatch.setattr(example, "STATIONS", 500)
    example.main()
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "memory partitions" in out


def test_adaptive_tour(capsys, monkeypatch):
    example = _load("adaptive_tour")
    # Still above k = 256, so the first scenario keeps k/d = 64 > 8.
    monkeypatch.setattr(example, "N", 400)
    example.main()
    out = capsys.readouterr().out
    assert "partial filtering" in out
    assert "shared memory" in out


def test_approximate_search(capsys, monkeypatch):
    example = _load("approximate_search")
    monkeypatch.setattr(example, "N", 800)
    example.main()
    out = capsys.readouterr().out
    assert "epsilon" in out
    assert "guarantee" in out


def test_near_duplicates(capsys, monkeypatch):
    example = _load("near_duplicates")
    monkeypatch.setattr(example, "CATALOG", 600)
    example.main()
    out = capsys.readouterr().out
    assert "precision" in out
    assert "near-duplicates" in out
