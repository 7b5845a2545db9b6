"""Tests of the benchmark's layer tracing.

    PYTHONPATH=src python -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from inputs import batch_inputs  # noqa: E402
from workloads import IMPORTS  # noqa: E402


@pytest.fixture(autouse=True)
def program():
    """The modules the benchmark imports during set-up."""
    import importlib
    for name in IMPORTS:
        importlib.import_module(name)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    own = tracer.self_times()
    total = tracer.spans[0].end - tracer.spans[0].start
    assert own["inner"] >= 0.02
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert tracer.self_times(roots={"inner"}).keys() == {"inner"}


def test_wrappers_record_layers_and_are_removed_on_exit():
    import repro
    pm = sys.modules["repro.core.pmafia"]
    original = pm.build_grid
    tracer = tracing.Tracer()
    records = batch_inputs(0, 20_000, 6, 1, (2, 2), 10).records
    with tracing.Instrumentation(tracer) as inst:
        assert inst.absent == []
        assert pm.build_grid is not original
        result = repro.mafia(records)
    assert pm.build_grid is original
    names = {s.name for s in tracer.spans}
    assert {"histogram.domains", "histogram.fine", "adaptive_grid.build",
            "binned.stage", "population.populate", "identify.identify",
            "dnf.report", "pmafia.assembly"} <= names
    assert tracer.counts["pmafia.levels"] == len(result.trace)
    assert tracer.counts["pmafia.clusters"] == len(result.clusters)
    joins = sum(tracer.counts[f"candidates.levels_{e}"]
                for e in ("pairwise", "hash", "fptree", "direct"))
    assert 1 <= joins <= len(result.trace)


def test_a_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (
        ("repro.core.pmafia", "no_such_layer", "x.y", None),
        ("repro.no_such_module", "f", "x.z", None)))
    inst = tracing.Instrumentation(tracing.Tracer())
    assert inst.absent == ["repro.core.pmafia.no_such_layer",
                           "repro.no_such_module.f"]
    with inst:
        pass
