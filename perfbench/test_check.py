"""Tests of the benchmark's output checker: it accepts a real result and
rejects one altered unit count, a dropped planted cluster and one
flipped membership bit.

    PYTHONPATH=src python -m pytest -q perfbench/test_check.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
from inputs import batch_inputs  # noqa: E402
from workloads import view_of  # noqa: E402


@pytest.fixture(scope="module")
def case():
    from repro import mafia
    from repro.serve import ClusterServer
    inp = batch_inputs(3, 100_000, 8, 2, (3, 3), 4_000)
    result = mafia(inp.records)
    served = ClusterServer(result).score_batch(inp.heldout).membership
    return inp, view_of(result), served


def test_accepts_the_program_output(case):
    inp, view, served = case
    assert len(view.clusters) >= len(inp.planted)
    assert check.check_result(inp.records, inp.labels, inp.planted,
                              view) == []
    assert check.check_membership(served, inp.heldout, view.clusters) == []


def test_rejects_one_altered_unit_count(case):
    inp, view, _ = case
    bad = copy.deepcopy(view)
    bad.levels[1].counts[0] += 1
    errors = check.check_units(inp.records, bad)
    assert len(errors) == 1 and "result counts" in errors[0]


def test_rejects_a_dropped_planted_cluster(case):
    inp, view, _ = case
    bad = copy.deepcopy(view)
    dims = inp.planted[0].dims
    bad.clusters = [c for c in bad.clusters if c.dims != dims]
    errors = check.check_planted(inp.records, inp.labels, inp.planted, bad)
    assert errors == [f"planted cluster 0 in {dims} not reported"]


def test_rejects_one_flipped_membership_bit(case):
    inp, view, served = case
    bad = served.copy()
    bad[17, 0] = ~bad[17, 0]
    assert check.check_membership(bad, inp.heldout, view.clusters) == [
        "1 served membership bits differ from the DNF"]


def test_rejects_a_dnf_that_misses_a_cell(case):
    _, view, _ = case
    bad = copy.deepcopy(view)
    cluster = bad.clusters[0]
    lo, hi = cluster.terms[0][0]
    edges = bad.edges[cluster.dims[0]]
    # widen the first interval by one bin: the term now spans cells
    # that are not units of the cluster
    i = int(np.searchsorted(edges, hi))
    if i + 1 < len(edges):
        cluster.terms[0][0] = (lo, float(edges[i + 1]))
    else:
        cluster.terms[0][0] = (float(edges[int(np.searchsorted(edges, lo))
                                           - 1]), hi)
    errors = check.check_clusters(bad)
    assert len(errors) == 1 and "cells outside its units" in errors[0]


def test_rejects_a_wrong_point_count(case):
    _, view, _ = case
    bad = copy.deepcopy(view)
    bad.clusters[0].point_count += 1
    errors = check.check_clusters(bad)
    assert len(errors) == 1 and "point_count" in errors[0]


def test_rejects_a_broken_downward_closure(case):
    inp, view, _ = case
    bad = copy.deepcopy(view)
    # drop the level-2 unit under the first level-3 unit's last two dims
    top = bad.levels[2]
    under = (tuple(top.dims[0, 1:]), tuple(top.bins[0, 1:]))
    level = bad.levels[1]
    keep = np.array([(tuple(d), tuple(b)) != under for d, b in
                     zip(level.dims.tolist(), level.bins.tolist())])
    assert (~keep).sum() == 1
    bad.levels[1] = check.LevelView(level.dims[keep], level.bins[keep],
                                    level.counts[keep])
    errors = check.check_units(inp.records, bad)
    assert errors and all("is not dense at level 2" in e for e in errors)


def test_bin_codes_are_half_open_and_clipped():
    edges = [np.array([0.0, 1.0, 2.5, 4.0])]
    values = np.array([[-1.0], [0.0], [0.999], [1.0], [2.5], [3.99],
                       [4.0], [9.0]])
    assert check.bin_codes(values, edges)[0].tolist() == [
        0, 0, 0, 1, 2, 2, 2, 2]
