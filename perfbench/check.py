"""Output checks computed apart from the program.

Nothing here imports ``repro``: the checks read a plain description of
a clustering result (``ResultView``) and recompute what it claims from
the records themselves, with numpy only.  Every function returns a list
of error strings; an empty list means the output passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from inputs import Planted

#: share of a planted cluster's records that its reported clusters
#: must cover
MIN_COVERAGE = 0.95


@dataclass
class LevelView:
    """The dense units of one level: ``dims``/``bins`` are ``(m, k)``
    int arrays (dims ascending within a row), ``counts`` is ``(m,)``."""

    dims: np.ndarray
    bins: np.ndarray
    counts: np.ndarray


@dataclass
class ClusterView:
    """One reported cluster: its subspace, the bin cells of its units
    (``(u, k)``, columns following ``dims``), its DNF terms (one
    ``(lo, hi)`` per dim each) and its reported point count."""

    dims: tuple[int, ...]
    units: np.ndarray
    terms: list[list[tuple[float, float]]]
    point_count: int


@dataclass
class ResultView:
    """A clustering result as plain data: per-dimension grid ``edges``
    and per-bin ``thresholds``, the dense units of every level, and the
    clusters."""

    edges: list[np.ndarray]
    thresholds: list[np.ndarray]
    levels: list[LevelView]
    clusters: list[ClusterView]


def bin_codes(records: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """``(d, n)`` bin index of every value: half-open bins
    ``[edges[i], edges[i+1])``, with values outside the grid clipped
    into the first or last bin (every record lands in some bin)."""
    codes = np.empty((records.shape[1], records.shape[0]), dtype=np.int16)
    for d, e in enumerate(edges):
        idx = np.searchsorted(e, records[:, d], side="right") - 1
        codes[d] = np.clip(idx, 0, len(e) - 2)
    return codes


def _unit_keys(level: LevelView) -> list[tuple]:
    return [tuple(d) + tuple(b) for d, b in
            zip(level.dims.tolist(), level.bins.tolist())]


def check_units(records: np.ndarray, view: ResultView) -> list[str]:
    """Recount every dense unit of every level from the records, check
    each count against the result and against the largest threshold of
    the unit's bins, and check downward closure between levels."""
    errors: list[str] = []
    codes = bin_codes(records, view.edges)
    prev_rows: dict[tuple, np.ndarray] = {}
    prev_keys: set[tuple] = set()
    for lv, level in enumerate(view.levels, start=1):
        rows_of: dict[tuple, np.ndarray] = {}
        keys = _unit_keys(level)
        if len(set(keys)) != len(keys):
            errors.append(f"level {lv}: repeated dense units")
        for key, count in zip(keys, level.counts.tolist()):
            dims, bins = key[:lv], key[lv:]
            if lv == 1:
                rows = np.flatnonzero(codes[dims[0]] == bins[0]) \
                    .astype(np.int32)
            else:
                prefix = dims[:-1] + bins[:-1]
                parent = prev_rows.get(prefix)
                if parent is None:
                    # not derivable from a dense parent: count directly
                    # (the closure check below reports the gap)
                    mask = np.ones(records.shape[0], dtype=bool)
                    for d, b in zip(dims, bins):
                        mask &= codes[d] == b
                    rows = np.flatnonzero(mask).astype(np.int32)
                else:
                    rows = parent[codes[dims[-1]][parent] == bins[-1]]
            rows_of[key] = rows
            if rows.size != count:
                errors.append(f"level {lv} unit dims={dims} bins={bins}: "
                              f"result counts {count}, records hold "
                              f"{rows.size}")
            limit = max(float(view.thresholds[d][b])
                        for d, b in zip(dims, bins))
            if not rows.size > limit:
                errors.append(f"level {lv} unit dims={dims} bins={bins}: "
                              f"{rows.size} records do not exceed the "
                              f"threshold {limit}")
            if lv > 1:
                for drop in range(lv):
                    sub = (dims[:drop] + dims[drop + 1:]
                           + bins[:drop] + bins[drop + 1:])
                    if sub not in prev_keys:
                        errors.append(
                            f"level {lv} unit dims={dims} bins={bins}: "
                            f"projection {sub} is not dense at level "
                            f"{lv - 1}")
        prev_rows, prev_keys = rows_of, set(keys)
    return errors


def _term_cells(term: list[tuple[float, float]], dims: tuple[int, ...],
                edges: list[np.ndarray]) -> set[tuple[int, ...]] | None:
    """The bin cells one DNF term spans, or None when an interval end is
    not a grid edge."""
    ranges = []
    for d, (lo, hi) in zip(dims, term):
        e = edges[d]
        i_lo = int(np.searchsorted(e, lo))
        i_hi = int(np.searchsorted(e, hi))
        if i_lo >= len(e) or i_hi >= len(e) or e[i_lo] != lo \
                or e[i_hi] != hi or i_hi <= i_lo:
            return None
        ranges.append(range(i_lo, i_hi))
    cells: set[tuple[int, ...]] = {()}
    for r in ranges:
        cells = {c + (b,) for c in cells for b in r}
    return cells


def check_clusters(view: ResultView) -> list[str]:
    """Each cluster's units are dense units of its level, its DNF covers
    exactly its units' cells, and its point count is the sum of its
    units' counts."""
    errors: list[str] = []
    counts_of: dict[tuple, int] = {}
    for level in view.levels:
        counts_of.update(zip(_unit_keys(level), level.counts.tolist()))
    for i, cl in enumerate(view.clusters):
        cells = {tuple(row) for row in cl.units.tolist()}
        covered: set[tuple[int, ...]] = set()
        for term in cl.terms:
            span = _term_cells(term, cl.dims, view.edges)
            if span is None:
                errors.append(f"cluster {i} {cl.dims}: DNF interval off the "
                              f"grid edges: {term}")
                continue
            covered |= span
        if covered != cells:
            errors.append(f"cluster {i} {cl.dims}: DNF covers "
                          f"{len(covered - cells)} cells outside its units "
                          f"and misses {len(cells - covered)}")
        total = 0
        for cell in sorted(cells):
            count = counts_of.get(tuple(cl.dims) + cell)
            if count is None:
                errors.append(f"cluster {i} {cl.dims}: unit {cell} is not a "
                              f"dense unit")
                continue
            total += count
        if total != cl.point_count:
            errors.append(f"cluster {i} {cl.dims}: point_count "
                          f"{cl.point_count} != sum of unit counts {total}")
    return errors


def dnf_membership(records: np.ndarray, clusters: list[ClusterView]
                   ) -> np.ndarray:
    """``(n, n_clusters)`` membership by direct interval evaluation: a
    record belongs to a cluster when some DNF term holds
    ``lo <= x < hi`` in every one of the term's dimensions."""
    out = np.zeros((records.shape[0], len(clusters)), dtype=bool)
    for j, cl in enumerate(clusters):
        for term in cl.terms:
            inside = np.ones(records.shape[0], dtype=bool)
            for d, (lo, hi) in zip(cl.dims, term):
                col = records[:, d]
                inside &= (col >= lo) & (col < hi)
            out[:, j] |= inside
    return out


def check_planted(records: np.ndarray, labels: np.ndarray,
                  planted: tuple[Planted, ...], view: ResultView
                  ) -> list[str]:
    """Every planted subspace is reported, and the clusters reported in
    it cover at least MIN_COVERAGE of the records planted there (by
    label, not by box membership)."""
    errors: list[str] = []
    for c, box in enumerate(planted):
        mine = [cl for cl in view.clusters if cl.dims == box.dims]
        if not mine:
            errors.append(f"planted cluster {c} in {box.dims} not reported")
            continue
        members = records[labels == c]
        if members.shape[0] == 0:
            errors.append(f"planted cluster {c} has no live records")
            continue
        share = float(dnf_membership(members, mine).any(axis=1).mean())
        if share < MIN_COVERAGE:
            errors.append(f"planted cluster {c} in {box.dims}: reported "
                          f"clusters cover {share:.4f} of its records")
    return errors


def check_membership(served: np.ndarray, records: np.ndarray,
                     clusters: list[ClusterView]) -> list[str]:
    """Served membership equals the DNF evaluated here."""
    expected = dnf_membership(records, clusters)
    if served.shape != expected.shape:
        return [f"served membership has shape {served.shape}, expected "
                f"{expected.shape}"]
    wrong = int((served != expected).sum())
    return [f"{wrong} served membership bits differ from the DNF"] \
        if wrong else []


def check_result(records: np.ndarray, labels: np.ndarray,
                 planted: tuple[Planted, ...], view: ResultView
                 ) -> list[str]:
    """Every check of one clustering result over ``records``."""
    return (check_units(records, view) + check_clusters(view)
            + check_planted(records, labels, planted, view))


def same_result(a: ResultView, b: ResultView) -> list[str]:
    """Differences between two results (grid, every level's dense units
    and counts, every cluster)."""
    errors: list[str] = []
    if len(a.edges) != len(b.edges) or any(
            not np.array_equal(x, y) for x, y in zip(a.edges, b.edges)):
        errors.append("grid edges differ")
    if any(not np.array_equal(x, y)
           for x, y in zip(a.thresholds, b.thresholds)):
        errors.append("bin thresholds differ")
    if len(a.levels) != len(b.levels):
        errors.append(f"{len(a.levels)} levels vs {len(b.levels)}")
    for k, (x, y) in enumerate(zip(a.levels, b.levels), start=1):
        if not (np.array_equal(x.dims, y.dims)
                and np.array_equal(x.bins, y.bins)
                and np.array_equal(x.counts, y.counts)):
            errors.append(f"level {k} dense units or counts differ")
    if len(a.clusters) != len(b.clusters):
        errors.append(f"{len(a.clusters)} clusters vs {len(b.clusters)}")
    for i, (x, y) in enumerate(zip(a.clusters, b.clusters)):
        if (x.dims != y.dims or not np.array_equal(x.units, y.units)
                or x.terms != y.terms or x.point_count != y.point_count):
            errors.append(f"cluster {i} differs")
    return errors

