"""Seeded input generator for the benchmark workloads.

Only numpy is used: the records are built here, not by ``repro.datagen``,
so a later change to the program's generator cannot change what the
benchmark measures.  Every record lies in ``[0, 100)`` in every
dimension.  A planted cluster is a box with integer-aligned extents in
its own subspace (uniform inside the box, uniform over ``[0, 100)`` in
the other dimensions); noise records are uniform everywhere.  Rows are
shuffled, so a stream replay mixes clusters and noise in every delta.

The planted layout (which subspaces, how they overlap, where each box
lies) is fixed per workload; the seed relabels the dimensions and draws
the records.

Density: a planted unit is dense only if the cluster holds more than
``alpha * n * width / 100`` records (the max-of-bin-thresholds rule with
the default ``alpha = 1.5``).  Widths of 5-8 therefore need a cluster
share above 12 %, which is why the batch workloads plant five clusters,
not ten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: every dimension's values lie in [0, DOMAIN)
DOMAIN = 100.0

#: share of uniform noise records
NOISE = 0.10


@dataclass(frozen=True)
class Planted:
    """One planted cluster: its subspace and one ``[lo, hi)`` per dim."""

    dims: tuple[int, ...]
    extents: tuple[tuple[float, float], ...]


@dataclass
class Inputs:
    """Everything one workload run is made of.

    ``labels[i]`` is the planted cluster of record ``i`` (-1 for
    noise).  ``planted`` are the boxes of the records before
    ``relocate_at``; from ``relocate_at`` on (stream workload only)
    cluster 0 lives in ``moved`` instead.  ``heldout`` are records drawn
    from the final distribution and never clustered, only scored.
    """

    records: np.ndarray
    labels: np.ndarray
    planted: tuple[Planted, ...]
    heldout: np.ndarray
    relocate_at: int | None = None
    moved: Planted | None = None

    def planted_at(self, stop: int) -> tuple[Planted, ...]:
        """The planted boxes that hold for records just before ``stop``."""
        if self.relocate_at is None or stop <= self.relocate_at:
            return self.planted
        return (self.moved,) + self.planted[1:]


#: seeds the planted layout — which subspaces, how they overlap, where
#: each box lies — which is part of a workload's definition.  ``--seed``
#: relabels the dimensions and draws every record, so seeds differ in
#: their records but not in the lattice work they ask for.
LAYOUT_SEED = 20000


def _extent(rng: np.random.Generator, taken: list[tuple[float, float]]
            ) -> tuple[float, float]:
    """An integer-aligned extent of width 5-8 inside [5, 93), at least 2
    away from every extent already ``taken`` in the same dimension."""
    for _ in range(1000):
        width = int(rng.integers(5, 9))
        lo = float(rng.integers(5, 93 - width))
        hi = lo + width
        if all(hi + 2 <= t_lo or lo >= t_hi + 2 for t_lo, t_hi in taken):
            taken.append((lo, hi))
            return lo, hi
    raise RuntimeError("cannot place a disjoint extent")


def _layout(n_clusters: int, dims_range: tuple[int, int], n_dims: int,
            moved: bool = False) -> list[Planted]:
    """The fixed boxes: distinct subspaces, extents disjoint per
    dimension; with ``moved``, one more box in cluster 0's subspace."""
    rng = np.random.default_rng(LAYOUT_SEED)
    used: dict[int, list[tuple[float, float]]] = {}
    boxes: list[Planted] = []
    while len(boxes) < n_clusters:
        k = int(rng.integers(dims_range[0], dims_range[1] + 1))
        dims = tuple(sorted(rng.choice(n_dims, size=k, replace=False)
                            .tolist()))
        if all(dims != box.dims for box in boxes):
            boxes.append(Planted(dims, tuple(
                _extent(rng, used.setdefault(d, [])) for d in dims)))
    if moved:
        boxes.append(Planted(boxes[0].dims, tuple(
            _extent(rng, used[d]) for d in boxes[0].dims)))
    return boxes


def _relabel(box: Planted, perm: np.ndarray) -> Planted:
    """``box`` with dimension ``d`` renamed ``perm[d]``."""
    pairs = sorted(zip((int(perm[d]) for d in box.dims), box.extents))
    return Planted(tuple(d for d, _ in pairs), tuple(e for _, e in pairs))


def _draw(rng: np.random.Generator, n: int, n_dims: int,
          planted: tuple[Planted, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``n`` shuffled records: NOISE uniform, the rest split evenly
    over the planted boxes."""
    records = rng.random((n, n_dims)) * DOMAIN
    labels = np.full(n, -1, dtype=np.int16)
    n_clustered = n - int(round(NOISE * n))
    shares = np.full(len(planted), n_clustered // len(planted))
    shares[:n_clustered % len(planted)] += 1
    start = 0
    for c, (box, size) in enumerate(zip(planted, shares)):
        rows = slice(start, start + int(size))
        for d, (lo, hi) in zip(box.dims, box.extents):
            records[rows, d] = lo + rng.random(int(size)) * (hi - lo)
        labels[rows] = c
        start += int(size)
    order = rng.permutation(n)
    return np.ascontiguousarray(records[order]), labels[order]


def batch_inputs(seed: int, n_records: int, n_dims: int, n_clusters: int,
                 dims_range: tuple[int, int], n_heldout: int) -> Inputs:
    """A batch data set: ``n_clusters`` planted boxes plus 10 % noise."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_dims)
    planted = tuple(_relabel(box, perm)
                    for box in _layout(n_clusters, dims_range, n_dims))
    records, labels = _draw(rng, n_records, n_dims, planted)
    heldout, _ = _draw(rng, n_heldout, n_dims, planted)
    return Inputs(records, labels, planted, heldout)


def stream_inputs(seed: int, n_records: int, n_dims: int, n_clusters: int,
                  dims_range: tuple[int, int], n_heldout: int,
                  relocate_at: int) -> Inputs:
    """A record stream whose cluster 0 moves to a new box (same
    subspace, disjoint extents) from record ``relocate_at`` on."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_dims)
    *planted, moved = (_relabel(box, perm) for box in
                       _layout(n_clusters, dims_range, n_dims, moved=True))
    planted = tuple(planted)
    after = (moved,) + planted[1:]
    head, head_labels = _draw(rng, relocate_at, n_dims, planted)
    tail, tail_labels = _draw(rng, n_records - relocate_at, n_dims, after)
    heldout, _ = _draw(rng, n_heldout, n_dims, after)
    return Inputs(np.concatenate([head, tail]),
                  np.concatenate([head_labels, tail_labels]),
                  planted, heldout, relocate_at, moved)
