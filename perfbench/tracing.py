"""Spans around the program's layer functions, recorded from outside.

The traced run replaces each layer function in the namespace that calls
it with a wrapper that records a span (name, start, end, parent) and
the exact counts the layer's return value carries.  Spans stay in
memory and are written out when the run ends; a layer's *self time* is
its span's duration minus the part its child spans cover.  Nothing is
patched unless an :class:`Instrumentation` is entered, so untraced
operations run the program untouched.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for a root


class Tracer:
    """In-memory span store plus exact per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: last value of a layer property (grid bins, compiled terms)
        self.gauges: dict[str, float] = {}
        #: bin edges of the last grid built, per calling namespace
        self.last_edges: dict[str, tuple] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def self_times(self, roots: set[str] | None = None) -> Counter:
        """Summed self time per span name; with ``roots``, only spans
        inside a root span of one of those names count."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        inside = self._under(roots) if roots is not None else None
        out: Counter = Counter()
        for i, span in enumerate(self.spans):
            if inside is None or inside[i]:
                out[span.name] += span.end - span.start - child[i]
        return out

    def _under(self, roots: set[str]) -> list[bool]:
        # parents always precede their children in the store
        inside = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            inside[i] = span.name in roots or (
                span.parent >= 0 and inside[span.parent])
        return inside

    def write(self, path: str | os.PathLike, absent: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": dict(self.counts), "gauges": self.gauges,
                       "absent": absent}, fh)


#: a counter hook: (tracer, call args, call kwargs, return value)
Note = Callable[[Tracer, tuple, dict, Any], None]


def _count(key: str, fn: Callable[[tuple, dict, Any], float]) -> Note:
    def note(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[key] += fn(args, kwargs, result)
    return note


def _route(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts[f"candidates.levels_{result[0]}"] += 1


def _identify(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["population.cdus"] += args[1].n_units
    tracer.counts["identify.dense"] += result[1]
    tracer.counts["pmafia.levels"] += 1


def _grid(namespace: str) -> Note:
    """Count grid builds whose bin edges differ from the namespace's
    previous build."""
    def note(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        edges = tuple(dg.edges for dg in result)
        if edges != tracer.last_edges.get(namespace):
            tracer.counts["adaptive_grid.rebuilds"] += 1
            tracer.last_edges[namespace] = edges
        tracer.gauges["adaptive_grid.bins"] = sum(result.nbins())
    return note


def _index_bytes(index: Any) -> int:
    return 0 if index is None else index.n_pairs * index.row_bytes


def _store_bytes(store: Any) -> int:
    if store is None:
        return 0
    return store.n_dims * store.n_records * np.dtype(store.dtype).itemsize


_RAW = _count("candidates.cdus_raw", lambda a, k, r: r[0].n_units)
_RAW_DIRECT = _count("candidates.cdus_raw", lambda a, k, r: r.n_raw)
_UNIQUE = _count("dedup.cdus_unique", lambda a, k, r: r[0].n_units)
_REGISTERED = _count("dnf.registered_units",
                     lambda a, k, r: sum(t.n_units for t, _ in r))
_CLUSTERS = _count("pmafia.clusters", lambda a, k, r: len(r))
_BINNED = _count("binned.bytes", lambda a, k, r: _store_bytes(r))
_BITMAP = _count("bitmap_index.bytes", lambda a, k, r: _index_bytes(r))
_SPILL = _count("records.spill_bytes",
                lambda a, k, r: os.path.getsize(a[0]))


def _terms(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.gauges["compile.terms"] = result.n_terms


#: (module, attribute, span name, counter hook) for every layer call
#: the traced run observes, in the namespace that makes the call
LAYERS: tuple[tuple[str, str, str, Note | None], ...] = (
    ("repro.core.pmafia", "stage_local", "records.stage", None),
    ("repro.core.pmafia", "global_domains", "histogram.domains", None),
    ("repro.core.pmafia", "fine_histogram_global", "histogram.fine", None),
    ("repro.core.pmafia", "build_grid", "adaptive_grid.build",
     _grid("repro.core.pmafia")),
    ("repro.core.pmafia", "stage_binned", "binned.stage", _BINNED),
    ("repro.core.pmafia", "stage_bitmap_index", "bitmap_index.stage",
     _BITMAP),
    ("repro.core.pmafia", "resolved_join_strategy", "candidates.join",
     _route),
    ("repro.core.pmafia", "_find_candidate_dense_units", "candidates.join",
     _RAW),
    ("repro.core.pmafia", "lattice_step", "candidates.join", _RAW_DIRECT),
    ("repro.core.pmafia", "_eliminate_repeat_cdus", "dedup.dedup", _UNIQUE),
    ("repro.core.pmafia", "populate_global", "population.populate", None),
    ("repro.core.pmafia", "DirectMiner.counts_for", "population.populate",
     None),
    ("repro.core.pmafia", "_identify_dense", "identify.identify", _identify),
    ("repro.core.pmafia", "registrations_for_report", "dnf.report",
     _REGISTERED),
    ("repro.core.pmafia", "assemble_clusters", "pmafia.assembly", _CLUSTERS),
    ("repro.stream.engine", "block_histogram", "histogram.block", None),
    ("repro.stream.engine", "build_grid", "adaptive_grid.build",
     _grid("repro.stream.engine")),
    ("repro.stream.engine", "write_records", "records.spill", _SPILL),
    ("repro.stream.engine", "append_bitmap_index", "bitmap_index.append",
     None),
    ("repro.stream.engine", "append_bitmap_tiles", "bitmap_index.append",
     None),
    ("repro.stream.engine", "resolved_join_strategy", "candidates.join",
     _route),
    ("repro.stream.engine", "_find_candidate_dense_units", "candidates.join",
     _RAW),
    ("repro.stream.engine", "_eliminate_repeat_cdus", "dedup.dedup",
     _UNIQUE),
    ("repro.stream.engine", "_identify_dense", "identify.identify",
     _identify),
    ("repro.stream.engine", "registrations_for_report", "dnf.report",
     _REGISTERED),
    ("repro.stream.engine", "assemble_clusters", "pmafia.assembly",
     _CLUSTERS),
    ("repro.stream.window", "build_bitmap_index", "bitmap_index.stage",
     _BITMAP),
    ("repro.stream.window", "count_units", "population.populate", None),
    ("repro.serve.engine", "compile_result", "compile.compile", _terms),
)


def _resolve(module: Any, path: str) -> tuple[Any, str] | None:
    owner = module
    *outer, leaf = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


def _wrapped(tracer: Tracer, fn: Callable, name: str,
             note: Note | None) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if note is not None:
            note(tracer, args, kwargs, result)
        return result
    return wrapper


class Instrumentation:
    """Wrap every layer in :data:`LAYERS` while entered.

    A module is looked up in ``sys.modules`` (``repro.core.pmafia`` as an
    attribute of ``repro.core`` is the re-exported function, not the
    module).  A function that no longer exists is listed in ``absent``
    instead of failing the run.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.absent: list[str] = []
        self._patches: list[tuple[Any, str, Callable, Callable]] = []
        for module_name, path, name, note in LAYERS:
            found = None
            if module_name in sys.modules:
                found = _resolve(sys.modules[module_name], path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, leaf = found
            original = getattr(owner, leaf)
            self._patches.append(
                (owner, leaf, original,
                 _wrapped(tracer, original, name, note)))

    def __enter__(self) -> "Instrumentation":
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original, _ in reversed(self._patches):
            setattr(owner, leaf, original)


#: the public collectives of the communicator base class
COLLECTIVES = ("barrier", "bcast", "gather", "allgather", "scatter",
               "allreduce", "reduce")


def _payload_nbytes(obj: Any) -> int:
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class CommCounters:
    """Count outermost collective calls, their local payload bytes and
    the seconds spent inside them (waiting included), over all ranks of
    a thread-backend run.  Collectives compose (``allreduce`` runs
    ``allgather`` runs ``gather`` + ``bcast``), so nested calls are the
    wire pattern of the outer one and are not counted again."""

    def __init__(self, comm_class: type) -> None:
        self.collectives = 0
        self.bytes = 0
        self.wait_s = 0.0
        self._cls = comm_class
        self._originals: dict[str, Callable] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, fn: Callable) -> Callable:
        def wrapper(comm, *args, **kwargs):
            depth = getattr(self._local, "depth", 0)
            if depth:
                self._local.depth = depth + 1
                try:
                    return fn(comm, *args, **kwargs)
                finally:
                    self._local.depth = depth
            nbytes = _payload_nbytes(args[0] if args else None)
            self._local.depth = 1
            t0 = time.perf_counter()
            try:
                return fn(comm, *args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self._local.depth = 0
                with self._lock:
                    self.collectives += 1
                    self.bytes += nbytes
                    self.wait_s += seconds
        return wrapper

    def __enter__(self) -> "CommCounters":
        for name in COLLECTIVES:
            original = self._cls.__dict__.get(name)
            if original is not None:
                self._originals[name] = original
                setattr(self._cls, name, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._originals.items():
            setattr(self._cls, name, original)
        self._originals.clear()
