"""The benchmark's workloads: what one run builds, times and checks.

A run is: inputs from the seed (not timed), the program's set-up
(``setup_s``), then whole *rounds* until ``--seconds`` have passed,
then the output checks.  A batch round is one cold ``mafia()`` over the
record file (``cluster_s``), one windowless replay of the record file
through a ``StreamingSession`` ending in one snapshot
(``ingest_rec_per_s``, ``snapshot_s``), and ``score_passes`` passes of
the held-out records through a fresh ``ClusterServer``
(``score_rec_per_s``).  A ``stream_window`` round is one replay through
the sliding window with periodic snapshots, with a cold ``mafia()`` over
the final live window and one score pass after every ``cold_every``-th
snapshot, so that every metric's samples spread over the whole round.

A traced run (``--trace 1``) runs every cold ``mafia()`` twice, once
with the layer wrappers of :mod:`tracing` in place and once without,
so the ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import importlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import check
from inputs import DOMAIN, Inputs, batch_inputs, stream_inputs
from tracing import CommCounters, Instrumentation, Tracer

#: the modules whose import is part of the program's set-up
IMPORTS = ("repro", "repro.io.records", "repro.serve", "repro.stream")

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3

#: records per ``score_batch`` call
SCORE_BATCH = 5_000


@dataclass(frozen=True)
class Workload:
    name: str
    n_records: int
    n_dims: int
    n_clusters: int
    cluster_dims: tuple[int, int]
    n_heldout: int
    delta_records: int
    score_passes: int = 0            # per batch round
    min_rounds: int = 1              # untraced runs
    cold_every: int = 0              # snapshots (stream_window)
    window: int | None = None        # sliding window (stream_window)
    relocate_at: int | None = None   # first record of the moved cluster
    snapshot_every: int = 0          # deltas; 0 = one final snapshot
    compact_segments: int = 64

    @property
    def streaming(self) -> bool:
        return self.window is not None

    def inputs(self, seed: int) -> Inputs:
        if self.streaming:
            return stream_inputs(seed, self.n_records, self.n_dims,
                                 self.n_clusters, self.cluster_dims,
                                 self.n_heldout, self.relocate_at)
        return batch_inputs(seed, self.n_records, self.n_dims,
                            self.n_clusters, self.cluster_dims,
                            self.n_heldout)


WORKLOADS = {w.name: w for w in (
    # float passes (domains, fine histogram, bin staging) dominate
    Workload("batch_shallow", n_records=2_000_000, n_dims=20, n_clusters=5,
             cluster_dims=(5, 6), n_heldout=250_000, delta_records=100_000,
             score_passes=3),
    # Figure 7 shape: report selection dominates
    Workload("batch_deep", n_records=100_000, n_dims=50, n_clusters=1,
             cluster_dims=(10, 10), n_heldout=250_000, delta_records=10_000,
             score_passes=4, min_rounds=2),
    # incremental binning/bitmap/lattice with spill, expiry, compaction
    Workload("stream_window", n_records=1_000_000, n_dims=20, n_clusters=4,
             cluster_dims=(5, 5), n_heldout=250_000, delta_records=10_000,
             cold_every=5, window=300_000, relocate_at=500_000,
             snapshot_every=4, compact_segments=16),
)}


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> float:
    """The highest sample with at least ten samples above it (the
    largest one when there are fewer than eleven)."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def view_of(result: Any) -> check.ResultView:
    """A clustering result as the plain data the checker reads."""
    return check.ResultView(
        edges=[np.asarray(dg.edges, dtype=np.float64) for dg in result.grid],
        thresholds=[np.asarray(dg.thresholds, dtype=np.float64)
                    for dg in result.grid],
        levels=[check.LevelView(lt.dense.dims.astype(np.int64),
                                lt.dense.bins.astype(np.int64),
                                np.asarray(lt.dense_counts, dtype=np.int64))
                for lt in result.trace],
        clusters=[check.ClusterView(tuple(c.subspace.dims),
                                    np.asarray(c.units_bins, dtype=np.int64),
                                    [list(t.intervals) for t in c.dnf],
                                    int(c.point_count))
                  for c in result.clusters])


#: every per-layer metric with its unit; layer seconds and counts are
#: per round, summed over the round's traced operations
LAYER_UNITS = {
    "records.write_s": "s", "records.bytes": "bytes",
    "records.spill_bytes": "bytes", "records.stage_s": "s",
    "histogram.domains_s": "s", "histogram.fine_s": "s",
    "histogram.block_s": "s",
    "adaptive_grid.build_s": "s", "adaptive_grid.bins": "count",
    "adaptive_grid.rebuilds": "count",
    "binned.stage_s": "s", "binned.bytes": "bytes",
    "bitmap_index.stage_s": "s", "bitmap_index.append_s": "s",
    "bitmap_index.bytes": "bytes",
    "candidates.join_s": "s", "candidates.cdus_raw": "count",
    "candidates.levels_pairwise": "count", "candidates.levels_hash": "count",
    "candidates.levels_fptree": "count", "candidates.levels_direct": "count",
    "dedup.dedup_s": "s", "dedup.kept_ratio": "ratio",
    "population.populate_s": "s", "population.cdus": "count",
    "identify.identify_s": "s", "identify.dense_ratio": "ratio",
    "dnf.report_s": "s", "dnf.registered_units": "count",
    "pmafia.assembly_s": "s", "pmafia.clusters": "count",
    "pmafia.levels": "count", "pmafia.unattributed_s": "s",
    "pmafia.cluster_s": "s",
    "stream.ingest_total_s": "s", "stream.snapshot_total_s": "s",
    "stream.snapshot_tail_s": "s",
    "compile.compile_s": "s", "compile.terms": "count",
    "serve.score_s": "s", "serve.cache_hit_rate": "ratio",
    "serve.evaluated_ratio": "ratio",
    "comm.collectives": "count", "comm.bytes": "bytes", "comm.wait_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: span names inside a traced ``mafia()`` and the metric each feeds; a
#: batch run's metrics for these plus ``pmafia.unattributed_s`` sum to
#: ``pmafia.cluster_s``
CLUSTER_LAYERS = {
    "records.stage": "records.stage_s",
    "histogram.domains": "histogram.domains_s",
    "histogram.fine": "histogram.fine_s",
    "adaptive_grid.build": "adaptive_grid.build_s",
    "binned.stage": "binned.stage_s",
    "bitmap_index.stage": "bitmap_index.stage_s",
    "candidates.join": "candidates.join_s",
    "dedup.dedup": "dedup.dedup_s",
    "population.populate": "population.populate_s",
    "identify.identify": "identify.identify_s",
    "dnf.report": "dnf.report_s",
    "pmafia.assembly": "pmafia.assembly_s",
    "pmafia.run": "pmafia.unattributed_s",
}


class OperationFailed(Exception):
    """An operation of the program raised; the round is abandoned."""


class Run:
    """One benchmark run of one workload in this process."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, root: Path) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.work = (root / ".perfbench_work"
                     / f"{workload.name}-{os.getpid()}")
        self.path = self.work / "data.rec"
        self.tracer = Tracer()
        self.instrumentation: Instrumentation | None = None
        self.comm: CommCounters | None = None
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        # samples
        self.setup_s: list[float] = []
        self.write_s: list[float] = []
        self.cluster_s: list[float] = []
        self.cluster_traced_s: list[float] = []
        self.ingest_s: list[float] = []
        self.snapshot_s: list[float] = []
        self.score_rate: list[float] = []
        # outputs kept for the checks
        self.results: list[check.ResultView] = []
        self.final_snapshots: list[check.ResultView] = []
        self.checked: dict[int, check.ResultView] = {}
        self.served: np.ndarray | None = None

    def op(self, fn: Callable, *args, **kwargs) -> Any:
        """Call the program once, counting the attempt and any failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OperationFailed(repr(exc)) from exc

    def traced(self, on: bool):
        """The layer wrappers when ``on``, else nothing."""
        return self.instrumentation if on else nullcontext()

    # -- set-up --------------------------------------------------------------
    def setup(self) -> None:
        """Import the program and write the records into its record-file
        format, SETUPS times: the first import is this process's own,
        the others are timed in fresh interpreters."""
        self.work.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        for name in IMPORTS:
            importlib.import_module(name)
        first_import = time.perf_counter() - t0
        from repro.io.records import write_records
        for i in range(SETUPS):
            import_s = first_import if i == 0 else self._fresh_import_s()
            t0 = time.perf_counter()
            write_records(self.path, self.inputs.records)
            write_s = time.perf_counter() - t0
            self.write_s.append(write_s)
            self.setup_s.append(import_s + write_s)
        self.path_bytes = self.path.stat().st_size

    def _fresh_import_s(self) -> float:
        code = ("import importlib, sys, time\nimport numpy\n"
                "t0 = time.perf_counter()\n"
                "for name in sys.argv[1:]:\n"
                "    importlib.import_module(name)\n"
                "print(time.perf_counter() - t0)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-c", code, *IMPORTS],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    # -- one round -----------------------------------------------------------
    def _clear_staged(self) -> None:
        """Remove what an earlier ``mafia()`` staged next to the record
        file (rank-local copies, sibling caches), so that every call does
        the work of a first run over a new file."""
        for entry in self.work.iterdir():
            if entry.name.startswith("data.") and entry != self.path:
                entry.unlink()

    def _cluster_once(self, traced: bool) -> Any:
        from repro import mafia
        if self.w.streaming:
            args = (self.inputs.records[-self.w.window:],)
            kwargs = {"domains": stream_domains(self.w)}
        else:
            self._clear_staged()
            args, kwargs = (str(self.path),), {}
        if traced:
            # each traced call counts its own first grid build
            self.tracer.last_edges.pop("repro.core.pmafia", None)
            with self.instrumentation, self.tracer.span("pmafia.run") as span:
                result = self.op(mafia, *args, **kwargs)
            self.cluster_traced_s.append(span.end - span.start)
        else:
            t0 = time.perf_counter()
            result = self.op(mafia, *args, **kwargs)
            self.cluster_s.append(time.perf_counter() - t0)
        self.results.append(view_of(result))
        return result

    def cluster(self) -> Any:
        """One cold run; a traced run pairs it with a traced one,
        alternating which of the two goes first."""
        order = (False,)
        if self.trace:
            order = (True, False) if len(self.cluster_s) % 2 \
                else (False, True)
        for traced in order:
            result = self._cluster_once(traced)
        return result

    def replay(self, batch_result: Any) -> None:
        """Replay the record file through a streaming session in
        fixed-size deltas.  On the batch workloads the session has no
        window and the batch run's own domains, so its one snapshot must
        equal the batch result; it is not traced there, because it
        repeats the batch layers on the same records."""
        from repro.stream import RecordDeltaSource, StreamingSession
        w = self.w
        if w.streaming:
            spill = self.work / f"spill-{self.rounds}"
            kwargs = {"domains": stream_domains(w),
                      "window_records": w.window, "spill_dir": spill,
                      "compact_segments": w.compact_segments}
        else:
            spill = None
            kwargs = {"domains": np.array([[dg.edges[0], dg.edges[-1]]
                                           for dg in batch_result.grid])}
        traced = self.trace and w.streaming
        self.tracer.last_edges.pop("repro.stream.engine", None)
        session = self.op(StreamingSession, **kwargs)
        ingest_s = 0.0
        snapshots = 0
        for delta in RecordDeltaSource(self.path, w.delta_records):
            with self.traced(traced):
                t0 = time.perf_counter()
                self.op(session.ingest, delta.block, delta.seq)
                ingest_s += time.perf_counter() - t0
            end = min((delta.seq + 1) * w.delta_records, w.n_records)
            if end < w.n_records and not (
                    w.snapshot_every
                    and (delta.seq + 1) % w.snapshot_every == 0):
                continue
            with self.traced(traced):
                t0 = time.perf_counter()
                snapshot = self.op(session.snapshot)
                self.snapshot_s.append(time.perf_counter() - t0)
            snapshots += 1
            if self.rounds == 0 and end in self.check_ends:
                self.checked[end] = view_of(snapshot)
            if w.cold_every and snapshots % w.cold_every == 0:
                self.score(self.cluster(), passes=1)
        session.close()
        self.ingest_s.append(ingest_s)
        if spill is not None:
            shutil.rmtree(spill, ignore_errors=True)
        self.final_snapshots.append(view_of(snapshot))

    def score(self, result: Any, passes: int) -> None:
        """Fresh-server passes over the held-out records."""
        from repro.serve import ClusterServer
        held = self.inputs.heldout
        for _ in range(passes):
            parts = []
            with self.traced(self.trace):
                t0 = time.perf_counter()
                server = self.op(ClusterServer, result)
                for lo in range(0, held.shape[0], SCORE_BATCH):
                    with (self.tracer.span("serve.score") if self.trace
                          else nullcontext()):
                        scores = self.op(server.score_batch,
                                         held[lo:lo + SCORE_BATCH])
                    parts.append(scores.membership)
                seconds = time.perf_counter() - t0
            self.score_rate.append(held.shape[0] / seconds)
            stats = server.stats()
            counts = self.tracer.counts
            counts["serve.records"] += stats["records"]
            counts["serve.evaluations"] += stats["evaluations"]
            counts["serve.cache_hits"] += stats["cache"]["hits"]
            counts["serve.cache_lookups"] += (stats["cache"]["hits"]
                                              + stats["cache"]["misses"])
        self.served = np.concatenate(parts)

    def round(self) -> None:
        if self.w.streaming:
            self.replay(None)
        else:
            result = self.cluster()
            self.replay(result)
            self.score(result, self.w.score_passes)

    # -- the run -------------------------------------------------------------
    def execute(self) -> dict:
        """Set up, run whole rounds for the run's seconds, check, and
        return the result object the benchmark prints."""
        marks = [time.perf_counter()]
        self.inputs = self.w.inputs(self.seed)
        self.check_ends = check_ends(self.w)
        errors: list[str] = []
        try:
            marks.append(time.perf_counter())
            self.setup()
            if self.trace:
                self.instrumentation = Instrumentation(self.tracer)
            start = time.perf_counter()
            marks.append(start)
            # a traced run's layer figures carry no bound: one round
            min_rounds = 1 if self.trace else self.w.min_rounds
            while self.rounds < min_rounds \
                    or time.perf_counter() - start < self.seconds:
                try:
                    self.round()
                except OperationFailed as exc:
                    errors.append(f"round {self.rounds}: {exc}")
                self.rounds += 1
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            marks.append(time.perf_counter())
            if self.trace and self.w.name == "batch_shallow":
                try:
                    self.comm = self._two_rank_comm()
                except OperationFailed as exc:
                    errors.append(f"2-rank run: {exc}")
            errors += self.check()
            marks.append(time.perf_counter())
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        phases = np.diff(marks)
        print(f"{self.w.name} seed {self.seed}: inputs {phases[0]:.1f} s, "
              f"set-up {phases[1]:.1f} s, {self.rounds} rounds "
              f"{phases[2]:.1f} s, checks {phases[3]:.1f} s",
              file=sys.stderr)
        if self.trace:
            metrics = self.layer_metrics()
            errors += self._check_attribution(metrics)
            for name in self.instrumentation.absent:
                print(f"absent layer: {name}", file=sys.stderr)
            traces = self.root / ".perfbench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            self.tracer.write(traces / f"{self.w.name}-seed{self.seed}.json",
                              absent=self.instrumentation.absent)
        else:
            metrics = self.end_to_end(peak_rss_mb)
        for line in errors:
            print(f"check failed: {line}", file=sys.stderr)
        return {"correct": not errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def _two_rank_comm(self) -> CommCounters:
        """A 2-rank thread-backend run of the same record file with the
        collectives counted: traffic only, no wall time is reported."""
        from repro import pmafia
        from repro.parallel.comm import Comm
        self._clear_staged()
        with CommCounters(Comm) as counters:
            run = self.op(pmafia, str(self.path), 2, backend="thread")
        self.results.append(view_of(run.result))
        self._clear_staged()
        return counters

    # -- checks --------------------------------------------------------------
    def check(self) -> list[str]:
        if not self.results or not self.final_snapshots \
                or self.served is None:
            return ["no complete round"]
        first = self.results[0]
        errors = []
        for i, other in enumerate(self.results[1:], start=1):
            errors += [f"cluster call {i}: {e}"
                       for e in check.same_result(first, other)]
        inp, w = self.inputs, self.w
        live = slice(w.n_records - (w.window or w.n_records), w.n_records)
        errors += check.check_result(inp.records[live], inp.labels[live],
                                     inp.planted_at(w.n_records), first)
        for i, snap in enumerate(self.final_snapshots):
            errors += [f"final snapshot of replay {i}: {e}"
                       for e in check.same_result(first, snap)]
        if w.streaming:
            errors += self._check_stream(first)
        errors += check.check_membership(self.served, inp.heldout,
                                         first.clusters)
        return errors

    def _check_stream(self, final_cold: check.ResultView) -> list[str]:
        """The checked snapshots equal a cold ``mafia()`` over exactly
        the live records, and the grid re-binned after the relocation."""
        from repro import mafia
        w = self.w
        if set(self.checked) != self.check_ends:
            return [f"snapshots not taken at "
                    f"{sorted(self.check_ends - set(self.checked))}"]
        errors = []
        for end in sorted(self.checked):
            if end == w.n_records:
                cold = final_cold
            else:
                live = self.inputs.records[max(0, end - w.window):end]
                cold = view_of(mafia(live, domains=stream_domains(w)))
            errors += [f"snapshot at {end}: {e}" for e in
                       check.same_result(cold, self.checked[end])]
        before, after = (self.checked[e] for e in sorted(self.checked)[:2])
        if all(np.array_equal(a, b)
               for a, b in zip(before.edges, after.edges)):
            errors.append("the grid did not re-bin after the relocation")
        return errors

    def _check_attribution(self, metrics: dict) -> list[str]:
        """On a batch workload the layer times inside ``mafia()`` plus
        the unattributed residual add up to the traced cluster time."""
        if self.w.streaming:
            return []
        inside = self.tracer.self_times(roots={"pmafia.run"})
        unknown = sorted(set(inside) - set(CLUSTER_LAYERS))
        if unknown:
            return [f"spans inside mafia() with no metric: {unknown}"]
        total = sum(metrics[m]["value"] for m in CLUSTER_LAYERS.values())
        cluster = metrics["pmafia.cluster_s"]["value"]
        if abs(total - cluster) > 1e-6 * max(1.0, cluster):
            return [f"layer times sum to {total}, traced cluster_s is "
                    f"{cluster}"]
        return []

    # -- metrics -------------------------------------------------------------
    def end_to_end(self, peak_rss_mb: float) -> dict:
        values = {
            "setup_s": (_median(self.setup_s), "s"),
            "cluster_s": (_median(self.cluster_s), "s"),
            "score_rec_per_s": (_median(self.score_rate), "rec/s"),
            "ingest_rec_per_s": (self.w.n_records / _median(self.ingest_s),
                                 "rec/s"),
            "snapshot_s": (_median(self.snapshot_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def layer_metrics(self) -> dict:
        tr, n = self.tracer, float(self.rounds)
        own = tr.self_times()
        counts = tr.counts

        def per_round(key: str) -> float:
            return counts[key] / n

        def ratio(a: str, b: str) -> float:
            return counts[a] / counts[b] if counts[b] else 0.0

        values = {metric: own[span] / n
                  for span, metric in CLUSTER_LAYERS.items()}
        values.update({
            "records.write_s": _median(self.write_s),
            "records.bytes": float(self.path_bytes),
            "records.spill_bytes": per_round("records.spill_bytes"),
            "histogram.block_s": own["histogram.block"] / n,
            "adaptive_grid.bins": float(tr.gauges.get("adaptive_grid.bins",
                                                      0)),
            "adaptive_grid.rebuilds": per_round("adaptive_grid.rebuilds"),
            "binned.bytes": per_round("binned.bytes"),
            "bitmap_index.append_s": own["bitmap_index.append"] / n,
            "bitmap_index.bytes": per_round("bitmap_index.bytes"),
            "candidates.cdus_raw": per_round("candidates.cdus_raw"),
            "dedup.kept_ratio": ratio("dedup.cdus_unique",
                                      "candidates.cdus_raw"),
            "population.cdus": per_round("population.cdus"),
            "identify.dense_ratio": ratio("identify.dense",
                                          "population.cdus"),
            "dnf.registered_units": per_round("dnf.registered_units"),
            "pmafia.clusters": per_round("pmafia.clusters"),
            "pmafia.levels": per_round("pmafia.levels"),
            "pmafia.cluster_s": sum(self.cluster_traced_s) / n,
            "stream.ingest_total_s": sum(self.ingest_s) / n,
            "stream.snapshot_total_s": sum(self.snapshot_s) / n,
            "stream.snapshot_tail_s": tail(self.snapshot_s),
            "compile.compile_s": own["compile.compile"] / n,
            "compile.terms": float(tr.gauges.get("compile.terms", 0)),
            "serve.score_s": own["serve.score"] / n,
            "serve.cache_hit_rate": ratio("serve.cache_hits",
                                          "serve.cache_lookups"),
            "serve.evaluated_ratio": ratio("serve.evaluations",
                                           "serve.records"),
            "comm.collectives": float(self.comm.collectives
                                      if self.comm else 0),
            "comm.bytes": float(self.comm.bytes if self.comm else 0),
            "comm.wait_s": self.comm.wait_s if self.comm else 0.0,
            "trace.overhead_ratio": _median(self.cluster_traced_s)
            / _median(self.cluster_s),
        })
        for engine in ("pairwise", "hash", "fptree", "direct"):
            key = f"candidates.levels_{engine}"
            values[key] = per_round(key)
        return {k: {"value": values[k], "unit": u}
                for k, u in LAYER_UNITS.items()}


def stream_domains(w: Workload) -> np.ndarray:
    """The explicit domains a streaming session needs (and the cold
    oracle must share)."""
    return np.array([[0.0, DOMAIN]] * w.n_dims)


def check_ends(w: Workload) -> set[int]:
    """Stream positions whose snapshot is checked against a cold run: the
    last before the relocation, the first once the moved cluster fills
    half the window, and the final one."""
    if not w.streaming:
        return {w.n_records}
    step = w.delta_records * w.snapshot_every
    ends = range(step, w.n_records + 1, step)
    before = max(e for e in ends if e <= w.relocate_at)
    after = min(e for e in ends if e >= w.relocate_at + w.window // 2)
    return {before, after, w.n_records}
