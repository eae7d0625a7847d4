"""Span recording around calls into pathidw's modules.

Nothing under ``src/`` is instrumented. Instead, ``install`` replaces public
functions at the module attributes their callers look up (for example
``pathidw.interpolate.fields_for_cells``, which ``interpolate_ipdw`` calls,
or ``pathidw.cli.write_ascii_grid``, which the CLI calls) with wrappers that
record a span per call. Spans carry a name, start, end, parent span and op
id, are kept in memory and are written out when the run ends.

A layer's self time is its span minus the time its child spans cover.
Per-layer metrics are computed over the timed phase of a run (every op plus
a closing step, if the workload has one) and divided by the op count, except
``scenes.make_scene_s``, which is the set-up phase total.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field


SETUP = "setup"
CLOSE = "close"


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: object
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the current phase: SETUP, an op index, or CLOSE.

    While ``phase`` is None (bookkeeping of the benchmark itself) wrapped
    functions run without recording anything.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.phase = None
        self.missing: list[str] = []
        self.counts: dict = defaultdict(int)  # (phase, name) -> count

    def wrap(self, owner, attr: str, name: str, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(span, args, kwargs, result)`` runs once the span has ended,
        so the counts it takes are not part of the span's duration.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name,
                        self.stack[-1].sid if self.stack else None, self.phase)
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr`` per phase without recording spans."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is not None:
                self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans[span.sid + 1:] if s.parent == span.sid]

    def self_times(self) -> dict[int, float]:
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.sid: s.duration - covered[s.sid] for s in self.spans}

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]


# ---------------------------------------------------------------------------
# what gets wrapped

def _finite_entries(span, args, kwargs, fields):
    span.attrs["sources"] = len({f.source for f in fields})
    span.attrs["distances"] = sum(int((~f.distances.is_nodata).sum()) for f in fields)


def _unique_cells(span, args, kwargs, cells):
    span.attrs["unique"] = len(set(cells))


def _estimated(tracer: Tracer, targets_of):
    def after(span, args, kwargs, raster):
        span.attrs["cells"] = int((~raster.is_nodata).sum())
        snaps = [c for c in tracer.children(span) if c.name == "pathdist.snap_points"]
        sources = sum(c.attrs.get("unique", 0) for c in snaps)
        span.attrs["matrix_bytes"] = sources * targets_of(args, kwargs) * 8
        config = args[2] if len(args) > 2 else kwargs["config"]
        span.attrs["k"] = config.n_nearest or sources
    return after


def _ipdw_targets(args, kwargs):
    cost = args[1] if len(args) > 1 else kwargs["cost"]
    return int(cost.is_water.sum())


def _idw_targets(args, kwargs):
    mask = kwargs.get("mask")
    if mask is not None:
        return int(mask.is_water.sum())
    geometry = args[1] if len(args) > 1 else kwargs["geometry"]
    return geometry.n_cells


def _edge_tests(span, args, kwargs, cost):
    polygons = args[0] if args else kwargs["polygons"]
    edges = sum(len(ring) - 1 for ring in polygons.rings)
    span.attrs["edge_cell_tests"] = edges * cost.geometry.n_cells


def _grains(span, args, kwargs, result):
    span.attrs["grains"] = len(result.rows)


def _scored(span, args, kwargs, report):
    span.attrs["points"] = report.n_evaluated


def _bytes_at(index):
    def after(span, args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        span.attrs["bytes"] = os.path.getsize(path)
    return after


_READERS = ("read_ascii_grid", "read_error_report", "read_points", "read_polygons")
# writer name -> position of its path argument
_WRITERS = {"write_ascii_grid": 1, "write_csv_table": 0, "write_error_report": 1,
            "write_paired_test": 1, "write_points": 1, "write_polygons": 1,
            "write_scalogram": 1}
# the fileio functions the benchmark calls itself; none of them calls another
_BENCH_FILEIO = ("read_ascii_grid", "read_points", "read_polygons",
                 "write_ascii_grid", "write_points", "write_polygons")


def install(tracer: Tracer):
    """Wrap every layer boundary the benchmark measures."""
    import pathidw
    from pathidw import cli, fileio, interpolate, metrics, pathdist, raster, scenes

    ipdw_after = _estimated(tracer, _ipdw_targets)
    idw_after = _estimated(tracer, _idw_targets)
    for owner in (pathidw, cli):
        tracer.wrap(owner, "interpolate_ipdw", "interpolate.ipdw", ipdw_after)
        tracer.wrap(owner, "interpolate_idw", "interpolate.idw", idw_after)
        tracer.wrap(owner, "rasterize_land", "costsurface.rasterize", _edge_tests)
        tracer.wrap(owner, "scalogram", "metrics.scalogram", _grains)
        tracer.wrap(owner, "grid_split", "validation.split")
        tracer.wrap(owner, "cross_validate", "validation.crossval", _scored)
        tracer.wrap(owner, "wilcoxon_signed_rank", "validation.wilcoxon")
        tracer.wrap(owner, "range_vs_error", "validation.range_vs_error")
        tracer.wrap(owner, "make_scene", "scenes.make_scene")
    tracer.wrap(interpolate, "fields_for_cells", "pathdist.fields_for_cells",
                _finite_entries)
    tracer.wrap(interpolate, "snap_points", "pathdist.snap_points", _unique_cells)
    tracer.wrap(pathdist, "move_graph", "pathdist.move_graph")
    tracer.wrap(scenes, "distance_field", "pathdist.distance_field")
    tracer.wrap(scenes, "rasterize_land", "costsurface.rasterize", _edge_tests)
    tracer.wrap(metrics, "rasterize_land", "costsurface.rasterize", _edge_tests)
    for name in _READERS:
        tracer.wrap(cli, name, "fileio.read")
    for name, index in _WRITERS.items():
        tracer.wrap(cli, name, "fileio.write", _bytes_at(index))
    for name in _BENCH_FILEIO:
        if name.startswith("read_"):
            tracer.wrap(fileio, name, "fileio.read")
        else:
            tracer.wrap(fileio, name, "fileio.write", _bytes_at(_WRITERS[name]))
    tracer.wrap(cli, "main", "cli.main")
    tracer.count_calls(raster.RasterGrid, "__init__", "raster.grids_built")


# ---------------------------------------------------------------------------
# per-layer metrics

_PATH = "op_s.p50, peak_rss_mb on ipdw-dense, fragmented-sparse"
_IDW = "op_s.p50, peak_rss_mb on idw-dense"
_SURVEY = "op_s.p50 on survey-batch"
# metric -> (unit, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "pathdist.search_s": ("s", _PATH),
    "pathdist.graph_s": ("s", _PATH),
    "pathdist.snap_s": ("s", _PATH),
    "pathdist.sources": ("count", _PATH),
    "pathdist.distances_returned": ("count", _PATH),
    "pathdist.useful_ratio": ("ratio", _PATH),
    "interpolate.ipdw_s": ("s", "op_s.p50 on ipdw-dense"),
    "interpolate.ipdw_self_s": ("s", "op_s.p50 on ipdw-dense"),
    "interpolate.idw_s": ("s", _IDW),
    "interpolate.idw_self_s": ("s", _IDW),
    "interpolate.cells_estimated": ("count", "-"),
    "interpolate.matrix_bytes_computed": ("bytes", "peak_rss_mb on ipdw-dense, idw-dense"),
    "raster.grids_built": ("count", "op_s.p50 on ipdw-dense"),
    "costsurface.rasterize_s": ("s", "op_s.p50 on fragmented-sparse, setup_s elsewhere"),
    "costsurface.edge_cell_tests": ("count", "op_s.p50 on fragmented-sparse"),
    "metrics.scalogram_s": ("s", "op_s.p50 on fragmented-sparse"),
    "metrics.grains": ("count", "op_s.p50 on fragmented-sparse"),
    "validation.split_s": ("s", _SURVEY),
    "validation.crossval_s": ("s", _SURVEY),
    "validation.wilcoxon_s": ("s", _SURVEY),
    "validation.points_scored": ("count", _SURVEY),
    "fileio.read_s": ("s", _SURVEY),
    "fileio.write_s": ("s", _SURVEY),
    "fileio.bytes_written": ("bytes", _SURVEY),
    "cli.self_s": ("s", _SURVEY),
    "scenes.make_scene_s": ("s", "setup_s on all workloads"),
}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer numbers of the timed phase as means per op, keyed as LAYER_METRICS."""
    selfs = tracer.self_times()
    timed = [s for s in tracer.spans if s.op != SETUP]
    per = max(1, n_ops)

    def total(name, attr=None):
        spans = [s for s in timed if s.name == name]
        if attr is None:
            return sum(s.duration for s in spans)
        return sum(s.attrs.get(attr, 0) for s in spans)

    def self_total(name):
        return sum(selfs[s.sid] for s in timed if s.name == name)

    useful = sum(s.attrs.get("k", 0) * s.attrs.get("cells", 0)
                 for s in timed if s.name == "interpolate.ipdw")
    returned = total("pathdist.fields_for_cells", "distances")
    grids = sum(n for (phase, name), n in tracer.counts.items()
                if phase != SETUP and name == "raster.grids_built")
    return {
        "pathdist.search_s": self_total("pathdist.fields_for_cells") / per,
        "pathdist.graph_s": total("pathdist.move_graph") / per,
        "pathdist.snap_s": total("pathdist.snap_points") / per,
        "pathdist.sources": total("pathdist.fields_for_cells", "sources") / per,
        "pathdist.distances_returned": returned / per,
        "pathdist.useful_ratio": useful / returned if returned else 0.0,
        "interpolate.ipdw_s": total("interpolate.ipdw") / per,
        "interpolate.ipdw_self_s": self_total("interpolate.ipdw") / per,
        "interpolate.idw_s": total("interpolate.idw") / per,
        "interpolate.idw_self_s": self_total("interpolate.idw") / per,
        "interpolate.cells_estimated":
            (total("interpolate.ipdw", "cells") + total("interpolate.idw", "cells")) / per,
        "interpolate.matrix_bytes_computed":
            (total("interpolate.ipdw", "matrix_bytes")
             + total("interpolate.idw", "matrix_bytes")) / per,
        "raster.grids_built": grids / per,
        "costsurface.rasterize_s": total("costsurface.rasterize") / per,
        "costsurface.edge_cell_tests":
            total("costsurface.rasterize", "edge_cell_tests") / per,
        "metrics.scalogram_s": total("metrics.scalogram") / per,
        "metrics.grains": total("metrics.scalogram", "grains") / per,
        "validation.split_s": total("validation.split") / per,
        "validation.crossval_s": total("validation.crossval") / per,
        "validation.wilcoxon_s": total("validation.wilcoxon") / per,
        "validation.points_scored": total("validation.crossval", "points") / per,
        "fileio.read_s": total("fileio.read") / per,
        "fileio.write_s": total("fileio.write") / per,
        "fileio.bytes_written": total("fileio.write", "bytes") / per,
        "cli.self_s": self_total("cli.main") / per,
        "scenes.make_scene_s": sum(s.duration for s in tracer.spans
                                   if s.op == SETUP and s.name == "scenes.make_scene"),
    }


def layer_table(tracer: Tracer, n_ops: int) -> list[tuple[str, str, int, float, float]]:
    """(phase, layer, calls, total s, self s) rows; timed rows are per op."""
    selfs = tracer.self_times()
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in tracer.spans:
        phase = "setup" if s.op == SETUP else "per op"
        layer = s.name.split(".", 1)[0]
        row = rows[(phase, layer)]
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[s.sid]
    per = max(1, n_ops)
    out = []
    for (phase, layer), (calls, tot, own) in sorted(rows.items()):
        scale = per if phase == "per op" else 1
        out.append((phase, layer, calls, tot / scale, own / scale))
    return out
