"""In-process span tracing of scene_placer's public functions.

`Tracer.install(layers)` wraps each listed function and rebinds every
``scene_placer`` module attribute that refers to it, so calls made through
``from .x import f`` bindings (``sampler.placement_band``, ``cli.fit_model``,
``evaluate.object_depth`` ...) are traced too. `Tracer.uninstall()` restores
the originals. Spans live in memory; self time is a span's duration minus the
part of its interval covered by its children (children may run in parallel
threads, so covered time is the union of their intervals).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str  # "<layer>.<function>", or "cli.<stage>"
    frame: str | None  # frame id, inherited from the nearest ancestor that has one
    start: float
    end: float
    attrs: dict | None = None  # counters observed at this boundary

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_bytes(index):
    def observe(args, kwargs, result, exc):
        path = kwargs.get("path", args[index] if len(args) > index else None)
        try:
            return {"bytes": os.path.getsize(path)}
        except (OSError, TypeError):
            return {"bytes": 0}
    return observe


def _propose(args, kwargs, result, exc):
    if exc is not None:  # MaxAttemptsExceeded: the whole budget was spent
        params = kwargs.get("params", args[3] if len(args) > 3 else None)
        return {"attempts": params.max_attempts, "accepted": 0}
    return {"attempts": result.provenance.attempts, "accepted": 1}


def _placement_band(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"px_scanned": int(args[0].values.size), "band_px": len(result)}


def _rasterize_mask(args, kwargs, result, exc):
    mask, frame_w, frame_h = args[:3]
    p = mask.patch
    w = max(0, min(p.x0 + p.side, frame_w) - max(p.x0, 0))
    h = max(0, min(p.y0 + p.side, frame_h) - max(p.y0, 0))
    return {"px_written": w * h}


def _visibility_filter(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"considered": len(args[0].footprints), "kept": len(result[0])}


# Counters read at a function's boundary, from its arguments and result.
OBSERVERS = {
    "sampler.propose": _propose,
    "geometry.placement_band": _placement_band,
    "masks.rasterize_mask": _rasterize_mask,
    "masks.visibility_filter": _visibility_filter,
    "dataset_io.read_depth_grid": _path_bytes(0),
    "dataset_io.read_label_grid": _path_bytes(0),
    "dataset_io.read_mask_pgm": _path_bytes(0),
    "dataset_io.read_annotations": _path_bytes(0),
    "dataset_io.load_layout": _path_bytes(0),
    "dataset_io.load_model": _path_bytes(0),
    "dataset_io.save_layout": _path_bytes(1),
    "dataset_io.save_model": _path_bytes(1),
}


LAYERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def load_layers() -> dict:
    """layers.json: per layer, the traced functions and the end-to-end
    metrics the layer should move, on which workloads. The cli layer lists
    no functions: its spans are the pipeline stages."""
    with open(LAYERS_PATH, encoding="utf-8") as f:
        return json.load(f)


def traced_functions(layers: dict) -> dict:
    return {name: layer["functions"] for name, layer in layers.items() if "functions" in layer}


def _frame_arg_index(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("frame_id") if "frame_id" in params else None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = (None, None)  # (span id, frame) of the open stage span
        self._patches = []  # (module, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        frame_index = _frame_arg_index(fn)
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent_id, frame = stack[-1] if stack else tracer._root
            if frame_index is not None:
                got = kwargs.get("frame_id", args[frame_index] if len(args) > frame_index else None)
                if got is not None:
                    frame = str(got)
            span_id = next(tracer._ids)
            stack.append((span_id, frame))
            exc = result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = observe(args, kwargs, result, exc) if observe else None
                tracer.spans.append(Span(span_id, parent_id, name, frame, start, end, attrs))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, layers: dict):
        """Wrap `scene_placer.<layer>.<function>` for every listed function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("scene_placer.cli")  # binds most of the others by name
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "scene_placer" or n.startswith("scene_placer."))]
        for layer, functions in layers.items():
            module = importlib.import_module(f"scene_placer.{layer}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    @contextmanager
    def stage(self, name: str):
        """Root span around one CLI invocation; spans opened by worker
        threads with an empty stack hang under it."""
        span_id = next(self._ids)
        self._root = (span_id, None)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._root = (None, None)
            self.spans.append(Span(span_id, None, name, None, start, end))

    def write(self, path: str, origin: float = 0.0, **extra):
        with open(path, "a", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                rec = {"id": s.span_id, "parent": s.parent, "name": s.name, "frame": s.frame,
                       "start": s.start - origin, "end": s.end - origin, **extra}
                if s.attrs:
                    rec["attrs"] = s.attrs
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, layers: dict, stages) -> dict:
    """Per-layer metrics from one traced pipeline run.

    For every function and CLI stage: `.calls`, `.total_s`, `.self_s`; plus
    the counters named in BENCHMARK.json's per_layer list.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by_name[name])

    out = {}
    names = [f"{layer}.{fn}" for layer, fns in layers.items() for fn in fns]
    names += [f"cli.{stage}" for stage in stages]
    for name in names:
        group = by_name[name]
        out[f"{name}.calls"] = len(group)
        out[f"{name}.total_s"] = sum(s.duration for s in group)
        out[f"{name}.self_s"] = sum(selfs[s.span_id] for s in group)
    for fn in layers.get("dataset_io", ()):
        out[f"dataset_io.{fn}.bytes"] = attr_sum(f"dataset_io.{fn}", "bytes")

    by_id = {s.span_id: s for s in spans}

    def stage_of(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
        return s.name

    frames = [s for s in by_name["sampler.augment_frame"] if stage_of(s) == "cli.augment"]
    out["sampler.augment_frame.p50_ms"] = (
        statistics.median(s.duration for s in frames) * 1e3 if frames else 0.0)
    out["sampler.accept_ratio"] = _ratio(attr_sum("sampler.propose", "accepted"),
                                         attr_sum("sampler.propose", "attempts"))
    out["sampler.band_reset_rate"] = _ratio(len(by_name["geometry.closest_allowed_depth"]),
                                            len(by_name["sampler.sample_location"]))
    out["geometry.placement_band.px_scanned"] = attr_sum("geometry.placement_band", "px_scanned")
    bands = [s.attrs["band_px"] for s in by_name["geometry.placement_band"] if s.attrs]
    out["geometry.placement_band.band_px_p50"] = statistics.median(bands) if bands else 0
    out["masks.rasterize_mask.px_written"] = attr_sum("masks.rasterize_mask", "px_written")
    out["masks.kept_ratio"] = _ratio(attr_sum("masks.visibility_filter", "kept"),
                                     attr_sum("masks.visibility_filter", "considered"))
    return out
