"""Span tracer that wraps the library's public entry points from outside.

Every entry point is replaced, in the benchmark process only, at each module
attribute or class that binds it (``mc_mean`` is imported by name into
``perimeter``, ``noise`` and ``partitions``, so all four bindings are
wrapped). A span records its name, start, end, parent span, op id and
thread. Pool threads do not inherit the caller's context, so spans opened
there carry the op id of the op that is running and have no same-thread
parent. Self time is computed per thread: a span's duration minus the
durations of its direct children on the same thread, which never overlap,
so self time is never negative even when children run in parallel.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (span name, module, attribute path). An attribute path that no longer
# resolves is reported as absent instead of failing the run. Entry points
# without a metric of their own (mc_moments, optimize_propeller) are spans so
# that their time is not counted as CLI overhead.
ENTRY_POINTS = [
    ("montecarlo.mc_mean", "montecarlo", "mc_mean"),
    ("montecarlo.map_chunks", "montecarlo", "map_chunks"),
    ("montecarlo.mc_volumes", "montecarlo", "mc_volumes"),
    ("montecarlo.mc_moments", "montecarlo", "mc_moments"),
    ("partitions.classify_points", "partitions", "AffinePartition.classify_points"),
    ("partitions.cell_distance", "partitions", "PartitionCell.distance"),
    ("partitions.calibrate", "partitions", "calibrate_offsets_to_volumes"),
    ("partitions.align_rotation", "partitions", "align_rotation"),
    ("perimeter.facet_perimeter", "perimeter", "facet_perimeter"),
    ("perimeter.minkowski", "perimeter", "minkowski_partition_perimeter"),
    ("noise.noise_stability_partition", "noise", "noise_stability_partition"),
    ("optimize.optimize_propeller", "optimize", "optimize_propeller"),
    ("optimize.stability_margin", "optimize", "stability_margin"),
    ("discrete.noise_stability", "discrete", "discrete_noise_stability"),
    ("discrete.apply_noise_kernel", "discrete", "apply_noise_kernel"),
    ("discrete.plurality_function", "discrete", "plurality_function"),
    ("discrete.clt_crosscheck", "discrete", "clt_crosscheck"),
    ("cli.main", "cli", "main"),
]
# Every public function of these modules is counted as one layer.
COUNTED_MODULES = ["special"]

PACKAGE = "gauss_bubbles"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "thread", "attrs")

    def __init__(self, sid, name, start, parent, op, thread, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.attrs = attrs


class Tracer:
    """Collects spans in memory; ``op`` is the id of the op being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span = Span(next(self._ids), name, time.perf_counter(), parent and parent.sid,
                        self.op, threading.get_ident(), {})
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point at all of its bindings in the package."""
        modules = _package_modules()
        for name, module, path in ENTRY_POINTS:
            owner, attr, original = _resolve(modules.get(module), path)
            if original is None:
                self.absent.append(name)
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, original))
            else:
                self._patch_bindings(modules, original, self._wrap(name, original))
        for module in COUNTED_MODULES:
            mod = modules.get(module)
            if mod is None:
                self.absent.append(module)
                continue
            for key, value in list(vars(mod).items()):
                if callable(value) and not key.startswith("_") and \
                        getattr(value, "__module__", None) == mod.__name__:
                    self._patch_bindings(modules, value, self._wrap(module, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch_bindings(self, modules: dict, original, wrapper) -> None:
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        special = _SPECIAL_WRAPPERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                if special is not None:
                    return special(tracer, span, fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper


def _mc_mean(tracer: Tracer, span: Span, fn, args, kwargs):
    """Record the sample count and time the integrand as its own child."""
    args = list(args)
    cfg = args[0] if args else kwargs["cfg"]
    span.attrs["samples"] = cfg.sample_count
    value_fn = args[1] if len(args) > 1 else kwargs["value_fn"]

    def integrand(*a):
        inner = tracer.open("montecarlo.integrand")
        try:
            return value_fn(*a)
        finally:
            tracer.close(inner)

    if len(args) > 1:
        args[1] = integrand
    else:
        kwargs["value_fn"] = integrand
    return fn(*args, **kwargs)


def _map_chunks(tracer: Tracer, span: Span, fn, args, kwargs):
    """Time each chunk on whichever thread runs it, parented to the call."""
    worker, n_chunks = args

    def chunk(c):
        inner = tracer.open("montecarlo.chunk", parent=span)
        try:
            return worker(c)
        finally:
            tracer.close(inner)

    return fn(chunk, n_chunks)


def _rows(tracer: Tracer, span: Span, fn, args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    shape = getattr(points, "shape", None)
    span.attrs["rows"] = int(shape[0]) if shape and len(shape) > 1 else 1
    return fn(*args, **kwargs)


def _noise_kernel(tracer: Tracer, span: Span, fn, args, kwargs):
    table = args[0] if args else kwargs["g"]
    # Computed, not measured: each axis pass reads and writes the table once.
    span.attrs["bytes"] = 2 * table.ndim * table.size * 8
    return fn(*args, **kwargs)


_SPECIAL_WRAPPERS = {
    "montecarlo.mc_mean": _mc_mean,
    "montecarlo.map_chunks": _map_chunks,
    "partitions.classify_points": _rows,
    "partitions.cell_distance": _rows,
    "discrete.apply_noise_kernel": _noise_kernel,
}


def _package_modules() -> dict:
    modules = {}
    for name in ["montecarlo", "partitions", "perimeter", "noise", "optimize",
                 "discrete", "special", "cli"]:
        try:
            modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError:
            continue
    return modules


def _resolve(module, path: str):
    """(owner, attribute, original) or (None, None, None) when absent."""
    if module is None:
        return None, None, None
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None, None, None
    return owner, parts[-1], original


# -- reduction --------------------------------------------------------------


def self_times(spans: list[Span]) -> dict:
    """Span id -> duration minus its direct same-thread children."""
    own = {s.sid: s.end - s.start for s in spans}
    by_id = {s.sid: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.sid] -= s.end - s.start
    return own


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, attribute sums,
    and how many direct children of each name its spans had."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "attrs": defaultdict(float), "children": defaultdict(int)})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own[s.sid]
        for key, value in s.attrs.items():
            row["attrs"][key] += value
        parent = by_id.get(s.parent)
        if parent is not None:
            out[parent.name]["children"][s.name] += 1
    return out


def dump(spans: list[Span], path) -> None:
    """Write the spans as JSON lines, one span per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "op": s.op, "thread": s.thread, **s.attrs,
            }) + "\n")
