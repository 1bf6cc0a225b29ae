"""In-memory span tracer around the public entry points of each layer.

The traced run installs wrappers (:func:`install`) on the ``repro``
functions and methods listed by :func:`_entry_points` — from the
benchmark's own files; nothing inside the package changes.  Each call
records a span (name, layer, start, end, parent span, thread) and the
hooks add counters at the same boundaries.  Spans stay in memory and
are written once, at the end, as Chrome trace-event JSON
(:meth:`Tracer.chrome_trace`), which Perfetto and ``chrome://tracing``
open.

A span's layer is the first dot-separated part of its name, which is the
``repro`` subpackage it belongs to (``linalg.cholesky`` → ``linalg``).
Its self time is its duration minus the durations of its child spans on
the same thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "install", "LAYERS"]

#: The ``repro`` layers whose entry points the traced run wraps
#: (``repro.tiles`` is read from its matrices, not wrapped).
LAYERS = ("gwas", "distance", "linalg", "runtime", "precision", "store",
          "parallel", "serve")


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    tid: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.thread_names: dict[int, str] = {}
        self.origin = time.perf_counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str, float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self.thread_names[threading.get_native_id()] = (
                threading.current_thread().name)
        return stack

    def enter(self, name: str) -> None:
        self._stack().append((next(self._ids), name, time.perf_counter()))

    def exit(self) -> float:
        """Close the innermost open span of this thread; its duration."""
        end = time.perf_counter()
        stack = self._local.stack
        sid, name, start = stack.pop()
        parent = stack[-1][0] if stack else None
        # list.append is atomic under the interpreter lock
        self.spans.append(Span(sid, name, start, end, parent,
                               threading.get_native_id()))
        return end - start

    def inside(self, layer: str) -> bool:
        """Whether this thread is currently inside a span of ``layer``."""
        prefix = layer + "."
        return any(name.startswith(prefix) for _, name, _ in self._stack())

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> self time (duration minus child durations)."""
        child_total: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_total[s.parent] = child_total.get(s.parent, 0.0) + s.duration
        return {s.sid: s.duration - child_total.get(s.sid, 0.0)
                for s in self.spans}

    def layer_self_s(self) -> dict[str, float]:
        """Per-layer self time summed over every thread."""
        own = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + own[s.sid]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def seconds(self, name: str) -> float:
        """Wall time inside spans called ``name``, outermost only."""
        by_id = {s.sid: s for s in self.spans}

        def nested(s: Span) -> bool:
            p = s.parent
            while p is not None:
                if by_id[p].name == name:
                    return True
                p = by_id[p].parent
            return False

        return sum(s.duration for s in self.spans
                   if s.name == name and not nested(s))

    def covered_s(self, tid: int, windows: list[tuple[float, float]]) -> float:
        """Time of ``windows`` that root spans of thread ``tid`` cover.

        A root span's duration is the sum of its own and all its
        descendants' self times, so this is the layers' summed self
        time inside the windows on that thread.
        """
        total = 0.0
        for s in self.spans:
            if s.tid != tid or s.parent is not None:
                continue
            for lo, hi in windows:
                total += max(0.0, min(s.end, hi) - max(s.start, lo))
        return total

    def inner_covered_s(self, tid: int, windows: list[tuple[float, float]],
                        outer: str = "gwas") -> float:
        """Time of ``windows`` that spans of the layers below ``outer``
        cover on thread ``tid``.

        Unlike :meth:`covered_s`, the self time of the ``outer`` layer's
        spans does not count, so a layer whose wrappers record nothing
        lowers this figure instead of being absorbed by its caller.
        """
        by_id = {s.sid: s for s in self.spans}

        def topmost(s: Span) -> bool:
            p = s.parent
            while p is not None:
                if by_id[p].layer != outer:
                    return False
                p = by_id[p].parent
            return True

        total = 0.0
        for s in self.spans:
            if s.tid != tid or s.layer == outer or not topmost(s):
                continue
            for lo, hi in windows:
                total += max(0.0, min(s.end, hi) - max(s.start, lo))
        return total

    def chrome_trace(self, metadata: dict) -> dict:
        """Chrome trace-event JSON (complete ``X`` events, µs)."""
        events: list[dict] = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": name}}
            for tid, name in sorted(self.thread_names.items())]
        for s in sorted(self.spans, key=lambda s: s.start):
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": s.tid,
                "ts": round((s.start - self.origin) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "args": {"id": s.sid, "parent": s.parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata}


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, fn, name: str, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = tracer.exit()
        if hook is not None:
            hook(tracer, args, kwargs, result, elapsed)
        return result
    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str):
    """Each ``next()`` of the generator is one span (the work between
    yields belongs to the consumer)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item
    return wrapper


# ----------------------------------------------------------------------
# counter hooks
# ----------------------------------------------------------------------
def _on_cholesky(tracer, args, kwargs, result, elapsed):
    n = args[0].shape[0]
    tracer.count("linalg.factorizations")
    tracer.count("linalg.cholesky_flops", n ** 3 / 3.0)


def _on_cg(tracer, args, kwargs, result, elapsed):
    tracer.count("linalg.cg_iters", result.iterations)
    if not result.converged:
        tracer.count("linalg.cg_fallbacks")


def _on_insert(tracer, args, kwargs, result, elapsed):
    if tracer.inside("distance"):
        tracer.count("distance.tasks")


def _on_run(tracer, args, kwargs, result, elapsed):
    runtime = args[0]
    phase = kwargs.get("phase", args[1] if len(args) > 1 else None)
    events = result.trace.events
    busy = sum(e.duration for e in events)
    tracer.count("runtime.tasks", len(events))
    tracer.count(f"runtime.tasks.{phase}", len(events))
    tracer.count("runtime.task_busy_s", busy)
    tracer.count("runtime.idle_s", max(0.0, runtime.workers * elapsed - busy))
    tracer.count("runtime.retries", sum(e.retries for e in events))
    if runtime.execution == "process":
        tracer.count("parallel.dispatch_overhead_s",
                     max(0.0, elapsed - busy / runtime.workers))


def _on_build(tracer, args, kwargs, result, elapsed):
    tracer.count("distance.build_flops", result.flops)


def _on_respawn(tracer, args, kwargs, result, elapsed):
    tracer.count("parallel.respawns")


def _entry_points():
    """``(owner, attribute, span name, hook, is_generator)`` to wrap.

    Precision kernels are wrapped where the other layers import them,
    because those modules bind the names at import time.
    """
    import repro.distance.build as build_mod
    import repro.distance.euclidean as euclidean_mod
    import repro.gwas.session as session_mod
    import repro.linalg.blas3 as blas3_mod
    import repro.linalg.cg as cg_mod
    import repro.linalg.kernels as kernels_mod
    import repro.linalg.solve as solve_mod
    import repro.parallel.descriptors as descriptors_mod
    import repro.precision.gemm as gemm_mod
    import repro.tiles.tile as tile_mod
    from repro.distance.build import KernelBuilder
    from repro.gwas.session import KRRSession
    from repro.parallel.pool import ProcessPool
    from repro.runtime.runtime import Runtime
    from repro.serve.service import PredictionService
    from repro.store.store import TileStore

    points = [
        (KRRSession, "build", "gwas.build", None, False),
        (KRRSession, "associate", "gwas.associate", None, False),
        (KRRSession, "predict_batched", "gwas.predict", None, False),
        (KRRSession, "predict_many", "gwas.predict", None, False),
        (KRRSession, "cross_kernel", "gwas.predict", None, False),
        (KRRSession, "predict_with_kernel", "gwas.predict", None, False),
        (KernelBuilder, "build_training", "distance.build", _on_build, False),
        (KernelBuilder, "build_cross", "distance.cross", None, False),
        (KernelBuilder, "train_operands", "distance.cross", None, False),
        (KernelBuilder, "iter_cross_rows", "distance.cross", None, True),
        (session_mod, "cholesky", "linalg.cholesky", _on_cholesky, False),
        (session_mod, "solve_cholesky", "linalg.solve", None, False),
        (cg_mod, "solve_cholesky", "linalg.solve", None, False),
        (session_mod, "cg_solve", "linalg.cg", _on_cg, False),
        (session_mod, "gemm", "linalg.gemm", None, False),
        (Runtime, "insert_task", "runtime.insert", _on_insert, False),
        (Runtime, "run", "runtime.run", _on_run, False),
        (TileStore, "pin", "store.pin", None, False),
        (TileStore, "prefetch", "store.prefetch", None, False),
        (ProcessPool, "start", "parallel.pool_start", None, False),
        (ProcessPool, "respawn", "parallel.respawn", _on_respawn, False),
        (PredictionService, "submit", "serve.submit", None, False),
    ]
    for module in (kernels_mod, blas3_mod, solve_mod, tile_mod,
                   descriptors_mod, gemm_mod):
        points.append((module, "quantize", "precision.quantize", None, False))
    for module in (kernels_mod, blas3_mod, build_mod, euclidean_mod):
        points.append((module, "gemm_mixed", "precision.gemm", None, False))
    points.append((kernels_mod, "syrk_mixed", "precision.gemm", None, False))
    return points


def install(tracer: Tracer):
    """Wrap every entry point; returns a function that restores them."""
    saved = []
    for owner, attr, name, hook, generator in _entry_points():
        original = owner.__dict__[attr]
        setattr(owner, attr,
                _wrap_generator(tracer, original, name) if generator
                else _wrap(tracer, original, name, hook))
        saved.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
