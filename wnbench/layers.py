"""Per-layer tracing of the library from outside it.

Traced mode swaps the public functions of each ``src/repro/`` layer for
timing wrappers: nothing under ``src/`` changes.  A wrapper records
calls, total time and *self* time — the call's duration minus the
wrapped calls nested inside it on the same thread — so the per-layer
times of one request add up to the time spent inside wrapped code
instead of counting nested layers twice.

Module-level functions are rebound in every loaded ``repro`` and
``wnbench`` module that holds them, because call sites bound through
``from ... import`` keep their own reference; the consistency checks in
:mod:`wnbench.run` compare wrapped call counts against the library's own
counters to catch a call site that still escapes.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass

__all__ = ["CallStats", "LayerTracer", "install_layer_wrappers"]

_MISSING = object()
#: Top-level packages whose module globals are rebound on patching.
_SCANNED = ("repro", "wnbench")


@dataclass
class CallStats:
    """Accumulated timings of one wrapped name."""

    calls: int = 0
    #: Calls not nested inside another call of the same layer.
    outer_calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Work units of the outer calls (e.g. customer rows of a kernel).
    units: int = 0
    #: Sum over outer calls of duration x units.
    unit_weighted_s: float = 0.0


class LayerTracer:
    """Wrap callables, keep per-thread call stacks, accumulate stats."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, CallStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, duration, self_s, outer, units) -> None:
        with self._lock:
            entry = self.stats.setdefault(name, CallStats())
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += self_s
            if outer:
                entry.outer_calls += 1
                entry.units += units
                entry.unit_weighted_s += duration * units

    def call(self, name: str, fn, args=(), kwargs=None, units=None):
        """Run ``fn(*args, **kwargs)`` as one timed frame of ``name``."""
        kwargs = kwargs or {}
        layer = name.split(".", 1)[0]
        stack = self._stack()
        outer = all(frame[0] != layer for frame in stack)
        frame = [layer, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            count = units(args, kwargs) if (units is not None and outer) else 0
            self._record(name, duration, duration - frame[1], outer, count)

    def timed(self, name: str, fn, units=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, units)

        return wrapper

    def timed_async(self, name: str, fn):
        """Coroutine wrapper: total time only.  Coroutines interleave on
        one thread, so they take no part in the self-time stacks."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = self.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._record(name, duration, duration, True, 0)

        return wrapper

    def timed_enter(self, name: str, fn):
        """Wrap a function returning a context manager so that entering
        it is timed (the wait to acquire a gate or drain readers)."""
        tracer = self

        class _TimedEnter:
            __slots__ = ("_cm",)

            def __init__(self, cm) -> None:
                self._cm = cm

            def __enter__(self):
                return tracer.call(name, self._cm.__enter__)

            def __exit__(self, *exc_info):
                return self._cm.__exit__(*exc_info)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedEnter(fn(*args, **kwargs))

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, kind: str = "sync", units=None):
        """Replace ``owner.attr`` by a wrapper recording under ``name``.

        ``kind`` is ``"sync"``, ``"async"`` or ``"enter"``.  For a module
        function every ``repro``/``wnbench`` module binding the same
        object is rebound too.
        """
        original = getattr(owner, attr)
        if kind == "async":
            wrapper = self.timed_async(name, original)
        elif kind == "enter":
            wrapper = self.timed_enter(name, original)
        else:
            wrapper = self.timed(name, original, units)
        self._set(owner, attr, wrapper)
        if not isinstance(owner, type):
            for mod_name, module in list(sys.modules.items()):
                if module is owner or mod_name.split(".")[0] not in _SCANNED:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        self.stats.setdefault(name, CallStats())

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, name: str) -> CallStats:
        return self.stats.get(name, CallStats())

    def layer_self_s(self, prefix: str) -> float:
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))

    def layer_outer_calls(self, prefix: str) -> int:
        return sum(
            s.outer_calls for n, s in self.stats.items() if n.startswith(prefix)
        )


def _rows(args, kwargs) -> int:
    """Customer rows of a kernel call ``(products, customers, ...)``;
    zero when there are no products (the kernel returns without a tile)."""
    products = args[0] if args else kwargs["products"]
    customers = args[1] if len(args) > 1 else kwargs["customers"]
    return len(customers) if len(products) else 0


def _questions(args, kwargs) -> int:
    """Questions of one ``answer_why_not_batch(engine, why_nots, ...)``."""
    return len(args[1] if len(args) > 1 else kwargs["why_nots"])


def install_layer_wrappers(tracer: LayerTracer, engine) -> None:
    """Wrap the public surfaces of every layer the workloads reach."""
    from repro.core import batch, invalidation
    from repro.core.engine import WhyNotEngine
    from repro.core.gate import ReadWriteGate
    from repro.geometry import region_array
    from repro.kernels import membership, pruned
    from repro.serve.service import WhyNotService
    from repro.skyline import algorithms, reverse
    from repro.store.lease import LeaseRegistry

    tracer.patch(type(engine.index), "range_indices", "index.range")
    for fn in ("batch_window_membership", "batch_lambda_counts",
               "batch_verify_membership"):
        tracer.patch(membership, fn, f"kernels.{fn}", units=_rows)
    for fn in ("batch_window_membership_pruned", "batch_lambda_counts_pruned",
               "batch_verify_membership_pruned"):
        tracer.patch(pruned, fn, f"kernels.pruned.{fn}", units=_rows)
    tracer.patch(algorithms, "skyline_indices", "skyline.sfs")
    tracer.patch(reverse, "reverse_skyline_bbrs", "skyline.bbrs")
    tracer.patch(region_array, "pairwise_intersect", "geometry.fold.intersect")
    tracer.patch(region_array, "simplify_arrays", "geometry.fold.simplify")
    for attr, name in (
        ("reverse_skyline", "core.rsl"),
        ("explain", "core.explain"),
        ("modify_why_not_point", "core.mwp"),
        ("modify_query_point", "core.mqp"),
        ("modify_both", "core.mwq"),
        ("safe_region", "core.safe_region"),
    ):
        tracer.patch(WhyNotEngine, attr, name)
    tracer.patch(batch, "answer_why_not", "core.answer", units=lambda a, k: 1)
    tracer.patch(batch, "answer_why_not_batch", "core.batch", units=_questions)
    tracer.patch(ReadWriteGate, "read", "core.gate_wait", kind="enter")
    tracer.patch(invalidation, "apply_mutation", "core.invalidate")
    tracer.patch(LeaseRegistry, "drain", "store.drain_wait", kind="enter")
    for attr in ("insert_products", "delete_products", "update_products"):
        tracer.patch(WhyNotEngine, attr, "store.mutation_apply")
    tracer.patch(WhyNotService, "why_not", "serve.why_not", kind="async")
    tracer.patch(WhyNotService, "mutate", "serve.mutate", kind="async")
