"""Span tracing installed from outside the program.

A :class:`Tracer` replaces chosen functions and methods of the library
with timing wrappers for the duration of a traced pass, then puts the
originals back (by identity: after :meth:`Tracer.restore` every patched
attribute is the very object it was before).  The untraced passes never
see a wrapper, so end-to-end numbers carry no tracing cost.

Each wrapper opens a span on a per-thread stack.  When a span closes,
its duration is added to the parent's child time, and the span's *self*
time (duration minus child time) is credited to its layer.  Self times
of all layers under one root span therefore add up to the root's
duration exactly, which is how the benchmark accounts for a sweep's
wall time layer by layer.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_MISSING = object()


class _ThreadState:
    """One thread's span stack and accumulators (merged on report)."""

    def __init__(self) -> None:
        # Each frame is [layer, start_ns, child_ns].
        self.stack: list[list] = []
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.total_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()


class Tracer:
    """Installs timing wrappers and accumulates per-layer self time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.values: Counter = Counter()

    # -- per-thread state ------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- spans -----------------------------------------------------------------

    def _enter(self, state: _ThreadState, layer: str) -> list:
        frame = [layer, time.perf_counter_ns(), 0]
        state.stack.append(frame)
        state.calls[layer] += 1
        return frame

    def _exit(self, state: _ThreadState, frame: list) -> None:
        duration = time.perf_counter_ns() - frame[1]
        state.stack.pop()
        state.self_ns[frame[0]] += duration - frame[2]
        state.total_ns[frame[0]] += duration
        if state.stack:
            state.stack[-1][2] += duration

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself (roots, mostly)."""
        state = self._state()
        frame = self._enter(state, layer)
        try:
            yield
        finally:
            self._exit(state, frame)

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a plain counter (thread-safe)."""
        with self._lock:
            self.values[key] += amount

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, layer: str, *, outermost: bool = False, on_result=None):
        """``fn`` timed as a span of ``layer``.

        ``outermost`` makes calls nested inside a span of the same layer
        pass straight through (a composite process's sub-protocol
        ``on_round`` is part of its parent's round, not a second one).
        ``on_result(tracer, result)`` observes each return value.
        """
        tracer = self
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            if outermost and state.stack and state.stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = tracer._enter(state, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(state, frame)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer: str):
        """A generator function timed one ``next()`` at a time, so the
        consumer's work between items stays outside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                state = tracer._state()
                frame = tracer._enter(state, layer)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._exit(state, frame)
                yield item

        return wrapper

    def counting(self, fn, key: str):
        """``fn`` counted (no span) under ``key``; for very hot calls."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._state().calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, name: str, layer: str, *, counter: bool = False, **options) -> None:
        """Replace ``owner.name`` (module function, method, classmethod or
        staticmethod) with a wrapper; :meth:`restore` undoes it."""
        raw = owner.__dict__.get(name, _MISSING)
        target = raw if raw is not _MISSING else inspect.getattr_static(owner, name)
        kind = type(target) if isinstance(target, (classmethod, staticmethod)) else None
        fn = target.__func__ if kind is not None else target
        wrapped = self.counting(fn, layer) if counter else self.wrap(fn, layer, **options)
        setattr(owner, name, kind(wrapped) if kind is not None else wrapped)
        self._patches.append((owner, name, raw))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)

    # -- results ---------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over threads."""
        return self._seconds("self_ns")

    def span_seconds(self) -> dict[str, float]:
        """Whole-span (inclusive) time per layer, summed over threads."""
        return self._seconds("total_ns")

    def _seconds(self, field: str) -> dict[str, float]:
        totals: defaultdict[str, int] = defaultdict(int)
        with self._lock:
            for state in self._states:
                for layer, ns in getattr(state, field).items():
                    totals[layer] += ns
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def calls(self) -> Counter:
        """Span counts per layer plus plain counters, summed over threads."""
        merged: Counter = Counter(self.values)
        with self._lock:
            for state in self._states:
                merged.update(state.calls)
        return merged

    def reset(self) -> None:
        """Forget accumulated numbers (installed wrappers stay)."""
        with self._lock:
            for state in self._states:
                state.self_ns.clear()
                state.total_ns.clear()
                state.calls.clear()
            self.values.clear()
