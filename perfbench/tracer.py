"""Spans around calls into the sqlsynth layers, recorded from outside.

A probe names one function (``"module:attr"`` or ``"module:Class.method"``)
under a span name. ``Tracer.install`` rebinds the function in every loaded
sqlsynth module that holds it, not only in the one defining it: the pipeline
imports with ``from .x import y`` and validation binds ``parse_select``, so
patching the defining module alone would miss those calls. ``uninstall``
puts the originals back.

Each thread keeps its own span stack, so a span knows its parent; spans stay
in memory as tuples until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter

# span tuple fields
ID, PARENT, NAME, THREAD, START, END, ERROR, VALUE = range(8)


def package_modules(package: str = "sqlsynth") -> list:
    """The loaded modules of ``package``, the package itself included."""
    return [m for n, m in list(sys.modules.items())
            if n == package or n.startswith(package + ".")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call; ``measure(result, args)``
        optionally attaches a value to the span."""
        spans, ids, local, get_ident = self.spans, self._ids, self._local, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            error, value = False, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(result, args)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, get_ident(), start, end, error, value))

        return traced

    def install(self, probes):
        """Wrap every probe ``(span_name, "module:attr", measure)``."""
        modules = package_modules()
        for name, target, measure in probes:
            module_name, attr = target.split(":")
            owner = sys.modules[module_name]
            if "." in attr:  # a method: rebind it on its class
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._set(cls, method, original, self.wrap(name, original, measure))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapped)

    def _set(self, holder, key, original, wrapped):
        setattr(holder, key, wrapped)
        self._restore.append((holder, key, original))

    def uninstall(self):
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def by_name(spans) -> dict:
    out: dict = {}
    for span in spans:
        out.setdefault(span[NAME], []).append(span)
    return out


def self_times(spans) -> dict:
    """Span name -> summed self time: duration minus the direct children's
    durations (children run on the parent's thread, nested in it)."""
    child_time: dict = {}
    for span in spans:
        if span[PARENT]:
            child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + span[END] - span[START]
    totals: dict = {}
    for span in spans:
        own = span[END] - span[START] - child_time.get(span[ID], 0.0)
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals


def busy_times(spans) -> dict:
    """Busy time per span name and per layer (the name's first component):
    summed durations of the spans with no ancestor under the same key, so a
    layer's nested calls count once."""
    busy: dict = {}
    chain_keys: dict = {0: frozenset()}
    memo: dict = {}
    for span in sorted(spans):  # ids grow with start time: parents come first
        above = chain_keys.get(span[PARENT], frozenset())
        name = span[NAME]
        layer = name.split(".", 1)[0]
        duration = span[END] - span[START]
        for key in (name, layer):
            if key not in above:
                busy[key] = busy.get(key, 0.0) + duration
        chain = memo.get((above, name))
        if chain is None:
            chain = memo[(above, name)] = above | {name, layer}
        chain_keys[span[ID]] = chain
    return busy


def covered_time(intervals, window) -> float:
    """Length of the union of ``intervals`` clipped to ``window``."""
    lo, hi = window
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def wall(spans) -> float:
    """From the first start to the last end of ``spans``; 0 when none."""
    if not spans:
        return 0.0
    return max(s[END] for s in spans) - min(s[START] for s in spans)
