"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started (its parent) and the run id of the traced
operation it belongs to.  Spans stay in memory until the benchmark writes
them out at the end.  Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: int
    failed: bool = False
    note: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Collects spans and element counters while a traced operation runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: list[Span] = []

    def _open(self, name, note):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, time.perf_counter(), 0.0, self.run, note=note)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, note=None):
        sp = self._open(name, note)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            self._close(sp)

    def inside(self, name):
        """True when a span called `name` is open."""
        return any(sp.name == name for sp in self._stack)

    def wrap(self, fn, name, failed_if=None, note=None):
        """Wrap fn so that each call records a span called `name`.

        failed_if(result) marks a returned value as a failure; note(args,
        kwargs) stores call attributes on the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name, note(args, kwargs) if note else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                sp.failed = True
                raise
            finally:
                self._close(sp)
            if failed_if is not None and failed_if(result):
                sp.failed = True
            return result

        return wrapper

    def counting(self, fn, key, within, size_of=None):
        """Wrap fn so that calls made inside an open `within` span add to a counter.

        Each call adds size_of(args, kwargs), or 1 when size_of is None.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inside(within):
                self.counters[key] += size_of(args, kwargs) if size_of else 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path):
        """Write all spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


class Instrumentation:
    """Replaces attributes with recording wrappers and restores them on exit.

    Each target is (owner, attribute, factory) where owner is a module or
    class and factory(original) returns the wrapper.  Targets whose
    attribute does not exist are skipped and listed in `missing`.
    """

    def __init__(self, targets):
        self.targets = targets
        self.saved = []
        self.missing = []

    def __enter__(self):
        for owner, attr, factory in self.targets:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.id: sp.duration - covered_length(children[sp.id], sp.start, sp.end) for sp in spans}


def nearest_ancestor(spans_by_id, span, name):
    """The closest enclosing span called `name`, or None."""
    pid = span.parent
    while pid is not None:
        parent = spans_by_id[pid]
        if parent.name == name:
            return parent
        pid = parent.parent
    return None
