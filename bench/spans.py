"""Nested timing spans around the library's public functions, installed by name.

The tracer replaces each listed function with a wrapper in every ``risp``
module namespace (and class) that holds it, so calls made through a
``from .x import f`` binding are caught too, and puts the originals back on
``uninstall``. Nothing in the library changes. Each span records calls,
total seconds and self seconds (total minus the time of wrapped calls made
inside it); an ``after`` hook may add counts taken from the arguments or the
result. A listed function that no longer exists is reported absent.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter, defaultdict


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _cohort_counts(fn, args, kwargs, result, counts):
    counts["cohort.members"] += len(result)
    counts["cohort.capped"] += len(result) >= _bound(fn, args, kwargs, "cap")


def _unit_rows_bytes(fn, args, kwargs, result, counts):
    rows, dim = result[1].shape
    counts["space.unit_rows_bytes"] += rows * dim * 8


def _checksum_bytes(fn, args, kwargs, result, counts):
    counts["storage.checksum_bytes"] += len(_bound(fn, args, kwargs, "data"))


def _bytes_written(fn, args, kwargs, result, counts):
    counts["storage.bytes_written"] += os.path.getsize(_bound(fn, args, kwargs, "path"))


def _bytes_read(fn, args, kwargs, result, counts):
    counts["storage.bytes_read"] += os.path.getsize(_bound(fn, args, kwargs, "path"))


PACKAGE = "risp"

# (module, attribute path, after-hook). Span names are "<module>.<attribute>".
TARGETS = (
    ("ingest", "scan_frequencies", None),
    ("ingest", "token_segments", None),
    ("seeds", "seed_vector", None),
    ("space", "build", None),
    ("space", "update", None),
    ("space", "SemanticSpace.refresh_active", None),
    ("space", "SemanticSpace.neighbors", None),
    ("space", "SemanticSpace.nonzero_unit_rows", _unit_rows_bytes),
    ("cohort", "build_cohort", _cohort_counts),
    ("cohort", "cohort_units", None),
    ("cohort", "gram_of_units", None),
    ("disambig", "disambiguate", None),
    ("disambig", "merge_closest", None),
    ("disambig", "evaluate_level", None),
    ("storage", "save_index", _bytes_written),
    ("storage", "load_index", _bytes_read),
    ("storage", "crc64", _checksum_bytes),
)


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Spans and counts of one traced run; install, run, uninstall."""

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.paused = False
        self._children: list[float] = []  # time of wrapped calls inside each open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = tracer._children.pop()
                span = tracer.spans[name]
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - inner
                if tracer._children:
                    tracer._children[-1] += elapsed
            if after is not None:
                after(fn, args, kwargs, result, tracer.counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, attr, after in TARGETS:
            name = f"{module_name}.{attr}"
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, after)
            if path:  # a method: patch the class attribute only
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def table(self) -> list[dict]:
        return [
            {"span": name, "calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for name, s in sorted(self.spans.items(), key=lambda kv: -kv[1].self_time)
        ]
