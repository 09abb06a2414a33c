"""In-memory span tracer that wraps the program's public functions.

Nothing under ``src/`` is instrumented.  ``patched`` replaces every public
function (and public method of a public class) defined in a ``pvsde``
module with a wrapper that records a span named ``<module>.<name>``, in
every ``pvsde`` namespace that binds the same object, so a name imported
with ``from .x import f`` is wrapped too.  A few foreign callables bound in
a program module (``estimation.minimize`` from scipy) are wrapped by name.
The originals are restored when the context exits.

A span's self time is its duration minus the durations of its direct
children; the time covered by root spans tells how much of the wall time
no span accounts for.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "pvsde"
# callables defined elsewhere but bound in a program module, wrapped under
# the program module's name because the program calls them through it
FOREIGN = (("estimation", "minimize"),)


class SpanStats:
    """Aggregate of every span that carried one name."""

    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.total += duration
        self.self_time += self_time
        self.durations.append(duration)


class Tracer:
    """Span stack plus named counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: Counter = Counter()
        self.covered = 0.0          # summed duration of root spans
        self.installed: set[str] = set()
        self._stack: list[list] = []    # [name, start, children's time]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.add(duration, duration - children)
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered += duration

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_time for n, s in self.stats.items()
                   if n.startswith(prefix))

    def to_dict(self) -> dict:
        return dict(
            stats={n: [s.calls, s.total, s.self_time, s.durations]
                   for n, s in self.stats.items()},
            counters=dict(self.counters), covered=self.covered,
            installed=sorted(self.installed))

    @classmethod
    def from_dict(cls, doc: dict) -> "Tracer":
        tracer = cls()
        for name, (calls, total, self_time, durations) in doc["stats"].items():
            stats = tracer.stats[name] = SpanStats()
            stats.calls, stats.total, stats.self_time = calls, total, self_time
            stats.durations = list(durations)
        tracer.counters.update(doc["counters"])
        tracer.covered = doc["covered"]
        tracer.installed = set(doc["installed"])
        return tracer


def _wrap(tracer: Tracer, name: str, fn, probe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if probe is not None:
            probe(tracer.counters, args, kwargs, result)
        return result
    return traced


def _program_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def _targets(modules):
    """(span name, owner, attribute, original) for everything to wrap."""
    out = []
    for mod_name, mod in modules.items():
        if mod_name == PACKAGE:
            continue
        short = mod_name[len(PACKAGE) + 1:]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in sorted(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((f"{short}.{attr}.{meth}", obj, meth, fn))
    for short, attr in FOREIGN:
        mod = modules.get(f"{PACKAGE}.{short}")
        if mod is not None and callable(getattr(mod, attr, None)):
            out.append((f"{short}.{attr}", mod, attr, getattr(mod, attr)))
    return out


@contextmanager
def patched(tracer: Tracer, probes=None):
    """Wrap the program's public callables for the duration of the block.

    ``probes`` maps a span name to ``probe(counters, args, kwargs, result)``
    run after a successful call, outside the span.  Names that exist are
    recorded in ``tracer.installed``; a probe whose name is absent is
    skipped, and metrics needing it report it missing.
    """
    probes = probes or {}
    modules = _program_modules()
    restore = []
    for name, owner, attr, original in _targets(modules):
        wrapper = _wrap(tracer, name, original, probes.get(name))
        tracer.installed.add(name)
        if inspect.isclass(owner):
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, original))
                    setattr(mod, key, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
