"""Spans recorded around hardylab's public functions, from outside the package.

A Tracer replaces each target function with a timing wrapper in every
hardylab module namespace that holds it, so calls made by the package's
own modules (for example chsh.optimize_delta calling scan_surface) are
recorded as well as calls made by the benchmark. Spans stay in memory
as (name, start, end, count) and are summarized per round.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cells(args, kwargs) -> int:
    return int(_arg(args, kwargs, 0, "c1_sq_steps")) * int(_arg(args, kwargs, 1, "beta0_steps"))


def _trials(args, kwargs) -> int:
    return 4 * int(_arg(args, kwargs, 1, "trials_per_pair"))


def _elements(args, kwargs) -> int:
    return int(np.broadcast(*args, *kwargs.values()).size)


# (module, function, count of work per call or None). A count of None
# records 1 per call.
TARGETS = (
    ("qstate", "make_state", None),
    ("qstate", "config_from_file", None),
    ("correlations", "joint_distribution", None),
    ("correlations", "correlation", None),
    ("correlations", "batch_probabilities", _elements),
    ("correlations", "batch_correlation", _elements),
    ("hardy", "solve_hardy", None),
    ("hardy", "check_hardy", None),
    ("hardy", "hardy_inequality_lhs_rhs", None),
    ("chsh", "scan_surface", _cells),
    ("chsh", "optimize_delta", None),
    ("chsh", "evaluate", None),
    ("chsh", "delta_from_probabilities", None),
    ("chsh", "delta_closed_form", None),
    ("lhv", "strategy_from_text", None),
    ("lhv", "simulate", _trials),
    ("lhv", "is_locally_realizable", None),
)

# Batch kernel calls with at least this many elements count toward the
# per-config kernel cost; scalar calls from the object API do not.
BATCH_MIN_ELEMENTS = 1000


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self, labels=None) -> None:
        # labels maps a span name to a function of the call's arguments
        # whose result is appended to the name (e.g. a polytope class).
        self.spans: list[tuple[str, float, float, int]] = []
        self.labels = labels or {}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        spans = self.spans
        clock = time.perf_counter
        label = self.labels.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                n = count(args, kwargs) if count else 1
                spans.append((f"{name}.{label(args)}" if label else name, start, end, n))

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "hardylab" or key.startswith("hardylab.")]
        for module_name, attr, count in TARGETS:
            original = getattr(importlib.import_module(f"hardylab.{module_name}"), attr)
            wrapped = self.wrap(f"{module_name}.{attr}", original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def take(self) -> list[tuple[str, float, float, int]]:
        """Return and forget the spans recorded so far."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _union(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(processes) -> dict[str, dict[str, float]]:
    """Per span name: busy seconds, calls, summed count, and batch-sized
    seconds and elements. Busy time is the union of a name's spans within
    one process (threads overlap), summed over processes. 'cli.run' also
    gets self seconds: its duration minus the union of the library spans
    inside it."""
    out: dict[str, dict[str, float]] = {}
    for spans in processes:
        by_name: dict[str, list] = {}
        for name, start, end, count in spans:
            by_name.setdefault(name, []).append((start, end, count))
        for name, items in by_name.items():
            entry = out.setdefault(name, {"busy_s": 0.0, "calls": 0, "count": 0, "batch_s": 0.0, "batch_count": 0, "self_s": 0.0})
            entry["busy_s"] += _union((s, e) for s, e, _ in items)
            entry["calls"] += len(items)
            entry["count"] += sum(c for _, _, c in items)
            batch = [(s, e, c) for s, e, c in items if c >= BATCH_MIN_ELEMENTS]
            entry["batch_s"] += sum(e - s for s, e, _ in batch)
            entry["batch_count"] += sum(c for _, _, c in batch)
        for start, end, _ in by_name.get("cli.run", ()):
            inner = [(max(s, start), min(e, end)) for n, s, e, _ in spans if n != "cli.run" and s < end and e > start]
            out["cli.run"]["self_s"] += (end - start) - _union(inner)
    return out
