"""Span tracing from outside the package: wrappers bound by name.

Each traced target is a public function or a class constructor of
``amalgam``.  A function's wrapper replaces every binding of the original in
the package's loaded modules (``from .x import f`` copies included); a class
has its ``__init__`` wrapped.  A target that does not exist at the traced
commit is reported as missing and its metrics read zero, so the same tracer
runs before and after a refactor that deletes or moves it.

Spans (name, start, end, parent) are kept in memory and reduced when the run
ends; a span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter


def _nodes(forest) -> int:
    """Node count of a forest certificate; zero for a non-forest witness."""
    stack = list(getattr(forest, "roots", ()))
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def _elements(diagram) -> int:
    return sum(len(c) for c in diagram.carriers)


@dataclass(frozen=True)
class Target:
    """``counters`` map a name to f(args, result) -> number; for a
    constructor, args[0] is the new instance."""

    name: str
    module: str
    attr: str
    counters: dict = field(default_factory=dict)


TARGETS = (
    Target("cli.main", "amalgam.cli", "main"),
    Target("cli.build_parser", "amalgam.cli", "build_parser"),
    Target("corpus.resolve", "amalgam.corpus", "resolve"),
    Target("serialize.load_document", "amalgam.serialize", "load_document",
           {"bytes": lambda a, r: os.path.getsize(a[0])}),
    Target("serialize.poset_from_doc", "amalgam.serialize", "poset_from_doc"),
    Target("serialize.category_from_doc", "amalgam.serialize", "category_from_doc"),
    Target("serialize.diagram_from_doc", "amalgam.serialize", "diagram_from_doc"),
    Target("serialize.verdict_to_doc", "amalgam.serialize", "verdict_to_doc"),
    Target("serialize.cocone_to_doc", "amalgam.serialize", "cocone_to_doc"),
    Target("serialize.dump", "amalgam.serialize", "dump",
           {"bytes": lambda a, r: len(r)}),
    Target("fincat.validate_category", "amalgam.fincat", "validate_category"),
    Target("fincat.FinCategory", "amalgam.fincat", "FinCategory",
           {"table_entries": lambda a, r: len(a[0].table)}),
    Target("fincat.category_from_poset", "amalgam.fincat", "category_from_poset"),
    Target("fincat.connected_components", "amalgam.fincat", "connected_components"),
    Target("fincat.monic_reflection", "amalgam.fincat", "monic_reflection",
           {"merged": lambda a, r: len(a[0].morphisms) - len(r[0].morphisms)}),
    Target("fincat.congruence_close", "amalgam.fincat", "congruence_close"),
    Target("fincat.quotient_category", "amalgam.fincat", "quotient_category"),
    Target("fincat.skeleton_poset", "amalgam.fincat", "skeleton_poset"),
    Target("poset.FinPoset", "amalgam.poset", "FinPoset",
           {"elements": lambda a, r: len(a[0].elements)}),
    Target("poset.is_forest_like", "amalgam.poset", "is_forest_like",
           {"nodes": lambda a, r: _nodes(r)}),
    Target("diagram.analyze_shape", "amalgam.diagram", "analyze_shape"),
    Target("diagram.witness_no_cocone", "amalgam.diagram", "witness_no_cocone",
           {"elements": lambda a, r: _elements(r)}),
    Target("diagram.has_cocone", "amalgam.diagram", "has_cocone",
           {"elements": lambda a, r: _elements(a[0]),
            "classes": lambda a, r: len(r.colimit.classes)}),
    Target("diagram.validate_diagram", "amalgam.diagram", "validate_diagram"),
    Target("diagram.build_cocone_forest", "amalgam.diagram", "build_cocone_forest"),
    Target("diagram.validate_cocone", "amalgam.diagram", "validate_cocone"),
    Target("decide.decide", "amalgam.decide", "decide"),
)

# Derived per-layer metrics that are not a plain per-pass sum.
DISCRETE_SHARE = "fincat.monic_reflection.discrete_share"
RUN_METRICS = ("trace.overhead", "trace.coverage")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for t in TARGETS:
        units[f"{t.name}.ms"] = "ms"
        units[f"{t.name}.calls"] = "count"
        for c in t.counters:
            units[f"{t.name}.{c}"] = "bytes" if c == "bytes" else "count"
        if t.name == "fincat.monic_reflection":
            units[DISCRETE_SHARE] = "ratio"
    for name in RUN_METRICS:
        units[name] = "ratio"
    return units


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int]] = []  # name idx, start, end, parent
        self.counts: dict[tuple[int, str], float] = {}
        self.discrete = 0
        self.missing: list[str] = []
        self.unreadable: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for k, target in enumerate(TARGETS):
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(target.name)
                continue
            original = getattr(module, target.attr, None)
            if original is None:
                self.missing.append(target.name)
            elif isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    self.missing.append(target.name)
                    continue
                self._bind(original, "__init__", self._wrap(k, target, init))
            else:
                wrapper = self._wrap(k, target, original)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "amalgam" and not name.startswith("amalgam."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, wrapper)

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, k: int, target: Target, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            stack.append(len(spans))
            spans.append((k, 0.0, 0.0, parent))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                me = stack.pop()
                spans[me] = (k, start, end, parent)
            self._count(k, target, args, result)
            return result

        return traced

    def _count(self, k: int, target: Target, args, result) -> None:
        for counter, read in target.counters.items():
            try:
                value = read(args, result)
            except (AttributeError, TypeError, IndexError, OSError):
                self.unreadable.add(f"{target.name}.{counter}")
                continue
            key = (k, counter)
            self.counts[key] = self.counts.get(key, 0) + value
            if counter == "merged" and value == 0:
                self.discrete += 1

    # -- reduction -------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Per-pass self time, calls and counters for every target."""
        n = len(TARGETS)
        self_time = [0.0] * n
        total_time = [0.0] * n
        calls = [0] * n
        covered = [0.0] * len(self.spans)
        for k, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (k, start, end, parent) in enumerate(self.spans):
            self_time[k] += end - start - covered[i]
            total_time[k] += end - start
            calls[k] += 1
        out: dict[str, float] = {}
        for k, t in enumerate(TARGETS):
            out[f"{t.name}.ms"] = self_time[k] * 1000 / passes
            out[f"{t.name}.calls"] = calls[k] / passes
            for c in t.counters:
                out[f"{t.name}.{c}"] = self.counts.get((k, c), 0) / passes
            if t.name == "fincat.monic_reflection":
                out[DISCRETE_SHARE] = self.discrete / calls[k] if calls[k] else 0.0
        main = next(k for k, t in enumerate(TARGETS) if t.name == "cli.main")
        out["trace.overhead"] = overhead
        out["trace.coverage"] = (
            1 - self_time[main] / total_time[main] if total_time[main] else 0.0
        )
        return out
