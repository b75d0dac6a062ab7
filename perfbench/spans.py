"""In-memory span tracer that wraps the package's public functions from outside.

Callers inside the package import their callees by name
(``from .features import build_learning_data``), so a function is wrapped at
the name its caller resolves: ``abacfill.prediction.build_learning_data``, not
``abacfill.features.build_learning_data``.  Each wrapped call records one span
(name, start, end, parent) plus counts read off its result.  Every thread keeps
its own parent stack; a span opened on a worker thread with an empty stack
takes as parent the innermost open span of the thread that installed the
tracer, which is the call that started the workers.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time


def _build_counts(data):
    rows, cols = data.row_count, len(data.features)
    return {"rows": rows, "columns": cols, "matrix_cells": rows * cols}


def _predict_counts(predictions):
    return {"cells": len(predictions), "nei": sum(1 for p in predictions if not p.predicted)}


# (module, attribute, span name, counts read off the result)
WRAPPED = (
    ("abacfill.cli", "main", "cli", None),
    ("abacfill.cli", "load_policy", "policy_io.load", None),
    ("abacfill.cli", "load_entitlements", "policy_io.load", None),
    # harness copies a model through this; load_policy calls it too
    ("abacfill.policy_io", "policy_from_dict", "policy_io.from_dict", None),
    ("abacfill.cli", "generate", "generator.generate", None),
    ("abacfill.generator", "generate", "generator.generate", None),
    # reference_entitlements resolves policy_meaning in the generator module
    ("abacfill.generator", "policy_meaning", "evaluate.meaning", None),
    ("abacfill.cli", "cluster_objects", "clustering.cluster", lambda c: {"groups": len(c.groups)}),
    ("abacfill.harness", "cluster_objects", "clustering.cluster", lambda c: {"groups": len(c.groups)}),
    ("abacfill.cli", "predict_missing", "prediction.predict", _predict_counts),
    ("abacfill.harness", "predict_missing", "prediction.predict", _predict_counts),
    ("abacfill.prediction", "relevant_group_triples", "prediction.lookup", None),
    ("abacfill.prediction", "build_learning_data", "features.build", _build_counts),
    ("abacfill.prediction", "rank_features", "features.rank", lambda r: {"ranked": 1}),
    ("abacfill.features", "fit_least_squares", "features.fit", None),
    ("abacfill.cli", "evaluate_matrix", "harness.matrix", None),
    ("abacfill.harness", "evaluate_run", "harness.run", None),
)

# (module, attribute, count name): too many calls for a span each, so each
# call only bumps a count on the innermost open span of its thread
COUNTED = (("abacfill.clustering", "object_similarity", "similarity_calls"),)


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "counts")

    def __init__(self, sid, name, parent, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter()
        self.end = None
        self.counts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self, scope: str) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "scope": scope,
            "counts": self.counts,
        }


class Tracer:
    """Records spans into the current scope while its wrappers are installed."""

    def __init__(self):
        self.scopes = []  # (label, [Span]) in the order they were opened
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_scope(self, label: str) -> list:
        spans = []
        self.scopes.append((label, spans))
        return spans

    def _enter(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            owner = self._owner_stack
            parent = owner[-1].id if owner and stack is not owner else None
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        # list.append is atomic, so worker threads may record concurrently
        self.scopes[-1][1].append(span)

    def _span_wrapper(self, fn, name, counts_of):
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if counts_of is not None:
                    span.counts.update(counts_of(result))
                return result
            finally:
                self._exit(span)

        return wrapper

    def _count_wrapper(self, fn, key):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                counts = stack[-1].counts
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, name, counts_of in WRAPPED:
            self._patch(module, attr, lambda fn, n=name, c=counts_of: self._span_wrapper(fn, n, c))
        for module, attr, key in COUNTED:
            self._patch(module, attr, lambda fn, k=key: self._count_wrapper(fn, k))

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self) -> list:
        return [s.as_dict(label) for label, spans in self.scopes for s in spans]


# ------------------------------------------------------------------ analysis


def nesting_errors(spans) -> list:
    """Children must lie inside their parent, and every parent must be known."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.end is None or s.end < s.start:
            errors.append(f"span {s.id} {s.name} has no valid end")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"span {s.id} {s.name} names unknown parent {s.parent}")
        elif s.start < p.start or s.end > p.end:
            errors.append(f"span {s.id} {s.name} lies outside parent {p.id} {p.name}")
    return errors


def self_seconds(spans) -> dict:
    """Span id -> its duration minus the union of its children's intervals.
    Children on several threads may overlap; the union counts them once."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.seconds - covered
    return out
