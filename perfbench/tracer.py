"""Spans recorded from outside the program, by wrapping its public calls.

A :class:`Tracer` patches chosen methods and functions of ``repro`` with
wrappers that record one span per call: name, start, end, parent span and
request id.  Parents come from a per-thread stack, so a wrapped call made
inside another wrapped call on the same thread is its child.  Spans stay
in memory and are written out once, at exit.  Nothing is patched until
:meth:`Tracer.install`, and :meth:`Tracer.uninstall` restores every
original, so untraced runs execute the program untouched.

A function imported by name into other modules (``from x import f``) is
patched in every ``repro`` module that holds it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

#: ``(owner, attribute, span name)`` for class methods; the owner is given
#: as ``"module:Class"``.  Private methods are never wrapped.
METHOD_TARGETS = (
    ("repro.serve.service:ShardedLookupService", "__init__", "service.start"),
    ("repro.serve.service:ShardedLookupService", "serve_batch", "service.serve_batch"),
    ("repro.lsm.tree:LSMTree", "probe", "tree.probe"),
    ("repro.lsm.sstable:SSTable", "matches_many", "block.matches_many"),
    ("repro.lsm.sstable:SSTable", "probe_many", "filter.probe_many"),
    ("repro.lsm.memtable:MemTable", "put", "memtable.write"),
    ("repro.lsm.memtable:MemTable", "delete", "memtable.write"),
    ("repro.lsm.online:OnlineLSMTree", "flush", "online.flush"),
    ("repro.lsm.online:OnlineLSMTree", "lookup_many", "online.lookup_many"),
    ("repro.lsm.lifecycle:FilterLifecycle", "observe_epoch", "lifecycle.observe_epoch"),
    ("repro.obs.drift:DriftMonitor", "observe", "drift.observe"),
)

#: ``(module, function, span name)`` for module-level functions.
FUNCTION_TARGETS = (
    ("repro.api.registry", "build_filter", "design.build_filter"),
    ("repro.serve.shard", "route_queries", "service.route"),
    ("repro.serve.shm", "snapshot_tree", "setup.snapshot"),
    ("repro.lsm.merge", "merge_entry_runs", "compaction.merge"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    request_id: str | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # Recording                                                          #
    # ------------------------------------------------------------------ #

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        """Record the ``with`` body as a span, child of this thread's open span."""
        stack = self._stack()
        parent_id, inherited = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        request_id = request_id if request_id is not None else inherited
        stack.append((span_id, request_id))
        start = perf_counter_ns()
        try:
            yield span_id
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent_id, name, start, end, request_id))

    def wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    # Patching                                                           #
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every target; raises if one no longer exists."""
        for owner, attribute, name in METHOD_TARGETS:
            module_name, class_name = owner.split(":")
            cls = getattr(importlib.import_module(module_name), class_name)
            original = getattr(cls, attribute)
            own = attribute in cls.__dict__
            self._patches.append((cls, attribute, cls.__dict__.get(attribute), own))
            setattr(cls, attribute, self.wrap(original, name))
        for module_name, attribute, name in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = self.wrap(original, name)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if vars(module).get(attribute) is original:
                    self._patches.append((module, attribute, original, True))
                    setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------ #
    # Analysis                                                           #
    # ------------------------------------------------------------------ #

    def nesting_errors(self) -> list[str]:
        """Every child span that starts before or ends after its parent."""
        by_id = {span.span_id: span for span in self.spans}
        errors = []
        for span in self.spans:
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                errors.append(f"{span.name} #{span.span_id}: parent never closed")
            elif span.start_ns < parent.start_ns or span.end_ns > parent.end_ns:
                errors.append(
                    f"{span.name} #{span.span_id} outside {parent.name} #{parent.span_id}"
                )
        return errors

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in seconds.

        Self time is a span's duration minus its children's; children of
        one span run on its thread, one after another, so they never
        overlap.
        """
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_ns[span.parent_id] = child_ns.get(span.parent_id, 0) + span.duration_ns
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration_ns / 1e9
            row["self_s"] += (span.duration_ns - child_ns.get(span.span_id, 0)) / 1e9
        return table

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        [span.span_id, span.parent_id, span.name, span.start_ns,
                         span.end_ns, span.request_id]
                    )
                )
                handle.write("\n")
