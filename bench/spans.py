"""Span tracing for the traced benchmark pass.

The wrappers are installed from the outside, at every module attribute
through which the package calls a layer (its *binding sites*): ``cli`` holds
its own ``min_set``, ``verify_set`` and ``graph_from_text``, ``solve`` holds
``verify_set`` and ``verify_kind``, ``sat_reduction`` holds ``min_set`` and
``propagate``.  Patching only the defining module would miss those calls.

A hook whose target no longer exists (renamed by a refactor) is reported as
absent instead of failing the run.  Spans are kept in flat arrays (about 25
bytes each) and written once, after the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  One entry per binding site; entries that
# share a span name time the same layer reached through different modules.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("oldsets.cli", "main", "cli.main"),
    ("oldsets.cli", "graph_from_text", "graph.graph_from_text"),
    ("oldsets.cli", "min_set", "solve.min_set"),
    ("oldsets.cli", "verify_set", "verify.verify_set"),
    ("oldsets.verify", "verify_set", "verify.verify_set"),
    ("oldsets.solve", "verify_set", "verify.verify_set"),
    ("oldsets.solve", "verify_kind", "verify.verify_kind"),
    ("oldsets.solve", "min_set", "solve.min_set"),
    ("oldsets.solve", "propagate", "solve.propagate"),
    ("oldsets.solve", "_bound", "solve.bound"),
    ("oldsets.solve", "_Search._branch_vertex", "solve.branch"),
    ("oldsets.solve", "_Search.find_value", "solve.find_value"),
    ("oldsets.solve", "_Search.collect", "solve.collect"),
    ("oldsets.sat_reduction", "min_set", "solve.min_set"),
    ("oldsets.sat_reduction", "propagate", "solve.propagate"),
    ("oldsets.sat_reduction", "parse_dimacs", "sat_reduction.parse_dimacs"),
    ("oldsets.sat_reduction", "build_reduction", "sat_reduction.build_reduction"),
    ("oldsets.sat_reduction", "decide_sat_via_redold", "sat_reduction.decide_sat_via_redold"),
    ("oldsets.sat_reduction", "satisfiable_bruteforce", "sat_reduction.satisfiable_bruteforce"),
    ("oldsets.grids", "verify_pattern", "grids.verify_pattern"),
    ("oldsets.grids", "search_patterns", "grids.search_patterns"),
    ("oldsets.grids", "build_torus", "grids.build_torus"),
    ("oldsets.grids", "restrict_pattern_to_torus", "grids.restrict_pattern_to_torus"),
    ("oldsets.grids", "builtin_pattern", "grids.builtin_pattern"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in HOOKS))


class Tracer:
    """Records one span per wrapped call plus exact counters.

    ``request`` is set by the harness before each request so that the spans
    of one request share an id (-1 marks in-process set-up).
    """

    def __init__(self) -> None:
        self.names: list[str] = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("b")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        # per span name: [calls, total seconds, self seconds]
        self.agg = {name: [0, 0.0, 0.0] for name in self.names}
        self.counts = {
            "solve.nodes": 0,
            "solve.find_value.nodes": 0,
            "solve.collect.nodes": 0,
            "solve.root_gap": 0,
            "solve.propagate.conflicts": 0,
            "verify.verify_set.accepted": 0,
            "grids.verify_pattern.accepted": 0,
        }
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> list:
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.req.append(self.request)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        idx = frame[0]
        self.start[idx] = t0
        self.end[idx] = t1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        a = self.agg[name]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[1]

    def wrap(self, name: str, fn):
        """Wrap ``fn`` in a span and book its exact counters."""
        tracer = self
        book = _BOOK.get(name)
        phase = name in _PHASE_NODES

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            # search phases are methods of the search object: node deltas
            # are read from it around the call
            before = _nodes(args) if phase else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._close(name, frame, t0, t1)
            if book is not None:
                book(tracer.counts, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, leaf, None) if holder is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._undo.append((holder, leaf, fn))
            setattr(holder, leaf, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            holder, leaf, fn = self._undo.pop()
            setattr(holder, leaf, fn)

    def absent_spans(self) -> set[str]:
        """Span names none of whose hooks could be installed."""
        present = {name for m, a, name in HOOKS if f"{m}.{a}" not in self.absent}
        return set(self.names) - present

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Binary span table: a JSON header line, then the five columns."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [
                ["name_id", self.name_id.typecode],
                ["parent", self.parent.typecode],
                ["request", self.req.typecode],
                ["start_s", self.start.typecode],
                ["end_s", self.end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_id, self.parent, self.req, self.start, self.end):
                col.tofile(fh)


def _nodes(args):
    return getattr(args[0], "nodes", None) if args else None


def _book_phase(key):
    def book(counts, args, result, before):
        after = _nodes(args)
        if isinstance(before, int) and isinstance(after, int):
            counts[key] += after - before
        if key == "solve.find_value.nodes":
            # find_value(root, ub) returns the optimum; root carries the
            # root lower bound
            lb = getattr(args[1], "lower_bound", None) if len(args) > 1 else None
            if isinstance(result, int) and isinstance(lb, int):
                counts["solve.root_gap"] += result - lb
    return book


def _book_min_set(counts, args, result, before):
    counts["solve.nodes"] += getattr(result, "nodes", 0) or 0


def _book_propagate(counts, args, result, before):
    if result is None:
        counts["solve.propagate.conflicts"] += 1


def _book_holds(key):
    def book(counts, args, result, before):
        if getattr(result, "holds", False):
            counts[key] += 1
    return book


_PHASE_NODES = {"solve.find_value", "solve.collect"}

_BOOK = {
    "solve.min_set": _book_min_set,
    "solve.propagate": _book_propagate,
    "solve.find_value": _book_phase("solve.find_value.nodes"),
    "solve.collect": _book_phase("solve.collect.nodes"),
    "verify.verify_set": _book_holds("verify.verify_set.accepted"),
    "grids.verify_pattern": _book_holds("grids.verify_pattern.accepted"),
}
