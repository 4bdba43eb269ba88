"""Span tracer for the traced benchmark run.

The tracer replaces each public function of the traced apex modules with a
wrapper at the module attribute, so calls between modules and within a
module both pass through it. Each call becomes a span (name, start, end,
parent, step, phase). Every span is kept in memory in compact arrays
(32 bytes a span) and written out once, at the end of the run, together
with per-function totals (calls, total time, self time).

Three counters are taken where the work happens:

* ``nodes``: autodiff graph nodes, counted in ``Node.__init__``;
* ``finite_checks``: calls of ``numpy.isfinite``;
* ``fft2``: 2-D transforms, calls of ``numpy.fft.fft2`` and ``numpy.fft.ifft2``.

A training step starts when ``losses.sample_batch`` is entered inside
``harness.train`` and lasts until the next one or until ``harness.train``
returns; work outside a step (initialisation, evaluation) has step -1.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Identity conversions called by every autodiff op; a span for each would
# multiply the tracing cost without adding a layer boundary.
SKIPPED = {"apex.numerics.as_node", "apex.numerics.as_tensor"}

# Functions whose first argument is a file path; the file's size is added to
# the counter "<name>.bytes" after each call.
FILE_BYTES = {"apex.tensorio.write_tensor", "apex.tensorio.read_tensor"}

STEP_MARKER = "apex.losses.sample_batch"
STEP_SCOPE = "apex.harness.train"
COUNTERS = ("nodes", "finite_checks", "fft2")


class Tracer:
    """Wraps module functions on :meth:`install`, restores them on
    :meth:`uninstall`. Use one tracer per process at a time."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self.phases: list[str] = []
        self.begin("none")
        # (phase, name, in_step) -> [calls, total_s, self_s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, counter, in_step) -> count
        self.counts = defaultdict(int)
        self.steps = defaultdict(int)  # phase -> training steps
        self._span_name = array("i")
        self._span_phase = array("i")
        self._span_parent = array("i")
        self._span_step = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child time, in_step]
        self._step = -1
        self._in_step = False
        self._train_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod in self.modules:
            for attr, fn in sorted(vars(mod).items()):
                qualified = f"{mod.__name__}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or qualified in SKIPPED):
                    continue
                self._patch(mod, attr, self._span_wrapper(fn, self._name_id(qualified)))
        numerics = next(m for m in self.modules if m.__name__ == "apex.numerics")
        self._patch(numerics.Node, "__init__",
                    self._count_wrapper(numerics.Node.__init__, "nodes"))
        self._patch(np, "isfinite", self._count_wrapper(np.isfinite, "finite_checks"))
        self._patch(np.fft, "fft2", self._count_wrapper(np.fft.fft2, "fft2"))
        self._patch(np.fft, "ifft2", self._count_wrapper(np.fft.ifft2, "fft2"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _name_id(self, name: str) -> int:
        if name not in self.names:  # install may run more than once
            self.names.append(name)
        return self.names.index(name)

    def begin(self, phase: str) -> None:
        """Attribute everything recorded from now on to ``phase``."""
        if phase not in self.phases:
            self.phases.append(phase)
        self.phase = phase
        self._phase_index = self.phases.index(phase)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name_id: int):
        name = self.names[name_id]
        opens_scope = name == STEP_SCOPE
        marks_step = name == STEP_MARKER
        bytes_counter = f"{name}.bytes" if name in FILE_BYTES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_scope:
                self._train_depth += 1
            elif marks_step and self._train_depth:
                self._step += 1
                self._in_step = True
                self.steps[self.phase] += 1
            self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
                if opens_scope:
                    self._train_depth -= 1
                    self._in_step = False
            if bytes_counter:
                self.counts[(self.phase, bytes_counter, self._in_step)] += \
                    os.path.getsize(args[0])
            return result

        return traced

    def _count_wrapper(self, fn, counter: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[(self.phase, counter, self._in_step)] += 1
            return fn(*args, **kwargs)

        return counted

    def _enter(self, name_id: int) -> None:
        start = time.perf_counter()
        index = len(self._span_start)
        self._span_name.append(name_id)
        self._span_phase.append(self._phase_index)
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_step.append(self._step if self._in_step else -1)
        self._span_start.append(start)
        self._span_end.append(start)
        self._stack.append([index, name_id, start, 0.0, self._in_step])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, name_id, start, child, in_step = self._stack.pop()
        duration = end - start
        self._span_end[index] = end
        row = self.stats[(self.phase, self.names[name_id], in_step)]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    # -- queries -------------------------------------------------------------

    def totals(self, name: str, phase: str, in_step=None) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one function in one phase;
        ``in_step`` None sums calls inside and outside training steps."""
        calls, total, self_s = 0, 0.0, 0.0
        for flag in (True, False):
            if in_step is None or in_step == flag:
                row = self.stats.get((phase, name, flag))
                if row:
                    calls, total, self_s = calls + row[0], total + row[1], self_s + row[2]
        return calls, total, self_s

    def count(self, counter: str, phase: str, in_step: bool = True) -> int:
        return self.counts.get((phase, counter, in_step), 0)

    def step_counts(self, phase: str) -> dict:
        """Snapshot of the in-step counters and steps of one phase."""
        out = {c: self.count(c, phase) for c in COUNTERS}
        out["steps"] = self.steps.get(phase, 0)
        return out

    def summary_rows(self) -> list[dict]:
        """Calls, total and self time of every wrapped function that ran."""
        merged: dict = {}
        for (phase, name, _in_step), (calls, total, self_s) in self.stats.items():
            row = merged.setdefault((phase, name), [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return [{"phase": phase, "name": name, "calls": c, "total_ms": t * 1e3,
                 "self_ms": s * 1e3}
                for (phase, name), (c, t, s) in sorted(merged.items(),
                                                       key=lambda kv: -kv[1][2])]

    def write(self, directory: Path, stem: str) -> None:
        """Spans to ``<stem>.spans.npz``, per-function totals to ``<stem>.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            directory / f"{stem}.spans.npz",
            name=np.asarray(self._span_name), phase=np.asarray(self._span_phase),
            parent=np.asarray(self._span_parent), step=np.asarray(self._span_step),
            start=np.asarray(self._span_start), end=np.asarray(self._span_end),
            names=np.asarray(self.names), phases=np.asarray(self.phases))
        body = {"functions": self.summary_rows(),
                "counts": [{"phase": p, "counter": c, "in_step": s, "count": n}
                           for (p, c, s), n in sorted(self.counts.items())],
                "steps": dict(self.steps),
                "spans": len(self._span_start)}
        (directory / f"{stem}.json").write_text(json.dumps(body, indent=1) + "\n")
