"""In-memory span recorder and the wrappers that feed it.

Wrappers are installed from the benchmark's side on the name each caller
actually looks up (``from .x import f`` binds ``f`` in the caller's
module, so ``swarmids.cli.parse_kdd`` is patched next to
``swarmids.dataset.parse_kdd``). Nothing in ``src/`` is instrumented.

A span is (id, parent id, name, start, end, count). Each thread keeps
its own parent stack because cross-validation runs folds on a pool;
spans are appended under a lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 = root of its thread
    name: str
    start: float
    end: float
    count: int  # work units the call handled (rows, iterations); 0 if none

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record the body as one span; yields a one-item list whose value
        the body may set to the span's work count."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        count = [0]
        start = time.perf_counter()
        try:
            yield count
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end, count[0]))

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``count(args, result)`` gives
        the span's work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as units:
                result = fn(*args, **kwargs)
                if count is not None:
                    units[0] = count(args, result)
                return result

        return traced


def _rows_arg(args, result):
    return len(args[0])


def _rows_result(args, result):
    return len(result)


def _order_rows(args, result):
    return len(args[2])  # hinge_epoch(x, y, order, ...)


def _iterations(args, result):
    return len(result.history)


# (module or module:class, attribute, span name, count function). One span
# name may sit on several call sites; each call site is patched once, so
# nothing is counted twice.
TARGETS = (
    ("swarmids.dataset", "parse_kdd", "dataset.parse_kdd", _rows_result),
    ("swarmids.cli", "parse_kdd", "dataset.parse_kdd", _rows_result),
    ("swarmids.cli", "fit_encoding", "dataset.fit_encoding", _rows_arg),
    ("swarmids.evaluation", "fit_encoding", "dataset.fit_encoding", _rows_arg),
    ("swarmids.cli", "encode", "dataset.encode", _rows_arg),
    ("swarmids.evaluation", "encode", "dataset.encode", _rows_arg),
    ("swarmids.cli", "fit_normalize", "dataset.normalize", None),
    ("swarmids.evaluation", "fit_normalize", "dataset.normalize", None),
    ("swarmids.cli", "apply_normalize", "dataset.normalize", None),
    ("swarmids.evaluation", "apply_normalize", "dataset.normalize", None),
    ("swarmids.cli", "line_chart", "svg.render", None),
    ("swarmids.cli", "bar_chart", "svg.render", None),
    ("swarmids.cli", "cross_validate", "evaluation.cross_validate", None),
    ("swarmids.evaluation", "_run_fold", "evaluation.fold", None),
    ("swarmids.cli", "run", "optimizer.run", _iterations),
    ("swarmids.evaluation", "run", "optimizer.run", _iterations),
    ("swarmids.selection:WrapperObjective", "breakdown", "selection.objective", None),
    ("swarmids.selection", "mask_fitness", "selection.mask_fitness", None),
    ("swarmids.selection", "project_features", "selection.project_features", None),
    ("swarmids.selection", "train_ova", "classifier.train_ova", None),
    ("swarmids.evaluation", "train_ova", "classifier.train_ova", None),
    ("swarmids.classifier", "train_binary", "classifier.train_binary", None),
    ("swarmids.classifier", "hinge_objective", "classifier.hinge_objective", None),
    ("swarmids.classifier", "hinge_epoch", "kernels.hinge_epoch", _order_rows),
    ("swarmids.selection", "predict", "classifier.predict", None),
    ("swarmids.evaluation", "predict", "classifier.predict", None),
)


def _owner(path: str):
    """Module ``a.b`` or class ``a.b:C`` that holds a patched name."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def installed(recorder: Recorder):
    """Patch every target for the duration of the block, then restore."""
    saved = []
    try:
        for path, attr, name, count in TARGETS:
            owner = _owner(path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
