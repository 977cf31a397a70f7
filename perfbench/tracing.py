"""Span tracing from outside the program: wrap public names, restore them after.

The tracer replaces the public functions and methods at the names that
`tripletlab.trainer` and `tripletlab.metrics` call with wrappers that record
one span per call (name, parent span, start, end). Spans stay in memory;
`summarize` turns them into per-span-name self time, call counts and
per-call durations. Nothing inside `src/` is changed: the wrappers are
installed by `installed()` and the original objects are put back when it
exits, also when the traced block raises.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder for one single-threaded traced run.

    Span i has a name, a parent (the index of the enclosing span, or -1 at
    the top level), a start and an end. They are kept in flat lists of
    strings and numbers, which the garbage collector does not track, so
    that a run's hundred thousand spans do not slow the collections the
    traced program triggers. Counters hold the layer counts that are read
    off return values (fallbacks, active triplets, dataset rows).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counters: Counter = Counter()
        self._stack: list = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def wrap(self, name: str, fn, on_result=None):
        """Wrapper of `fn` recording a `name` span per call; `on_result(self, out)` sees each result."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def block(self, name: str):
        """Record a span around the body of a `with` statement; yields the span's index."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)


def summarize(tracer: Tracer) -> dict:
    """Per span name: {"self_s", "calls", "durations"}.

    Self time is a span's duration minus the time its child spans cover.
    Spans of one thread nest strictly, so a parent's direct children never
    overlap and the covered time is the sum of their durations.
    """
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    covered = [0.0] * len(durations)
    for parent, duration in zip(tracer.parents, durations):
        if parent >= 0:
            covered[parent] += duration
    out: dict = {}
    for name, duration, children in zip(tracer.names, durations, covered):
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "durations": []})
        entry["self_s"] += duration - children
        entry["calls"] += 1
        entry["durations"].append(duration)
    return out


# ---- what gets wrapped ----

def _count_fallback(tracer: Tracer, out) -> None:
    tracer.counters["fallbacks"] += int(out[1])


def _count_active(tracer: Tracer, out) -> None:
    tracer.counters["active_triplets"] += int((out > 0.0).sum())
    tracer.counters["triplets"] += int(out.size)


def _count_rows(tracer: Tracer, out) -> None:
    tracer.counters["rows"] += out.n


def targets() -> list:
    """(owner, attribute, span name, result hook) for every wrapped public name.

    Module-level functions are wrapped in the namespace of the module that
    calls them (`trainer` imports them by name, `metrics` calls its own
    globals); methods are wrapped on their class, so every instance and
    every caller sees the wrapper (the policy updater's Adam steps nest
    inside `rl.update`, its forward passes show as `rl.policy`).
    """
    from tripletlab import metrics, model, rl, trainer

    return [
        (trainer, "generate_synthetic", "data.generate", _count_rows),
        (trainer, "load_dataset", "data.load", _count_rows),
        (trainer, "pairwise_distances", "geometry.pairwise", None),
        (metrics, "pairwise_distances", "geometry.pairwise", None),
        (trainer, "sample_negative_random", "samplers.select", None),
        (trainer, "sample_negative_semihard", "samplers.select", None),
        (trainer, "sample_negative_distweighted", "samplers.select", None),
        (trainer, "sample_negative_adaptive", "samplers.select", _count_fallback),
        (trainer, "init_pmf", "samplers.pmf_update", None),
        (trainer, "apply_action", "samplers.pmf_update", None),
        (trainer, "curriculum_pmf", "samplers.pmf_update", None),
        (model.EmbeddingModel, "forward", "model.forward", None),
        (trainer, "triplet_losses", "model.loss", _count_active),
        (trainer, "backward", "model.backward", None),
        (trainer, "margin_boundary_grads", "model.backward", None),
        (model.Adam, "step", "model.adam", None),
        (trainer, "evaluate", "metrics.evaluate", None),
        (metrics, "recall_at_k", "metrics.recall", None),
        (metrics, "clustering_nmi", "metrics.kmeans_nmi", None),
        (metrics, "class_distance_stats", "metrics.class_stats", None),
        (trainer, "build_state", "rl.state", None),
        (rl.PolicyNetwork, "forward", "rl.policy", None),
        (trainer, "sample_action", "rl.policy", None),
        (rl.PolicyUpdater, "update", "rl.update", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block, then restore every original."""
    originals = []
    try:
        for owner, attr, name, hook in targets():
            # read through __dict__ for classes so the raw function, not a bound method, is saved
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
