"""In-memory spans for the traced run.

A span is (name, start_ns, end_ns, parent index, op id). Spans are appended
when they open, so a parent always precedes its children and self time needs
one pass. The layer of a span is the longest layer name its name starts with;
spans the benchmark opens itself (``bench.*``) belong to no layer.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager

LAYERS = (
    "activation",
    "network",
    "codes",
    "retrieval",
    "harness.data",
    "harness.config",
    "harness.experiment",
    "harness.cli",
)

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name) -> str:
    """Return name if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not _METRIC_NAME.fullmatch(name):
        raise ValueError(f"metric name must match [A-Za-z0-9_.-]+ (at most 64, first alphanumeric), got {name!r}")
    return name


def layer_of(span_name: str) -> str:
    best = "bench"
    for layer in LAYERS:
        if span_name.startswith(layer + ".") and (best == "bench" or len(layer) > len(best)):
            best = layer
    return best


class Tracer:
    """Collects spans and counters in memory; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = "setup"
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name, count=None):
        """fn wrapped in a span and/or a counter.

        name is a span name, a function of the call's arguments giving one, or
        None for no span. count is (counter, amount) where amount maps the
        call's arguments to the number added; counters are kept per op id.
        """

        def traced(*args, **kwargs):
            if count is not None:
                key = (count[0], self.op)
                self.counters[key] = self.counters.get(key, 0) + count[1](*args, **kwargs)
            if name is None:
                return fn(*args, **kwargs)
            idx = self.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        traced.__wrapped__ = fn
        return traced

    def counted(self, counter: str, ops=None) -> int:
        return sum(v for (c, op), v in self.counters.items() if c == counter and (ops is None or op in ops))

    def durations(self, name: str, *, parent: str | None = None, ops=None) -> list:
        """Seconds of every closed span called name (optionally under a parent name, within ops)."""
        out = []
        for s in self.spans:
            if s[0] != name or (ops is not None and s[4] not in ops):
                continue
            if parent is not None and (s[3] < 0 or self.spans[s[3]][0] != parent):
                continue
            out.append((s[2] - s[1]) / 1e9)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def patched(tracer: Tracer, patches):
    """Replace module attributes with traced wrappers for the duration of the block.

    patches holds (module, attribute, span name, count) entries, with the
    meaning Tracer.wrap gives name and count.
    """
    saved = []
    try:
        for module, attr, name, count in patches:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, count))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans) -> list:
    """Per span, its duration minus the durations of its direct children, in ns."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_shares(spans, ops) -> dict:
    """Self time per layer over total top-level span time, for spans tagged with an op in ops.

    Also returns the benchmark's own glue as ``bench``; the shares sum to 1.
    """
    total = sum(s[2] - s[1] for s in spans if s[3] < 0 and s[4] in ops)
    if total <= 0:
        raise ValueError("no top-level spans in the selected ops")
    per_layer = dict.fromkeys((*LAYERS, "bench"), 0)
    for s, own in zip(spans, self_times(spans)):
        if s[4] in ops:
            per_layer[layer_of(s[0])] += own
    return {layer: ns / total for layer, ns in per_layer.items()}
