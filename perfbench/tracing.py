"""In-memory spans recorded by the benchmark around its own calls into
polaraut, and the per-layer self time computed from them.

A span has a name, a layer, a start, an end, the index of the span that
caused it and an optional tag.  The layer of a call into the package is
the module that defines the called function (``polaraut.decode`` gives
``decode``); spans that group benchmark steps have the layer ``bench``.
With tracing off nothing is recorded and a call costs one extra Python
frame.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench", tag: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, tag))
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        """fn(*args, **kwargs) inside a span of fn's layer."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, layer_of(fn), tag):
            return fn(*args, **kwargs)

    def _phase_of(self) -> list[str]:
        """Name of each span's outermost ancestor (spans open in order,
        so a parent always precedes its children)."""
        out: list[str] = []
        for s in self.spans:
            out.append(s.name if s.parent is None else out[s.parent])
        return out

    def durations(self, name: str, phases: tuple[str, ...], tag: str | None = None) -> list[float]:
        return [
            s.duration
            for s, ph in zip(self.spans, self._phase_of())
            if ph in phases and s.name == name and (tag is None or s.tag == tag)
        ]

    def self_time_by_layer(self, phases: tuple[str, ...]) -> dict[str, float]:
        """Each span's duration minus the time its direct children cover,
        summed per layer over the given phases.  Children of one span run
        one after another, so their durations add up without overlap."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, c, ph in zip(self.spans, covered, self._phase_of()):
            if ph in phases:
                out[s.layer] = out.get(s.layer, 0.0) + s.duration - c
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
