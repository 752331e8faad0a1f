"""In-memory span tracing by wrapping functions where their callers look them up.

A ``Tracer`` replaces module attributes with wrappers that record one span
per call: name, start, end, parent span and trial id.  Spans stay in memory
and are written out once, after the traced run.  Leaving the tracer's
``with`` block restores every original attribute, also when the run raises.
The tracer assumes a single thread: spans nest by call order.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None
    error: str | None = None
    repaired: bool | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls; use as a context manager."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # Trial id stamped on new spans; the workload loop or a
        # ``starts_trial`` wrapper sets it, an ``ends_trials`` wrapper clears it.
        self.trial: int | None = None
        self._trials_started = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, *, starts_trial=False, ends_trials=False, note=None):
        """Replace ``owner.attr`` with a wrapper recording a span per call.

        Args:
            owner: module (or object) through which callers look the function up.
            attr: attribute name on ``owner``.
            name: span name, or a callable ``(args, kwargs) -> str``.
            starts_trial: each call opens a new trial id.
            ends_trials: clear the trial id when a call returns.
            note: optional ``(args, kwargs, result) -> dict`` of span fields.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if starts_trial:
                tracer.trial = tracer._trials_started
                tracer._trials_started += 1
            span = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
                if ends_trials:
                    tracer.trial = None
            if note is not None:
                for key, value in note(args, kwargs, result).items():
                    setattr(span, key, value)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)
        return traced

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            end=float("nan"),
            parent=self._stack[-1] if self._stack else None,
            trial=self.trial,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def median_ms(values) -> float:
    """Median of seconds, in ms; 0.0 when nothing was recorded."""
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0
