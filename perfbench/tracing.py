"""Spans and counters recorded from outside the regionsim modules.

A :class:`Tracer` replaces a function at the name its caller looks it up
under (``trainer`` imports ``k_reciprocal`` from ``mining``, so the span
goes on ``trainer.k_reciprocal``) and puts every original back when the
``with`` block ends. Each span keeps its parent's name and its self time:
its duration minus the time its child spans cover. Spans stay in memory
and are summarised after the traced repetition, so nothing is written
while the program runs. The benchmark runs the program with one worker,
so a single span stack is enough.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    parent: Optional[str]
    start: float
    end: float
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install wrappers with :meth:`wrap` and :meth:`count`; leaving the
    ``with`` block restores every wrapped attribute, last patched first."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``before(*args, **kwargs)`` runs outside the span, so work it does
        (such as counting graph nodes) is not charged to the layer;
        ``after(result)`` sees the return value, also outside the span.
        """
        original = getattr(owner, attr)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack.append([name, 0.0])
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                _, child_s = stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    Span(name, parent[0] if parent else None, start, end, end - start - child_s)
                )
            if after is not None:
                after(result)
            return result

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr`` without timing them (for hot paths)."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper):
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)
