"""In-memory span recorder, entry-point wrappers and a self-time aggregator.

The traced run attributes host time to layers from outside the program:
it replaces public entry points (module functions and class methods) with
wrappers that open a span around each call, runs one pass, and puts the
originals back. Spans carry a name (the layer), start, end and the index
of the span that was open when they began (their parent). They are kept
in memory and written out once the benchmark ends.

A layer's self time is its spans' duration minus the part covered by
their child spans. The recorder opens one root span around the pass, so
the self times of all layers plus the root's self time (``residual_s``,
the time no wrapper claimed) add up to the traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

ROOT = "residual"

#: ``describe(args, kwargs, result, error) -> attrs`` records what one call
#: did (sizes, tier, cycles); it runs after the span closes, so its own
#: cost lands in the parent's self time, not in the wrapped layer's.
Describe = Callable[[tuple, dict, Any, Optional[BaseException]], Dict[str, Any]]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded span stack; spans nest strictly."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(
                f"span {self.spans[idx].name!r} closed out of order"
            )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(
        self, layer: str, fn: Callable, describe: Optional[Describe] = None
    ) -> Callable:
        """``fn`` inside a ``layer`` span.

        A call made while a span of the same layer is already innermost
        (``FastModel.run`` calling ``FastModel.mttkrp``) runs unwrapped, so
        each layer counts one call per entry from another layer.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]].name == layer:
                return fn(*args, **kwargs)
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                if describe is not None:
                    spans[idx].attrs = describe(args, kwargs, None, exc)
                raise
            self.close(idx)
            if describe is not None:
                spans[idx].attrs = describe(args, kwargs, result, None)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Dump every span as one JSON list of ``[name, start, end,
        parent, attrs]`` rows."""
        rows = [
            [s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh, separators=(",", ":"), default=repr)


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0  # span durations, children included
    self_s: float = 0.0  # span durations minus child spans


def aggregate(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    """Per-layer call count, busy time and self time."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    totals: Dict[str, LayerTotals] = {}
    for s, covered in zip(spans, child_time):
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.busy_s += s.duration
        t.self_s += s.duration - covered
    return totals


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EntryPoint:
    """One public entry point to wrap: ``getattr(owner, attr)``."""

    owner: Any  # a module or a class
    attr: str
    layer: str
    describe: Optional[Describe] = None


@contextlib.contextmanager
def installed(
    recorder: SpanRecorder, entry_points: Sequence[EntryPoint]
) -> Iterator[None]:
    """Wrap every entry point for the duration of the block.

    Originals are read from the owner's ``__dict__`` (so a class method
    is restored as the same function object, not a bound copy) and put
    back in ``finally``; a wrapper left behind raises.
    """
    saved = []
    try:
        for ep in entry_points:
            original = vars(ep.owner)[ep.attr]
            saved.append((ep.owner, ep.attr, original))
            setattr(
                ep.owner, ep.attr,
                recorder.wrap(ep.layer, original, ep.describe),
            )
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")


def current(entry_points: Sequence[EntryPoint]) -> List[Any]:
    """The objects the entry points hold right now (compare by identity
    with a snapshot taken before any wrapper was installed)."""
    return [vars(ep.owner)[ep.attr] for ep in entry_points]
