"""Span tracing from the benchmark's side of the layer boundaries.

The program carries no tracing of its own yet, so the traced run wraps
the public functions and methods of each ``repro`` layer *in the
benchmark process* for the duration of each traced slice, and unwraps
them afterwards.  Each wrapped call is a span on a per-thread stack; a
span's self time is its duration minus the time its child spans cover.
Spans are aggregated per name as they close (count, inclusive and self
seconds), so memory stays flat however long the run.

A ``binarize.rescale`` span swallows its subtree: a span opened while
one is open on the same thread is not recorded, so its time stays in
the re-scaling span's self time.  The FP 1x1 convs inside the SCALES
re-scaling branches count as re-scaling, not as ``nn.conv``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Span whose subtree is recorded as its own self time.
ABSORB = "binarize.rescale"


class _Open:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Per-name span totals, recorded from any thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.count: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str):
        stack = self._stack()
        if stack and stack[-1].name == ABSORB:
            return None
        span = _Open(name, time.perf_counter())
        stack.append(span)
        return span

    def exit(self, span) -> None:
        if span is None:
            return
        duration = time.perf_counter() - span.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += duration
        name = span.name
        with self._lock:
            self.count[name] += 1
            self.inclusive_s[name] += duration
            self.self_s[name] += duration - span.child

    def mark(self, name: str, n: int = 1) -> None:
        """Count an event that has no duration."""
        with self._lock:
            self.count[name] += n

    # -- wrapping ------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(span)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        self.patch_raw(owner, attr, lambda fn: self.wrap(fn, name))

    def patch_raw(self, owner, attr: str,
                  wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``wrapper(owner.attr)`` until
        :meth:`unpatch_all`.

        ``owner`` is a class (methods, inherited ones included) or a
        module (functions looked up through that module at call time).
        A missing attribute raises, so a probe that lost its target
        fails the traced run instead of reading 0.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper(original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------

    def per_item_ms(self, name: str, items: int, inclusive: bool = False
                    ) -> float:
        totals = self.inclusive_s if inclusive else self.self_s
        return 1e3 * totals.get(name, 0.0) / max(items, 1)

    def per_item_count(self, name: str, items: int) -> float:
        return self.count.get(name, 0) / max(items, 1)
