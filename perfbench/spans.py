"""In-memory span tracer installed around the program's public calls.

The benchmark never edits the program: a traced run replaces selected
module or class attributes (``extract_subject_maps``,
``InferenceService.pump``, ``ComputeBackend.forward_many``, ...) with
wrappers that record one span per call, and :meth:`Tracer.uninstall`
puts the originals back.  Spans live in memory and are written once, at
exit, as a JSON trace plus a text summary of self time per layer.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span (or -1), ``request`` the user id or chunk
index the call served (or None).  A layer is the part of a span name
before the first dot; its self time is its spans' durations minus the
time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Records nested spans and counters; patches and restores callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # Each span: [name, start, end, parent, request].
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.request: Optional[Any] = None
        #: Index of the first span of the traced body (set by the caller).
        self.body_start = 0

    # -- recording ---------------------------------------------------------
    def open(self, name: str, request: Any = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if request is None:
            request = self.request
        self.spans.append([name, self.clock(), None, parent, request])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # -- patching ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        request: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
        kind: str = "function",
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request(*args, **kwargs)`` picks the span's request id from the
        call; ``after(result, *args, **kwargs)`` records counters from
        the result.  ``kind="classmethod"`` re-wraps a classmethod.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = raw.__func__ if kind == "classmethod" else raw
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            index = tracer.open(
                name, request(*args, **kwargs) if request else None
            )
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        replacement = classmethod(wrapper) if kind == "classmethod" else wrapper
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus direct children."""
        child: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0 and s[2] is not None:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, float] = defaultdict(float)
        for index, s in enumerate(self.spans):
            if s[2] is not None:
                out[s[0]] += (s[2] - s[1]) - child[index]
        return dict(out)

    def layer_self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, value in self.self_times().items():
            out[name.split(".", 1)[0]] += value
        return dict(out)

    def write(self, json_path, text_path, extra: Dict) -> None:
        """Dump the spans (JSON) and a self-time-per-layer summary (text)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [
                [s[0], round(s[1] - origin, 7), round(s[2] - origin, 7), s[3], s[4]]
                for s in self.spans
                if s[2] is not None
            ],
            "counters": dict(self.counters),
            **extra,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, default=str)
        names = self.self_times()
        counts: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            counts[s[0]] += 1
        lines = ["self time per layer (s)"]
        for layer, value in sorted(
            self.layer_self_times().items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {layer:<16} {value:10.4f}")
        lines.append("self time per span (s, calls)")
        for name, value in sorted(names.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<40} {value:10.4f} {counts[name]:8d}")
        with open(text_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

