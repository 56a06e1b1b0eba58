"""In-memory span recorder for the benchmark's traced run.

The benchmark wraps every call it makes into a layer of the library
(``topology.generate``, ``measurement.traceroute``, ``core.engine_run``, ...)
in :meth:`Tracer.span`.  A disabled tracer records nothing, so the untraced
run executes the same code with no bookkeeping.  Spans are kept in memory and
written out as JSON once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Records nested spans while :attr:`enabled`; a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span | None]:
        """Time the enclosed block as a child of the innermost open span.

        The yielded span (``None`` when disabled) takes count attributes.
        """
        if not self.enabled:
            yield None
            return
        record = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def roots(self) -> list[int]:
        """The index of each span's top-level ancestor."""
        roots: list[int] = []
        for index, span in enumerate(self.spans):
            roots.append(index if span.parent is None else roots[span.parent])
        return roots

    def _preferred(self, members: dict[str, list[int]], root: str) -> dict[str, list[int]]:
        """Per key, only its spans under top-level spans named ``root``, if any."""
        roots = self.roots()
        kept = {}
        for key, indices in members.items():
            under = [i for i in indices if self.spans[roots[i]].name == root]
            kept[key] = under or indices
        return kept

    def layer_seconds(self, root: str) -> dict[str, float]:
        """Per span name: self seconds per top-level span that contains it.

        Only top-level spans named ``root`` count for a name found under any.
        """
        members: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            members.setdefault(span.name, []).append(index)
        own = self.self_times()
        roots = self.roots()
        return {
            name: sum(own[i] for i in indices) / len({roots[i] for i in indices})
            for name, indices in self._preferred(members, root).items()
        }

    def attr_means(self, root: str) -> dict[str, float]:
        """Per attribute: its mean over the spans that carry it (``root`` first)."""
        members: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            for key in span.attrs:
                members.setdefault(key, []).append(index)
        return {
            key: sum(self.spans[i].attrs[key] for i in indices) / len(indices)
            for key, indices in self._preferred(members, root).items()
        }

    def write(self, path: Path, header: dict[str, object]) -> None:
        """Write the header and every span, with its self time, as JSON."""
        spans = [
            dict(asdict(span), self_s=own)
            for span, own in zip(self.spans, self.self_times())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(header, spans=spans), indent=1) + "\n")
