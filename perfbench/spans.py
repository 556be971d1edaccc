"""In-memory span recording and the self-time arithmetic of the traced run.

A span is one timed call at a layer boundary: ``(span_id, parent, name,
start, end)``.  The client sends its span id as the ``X-Request-Id``
header, so the server's spans of that request hang under it::

    client.<route>    load generator, around ResilientClient.request (id = request id)
    http.<route>      server, around the handler's do_GET/do_POST (parent = request id;
                      one per attempt when the client retries)
    service.<method>  server, around the ReputationService method
    wal.append        server, around WriteAheadLog.append

A span's self time is its duration minus the part of it its children
cover.  The client span's self time is what the transport (TCP, kernel,
HTTP framing, JSON on the client) costs, because nothing between the
client and the handler is instrumented.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass

ROUTES = ("feedback", "scores", "peer", "snapshot")

#: Service methods the traced server wraps, by the OperationClock family
#: the service itself reports them under in ``/v1/health``.
SERVICE_FAMILIES = {
    "ingest_many": "ingest",
    "scores": "query",
    "peer": "query",
    "ranking": "query",
    "snapshot": "snapshot",
}


def route_of(path: str) -> str:
    """The route name of a v1 request path (``/v1/peers/x`` -> ``peer``)."""
    parts = path.split("?", 1)[0].split("/")
    name = parts[2] if len(parts) > 2 else ""
    return {"peers": "peer"}.get(name, name)


@dataclass(frozen=True)
class Span:
    span_id: str
    parent: str | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe, append-only span store, written out once at the end."""

    def __init__(self, prefix: str = "r") -> None:
        self._prefix = prefix
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self.spans: list[Span] = []

    def new_id(self) -> str:
        with self._lock:
            return f"{self._prefix}{next(self._ids)}"

    def record(
        self, span_id: str, parent: str | None, name: str, start: float, end: float
    ) -> None:
        span = Span(span_id, parent, name, start, end)
        with self._lock:
            self.spans.append(span)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def read_jsonl(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to ``span``."""
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end)) for child in children
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to their parent, so a self time is never negative
    and never larger than the span itself.
    """
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.span_id: max(0.0, span.duration) - _covered(span, children[span.span_id])
        for span in spans
    }
