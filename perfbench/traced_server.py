"""Entry script of the traced serving run.

Builds the same service ``repro serve`` builds for the benchmark's flags,
using only ``repro.api`` names, and records spans at the public boundaries
it can reach:

* a subclass of the server's ``RequestHandlerClass`` times ``do_GET`` /
  ``do_POST`` and each connection;
* a ``ReputationService`` subclass times its public methods and
  ``restore``;
* the attached ``WriteAheadLog``'s ``append`` is wrapped on the instance.

Spans stay in memory and are written as JSONL to ``--spans`` after the
server stops (SIGTERM).

    PYTHONPATH=src python3 perfbench/traced_server.py --port-file PORT \\
        --wal WAL --spans SPANS.jsonl --restore SNAPSHOT
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from collections.abc import Callable
from types import FrameType

from measure import now
from spans import SERVICE_FAMILIES, SpanRecorder, route_of

from repro import api


def build_server(args: argparse.Namespace, recorder: SpanRecorder) -> object:
    context = threading.local()

    def timed(name: str, call: Callable[..., object], *a: object, **kw: object) -> object:
        parent = getattr(context, "span", None)
        span_id = recorder.new_id()
        context.span = span_id
        start = now()
        try:
            return call(*a, **kw)
        finally:
            recorder.record(span_id, parent, name, start, now())
            context.span = parent

    class TracedService(api.ReputationService):
        @classmethod
        def restore(cls, path: str) -> api.ReputationService:
            start = now()
            service = super().restore(path)
            recorder.record(recorder.new_id(), None, "checkpoint.restore", start, now())
            return service

    for method in SERVICE_FAMILIES:

        def wrapper(self: object, *a: object, _m: str = method, **kw: object) -> object:
            return timed(f"service.{_m}", getattr(api.ReputationService, _m), self, *a, **kw)

        setattr(TracedService, method, wrapper)

    service = TracedService.recover(wal_path=args.wal, snapshot_path=args.restore)
    wal = service.wal
    assert wal is not None
    append = wal.append
    wal.append = (  # type: ignore[method-assign]
        lambda *a, **kw: timed("wal.append", append, *a, **kw)
    )

    server = api.create_http_server(service)
    base = server.RequestHandlerClass

    class TracedHandler(base):  # type: ignore[misc, valid-type]
        def handle(self) -> None:
            start = now()
            try:
                super().handle()
            finally:
                recorder.record(recorder.new_id(), None, "http.connection", start, now())

        def _traced(self, call: Callable[[], None]) -> None:
            # The handler span's parent is the client span of this request.
            context.span = self.headers.get("X-Request-Id")
            try:
                timed(f"http.{route_of(self.path)}", call)
            finally:
                context.span = None

        def do_GET(self) -> None:
            self._traced(super().do_GET)

        def do_POST(self) -> None:
            self._traced(super().do_POST)

    server.RequestHandlerClass = TracedHandler
    return server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--wal", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--restore", required=True)
    args = parser.parse_args()

    recorder = SpanRecorder(prefix="s")
    server = build_server(args, recorder)

    def _shutdown(signum: int, frame: FrameType | None) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()  # type: ignore[attr-defined]

    signal.signal(signal.SIGTERM, _shutdown)
    with open(args.port_file, "w", encoding="utf-8") as handle:
        handle.write(f"{server.server_address[1]}\n")  # type: ignore[attr-defined]
    try:
        server.serve_forever(poll_interval=0.1)  # type: ignore[attr-defined]
    finally:
        server.server_close()  # type: ignore[attr-defined]
        server.service.close()  # type: ignore[attr-defined]
        recorder.write_jsonl(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
