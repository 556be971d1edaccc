"""The HTTP adapter over :class:`~repro.serving.service.ReputationService`.

:func:`create_http_server` binds a stdlib ``ThreadingHTTPServer`` to the
transport-agnostic session object.  Zero new dependencies, so tier-1 CI
(and the serve-gate job) exercises the real network path on a bare
container.  This is the adapter ``repro serve`` boots.

The v1 API surface (documented in docs/API.md):

=========  ==================  ===========================================
method     path                semantics
=========  ==================  ===========================================
``POST``   ``/v1/feedback``    ingest one event object or ``{"events": [...]}``
``GET``    ``/v1/scores``      published scores at the current watermark
``GET``    ``/v1/peers/{id}``  one peer's score/rank summary
``GET``    ``/v1/evidence``    audit slice of the append-only evidence log
``POST``   ``/v1/snapshot``    persist the session (``{"path": ...}``)
``GET``    ``/v1/health``      state machine, counters, SLA latency summary
=========  ==================  ===========================================

Error semantics:

* ``400`` — malformed request (bad JSON, non-object events, bad headers):
  ``{"error": ..., "status": 400}``.
* ``429`` — shed by the admission gate or the per-client token bucket:
  ``{"error": ..., "retry_after": ..., "status": 429}`` plus a
  ``Retry-After`` header.  Clients identify themselves with an optional
  ``X-Client-Id`` header (falling back to the peer address).
* ``503`` — service is read-only (durability lost or operator-flipped);
  same shape as 429.  Reads keep answering from the stale watermark.
* ``500`` — unexpected failure, reported as a structured record
  (:func:`request_failure_record`), never a raw traceback.

``POST /v1/feedback`` honors an ``Idempotency-Key`` header: a batch
re-sent under an acked key returns the original receipt with
``duplicate: true`` instead of double-ingesting (see
:class:`~repro.serving.service.ReputationService.ingest_many`).

Every response is JSON with sorted keys, so two servers serving the same
session state answer byte-identically — the serve-gate's restart check
compares raw response bodies.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigurationError, OverloadError, ReadOnlyError, ReproError
from repro.serving.service import ReputationService
from repro.serving.wal import feedback_to_wire

#: Cap on request bodies (16 MiB): a runaway client should get a 413, not
#: an out-of-memory server.
MAX_BODY_BYTES = 16 * 1024 * 1024


def request_failure_record(
    error: BaseException, *, method: str, path: str
) -> dict[str, object]:
    """Structured record of an unexpected (non-:class:`ReproError`) failure.

    This is the serving layer's R8 error emitter: every broad ``except``
    in the HTTP adapter funnels through it, so an internal bug surfaces
    as a parseable 500 body instead of a raw traceback or a silent drop.
    """
    return {
        "error": str(error) or error.__class__.__name__,
        "error_type": error.__class__.__name__,
        "method": method,
        "path": path,
        "status": 500,
    }


def _error_response(
    error: ReproError,
) -> tuple[int, dict[str, object], dict[str, str]]:
    """Map a library error to ``(status, body, extra_headers)``.

    Every error path of the handler goes through here, so one error
    class always yields one status, body and header set.
    """
    if isinstance(error, OverloadError):
        status, retry = 429, error.retry_after
    elif isinstance(error, ReadOnlyError):
        status, retry = 503, error.retry_after
    else:
        return 400, {"error": str(error), "status": 400}, {}
    payload: dict[str, object] = {
        "error": str(error),
        "retry_after": retry,
        "status": status,
    }
    return status, payload, {"Retry-After": str(max(0, math.ceil(retry)))}


def _decode_body(raw: bytes) -> object:
    """Parse a request body (empty means ``None``; size-capped, UTF-8 JSON)."""
    if not raw:
        return None
    if len(raw) > MAX_BODY_BYTES:
        raise ConfigurationError(f"request body exceeds {MAX_BODY_BYTES} bytes")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ConfigurationError(f"request body is not valid JSON: {error}") from error


def _parse_limit(value: str) -> int:
    try:
        return int(value)
    except ValueError as error:
        raise ConfigurationError("limit must be an integer") from error


def _parse_start(value: str) -> int:
    try:
        start = int(value)
    except ValueError as error:
        raise ConfigurationError("start must be an integer") from error
    if start < 0:
        raise ConfigurationError("start must be non-negative")
    return start


def _scores_payload(service: ReputationService, limit: int | None) -> dict[str, object]:
    """The ``/v1/scores`` response body."""
    view = service.scores()
    if limit is None:
        scores: dict[str, float] = dict(view)
    else:
        scores = dict(view.top(limit))
    return {
        "watermark": service.watermark,
        "pending": service.pending,
        "default_score": view.default_score,
        "scores": scores,
        "ranking": view.ranking() if limit is None else [peer for peer, _ in view.top(limit)],
    }


def _evidence_payload(
    service: ReputationService, start: int, limit: int | None
) -> dict[str, object]:
    """The ``/v1/evidence`` response body."""
    events = service.evidence(start, limit)
    return {
        "start": start,
        "count": len(events),
        "total": service.evidence_count,
        "events": [feedback_to_wire(event) for event in events],
    }


def _ingest_payload(
    service: ReputationService, body: object, *, idempotency_key: str | None = None
) -> dict[str, object]:
    """The ``/v1/feedback`` response body."""
    if isinstance(body, dict) and "events" in body:
        events = body["events"]
        if not isinstance(events, list):
            raise ConfigurationError("'events' must be a list of feedback objects")
    elif isinstance(body, dict):
        events = [body]
    elif isinstance(body, list):
        events = body
    else:
        raise ConfigurationError("feedback body must be an object or a list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ConfigurationError(f"feedback event #{index} must be a JSON object")
    receipt = service.ingest_many(events, idempotency_key=idempotency_key)
    return dict(asdict(receipt))


def _guarded_ingest(
    service: ReputationService,
    raw: bytes,
    *,
    client_id: str,
    idempotency_key: str | None,
) -> dict[str, object]:
    """Rate-limit, admit, parse and ingest one ``/v1/feedback`` request.

    The whole write path: token bucket first (cheapest
    rejection), then a bounded admission slot around parse + ingest so
    saturation sheds with 429 instead of queueing without bound.
    """
    allowed, wait = service.rate_limiter.allow(client_id)
    if not allowed:
        raise OverloadError(
            f"rate limit exceeded for client {client_id!r}", retry_after=wait
        )
    with service.admission.admit(retry_after=service.config.retry_after):
        body = _decode_body(raw)
        return _ingest_payload(service, body, idempotency_key=idempotency_key)


def _snapshot_payload(
    service: ReputationService, body: object, default_path: str | None
) -> dict[str, object]:
    """The ``/v1/snapshot`` response body."""
    path = default_path
    if isinstance(body, dict) and body.get("path") is not None:
        raw_path = body["path"]
        if not isinstance(raw_path, str) or not raw_path:
            raise ConfigurationError("snapshot 'path' must be a non-empty string")
        path = raw_path
    if path is None:
        raise ConfigurationError(
            "no snapshot path: POST {\"path\": ...} or start the server with --snapshot"
        )
    return service.snapshot(path)


class ReputationRequestHandler(BaseHTTPRequestHandler):
    """Routes v1 requests onto the server's service session."""

    #: Advertised in the ``Server`` response header.
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    server: ReputationHTTPServer

    def log_message(self, format: str, *args: object) -> None:
        """Per-request stderr logging is off; latency lives in /v1/health."""

    # -- plumbing ----------------------------------------------------------

    def _send_json(
        self,
        status: int,
        payload: dict[str, object],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name in sorted(headers or {}):
            self.send_header(name, (headers or {})[name])
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message, "status": status})

    def _send_repro_error(self, error: ReproError) -> None:
        status, payload, headers = _error_response(error)
        self._send_json(status, payload, headers)

    def _read_raw_body(self) -> bytes:
        raw_length = self.headers.get("Content-Length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError as error:
            raise ConfigurationError(
                f"invalid Content-Length header: {raw_length!r}"
            ) from error
        if length < 0:
            raise ConfigurationError(f"invalid Content-Length header: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise ConfigurationError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        if length == 0:
            return b""
        return self.rfile.read(length)

    def _client_id(self) -> str:
        return self.headers.get("X-Client-Id") or str(self.client_address[0])

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:
        url = urlparse(self.path)
        service = self.server.service
        try:
            if url.path == "/v1/health":
                self._send_json(200, service.health())
            elif url.path == "/v1/scores":
                query = parse_qs(url.query)
                limit: int | None = None
                if "limit" in query:
                    limit = _parse_limit(query["limit"][0])
                self._send_json(200, _scores_payload(service, limit))
            elif url.path == "/v1/evidence":
                query = parse_qs(url.query)
                start = _parse_start(query["start"][0]) if "start" in query else 0
                slice_limit = (
                    _parse_limit(query["limit"][0]) if "limit" in query else None
                )
                self._send_json(200, _evidence_payload(service, start, slice_limit))
            elif url.path.startswith("/v1/peers/"):
                peer_id = url.path[len("/v1/peers/") :]
                if not peer_id or "/" in peer_id:
                    self._send_error_json(404, f"no such route: {url.path}")
                    return
                summary = service.peer(peer_id)
                self._send_json(200 if summary.known else 404, dict(asdict(summary)))
            else:
                self._send_error_json(404, f"no such route: {url.path}")
        except ReproError as error:
            self._send_repro_error(error)
        except Exception as error:
            self._send_json(
                500, request_failure_record(error, method="GET", path=url.path)
            )

    def do_POST(self) -> None:
        url = urlparse(self.path)
        service = self.server.service
        try:
            if url.path == "/v1/feedback":
                payload = _guarded_ingest(
                    service,
                    self._read_raw_body(),
                    client_id=self._client_id(),
                    idempotency_key=self.headers.get("Idempotency-Key"),
                )
                self._send_json(200, payload)
            elif url.path == "/v1/snapshot":
                body = _decode_body(self._read_raw_body())
                payload = _snapshot_payload(service, body, self.server.snapshot_path)
                self._send_json(200, payload)
            else:
                self._send_error_json(404, f"no such route: {url.path}")
        except ReproError as error:
            self._send_repro_error(error)
        except Exception as error:
            self._send_json(
                500, request_failure_record(error, method="POST", path=url.path)
            )


class ReputationHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one service session."""

    #: Threads die with the process; the serve-gate SIGKILLs servers on
    #: purpose and must not hang on connection threads.
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: ReputationService,
        *,
        snapshot_path: str | None = None,
    ) -> None:
        super().__init__(address, ReputationRequestHandler)
        self.service = service
        self.snapshot_path = snapshot_path


def create_http_server(
    service: ReputationService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    snapshot_path: str | None = None,
) -> ReputationHTTPServer:
    """Bind the stdlib adapter; ``port=0`` picks a free port (see
    ``server.server_address`` for the bound one)."""
    return ReputationHTTPServer((host, port), service, snapshot_path=snapshot_path)
