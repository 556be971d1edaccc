"""The online pipeline under test: a ``repro serve`` process driven over HTTP.

Load comes from this one process, through the program's own
``ResilientClient``, on two threads with one connection each.

``serve_reads_large``
    A server restored from a large snapshot that is prepared untimed, in
    this process.  A writer thread sends a fixed open-loop stream of
    batches, each timed from when it was due.  A reader thread runs a
    closed loop of 9 peer lookups to 1 top-10 read.  The run ends with
    ``POST /v1/snapshot``.

Correctness, every run: acked == ingested == events sent, and the final
``/v1/scores`` body equals, byte for byte, that of an in-process control
``ReputationService`` fed the same batches in the order the server's WAL
recorded them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from measure import cpu_seconds, now, peak_rss_mb
from spans import SpanRecorder, route_of

from repro import api

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HOST = "127.0.0.1"


@dataclass(frozen=True)
class ReadsSpec:
    name: str
    peers: int
    prep_events: int
    refresh_every: int
    batch: int = 32
    write_batches_per_s: float = 20.0
    #: Every Nth read is a top-10 read; the others are peer lookups.
    top_every: int = 10

    @property
    def window_s(self) -> float:
        """Seconds between two refreshes at the writer's fixed rate.

        The end-to-end metrics pick the fastest windows of this length;
        each holds exactly one refresh, so the picked ones are not those
        a refresh missed.
        """
        return self.refresh_every / (self.batch * self.write_batches_per_s)


@dataclass
class PassResult:
    """What one server lifetime measured, seen from outside."""

    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: ``(start, latency)`` of every completed read, seconds.
    reads: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    retries: int = 0
    backpressure: int = 0
    health: dict[str, object] = field(default_factory=dict)
    client_spans: SpanRecorder = field(default_factory=SpanRecorder)
    #: The traced server's span file (traced passes only).
    server_spans: Path | None = None
    #: The load phase: its load threads, its (start, end) on the clock and
    #: the windows it is cut into for the end-to-end metrics.
    threads: int = 0
    phase: tuple[float, float] = (0.0, 0.0)
    window_s: float = 0.0
    #: Seconds open-loop threads slept until a request was due.
    wait_s: float = 0.0
    late_max_s: float = 0.0
    events_sent: int = 0
    cpu_s: float = 0.0
    snapshot_bytes: int = 0
    wal_bytes: int = 0


class TracingClient(api.ResilientClient):
    """A ResilientClient that stamps each request with an id and times it."""

    def __init__(self, *args: object, recorder: SpanRecorder, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.recorder = recorder

    def request(
        self,
        method: str,
        path: str,
        body: object = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, object, bytes]:
        span_id = self.recorder.new_id()
        sent = dict(headers or {}, **{"X-Request-Id": span_id})
        start = now()
        try:
            return super().request(method, path, body, headers=sent)
        finally:
            self.recorder.record(span_id, None, f"client.{route_of(path)}", start, now())


def _client(
    port: int, client_id: str, seed: int, recorder: SpanRecorder | None
) -> api.ResilientClient:
    policy = api.ClientRetryPolicy(seed=seed)
    if recorder is None:
        return api.ResilientClient(HOST, port, client_id=client_id, policy=policy)
    return TracingClient(HOST, port, client_id=client_id, policy=policy, recorder=recorder)


# -- server processes ------------------------------------------------------


class Server:
    """One server process, from spawn to a clean SIGTERM shutdown."""

    def __init__(self, command: list[str], workdir: Path, tag: str) -> None:
        port_file = workdir / f"{tag}.port"
        port_file.unlink(missing_ok=True)
        self.log = open(workdir / f"{tag}.log", "wb")
        start = now()
        self.process = subprocess.Popen(
            [*command, "--port-file", str(port_file)],
            stdout=self.log,
            stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        try:
            self.port = self._wait_port(port_file)
            self._wait_healthy()
        except BaseException:
            self.process.kill()
            self.process.wait()
            self.log.close()
            raise
        self.setup_s = now() - start

    def _wait_port(self, port_file: Path) -> int:
        deadline = now() + 120.0
        while now() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            try:
                text = port_file.read_text(encoding="utf-8")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise RuntimeError("server did not bind a port in time")

    def _wait_healthy(self) -> None:
        deadline = now() + 60.0
        while now() < deadline:
            try:
                status, _, _ = api.request_json(HOST, self.port, "GET", "/v1/health")
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.002)
        raise RuntimeError("server never answered /v1/health")

    def stop(self) -> None:
        """Stop the server (a no-op once stopped); raises if it exited uncleanly."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        if self.process.returncode not in (0, -signal.SIGTERM):
            raise RuntimeError(f"server exited with {self.process.returncode}")


def _server_command(spans: Path | None, wal: Path, extra: list[str]) -> list[str]:
    if spans is not None:
        script = str(HERE / "traced_server.py")
        return [sys.executable, script, "--wal", str(wal), "--spans", str(spans), *extra]
    return [sys.executable, "-m", "repro", "serve", "--wal", str(wal), *extra]


def boot(
    workdir: Path, traced: bool, extra: list[str], setups: int, result: PassResult
) -> tuple[Server, Path]:
    """Start the server ``setups`` times (fresh WAL each); keep the last."""
    if traced:
        result.server_spans = workdir / "server-spans.jsonl"
    for attempt in range(setups):
        wal = workdir / f"serve-{attempt}.wal"
        wal.unlink(missing_ok=True)
        command = _server_command(result.server_spans, wal, extra)
        server = Server(command, workdir, f"server-{attempt}")
        result.setup_s.append(server.setup_s)
        if attempt == setups - 1:
            return server, wal
        server.stop()
    raise ValueError("setups must be at least 1")


def finish(
    server: Server, wal: Path, client: api.ResilientClient, cpu_start: float, result: PassResult
) -> bytes:
    """Read the final state, stop the server and verify the WAL at ``wal``."""
    body = client.raw_scores()
    result.health = client.health()
    result.peak_rss_mb = peak_rss_mb(server.process.pid)
    result.cpu_s = cpu_seconds(server.process.pid) - cpu_start
    server.stop()
    api.verify_wal(str(wal))
    result.wal_bytes = os.path.getsize(wal)
    return body


# -- correctness -----------------------------------------------------------


def wal_batches(path: Path) -> list[tuple[str, int]]:
    """``(idempotency key, event count)`` of every WAL batch, in log order."""
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    return [(entry["key"], entry["n"]) for entry in lines[1:]]


def control_body(service: api.ReputationService) -> bytes:
    """The ``/v1/scores`` bytes an in-process server over ``service`` returns."""
    server = api.create_http_server(service)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        return api.scores_body(HOST, server.server_address[1])
    finally:
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()


def check_served(
    served: bytes,
    control: api.ReputationService,
    batches: dict[str, list[dict[str, object]]],
    wal: Path,
    *,
    acked: int,
    ingested: int,
) -> list[str]:
    """Feed ``control`` the sent batches in WAL order; compare with ``served``.

    ``acked`` and ``ingested`` count events past the control's start state.
    """
    sent = sum(len(batch) for batch in batches.values())
    errors = []
    if not acked == ingested == sent:
        errors.append(f"acked {acked}, ingested {ingested} and sent {sent} events differ")
    logged = 0
    for key, count in wal_batches(wal):
        batch = batches.get(key)
        if batch is None or len(batch) != count:
            return [*errors, f"WAL batch {key!r} of {count} events was never sent"]
        control.ingest_many(batch, idempotency_key=key)
        logged += count
    if logged != sent:
        errors.append(f"WAL holds {logged} events, {sent} were sent")
    if control_body(control) != served:
        errors.append("final /v1/scores body differs from the in-process control")
    return errors


def _ingested(health: dict[str, object]) -> int:
    value = health.get("ingested")
    return value if isinstance(value, int) else -1


# -- serve_reads_large -----------------------------------------------------


def synthetic_events(peers: int, start: int, count: int, seed: int) -> list[dict[str, object]]:
    """A seeded stream of feedback events among ``peers`` peers.

    Event ``i`` depends only on ``(seed, i)``, so the writer's events
    continue the preparation stream without overlap.
    """
    events: list[dict[str, object]] = []
    for index in range(start, start + count):
        rng = random.Random(seed * 1_000_003 + index)
        events.append(
            {
                "subject": f"p{rng.randrange(peers):06d}",
                "rater": f"p{rng.randrange(peers):06d}",
                "rating": round(rng.random(), 3),
                "time": index,
                "transaction_id": index,
            }
        )
    return events


def prepare_snapshot(spec: ReadsSpec, seed: int, path: Path) -> None:
    """Pre-load the large population and snapshot it (untimed)."""
    service = api.ReputationService(
        api.ServiceConfig(mechanism="beta", refresh_every=spec.refresh_every)
    )
    events = synthetic_events(spec.peers, 0, spec.prep_events, seed)
    for start in range(0, len(events), 4096):
        service.ingest_many(events[start : start + 4096])
    service.snapshot(str(path))
    service.close()


def reads_pass(
    spec: ReadsSpec,
    seed: int,
    seconds: float,
    workdir: Path,
    traced: bool,
    setups: int,
    snapshot: Path,
) -> PassResult:
    result = PassResult()
    recorder = result.client_spans if traced else None
    server, wal = boot(workdir, traced, ["--restore", str(snapshot)], setups, result)
    try:
        cpu_start = cpu_seconds(server.process.pid)
        writer = _client(server.port, "writer", seed, recorder)
        reader = _client(server.port, "reader", seed + 1, recorder)
        rng = random.Random(seed)
        lookups = [f"p{rng.randrange(spec.peers):06d}" for _ in range(spec.top_every * 64)]
        stop = threading.Event()
        lock = threading.Lock()
        sent: dict[str, list[dict[str, object]]] = {}
        counts = {"reads": 0, "failed": 0}
        late = [0.0]
        waited = [0.0]

        def wait_until(due: float) -> None:
            delay = due - now()
            with lock:
                if delay > 0:
                    waited[0] += delay
                else:
                    late[0] = max(late[0], -delay)
            if delay > 0:
                time.sleep(delay)

        def write_loop() -> None:
            begin = now()
            index = 0
            while not stop.is_set():
                wait_until(begin + index / spec.write_batches_per_s)
                first = spec.prep_events + index * spec.batch
                batch = synthetic_events(spec.peers, first, spec.batch, seed)
                key = f"writer-{index}"
                with lock:
                    sent[key] = batch
                try:
                    writer.ingest(batch, batch_key=key)
                except api.ReproError:
                    with lock:
                        counts["failed"] += 1
                index += 1

        def read(index: int) -> bool:
            counts["reads"] += 1
            try:
                if index % spec.top_every == spec.top_every - 1:
                    reader.scores(limit=10)
                else:
                    reader.peer(lookups[index % len(lookups)])
            except api.ReproError:
                with lock:
                    counts["failed"] += 1
                return False
            return True

        writer_thread = threading.Thread(target=write_loop)
        phase_start = now()
        writer_thread.start()
        try:
            index = 0
            while now() < phase_start + seconds:
                start = now()
                if read(index):
                    result.reads.append((start, now() - start))
                index += 1
        finally:
            stop.set()
            writer_thread.join()
        result.threads = 2
        result.phase = (phase_start, now())
        result.window_s = spec.window_s
        result.late_max_s = late[0]
        result.wait_s = waited[0]
        result.events_sent = sum(len(batch) for batch in sent.values())

        # Compaction after the snapshot rewrites the live WAL; keep its batches.
        kept_wal = workdir / "final.wal"
        shutil.copyfile(wal, kept_wal)
        final_snapshot = workdir / "final.ckpt"
        try:
            reader.snapshot(str(final_snapshot))
        except api.ReproError:
            counts["failed"] += 1
        else:
            result.snapshot_bytes = os.path.getsize(final_snapshot)
        result.attempted = counts["reads"] + len(sent) + 1
        result.failed = counts["failed"]
        for client in (writer, reader):
            result.retries += client.retries
            result.backpressure += client.backpressure_responses
        served = finish(server, kept_wal, reader, cpu_start, result)
        result.errors = check_served(
            served,
            api.ReputationService.restore(str(snapshot)),
            sent,
            kept_wal,
            acked=writer.total_acked_events,
            ingested=_ingested(result.health) - spec.prep_events,
        )
        return result
    finally:
        server.stop()
