"""Turn what the workloads measured into the benchmark's named metrics."""

from __future__ import annotations

from collections import defaultdict

from measure import fast_windows, fastest, mean, median, percentile
from online import PassResult
from spans import ROUTES, SERVICE_FAMILIES, read_jsonl, self_times


def _latency(samples: list[float]) -> dict[str, float]:
    return {
        "latency_p50_ms": 1000.0 * percentile(samples, 50),
        "latency_p99_ms": 1000.0 * percentile(samples, 99),
    }


def offline_e2e(raw: dict) -> dict[str, float]:
    """The fastest calls of each input, pooled."""
    fast = [fastest(walls) for walls in raw["walls"]]
    walls = [wall for calls in fast for wall in calls]
    done = sum(tx * len(calls) for tx, calls in zip(raw["transactions"], fast, strict=True))
    return {
        "setup_s": raw["setup_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "throughput_per_s": done / sum(walls),
        **_latency(walls),
    }


def offline_layers(raw: dict) -> dict[str, float]:
    """Per-call medians of the ``profiled()`` phase table of the traced calls."""

    def phase(name: str) -> list[float]:
        return [row["seconds"].get(name, 0.0) for row in raw["phases"]]

    setup, simulate, refresh, metrics = (
        phase(name) for name in ("setup", "simulate", "refresh", "metrics")
    )
    walls = [row["wall"] for row in raw["phases"]]
    calls = median([row["counts"].get("refresh", 0) for row in raw["phases"]])
    self_s = median([s - r for s, r in zip(simulate, refresh, strict=True)])
    unexplained = [
        (wall - a - b - c) / wall
        for wall, a, b, c in zip(walls, setup, simulate, metrics, strict=True)
    ]
    return {
        "scenarios.setup_s": median(setup),
        "scenarios.metrics_s": median(metrics),
        "simulation.self_s": self_s,
        "simulation.transactions": mean(raw["transactions"]),
        "simulation.rounds": raw["rounds"],
        "simulation.us_per_tx": 1e6 * self_s / mean(raw["transactions"]),
        "reputation.refresh_s": median(refresh),
        "reputation.refresh_calls": calls,
        "reputation.refresh_ms_mean": 1000.0 * median(refresh) / calls if calls else 0.0,
        "trace.unexplained_share": median(unexplained),
        "trace.overhead_share": (
            median(fastest(raw["traced_walls"]))
            / median(fastest([wall for walls in raw["walls"] for wall in walls]))
            - 1.0
        ),
    }


def online_e2e(plain: PassResult) -> dict[str, float]:
    latencies, seconds = fast_windows(plain.reads, *plain.phase, plain.window_s)
    return {
        "setup_s": median(plain.setup_s),
        "peak_rss_mb": plain.peak_rss_mb,
        "throughput_per_s": len(latencies) / seconds,
        **_latency(latencies),
    }


def _ms(samples: list[float]) -> list[float]:
    return [1000.0 * value for value in samples]


def online_layers(plain: PassResult, traced: PassResult) -> dict[str, float]:
    """Per-layer numbers of a traced pass; ``plain`` is the untraced pass."""
    spans = traced.client_spans.spans + read_jsonl(str(traced.server_spans))
    own = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        durations[span.name].append(span.duration)
        selfs[span.name].append(own[span.span_id])
    health = traced.health
    latency = health["latency"]
    admission = health["admission"]
    metrics: dict[str, float] = {
        "service.refresh_ms.p50": latency["refresh"]["p50_ms"],
        "service.refresh_ms.p99": latency["refresh"]["p99_ms"],
        "service.refreshes": health["refreshes"],
        "client.requests": traced.attempted,
        "client.retries": traced.retries,
        "client.backpressure": traced.backpressure,
        "client.failed": traced.failed,
        "admission.high_water": admission["high_water"],
        "admission.shed": admission["shed"],
        "ratelimit.limited": health["rate_limited"],
        "http.connections": len(durations["http.connection"]),
        "wal.appends": len(durations["wal.append"]),
        "wal.append_ms.p50": 1000.0 * percentile(durations["wal.append"], 50),
        "wal.append_ms.p99": 1000.0 * percentile(durations["wal.append"], 99),
        "wal.bytes": traced.wal_bytes,
        "checkpoint.snapshot_bytes": traced.snapshot_bytes,
        "checkpoint.restore_s": sum(durations["checkpoint.restore"]),
        "server.cpu_ms_per_request": 1000.0 * plain.cpu_s / plain.attempted,
        "loadgen.late_ms.max": 1000.0 * traced.late_max_s,
    }
    if metrics["wal.appends"]:
        metrics["wal.events_per_append"] = traced.events_sent / metrics["wal.appends"]
    for route in ROUTES:
        client = _ms(durations[f"client.{route}"])
        transport = _ms(selfs[f"client.{route}"])
        http_self = _ms(selfs[f"http.{route}"])
        metrics[f"client.{route}_ms.p50"] = percentile(client, 50)
        for q in (50, 99):
            metrics[f"transport.{route}_ms.p{q}"] = percentile(transport, q)
            metrics[f"http.{route}.self_ms.p{q}"] = percentile(http_self, q)
    if metrics["http.connections"]:
        handled = sum(
            len(values)
            for name, values in durations.items()
            if name.startswith("http.") and name != "http.connection"
        )
        metrics["http.requests_per_connection"] = handled / metrics["http.connections"]
    for family in ("ingest", "query", "snapshot"):
        metrics[f"service.{family}_ms.p50"] = latency[family]["p50_ms"]
        metrics[f"service.{family}_ms.p99"] = latency[family]["p99_ms"]
    # Lock wait: the wrapper span covers acquiring the session lock, the
    # service's own OperationClock starts once it holds it.
    wrapped: dict[str, list[float]] = defaultdict(list)
    for method, family in SERVICE_FAMILIES.items():
        wrapped[family].extend(_ms(durations[f"service.{method}"]))
    for family in ("ingest", "query"):
        if wrapped[family]:
            metrics[f"service.{family}.lock_wait_ms.mean"] = (
                mean(wrapped[family]) - latency[family]["mean_ms"]
            )
    # Load-thread time in no request and in no deliberate open-loop wait.
    begin, end = traced.phase
    covered = sum(
        min(span.end, end) - span.start
        for span in traced.client_spans.spans
        if begin <= span.start < end
    )
    metrics["trace.unexplained_share"] = 1.0 - (covered + traced.wait_s) / (
        traced.threads * (end - begin)
    )
    metrics["trace.overhead_share"] = (
        percentile(fast_windows(traced.reads, *traced.phase, traced.window_s)[0], 50)
        / percentile(fast_windows(plain.reads, *plain.phase, plain.window_s)[0], 50)
        - 1.0
    )
    return metrics
