"""The unified command-line surface: ``python -m repro`` / ``repro``.

One entry point, five subcommands::

    repro run [EXPERIMENT ...]      regenerate the paper's experiments
    repro sweep EXPERIMENT ...      parallel parameter campaigns -> records
    repro scenario <cmd> ...        declarative scenario templates
    repro verify-records PATH ...   integrity-check record artifacts
    repro serve ...                 live reputation scores over HTTP

All record-writing subcommands share conventions: ``--out`` for the JSON
record file, ``--csv`` for the CSV twin, ``--seed`` for the campaign seed
and ``--backend`` for the compute backend (records are byte-identical
across backends by contract).

For ergonomic and compatibility reasons a first argument that is not a
subcommand is treated as ``run`` input, so ``repro figure1 --full`` and the
historical run flags keep working.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import TextIO

from repro import _profiling
from repro.durable_log import read_header
from repro.errors import ConfigurationError, IntegrityError
from repro.experiments.journal import JOURNAL_MAGIC, verify_journal
from repro.experiments.reporting import format_sweep_summary
from repro.experiments.results import ExperimentRecord, verify_file_checksum
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.sweep import RetryPolicy, run_sweep, spec_from_options

#: The unified subcommands, in help order.
COMMANDS = ("run", "sweep", "scenario", "verify-records", "serve")

_OVERVIEW = """usage: repro <command> [options]

commands:
  run [EXPERIMENT ...]     run registered experiments (default: all, quick)
  sweep EXPERIMENT ...     parallel sweep campaign -> structured records
  scenario <cmd> ...       list/validate/verify/run scenario templates
  verify-records PATH ...  check record files and sweep journals for rot
  serve [options]          serve live reputation scores over HTTP

Run 'repro <command> --help' for command options.  Record-writing commands
share --out/--csv/--seed/--backend conventions.
"""


def build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run the paper-reproduction experiments.",
        epilog=(
            "Use the 'sweep' subcommand for parallel parameter campaigns: "
            "repro sweep figure1 --grid n_users=25,50 --jobs 2 --seed 7 "
            "--out results.json"
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiments to run (default: all). Available: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full-size experiments instead of the quick versions",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiments and exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-phase wall-clock table (setup / simulate / refresh "
            "/ metrics) after each experiment — the map for finding the "
            "next hot path"
        ),
    )
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run a parallel sweep campaign over one registered experiment "
            "and write structured records."
        ),
    )
    parser.add_argument(
        "experiment",
        metavar="EXPERIMENT",
        help=f"experiment to sweep. Available: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="explicit values for one parameter (repeatable)",
    )
    parser.add_argument(
        "--range",
        action="append",
        default=[],
        dest="ranges",
        metavar="KEY=LOW:HIGH",
        help="continuous interval for one parameter (random/latin samplers only)",
    )
    parser.add_argument(
        "--sample",
        choices=("grid", "random", "latin"),
        default="grid",
        help="how to cover the parameter space (default: full cartesian grid)",
    )
    parser.add_argument(
        "--n-samples",
        type=int,
        default=0,
        help="number of sampled points for --sample random/latin",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1; results are identical either way)",
    )
    parser.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help=(
            "tasks per worker submission (default: ~4 chunks per worker); "
            "records are identical for any chunking"
        ),
    )
    parser.add_argument(
        "--stream",
        metavar="PATH",
        help=(
            "stream records to this JSONL file in task order as they "
            "complete (the --out JSON is still written at the end)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--backend",
        choices=("auto", "python", "vectorized"),
        default="auto",
        help=(
            "compute backend for every task (default auto: vectorized when "
            "numpy is available); records are identical either way"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the JSON record file here",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        help="also write the records as CSV here",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help=(
            "base each task on the experiment's full-size defaults instead "
            "of its quick preset"
        ),
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        help=(
            "durable resume journal: completed records are fsynced here as "
            "they finish; re-running with the same spec and journal skips "
            "them (byte-identical output to a cold sweep)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run a failing task up to N extra times with backoff (default 0)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="initial retry backoff, doubling per attempt (default 0.05s)",
    )
    parser.add_argument(
        "--retry-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget across attempts (default: none)",
    )
    return parser


def build_verify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify-records",
        description=(
            "Verify the integrity of record artifacts: JSON/CSV files "
            "against their SHA-256 sidecars, sweep journals and serve WALs "
            "line by line."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help=(
            "record files (.json/.csv, checked against <file>.sha256), sweep "
            "journals, serve WALs, or service snapshots (via their sidecar)"
        ),
    )
    return parser


def _verify_one(path: str) -> tuple[str | None, str | None]:
    """Check one artifact; returns ``(error, warning)`` (both None = intact).

    Dispatch is on the header's ``format``: sweep journals and serve WALs
    are checked line by line; anything else (records, service snapshots)
    is checked against its SHA-256 sidecar.  For a WAL, torn/corrupt
    *tail* lines are a warning, not a failure — they were never acked and
    the next recovery truncates them; damaged interior lines (acked
    evidence lost) fail hard.
    """
    try:
        header = read_header(path)
    except OSError as error:
        return f"cannot read file: {error}", None
    kind = None if header is None else header.get("format")
    try:
        if kind == JOURNAL_MAGIC:
            n_valid, n_invalid = verify_journal(path)
            if n_invalid:
                return f"{n_invalid} corrupt/truncated journal lines ({n_valid} intact)", None
        elif kind == "repro-serve-wal":  # WAL_MAGIC; literal keeps serving lazy
            from repro.serving.wal import verify_wal

            n_valid, n_tail = verify_wal(path)
            if n_tail:
                return None, (
                    f"{n_tail} torn/corrupt unacked tail line(s) "
                    f"({n_valid} intact batches; next recovery truncates the tail)"
                )
        else:
            verify_file_checksum(path)
    except IntegrityError as error:
        return str(error), None
    return None, None


def verify_records_main(argv: list[str]) -> int:
    parser = build_verify_parser()
    args = parser.parse_args(argv)
    failures = 0
    for path in args.paths:
        problem, warning = _verify_one(path)
        if problem is not None:
            failures += 1
            print(f"{path}: FAIL: {problem}")
        elif warning is not None:
            print(f"{path}: ok (warning: {warning})")
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


def sweep_main(argv: list[str]) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_options(
            args.experiment,
            grid_options=args.grid,
            range_options=args.ranges,
            sampler=args.sample,
            n_samples=args.n_samples,
            seed=args.seed,
            quick_base=not args.full,
            backend=args.backend,
        )
    except (ConfigurationError, ValueError) as exc:
        parser.error(str(exc))
    on_record = None
    with contextlib.ExitStack() as stack:
        if args.stream:
            stream_handle = stack.enter_context(
                open(args.stream, "w", encoding="utf-8", newline="\n")
            )

            def on_record(record: ExperimentRecord, handle: TextIO = stream_handle) -> None:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
                handle.flush()

        retry = None
        if args.retries or args.retry_deadline is not None:
            retry = RetryPolicy(
                max_attempts=args.retries + 1,
                backoff_base=args.retry_backoff,
                deadline=args.retry_deadline,
            )
        try:
            result = run_sweep(
                spec,
                jobs=args.jobs,
                chunksize=args.chunksize,
                on_record=on_record,
                retry=retry,
                journal=args.journal,
            )
        except ConfigurationError as exc:
            parser.error(str(exc))
    print(format_sweep_summary(result.records))
    print()
    print(
        f"{len(result.records)} tasks in {result.wall_time:.2f}s "
        f"({result.tasks_per_second:.2f} tasks/s, jobs={result.jobs})"
    )
    if result.n_resumed:
        print(f"{result.n_resumed} tasks resumed from journal {args.journal}")
    if args.stream:
        print(f"records streamed to {args.stream}")
    if args.out:
        result.write_json(args.out)
        print(f"records written to {args.out}")
    if args.csv:
        result.write_csv(args.csv)
        print(f"CSV written to {args.csv}")
    for record in result.failed_records:
        failure = record.failure or {}
        retries = failure.get("retries", 0)
        print(
            f"FAILED task {record.task_index} "
            f"(params={json.dumps(record.params, sort_keys=True)}, "
            f"retries={retries}): {record.error}",
            file=sys.stderr,
        )
    if result.n_errors:
        print(f"{result.n_errors} of {len(result.records)} tasks failed", file=sys.stderr)
        return 1
    return 0


def run_main(argv: list[str]) -> int:
    parser = build_run_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, entry in sorted(EXPERIMENTS.items()):
            ids = ", ".join(entry.experiment_ids)
            print(f"{name:16s} [{ids}] {entry.description}")
        return 0

    names = args.experiments or sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    for name in names:
        print(f"==== {name} ====")
        if args.profile:
            with _profiling.profiled() as timer:
                report = run_experiment(name, quick=not args.full)
            print(report)
            print()
            print(f"---- {name}: per-phase wall clock ----")
            print(timer.report())
        else:
            print(run_experiment(name, quick=not args.full))
        print()
    return 0


def dispatch(argv: list[str]) -> int:
    """Route one invocation; a bare invocation prints the overview."""
    if not argv or argv[0] in ("help", "--help", "-h"):
        print(_OVERVIEW, end="")
        return 0
    command, rest = argv[0], argv[1:]
    if command == "run":
        return run_main(rest)
    if command == "sweep":
        return sweep_main(rest)
    if command == "scenario":
        from repro.scenarios.schema.cli import main as scenario_main

        return scenario_main(rest)
    if command == "verify-records":
        return verify_records_main(rest)
    if command == "serve":
        # Imported lazily: `repro run` and friends should not pay for (or be
        # able to break on) the serving stack.
        from repro.serving.cli import main as serve_main

        return serve_main(rest)
    # Anything else is `run` input: experiment names or run flags.
    return run_main(argv)


def main(argv: list[str] | None = None) -> int:
    return dispatch(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
