"""Command-line front end: process | chunk | validate | score.

``process`` runs the full pipeline (load, chunk, parallel extraction, merge,
validation layers, metrics) and writes the record, validation report, metrics
report, and run summary; it and ``score`` tally the word metrics in a forked
child where ``os.fork`` exists and the process has one thread, else in-process,
with the same bytes. Exit codes: 0 when validation passes, 1 when error-severity
issues exist, 2 on pipeline failure, bad configuration or an unwritable output.
Configuration comes from an optional JSON file; the flag of a key's name wins.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field as dc_field, fields as dc_fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator

from .chunker import ChunkingConfig, WordTokenizer, chunk_text_by_tokens
from .extraction import ExtractionConfig, HttpChatBackend, parse_endpoint, run_parallel
from .ingest import DecodeError, ReadError, load_markdown
from .issues import LAYER_STRUCTURAL, ValidationIssue, issue_error
from .merge import EmptyMergeError, merge_chunk_results, resolve_cross_references
from .metrics import WeightVector, detect_step_headings, metrics_report, render_metrics_table
from .metrics import tally_metrics
from .mock_backend import MockBackend
from .schema import serialize_record, write_json
from .validation import NO_STEPS_EXTRACTED, ValidationReport, read_record_text, validate_record

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_PIPELINE_FAILURE = 2


@dataclass
class PipelineConfig:
    max_tokens: int = 3000
    hard_split_threshold: int = 2000
    workers_cap: int = 8
    max_attempts: int = 3
    backend: str = "mock"
    endpoint: str = ""
    model: str = "bmr-extractor"
    auth_env: str = "BMR_API_TOKEN"
    timeout: float = 60.0
    transport_retries: int = 2
    reprocess_threshold: float | None = None
    weights: WeightVector = dc_field(default_factory=WeightVector)
    out: str = "record.json"
    report_out: str = "validation.json"
    metrics_out: str = "metrics.json"
    summary_out: str | None = None

    def __post_init__(self) -> None:
        # Every value is checked here, before any input is read: building the
        # stage configs checks theirs, and the backend's follow.
        self.chunking()
        self.extraction()
        if self.backend not in ("mock", "http"):
            raise ValueError(f"unknown backend kind {self.backend!r}")
        if self.backend == "http":
            parse_endpoint(self.endpoint)
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.transport_retries < 0:
            raise ValueError("transport_retries must be at least 0")

    def chunking(self) -> ChunkingConfig:
        return ChunkingConfig(self.max_tokens, self.hard_split_threshold)

    def extraction(self) -> ExtractionConfig:
        return ExtractionConfig(
            model=self.model,
            max_attempts=self.max_attempts,
            workers_cap=self.workers_cap,
            reprocess_threshold=self.reprocess_threshold,
        )

    @classmethod
    def from_file(cls, path: str, **overrides: Any) -> "PipelineConfig":
        """The config in the JSON file at ``path``, with ``overrides`` in place
        of its keys before any value is checked."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object, got {data!r:.40}")
        weights = data.pop("weights", None)
        if weights:
            data["weights"] = WeightVector(**weights)
        return cls(**{**data, **overrides})


@dataclass
class RunSummary:
    chunk_count: int
    attempts_per_chunk: list[int]
    total_seconds: float
    load_seconds: float
    avg_chunk_seconds: float
    validation_passed: bool
    composite_score: float

    def to_json(self) -> dict:
        return asdict(self)


def _make_backend(cfg: PipelineConfig):
    if cfg.backend == "mock":
        return MockBackend()
    return HttpChatBackend(
        endpoint=cfg.endpoint,
        auth_env=cfg.auth_env,
        timeout=cfg.timeout,
        transport_retries=cfg.transport_retries,
    )


def _print_issues(issues: list[ValidationIssue], indent: str) -> None:
    """Each distinct issue line once: a chunk's failed attempts often repeat one."""
    for line in dict.fromkeys(f"{indent}{issue.line()}" for issue in issues):
        print(line, file=sys.stderr)


class WriteError(Exception):
    """An output file could not be written."""


def _write_json(path: str | None, payload: dict | list) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2, ensure_ascii=False)``
    and a newline, to the file at ``path`` or, when it is None, to stdout."""
    if path is None:
        write_json(payload, sys.stdout.write)
        sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_json(payload, fh.write)
            fh.write("\n")
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _forked(fn: Callable[[], Any]) -> Iterator[Callable[[], Any]]:
    """Start ``fn`` in a forked child; yield a function that returns its result,
    sent as JSON through a pipe, or ``fn()`` run here when there is no safe fork
    (no ``os.fork``, a second thread alive, a failed fork) or no full result."""
    pid, (read_fd, write_fd) = None, os.pipe()
    with contextlib.suppress(AttributeError, OSError):  # no os.fork, or a failed fork
        pid = os.fork() if threading.active_count() == 1 else None
    if pid == 0:
        try:
            os.write(write_fd, json.dumps(fn()).encode())
        finally:
            os._exit(0)  # skips the parent's exit handlers and stdio buffers
    os.close(write_fd)

    def result() -> Any:
        with contextlib.suppress(ValueError):  # no child, or one that ended early
            return json.loads(pipe.read())
        return fn()

    with open(read_fd, encoding="utf-8") as pipe:
        try:
            yield result
        finally:
            if pid:  # a child whose pipe was read is exiting; else it is stopped
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)


def cmd_process(input_path: str, cfg: PipelineConfig) -> int:
    started = time.perf_counter()
    try:
        doc = load_markdown(input_path)
    except (ReadError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_FAILURE
    load_seconds = time.perf_counter() - started

    chunks = chunk_text_by_tokens(doc.text, cfg.chunking(), WordTokenizer())
    if not chunks:
        print("error: document produced no chunks", file=sys.stderr)
        return EXIT_PIPELINE_FAILURE

    try:
        backend = _make_backend(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_FAILURE

    extract_started = time.perf_counter()
    results = run_parallel(chunks, cfg.extraction(), backend)
    extract_seconds = time.perf_counter() - extract_started

    try:
        record, merge_issues = merge_chunk_results(results)
    except EmptyMergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for result in results:
            print(
                f"  chunk {result.index}: {result.failure} after {result.attempts_used} attempts",
                file=sys.stderr,
            )
            _print_issues(result.issues, "    ")
        return EXIT_PIPELINE_FAILURE
    record, refs = resolve_cross_references(record)

    with _forked(lambda: tally_metrics(doc, record, refs, words=True)) as word_tallies:
        issues = merge_issues + validate_record(record, refs=refs).issues
        if not record.steps and (headings := detect_step_headings(doc.text)):
            message = f"the source has {len(headings)} step headings but the record has no steps"
            issues.append(issue_error(LAYER_STRUCTURAL, "steps", NO_STEPS_EXTRACTED, message))
        report = ValidationReport(issues=issues)

        total_seconds = time.perf_counter() - started
        _write_json(cfg.out, serialize_record(record))
        _write_json(cfg.report_out, report.to_json())
        tallies = {**tally_metrics(doc, record, refs, words=False), **word_tallies()}
    metrics = metrics_report(tallies, record, cfg.weights, total_seconds)
    _write_json(cfg.metrics_out, metrics.to_json())

    summary = RunSummary(
        chunk_count=len(chunks),
        attempts_per_chunk=[r.attempts_used for r in results],
        total_seconds=total_seconds,
        load_seconds=load_seconds,
        avg_chunk_seconds=extract_seconds / len(chunks),
        validation_passed=report.passed,
        composite_score=metrics.composite,
    )
    if cfg.summary_out:
        _write_json(cfg.summary_out, summary.to_json())

    print(render_metrics_table(metrics))
    print(
        f"chunks={summary.chunk_count} "
        f"attempts={summary.attempts_per_chunk} "
        f"total={summary.total_seconds:.2f}s "
        f"load={summary.load_seconds:.2f}s "
        f"avg_chunk={summary.avg_chunk_seconds:.2f}s "
        f"validation={'pass' if summary.validation_passed else 'FAIL'} "
        f"composite={summary.composite_score:.2f}"
    )
    return EXIT_OK if report.passed else EXIT_ISSUES


def cmd_chunk(input_path: str, cfg: PipelineConfig, out: str | None) -> int:
    try:
        doc = load_markdown(input_path)
    except (ReadError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_FAILURE
    chunks = chunk_text_by_tokens(doc.text, cfg.chunking(), WordTokenizer())
    payload = [
        {"index": c.index, "token_count": c.token_count, "text": c.text}
        for c in chunks
    ]
    _write_json(out or None, payload)
    return EXIT_OK


def cmd_validate(record_path: str) -> int:
    try:
        text = Path(record_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_FAILURE
    parsed = read_record_text(text)
    if isinstance(parsed, list):
        report = ValidationReport(issues=parsed)
    else:
        report = validate_record(*resolve_cross_references(parsed))
    _write_json(None, report.to_json())
    return EXIT_OK if report.passed else EXIT_ISSUES


def cmd_score(source_path: str, record_path: str, cfg: PipelineConfig) -> int:
    try:
        doc = load_markdown(source_path)
        text = Path(record_path).read_text(encoding="utf-8")
    except (ReadError, DecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_FAILURE
    parsed = read_record_text(text)
    if isinstance(parsed, list):
        print("error: record rejected by the syntactic layer or the schema", file=sys.stderr)
        _print_issues(parsed, "  ")
        return EXIT_PIPELINE_FAILURE
    record, refs = resolve_cross_references(parsed)
    with _forked(lambda: tally_metrics(doc, record, refs, words=True)) as word_tallies:
        tallies = {**tally_metrics(doc, record, refs, words=False), **word_tallies()}
    metrics = metrics_report(tallies, record, cfg.weights)
    _write_json(cfg.metrics_out, metrics.to_json())
    print(render_metrics_table(metrics))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmrkit",
        description="Transform batch-record markdown into validated, scored JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--max-tokens", type=int, dest="max_tokens")
        p.add_argument(
            "--hard-split-threshold", type=int, dest="hard_split_threshold"
        )
        p.add_argument("--workers", type=int, dest="workers_cap")
        p.add_argument("--max-attempts", type=int, dest="max_attempts")
        p.add_argument("--backend", choices=["mock", "http"])
        p.add_argument(
            "--mock", action="store_true", help="shorthand for --backend mock"
        )
        p.add_argument("--endpoint")
        p.add_argument("--model")
        p.add_argument("--reprocess-threshold", type=float, dest="reprocess_threshold")
        p.add_argument(
            "--weights", help="JSON object of per-metric weights, keyed by any of "
            + ", ".join(f.name for f in dc_fields(WeightVector))
        )
        p.add_argument("--metrics-out", dest="metrics_out")

    p_process = sub.add_parser("process", help="run the full pipeline")
    p_process.add_argument("input")
    add_common(p_process)
    p_process.add_argument("--out")
    p_process.add_argument("--report-out", dest="report_out")
    p_process.add_argument("--summary-out", dest="summary_out")

    p_chunk = sub.add_parser("chunk", help="chunk a document and stop")
    p_chunk.add_argument("input")
    add_common(p_chunk)
    p_chunk.add_argument("--out")

    p_validate = sub.add_parser("validate", help="validate a record file")
    p_validate.add_argument("record")

    p_score = sub.add_parser("score", help="score a record against its source")
    p_score.add_argument("source")
    p_score.add_argument("record")
    add_common(p_score)

    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    # Each config field is overridden by the flag of the same dest; a field
    # with no flag reads as None. The overrides replace the file's keys before
    # the config checks its values, so a flag can mend a value the file lacks
    # (an endpoint, say). --weights merges into the weights below.
    overrides = {
        f.name: getattr(args, f.name)
        for f in dc_fields(PipelineConfig)
        if f.name != "weights" and getattr(args, f.name, None) is not None
    }
    if getattr(args, "mock", False):
        overrides["backend"] = "mock"
    cfg = (
        PipelineConfig.from_file(args.config, **overrides)
        if getattr(args, "config", None)
        else PipelineConfig(**overrides)
    )
    raw_weights = getattr(args, "weights", None)
    if raw_weights:
        base = {name: getattr(cfg.weights, name) for name in vars(cfg.weights)}
        base.update(json.loads(raw_weights))
        cfg = replace(cfg, weights=WeightVector(**base))
    return cfg


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.record)
    try:
        cfg = _config_from_args(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_FAILURE
    if args.command == "process":
        outputs = (cfg.out, cfg.report_out, cfg.metrics_out, cfg.summary_out)
    else:
        outputs = (args.out,) if args.command == "chunk" else (cfg.metrics_out,)
    for path in filter(None, outputs):
        if not (parent := Path(path).parent).is_dir():
            print(f"error: cannot write {path}: {parent} is not a directory", file=sys.stderr)
            return EXIT_PIPELINE_FAILURE
    try:
        if args.command == "process":
            return cmd_process(args.input, cfg)
        if args.command == "chunk":
            return cmd_chunk(args.input, cfg, args.out)
        return cmd_score(args.source, args.record, cfg)
    except WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
