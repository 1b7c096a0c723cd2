"""Closed-loop client for one workload: a single process that finishes one
document before it starts the next.

``run.py`` starts this script in a fresh interpreter with ``PYTHONPATH``
pointing at the checkout's ``src``. It generates each document from the seed
(``corpus.generate``), writes it as a markdown file, and then:

* untraced pass: runs ``bmrkit.cli.main(["process", ...])`` on the file, as a
  user would, and times it;
* traced pass (``--trace 1`` only, right after the untraced pass of the same
  document): calls the public functions of each module in the order
  ``cmd_process`` does, around a timing proxy for the backend, and keeps one
  span per call in memory. The spans are written as JSON lines at the end.

It starts documents until ``--seconds`` have passed, and at least
``--min-docs`` of them.

Document generation and the stub bookkeeping happen outside the timed calls.
Results go to ``<out>/client.json`` and ``<out>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import io
import itertools
import json
import resource
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import corpus
from shared import output_paths, steal_seconds
from bmrkit import cli, metrics
from bmrkit.chunker import ChunkingConfig, WordTokenizer, chunk_text_by_tokens
from bmrkit.extraction import ExtractionConfig, HttpChatBackend, run_parallel
from bmrkit.ingest import load_markdown
from bmrkit.merge import merge_chunk_results, resolve_cross_references
from bmrkit.mock_backend import MockBackend
from bmrkit.schema import parse_record, serialize_record
from bmrkit.validation import (
    ValidationReport,
    validate_all,
    validate_compliance,
    validate_structural,
    validate_syntactic,
)

SOURCE_METRICS = (
    "crude_word_coverage",
    "context_aware_coverage",
    "sequence_preservation",
    "calculation_fidelity",
    "conditional_logic_fidelity",
    "unit_fidelity",
    "field_accuracy",
    "table_preservation",
    "image_preservation",
)
RECORD_METRICS = ("hierarchy_preservation", "cross_reference_integrity")


class Tracer:
    """In-memory span list; safe to append to from the extraction pool."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, doc: int, parent: int | None):
        span_id = self.new_id()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.add(
                {"id": span_id, "name": name, "start": start,
                 "end": time.perf_counter(), "parent": parent, "doc": doc}
            )

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class TimedBackend:
    """Timing proxy around the backend object the pipeline is handed. Each
    ``complete`` call becomes one span carrying its thread CPU time."""

    def __init__(self, inner, name: str, tracer: Tracer, doc: int, parent: int) -> None:
        self.inner = inner
        self.name = name
        self.tracer = tracer
        self.doc = doc
        self.parent = parent

    def complete(self, prompt, model, params):
        span_id = self.tracer.new_id()
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            return self.inner.complete(prompt, model, params)
        finally:
            self.tracer.add(
                {"id": span_id, "name": self.name, "start": start,
                 "end": time.perf_counter(), "parent": self.parent,
                 "doc": self.doc, "cpu": time.thread_time() - cpu}
            )


class Stub:
    """Bookkeeping calls to the stub server, made outside timed regions."""

    def __init__(self, endpoint: str) -> None:
        parts = urlsplit(endpoint)
        self.host, self.port = parts.hostname, parts.port

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def untraced_document(doc_path: Path, outs: dict[str, Path], backend_args: list[str]) -> dict:
    argv = [
        "process", str(doc_path), *backend_args,
        "--out", str(outs["record"]), "--report-out", str(outs["validation"]),
        "--metrics-out", str(outs["metrics"]), "--summary-out", str(outs["summary"]),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        steal = steal_seconds()
        start, cpu = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        steal = steal_seconds() - steal
    return {"seconds": seconds, "cpu": cpu, "steal": steal, "exit": code}


def validation_breakdown(span, record_json: str, refs) -> None:
    """The layers validate_all runs, one span each. A function of its own so
    the second parsed record is freed before the next layer runs, as in
    cmd_process."""
    with span("validation.syntactic"):
        validate_syntactic(record_json)
    with span("schema.parse"):
        parsed = parse_record(json.loads(record_json))
    with span("validation.structural"):
        validate_structural(parsed)
    with span("validation.compliance"):
        validate_compliance(parsed, refs=refs)


def traced_document(
    doc_path: Path, outs: dict[str, Path], cfg: cli.PipelineConfig,
    tracer: Tracer, doc: int,
) -> dict:
    """cmd_process, one public call at a time, each inside a span."""
    with tracer.span("doc", doc, None) as root:
        def span(name: str):
            return tracer.span(name, doc, root)

        started = time.perf_counter()
        with span("ingest.load"):
            source = load_markdown(doc_path)
        with span("chunker.chunk"):
            chunks = chunk_text_by_tokens(
                source.text, ChunkingConfig(cfg.max_tokens, cfg.hard_split_threshold),
                WordTokenizer(),
            )
        extraction_cfg = ExtractionConfig(
            model=cfg.model, max_attempts=cfg.max_attempts, workers_cap=cfg.workers_cap,
        )
        # As cli._make_backend, through public names only.
        if cfg.backend == "http":
            inner, backend_name = HttpChatBackend(
                endpoint=cfg.endpoint, auth_env=cfg.auth_env, timeout=cfg.timeout,
                transport_retries=cfg.transport_retries,
            ), "http.complete"
        else:
            inner, backend_name = MockBackend(), "mock_backend.complete"
        with span("extraction.run") as run_id:
            backend = TimedBackend(inner, backend_name, tracer, doc, run_id)
            results = run_parallel(chunks, extraction_cfg, backend)
        with span("merge.merge"):
            record, merge_issues = merge_chunk_results(results)
        with span("merge.xref"):
            record, refs = resolve_cross_references(record)
        with span("schema.serialize"):
            record_json = json.dumps(serialize_record(record), indent=2, ensure_ascii=False)

        validation_breakdown(span, record_json, refs)
        with span("validation.all"):
            report = validate_all(record_json, refs=refs)
        report = ValidationReport(issues=merge_issues + report.issues)
        total_seconds = time.perf_counter() - started

        for name in SOURCE_METRICS:
            with span(f"metrics.{name}"):
                getattr(metrics, name)(source, record)
        with span("metrics.reference_coverage"):
            metrics.reference_coverage(source, record, refs)
        for name in RECORD_METRICS:
            with span(f"metrics.{name}"):
                getattr(metrics, name)(record)
        with span("metrics.compute"):
            scores = metrics.compute_metrics(
                source, record, refs=refs, weights=cfg.weights,
                processing_seconds=total_seconds,
            )

        _write_json(outs["record"], json.loads(record_json))
        _write_json(outs["validation"], report.to_json())
        _write_json(outs["metrics"], scores.to_json())
        _write_json(outs["summary"], cli.RunSummary(
            chunk_count=len(chunks),
            attempts_per_chunk=[r.attempts_used for r in results],
            total_seconds=total_seconds,
            load_seconds=0.0,
            avg_chunk_seconds=0.0,
            validation_passed=report.passed,
            composite_score=scores.composite,
        ).to_json())
    return {
        "chunks": len(chunks),
        "workers": min(cfg.workers_cap, len(chunks)),
        "ok_chunks": sum(r.record is not None for r in results),
        "source_newlines": source.text.count("\n"),
        "kept_newlines": sum(c.text.count("\n") for c in chunks),
        "refs_resolved": sum(r.resolved for r in refs),
        "refs_unresolved": sum(not r.resolved for r in refs),
        "issues": len(report.issues),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--words", type=int, nargs=2, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-docs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--endpoint", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    docs_dir = out / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    stub = Stub(args.endpoint) if args.endpoint else None
    backend_args = (
        ["--backend", "http", "--endpoint", args.endpoint] if stub else ["--mock"]
    ) + ["--workers", str(args.workers)]
    cfg = cli.PipelineConfig(
        backend="http" if stub else "mock", endpoint=args.endpoint, workers_cap=args.workers,
    )

    def document(index: int) -> Path:
        path = docs_dir / f"doc-{index:05d}.md"
        path.write_text(corpus.generate(args.seed, index, *args.words).text, encoding="utf-8")
        return path

    untraced_dir, traced_dir = out / "untraced", out / "traced"
    untraced_dir.mkdir()
    traced_dir.mkdir()
    result: dict = {"untraced": [], "traced": []}
    tracer = Tracer()
    if stub:
        stub.reset()
    deadline = time.perf_counter() + args.seconds
    for index in itertools.count():
        if index >= args.min_docs and time.perf_counter() >= deadline:
            break
        doc_path = document(index)
        times = untraced_document(doc_path, output_paths(untraced_dir, index), backend_args)
        result["untraced"].append({"index": index, **times})
        if not args.trace:
            continue
        # The traced pass of a document follows its untraced pass, so both
        # see the same machine state; the stub forgets the first pass so the
        # same calls fail.
        if stub:
            stub.reset()
        before = stub.stats()["service_s"] if stub else 0.0
        steal, start, cpu = steal_seconds(), time.perf_counter(), time.process_time()
        counts = traced_document(doc_path, output_paths(traced_dir, index), cfg, tracer, index)
        counts.update(
            seconds=time.perf_counter() - start, cpu=time.process_time() - cpu,
            steal=steal_seconds() - steal,
            server_s=stub.stats()["service_s"] - before if stub else None,
        )
        result["traced"].append({"index": index, **counts})
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["stub"] = stub.stats() if stub and not args.trace else None
    tracer.write(out / "spans.jsonl")
    _write_json(out / "client.json", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
