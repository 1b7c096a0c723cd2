"""bmrkit pipeline benchmark.

    python3 perfbench/run.py --workload mock-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs one closed-loop workload (or, with ``all``, every workload untraced and
traced) against the checkout's ``src/bmrkit``, checks the outputs, and prints
the metrics named in ``BENCHMARK.json``: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md`` for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402
from shared import OUTPUT_SUFFIXES, PATH_SPANS, effective_seconds, output_paths, steal_seconds  # noqa: E402

# Why each workload exists is in README.md. words: the range each document's
# word count is drawn from. min_docs: documents every untraced pass finishes,
# whatever the time budget, so the output digest covers a fixed prefix.
WORKLOADS = {
    "mock-small": {"backend": "mock", "words": (1000, 3000), "min_docs": 20},
    "mock-large": {"backend": "mock", "words": (49500, 50500), "min_docs": 2},
    "http-latency": {"backend": "http", "words": (11000, 13000), "min_docs": 4},
}
SETUP_SAMPLES = 9
CLIENT_TIMEOUT_S = 150
P90_MIN_DOCS = 100
SUPERLINEAR_RATIO = 2.0

# Builds the backend as cli._make_backend does, through public names only, so
# that a refactor of the CLI's private helpers does not break the benchmark.
SETUP_CODE = """
import sys
from bmrkit.cli import PipelineConfig
from bmrkit.extraction import HttpChatBackend
from bmrkit.mock_backend import MockBackend
cfg = PipelineConfig.from_file(sys.argv[1])
if cfg.backend == "http":
    HttpChatBackend(endpoint=cfg.endpoint, auth_env=cfg.auth_env,
                    timeout=cfg.timeout, transport_retries=cfg.transport_retries)
else:
    MockBackend()
"""

METRIC_FUNCTIONS = (
    "crude_word_coverage", "context_aware_coverage", "reference_coverage",
    "hierarchy_preservation", "sequence_preservation", "cross_reference_integrity",
    "calculation_fidelity", "conditional_logic_fidelity", "unit_fidelity",
    "field_accuracy", "table_preservation", "image_preservation",
)
# Per-layer timings, each reported per document (_s) and per source word
# (_us_per_word). backend.service is the mock backend's CPU time on the mock
# workloads and the stub server's service time on http-latency;
# backend.client_overhead is the rest of the call time the proxy saw.
TIMED_LAYERS = (
    "ingest.load", "chunker.chunk", "extraction.run", "backend.service",
    "backend.client_overhead", "merge.merge", "merge.xref", "schema.serialize",
    "schema.parse", "validation.syntactic", "validation.structural",
    "validation.compliance", "validation.all",
    *(f"metrics.{name}" for name in METRIC_FUNCTIONS),
    "metrics.compute", "cli.other",
)
BACKEND_SPANS = ("mock_backend.complete", "http.complete")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources first, and no
    proxy variable that could reroute 127.0.0.1."""
    env = {
        k: v for k, v in os.environ.items()
        if k.lower() not in ("http_proxy", "https_proxy", "all_proxy", "no_proxy")
    }
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(SRC)
    return env


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# --------------------------------------------------------------------------
# Processes


class StubServer:
    def __init__(self, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_server.py"), "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("stub server did not start")
        self.endpoint = f"http://127.0.0.1:{line[1]}/v1/chat/completions"

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup(work: Path, backend: str, endpoint: str, workers: int, samples: int) -> list[float]:
    """Effective times of fresh interpreters that import bmrkit.cli, parse a
    config file and build the backend."""
    config = work / "setup_config.json"
    config.write_text(json.dumps(
        {"backend": backend, "endpoint": endpoint, "workers_cap": workers}
    ))
    times = []
    for _ in range(samples):
        steal, cpu = steal_seconds(), children_cpu()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config)],
            env=child_env(), cwd=ROOT, check=True, timeout=60,
        )
        wall = time.perf_counter() - start
        times.append(effective_seconds(wall, children_cpu() - cpu, steal_seconds() - steal))
    return times


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_client(work: Path, name: str, seed: int, seconds: float, trace: int,
               workers: int, endpoint: str) -> tuple[dict, list[dict]]:
    spec = WORKLOADS[name]
    subprocess.run(
        [sys.executable, str(BENCH / "client.py"), "--seed", str(seed),
         "--words", *map(str, spec["words"]), "--seconds", str(seconds),
         "--min-docs", str(spec["min_docs"]), "--trace", str(trace),
         "--workers", str(workers), "--endpoint", endpoint, "--out", str(work)],
        env=child_env(), cwd=ROOT, check=True, timeout=CLIENT_TIMEOUT_S,
    )
    result = json.loads((work / "client.json").read_text())
    with (work / "spans.jsonl").open() as fh:
        spans = [json.loads(line) for line in fh]
    return result, spans


# --------------------------------------------------------------------------
# Output checks


def check_pass(work: Path, pass_name: str, docs: list[dict], seed: int, words: tuple[int, int]) -> dict:
    """Re-parse every record, check every report is JSON and every score lies
    in [0, 100], and score step recall against the generator's headings."""
    from bmrkit.schema import parse_record

    problems: list[str] = []
    out = {"failed": 0, "calls": [], "chunks": [], "composites": [], "matched": 0, "headings": 0,
           "words": {}, "digests": {}, "records": {}}
    for doc in docs:
        index = doc["index"]
        truth = corpus.generate(seed, index, *words)
        out["words"][index] = truth.words
        out["headings"] += len(truth.step_names)
        if doc.get("exit", 0) == 2:
            out["failed"] += 1
            continue
        if doc.get("exit", 0) not in (0, 1):
            problems.append(f"{pass_name} doc {index}: exit code {doc['exit']}")
            continue
        paths = output_paths(work / pass_name, index)
        raw = {s: paths[s].read_bytes() for s in OUTPUT_SUFFIXES}
        try:
            reports = {s: json.loads(raw[s]) for s in OUTPUT_SUFFIXES}
        except ValueError as exc:
            problems.append(f"{pass_name} doc {index}: output is not JSON: {exc}")
            continue
        record = parse_record(reports["record"])
        if isinstance(record, list):
            problems.append(f"{pass_name} doc {index}: record does not re-parse")
            continue
        scores = {
            k: v for k, v in reports["metrics"].items()
            if isinstance(v, (int, float)) and k not in ("processing_seconds", "unique_step_types")
        }
        bad = {k: v for k, v in scores.items() if not 0 <= v <= 100}
        if bad:
            problems.append(f"{pass_name} doc {index}: scores outside [0, 100]: {bad}")
        if any(i["code"] == "CHUNK_MISSING" for i in reports["validation"]["issues"]):
            out["failed"] += 1
        out["calls"].append(sum(reports["summary"]["attempts_per_chunk"]))
        out["chunks"].append(reports["summary"]["chunk_count"])
        out["composites"].append(reports["metrics"]["composite"])
        names = Counter(" ".join(str(s.step_name.value).split()) for s in record.steps)
        out["matched"] += sum((names & Counter(truth.step_names)).values())
        out["records"][index] = hashlib.sha256(
            json.dumps(reports["record"], sort_keys=True).encode()
        ).hexdigest()
        stable_metrics = {k: v for k, v in reports["metrics"].items() if k != "processing_seconds"}
        out["digests"][index] = hashlib.sha256(
            raw["record"] + raw["validation"]
            + json.dumps(stable_metrics, sort_keys=True).encode()
        ).hexdigest()
    out["problems"] = problems
    return out


# --------------------------------------------------------------------------
# Metrics


def end_to_end(client: dict, checked: dict, setup_s: float) -> tuple[dict, dict]:
    docs = client["untraced"]
    seconds = [effective_seconds(d["seconds"], d["cpu"], d["steal"]) for d in docs]
    wall = [d["seconds"] for d in docs]
    words = sum(checked["words"][d["index"]] for d in docs)
    values = {
        "words_per_s": words / sum(seconds),
        "doc_s.p50": statistics.median(seconds),
        "setup_s": setup_s,
        "peak_rss_mb": client["peak_rss_kb"] / 1024,
        "model_calls_per_doc": statistics.mean(checked["calls"]),
        "step_recall": checked["matched"] / checked["headings"],
        "composite_mean": statistics.mean(checked["composites"]),
    }
    extra = {
        "documents": len(docs),
        "chunks_per_doc": statistics.mean(checked["chunks"]),
        "doc_fail_ratio": checked["failed"] / len(docs),
        "doc_s.p90": quantile(seconds, 0.9) if len(docs) >= P90_MIN_DOCS else None,
        "wall_s.p50": statistics.median(wall),
        "steal_share": sum(d["steal"] for d in docs) / sum(wall),
    }
    return values, extra


def self_times(spans: list[dict], scale: dict[int, float]) -> dict[str, float]:
    """Per span name, summed duration minus the part of it that child spans
    cover (children of one parent may overlap in time)."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        totals[s["name"]] += (s["end"] - s["start"] - covered) * scale[s["doc"]]
    return totals


def per_layer(client: dict, spans: list[dict], checked: dict) -> tuple[dict, dict]:
    traced = client["traced"]
    n = len(traced)
    words = sum(checked["words"][d["index"]] for d in traced)
    workers = {d["index"]: d["workers"] for d in traced}
    # Span times are scaled by their document's effective share of wall time,
    # so steal is taken out of the layers in proportion.
    scale = {
        d["index"]: effective_seconds(d["seconds"], d["cpu"], d["steal"]) / d["seconds"]
        for d in traced
    }
    duration: dict[str, float] = defaultdict(float)
    doc_s: dict[int, float] = {}
    path_s: dict[int, float] = defaultdict(float)
    breakdown_s: dict[int, float] = defaultdict(float)
    calls: list[float] = []
    cpu = capacity = 0.0
    for s in spans:
        d = (s["end"] - s["start"]) * scale[s["doc"]]
        if s["name"] == "doc":
            doc_s[s["doc"]] = d
        elif s["name"] in BACKEND_SPANS:
            calls.append(d)
            cpu += s["cpu"]
        else:
            duration[s["name"]] += d
            if s["name"] in PATH_SPANS:
                path_s[s["doc"]] += d
            else:
                breakdown_s[s["doc"]] += d
            if s["name"] == "extraction.run":
                capacity += d * workers[s["doc"]]
    service = sum(d["server_s"] for d in traced) if traced[0]["server_s"] is not None else cpu
    duration["backend.service"] = service
    duration["backend.client_overhead"] = sum(calls) - service

    # Every traced document also ran untraced. The traced document time
    # leaves out the breakdown spans.
    untraced_s = sum(
        effective_seconds(d["seconds"], d["cpu"], d["steal"]) for d in client["untraced"]
    )
    duration["cli.other"] = untraced_s - sum(path_s.values())

    values: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}_s"] = duration[layer] / n
        values[f"{layer}_us_per_word"] = duration[layer] / words * 1e6
    chunks = sum(d["chunks"] for d in traced)
    values.update({
        "chunker.chunks": chunks / n,
        "chunker.newline_keep": sum(d["kept_newlines"] for d in traced)
        / sum(d["source_newlines"] for d in traced),
        "extraction.calls": len(calls) / n,
        "extraction.retries": (len(calls) - chunks) / n,
        "extraction.call_s.p50": statistics.median(calls),
        "extraction.call_s.p90": quantile(calls, 0.9),
        "extraction.busy_ratio": sum(calls) / capacity,
        "extraction.useful_ratio": sum(d["ok_chunks"] for d in traced) / len(calls),
        "merge.refs_resolved": sum(d["refs_resolved"] for d in traced) / n,
        "merge.refs_unresolved": sum(d["refs_unresolved"] for d in traced) / n,
        "validation.issues": sum(d["issues"] for d in traced) / n,
        "trace.overhead": sum(doc_s[i] - breakdown_s[i] for i in doc_s) / untraced_s,
    })
    extra = {"traced_documents": n, "self_s": self_times(spans, scale), "words": words}
    return values, extra


# --------------------------------------------------------------------------
# One workload


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    workers = nproc()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    backend = WORKLOADS[name]["backend"]
    stub = StubServer(seed) if backend == "http" else None
    try:
        endpoint = stub.endpoint if stub else ""
        # Set-up samples are split around the client run, so one slow
        # stretch of the machine does not set the median.
        setup = measure_setup(work, backend, endpoint, workers, SETUP_SAMPLES // 2) if trace == 0 else []
        client, spans = run_client(work, name, seed, seconds, trace, workers, endpoint)
        if trace == 0:
            setup += measure_setup(work, backend, endpoint, workers, SETUP_SAMPLES - len(setup))
    finally:
        if stub:
            stub.close()

    words = WORKLOADS[name]["words"]
    checked = check_pass(work, "untraced", client["untraced"], seed, words)
    problems = list(checked["problems"])
    attempted, failed = len(client["untraced"]), checked["failed"]
    prefix = [checked["digests"].get(i, "missing") for i in range(WORKLOADS[name]["min_docs"])]
    digest = hashlib.sha256("".join(prefix).encode()).hexdigest()
    if trace == 0:
        values, extra = end_to_end(client, checked, statistics.median(setup))
    else:
        traced = check_pass(work, "traced", client["traced"], seed, words)
        problems += traced["problems"]
        attempted += len(client["traced"])
        failed += traced["failed"]
        for index, record in traced["records"].items():
            if checked["records"].get(index) != record:
                problems.append(f"traced doc {index}: record differs from the CLI's")
        values, extra = per_layer(client, spans, traced)

    section = "end_to_end" if trace == 0 else "per_layer"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(declared)}")

    print(f"== workload {name}  seed={seed}  seconds={seconds}  trace={trace}  "
          f"nproc={nproc()}  workers={workers}  python={platform.python_version()}")
    for key, value in values.items():
        print(f"  {key:<48} {value:>14.6g} {declared[key]}")
    if trace == 0:
        print(f"  {'doc_fail_ratio':<48} {extra['doc_fail_ratio']:>14.6g} ratio "
              f"({failed} of {attempted} documents)")
        print(f"  {'chunks_per_doc':<48} {extra['chunks_per_doc']:>14.6g} chunks")
        print(f"  {'wall_s.p50 (steal not removed)':<48} {extra['wall_s.p50']:>14.6g} s")
        print(f"  {'steal_share (machine, over document time)':<48} {extra['steal_share']:>14.6g} ratio")
        if extra["doc_s.p90"] is not None:
            print(f"  {'doc_s.p90':<48} {extra['doc_s.p90']:>14.6g} s "
                  f"({extra['documents']} documents)")
        if stub:
            print(f"  stub: {client['stub']['requests']} requests, "
                  f"{client['stub']['service_s']:.3f} s service time")
    else:
        print(f"  self time per document ({extra['traced_documents']} documents):")
        for span_name, total in sorted(extra["self_s"].items(), key=lambda kv: -kv[1]):
            n = extra["traced_documents"]
            print(f"    {span_name:<40} {total / n:>10.4f} s  "
                  f"{total / extra['words'] * 1e6:>9.3f} us/word")
    print(f"  output digest (first {WORKLOADS[name]['min_docs']} documents): {digest}")
    print(f"  checks: {'ok' if not problems else 'FAILED'}")
    for problem in problems[:20]:
        print(f"    {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in values.items()},
    }


def flag_superlinear(small: dict, large: dict) -> None:
    """Flag layers whose per-word cost grows well beyond linear between the
    small and large mock workloads. Reported, never failed."""
    print("== per-word cost, mock-large over mock-small")
    for key, entry in large["metrics"].items():
        if not key.endswith("_us_per_word"):
            continue
        lo, hi = small["metrics"][key]["value"], entry["value"]
        if lo > 0 and hi / lo > SUPERLINEAR_RATIO:
            print(f"  SUPER-LINEAR {key}: {lo:.3f} -> {hi:.3f} us/word ({hi / lo:.1f}x)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bmrkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'bmrkit'} or {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
        print(json.dumps(result))
        return 0
    results = {
        f"{name}/trace{trace}": run_workload(name, args.seed, args.seconds, trace, spec)
        for name in WORKLOADS for trace in (0, 1)
    }
    flag_superlinear(results["mock-small/trace1"], results["mock-large/trace1"])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
