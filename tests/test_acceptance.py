"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Everything runs on the mock or scripted backends; no network, single core."""

from __future__ import annotations

import contextlib
import copy
import json
import random
import time

import pytest

from bmrkit.chunker import Chunk, ChunkingConfig, WordTokenizer, chunk_text_by_tokens
from bmrkit.cli import main
from bmrkit.extraction import (
    ExtractionConfig,
    PARSE_FAILED,
    process_single_chunk,
    run_parallel,
)
from bmrkit.merge import merge_chunk_results, resolve_cross_references
from bmrkit.metrics import (
    METRIC_NAMES,
    MetricsReport,
    composite_score,
    compute_metrics,
    crude_word_coverage,
    hierarchy_preservation,
    sequence_preservation,
    status_for,
)
from bmrkit.ingest import SourceDocument
from bmrkit.schema import BmrRecord, parse_record
from bmrkit.validation import validate_all

from conftest import (
    SAMPLE_BMR,
    SEEDED_FAULTS,
    LatencyEchoBackend,
    ScriptedBackend,
    clean_record_json,
    refs_for_json,
    wrap_json,
)


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


# --------------------------------------------------------------------------


def test_criterion_1_chunker_properties():
    with criterion(1, "chunker bound/no-loss/order over 1000 random documents"):
        rng = random.Random(20240315)
        vocab = [f"w{i}" for i in range(10)]
        docs = []
        for _ in range(1000):
            sentences = []
            for _ in range(rng.randint(1, 4)):
                n_tok = rng.randint(1, 5000)
                words = [vocab[rng.randrange(10)] for _ in range(n_tok - 1)]
                sentences.append(" ".join(words + ["end."]))
            docs.append(" ".join(sentences))

        cfg = ChunkingConfig()
        tok = WordTokenizer()
        started = time.perf_counter()
        for doc in docs:
            chunks = chunk_text_by_tokens(doc, cfg, tok)
            for c in chunks:
                assert c.token_count <= cfg.max_tokens
            assert "".join(c.text for c in chunks) == doc
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"chunker property sweep took {elapsed:.1f}s"

        # Worked examples reproduce exactly.
        small = chunk_text_by_tokens(
            "a1 b1. a2 b2. a3 b3. a4 b4. a5 b5.",
            ChunkingConfig(max_tokens=6, hard_split_threshold=6),
            tok,
        )
        assert [c.text for c in small] == ["a1 b1. a2 b2. a3 b3. ", "a4 b4. a5 b5."]
        one_window = chunk_text_by_tokens(
            " ".join(f"w{i}" for i in range(2500)), ChunkingConfig(), tok
        )
        assert [c.token_count for c in one_window] == [2500]
        two_windows = chunk_text_by_tokens(
            " ".join(f"w{i}" for i in range(5000)), ChunkingConfig(), tok
        )
        assert [c.token_count for c in two_windows] == [3000, 2000]


def test_criterion_2_golden_round_trip(tmp_path):
    with criterion(2, "golden fixture: exact record, clean validation, 100% preservation"):
        out = tmp_path / "record.json"
        report_out = tmp_path / "validation.json"
        metrics_out = tmp_path / "metrics.json"
        code = main(
            [
                "process", str(SAMPLE_BMR), "--mock",
                "--out", str(out),
                "--report-out", str(report_out),
                "--metrics-out", str(metrics_out),
            ]
        )
        assert code == 0

        record = json.loads(out.read_text())
        assert len(record["groups"]) == 1
        assert len(record["phases"]) == 2
        assert len(record["steps"]) == 3

        assert record["header"]["name"]["value"] == "Acetaminophen Tablets 500mg"
        assert record["header"]["sku"]["value"] == "AT-2024-0156"
        assert record["header"]["start_date"]["value"] == "2024-03-15"
        assert record["groups"][0]["group_name"]["value"] == "Processing"
        assert [p["phase_name"]["value"] for p in record["phases"]] == [
            "Material Preparation",
            "Blending",
        ]

        calc = record["steps"][2]["content"][-1]["calculation"]
        assert calc["formula"] == "(Acetaminophen + Excipients) x 0.98"
        assert calc["result"] == {"value": 56.35, "unit": "kg"}
        assert {(v["value"], v["unit"]) for v in calc["variables"]} == {
            (50.0, "kg"),
            (7.5, "kg"),
        }
        images = [
            c for s in record["steps"] for c in s["content"] if c["type"] == "image"
        ]
        assert [c["text"] for c in images] == [
            "Screening setup diagram showing 20 mesh screen positioned above collection bin"
        ]
        form = record["steps"][0]["content"][-1]["fields"]
        assert {
            "label": "Target weight",
            "value": "50.0",
            "unit": "kg",
            "limits": "+/- 0.5 kg",
        } in form
        assert {"label": "Actual weight", "value": None, "unit": "kg"} in form

        assert json.loads(report_out.read_text())["passed"] is True

        metrics = json.loads(metrics_out.read_text())
        for name in (
            "hierarchy_preservation",
            "sequence_preservation",
            "cross_reference_integrity",
            "calculation_fidelity",
            "conditional_logic_fidelity",
            "unit_fidelity",
            "table_preservation",
            "image_preservation",
        ):
            assert metrics[name] == 100.0, f"{name} = {metrics[name]}"


def test_criterion_3_seeded_fault_suite():
    with criterion(3, "each issue code detected exactly once at the right path"):
        clean = json.dumps(clean_record_json())
        clean_report = validate_all(clean, refs=refs_for_json(clean))
        assert clean_report.issues == []

        for code, layer, severity, path, build in SEEDED_FAULTS:
            text = build()
            report = validate_all(text, refs=refs_for_json(text))
            found = [(i.code, i.layer, i.severity, i.path) for i in report.issues]
            assert found == [(code, layer, severity, path)], (
                f"{code}: expected exactly one issue at {path!r}, found {found}"
            )


def test_criterion_4_metric_arithmetic():
    with criterion(4, "metric arithmetic: coverage, LIS sequence, composite, bands"):
        doc = SourceDocument.from_text("a1 b2 c3 d4")
        value = clean_record_json()
        value["steps"][0]["content"] = [{"type": "paragraph", "text": "a1 b2 c3"}]
        value["steps"][1]["content"] = []
        record = parse_record(value)
        assert isinstance(record, BmrRecord)
        assert crude_word_coverage(doc, record) == 75.0

        headings = {1: "alpha mix", 2: "beta blend", 3: "gamma dry"}
        seq_doc = SourceDocument.from_text(
            "\n".join(f"**Step {n}:** {headings[n]}" for n in (1, 2, 3))
        )
        seq_value = clean_record_json()
        seq_value["steps"] = [
            {
                "id": f"step-{pos + 1}",
                "phase_id": "phase-1",
                "group_id": "group-1",
                "step_name": {"type": ["text"], "value": headings[n]},
                "step_type": {"type": ["text"], "value": None},
                "content": [],
            }
            for pos, n in enumerate((1, 3, 2))
        ]
        seq_record = parse_record(seq_value)
        assert sequence_preservation(seq_doc, seq_record) == pytest.approx(
            66.67, abs=0.01
        )

        rows = (100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 79.02, 88.74, 69.30, 67.65)
        names = (
            "hierarchy_preservation",
            "sequence_preservation",
            "cross_reference_integrity",
            "calculation_fidelity",
            "conditional_logic_fidelity",
            "unit_fidelity",
            "field_accuracy",
            "crude_word_coverage",
            "context_aware_coverage",
            "reference_coverage",
        )
        report = MetricsReport(**dict(zip(names, rows)))
        assert composite_score(report) == pytest.approx(90.47, abs=0.01)

        assert status_for(89.13) == "Excellent"
        assert status_for(79.02) == "Acceptable"
        assert status_for(50) == "Needs review"


# --------------------------------------------------------------------------
# Criterion 5 helpers


def _deletion_candidates(record: BmrRecord):
    cands = []
    for i, step in enumerate(record.steps):
        cands.append(("step", i))
        for j, content in enumerate(step.content):
            cands.append(("content", i, j))
            for k in range(len(content.fields or [])):
                cands.append(("form_field", i, j, k))
                if content.fields[k].unit is not None:
                    cands.append(("field_unit", i, j, k))
            for k in range(len(content.items or [])):
                cands.append(("item", i, j, k))
            for k in range(len(content.rows or [])):
                cands.append(("row", i, j, k))
            if content.calculation is not None:
                for k in range(len(content.calculation.variables)):
                    cands.append(("calc_variable", i, j, k))
    for i in range(len(record.phases)):
        cands.append(("phase", i))
    for i in range(len(record.groups)):
        cands.append(("group", i))
    return cands


def _apply_deletion(record: BmrRecord, cand) -> None:
    kind = cand[0]
    if kind == "step":
        del record.steps[cand[1]]
    elif kind == "phase":
        del record.phases[cand[1]]
    elif kind == "group":
        del record.groups[cand[1]]
    elif kind == "content":
        del record.steps[cand[1]].content[cand[2]]
    elif kind == "form_field":
        del record.steps[cand[1]].content[cand[2]].fields[cand[3]]
    elif kind == "field_unit":
        record.steps[cand[1]].content[cand[2]].fields[cand[3]].unit = None
    elif kind == "item":
        del record.steps[cand[1]].content[cand[2]].items[cand[3]]
    elif kind == "row":
        del record.steps[cand[1]].content[cand[2]].rows[cand[3]]
    elif kind == "calc_variable":
        del record.steps[cand[1]].content[cand[2]].calculation.variables[cand[3]]
    else:
        raise AssertionError(kind)


_DAMAGE_METRICS = METRIC_NAMES + ("table_preservation", "image_preservation", "composite")


def test_criterion_5_monotone_damage(golden_doc, golden_record):
    with criterion(5, "500 random single deletions never raise a metric"):
        baseline = compute_metrics(golden_doc, golden_record, refs=[])
        candidates = _deletion_candidates(golden_record)
        rng = random.Random(56)
        for _ in range(500):
            damaged = copy.deepcopy(golden_record)
            cand = rng.choice(candidates)
            _apply_deletion(damaged, cand)
            after = compute_metrics(golden_doc, damaged, refs=[])
            for name in _DAMAGE_METRICS:
                assert getattr(after, name) <= getattr(baseline, name) + 1e-9, (
                    f"{name} rose after deleting {cand}"
                )


def test_criterion_6_concurrency_contract():
    with criterion(6, "worker cap honored, parallel speedup, stable ordering"):
        chunks = [Chunk(index=i, text=f"document slice {i}.", token_count=3) for i in range(12)]
        cfg = ExtractionConfig(workers_cap=8, max_attempts=1)

        backend = LatencyEchoBackend(latency=0.1)
        started = time.perf_counter()
        results = run_parallel(chunks, cfg, backend)
        wall = time.perf_counter() - started

        assert backend.peak == 8 == min(8, len(chunks))
        sequential = len(chunks) * 0.1
        assert wall < 0.45 * sequential, f"wall {wall:.3f}s vs sequential {sequential:.1f}s"
        assert [r.index for r in results] == list(range(12))

        for run_number in range(50):
            jittered = LatencyEchoBackend(latency=0.002, jitter=0.004, seed=run_number)
            results = run_parallel(chunks, cfg, jittered)
            assert [r.index for r in results] == list(range(12))
            for i, result in enumerate(results):
                assert result.record is not None
                assert result.record.header.name.value == f"document slice {i}."


def test_criterion_7_retry_repair():
    with criterion(7, "N-1 failures then success uses N attempts; exhaustion fails"):
        chunk = Chunk(index=0, text="weigh the api.", token_count=3)
        cfg = ExtractionConfig(max_attempts=3)
        good = wrap_json(clean_record_json())

        for n in (1, 2, 3):
            backend = ScriptedBackend(["<json>{broken</json>"] * (n - 1) + [good])
            result = process_single_chunk(chunk, 1, cfg, backend)
            assert result.record is not None
            assert result.attempts_used == n

        backend = ScriptedBackend(["<json>{broken</json>"] * 4)
        result = process_single_chunk(chunk, 1, cfg, backend)
        assert result.record is None
        assert result.failure == PARSE_FAILED
        assert result.attempts_used == 3


def test_criterion_8_merge_renumbering():
    with criterion(8, "three locally numbered chunk records merge with unique ids"):
        from bmrkit.extraction import ChunkResult

        def local_record(tag: str) -> BmrRecord:
            value = clean_record_json()
            value["steps"] = [value["steps"][0]]
            value["steps"][0]["step_name"]["value"] = f"blend {tag}"
            parsed = parse_record(value)
            assert isinstance(parsed, BmrRecord)
            return parsed

        results = [
            ChunkResult(index=i, record=local_record(f"chunk{i}"), attempts_used=1)
            for i in range(3)
        ]
        merged, issues = merge_chunk_results(results)
        assert [g.id for g in merged.groups] == ["group-1", "group-2", "group-3"]
        assert [p.id for p in merged.phases] == ["phase-1", "phase-2", "phase-3"]
        assert [s.id for s in merged.steps] == ["step-1", "step-2", "step-3"]
        assert [s.step_name.value for s in merged.steps] == [
            "blend chunk0",
            "blend chunk1",
            "blend chunk2",
        ]
        for i, step in enumerate(merged.steps):
            assert step.phase_id == f"phase-{i + 1}"
            assert step.group_id == f"group-{i + 1}"
        assert hierarchy_preservation(merged) == 100.0

        merged, refs = resolve_cross_references(merged)
        assert refs == []
