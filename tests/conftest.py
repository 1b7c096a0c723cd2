"""Shared fixtures: the golden sample document, a 50k-word corpus document,
scripted backends, a fully populated clean record, and the seeded-fault table
used by the validator and acceptance suites."""

from __future__ import annotations

import copy
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from bmrkit.ingest import SourceDocument, load_markdown
from bmrkit.merge import resolve_cross_references
from bmrkit.mock_backend import extract_markdown_record
from bmrkit.schema import BmrRecord, parse_record, serialize_record

DATA_DIR = Path(__file__).parent / "data"
SAMPLE_BMR = DATA_DIR / "sample_bmr.md"
SAMPLE_RECORD = DATA_DIR / "sample_bmr.record.json"


def perfbench_corpus():
    """perfbench's deterministic corpus generator, ``perfbench/corpus.py``."""
    sys.path.insert(0, str(DATA_DIR.parents[1] / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    return corpus


@pytest.fixture(scope="session")
def mock_large_text() -> str:
    """Seed-1 document 0 of perfbench's mock-large corpus (50k words)."""
    return perfbench_corpus().generate(1, 0, 49500, 50500).text


@pytest.fixture(scope="session")
def golden_doc() -> SourceDocument:
    return load_markdown(SAMPLE_BMR)


@pytest.fixture()
def golden_record(golden_doc) -> BmrRecord:
    return extract_markdown_record(golden_doc.text)


@pytest.fixture()
def golden_with_refs(golden_record):
    return resolve_cross_references(golden_record)


# --------------------------------------------------------------------------
# Scripted backends


class ScriptedBackend:
    """Returns canned responses in order; repeats the last one when exhausted."""

    def __init__(self, responses: list[str]):
        self.responses = list(responses)
        self.calls = 0
        self.prompts: list[str] = []

    def complete(self, prompt, model, params):
        self.prompts.append(prompt)
        idx = min(self.calls, len(self.responses) - 1)
        self.calls += 1
        return self.responses[idx]


class FailingBackend:
    """Raises on every call, simulating an unreachable endpoint."""

    def complete(self, prompt, model, params):
        raise ConnectionError("endpoint unreachable")


EMPTY_RECORD_JSON = {
    "header": {
        "completion_date": {"type": ["date"], "value": None},
        "expiry_date": {"type": ["date"], "value": None},
        "name": {"type": ["text"], "value": None},
        "quantity": {"type": ["numeric"], "value": None},
        "sku": {"type": ["text"], "value": None},
        "start_date": {"type": ["date"], "value": None},
    },
    "groups": [],
    "phases": [],
    "steps": [],
}


def wrap_json(payload: dict) -> str:
    return "<json>\n" + json.dumps(payload) + "\n</json>"


def prompt_chunk_text(prompt: str) -> str:
    """The record slice that an extraction prompt carries."""
    start = prompt.find("- Manufacturing Batch Record: ")
    end = prompt.find("\n- Template Structure:", start)
    return prompt[start + len("- Manufacturing Batch Record: ") : end]


class LatencyEchoBackend:
    """Sleeps for a fixed latency plus optional jitter, tracks peak concurrent
    calls, and echoes the record slice of the prompt into the header name so
    tests can tie results back to chunks."""

    def __init__(self, latency: float = 0.1, jitter: float = 0.0, seed: int = 0):
        import random

        self.latency = latency
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak = 0

    def complete(self, prompt, model, params):
        with self._lock:
            self._inflight += 1
            self.peak = max(self.peak, self._inflight)
            delay = self.latency + (self._rng.uniform(0, self.jitter) if self.jitter else 0)
        time.sleep(delay)
        payload = copy.deepcopy(EMPTY_RECORD_JSON)
        payload["header"]["name"]["value"] = prompt_chunk_text(prompt)
        with self._lock:
            self._inflight -= 1
        return wrap_json(payload)


# --------------------------------------------------------------------------
# Clean record and seeded faults


def clean_record_json() -> dict:
    """A fully populated record that passes every validation layer cleanly."""
    return {
        "header": {
            "completion_date": {"type": ["date"], "value": "2024-03-20"},
            "expiry_date": {"type": ["date"], "value": "2026-03-20"},
            "name": {"type": ["text"], "value": "Acetaminophen Tablets 500mg"},
            "quantity": {"type": ["numeric"], "value": 56.35},
            "sku": {"type": ["text"], "value": "AT-2024-0156"},
            "start_date": {"type": ["date"], "value": "2024-03-15"},
        },
        "groups": [
            {"id": "group-1", "group_name": {"type": ["text"], "value": "Processing"}}
        ],
        "phases": [
            {
                "id": "phase-1",
                "group_id": "group-1",
                "phase_name": {"type": ["text"], "value": "Blending"},
            }
        ],
        "steps": [
            {
                "id": "step-1",
                "phase_id": "phase-1",
                "group_id": "group-1",
                "step_name": {"type": ["text"], "value": "Blend materials"},
                "step_type": {"type": ["text"], "value": "blending"},
                "content": [
                    {"type": "instruction", "text": "Blend at low speed"},
                    {
                        "type": "data_form",
                        "text": "Recorded values",
                        "fields": [
                            {
                                "label": "Blend speed",
                                "value": "12",
                                "unit": "rpm",
                                "limits": "10 - 14 rpm",
                            }
                        ],
                    },
                    {
                        "type": "calculation",
                        "text": "Yield",
                        "calculation": {
                            "formula": "A x B",
                            "variables": [
                                {
                                    "name": "A",
                                    "description": "input mass",
                                    "value": 50.0,
                                    "unit": "kg",
                                }
                            ],
                            "result": {"value": 49.0, "unit": "kg"},
                        },
                    },
                    {
                        "type": "table",
                        "text": "Equipment",
                        "headers": ["Equipment", "ID"],
                        "rows": [["V-Blender", "VB-105"]],
                    },
                ],
            },
            {
                "id": "step-2",
                "phase_id": "phase-1",
                "group_id": "group-1",
                "step_name": {"type": ["text"], "value": "Check outcome"},
                "step_type": {"type": ["pass_fail"], "value": "pass"},
                "content": [{"type": "note", "text": "All clear"}],
            },
        ],
    }


def _mutate(fn):
    """Apply a mutation to a copy of the clean record and return its JSON."""

    def build() -> str:
        record = clean_record_json()
        fn(record)
        return json.dumps(record)

    return build


def _seed_bad_field_type(r):
    r["header"]["name"]["type"] = ["string"]


def _seed_wrong_typed_string(r):
    r["steps"][0]["content"][1]["fields"][0]["unit"] = 5


def _seed_bad_content_kind(r):
    r["steps"][0]["content"][0]["type"] = "tabl"


def _seed_row_width(r):
    r["steps"][0]["content"][3]["rows"][0] = ["V-Blender"]


def _seed_residue(r):
    r["steps"][0]["content"][0]["text"] = "output was new Field([\"text\"], null)"


def _seed_class_nesting(r):
    r["groups"][0]["phases"] = []


def _seed_dup_id(r):
    r["groups"].append(
        {"id": "group-1", "group_name": {"type": ["text"], "value": "Clearance"}}
    )


def _seed_dangling_ref(r):
    r["steps"][1]["phase_id"] = "phase-9"


def _seed_group_mismatch(r):
    r["groups"].append(
        {"id": "group-2", "group_name": {"type": ["text"], "value": "Clearance"}}
    )
    r["steps"][1]["group_id"] = "group-2"


def _seed_seq_order(r):
    r["groups"][0]["id"] = "group-2"
    r["groups"].append(
        {"id": "group-1", "group_name": {"type": ["text"], "value": "Clearance"}}
    )
    r["phases"][0]["group_id"] = "group-1"
    r["steps"][0]["group_id"] = "group-1"
    r["steps"][1]["group_id"] = "group-1"


def _seed_calc_incomplete_formula(r):
    r["steps"][0]["content"][2]["calculation"]["formula"] = ""


def _seed_calc_incomplete_variables(r):
    r["steps"][0]["content"][2]["calculation"]["variables"] = []


def _seed_unitless_limit(r):
    del r["steps"][0]["content"][1]["fields"][0]["unit"]


def _seed_unnamed_step(r):
    r["steps"][0]["step_name"]["value"] = ""


def _seed_header_gap(r):
    r["header"]["name"]["value"] = None


def _seed_bad_passfail(r):
    r["steps"][1]["step_type"]["value"] = "maybe"


def _seed_unresolved_ref(r):
    r["steps"][0]["content"][0]["text"] = "Proceed as per above procedure"


def _seed_missing_field(r):
    del r["header"]["sku"]


def _seed_bad_id_format(r):
    r["groups"][0]["id"] = "grp-1"


# (code, layer, severity, path, json builder). Codes checked on raw text or
# through parse plus the layered validators; each fixture carries exactly one
# fault.
SEEDED_FAULTS = [
    ("JSON_MALFORMED", "syntactic", "error", "", lambda: '{"header": 1,}'),
    ("BAD_FIELD_TYPE", "structural", "error", "header.name.type", _mutate(_seed_bad_field_type)),
    ("BAD_FIELD_TYPE", "structural", "error", "steps[0].content[1].fields[0].unit", _mutate(_seed_wrong_typed_string)),
    ("BAD_CONTENT_KIND", "structural", "error", "steps[0].content[0].type", _mutate(_seed_bad_content_kind)),
    ("ROW_WIDTH_MISMATCH", "structural", "error", "steps[0].content[3].rows[0]", _mutate(_seed_row_width)),
    ("CODE_SYNTAX_RESIDUE", "syntactic", "error", "", _mutate(_seed_residue)),
    ("CODE_SYNTAX_RESIDUE", "syntactic", "error", "", lambda: '{"header": new Header()}'),
    ("CLASS_NESTING", "structural", "error", "groups[0]", _mutate(_seed_class_nesting)),
    ("DUP_ID", "structural", "error", "groups[1].id", _mutate(_seed_dup_id)),
    ("DANGLING_REF", "structural", "error", "steps[1].phase_id", _mutate(_seed_dangling_ref)),
    ("GROUP_MISMATCH", "structural", "error", "steps[1].group_id", _mutate(_seed_group_mismatch)),
    ("SEQ_ORDER", "structural", "warning", "groups[1].id", _mutate(_seed_seq_order)),
    ("CALC_INCOMPLETE", "compliance", "error", "steps[0].content[2].calculation.formula", _mutate(_seed_calc_incomplete_formula)),
    ("CALC_INCOMPLETE", "compliance", "warning", "steps[0].content[2].calculation.variables", _mutate(_seed_calc_incomplete_variables)),
    ("UNITLESS_LIMIT", "compliance", "warning", "steps[0].content[1].fields[0]", _mutate(_seed_unitless_limit)),
    ("UNNAMED_STEP", "compliance", "error", "steps[0].step_name", _mutate(_seed_unnamed_step)),
    ("HEADER_GAP", "compliance", "warning", "header.name", _mutate(_seed_header_gap)),
    ("BAD_PASSFAIL", "compliance", "error", "steps[1].step_type.value", _mutate(_seed_bad_passfail)),
    ("UNRESOLVED_REF", "compliance", "warning", "steps[0].content[0]", _mutate(_seed_unresolved_ref)),
    ("MISSING_FIELD", "structural", "error", "header.sku", _mutate(_seed_missing_field)),
    ("BAD_ID_FORMAT", "structural", "error", "groups[0].id", _mutate(_seed_bad_id_format)),
]

# A test id per SEEDED_FAULTS row: its code and path, numbered from the second
# row that shares both.
_FAULT_KEYS = [f"{c}-{p or 'root'}" for c, _, _, p, _ in SEEDED_FAULTS]
SEEDED_FAULT_IDS = [
    f"{key}-{_FAULT_KEYS[:i].count(key) + 1}" if key in _FAULT_KEYS[:i] else key
    for i, key in enumerate(_FAULT_KEYS)
]


def refs_for_json(json_text: str):
    """Cross references for a record file, mirroring what the CLI does."""
    try:
        parsed = parse_record(json.loads(json_text))
    except (json.JSONDecodeError, ValueError):
        return None
    if isinstance(parsed, list):
        return None
    _, refs = resolve_cross_references(parsed)
    return refs


def reparse(record: BmrRecord) -> BmrRecord:
    """Round-trip a typed record through JSON; handy for deep copies."""
    parsed = parse_record(json.loads(json.dumps(serialize_record(record))))
    assert not isinstance(parsed, list)
    return parsed
