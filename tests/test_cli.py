from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bmrkit.cli as cli
import bmrkit.validation as validation
from bmrkit.chunker import Chunk
from bmrkit.cli import main
from bmrkit.extraction import build_prompt
from bmrkit.mock_backend import MockBackend
from bmrkit.mock_backend import extract_markdown_record
from bmrkit.schema import parse_record, serialize_record, write_json
from bmrkit.validation import validate_all

from conftest import (
    DATA_DIR, SAMPLE_BMR, SAMPLE_RECORD, ScriptedBackend, clean_record_json, perfbench_corpus,
    refs_for_json, wrap_json,
)


def run(argv):
    return main([str(a) for a in argv])


def test_process_sample_with_mock(tmp_path, capsys):
    out = tmp_path / "record.json"
    code = run(
        [
            "process", SAMPLE_BMR, "--mock",
            "--out", out,
            "--report-out", tmp_path / "validation.json",
            "--metrics-out", tmp_path / "metrics.json",
            "--summary-out", tmp_path / "summary.json",
        ]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert len(record["steps"]) == 3
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["passed"] is True
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["hierarchy_preservation"] == 100.0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["chunk_count"] == 1
    assert summary["attempts_per_chunk"] == [1]
    assert summary["validation_passed"] is True
    assert "Composite Confidence Score" in capsys.readouterr().out


def test_process_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code = run(
            [
                "process", SAMPLE_BMR, "--mock",
                "--out", out,
                "--report-out", tmp_path / f"{name}.validation.json",
                "--metrics-out", tmp_path / f"{name}.metrics.json",
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == SAMPLE_RECORD.read_bytes()


def test_process_exit_1_on_dangling_reference(tmp_path, monkeypatch):
    bad = clean_record_json()
    bad["steps"][0]["phase_id"] = "phase-9"
    monkeypatch.setattr(
        cli, "_make_backend", lambda cfg: ScriptedBackend([wrap_json(bad)])
    )
    code = run(
        [
            "process", SAMPLE_BMR,
            "--out", tmp_path / "r.json",
            "--report-out", tmp_path / "v.json",
            "--metrics-out", tmp_path / "m.json",
        ]
    )
    assert code == 1
    report = json.loads((tmp_path / "v.json").read_text())
    assert any(i["code"] == "DANGLING_REF" for i in report["issues"])


def test_process_survives_non_string_list_items(tmp_path, monkeypatch):
    """The reply is rejected at parse and its issues go into the repair prompt."""
    reply = clean_record_json()
    reply["steps"][0]["content"][0]["items"] = [1, 2]
    backend = ScriptedBackend([wrap_json(reply), wrap_json(clean_record_json())])
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: backend)
    code = run(
        [
            "process", SAMPLE_BMR,
            "--out", tmp_path / "r.json",
            "--report-out", tmp_path / "v.json",
            "--metrics-out", tmp_path / "m.json",
        ]
    )
    assert code in (0, 1)
    assert "- BAD_FIELD_TYPE at steps[0].content[0].items[0]" in backend.prompts[1]
    record = json.loads((tmp_path / "r.json").read_text())
    assert "items" not in record["steps"][0]["content"][0]


def test_process_exit_2_when_backend_unreachable(tmp_path):
    code = run(
        [
            "process", SAMPLE_BMR,
            "--backend", "http",
            "--endpoint", "http://127.0.0.1:9/v1/chat",
            "--max-attempts", "1",
            "--out", tmp_path / "r.json",
            "--report-out", tmp_path / "v.json",
            "--metrics-out", tmp_path / "m.json",
        ]
    )
    assert code == 2


def test_process_exit_2_reports_why_every_chunk_failed(tmp_path, monkeypatch, capsys):
    reply = clean_record_json()
    reply["steps"][0]["content"][1]["fields"][0]["unit"] = 5
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: ScriptedBackend([wrap_json(reply)]))
    outs = [tmp_path / name for name in ("r.json", "v.json", "m.json")]
    code = run(
        [
            "process", SAMPLE_BMR,
            "--out", outs[0], "--report-out", outs[1], "--metrics-out", outs[2],
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error: no chunk produced a record" in err
    assert "chunk 0: SCHEMA_INVALID" in err
    assert "BAD_FIELD_TYPE at steps[0].content[1].fields[0].unit: expected a string" in err
    assert not any(path.exists() for path in outs)


def test_process_exit_2_prints_each_chunk_issue_once(tmp_path, monkeypatch, capsys):
    reply = clean_record_json()
    reply["steps"][0]["content"][1]["fields"][0]["unit"] = 5
    backend = ScriptedBackend([wrap_json(reply)])
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: backend)
    out = tmp_path / "r.json"
    assert run(["process", SAMPLE_BMR, "--out", out]) == 2
    err = capsys.readouterr().err
    assert backend.calls == 3
    assert "chunk 0: SCHEMA_INVALID after 3 attempts\n" in err
    assert err.count("BAD_FIELD_TYPE at steps[0].content[1].fields[0].unit") == 1
    assert not out.exists()


def test_process_exit_1_when_one_chunk_replies_with_residue_every_time(tmp_path, monkeypatch):
    """Residue fails the attempt at the reply; once the attempts run out the
    chunk is missing from the merged record, and the run still reports."""
    residue = clean_record_json()
    residue["steps"][0]["content"][0]["text"] = 'output was new Field(["text"], null)'
    residue_reply, clean_reply = wrap_json(residue), wrap_json(clean_record_json())

    class ResidueOnSecondChunk(ScriptedBackend):
        def complete(self, prompt, model, params):
            self.prompts.append(prompt)
            return residue_reply if "(chunk 2 of" in prompt else clean_reply

    backend = ResidueOnSecondChunk([])
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: backend)
    report_out = tmp_path / "v.json"
    code = run(
        [
            "process", SAMPLE_BMR, "--max-tokens", "40", "--out", tmp_path / "r.json",
            "--report-out", report_out, "--metrics-out", tmp_path / "m.json",
        ]
    )
    assert code == 1
    assert sum("(chunk 2 of" in p for p in backend.prompts) == 3
    issues = json.loads(report_out.read_text())["issues"]
    assert {
        "layer": "structural", "severity": "error", "path": "", "code": "CHUNK_MISSING",
        "message": "chunk 1 produced no record (PARSE_FAILED)",
    } in issues


def test_summary_counts_every_model_call(tmp_path, monkeypatch):
    # The sample's one chunk is below 100% crude coverage, so the pool task
    # extracts it a second time; both calls count.
    class CountingMock(MockBackend):
        calls = 0

        def complete(self, prompt, model, params):
            self.calls += 1
            return super().complete(prompt, model, params)

    backend = CountingMock()
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: backend)
    summary_out = tmp_path / "summary.json"
    code = run(
        [
            "process", SAMPLE_BMR, "--reprocess-threshold", "100",
            "--out", tmp_path / "r.json", "--report-out", tmp_path / "v.json",
            "--metrics-out", tmp_path / "m.json", "--summary-out", summary_out,
        ]
    )
    assert code == 0
    assert backend.calls == 2
    assert json.loads(summary_out.read_text())["attempts_per_chunk"] == [backend.calls]


def test_process_exit_1_when_no_step_is_extracted(tmp_path, monkeypatch):
    reply = clean_record_json()
    reply["steps"] = []
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: ScriptedBackend([wrap_json(reply)]))
    report_out = tmp_path / "v.json"
    code = run(
        [
            "process", SAMPLE_BMR, "--out", tmp_path / "r.json",
            "--report-out", report_out, "--metrics-out", tmp_path / "m.json",
        ]
    )
    assert code == 1
    report = json.loads(report_out.read_text())
    assert report["passed"] is False
    assert [(i["code"], i["path"], i["severity"]) for i in report["issues"]] == [
        ("NO_STEPS_EXTRACTED", "steps", "error")
    ]


def test_process_exit_2_on_missing_input(tmp_path):
    assert run(["process", tmp_path / "missing.md", "--mock"]) == 2


def test_http_backend_requires_endpoint(tmp_path, capsys):
    assert run(["process", SAMPLE_BMR, "--backend", "http"]) == 2
    assert capsys.readouterr().err.startswith("error: bad configuration: ")


def test_bad_endpoint_is_refused_before_a_missing_input(tmp_path, capsys):
    argv = ["process", tmp_path / "missing.md", "--backend", "http", "--endpoint", "llm.local/v1"]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad configuration: endpoint 'llm.local/v1'")


def test_flags_replace_config_file_keys_before_the_check(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: built.append(cfg) or MockBackend())
    config = tmp_path / "config.json"
    outs = ["--out", tmp_path / "r.json", "--report-out", tmp_path / "v.json",
            "--metrics-out", tmp_path / "m.json"]
    config.write_text(json.dumps({"backend": "http"}))
    endpoint = ["--endpoint", "http://llm.local/v1"]
    assert run(["process", SAMPLE_BMR, "--config", config, *endpoint, *outs]) == 0
    config.write_text(json.dumps({"backend": "http", "endpoint": "llm.local/v1"}))
    assert run(["process", SAMPLE_BMR, "--config", config, "--mock", *outs]) == 0
    assert [(cfg.backend, cfg.endpoint) for cfg in built] == [
        ("http", "http://llm.local/v1"), ("mock", "llm.local/v1"),
    ]


def test_chunk_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.md"
    src.write_text("")
    assert run(["chunk", src]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_chunk_sample_is_single_chunk(tmp_path):
    out = tmp_path / "chunks.json"
    assert run(["chunk", SAMPLE_BMR, "--out", out]) == 0
    chunks = json.loads(out.read_text())
    assert len(chunks) == 1
    assert chunks[0]["index"] == 0
    assert chunks[0]["token_count"] < 3000


def test_chunk_greedy_packing_case(tmp_path):
    src = tmp_path / "five.md"
    src.write_text("a1 b1. a2 b2. a3 b3. a4 b4. a5 b5.")
    out = tmp_path / "chunks.json"
    assert run(["chunk", src, "--max-tokens", "6", "--out", out]) == 0
    chunks = json.loads(out.read_text())
    assert [c["text"] for c in chunks] == ["a1 b1. a2 b2. a3 b3. ", "a4 b4. a5 b5."]


def test_validate_sample_record():
    assert run(["validate", SAMPLE_RECORD]) == 0


def test_validate_trailing_comma(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"header": 1,}')
    assert run(["validate", bad]) == 1
    assert "JSON_MALFORMED" in capsys.readouterr().out


def test_validate_reports_residue_in_a_string(tmp_path, capsys):
    value = clean_record_json()
    value["steps"][0]["content"][0]["text"] = 'output was new Field(["text"], null)'
    path = tmp_path / "residue.json"
    path.write_text(json.dumps(value))
    assert run(["validate", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(i["code"], i["layer"]) for i in report["issues"]] == [
        ("CODE_SYNTAX_RESIDUE", "syntactic")
    ]


def test_validate_nested_phases(tmp_path, capsys):
    value = clean_record_json()
    value["groups"][0]["phases"] = []
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(value))
    assert run(["validate", path]) == 1
    assert "CLASS_NESTING" in capsys.readouterr().out


def test_validate_nested_type_list(tmp_path, capsys):
    value = clean_record_json()
    value["header"]["name"]["type"] = [["text"]]
    path = tmp_path / "nested_type.json"
    path.write_text(json.dumps(value))
    assert run(["validate", path]) == 1
    assert "BAD_FIELD_TYPE" in capsys.readouterr().out


def test_validate_numeric_limits_without_unit(tmp_path, capsys):
    value = clean_record_json()
    form_field = value["steps"][0]["content"][1]["fields"][0]
    form_field.update(value=None, limits=5)
    del form_field["unit"]
    path = tmp_path / "numeric_limits.json"
    path.write_text(json.dumps(value))
    assert run(["validate", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(i["code"], i["path"]) for i in report["issues"]] == [
        ("BAD_FIELD_TYPE", "steps[0].content[1].fields[0].limits")
    ]


def _ci_records(tmp_path):
    """The records the console-script check validates: the generated record,
    then one with a trailing comma and one with constructor residue in a string."""
    residue = json.loads(SAMPLE_RECORD.read_text(encoding="utf-8"))
    residue["steps"][0]["step_name"]["value"] = "new Field(null)"
    paths = [tmp_path / "JSON_MALFORMED.json", tmp_path / "CODE_SYNTAX_RESIDUE.json"]
    paths[0].write_text('{"header": 1,}')
    paths[1].write_text(json.dumps(residue))
    return [DATA_DIR / "generated_bmr.record.json", *paths]


def test_validate_prints_the_report_of_a_separate_reference_pass(tmp_path, capsys):
    """Parsing once prints what resolving references on one parse and
    validating the raw text with them printed."""
    for path, code in zip(_ci_records(tmp_path), (0, 1, 1)):
        text = path.read_text(encoding="utf-8")
        expected = validate_all(text, refs=refs_for_json(text)).to_json()
        assert run(["validate", path]) == code
        assert capsys.readouterr().out == json.dumps(expected, indent=2, ensure_ascii=False) + "\n"
    committed = (DATA_DIR / "generated_bmr.validation.json").read_text(encoding="utf-8")
    assert run(["validate", DATA_DIR / "generated_bmr.record.json"]) == 0
    assert capsys.readouterr().out == committed


def test_validate_parses_the_record_once(monkeypatch, tmp_path):
    calls = []

    def counting_parse(value):
        calls.append(value)
        return parse_record(value)

    monkeypatch.setattr(validation, "parse_record", counting_parse)
    assert run(["validate", DATA_DIR / "generated_bmr.record.json"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert run(["score", SAMPLE_BMR, SAMPLE_RECORD, "--metrics-out", tmp_path / "m.json"]) == 0
    assert len(calls) == 1


def test_score_identity_fixture(tmp_path, capsys):
    src = tmp_path / "tiny.md"
    src.write_text("Blend the powder slowly. Verify the final seal integrity.")
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {"type": "paragraph", "text": "Blend the powder slowly."},
        {"type": "paragraph", "text": "Verify the final seal integrity."},
    ]
    value["steps"][1]["content"] = []
    record = tmp_path / "tiny.json"
    record.write_text(json.dumps(value))
    metrics_out = tmp_path / "metrics.json"
    assert run(["score", src, record, "--metrics-out", metrics_out]) == 0
    metrics = json.loads(metrics_out.read_text())
    assert metrics["composite"] == 100.0
    assert set(metrics["statuses"].values()) == {"Excellent"}
    assert "Excellent" in capsys.readouterr().out


def test_score_with_one_of_two_calculations_missing(tmp_path):
    src = tmp_path / "calc.md"
    src.write_text(
        "**Calculation:** First\nFormula: A x B\nVariables:\n- A: 1\n\n"
        "**Calculation:** Second\nFormula: C x D\nVariables:\n- C: 2\n"
    )
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {
            "type": "calculation",
            "text": "First Calculation",
            "calculation": {
                "formula": "A x B",
                "variables": [{"name": "A", "description": "A", "value": 1}],
            },
        }
    ]
    value["steps"][1]["content"] = []
    record = tmp_path / "calc.json"
    record.write_text(json.dumps(value))
    metrics_out = tmp_path / "metrics.json"
    assert run(["score", src, record, "--metrics-out", metrics_out]) == 0
    assert json.loads(metrics_out.read_text())["calculation_fidelity"] == 50.0


def test_score_rejects_invalid_record(tmp_path):
    src = tmp_path / "s.md"
    src.write_text("text")
    record = tmp_path / "r.json"
    record.write_text(json.dumps({"groups": []}))
    assert run(["score", src, record]) == 2


def test_score_refuses_residue_in_a_string(tmp_path, capsys):
    value = json.loads(SAMPLE_RECORD.read_text(encoding="utf-8"))
    value["steps"][0]["step_name"]["value"] = "new Field(null)"
    record = tmp_path / "residue.json"
    record.write_text(json.dumps(value))
    metrics_out = tmp_path / "metrics.json"
    assert run(["score", SAMPLE_BMR, record, "--metrics-out", metrics_out]) == 2
    assert "CODE_SYNTAX_RESIDUE: constructor call residue" in capsys.readouterr().err
    assert not metrics_out.exists()


def test_weights_flag_changes_composite(tmp_path):
    metrics_out = tmp_path / "metrics.json"
    code = run(
        [
            "score", SAMPLE_BMR, SAMPLE_RECORD,
            "--metrics-out", metrics_out,
            "--weights", '{"crude_word_coverage": 0.0}',
        ]
    )
    assert code == 0
    assert json.loads(metrics_out.read_text())["composite"] == 100.0


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "backend": "mock",
                "max_tokens": 2500,
                "out": str(tmp_path / "from_config.json"),
                "report_out": str(tmp_path / "v.json"),
                "metrics_out": str(tmp_path / "m.json"),
            }
        )
    )
    override = tmp_path / "override.json"
    code = run(["process", SAMPLE_BMR, "--config", config, "--out", override])
    assert code == 0
    assert override.exists()
    assert not (tmp_path / "from_config.json").exists()


def test_bad_config_file_is_pipeline_failure(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"no_such_key": 1}')
    assert run(["process", SAMPLE_BMR, "--config", config]) == 2


@pytest.mark.parametrize("top_level", ["null", '"x"', "3", "[]"])
def test_config_file_that_is_not_an_object_is_bad_configuration(tmp_path, capsys, top_level):
    config = tmp_path / "config.json"
    config.write_text(top_level)
    assert run(["process", SAMPLE_BMR, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration: ")
    assert "expected a JSON object" in err


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("process", ["--workers", "0"], None),
        ("process", ["--max-tokens", "0"], None),
        ("process", ["--max-attempts", "0"], None),
        ("process", ["--reprocess-threshold", "150"], None),
        ("process", [], {"workers_cap": 0}),
        ("process", [], {"reprocess_threshold": -1}),
        ("process", [], {"timeout": 0}),
        ("process", [], {"transport_retries": -1}),
        ("process", ["--backend", "http", "--endpoint", "llm.local/v1"], None),
        ("process", ["--backend", "http", "--endpoint", "http://llm.local:x/v1"], None),
        ("process", [], {"backend": "http", "endpoint": "ftp://llm.local/v1"}),
        ("process", [], {"backend": "grpc"}),
        ("chunk", ["--max-tokens", "0"], None),
        ("chunk", [], {"hard_split_threshold": 0}),
        ("process", ["--weights", '{"unit_fidelity": NaN}'], None),
        ("process", ["--weights", '{"unit_fidelity": 1e307}'], None),
        ("process", [], {"weights": {"unit_fidelity": float("inf")}}),
        ("process", [], {"weights": {"unit_fidelity": -float("inf")}}),
    ],
    ids=[
        "workers", "max-tokens", "max-attempts", "reprocess-threshold",
        "config-workers", "config-reprocess-threshold", "config-timeout",
        "config-transport-retries", "relative-endpoint", "endpoint-port",
        "config-endpoint-scheme", "config-backend", "chunk-max-tokens",
        "chunk-config-hard-split", "weights-nan", "weights-overflow", "config-weights-infinity",
        "config-weights-negative-infinity",
    ],
)
def test_bad_configuration_exits_2_before_reading_input(
    tmp_path, monkeypatch, capsys, command, flags, config
):
    def no_load(path):
        raise AssertionError("input read despite bad configuration")

    def no_backend(cfg):
        raise AssertionError("backend built despite bad configuration")

    monkeypatch.setattr(cli, "load_markdown", no_load)
    monkeypatch.setattr(cli, "_make_backend", no_backend)
    outs = [tmp_path / name for name in ("r.json", "v.json", "m.json", "s.json")]
    argv = [command, SAMPLE_BMR, *flags, "--out", outs[0]]
    if command == "process":
        argv += ["--report-out", outs[1], "--metrics-out", outs[2], "--summary-out", outs[3]]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv += ["--config", config_path]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad configuration: ")
    assert not any(path.exists() for path in outs)


# --------------------------------------------------------------------------
# Unwritable outputs


@pytest.mark.parametrize(
    "argv",
    [
        ["process", SAMPLE_BMR, "--out", "{missing}/r.json"],
        ["process", SAMPLE_BMR, "--out", "{tmp}/r.json", "--report-out", "{missing}/v.json"],
        ["process", SAMPLE_BMR, "--out", "{tmp}/r.json", "--metrics-out", "{missing}/m.json"],
        ["process", SAMPLE_BMR, "--out", "{tmp}/r.json", "--summary-out", "{missing}/s.json"],
        ["chunk", SAMPLE_BMR, "--out", "{missing}/c.json"],
        ["score", SAMPLE_BMR, SAMPLE_RECORD, "--metrics-out", "{missing}/m.json"],
    ],
    ids=["process-out", "process-report-out", "process-metrics-out", "process-summary-out",
         "chunk-out", "score-metrics-out"],
)
def test_missing_output_directory_exits_2_before_reading_input(tmp_path, monkeypatch, capsys, argv):
    backend = ScriptedBackend([wrap_json(clean_record_json())])
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: backend)
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing"
    argv = [str(a).format(tmp=tmp_path, missing=missing) for a in argv]

    def no_load(path):
        raise AssertionError("input read despite an unwritable output")

    monkeypatch.setattr(cli, "load_markdown", no_load)
    assert run(argv) == 2
    (unwritable,) = [a for a in argv if a.startswith(str(missing))]
    assert capsys.readouterr().err == f"error: cannot write {unwritable}: {missing} is not a directory\n"
    assert backend.calls == 0
    # The outputs a case does not name default to the working directory.
    assert list(tmp_path.iterdir()) == []


def test_failed_write_exits_2_naming_the_path(tmp_path, capsys):
    # A directory passes the check on its parent, and opening it then fails.
    argv = ["process", SAMPLE_BMR, "--mock", "--out", tmp_path,
            "--report-out", tmp_path / "v.json", "--metrics-out", tmp_path / "m.json"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert not (tmp_path / "v.json").exists()


# --------------------------------------------------------------------------
# The JSON encoder and the streamed writer


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


json_strings = st.text(max_size=12) | st.sampled_from(
    ["", "\u2028", "line\nbreak", "tab\there", "\r\n", "é\u00a0漢字", '"quoted\\"', "\x00\x1f"]
)
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | json_strings
    | st.sampled_from([5.0, -0.0, 1e16, 1e-7, 2**64, _Str("sub\nclass é"), _Int(7), _Float(2.5)])
)
# Keys json.dumps converts: numbers, booleans and null are written quoted.
json_keys = json_strings | st.integers() | st.floats() | st.booleans() | st.none() | st.just(_Str("k"))
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=2).map(tuple)
        | st.dictionaries(json_keys, inner, max_size=4)
    ),
    max_leaves=25,
)
top_level = st.lists(json_values, max_size=5) | st.dictionaries(json_keys, json_values, max_size=5)


def written(value, pad=""):
    pieces = []
    write_json(value, pieces.append, pad)
    return "".join(pieces)


def assert_written_as_json_dumps(path, value):
    expected = json.dumps(value, indent=2, ensure_ascii=False) + "\n"
    assert written(value) + "\n" == expected
    # Every raw newline of the text is a line break: strings escape theirs.
    assert written(value, "    ") == expected[:-1].replace("\n", "\n    ")
    cli._write_json(str(path), value)
    assert path.read_bytes() == expected.encode("utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        cli._write_json(None, value)
    assert stdout.getvalue() == expected


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(top_level)
def test_write_json_matches_json_dumps(tmp_path, value):
    assert_written_as_json_dumps(tmp_path / "out.json", value)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_write_json_matches_json_dumps_on_any_value(value):
    assert written(value) == json.dumps(value, indent=2, ensure_ascii=False)


extra_members = st.dictionaries(json_strings.map(lambda key: "x_" + key), json_values, max_size=3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(extra_members, extra_members)
def test_write_json_matches_json_dumps_on_records_with_extra_members(tmp_path, top, step):
    value = clean_record_json()
    value.update(top)
    value["steps"][0].update(step)
    record = parse_record(value)
    assert record.extra.keys() == top.keys() and record.steps[0].extra.keys() == step.keys()
    assert_written_as_json_dumps(tmp_path / "record.json", serialize_record(record))


def test_process_writes_record_and_report_as_json_dumps(tmp_path, monkeypatch):
    bad = clean_record_json()
    bad["steps"][0]["phase_id"] = "phase-9"
    bad["steps"][0]["x_note"] = "first line\nsecond line\u2028"
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: ScriptedBackend([wrap_json(bad)]))
    outs = [tmp_path / name for name in ("r.json", "v.json", "m.json", "s.json")]
    argv = ["process", SAMPLE_BMR, "--out", outs[0], "--report-out", outs[1],
            "--metrics-out", outs[2], "--summary-out", outs[3]]
    assert run(argv) == 1
    for path in outs:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
    assert json.loads(outs[0].read_text())["steps"][0]["x_note"] == bad["steps"][0]["x_note"]
    assert json.loads(outs[1].read_text())["issues"]


@pytest.fixture(scope="module")
def large_record(mock_large_text):
    """The mock's record of seed-1 document 0 of perfbench's mock-large corpus."""
    return serialize_record(extract_markdown_record(mock_large_text))


def test_write_json_peak_memory_is_below_the_output_size(tmp_path, large_record):
    """Writing a 50k-word record holds one member's text at a time; encoding it
    whole held several copies of the output."""
    out = tmp_path / "record.json"
    tracemalloc.start()
    try:
        cli._write_json(str(out), large_record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 500_000
    assert peak < size


# One piece of the streamed text: a member, that is an optional separator and
# indent, an optional key and at most one scalar; or a container's close.
_STRING = r'"(?:[^"\\]|\\.)*"'
_MEMBER_PIECE_RE = re.compile(
    r'(?:[\[{,]\n *)?(?:%s: )?(?:%s|[-+.\w]*)|\n *[\]}]|\[\]|\{\}' % (_STRING, _STRING)
)


def test_write_json_passes_one_member_at_a_time(monkeypatch, large_record):
    """No piece of the 50k-word record holds more than one member, so neither
    a step's text nor an issue's is ever built whole."""
    pieces = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=pieces.append))
    cli._write_json(None, large_record)
    assert pieces.pop() == "\n"
    assert "".join(pieces) == json.dumps(large_record, indent=2, ensure_ascii=False)
    assert len(pieces) > 10_000
    assert [piece for piece in pieces if not _MEMBER_PIECE_RE.fullmatch(piece)] == []


@pytest.mark.parametrize(
    "source",
    [
        "sample_bmr.md", "generated_bmr.md", "period_free_bmr.md",
        # One seed-1 corpus document of each perfbench workload's size.
        pytest.param((1000, 3000), id="mock-small"),
        pytest.param((11000, 13000), id="http-latency"),
        pytest.param((49500, 50500), id="mock-large"),
    ],
)
def test_mock_reply_is_the_record_as_json_dumps(source):
    """perfbench's stub server sends this reply and sets its simulated model
    delay per character of it, so the bytes must not move."""
    if isinstance(source, str):
        text = (DATA_DIR / source).read_text(encoding="utf-8")
    else:
        text = perfbench_corpus().generate(1, 0, *source).text
    prompt = build_prompt(Chunk(index=0, text=text, token_count=0), 1)
    payload = serialize_record(extract_markdown_record(text))
    expected = "<json>\n" + json.dumps(payload, indent=2, ensure_ascii=False) + "\n</json>"
    assert MockBackend().complete(prompt, "bmr-extractor", {}) == expected


def test_process_keeps_undeclared_members_of_every_level(tmp_path, monkeypatch):
    reply = clean_record_json()
    reply["x_top"] = {"kept": [1, "a"]}
    reply["header"]["x_head"] = "header note"
    reply["steps"][0]["x_step"] = 3
    monkeypatch.setattr(cli, "_make_backend", lambda cfg: ScriptedBackend([wrap_json(reply)]))
    out = tmp_path / "record.json"
    run(["process", SAMPLE_BMR, "--out", out, "--report-out", tmp_path / "v.json",
         "--metrics-out", tmp_path / "m.json"])
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["x_top"] == {"kept": [1, "a"]}
    assert record["header"]["x_head"] == "header note"
    assert record["steps"][0]["x_step"] == 3
