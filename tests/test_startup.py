"""Start-up cost: ``requests`` is loaded only when an HTTP backend is built.

Each test runs a fresh interpreter, since this process has long since
imported ``requests`` through the HTTP backend tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SAMPLE_BMR, SAMPLE_RECORD

SRC = Path(__file__).resolve().parents[1] / "src"


def requests_loaded_after(code: str, *args: str) -> bool:
    """Run ``code`` in a fresh interpreter; report whether it loaded requests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code += "\nimport sys\nprint('requests' in sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


# Runs cli.main on the JSON argv in sys.argv[1]; an exit code outside 0/1
# means the command failed before it could do its work.
CLI_MAIN = """
import json, sys
from bmrkit import cli
assert cli.main(json.loads(sys.argv[1])) in (0, 1)
"""


def test_import_does_not_load_requests():
    assert not requests_loaded_after("import bmrkit, bmrkit.cli")


@pytest.mark.parametrize(
    "argv",
    [
        ["process", SAMPLE_BMR, "--mock", "--out", "{tmp}/r.json",
         "--report-out", "{tmp}/v.json", "--metrics-out", "{tmp}/m.json"],
        ["validate", SAMPLE_RECORD],
        ["score", SAMPLE_BMR, SAMPLE_RECORD, "--metrics-out", "{tmp}/m.json"],
        ["chunk", SAMPLE_BMR],
    ],
    ids=["process-mock", "validate", "score", "chunk"],
)
def test_commands_without_http_backend_do_not_load_requests(argv, tmp_path):
    argv = [str(a).format(tmp=tmp_path) for a in argv]
    assert not requests_loaded_after(CLI_MAIN, json.dumps(argv))


def test_building_http_backend_loads_requests():
    code = """
from bmrkit import cli
cli._make_backend(cli.PipelineConfig(backend="http", endpoint="http://127.0.0.1:9/v1"))
"""
    assert requests_loaded_after(code)
