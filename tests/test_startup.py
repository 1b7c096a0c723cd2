"""Start-up cost: the HTTP backend's transport, ``http.client`` and the
``ssl`` it loads, is imported only when that backend is built, and building it
loads nothing outside the standard library, ``requests`` included.

Each test runs a fresh interpreter, since this process has long since
imported ``http.client`` through the HTTP backend tests.
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
TRANSPORT_MODULES = ("http.client", "ssl")
# What the commands without an HTTP backend must not load: the transport, and
# requests, the dependency that it replaced.
HTTP_MODULES = {*TRANSPORT_MODULES, "requests"}


def modules_loaded_by(code: str, *args: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; the modules it loaded after it last
    set ``since``, which the start of ``code`` sets, so that interpreter
    start-up's own imports do not count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import sys\nsince = set(sys.modules)\n{code}\n" + (
        "print('--')\nprint('\\n'.join(set(sys.modules) - since))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.rpartition("--\n")[2].split())


# Runs cli.main on the JSON argv in sys.argv[1]; an exit code outside 0/1
# means the command failed before it could do its work.
CLI_MAIN = """
import json, sys
from bmrkit import cli
assert cli.main(json.loads(sys.argv[1])) in (0, 1)
"""


def test_import_does_not_load_requests():
    assert not modules_loaded_by("import bmrkit, bmrkit.cli") & HTTP_MODULES


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
    assert not modules_loaded_by(CLI_MAIN, json.dumps(argv)) & HTTP_MODULES


def test_building_http_backend_loads_only_the_standard_library():
    code = """
from bmrkit import cli
since = set(sys.modules)
for endpoint in ("http://127.0.0.1:9/v1", "https://127.0.0.1:9/v1"):
    cli._make_backend(cli.PipelineConfig(backend="http", endpoint=endpoint))
"""
    loaded = modules_loaded_by(code)
    assert set(TRANSPORT_MODULES) <= loaded
    assert {name.partition(".")[0] for name in loaded} <= sys.stdlib_module_names
