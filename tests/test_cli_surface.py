"""The CLI's surface: stdout, stderr and exit code of calls that run no
pipeline step (help, version, usage errors), against goldens.

The goldens hold what these calls printed before the CLI built only the
subparser it runs.  To write them again from the drckit sources in SRC:
``python tests/test_cli_surface.py SRC``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "goldens" / "cli_surface.json"
COMMANDS = ("ingest", "validate", "stats", "variants", "infer", "evaluate", "compare",
            "analyze", "experiment")
CASES = [
    [], ["-h"], ["--version"], ["-v"], ["bogus"], ["--", "experiment"],
    *([command, *tail] for command in COMMANDS for tail in (["-h"], [], ["--bogus"])),
    ["-v", "validate", "missing"], ["-v", "experiment", "--config", "missing.json"],
    ["experiment", "--config", "x", "--bogus"],
    # Tokens before the command that are not -v, --verbose or --version.
    ["-h", "experiment"], ["--version", "experiment"], ["-1", "experiment"],
    ["-", "experiment"], ["--bogus", "experiment", "--config", "x"],
    ["--verb", "experiment"], ["-v", "-h"], ["experiment", "-v"],
    ["infer", "--dataset", "d", "--train", "t", "--backend", "bogus", "--out", "o"],
]


def call(argv: list[str], cwd: Path, src: Path = ROOT / "src") -> dict:
    """stdout, stderr and exit code of ``drckit argv`` run from the sources
    in ``src`` in a fresh interpreter, with help wrapped at 80 columns."""
    code = "import sys; from drckit.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "COLUMNS": "80", "PYTHONPATH": str(src)})
    return {"argv": argv, "code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def test_cli_surface_matches_its_goldens(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["python"] != python_version():
        pytest.skip(f"argparse's wording differs between Python versions; the "
                    f"goldens were written under {golden['python']}")
    assert [case["argv"] for case in golden["cases"]] == CASES
    for case in golden["cases"]:
        assert call(case["argv"], tmp_path) == case


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as cwd:
        cases = [call(argv, Path(cwd), Path(sys.argv[1]).resolve()) for argv in CASES]
    GOLDEN.write_text(json.dumps({"python": python_version(), "cases": cases},
                                 indent=1) + "\n", encoding="utf-8")
