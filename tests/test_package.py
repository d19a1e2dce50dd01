from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator

import pytest

import drckit

from conftest import disambiguation_split, write_corpus_dir


def test_every_public_name_is_its_modules_object():
    assert sorted(drckit.__all__) == sorted(drckit._MODULE_OF)
    for name in drckit.__all__:
        module = importlib.import_module(f"drckit.{drckit._MODULE_OF[name]}")
        assert getattr(drckit, name) is getattr(module, name), name
    assert set(drckit.__all__) <= set(dir(drckit))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from drckit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(drckit.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        drckit.no_such_name


def test_readme_library_use_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    [snippet] = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
    write_corpus_dir(tmp_path / "data" / "scidtb",
                     {"test": disambiguation_split(2, "te")})
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(snippet, namespace)
    assert namespace["dataset"].scheme.tag == "OR1"
    assert len(namespace["dataset"].instances) == 8


# drckit's modules, lowest first: a module imports only those below it.
STACK = ("fields", "config", "endpoint", "treebank", "context", "analysis", "inference",
         "evaluation", "commands", "cli")
SRC = Path(drckit.__file__).parent


def drckit_imports(nodes: Iterable[ast.AST]) -> Iterator[str]:
    """The drckit modules that ``nodes`` import when they run, at any depth;
    an ``if TYPE_CHECKING:`` block never runs."""
    for node in nodes:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from drckit_imports(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .x import y" names one module; "from . import x, y" may name some.
            yield from [node.module] if node.module else \
                [alias.name for alias in node.names if alias.name in STACK]
        yield from drckit_imports(ast.iter_child_nodes(node))


def module_imports(name: str) -> list[str]:
    return list(drckit_imports(ast.parse((SRC / f"{name}.py").read_bytes()).body))


def test_every_module_imports_only_the_modules_below_it():
    assert sorted(path.stem for path in SRC.glob("*.py")) == sorted({*STACK, "__init__"})
    upward = [f"{name} -> {target}" for name in STACK for target in module_imports(name)
              if STACK.index(target) >= STACK.index(name)]
    assert upward == []


def test_endpoint_imports_only_config_and_fields():
    assert set(module_imports("endpoint")) == {"config", "fields"}


def test_error_of_a_single_step_command_loads_only_the_layers_it_ran(tmp_path):
    # python -m runs cli.py as __main__: no module may import it again as
    # drckit.cli, and sorting an error loads no layer the call did not.
    missing = tmp_path / "missing"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "drckit.cli", "validate", missing],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    stderr = [line for line in proc.stderr.splitlines()
              if not line.startswith("import time:")]
    assert (proc.returncode, proc.stdout) == (1, "")
    assert stderr == [f"error: [Errno 2] No such file or directory: '{missing}'"]
    assert {"drckit", "drckit.commands"} <= imported
    assert not {f"drckit.{name}" for name in
                ("cli", "endpoint", "inference", "analysis", "context")} & imported
