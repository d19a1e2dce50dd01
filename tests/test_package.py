from __future__ import annotations

import importlib
import re
from pathlib import Path

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
