"""One JSON reader: every JSON input drckit reads goes through
``drckit.fields``, so each rejects an undecodable input as its format's
documented error, never with a traceback."""

from __future__ import annotations

import json
import logging
import re
from pathlib import Path

import pytest

from drckit import endpoint

from conftest import disambiguation_split, write_corpus_dir
from test_cli import experiment_config, run_cli

SRC = Path(__file__).resolve().parents[1] / "src" / "drckit"

# Each is a whole file, or one line of a JSONL file, that holds no JSON value.
FAULTS = {
    "nested_too_deeply": (b"[" * 100_000, "maximum recursion depth exceeded"),
    "not_utf8": (b'{"text": "\xff"}', "can't decode byte 0xff"),
}

REPLY = json.dumps({"choices": [{"message": {"content": "joint"}}]}).encode()


@pytest.fixture
def files(tmp_path, monkeypatch):
    """A corpus, its default variants, a majority run and its report; every
    endpoint request gets ``REPLY``."""
    monkeypatch.setattr(endpoint, "_post", lambda *args: (200, REPLY))
    corpus = write_corpus_dir(tmp_path / "corpus", {
        "train": disambiguation_split(2, "tr"), "test": disambiguation_split(2, "te")})
    for split in ("train", "test"):
        assert run_cli("variants", corpus, "--scheme", "default", "--split", split,
                       "--out", tmp_path / f"{split}.jsonl") == 0
    assert run_cli("infer", "--dataset", tmp_path / "test.jsonl",
                   "--train", tmp_path / "train.jsonl", "--backend", "majority",
                   "--out", tmp_path / "preds") == 0
    assert run_cli("evaluate", "--dataset", tmp_path / "test.jsonl",
                   "--predictions", tmp_path / "preds" / "default+majority.run0.jsonl",
                   "--out", tmp_path / "reports") == 0
    return tmp_path


def replace_line(path: Path, line: bytes) -> Path:
    lines = path.read_bytes().split(b"\n")
    lines[1] = line
    path.write_bytes(b"\n".join(lines))
    return path


def endpoint_infer(root: Path) -> int:
    return run_cli("infer", "--dataset", root / "test.jsonl",
                   "--train", root / "train.jsonl", "--backend", "endpoint",
                   "--base-url", "http://127.0.0.1:9", "--out", root / "endpoint")


# Each reader: (exit code, what its output holds) after ``bad`` reaches it.
def tree_document(root, bad, monkeypatch):
    (root / "corpus" / "train" / "a.dep").write_bytes(bad)
    return run_cli("validate", root / "corpus"), "a\tparse-error\tmalformed document: "


def config(root, bad, monkeypatch):
    path = root / "experiment.json"
    path.write_bytes(bad)
    return (run_cli("experiment", "--config", path),
            f"config error: {path}: malformed JSON: ")


def manifest(root, bad, monkeypatch):
    path = experiment_config(root, root / "corpus", [{"kind": "majority"}],
                             schemes=("default",), seeds=[1])
    assert run_cli("experiment", "--config", path) == 0
    (root / "out" / "manifest.json").write_bytes(bad)
    code = run_cli("experiment", "--config", path)
    stages = json.loads((root / "out" / "manifest.json").read_bytes())["stages"]
    assert stages and not any(entry["reused"] for entry in stages.values())
    return code, f"{root / 'out' / 'manifest.json'} is not a run manifest, " \
                 "so every stage runs again: "


def variant(root, bad, monkeypatch):
    path = replace_line(root / "test.jsonl", bad)
    return (run_cli("evaluate", "--dataset", path, "--predictions",
                    root / "preds" / "default+majority.run0.jsonl",
                    "--out", root / "reports"),
            f"error: {path}:2: malformed record: ")


def prediction(root, bad, monkeypatch):
    path = replace_line(root / "preds" / "default+majority.run0.jsonl", bad)
    return (run_cli("evaluate", "--dataset", root / "test.jsonl",
                    "--predictions", path, "--out", root / "reports"),
            f"error: {path}:2: malformed record: ")


def endpoint_log(root, bad, monkeypatch):
    path = root / "endpoint" / "logs" / "default+endpoint.run0.log.jsonl"
    path.parent.mkdir(parents=True)
    path.write_bytes(bad + b"\n")
    return endpoint_infer(root), f"error: {path}:1: malformed record: "


def report(root, bad, monkeypatch):
    path = root / "reports" / "default+majority.run0.report.json"
    good = root / "good.report.json"
    good.write_bytes(path.read_bytes())
    path.write_bytes(bad)
    return (run_cli("compare", "--reports-a", path, "--reports-b", good, "--m", "1"),
            f"error: {path}: malformed report: ")


def endpoint_reply(root, bad, monkeypatch):
    sent = []
    monkeypatch.setattr(endpoint, "_post", lambda *args: sent.append(1) or (200, bad))
    code = endpoint_infer(root)
    assert len(sent) == 1  # the first malformed reply stops the run
    return code, "endpoint error: aborted with 0/"


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reader, exit_code", [
    (tree_document, 1), (config, 2), (manifest, 0), (variant, 1),
    (prediction, 1), (endpoint_log, 1), (report, 1), (endpoint_reply, 3)],
    ids=lambda value: getattr(value, "__name__", str(value)))
def test_every_json_reader_rejects_an_undecodable_input(files, capsys, caplog,
                                                        monkeypatch, reader,
                                                        exit_code, fault):
    bad, detail = FAULTS[fault]
    capsys.readouterr()
    with caplog.at_level(logging.WARNING):
        code, names = reader(files, bad, monkeypatch)
    captured = capsys.readouterr()
    shown = captured.out + captured.err + caplog.text
    assert code == exit_code
    assert names in shown
    if reader is not endpoint_reply:  # the reply's fault is the abort's cause
        assert detail in shown[shown.index(names):]


def test_only_the_reader_decodes_json():
    # A module that decodes JSON itself skips the checks every input gets.
    pattern = re.compile(r"json\.loads?\b|import[^\n]*\bloads?\b|JSONDecoder"
                         r"|RecursionError")
    offenders = sorted(path.name for path in SRC.glob("*.py")
                       if path.name != "fields.py" and pattern.search(path.read_text()))
    assert offenders == []


def test_no_module_imports_dataclasses():
    # Records are NamedTuples: a dataclass generates its methods with exec and
    # loads inspect, a cost every CLI call would pay.
    pattern = re.compile(r"^\s*(?:import|from)\s+dataclasses\b", re.MULTILINE)
    assert sorted(path.name for path in SRC.glob("*.py")
                  if pattern.search(path.read_text())) == []


@pytest.mark.parametrize("records, detail", [
    ([{"id": 0, "parent": -1, "relation": "null", "text": "R"},
      {"id": 1, "parent": 0, "relation": "ROOT", "text": "a ."},
      {"id": 2, "relation": "joint", "text": "b ."}],
     "root: [2]: missing field 'parent'"),
    ([{"id": 0, "parent": -1, "relation": "null", "text": "R"}, "x"],
     "root: [1] 'x' is not an EDU record"),
    ([{"id": 0, "parent": -1, "relation": "null", "text": "R"},
      {"id": 1, "parent": True, "relation": "ROOT", "text": "a ."}],
     "root: [1]: parent True is not an integer"),
])
def test_a_list_element_is_named_by_its_index(records, detail):
    from drckit.treebank import TreeValidationError, parse_tree_document
    with pytest.raises(TreeValidationError) as info:
        parse_tree_document(json.dumps({"root": records}), "doc")
    [violation] = info.value.violations
    assert (violation.code, violation.detail) == \
        ("parse-error", f"malformed document: {detail}")


def test_a_config_list_element_is_named_by_its_index():
    from drckit.config import CONFIG_FIELDS, ConfigError, check_config
    with pytest.raises(ConfigError) as info:
        check_config({"seeds": [1, "2"]}, {"seeds": CONFIG_FIELDS["seeds"]}, "cfg")
    assert str(info.value) == "cfg: seeds: [1] '2' is not an integer"
