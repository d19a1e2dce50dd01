from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from drckit import (cli, config as config_module, context, evaluation, inference,
                    treebank)
from drckit.analysis import (RelationMargin, analyze_pair, default_lexicon,
                             write_margins_tsv)
from drckit.cli import main
from drckit.config import RunManifest, Stage
from drckit.context import (
    ContextScheme,
    RenderedInstance,
    VariantDataset,
    build_variant_dataset,
    read_variant_dataset,
)
from drckit.inference import PredictionSet, write_predictions
from drckit.treebank import load_corpus

from conftest import (
    MockChatServer,
    assert_fault_reported,
    chain_records,
    disambiguation_records,
    disambiguation_split,
    gold_echo_behavior,
    write_corpus_dir,
    write_doc,
)
from oracles import one_pass_walk, paired_outcomes, relation_tallies


@pytest.fixture
def small_corpus_dir(tmp_path: Path) -> Path:
    root = tmp_path / "corpus"
    write_corpus_dir(root, {
        "train": disambiguation_split(5, "tr"),
        "test": disambiguation_split(3, "te"),
    })
    return root


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def experiment_config(tmp_path: Path, corpus_dir: Path, backends,
                      schemes=("default", "OR1"), seeds=None, m=1) -> Path:
    config = {
        "schema_version": 1,
        "corpus": {"name": "disamb", "dir": str(corpus_dir)},
        "schemes": list(schemes),
        "backends": backends,
        "seeds": seeds or list(range(1, 11)),
        "bonferroni_m": m,
        "alpha": 0.05,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def test_ingest_valid_corpus(small_corpus_dir, tmp_path, capsys):
    code = run_cli("ingest", small_corpus_dir, "--out", tmp_path / "store")
    out = capsys.readouterr().out
    assert code == 0
    assert "0 violations" in out
    assert (tmp_path / "store" / "corpus" / "train").is_dir()
    report = tmp_path / "store" / "corpus" / "validation.tsv"
    assert report.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("name", ["../escaped", ".."])
def test_ingest_name_that_leaves_its_out_dir_exits_2(small_corpus_dir, tmp_path,
                                                     capsys, name):
    store = tmp_path / "store" / "nested"
    assert run_cli("ingest", small_corpus_dir, "--name", name, "--out", store) == 2
    assert f"config error: ingest: --name: {name!r} is not" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [small_corpus_dir]


def test_ingest_reports_cyclic_document(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_doc(root / "train", "fine", chain_records(3))
    write_doc(root / "train", "loopy", [
        (0, -1, "null", "ROOT"),
        (1, 0, "ROOT", "one ."),
        (2, 3, "joint", "two ."),
        (3, 2, "joint", "three ."),
    ])
    code = run_cli("ingest", root)
    captured = capsys.readouterr()
    assert code == 1
    assert "loopy" in captured.err
    assert "cycle" in captured.err


def test_ingest_lenient_downgrades_exit(tmp_path):
    root = tmp_path / "corpus"
    write_doc(root / "train", "bad", [(0, -1, "null", "ROOT"),
                                      (1, 9, "ROOT", "one .")])
    assert run_cli("ingest", root) == 1
    assert run_cli("ingest", root, "--lenient") == 0


def test_validate_prints_report_lines(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_doc(root / "dev", "selfy", [(0, -1, "null", "ROOT"),
                                      (1, 0, "ROOT", "one ."),
                                      (2, 2, "joint", "two .")])
    code = run_cli("validate", root)
    out = capsys.readouterr().out
    assert code == 1
    assert "selfy\tself-loop\tself-loop at id 2" in out


def test_stats_single_edge(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_doc(root / "test", "tiny", chain_records(2))
    assert run_cli("stats", root) == 0
    out = capsys.readouterr().out
    assert "100.0%" in out


def test_stats_counted_fixture(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_doc(root / "test", "chain", chain_records(6))
    star = [(0, -1, "null", "ROOT"), (1, 0, "ROOT", "hub .")]
    star += [(i, 1, "elaboration", f"spoke {i} .") for i in range(2, 7)]
    write_doc(root / "test", "star", star)
    run_cli("stats", root)
    out = capsys.readouterr().out
    assert "60.0%" in out     # adjacent
    assert "30.0%" in out     # gaps of 3..5


def test_variants_writes_dataset(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "variants" / "or1.test.jsonl"
    code = run_cli("variants", small_corpus_dir, "--scheme", "OR1",
                   "--split", "test", "--out", out)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    # 3 docs per label, 2 labels, 2 instances per doc (3 real EDUs each)
    assert len(lines) == 3 * 2 * 2
    assert "wrote" in capsys.readouterr().out


def test_variants_reads_only_the_split_it_renders(small_corpus_dir, tmp_path):
    (small_corpus_dir / "train" / "broken.dep").write_text("{not json",
                                                           encoding="utf-8")
    out = tmp_path / "or1.test.jsonl"
    assert run_cli("variants", small_corpus_dir, "--scheme", "OR1",
                   "--split", "test", "--out", out) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3 * 2 * 2


def test_evaluate_null_predicted_label_exits_1_naming_path_and_line(
        small_corpus_dir, tmp_path):
    variant = tmp_path / "default.test.jsonl"
    assert run_cli("variants", small_corpus_dir, "--scheme", "default",
                   "--split", "test", "--out", variant) == 0
    preds = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet("c", 1, read_variant_dataset(variant)
                                    .gold_labels()), preds)
    lines = preds.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "predicted_label": None})
    preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "drckit.cli", "evaluate", "--dataset", variant,
         "--predictions", preds, "--out", tmp_path / "reports"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 1
    assert f"error: {preds}:2: malformed record: predicted_label None" \
        in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fault", ["not_utf8", "repeated_id"])
def test_evaluate_bad_byte_or_repeated_id_exits_1_naming_path_and_line(
        small_corpus_dir, tmp_path, capsys, fault):
    variant = tmp_path / "default.test.jsonl"
    assert run_cli("variants", small_corpus_dir, "--scheme", "default",
                   "--split", "test", "--out", variant) == 0
    preds = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet("c", 1, read_variant_dataset(variant)
                                    .gold_labels()), preds)
    if fault == "not_utf8":
        path, lineno, detail = preds, 2, "malformed record: 'utf-8' codec"
        lines = preds.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"condition": "c"', b'"condition": "\xff"')
    else:
        path, lineno, detail = variant, 3, "duplicate instance_id"
        lines = variant.read_bytes().split(b"\n")
        lines.insert(2, lines[1])
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli("evaluate", "--dataset", variant, "--predictions", preds,
                   "--out", tmp_path / "reports") == 1
    assert f"error: {path}:{lineno}: {detail}" in capsys.readouterr().err


def test_infer_evaluate_compare_analyze_flow(small_corpus_dir, tmp_path, capsys):
    variants = tmp_path / "variants"
    for scheme in ("default", "OR1"):
        for split in ("train", "test"):
            assert run_cli("variants", small_corpus_dir, "--scheme", scheme,
                           "--split", split,
                           "--out", variants / f"{scheme}.{split}.jsonl") == 0

    preds = tmp_path / "preds"
    for scheme in ("default", "OR1"):
        assert run_cli("infer", "--dataset", variants / f"{scheme}.test.jsonl",
                       "--train", variants / f"{scheme}.train.jsonl",
                       "--backend", "cue", "--seeds", "1", "2", "3",
                       "--out", preds / scheme) == 0

    reports = tmp_path / "reports"
    for scheme in ("default", "OR1"):
        pred_files = sorted((preds / scheme).glob("*.jsonl"))
        assert len(pred_files) == 3
        assert run_cli("evaluate", "--dataset", variants / f"{scheme}.test.jsonl",
                       "--predictions", *pred_files,
                       "--out", reports / scheme) == 0

    capsys.readouterr()
    code = run_cli("compare",
                   "--reports-a", *sorted((reports / "OR1").glob("*.json")),
                   "--reports-b", *sorted((reports / "default").glob("*.json")),
                   "--m", "1")
    assert code == 0
    out = capsys.readouterr().out
    assert "OR1+cue vs default+cue" in out

    analysis = tmp_path / "analysis"
    code = run_cli("analyze", "--dataset", variants / "default.test.jsonl",
                   "--preds-a", *sorted((preds / "default").glob("*.jsonl")),
                   "--preds-b", *sorted((preds / "OR1").glob("*.jsonl")),
                   "--out", analysis)
    assert code == 0
    assert (analysis / "margins.tsv").exists()
    assert (analysis / "connectives.tsv").exists()
    margins = (analysis / "margins.tsv").read_text(encoding="utf-8")
    assert "winning" in margins


def infer_endpoint(small_corpus_dir, tmp_path, *options) -> int:
    """``drckit infer`` with the endpoint backend on the default scheme."""
    variants = tmp_path / "variants"
    for split in ("train", "test"):
        assert run_cli("variants", small_corpus_dir, "--scheme", "default",
                       "--split", split,
                       "--out", variants / f"{split}.jsonl") == 0
    return run_cli("infer", "--dataset", variants / "test.jsonl",
                   "--train", variants / "train.jsonl", "--backend", "endpoint",
                   "--out", tmp_path / "preds", *options)


def test_infer_base_url_without_scheme_exits_2(small_corpus_dir, tmp_path,
                                               capsys):
    assert infer_endpoint(small_corpus_dir, tmp_path,
                          "--base-url", "127.0.0.1:9") == 2
    assert "config error: endpoint option base_url" in capsys.readouterr().err
    assert not (tmp_path / "preds").exists()


@pytest.mark.parametrize("url", ["http://127.0.0.1:9/v1?api-version=1",
                                 "http://127.0.0.1:9/v1#frag",
                                 "http://user:pw@127.0.0.1:9/v1"])
def test_infer_base_url_with_query_fragment_or_user_info_exits_2(
        small_corpus_dir, tmp_path, capsys, url):
    # Each was once accepted, and then posted to /v1 or sent no credentials.
    assert infer_endpoint(small_corpus_dir, tmp_path, "--base-url", url) == 2
    assert "config error: endpoint option base_url" in capsys.readouterr().err
    assert not (tmp_path / "preds").exists()


def test_infer_endpoint_without_base_url_exits_2(small_corpus_dir, tmp_path,
                                                  capsys):
    # It once ended in a TypeError traceback from EndpointConfig (exit 1).
    assert infer_endpoint(small_corpus_dir, tmp_path) == 2
    assert "config error: endpoint option missing field 'base_url'" \
        in capsys.readouterr().err
    assert not (tmp_path / "preds").exists()


def test_infer_condition_with_slash_exits_2(small_corpus_dir, tmp_path, capsys):
    variants = tmp_path / "variants"
    for split in ("train", "test"):
        assert run_cli("variants", small_corpus_dir, "--scheme", "default",
                       "--split", split, "--out", variants / f"{split}.jsonl") == 0
    assert run_cli("infer", "--dataset", variants / "test.jsonl",
                   "--train", variants / "train.jsonl", "--backend", "cue",
                   "--condition", "a/b", "--out", tmp_path / "preds") == 2
    assert "config error: infer: condition: 'a/b'" in capsys.readouterr().err
    assert not (tmp_path / "preds").exists()


def test_infer_endpoint_options_default_on_endpoint_config(small_corpus_dir,
                                                           tmp_path):
    with MockChatServer(lambda payload, index: (200, "condition")) as server:
        assert infer_endpoint(small_corpus_dir, tmp_path,
                              "--base-url", server.base_url) == 0
        models = {p["model"] for p in server.payloads}
    assert models == {"gpt-4"}  # EndpointConfig's default model
    assert len(list((tmp_path / "preds").glob("*.jsonl"))) == 1


def test_analyze_pairs_runs_by_run_id(small_corpus_dir, tmp_path, capsys):
    dataset = tmp_path / "default.test.jsonl"
    assert run_cli("variants", small_corpus_dir, "--scheme", "default",
                   "--split", "test", "--out", dataset) == 0
    gold = read_variant_dataset(dataset).gold_labels()
    wrong = {i: "contrast" if g == "condition" else "condition"
             for i, g in gold.items()}
    # Run 1 is right everywhere and run 2 wrong everywhere, on both sides,
    # so pairing by run id ties every instance.  The A file names sort
    # against the run ids, so pairing by file position would not.
    files = {"a-x.jsonl": ("A", 2, wrong), "a-y.jsonl": ("A", 1, gold),
             "b-1.jsonl": ("B", 1, gold), "b-2.jsonl": ("B", 2, wrong),
             "b-3.jsonl": ("B", 3, wrong)}
    for name, (condition, run_id, records) in files.items():
        write_predictions(PredictionSet(condition, run_id, records),
                          tmp_path / name)
    capsys.readouterr()
    code = run_cli("analyze", "--dataset", dataset,
                   "--preds-a", tmp_path / "a-x.jsonl", tmp_path / "a-y.jsonl",
                   "--preds-b", tmp_path / "b-1.jsonl", tmp_path / "b-2.jsonl",
                   "--out", tmp_path / "analysis")
    assert code == 0
    out = capsys.readouterr().out
    assert "condition: delta=0 (tied; 0W/0L/6T)" in out
    assert "contrast: delta=0 (tied; 0W/0L/6T)" in out

    code = run_cli("analyze", "--dataset", dataset,
                   "--preds-a", tmp_path / "a-x.jsonl", tmp_path / "a-y.jsonl",
                   "--preds-b", tmp_path / "b-1.jsonl", tmp_path / "b-3.jsonl",
                   "--out", tmp_path / "analysis")
    assert code == 1
    assert "A has [1, 2], B has [1, 3]" in capsys.readouterr().err


def mixed_run_sets(corpus_dir: Path, tmp_path: Path, directory: str,
                   suffix: str) -> tuple[list[Path], list[Path]]:
    """Set A holds a run of default+cue and one of default+majority, set B
    OR1+cue's two runs: files an experiment wrote under ``out/<directory>``."""
    config = experiment_config(tmp_path, corpus_dir, seeds=[1, 2], m=2,
                               backends=[{"kind": "cue"}, {"kind": "majority"}])
    assert run_cli("experiment", "--config", config) == 0
    files = tmp_path / "out" / directory
    set_a = [files / f"default+cue.run1{suffix}",
             files / f"default+majority.run2{suffix}"]
    return set_a, [files / f"OR1+cue.run{seed}{suffix}" for seed in (1, 2)]


def test_analyze_rejects_a_prediction_set_of_two_conditions(small_corpus_dir,
                                                            tmp_path, capsys):
    set_a, set_b = mixed_run_sets(small_corpus_dir, tmp_path, "predictions", ".jsonl")
    capsys.readouterr()
    dataset = tmp_path / "out" / "variants" / "disamb.default.test.jsonl"
    assert run_cli("analyze", "--dataset", dataset, "--preds-a", *set_a,
                   "--preds-b", *set_b, "--out", tmp_path / "analysis") == 1
    assert capsys.readouterr() == ("", "error: mixed conditions in prediction set: "
                                       "['default+cue', 'default+majority']\n")
    assert not (tmp_path / "analysis").exists()


def test_compare_rejects_a_report_set_of_two_conditions(small_corpus_dir,
                                                        tmp_path, capsys):
    set_a, set_b = mixed_run_sets(small_corpus_dir, tmp_path, "reports", ".report.json")
    capsys.readouterr()
    assert run_cli("compare", "--reports-a", *set_a, "--reports-b", *set_b,
                   "--m", "1") == 1
    assert capsys.readouterr() == ("", "error: mixed conditions in report set: "
                                       "['default+cue', 'default+majority']\n")


LABELS = ("cause", "contrast", "joint")


@st.composite
def paired_runs(draw):
    """A gold dataset and A and B runs over it, paired by run id."""
    gold = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=30))
    instances = tuple(RenderedInstance(f"i{k:02d}", "", "head", "dep", label)
                      for k, label in enumerate(gold))
    dataset = VariantDataset("prop", ContextScheme("default"), "test",
                             instances, LABELS)
    n_runs = draw(st.integers(1, 4))

    def runs(condition):
        return [PredictionSet(condition, run_id, {
            inst.instance_id: draw(st.sampled_from(LABELS)) for inst in instances})
            for run_id in range(n_runs)]
    return dataset, runs("A"), runs("B")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(paired_runs(), st.sampled_from(["runs", "support"]))
def test_analyze_pair_margins_equal_relation_margins(tmp_path, runs, normalizer):
    dataset, runs_a, runs_b = runs
    rows = paired_outcomes(dataset.gold_labels(),
                           [(a.records, b.records) for a, b in zip(runs_a, runs_b)])
    expected = [RelationMargin(*row)
                for row in relation_tallies(rows, len(runs_a), normalizer)]
    margins, _ = analyze_pair(dataset, runs_a, runs_b, default_lexicon(),
                              tmp_path / "analysis", normalizer=normalizer)
    assert margins == expected
    write_margins_tsv(expected, tmp_path / "expected.tsv")
    assert (tmp_path / "analysis" / "margins.tsv").read_bytes() == \
        (tmp_path / "expected.tsv").read_bytes()


@pytest.mark.parametrize("side", ["A", "B"])
def test_analyze_pair_requires_coverage(tmp_path, side):
    instances = tuple(RenderedInstance(f"i{k}", "", "head", "dep", "cause")
                      for k in range(3))
    dataset = VariantDataset("c", ContextScheme("default"), "test", instances,
                             ("cause",))
    full = dataset.gold_labels()
    short = {i: label for i, label in full.items() if i != "i1"}
    runs = {"A": [PredictionSet("A", 1, full), PredictionSet("A", 2, full)],
            "B": [PredictionSet("B", 1, full), PredictionSet("B", 2, full)]}
    runs[side][1] = PredictionSet(side, 2, short)
    with pytest.raises(ValueError,
                       match=f"predictions {side} do not cover the gold instances"):
        analyze_pair(dataset, runs["A"], runs["B"], default_lexicon(),
                     tmp_path / "analysis")


def test_compare_pairs_reports_by_run_id(tmp_path, capsys):
    def reports(condition, scores):
        paths = []
        for run_id, f1 in scores.items():
            path = tmp_path / f"{condition}-{run_id}.report.json"
            path.write_text(json.dumps({"condition": condition, "run_id": run_id,
                                        "macro_f1": f1}), encoding="utf-8")
            paths.append(path)
        return paths

    a = reports("A", {0: 0.5, 1: 0.6, 2: 0.7, 3: 0.8, 4: 0.9})
    b = reports("B", {0: 0.4, 1: 0.5, 2: 0.6, 3: 0.7, 4: 0.8})
    c = reports("C", {0: 0.4, 1: 0.5, 2: 0.6, 3: 0.7, 5: 0.8})
    assert run_cli("compare", "--reports-a", *reversed(a),
                   "--reports-b", *b, "--m", "1") == 0
    assert "A vs B: n=5 (effective 5), W+=15" in capsys.readouterr().out
    assert run_cli("compare", "--reports-a", *a, "--reports-b", *c,
                   "--m", "1") == 1
    assert "A has [0, 1, 2, 3, 4], B has [0, 1, 2, 3, 5]" in \
        capsys.readouterr().err


def write_reports(tmp_path, condition, scores):
    """A ``compare`` input: one report per run id, holding only its score."""
    paths = []
    for run_id, f1 in scores.items():
        path = tmp_path / f"{condition}-{run_id}.report.json"
        path.write_text(json.dumps({"condition": condition, "run_id": run_id,
                                    "macro_f1": f1}), encoding="utf-8")
        paths.append(path)
    return paths


@pytest.mark.parametrize("payload, detail", [
    ({"condition": "A", "run_id": 0}, "missing field 'macro_f1'"),
    ({"condition": "A", "run_id": "x", "macro_f1": 0.5},
     "run_id 'x' is not an integer"),
    ([0.5], "list is not a JSON object"),
], ids=["missing_macro_f1", "run_id_string", "list"])
def test_compare_malformed_report_names_path(tmp_path, capsys, payload, detail):
    a = write_reports(tmp_path, "A", {0: 0.5, 1: 0.6})
    b = write_reports(tmp_path, "B", {0: 0.4, 1: 0.5})
    a[0].write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli("compare", "--reports-a", *a, "--reports-b", *b,
                   "--m", "1") == 1
    assert f"error: {a[0]}: malformed report: {detail}" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["5", "-1", "0", "1", "nan"])
def test_compare_alpha_out_of_range_exits_2(tmp_path, capsys, alpha):
    a = write_reports(tmp_path, "A", {0: 0.5, 1: 0.6})
    b = write_reports(tmp_path, "B", {0: 0.5, 1: 0.6})
    assert run_cli("compare", "--reports-a", *a, "--reports-b", *b,
                   "--m", "1", "--alpha", alpha) == 2
    captured = capsys.readouterr()
    assert "config error: compare: --alpha: " in captured.err and not captured.out


@pytest.mark.parametrize("m", ["0", "-3"])
def test_compare_m_below_1_exits_2(tmp_path, capsys, m):
    # The config's bonferroni_m rule: an m below 1 is no family size.
    a = write_reports(tmp_path, "A", {0: 0.5, 1: 0.6})
    b = write_reports(tmp_path, "B", {0: 0.5, 1: 0.6})
    assert run_cli("compare", "--reports-a", *a, "--reports-b", *b,
                   "--m", m) == 2
    captured = capsys.readouterr()
    assert f"config error: compare: --m: {m} is not an integer >= 1" \
        in captured.err and not captured.out


def test_experiment_end_to_end(small_corpus_dir, tmp_path, capsys):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], m=1)
    assert run_cli("experiment", "--config", config) == 0
    out_dir = tmp_path / "out"
    table = (out_dir / "results_table.txt").read_text(encoding="utf-8")
    assert "default+cue" in table and "OR1+cue" in table
    assert "†" in table  # the improvement is significant on this fixture
    sig = (out_dir / "significance.tsv").read_text(encoding="utf-8")
    assert "OR1+cue" in sig and "True" in sig
    assert (out_dir / "analysis" / "cue.default-vs-OR1" / "margins.tsv").exists()
    assert (out_dir / "manifest.json").exists()
    stdout = capsys.readouterr().out
    assert "mean macro-F1" in stdout


def test_experiment_rerun_is_idempotent(small_corpus_dir, tmp_path):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "majority"}, {"kind": "cue"}],
                               m=2, seeds=[1, 2, 3])
    assert run_cli("experiment", "--config", config) == 0
    out_dir = tmp_path / "out"
    snapshot = {
        p: p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    assert run_cli("experiment", "--config", config) == 0
    for path, content in snapshot.items():
        assert path.read_bytes() == content, f"{path} changed on rerun"
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    reused = [s for s in manifest["stages"].values() if s.get("reused")]
    assert reused, "second run should reuse completed stages"


def test_experiment_import_backend(small_corpus_dir, tmp_path):
    # first produce prediction files with the cue baseline
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2], m=1)
    assert run_cli("experiment", "--config", config) == 0
    pred_dir = tmp_path / "out" / "predictions"
    runs = {
        "default": [str(pred_dir / "default+cue.run1.jsonl"),
                    str(pred_dir / "default+cue.run2.jsonl")],
        "OR1": [str(pred_dir / "OR1+cue.run1.jsonl"),
                str(pred_dir / "OR1+cue.run2.jsonl")],
    }
    config2 = {
        "schema_version": 1,
        "corpus": {"name": "disamb", "dir": str(small_corpus_dir)},
        "schemes": ["default", "OR1"],
        "backends": [{"kind": "import", "tag": "plm", "runs": runs}],
        "seeds": [1, 2],
        "bonferroni_m": 1,
        "alpha": 0.05,
        "out_dir": str(tmp_path / "out2"),
    }
    config2_path = tmp_path / "import.json"
    config2_path.write_text(json.dumps(config2), encoding="utf-8")
    assert run_cli("experiment", "--config", config2_path) == 0
    table = (tmp_path / "out2" / "results_table.txt").read_text(encoding="utf-8")
    assert "default+plm" in table and "OR1+plm" in table


ENDPOINT = {"kind": "endpoint", "base_url": "http://127.0.0.1:9", "model": "m"}


@pytest.mark.parametrize("override", [
    {"schema_version": 99},
    {"backends": ["cue"]},
    {"backends": "cue"},
    {"alpha": "x"},
    {"alpha": 5},
    {"alpha": -1},
    {"alpha": 0},
    {"alpha": 1},
    {"alpha": float("nan")},
    {"alpha": float("inf")},
    {"bonferroni_m": "x"},
    {"bonferroni_m": 1.5},
    {"seeds": [True, False]},
    {"backends": [{**ENDPOINT, "parallelism": 0}]},
    {"backends": [{**ENDPOINT, "timeout": "x"}]},
    {"backends": [{**ENDPOINT, "base_url": 5}]},
    {"backends": [{**ENDPOINT, "base_url": "127.0.0.1:9"}]},
    {"backends": [{**ENDPOINT, "base_url": "http://"}]},
    {"backends": [{**ENDPOINT, "base_url": "http://127.0.0.1:x"}]},
    {"backends": [{**ENDPOINT, "model": 1}]},
    {"backends": [{**ENDPOINT, "auth_env": ["TOKEN"]}]},
    {"backends": [{**ENDPOINT, "timeout": True}]},
    {"backends": [{**ENDPOINT, "timeout": 0}]},
    {"backends": [{**ENDPOINT, "backoff": -1}]},
    {"backends": [{**ENDPOINT, "backoff": "x"}]},
    {"backends": [{**ENDPOINT, "max_retries": True}]},
    {"backends": [{**ENDPOINT, "max_retries": 1.5}]},
    {"backends": [{**ENDPOINT, "parallelism": 1.7}]},
    {"schemes": [1]},
    {"schemes": "default"},
    {"backends": [{"kind": "import", "runs": {"default": 7}}]},
    {"corpus": {"dir": 1}},
    {"out_dir": 1},
    {"train_split": 1},
    {"eval_split": ["test"]},
    {"lexicon": 1},
    # The config file itself stands in for a prediction file: it exists.
    {"backends": [{"kind": "import",
                   "runs": {"OR1": ["experiment.json"] * 10}}]},
    {"backends": [{"kind": "import",
                   "runs": {"default": ["experiment.json"],
                            "OR1": ["experiment.json"]}}],
     "seeds": [1, 2]},
    {"schema_version": True},
    {"schema_version": 1.0},
    {"seed": 1},
    {"backends": [{**ENDPOINT, "max_retries": 0, "modle": "gpt-4o"}]},
    {"backends": [{"kind": "cue", "model": "gpt-4o"}]},
    {"backends": [{"kind": "cue", "tag": ["x"]}]},
    {"backends": [{"kind": "cue", "tag": ""}]},
    {"backends": [{**ENDPOINT, "max_retries": 0, "model": "org/model"}]},
    {"backends": [{"kind": "cue"}, {"kind": "majority", "tag": "cue"}],
     "bonferroni_m": 2},
    {"schemes": ["OR1", "or"]},
    {"corpus": {"dir": "corpus", "name": "../escaped"}},
    {"corpus": {"dir": "corpus", "name": ".."}},
    {"backends": [{**ENDPOINT, "base_url": "http://127.0.0.1:9/v1?api-version=1"}]},
    {"backends": [{**ENDPOINT, "base_url": "http://127.0.0.1:9/v1#frag"}]},
    {"backends": [{**ENDPOINT, "base_url": "http://user:pw@127.0.0.1:9/v1"}]},
], ids=["schema_version", "backend_not_object", "backends_not_list",
        "alpha_not_number", "alpha_above_1", "alpha_negative", "alpha_0",
        "alpha_1", "alpha_nan", "alpha_inf", "bonferroni_m_not_number", "bonferroni_m_float",
        "bool_seeds", "endpoint_parallelism_0", "endpoint_timeout_not_number",
        "endpoint_base_url_not_string", "endpoint_base_url_without_scheme",
        "endpoint_base_url_without_host", "endpoint_base_url_bad_port",
        "endpoint_model_not_string", "endpoint_auth_env_not_string",
        "endpoint_timeout_bool", "endpoint_timeout_0",
        "endpoint_backoff_negative", "endpoint_backoff_not_number",
        "endpoint_max_retries_bool", "endpoint_max_retries_float",
        "endpoint_parallelism_float",
        "scheme_not_string", "schemes_not_list", "import_runs_not_list",
        "corpus_dir_not_string", "out_dir_not_string",
        "train_split_not_string", "eval_split_not_string",
        "lexicon_not_string", "import_runs_missing_scheme",
        "import_runs_fewer_than_seeds", "schema_version_true",
        "schema_version_float", "unknown_top_level_key",
        "endpoint_unknown_option", "cue_model", "tag_not_string", "tag_empty",
        "endpoint_default_tag_with_slash", "two_backends_one_tag",
        "two_schemes_one_tag", "corpus_name_with_slash", "corpus_name_dot_dot",
        "endpoint_base_url_with_query", "endpoint_base_url_with_fragment",
        "endpoint_base_url_with_user_info"])
def test_experiment_bad_config_exits_2(small_corpus_dir, tmp_path, capsys,
                                       override):
    path = experiment_config(tmp_path, small_corpus_dir,
                             backends=[{"kind": "cue"}])
    config = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**config, **override}), encoding="utf-8")
    assert run_cli("experiment", "--config", path) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [b'{"out_dir": "\xff"}', b"[" * 100_000],
                         ids=["not_utf8", "nested_too_deeply"])
def test_experiment_unreadable_config_exits_2_naming_it(tmp_path, capsys, text):
    path = tmp_path / "experiment.json"
    path.write_bytes(text)
    assert run_cli("experiment", "--config", path) == 2
    assert f"config error: {path}: malformed JSON: " in capsys.readouterr().err


def test_experiment_missing_bonferroni_m_exits_2(small_corpus_dir, tmp_path,
                                                 capsys):
    config = {
        "schema_version": 1,
        "corpus": {"name": "disamb", "dir": str(small_corpus_dir)},
        "schemes": ["default", "OR1"],
        "backends": [{"kind": "majority"}],
        "seeds": [1],
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "no_m.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("experiment", "--config", path) == 2
    assert "bonferroni_m" in capsys.readouterr().err


def experiment_with(tmp_path: Path, corpus_dir: Path, **keys) -> int:
    """`drckit experiment` of a cue config with ``keys`` set: its exit code."""
    config = experiment_config(tmp_path, corpus_dir, backends=[{"kind": "cue"}],
                               seeds=[1])
    return run_cli("experiment", "--config", patch_config(config, **keys))


# A fault, the exit code `drckit experiment` gives it (None: a library call
# that raises ValueError) and its message, "{tmp}" standing for the test's
# directory: an experiment's config error is prefixed by its config's path.
CONFIG_FAULTS = {
    "unknown_scheme_kind": (lambda tmp, corpus: ContextScheme("xyz"), None,
                            "unknown scheme kind 'xyz'"),
    "missing_import_source": (lambda tmp, corpus: experiment_with(
        tmp, corpus, backends=[{"kind": "import", "runs": {
            "default": ["gone.jsonl"], "OR1": ["gone.jsonl"]}}]), 2,
        "config error: {tmp}/experiment.json: backends[0] references missing "
        "prediction file {tmp}/gone.jsonl"),
    "missing_corpus_dir": (lambda tmp, corpus: experiment_with(
        tmp, corpus, corpus={"dir": "gone"}), 2,
        "config error: {tmp}/experiment.json: corpus dir does not exist: {tmp}/gone"),
    "missing_lexicon": (lambda tmp, corpus: experiment_with(
        tmp, corpus, lexicon="gone.txt"), 2,
        "config error: {tmp}/experiment.json: lexicon file does not exist: "
        "{tmp}/gone.txt"),
}


@pytest.mark.parametrize("fault, exit_code, message", CONFIG_FAULTS.values(),
                         ids=CONFIG_FAULTS)
def test_each_config_fault_is_reported(small_corpus_dir, tmp_path, capsys, fault,
                                       exit_code, message):
    assert_fault_reported(capsys, lambda: fault(tmp_path, small_corpus_dir), exit_code,
                          message.format(tmp=tmp_path.resolve()))
    assert not (tmp_path / "out").exists()


def test_corpus_without_split_directories_exits_1(tmp_path, capsys):
    assert run_cli("validate", tmp_path) == 1
    assert capsys.readouterr().err == f"error: no split directories under {tmp_path}\n"


def test_experiment_too_small_bonferroni_m_exits_2_before_any_work(
        small_corpus_dir, tmp_path, capsys):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}],
                               schemes=("default", "AD1", "OR1"), m=1)
    assert run_cli("experiment", "--config", config) == 2
    assert "bonferroni_m" in capsys.readouterr().err
    out_dir = tmp_path / "out"
    assert not out_dir.exists() or not any(out_dir.iterdir())


def ingested_line(capsys) -> str:
    """The "ingested" line of what the CLI printed since the last read."""
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("ingested ")]
    return line


def test_experiment_hands_predictions_over_in_memory(small_corpus_dir,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    calls = {"import_predictions": 0, "train_baseline": 0,
             "predict_baseline": 0, "read_variant_dataset": 0, "score": 0,
             "extract_instances": 0, "load_corpus": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(inference, "import_predictions")
    counted(inference, "train_baseline")
    counted(inference, "predict_baseline")
    counted(context, "read_variant_dataset")
    counted(evaluation, "score")
    counted(treebank, "extract_instances")
    counted(treebank, "load_corpus")
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], m=1)
    assert run_cli("experiment", "--config", config) == 0
    cold = ingested_line(capsys)
    # cold: each split parsed once; one fit, one prediction and one score per
    # scheme, shared by the 10 seeds; each split's instances extracted once,
    # for both schemes; no prediction or variant file read back
    n_trees = sum(len(load_corpus(small_corpus_dir, split).trees)
                  for split in ("train", "test"))
    assert calls == {"import_predictions": 0, "train_baseline": 2,
                     "predict_baseline": 2, "read_variant_dataset": 0,
                     "score": 2, "extract_instances": n_trees, "load_corpus": 2}
    calls.update(dict.fromkeys(calls, 0))
    assert run_cli("experiment", "--config", config) == 0
    # warm: every stage is reused, so no stage reads an input, and the
    # "ingested" line comes from the manifest's summary, not the corpus
    assert calls == dict.fromkeys(calls, 0)
    assert ingested_line(capsys) == cold == \
        "ingested disamb: train 20 instances, test 12 instances"
    # every seed's file still carries its own run id
    for path in sorted((tmp_path / "out" / "predictions").iterdir()):
        run_ids = {json.loads(line)["run_id"]
                   for line in path.read_text(encoding="utf-8").splitlines()}
        assert run_ids == {int(path.name.split(".run")[1].split(".")[0])}, path
    for path in sorted((tmp_path / "out" / "reports").glob("*.json")):
        run_id = json.loads(path.read_text(encoding="utf-8"))["run_id"]
        assert run_id == int(path.name.split(".run")[1].split(".")[0]), path


def test_experiment_fits_predicts_and_scores_once_per_condition(
        small_corpus_dir, tmp_path, monkeypatch):
    # A baseline's seeds share its predictions, and their one predict stage
    # and one score stage do the shared work once.
    calls: Counter = Counter()
    for module, name in ((inference, "train_baseline"), (inference, "predict_baseline"),
                         (evaluation, "score")):
        def wrapper(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    config = experiment_config(
        tmp_path, small_corpus_dir, backends=[{"kind": "cue"}, {"kind": "majority"}],
        schemes=("default", "AD1", "OR1"), seeds=[1, 2, 3], m=4)
    assert run_cli("experiment", "--config", config) == 0
    assert calls == {"train_baseline": 6, "predict_baseline": 6, "score": 6}


def record_calls(monkeypatch, *names: str) -> dict[str, list[tuple]]:
    """The positional arguments of each call of the named functions, each
    patched on the module that defines it, which the CLI imports from."""
    calls: dict[str, list[tuple]] = {name: [] for name in names}
    modules = {"load_corpus": treebank, "read_variant_dataset": context}
    for name in names:
        module = modules[name]
        def wrapper(*args, _calls=calls[name], _original=getattr(module, name),
                    **kwargs):
            _calls.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_experiment_rerun_without_a_prediction_parses_no_corpus(
        small_corpus_dir, tmp_path, monkeypatch, capsys):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2, 3])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold, cold_stdout = outputs(out), capsys.readouterr().out
    (out / "predictions" / "OR1+cue.run2.jsonl").unlink()
    calls = record_calls(monkeypatch, "load_corpus", "read_variant_dataset")
    assert run_cli("experiment", "--config", config) == 0
    assert calls["load_corpus"] == []
    # Each variant the rerun reads back gets the recorded train inventory,
    # as the tuple a parsed corpus gives.
    reads = {Path(path).name: labels
             for path, _, labels in calls["read_variant_dataset"]}
    assert reads == dict.fromkeys(["disamb.OR1.test.jsonl", "disamb.OR1.train.jsonl",
                                   "disamb.default.test.jsonl"],
                                  ("condition", "contrast", "elaboration"))
    assert outputs(out) == cold
    assert capsys.readouterr().out == cold_stdout


def test_experiment_rerun_without_a_variant_parses_only_its_split(
        small_corpus_dir, tmp_path, monkeypatch):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold = outputs(out)
    (out / "variants" / "disamb.OR1.test.jsonl").unlink()
    calls = record_calls(monkeypatch, "load_corpus")
    assert run_cli("experiment", "--config", config) == 0
    assert [split for _, split, _ in calls["load_corpus"]] == ["test"]
    assert "variants:OR1:test" in stages_run(out)
    assert outputs(out) == cold  # the rebuilt variant file included


def test_experiment_rerun_after_an_added_edu_parses_and_counts_it(
        small_corpus_dir, tmp_path, monkeypatch, capsys):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    manifest = tmp_path / "out" / "manifest.json"
    cold = json.loads(manifest.read_text(encoding="utf-8"))
    assert ingested_line(capsys) == \
        "ingested disamb: train 20 instances, test 12 instances"
    write_doc(small_corpus_dir / "train", "tr-cond-00",
              disambiguation_records("condition", 0)
              + [(4, 3, "cause", "so it holds .")])
    calls = record_calls(monkeypatch, "load_corpus")
    assert run_cli("experiment", "--config", config) == 0
    assert len(calls["load_corpus"]) == 2
    assert ingested_line(capsys) == \
        "ingested disamb: train 21 instances, test 12 instances"
    warm = json.loads(manifest.read_text(encoding="utf-8"))
    assert warm["ingest"].pop("key") != cold["ingest"].pop("key")
    labels = ["condition", "contrast", "elaboration"]
    assert cold["ingest"] == {"train_instances": 20, "eval_instances": 12,
                              "label_inventory": labels}
    assert warm["ingest"] == {"train_instances": 21, "eval_instances": 12,
                              "label_inventory": ["cause", *labels]}
    (tmp_path / "fresh").mkdir()
    fresh = experiment_config(tmp_path / "fresh", small_corpus_dir,
                              backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", fresh) == 0
    assert outputs(tmp_path / "out") == outputs(tmp_path / "fresh" / "out")


def test_experiment_records_the_ingest_summary_a_manifest_lacks(
        small_corpus_dir, tmp_path, monkeypatch, capsys):
    # A manifest with no summary (from a drckit that wrote none) keeps its
    # stages; the corpus is parsed once more, for the summary.
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold, cold_stdout = outputs(out), capsys.readouterr().out
    manifest = out / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    summary = payload.pop("ingest")
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    calls = record_calls(monkeypatch, "load_corpus")
    assert run_cli("experiment", "--config", config) == 0
    assert len(calls["load_corpus"]) == 2
    assert stages_run(out) == []
    assert json.loads(manifest.read_text(encoding="utf-8"))["ingest"] == summary
    assert outputs(out) == cold
    assert capsys.readouterr().out == cold_stdout


def test_experiment_ignores_a_manifest_with_a_malformed_ingest_summary(
        small_corpus_dir, tmp_path, caplog, capsys):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold, cold_stdout = outputs(out), capsys.readouterr().out
    manifest = out / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["ingest"]["eval_instances"] = "12"
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert run_cli("experiment", "--config", config) == 0
    assert f"{manifest} is not a run manifest" in caplog.text
    assert len(stages_run(out)) == len(payload["stages"]) > 0
    assert outputs(out) == cold
    assert capsys.readouterr().out == cold_stdout
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    assert payload["ingest"]["eval_instances"] == 12


@pytest.mark.parametrize("fault", ["train_missing", "test_missing",
                                   "malformed_document"])
def test_experiment_corpus_fault_exits_1_with_its_message(
        small_corpus_dir, tmp_path, capsys, fault):
    corpus = small_corpus_dir.resolve()
    if fault == "malformed_document":
        (corpus / "test" / "te-torn.dep").write_bytes(b'{"root": [')
        message = ("disamb/test: 1 violation(s)\nte-torn\tparse-error\tmalformed "
                   "document: Expecting value: line 1 column 11 (char 10)")
    else:
        split = fault.split("_")[0]
        shutil.rmtree(corpus / split)
        message = f"split directory not found: {corpus / split}"
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1])
    assert run_cli("experiment", "--config", config) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_experiment_corpus_fault_names_the_first_five_violations(
        small_corpus_dir, tmp_path, capsys):
    for i in range(7):
        (small_corpus_dir / "train" / f"bad{i}.dep").write_text(
            '{"root": []}', encoding="utf-8")
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1])
    assert run_cli("experiment", "--config", config) == 1
    first, *violations = capsys.readouterr().err.splitlines()
    assert first == "error: disamb/train: 7 violation(s)"
    assert [line.split("\t")[:2] for line in violations] == \
        [[f"bad{i}", "parse-error"] for i in range(5)]


def test_experiment_scores_a_reloaded_run_on_its_own(small_corpus_dir, tmp_path,
                                                     monkeypatch):
    # The reused predict stage reads each seed's file back into a dict of its
    # own, so the score stage scores each seed.  The cue baseline's seeds
    # predict alike, so each report still equals a fresh run's.
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2, 3])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    for path in (out / "reports").glob("OR1+cue.*"):
        path.unlink()
    scored = []
    original = evaluation.score
    monkeypatch.setattr(evaluation, "score", lambda dataset, preds: scored.append(
        preds.run_id) or original(dataset, preds))
    assert run_cli("experiment", "--config", config) == 0
    assert sorted(scored) == [1, 2, 3]
    (tmp_path / "fresh").mkdir()
    fresh = experiment_config(tmp_path / "fresh", small_corpus_dir,
                              backends=[{"kind": "cue"}], seeds=[1, 2, 3])
    assert run_cli("experiment", "--config", fresh) == 0
    assert outputs(out) == outputs(tmp_path / "fresh" / "out")


def test_experiment_without_comparisons_removes_old_significance(
        small_corpus_dir, tmp_path):
    # From an out/ whose manifest lists the file as the summary's output, and
    # from one written before the summary was a stage, which does not.
    out = tmp_path / "out"
    for summary_recorded in (True, False):
        config = experiment_config(tmp_path, small_corpus_dir,
                                   backends=[{"kind": "cue"}], seeds=[1, 2])
        assert run_cli("experiment", "--config", config) == 0
        assert (out / "significance.tsv").exists()
        if not summary_recorded:
            manifest = out / "manifest.json"
            payload = json.loads(manifest.read_text(encoding="utf-8"))
            del payload["stages"]["summary"]
            manifest.write_text(json.dumps(payload), encoding="utf-8")
        patch_config(config, schemes=["default"])
        assert run_cli("experiment", "--config", config) == 0
        table = (out / "results_table.txt").read_text(encoding="utf-8")
        assert "default+cue" in table and "OR1+cue" not in table
        # no table may still compare a condition the run no longer has
        assert not (out / "significance.tsv").exists()
        shutil.rmtree(out)


def outputs(out_dir: Path) -> dict[str, bytes]:
    """Every output file's bytes by relative path, less the manifest."""
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def stages_run(out_dir: Path) -> list[str]:
    """The stages the last run did not reuse."""
    stages = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    return sorted(name for name, entry in stages["stages"].items()
                  if not entry["reused"])


def patch_config(path: Path, **keys) -> Path:
    config = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**config, **keys}), encoding="utf-8")
    return path


def relabel_first_test_document(corpus_dir: Path) -> None:
    doc = sorted((corpus_dir / "test").glob("*.dep"))[0]
    payload = json.loads(doc.read_text(encoding="utf-8"))
    edu = payload["root"][-1]
    edu["relation"] = "contrast" if edu["relation"] == "condition" else "condition"
    doc.write_text(json.dumps(payload), encoding="utf-8")


def test_experiment_rerun_removes_outputs_of_dropped_conditions(
        small_corpus_dir, tmp_path):
    def tree(out_dir: Path) -> list[str]:
        """Every file and directory, less the manifest and the endpoint logs."""
        return sorted(name for p in out_dir.rglob("*")
                      for name in [p.relative_to(out_dir).as_posix()]
                      if name != "manifest.json" and not name.startswith("logs"))

    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    assert any(name.startswith("analysis/") for name in tree(out))
    # A run cut short removes nothing: it has not recorded all its stages.
    dead = {"kind": "endpoint", "base_url": "http://127.0.0.1:9", "model": "m",
            "max_retries": 0, "backoff": 0.001}
    patch_config(config, schemes=["default"], backends=[{"kind": "cue"}, dead])
    assert run_cli("experiment", "--config", config) == 3
    assert (out / "predictions" / "OR1+cue.run1.jsonl").exists()
    assert run_cli("experiment", "--config",
                   patch_config(config, backends=[{"kind": "cue"}])) == 0
    (tmp_path / "fresh").mkdir()
    fresh = patch_config(experiment_config(
        tmp_path / "fresh", small_corpus_dir, backends=[{"kind": "cue"}],
        seeds=[1, 2]), schemes=["default"])
    assert run_cli("experiment", "--config", fresh) == 0
    assert tree(out) == tree(tmp_path / "fresh" / "out")
    assert outputs(out).items() - outputs(tmp_path / "fresh" / "out").items() \
        == {("logs/default+m.run1.log.jsonl", b"")}  # logs are never removed


def test_experiment_rerun_after_corpus_edit_matches_fresh_run(
        small_corpus_dir, tmp_path):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2, 3])
    assert run_cli("experiment", "--config", config) == 0
    cold = outputs(tmp_path / "out")
    relabel_first_test_document(small_corpus_dir)
    assert run_cli("experiment", "--config", config) == 0
    (tmp_path / "fresh").mkdir()
    fresh = experiment_config(tmp_path / "fresh", small_corpus_dir,
                              backends=[{"kind": "cue"}], seeds=[1, 2, 3])
    assert run_cli("experiment", "--config", fresh) == 0
    assert outputs(tmp_path / "out") == outputs(tmp_path / "fresh" / "out")
    assert outputs(tmp_path / "out") != cold


def test_experiment_rerun_under_another_tool_version_recomputes(
        small_corpus_dir, tmp_path, monkeypatch):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1])
    assert run_cli("experiment", "--config", config) == 0
    monkeypatch.setattr(cli, "__version__", "0+another")
    assert run_cli("experiment", "--config", config) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert stages["tool_version"] == "0+another"
    assert len(stages_run(tmp_path / "out")) == len(stages["stages"]) > 0


def test_experiment_torn_manifest_recomputes_every_stage(
        small_corpus_dir, tmp_path, caplog):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold = outputs(out)
    manifest = out / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:500])
    with caplog.at_level(logging.WARNING):
        assert run_cli("experiment", "--config", config) == 0
    assert str(manifest) in caplog.text
    stages = json.loads(manifest.read_text(encoding="utf-8"))["stages"]
    assert len(stages_run(out)) == len(stages) > 0
    assert outputs(out) == cold


@pytest.mark.parametrize("text", [
    b"[" * 100_000, b'{"tool_version": "1.0", "stages": {"a": []}}',
    b'{"tool_version": "1.0", "stages": {"a": {"completed_at": 1}}}',
    b'{"stages": {}, "ingest": {"train_instances": 1.0, "eval_instances": 1, '
    b'"label_inventory": []}}'],
    ids=["nested_too_deeply", "stage_not_object", "completed_at_not_string",
         "ingest_count_not_integer"])
def test_manifest_that_is_no_manifest_is_ignored(tmp_path, caplog, text):
    path = tmp_path / "manifest.json"
    path.write_bytes(text)
    with caplog.at_level(logging.WARNING):
        manifest = RunManifest.load_or_create(path, "1.0")
    assert manifest.previous == {} and manifest.ingest is None
    assert f"{path} is not a run manifest" in caplog.text


def run_stage(manifest: RunManifest, name: str, key: str = "",
              outputs=()) -> bool:
    """Walk the one stage ``name`` through ``manifest``; True if it ran."""
    ran = []
    manifest.walk([Stage(name, tuple(outputs), run=lambda: ran.append(name),
                         load=lambda: None, key=key)])
    return bool(ran)


def test_manifest_save_leaves_old_manifest_if_interrupted(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "manifest.json"
    manifest = RunManifest(path, "1.0")
    run_stage(manifest, "first")  # a walk saves the manifest when it ends
    saved = path.read_bytes()

    def crash(*args):
        raise OSError("crashed before the rename")
    monkeypatch.setattr(config_module.os, "replace", crash)
    with pytest.raises(OSError):
        run_stage(manifest, "second")
    assert "second" in manifest.stages and path.read_bytes() == saved


def test_manifest_reuse_keeps_first_completed_at(tmp_path):
    first = "2000-01-01T00:00:00Z"
    manifest = RunManifest(tmp_path / "manifest.json", "1.0")
    manifest.previous = {
        "stage": {"outputs": [], "completed_at": first, "reused": False}}
    assert not run_stage(manifest, "stage")
    assert manifest.stages["stage"]["completed_at"] == first
    assert run_stage(manifest, "stage", key="changed")
    assert manifest.stages["stage"]["completed_at"] != first


def test_stage_without_load_is_reused_from_its_recorded_text(tmp_path):
    previous = {"summary": {"outputs": [], "text": "kept"}}

    def walk() -> str:
        manifest = RunManifest(tmp_path / "manifest.json", "1.0")
        manifest.previous = previous
        manifest.walk([Stage("summary", (), run=lambda: "made")])
        assert manifest.stages["summary"]["text"] == manifest.value("summary")
        return manifest.value("summary")

    assert walk() == "kept"
    del previous["summary"]["text"]  # a record without its text reruns
    assert walk() == "made"


# One declared stage: the earlier stages it reads, its loaded record, whether
# it has a load, its key, and whether each of its outputs exists beforehand.
STAGE_SPECS = st.lists(st.tuples(
    st.sets(st.integers(0, 7)), st.sampled_from(["none", "same", "other", "textless"]),
    st.booleans(), st.sampled_from(["", "k"]), st.lists(st.booleans(), max_size=2)),
    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(specs=STAGE_SPECS)
def test_walk_decides_every_stage_as_a_one_pass_walk_would(specs):
    # Decided before any stage runs, a walk runs the same stages in the same
    # order, and records the same reused flags, as one that decides each
    # stage just before it would run it: each stage writes only its own
    # outputs, so no run changes a later decision.
    def declare(root: Path, ran: list[str]):
        stages, previous = [], {}
        for i, (inputs, record, has_load, key, present) in enumerate(specs):
            name = f"s{i}"
            outputs = tuple(root / f"{name}.{j}" for j in range(len(present)))
            for path, exists in zip(outputs, present):
                if exists:
                    path.write_text("old", encoding="utf-8")

            def run(name=name, outputs=outputs):
                ran.append(name)
                for path in outputs:
                    path.write_text("new", encoding="utf-8")
                return f"made {name}"
            entry = {"completed_at": "2000-01-01T00:00:00Z", "reused": False,
                     "text": f"kept {name}", "key": key}
            if record == "other":
                entry["key"] = "other"
            elif record == "textless":
                del entry["text"]
            if record != "none":
                previous[name] = entry
            stages.append(Stage(name, outputs, run,
                                (lambda: "loaded") if has_load else None,
                                tuple(f"s{k}" for k in sorted(inputs) if k < i), key))
        return stages, previous

    with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
        expected_ran: list[str] = []
        expected = one_pass_walk(*declare(Path(one), expected_ran))
        ran: list[str] = []
        stages, previous = declare(Path(two), ran)
        manifest = RunManifest(Path(two) / "manifest.json", "1.0")
        manifest.previous = previous
        manifest.walk(stages)
    assert ran == expected_ran == expected[0]
    assert {name: entry["reused"] for name, entry in manifest.stages.items()} \
        == expected[1]


def test_sweep_removes_only_unlisted_files_in_drckit_directories(tmp_path):
    out = tmp_path / "out"
    kept = [out / "reports" / "kept.tsv", out / "results_table.txt",
            out / "manifest.json", out / "logs" / "cue.log.jsonl", out / "notes.txt",
            tmp_path / "elsewhere.tsv"]
    swept = [out / "analysis" / "cue.default-vs-OR1" / "margins.tsv",
             out / "analysis" / "cue.default-vs-OR1" / "deeper" / "stray",
             out / "predictions" / "stray.jsonl", out / "significance.tsv",
             # what a killed write leaves, beside a kept output too
             out / "reports" / "kept.tsv.tmp", out / "results_table.txt.tmp",
             out / "significance.tsv.tmp"]
    for path in kept + swept:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x", encoding="utf-8")
    (out / "variants").mkdir()  # an empty directory drckit owns
    config_module.sweep(out, [Stage("a", (kept[0],), run=lambda: None),
                              Stage("summary", (kept[1],), run=lambda: None)])
    assert all(path.exists() for path in kept)
    assert not any(path.exists() for path in swept)
    assert sorted(p.name for p in out.iterdir()) == [
        "logs", "manifest.json", "notes.txt", "reports", "results_table.txt"]


def test_lexicon_that_is_not_utf8_is_an_error_naming_it(small_corpus_dir,
                                                        tmp_path, capsys):
    lexicon = tmp_path / "bad.txt"
    lexicon.write_bytes(b"because\n\xff\n")
    config = patch_config(experiment_config(
        tmp_path, small_corpus_dir, backends=[{"kind": "cue"}], seeds=[1, 2]),
        lexicon=str(lexicon))
    error = f"error: {lexicon}: 'utf-8' codec can't decode byte 0xff in position 8"
    assert run_cli("experiment", "--config", config) == 1
    assert capsys.readouterr().err.startswith(error)
    out = tmp_path / "out"  # the lexicon is read before any stage runs
    assert not (out / "manifest.json").exists() and not any(out.rglob("*.*"))
    healthy = tmp_path / "healthy"  # a run without the lexicon gives analyze its inputs
    healthy.mkdir()
    assert run_cli("experiment", "--config", experiment_config(
        healthy, small_corpus_dir, backends=[{"kind": "cue"}], seeds=[1, 2])) == 0
    capsys.readouterr()
    out = healthy / "out"
    assert run_cli("analyze", "--dataset", out / "variants" / "disamb.default.test.jsonl",
                   "--preds-a", *(out / "predictions").glob("default+cue.*.jsonl"),
                   "--preds-b", *(out / "predictions").glob("OR1+cue.*.jsonl"),
                   "--lexicon", lexicon, "--out", tmp_path / "analysis") == 1
    assert capsys.readouterr().err.startswith(error)


@pytest.mark.parametrize("edit, rerun", [
    (lambda out, lexicon:
        (out / "predictions" / "OR1+cue.run2.jsonl").unlink(),
     ["analysis:cue:default-vs-OR1", "predict:OR1+cue", "score:OR1+cue", "summary"]),
    (lambda out, lexicon:
        (out / "reports" / "OR1+cue.run2.report.json").unlink(),
     ["score:OR1+cue", "summary"]),
    (lambda out, lexicon: lexicon.write_text("because\n", encoding="utf-8"),
     ["analysis:cue:default-vs-AD1", "analysis:cue:default-vs-OR1"]),
    # A variant built again equals its file, so none of its readers reruns.
    (lambda out, lexicon: (out / "variants" / "disamb.OR1.test.jsonl").unlink(),
     ["variants:OR1:test"]),
    (lambda out, lexicon: (out / "variants" / "disamb.default.test.jsonl").unlink(),
     ["variants:default:test"]),
], ids=["prediction_deleted", "report_deleted", "lexicon_edited", "variant_deleted",
        "default_variant_deleted"])
def test_experiment_rerun_redoes_only_stale_stages(small_corpus_dir, tmp_path,
                                                   monkeypatch, edit, rerun):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("without\n", encoding="utf-8")

    def config(directory):
        directory.mkdir(exist_ok=True)
        return patch_config(experiment_config(
            directory, small_corpus_dir, backends=[{"kind": "cue"}],
            schemes=("default", "AD1", "OR1"), seeds=[1, 2, 3], m=2),
            lexicon=str(lexicon))

    warm = config(tmp_path)
    assert run_cli("experiment", "--config", warm) == 0
    edit(tmp_path / "out", lexicon)
    assert run_cli("experiment", "--config", warm) == 0
    assert stages_run(tmp_path / "out") == rerun
    assert run_cli("experiment", "--config", config(tmp_path / "fresh")) == 0
    assert outputs(tmp_path / "out") == outputs(tmp_path / "fresh" / "out")


def test_experiment_rerun_without_the_table_reruns_only_the_summary(
        small_corpus_dir, tmp_path, capsys):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold, cold_stdout = outputs(out), capsys.readouterr().out
    (out / "results_table.txt").unlink()
    assert run_cli("experiment", "--config", config) == 0
    assert stages_run(out) == ["summary"]
    assert outputs(out) == cold
    assert capsys.readouterr().out == cold_stdout


def test_experiment_warm_run_reads_no_report(small_corpus_dir, tmp_path,
                                            monkeypatch, capsys):
    # The reused summary prints the text its manifest record keeps and
    # rewrites neither of its files.
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold_stdout = capsys.readouterr().out
    summary = [out / "results_table.txt", out / "significance.tsv"]
    mtimes = [path.stat().st_mtime_ns for path in summary]
    reads = []
    original = evaluation.read_report_scores
    monkeypatch.setattr(evaluation, "read_report_scores",
                        lambda path: reads.append(path) or original(path))
    assert run_cli("experiment", "--config", config) == 0
    assert stages_run(out) == [] and reads == []
    assert [path.stat().st_mtime_ns for path in summary] == mtimes
    assert capsys.readouterr().out == cold_stdout


def test_experiment_ignores_a_manifest_whose_summary_text_is_no_string(
        small_corpus_dir, tmp_path, caplog, capsys):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold, cold_stdout = outputs(out), capsys.readouterr().out
    manifest = out / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["stages"]["summary"]["text"] = ["not", "a", "string"]
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert run_cli("experiment", "--config", config) == 0
    assert f"{manifest} is not a run manifest" in caplog.text
    assert len(stages_run(out)) == len(payload["stages"])
    assert outputs(out) == cold
    assert capsys.readouterr().out == cold_stdout


def test_experiment_in_a_copied_run_dir_checks_its_own_outputs(small_corpus_dir,
                                                               tmp_path):
    # The manifest lists absolute paths; a copy must be judged by its own
    # files, not by those of the run dir it was copied from.
    (tmp_path / "a").mkdir()
    config = patch_config(experiment_config(
        tmp_path / "a", small_corpus_dir, backends=[{"kind": "cue"}],
        seeds=[1, 2, 3]), out_dir="out")
    assert run_cli("experiment", "--config", config) == 0
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    copy = tmp_path / "b" / "out"
    (copy / "predictions" / "OR1+cue.run3.jsonl").unlink()
    assert run_cli("experiment", "--config", tmp_path / "b" / "experiment.json") == 0
    assert stages_run(copy) == ["analysis:cue:default-vs-OR1", "predict:OR1+cue",
                                "score:OR1+cue", "summary"]
    assert outputs(copy) == outputs(tmp_path / "a" / "out")


def test_experiment_in_a_copied_run_dir_forgets_the_old_outputs(small_corpus_dir,
                                                                tmp_path):
    # The copy's manifest names no path, so it cannot point back at the old
    # run dir; once the copy has run, its outputs equal the old dir's.
    (tmp_path / "a").mkdir()
    config = patch_config(experiment_config(
        tmp_path / "a", small_corpus_dir, backends=[{"kind": "cue"}],
        seeds=[1, 2]), out_dir="out")
    assert run_cli("experiment", "--config", config) == 0
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    for _ in range(2):
        assert run_cli("experiment", "--config", tmp_path / "b" / "experiment.json") == 0
    copy = tmp_path / "b" / "out"
    manifest = (copy / "manifest.json").read_text(encoding="utf-8")
    assert str(tmp_path) not in manifest and "outputs" not in manifest
    assert outputs(tmp_path / "a" / "out") == outputs(copy)


def test_experiment_in_a_copied_run_dir_drops_a_scheme_as_a_fresh_run(
        small_corpus_dir, tmp_path):
    # The copy's manifest came from another run dir, yet a completed run in
    # the copy leaves no output of the scheme its config dropped.
    (tmp_path / "a").mkdir()
    config = patch_config(experiment_config(
        tmp_path / "a", small_corpus_dir, backends=[{"kind": "cue"}],
        seeds=[1, 2]), out_dir="out")
    assert run_cli("experiment", "--config", config) == 0
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    copy = patch_config(tmp_path / "b" / "experiment.json", schemes=["default"])
    assert run_cli("experiment", "--config", copy) == 0
    (tmp_path / "fresh").mkdir()
    assert run_cli("experiment", "--config", shutil.copy(copy, tmp_path / "fresh")) == 0

    def directories(out_dir: Path) -> list[str]:
        return sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")
                      if p.is_dir() and p.name != "logs")

    for listing in (outputs, directories):
        assert listing(tmp_path / "b" / "out") == listing(tmp_path / "fresh" / "out")


def test_experiment_sweeps_a_stray_output_only_when_it_completes(
        small_corpus_dir, tmp_path):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    stray = tmp_path / "out" / "predictions" / "stray.jsonl"
    stray.write_text("{}\n", encoding="utf-8")
    dead = {"kind": "endpoint", "base_url": "http://127.0.0.1:9", "model": "m",
            "max_retries": 0, "backoff": 0.001}
    patch_config(config, backends=[{"kind": "cue"}, dead], bonferroni_m=2)
    assert run_cli("experiment", "--config", config) == 3
    assert stray.exists()  # a run cut short sweeps nothing
    assert run_cli("experiment", "--config",
                   patch_config(config, backends=[{"kind": "cue"}])) == 0
    assert not stray.exists()


@pytest.mark.parametrize("field", ["lexicon", "import"])
def test_config_input_inside_an_output_directory_is_an_error(
        small_corpus_dir, tmp_path, capsys, field):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    source = tmp_path / "out" / "predictions" / "default+cue.run1.jsonl"
    if field == "lexicon":
        patch_config(config, lexicon=str(source))
    else:
        runs = {scheme: [str(source)] * 2 for scheme in ("default", "OR1")}
        patch_config(config, backends=[{"kind": "import", "runs": runs}])
    capsys.readouterr()
    assert run_cli("experiment", "--config", config) == 2
    assert f"{source} lies inside an output directory" in capsys.readouterr().err


def test_manifest_listing_outputs_and_unrecorded_paths_is_reused(
        small_corpus_dir, tmp_path, caplog, capsys):
    # Earlier manifests listed each stage's outputs as absolute paths and
    # kept an "unrecorded" list; such a manifest stays warm.
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold, cold_stdout = outputs(out), capsys.readouterr().out
    manifest = out / "manifest.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    cfg = config_module.load_experiment_config(config)
    for stage in cli.experiment_stages(cfg, {"train": "", "test": ""},
                                       payload["ingest"]["label_inventory"], None, None):
        payload["stages"][stage.name]["outputs"] = [str(p) for p in stage.outputs]
    payload["unrecorded"] = [str(out / "predictions" / "AD1+cue.run1.jsonl")]
    manifest.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert run_cli("experiment", "--config", config) == 0
    assert caplog.text == ""
    assert stages_run(out) == []
    assert outputs(out) == cold and capsys.readouterr().out == cold_stdout


def import_config(tmp_path: Path, corpus_dir: Path) -> tuple[Path, dict]:
    """An import-backend config over the runs of a cue experiment, and its
    ``runs`` map."""
    (tmp_path / "cue").mkdir()
    cue = experiment_config(tmp_path / "cue", corpus_dir,
                            backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", cue) == 0
    runs = {scheme: [str(tmp_path / "cue" / "out" / "predictions" /
                         f"{scheme}+cue.run{seed}.jsonl") for seed in (1, 2)]
            for scheme in ("default", "OR1")}
    config = experiment_config(
        tmp_path, corpus_dir, seeds=[1, 2],
        backends=[{"kind": "import", "tag": "plm", "runs": runs}])
    return config, runs


def test_experiment_warm_import_rerun_reruns_no_stage(small_corpus_dir,
                                                      tmp_path):
    config, _ = import_config(tmp_path, small_corpus_dir)
    assert run_cli("experiment", "--config", config) == 0
    cold = outputs(tmp_path / "out")
    assert run_cli("experiment", "--config", config) == 0
    assert stages_run(tmp_path / "out") == []
    assert outputs(tmp_path / "out") == cold


def test_experiment_rescores_edited_import_source(small_corpus_dir, tmp_path):
    config, runs = import_config(tmp_path, small_corpus_dir)
    assert run_cli("experiment", "--config", config) == 0
    before = outputs(tmp_path / "out")

    source = Path(runs["OR1"][0])
    records = [json.loads(line) for line in source.read_text().splitlines()]
    write_predictions(PredictionSet("OR1+cue", 1, {
        r["instance_id"]: "condition" for r in records}), source)
    assert run_cli("experiment", "--config", config) == 0
    assert stages_run(tmp_path / "out") == [
        "analysis:plm:default-vs-OR1", "predict:OR1+plm", "score:OR1+plm", "summary"]
    after = outputs(tmp_path / "out")
    assert {name for name in after if after[name] != before[name]} >= {
        "reports/OR1+plm.run1.report.json", "reports/OR1+plm.run1.report.tsv"}
    (tmp_path / "fresh").mkdir()
    fresh = experiment_config(
        tmp_path / "fresh", small_corpus_dir, seeds=[1, 2],
        backends=[{"kind": "import", "tag": "plm", "runs": runs}])
    assert run_cli("experiment", "--config", fresh) == 0
    assert after == outputs(tmp_path / "fresh" / "out")


def test_experiment_reads_each_import_source_and_the_lexicon_once(
        small_corpus_dir, tmp_path, monkeypatch):
    # Each was once read for its stage key and read again to be checked and
    # parsed, so bytes edited in between were kept under the old bytes' key.
    config, runs = import_config(tmp_path, small_corpus_dir)
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("without\n", encoding="utf-8")
    patch_config(config, lexicon=str(lexicon))
    reads = Counter()
    for name in ("read_bytes", "read_text"):
        def counted(path, *args, _read=getattr(Path, name), **kwargs):
            reads[path.resolve()] += 1
            return _read(path, *args, **kwargs)
        monkeypatch.setattr(Path, name, counted)
    inputs = [Path(source).resolve() for sources in runs.values() for source in sources]
    inputs.append(lexicon.resolve())
    for run in ("cold", "warm"):
        reads.clear()
        assert run_cli("experiment", "--config", config) == 0
        assert {path: reads[path] for path in inputs} == dict.fromkeys(inputs, 1), run
    assert stages_run(tmp_path / "out") == []


# A config field reaches the outputs through the stage key that digests it,
# given with an edit that must change that key and no other kind, or through
# the stage names and file paths it is part of; or it cannot change an output.
FIELD_COVERAGE = {
    "schema_version": "nothing: 1 is its only value",
    "corpus.dir": "the variants and predict keys digest its splits' documents",
    "corpus.name": "the variant file names",
    "schemes": "stage names and output paths; the summary key orders the conditions",
    "backends": "stage names and output paths; the summary key orders the conditions",
    "seeds": ("predict", lambda c: c.update(seeds=[1, 2, 3])),
    "out_dir": "nothing: another out_dir holds another run and its own manifest",
    "train_split": "variant stage names and paths; the variants and predict keys "
                   "digest its documents",
    "eval_split": "variant stage names and paths; the variants and predict keys "
                  "digest its documents",
    "lexicon": ("analysis", lambda c: c.update(lexicon="lexicon.txt")),
    "alpha": ("summary", lambda c: c.update(alpha=0.01)),
    "bonferroni_m": ("summary", lambda c: c.update(bonferroni_m=3)),
    "kind": ("predict", lambda c: c["backends"][1].update(kind="majority", tag="cue")),
    "tag": "the predict, score and analysis stage names and output paths",
    "runs": "the predict key digests each of its scheme's sources, in seed order "
            "(test_experiment_rescores_edited_import_source)",
    "base_url": ("predict", lambda c: c["backends"][0].update(base_url="http://h/v2")),
    "model": ("predict", lambda c: c["backends"][0].update(model="other")),
    "auth_env": ("predict", lambda c: c["backends"][0].update(auth_env="OTHER")),
    "timeout": ("predict", lambda c: c["backends"][0].update(timeout=9.5)),
    "backoff": ("predict", lambda c: c["backends"][0].update(backoff=0.5)),
    "max_retries": ("predict", lambda c: c["backends"][0].update(max_retries=7)),
    "parallelism": ("predict", lambda c: c["backends"][0].update(parallelism=3)),
}


def test_every_config_field_is_covered_by_a_stage_key_or_an_output_name(
        small_corpus_dir, tmp_path):
    fields = {*config_module.CONFIG_FIELDS.keys() - {"corpus"},
              *(f"corpus.{field}" for field in config_module.CORPUS_FIELDS),
              *(field for table in config_module._BACKEND_FIELDS.values()
                for field in table), *config_module.ENDPOINT_FIELDS}
    assert FIELD_COVERAGE.keys() == fields
    (tmp_path / "lexicon.txt").write_text("without\n", encoding="utf-8")
    base = json.loads(experiment_config(tmp_path, small_corpus_dir, m=2, backends=[
        {**ENDPOINT, "tag": "m"}, {"kind": "cue"}]).read_text(encoding="utf-8"))

    def keys(config: dict) -> dict[str, str]:
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        stages = cli.experiment_stages(config_module.load_experiment_config(path),
                                       {"train": "t", "test": "e"}, [], None, None)
        return {stage.name: stage.key for stage in stages}

    before = keys(base)
    for field, cover in FIELD_COVERAGE.items():
        if isinstance(cover, tuple):
            edited = json.loads(json.dumps(base))
            cover[1](edited)
            after = keys(edited)
            assert after.keys() == before.keys(), field
            assert {name.split(":")[0] for name in before
                    if after[name] != before[name]} == {cover[0]}, field


def reuse_case(root: Path, spec: dict, suffix: str = "") -> Path:
    """Write the config of ``spec`` into the run dir ``root``, and return its
    path: the corpus, lexicon and import sources beside ``root``, the cue
    baseline, an import backend whose runs follow the spec's schemes and
    seeds, the spec's other backends, and ``suffix`` after the JSON text."""
    runs = {scheme: [str(root.parent / "runs" / f"{scheme}.run{seed}.jsonl")
                     for seed in spec["seeds"]] for scheme in spec["schemes"]}
    config = {"schema_version": 1,
              "corpus": {"name": "disamb", "dir": str(root.parent / "corpus")},
              "backends": [{"kind": "cue"}, {"kind": "import", "tag": "plm", "runs": runs},
                           *spec["more_backends"]],
              "lexicon": str(root.parent / "lexicon.txt"), "out_dir": "out",
              **{key: spec[key] for key in ("schemes", "seeds", "alpha", "bonferroni_m")}}
    root.mkdir(exist_ok=True)
    path = root / "experiment.json"
    path.write_text(json.dumps(config, indent=2) + suffix, encoding="utf-8")
    return path


REUSE_SCHEMES = ("default", "AD1", "OR1", "OR2")
REUSE_SEEDS = (1, 2, 3, 4)
# One edit of the input, with what it is drawn with: of the config's seeds,
# schemes, backends, alpha or bonferroni_m, of the lexicon's text, of the
# whitespace after the config text, or of one document of a split (relabel
# its last EDU or reword its second).
REUSE_EDITS = st.one_of(
    st.tuples(st.just("add_seed"), st.sampled_from(REUSE_SEEDS[2:])),
    st.tuples(st.just("remove_seed"), st.integers(0, 1)),
    st.tuples(st.just("add_scheme"), st.tuples(st.sampled_from(["AD1", "OR2"]),
                                               st.integers(0, 2))),
    st.tuples(st.just("drop_scheme"), st.integers(0, 1)),
    st.tuples(st.just("reorder_schemes"), st.none()),
    st.tuples(st.just("add_backend"), st.sampled_from(["majority", "cue"])),
    st.tuples(st.just("alpha"), st.floats(0.001, 0.5)),
    st.tuples(st.just("bonferroni_m"), st.integers(6, 12)),
    st.tuples(st.just("lexicon"), st.sampled_from(["because\n", "without\nsince\n"])),
    st.tuples(st.just("whitespace"), st.sampled_from(["\n", "\n\n", " \t\n"])),
    st.tuples(st.just("document"), st.tuples(st.sampled_from(["train", "test"]),
                                             st.integers(0, 5), st.booleans())))


def apply_reuse_edit(top: Path, spec: dict, kind: str, value) -> str:
    """Apply one ``REUSE_EDITS`` edit to ``spec`` or to the files under
    ``top``; what to append to the config text."""
    seeds, schemes = spec["seeds"], spec["schemes"]
    if kind == "add_seed":
        seeds.append(value)
    elif kind == "remove_seed":
        del seeds[value]
    elif kind == "add_scheme":
        schemes.insert(value[1], value[0])
    elif kind == "drop_scheme":
        del schemes[value]
    elif kind == "reorder_schemes":
        schemes.reverse()
    elif kind == "add_backend":  # a second cue backend needs a tag of its own
        spec["more_backends"] = [{"kind": value, "tag": f"{value}2"}]
    elif kind in ("alpha", "bonferroni_m"):
        spec[kind] = value
    elif kind == "lexicon":
        (top / "lexicon.txt").write_text(value, encoding="utf-8")
    elif kind == "document":
        split, index, relabel = value
        doc = sorted((top / "corpus" / split).glob("*.dep"))[index]
        payload = json.loads(doc.read_text(encoding="utf-8"))
        edu = payload["root"][-1 if relabel else 2]
        if relabel:
            edu["relation"] = "contrast" if edu["relation"] == "condition" else "condition"
        else:
            edu["text"] += " again"
        doc.write_text(json.dumps(payload), encoding="utf-8")
    return value if kind == "whitespace" else ""


@settings(max_examples=25, deadline=None)
@given(edit=REUSE_EDITS)
@example(edit=("remove_seed", 1))  # a predict key without the seeds would miss it
def test_rerun_after_an_edit_equals_a_cold_run_of_the_edited_input(edit):
    # Each stage is keyed by what it reads, so a rerun after any one edit
    # redoes what the edit reaches and gives what a cold run of it gives.
    with tempfile.TemporaryDirectory() as tmp:
        top = Path(tmp)
        corpus = write_corpus_dir(top / "corpus", {
            "train": disambiguation_split(5, "tr"), "test": disambiguation_split(3, "te")})
        (top / "lexicon.txt").write_text("without\n", encoding="utf-8")
        gold = build_variant_dataset(load_corpus(corpus, "test"),
                                     ContextScheme("default")).gold_labels()
        labels = ("condition", "contrast", "elaboration")
        for s, scheme in enumerate(REUSE_SCHEMES):  # each seed scores apart
            for seed in REUSE_SEEDS:
                write_predictions(PredictionSet(f"{scheme}+plm", seed, {
                    iid: labels[(labels.index(label) + ((i + s + seed) % 3 == 0)) % 3]
                    for i, (iid, label) in enumerate(sorted(gold.items()))}),
                    top / "runs" / f"{scheme}.run{seed}.jsonl")
        spec = {"schemes": ["default", "OR1"], "seeds": [1, 2], "alpha": 0.05,
                "bonferroni_m": 6, "more_backends": []}

        def run(root: Path, suffix: str = "") -> str:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run_cli("experiment", "--config", reuse_case(root, spec, suffix)) == 0
            return stdout.getvalue()

        run(top / "warm")
        suffix = apply_reuse_edit(top, spec, *edit)
        assert run(top / "warm", suffix) == run(top / "fresh", suffix)
        assert outputs(top / "warm" / "out") == outputs(top / "fresh" / "out")


def test_subcommands_reproduce_experiment_outputs(small_corpus_dir, tmp_path, capsys):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], m=1)
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    variants, preds = out / "variants", out / "predictions"
    for scheme in ("default", "OR1"):
        assert run_cli("evaluate",
                       "--dataset", variants / f"disamb.{scheme}.test.jsonl",
                       "--predictions", *preds.glob(f"{scheme}+cue.*.jsonl"),
                       "--out", tmp_path / "reports") == 0
    assert run_cli("analyze", "--dataset", variants / "disamb.default.test.jsonl",
                   "--preds-a", *preds.glob("default+cue.*.jsonl"),
                   "--preds-b", *preds.glob("OR1+cue.*.jsonl"),
                   "--out", tmp_path / "analysis") == 0
    capsys.readouterr()
    reports = out / "reports"
    assert run_cli("compare", "--reports-a", *reports.glob("OR1+cue.run*.report.json"),
                   "--reports-b", *reports.glob("default+cue.run*.report.json"),
                   "--m", 1) == 0
    [row] = [line.split("\t") for line in
             (out / "significance.tsv").read_text(encoding="utf-8").splitlines()
             if line.startswith("OR1+cue\t")]
    n_eff, w_plus, p, p_adjusted = row[2:6]
    assert f"(effective {n_eff}), W+={w_plus}, p={p}, adjusted p={p_adjusted} (m=1)" \
        in capsys.readouterr().out

    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    assert len(files(out / "reports")) == 2 * 10 * 2
    assert files(tmp_path / "reports") == files(out / "reports")
    assert files(tmp_path / "analysis") == \
        files(out / "analysis" / "cue.default-vs-OR1")


def traced_call(tmp_path: Path, *argv) -> dict:
    """The spans, counts and missing hooks of one CLI call under the traced
    benchmark.  The tracer rebinds drckit functions for the life of its
    process, so it runs in a child process."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, root / "perfbench" / "traced_cli.py",
                    spans, *map(str, argv)], cwd=root, check=True,
                   capture_output=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(root / "src")})
    return json.loads(spans.read_text(encoding="utf-8"))


def test_traced_benchmark_finds_every_hook(tmp_path):
    # A renamed stage function would leave the traced benchmark blind to
    # its layer.
    assert traced_call(tmp_path, "--version")["missing"] == []


def test_traced_cold_experiment_calls_the_pairing_hooks(small_corpus_dir,
                                                        tmp_path):
    # A hook that exists but is never called reads as a layer that got free.
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    trace = traced_call(tmp_path, "experiment", "--config", config)
    calls = Counter(name for name, *_ in trace["spans"])
    analyses = [s for s in stages_run(tmp_path / "out") if s.startswith("analysis:")]
    assert analyses == ["analysis:cue:default-vs-OR1"]
    assert calls["analysis.pair_outcomes"] == len(analyses)
    assert calls["analysis.relation_margins"] == len(analyses)


def loaded_modules(*argv) -> set[str]:
    """The modules one CLI call loads in a fresh interpreter, read at exit."""
    root = Path(__file__).resolve().parents[1]
    code = ("import atexit, json, sys\n"
            "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n"
            "from drckit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          check=True, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    return set(json.loads(proc.stdout.splitlines()[-1]))


STAGE_LAYERS = {f"drckit.{layer}" for layer in
                ("treebank", "context", "inference", "endpoint", "analysis")}


def test_cli_call_imports_only_the_layers_it_runs(small_corpus_dir, tmp_path):
    # http.client (and with it email and ssl) loads when an endpoint run
    # starts, and each pipeline layer when one of its stages runs, not with
    # the CLI.  A warm run reuses the summary, so it loads no
    # scoring code either.  Records are NamedTuples, so no call loads
    # dataclasses, nor the inspect it imports.  OpenSSL's hashes load with
    # the first stage key.
    record_code = {"dataclasses", "inspect"}
    loaded = loaded_modules("--version")
    assert {m for m in loaded if m.startswith("drckit")} == \
        {"drckit", "drckit.cli", "drckit.config", "drckit.fields"}
    assert not {"requests", "urllib3", "http.client", "ssl", "email",
                "concurrent.futures", "hashlib", "_hashlib"} & loaded
    assert not record_code & loaded
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    loaded = loaded_modules("experiment", "--config", config)
    assert "drckit.evaluation" in loaded and not record_code & loaded
    loaded = loaded_modules("experiment", "--config", config)
    assert stages_run(tmp_path / "out") == []
    assert not (STAGE_LAYERS | {"drckit.evaluation", "statistics"} | record_code) \
        & loaded


def test_declaring_the_stages_runs_nothing(small_corpus_dir, tmp_path,
                                           monkeypatch):
    config = experiment_config(
        tmp_path, small_corpus_dir, backends=[{"kind": "cue"}, {"kind": "majority"}],
        schemes=("default", "AD1", "OR1"), seeds=[1, 2], m=4)
    # Declared in a fresh interpreter, with nothing to parse a corpus or give
    # a stage value: no stage may be run or loaded.
    root = Path(__file__).resolve().parents[1]
    code = ("import json, sys\n"
            "from drckit.cli import experiment_stages\n"
            "from drckit.config import load_experiment_config\n"
            "stages = experiment_stages(load_experiment_config(sys.argv[1]),\n"
            "                           {'train': '', 'test': ''}, [], None, None)\n"
            "print(json.dumps([[s.name for s in stages], sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(config)], check=True,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    declared, loaded = json.loads(proc.stdout)
    assert not (STAGE_LAYERS | {"drckit.evaluation"}) & set(loaded)
    assert not (tmp_path / "out").exists()

    walked = []  # the stages a cold run records, in the order it walks them
    save = config_module.RunManifest.save

    def save_and_look(manifest):
        walked[:] = manifest.stages
        save(manifest)
    monkeypatch.setattr(config_module.RunManifest, "save", save_and_look)
    assert run_cli("experiment", "--config", config) == 0
    assert walked == declared
    assert sorted(json.loads((tmp_path / "out" / "manifest.json").read_text(
        encoding="utf-8"))["stages"]) == sorted(declared)
    # 3 schemes x 2 splits of variants; per backend, a predict and a score
    # stage per scheme, and 2 analyses; the summary.
    assert len(declared) == 3 * 2 + 2 * (3 * 2 + 2) + 1


def drckit_child(*argv) -> subprocess.CompletedProcess:
    """One CLI call in a fresh interpreter, with its output as text."""
    root = Path(__file__).resolve().parents[1]
    code = "import sys; from drckit.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})


def test_call_that_records_nothing_loads_no_logging_nor_single_step_code(
        small_corpus_dir, tmp_path):
    # logging is loaded at a call's first record, and the single-step
    # subcommands' module when one of them runs.
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    for argv in (["--version"], ["experiment", "--config", config]):
        assert not {"logging", "drckit.commands"} & loaded_modules(*argv), argv
    assert stages_run(tmp_path / "out") == []
    assert "drckit.commands" in loaded_modules("validate", small_corpus_dir)


@pytest.mark.parametrize("verbose", [[], ["-v"]], ids=["quiet", "verbose"])
def test_torn_manifest_warns_in_logging_s_basic_format(small_corpus_dir, tmp_path,
                                                        verbose):
    config = experiment_config(tmp_path, small_corpus_dir,
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    manifest = tmp_path / "out" / "manifest.json"
    manifest.write_text("{", encoding="utf-8")
    with pytest.raises(ValueError) as torn:
        json.loads("{")
    proc = drckit_child(*verbose, "experiment", "--config", config)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        f"WARNING:drckit.config:{manifest} is not a run manifest, so every stage "
        f"runs again: {torn.value}"]


def test_verbose_shows_the_endpoint_s_resuming_line(small_corpus_dir, tmp_path):
    with MockChatServer(lambda payload, index: (200, "condition")) as server:
        assert infer_endpoint(small_corpus_dir, tmp_path,
                              "--base-url", server.base_url) == 0
        infer = ["infer", "--dataset", tmp_path / "variants" / "test.jsonl",
                 "--train", tmp_path / "variants" / "train.jsonl",
                 "--backend", "endpoint", "--out", tmp_path / "preds",
                 "--base-url", server.base_url]
        quiet, verbose = drckit_child(*infer), drckit_child("-v", *infer)
    log = tmp_path / "preds" / "logs" / "default+endpoint.run0.log.jsonl"
    done = len(log.read_text(encoding="utf-8").splitlines())
    assert (quiet.returncode, verbose.returncode, quiet.stderr) == (0, 0, "")
    assert f"INFO:drckit.endpoint:resuming {log}: {done} done, 0 to go" in \
        verbose.stderr.splitlines()


def test_experiment_unreachable_endpoint_exits_3(small_corpus_dir, tmp_path,
                                                 capsys):
    config = experiment_config(
        tmp_path, small_corpus_dir, seeds=[1], m=1,
        backends=[{"kind": "endpoint", "base_url": "http://127.0.0.1:9",
                   "model": "m", "max_retries": 0, "backoff": 0.001}])
    assert run_cli("experiment", "--config", config) == 3
    assert "endpoint error" in capsys.readouterr().err


def test_endpoint_run_without_train_relations_is_a_data_error(tmp_path):
    # The train split's one EDU hangs off ROOT, so it gives no relation
    # instance and no label to prompt for; the run once ended in an IndexError
    # traceback from a worker thread.
    corpus = write_corpus_dir(tmp_path / "corpus", {
        "train": {"tr": [(0, -1, "null", "ROOT"), (1, 0, "ROOT", "a lone unit .")]},
        "test": {"te": disambiguation_records("condition", 0)[:3]},
    })
    with MockChatServer(lambda payload, index: (200, "condition")) as server:
        config = experiment_config(
            tmp_path, corpus, schemes=("default",), seeds=[1],
            backends=[{"kind": "endpoint", "base_url": server.base_url,
                       "model": "m"}])
        proc = drckit_child("experiment", "--config", config)
        requests = len(server.payloads)
    assert "train 0 instances, test 1 instances" in proc.stdout
    assert proc.returncode == 1
    assert "error: no label to prompt for" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert requests == 0


def test_experiment_abort_saves_completed_stages(small_corpus_dir, tmp_path,
                                                 capsys):
    dead = {"kind": "endpoint", "base_url": "http://127.0.0.1:9", "model": "m",
            "max_retries": 0, "backoff": 0.001}
    config = experiment_config(tmp_path, small_corpus_dir, seeds=[1], m=2,
                               backends=[{"kind": "cue"}, dead])
    for _ in ("cold", "warm"):
        assert run_cli("experiment", "--config", config) == 3
        # The conditions scored before the abort are still printed.
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": mean macro-F1 ")[0] for line in lines[1:]] == \
            ["default+cue", "OR1+cue"]
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text(
        encoding="utf-8"))["stages"]
    kept = [name for name in stages
            if name.startswith("variants:") or "cue" in name]
    assert len(kept) == 4 + 2 + 2 + 1  # variants, predict, score, analysis
    assert all(stages[name]["reused"] for name in kept)


@pytest.fixture
def echo_corpus_dir(tmp_path: Path) -> Path:
    """A corpus whose every dependent EDU has its own text, so a mock can
    answer each prompt with the gold label of its target."""
    labels = ("condition", "contrast")

    def docs(split, n):
        return {f"{split}-{k}": [
            (0, -1, "null", "ROOT"),
            (1, 0, "ROOT", f"{split} document {k} opens ."),
            (2, 1, labels[k % 2], f"{split} {k} second ."),
            (3, 1, labels[(k + 1) % 2], f"{split} {k} third ."),
        ] for k in range(n)}
    return write_corpus_dir(tmp_path / "echo", {"train": docs("train", 4),
                                                "test": docs("test", 3)})


def gold_echo(corpus_dir: Path):
    """Mock behaviour that names the gold label of each prompt's target, and
    the number of test instances."""
    test = build_variant_dataset(load_corpus(corpus_dir, "test"),
                                 ContextScheme("default"))
    assert len({inst.arg2_text for inst in test.instances}) == len(test.instances)
    return gold_echo_behavior(test), len(test.instances)


def mock_config(directory: Path, corpus_dir: Path, server: MockChatServer,
                schemes=("default", "OR1"), seeds=(1, 2)) -> Path:
    directory.mkdir(exist_ok=True)
    return experiment_config(
        directory, corpus_dir, schemes=schemes, seeds=list(seeds),
        m=len(schemes) - 1,
        backends=[{"kind": "endpoint", "base_url": server.base_url,
                   "model": "mock", "max_retries": 0, "backoff": 0.001}])


def test_experiment_endpoint_reuses_and_resumes(echo_corpus_dir, tmp_path):
    gold, n_instances = gold_echo(echo_corpus_dir)
    total = 2 * 2 * n_instances  # schemes x seeds x instances

    def config(directory, server):
        return mock_config(directory, echo_corpus_dir, server)

    with MockChatServer(gold) as server:
        cold = config(tmp_path / "cold", server)
        assert run_cli("experiment", "--config", cold) == 0
        assert len(server.payloads) == total
        cold_outputs = outputs(tmp_path / "cold" / "out")
        assert run_cli("experiment", "--config", cold) == 0
        assert len(server.payloads) == total
        assert outputs(tmp_path / "cold" / "out") == cold_outputs

    answers = n_instances + 2  # the abort falls inside the second run
    with MockChatServer(lambda payload, index: (401, None) if index >= answers
                        else gold(payload, index)) as server:
        resumed = config(tmp_path / "resumed", server)
        assert run_cli("experiment", "--config", resumed) == 3
        logs = tmp_path / "resumed" / "out" / "logs"
        logged = sum(len(p.read_text(encoding="utf-8").splitlines())
                     for p in logs.iterdir())
        assert logged == answers
        server.behavior = gold
        requested = len(server.payloads)
        assert run_cli("experiment", "--config", resumed) == 0
        assert len(server.payloads) - requested == total - logged
    resumed_outputs = outputs(tmp_path / "resumed" / "out")
    assert resumed_outputs.keys() == cold_outputs.keys()
    for name, content in cold_outputs.items():
        if name.startswith("logs/"):  # a log holds records in completion order
            assert sorted(resumed_outputs[name].splitlines()) == \
                sorted(content.splitlines()), name
        else:
            assert resumed_outputs[name] == content, name


def test_experiment_resumes_a_condition_cut_short_from_its_logs(echo_corpus_dir,
                                                                tmp_path):
    # A 401 partway through seed 2 leaves seed 1's file and log complete.
    # The rerun of the condition's predict stage answers seed 1 from its log
    # and sends only seed 2's missing requests.
    gold, n_instances = gold_echo(echo_corpus_dir)

    def heads(payloads):
        """The prompts less their last line, the target: one per seed."""
        return {p["messages"][0]["content"].rsplit("\n", 1)[0] for p in payloads}

    def config(directory, server):
        return patch_config(mock_config(directory, echo_corpus_dir, server,
                                        schemes=["default"]), bonferroni_m=1)

    with MockChatServer(gold) as server:
        assert run_cli("experiment", "--config", config(tmp_path / "fresh", server)) == 0
    answers = n_instances + 2
    with MockChatServer(lambda payload, index: (401, None) if index >= answers
                        else gold(payload, index)) as server:
        cut = config(tmp_path / "cut", server)
        assert run_cli("experiment", "--config", cut) == 3
        out = tmp_path / "cut" / "out"
        assert sorted(p.name for p in (out / "predictions").iterdir()) == \
            ["default+mock.run1.jsonl"]
        seed_1, seed_2 = heads(server.payloads[:n_instances]), \
            heads(server.payloads[n_instances:])
        assert len(seed_1) == len(seed_2) == 1 and seed_1 != seed_2
        server.behavior = gold
        requested = len(server.payloads)
        assert run_cli("experiment", "--config", cut) == 0
        rerun = server.payloads[requested:]
    assert len(rerun) == n_instances - 2 and heads(rerun) == seed_2
    resumed, fresh = outputs(out), outputs(tmp_path / "fresh" / "out")
    assert resumed.keys() == fresh.keys()
    for name, content in fresh.items():
        if name.startswith("logs/"):  # a log holds records in completion order
            assert sorted(resumed[name].splitlines()) == sorted(content.splitlines())
        else:
            assert resumed[name] == content, name


def test_experiment_upgrades_an_out_dir_of_per_seed_stages_in_place(
        echo_corpus_dir, tmp_path, capsys):
    # drckit once recorded a predict and a score stage per (condition, seed).
    # An out/ whose manifest names those reruns its predict, score, analysis
    # and summary stages once: no request is sent and no output rewritten.
    gold, _ = gold_echo(echo_corpus_dir)
    out, manifest = tmp_path / "out", tmp_path / "out" / "manifest.json"

    def mtimes():
        return {path: path.stat().st_mtime_ns for path in out.rglob("*")
                if path.is_file() and path != manifest}

    with MockChatServer(gold) as server:
        config = mock_config(tmp_path, echo_corpus_dir, server, seeds=(1, 2))
        endpoint = json.loads(config.read_text(encoding="utf-8"))["backends"]
        patch_config(config, bonferroni_m=2, backends=[{"kind": "cue"}, *endpoint])
        assert run_cli("experiment", "--config", config) == 0
        cold_stdout = capsys.readouterr().out
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        per_seed = {}
        for name, entry in payload["stages"].items():
            if name.startswith(("predict:", "score:")):
                per_seed.update((f"{name}:{seed}", entry) for seed in (1, 2))
            else:
                per_seed[name] = entry
        manifest.write_text(json.dumps({**payload, "stages": per_seed}),
                            encoding="utf-8")
        before, sent = mtimes(), len(server.payloads)
        assert run_cli("experiment", "--config", config) == 0
        assert capsys.readouterr().out == cold_stdout
        assert len(server.payloads) == sent
        assert mtimes() == before
        assert stages_run(out) == sorted(name for name in payload["stages"]
                                         if not name.startswith("variants:"))
        assert run_cli("experiment", "--config", config) == 0
    assert stages_run(out) == []
    assert capsys.readouterr().out == cold_stdout


def test_experiment_upgrades_an_out_dir_under_one_run_key_in_place(
        echo_corpus_dir, tmp_path, capsys):
    # drckit once keyed every stage by one run key, recorded beside the stages,
    # which themselves held no key.  Such an out/ reruns each stage once: no
    # request is sent and no output rewritten.
    gold, _ = gold_echo(echo_corpus_dir)
    out, manifest = tmp_path / "out", tmp_path / "out" / "manifest.json"

    def mtimes():
        return {path: path.stat().st_mtime_ns for path in out.rglob("*")
                if path.is_file() and path != manifest}

    with MockChatServer(gold) as server:
        config = mock_config(tmp_path, echo_corpus_dir, server, seeds=(1, 2))
        endpoint = json.loads(config.read_text(encoding="utf-8"))["backends"]
        patch_config(config, bonferroni_m=2, backends=[{"kind": "cue"}, *endpoint])
        assert run_cli("experiment", "--config", config) == 0
        cold_stdout = capsys.readouterr().out
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        for entry in (*payload["stages"].values(), payload["ingest"]):
            entry.pop("key", None)  # a score stage has none
        manifest.write_text(json.dumps({**payload, "run_key": "0" * 64}),
                            encoding="utf-8")
        before, sent = mtimes(), len(server.payloads)
        assert run_cli("experiment", "--config", config) == 0
        assert capsys.readouterr().out == cold_stdout
        assert len(server.payloads) == sent
        assert mtimes() == before
        assert stages_run(out) == sorted(payload["stages"])
        assert run_cli("experiment", "--config", config) == 0
    assert stages_run(out) == []
    assert capsys.readouterr().out == cold_stdout


def test_experiment_saves_manifest_after_each_endpoint_predict_stage(
        echo_corpus_dir, tmp_path):
    # A process killed inside the second condition keeps the first one's
    # predict stage.
    gold, n_instances = gold_echo(echo_corpus_dir)
    manifest = tmp_path / "out" / "manifest.json"
    seen = {}

    def gold_and_look(payload, index):
        if index == n_instances:  # the first request of OR1+mock
            seen["stages"] = json.loads(
                manifest.read_text(encoding="utf-8"))["stages"]
        return gold(payload, index)

    with MockChatServer(gold_and_look) as server:
        config = mock_config(tmp_path, echo_corpus_dir, server, seeds=[1])
        assert run_cli("experiment", "--config", config) == 0
    assert "predict:default+mock" in seen["stages"]
    assert "predict:OR1+mock" not in seen["stages"]


def test_experiment_abort_forgets_stages_it_did_not_reach(echo_corpus_dir,
                                                           tmp_path):
    # The rerun of default's predictions completes and the run then aborts
    # in AD1's, before the analysis of OR1 against default, which reads the
    # new predictions.  That analysis must not be reused next time.
    gold, n_instances = gold_echo(echo_corpus_dir)
    flip = {"condition": "contrast", "contrast": "condition"}
    first = 0  # the index of the first request after the switch

    def wrong_then_401(payload, index):
        if index >= first + n_instances:
            return 401, None
        answer = gold(payload, index)[1]
        return 200, f"the answer is {flip[answer.rsplit(' ', 1)[1]]}"

    with MockChatServer(gold) as server:
        config = mock_config(tmp_path, echo_corpus_dir, server,
                             schemes=("default", "OR1", "AD1"), seeds=[1])
        assert run_cli("experiment", "--config", config) == 0
        out = tmp_path / "out"
        for condition in ("default+mock", "AD1+mock"):
            (out / "predictions" / f"{condition}.run1.jsonl").unlink()
            (out / "logs" / f"{condition}.run1.log.jsonl").unlink()
        first = len(server.payloads)
        server.behavior = wrong_then_401
        assert run_cli("experiment", "--config", config) == 3
        assert len(server.payloads) == first + n_instances + 1
        server.behavior = gold
        assert run_cli("experiment", "--config", config) == 0
    assert "analysis:mock:default-vs-OR1" in stages_run(out)
    assert run_cli("analyze",
                   "--dataset", out / "variants" / "disamb.default.test.jsonl",
                   "--preds-a", out / "predictions" / "default+mock.run1.jsonl",
                   "--preds-b", out / "predictions" / "OR1+mock.run1.jsonl",
                   "--out", tmp_path / "analysis") == 0
    for name in ("margins.tsv", "connectives.tsv"):
        assert (tmp_path / "analysis" / name).read_bytes() == \
            (out / "analysis" / "mock.default-vs-OR1" / name).read_bytes()


def test_experiment_reads_a_bad_lexicon_before_any_request(echo_corpus_dir,
                                                           tmp_path, capsys):
    lexicon = tmp_path / "bad.txt"
    lexicon.write_bytes(b"because\n\xff\n")
    gold, _ = gold_echo(echo_corpus_dir)
    with MockChatServer(gold) as server:
        config = patch_config(mock_config(tmp_path, echo_corpus_dir, server),
                              lexicon=str(lexicon))
        assert run_cli("experiment", "--config", config) == 1
        assert server.payloads == []
    assert capsys.readouterr().err.startswith(
        f"error: {lexicon}: 'utf-8' codec can't decode byte 0xff in position 8")
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("first", ["endpoint", "cue"])
def test_experiment_reads_a_bad_import_source_before_any_stage_runs(
        echo_corpus_dir, tmp_path, capsys, first):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"instance_id": 3}\n', encoding="utf-8")
    gold, _ = gold_echo(echo_corpus_dir)
    with MockChatServer(gold) as server:
        config = mock_config(tmp_path, echo_corpus_dir, server, seeds=[1])
        backends = json.loads(config.read_text(encoding="utf-8"))["backends"]
        patch_config(config, bonferroni_m=2, backends=[
            *(backends if first == "endpoint" else [{"kind": "cue"}]),
            {"kind": "import", "runs": {"default": [str(bad)], "OR1": [str(bad)]}}])
        assert run_cli("experiment", "--config", config) == 1
        assert server.payloads == []
    assert capsys.readouterr().err == \
        f"error: {bad}:1: malformed record: instance_id 3 is not a string\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_experiment_failed_check_leaves_the_manifest_as_it_was(echo_corpus_dir,
                                                               tmp_path):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("because\n", encoding="utf-8")
    gold, _ = gold_echo(echo_corpus_dir)
    manifest = tmp_path / "out" / "manifest.json"
    with MockChatServer(gold) as server:
        config = patch_config(mock_config(tmp_path, echo_corpus_dir, server),
                              lexicon=str(lexicon))
        assert run_cli("experiment", "--config", config) == 0
        healthy, requested = manifest.read_bytes(), len(server.payloads)
        lexicon.write_bytes(b"because\n\xff\n")
        assert run_cli("experiment", "--config", config) == 1
        assert len(server.payloads) == requested
    assert manifest.read_bytes() == healthy


def test_rerun_on_reused_variants_samples_the_cold_run_icl_examples(tmp_path):
    # Document order is not id order ("t1:001" > "t10:001"), and the rerun
    # reads the train variant back from its file.
    labels = ("cause", "contrast")

    def docs(prefix):
        return {f"{prefix}{k}": [(0, -1, "null", "ROOT"),
                                 (1, 0, "ROOT", f"{prefix}{k} opens .")] +
                [(i, i - 1, labels[i % 2], f"{prefix}{k} unit {i} .")
                 for i in range(2, 7)]
                for k in (1, 2, 10, 11)}

    corpus_dir = write_corpus_dir(tmp_path / "corpus",
                                  {"train": docs("t"), "test": docs("d")})
    out = tmp_path / "out"
    with MockChatServer(lambda payload, index: (200, "cause")) as server:
        config = experiment_config(
            tmp_path, corpus_dir, schemes=["default"], seeds=[1],
            backends=[{"kind": "endpoint", "base_url": server.base_url,
                       "model": "mock"}])
        assert run_cli("experiment", "--config", config) == 0
        cold = list(server.payloads)
        (out / "predictions" / "default+mock.run1.jsonl").unlink()
        (out / "logs" / "default+mock.run1.log.jsonl").unlink()
        assert run_cli("experiment", "--config", config) == 0
        rerun = server.payloads[len(cold):]
    assert stages_run(out) == ["predict:default+mock", "score:default+mock", "summary"]

    def heads(payloads):
        """Each prompt less its last line, the target."""
        return [p["messages"][0]["content"].splitlines()[:-1] for p in payloads]

    assert len(cold) == len(rerun) == 20
    assert heads(rerun) == heads(cold) == heads(cold[:1]) * 20


def test_data_error_exits_1(tmp_path, capsys):
    assert run_cli("validate", tmp_path / "nowhere") == 1
    assert "error" in capsys.readouterr().err


# Holds an exclusive flock on the directory argv[1], as a drckit run holds its
# run directory, until its stdin closes or it is killed.
HOLD_LOCK = """\
import fcntl, os, sys
fd = os.open(sys.argv[1], os.O_RDONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("held", flush=True)
sys.stdin.read()
"""


def hold_lock(directory: Path) -> subprocess.Popen:
    holder = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(directory)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    assert holder.stdout.readline() == b"held\n"
    return holder


def release(holder: subprocess.Popen, how: str) -> None:
    if how == "killed":
        holder.kill()
    holder.stdin.close()
    holder.wait(timeout=30)
    holder.stdout.close()


@pytest.mark.parametrize("how", ["exits", "killed"])
def test_experiment_on_a_run_dir_in_use_exits_1_before_any_stage(
        small_corpus_dir, tmp_path, capsys, how):
    out = tmp_path / "out"
    with MockChatServer(lambda payload, index: (200, "cause")) as server:
        config = experiment_config(
            tmp_path, small_corpus_dir, schemes=["default"], seeds=[1],
            backends=[{"kind": "endpoint", "base_url": server.base_url,
                       "model": "mock"}])
        assert run_cli("experiment", "--config", config) == 0
        # A rerun now has requests to send.
        (out / "predictions" / "default+mock.run1.jsonl").unlink()
        (out / "logs" / "default+mock.run1.log.jsonl").unlink()
        manifest = (out / "manifest.json").read_bytes()
        sent = len(server.payloads)
        capsys.readouterr()
        holder = hold_lock(out)
        try:
            assert run_cli("experiment", "--config", config) == 1
        finally:
            release(holder, how)
        assert capsys.readouterr().err == \
            f"error: {out} is in use by another drckit run\n"
        assert len(server.payloads) == sent
        assert (out / "manifest.json").read_bytes() == manifest
        assert run_cli("experiment", "--config", config) == 0
        assert len(server.payloads) > sent
    assert stages_run(out) == ["predict:default+mock", "score:default+mock", "summary"]
    # The lock leaves no file behind.
    assert sorted(p.name for p in out.iterdir()) == [
        "logs", "manifest.json", "predictions", "reports", "results_table.txt",
        "variants"]


def test_endpoint_infer_into_a_dir_in_use_exits_1_without_a_request(
        small_corpus_dir, tmp_path, capsys):
    preds = tmp_path / "preds"
    preds.mkdir()
    with MockChatServer(lambda payload, index: (200, "cause")) as server:
        holder = hold_lock(preds)
        try:
            assert infer_endpoint(small_corpus_dir, tmp_path,
                                  "--base-url", server.base_url) == 1
        finally:
            release(holder, "exits")
        assert server.payloads == []
        assert f"error: {preds} is in use by another drckit run" \
            in capsys.readouterr().err
        assert os.listdir(preds) == []
        assert infer_endpoint(small_corpus_dir, tmp_path,
                              "--base-url", server.base_url) == 0
        assert server.payloads
