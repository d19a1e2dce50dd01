from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from drckit.cli import main
from drckit.context import (ContextScheme, RenderedInstance, VariantDataset,
                            build_variant_dataset, write_variant_dataset)
from drckit.endpoint import EndpointConfig
from drckit.evaluation import score
from drckit.inference import (
    UNPARSED,
    ICLExample,
    PredictionSet,
    build_prompt,
    endpoint_predictions,
    import_predictions,
    parse_llm_output,
    predict_baseline,
    prompt_prefix,
    sample_icl_examples,
    train_baseline,
    write_predictions,
)
from drckit.treebank import Corpus

from conftest import assert_fault_reported, tree_from
from oracles import cue_baseline
from test_analysis import TEXTS as CONNECTIVE_TEXTS

GOLDEN_DIR = Path(__file__).parent / "goldens"

DEFAULT = ContextScheme("default")
OR1 = ContextScheme("oracle", 1)


def rendered(instance_id, arg1, arg2, label, context=""):
    return RenderedInstance(instance_id=instance_id, context_text=context,
                            arg1_text=arg1, arg2_text=arg2, gold_label=label)


def dataset_of(instances, inventory=None, scheme=DEFAULT, split="train"):
    if inventory is None:
        inventory = tuple(sorted({i.gold_label for i in instances}))
    return VariantDataset("fix", scheme, split, tuple(instances),
                          tuple(inventory))


TWO_LABEL_EXAMPLES = (
    ICLExample("we evaluate on two treebanks",
               "without tuning any hyperparameters .", "condition"),
    ICLExample("the approach is simple",
               "but coverage drops on long documents .", "contrast"),
)

THREE_LABEL_EXAMPLES = (
    ICLExample("the authors argue",
               "that context matters for classification .", "attribution"),
    ICLExample("parsing has a long history",
               "early systems used hand written rules .", "background"),
    ICLExample("we release the corpus",
               "and provide evaluation scripts .", "elab-addition"),
)


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_prompt_two_labels_default_matches_golden():
    target = rendered("t:001", "because it can compute a single node similarity",
                      "without having to compute the similarities of the entire graph .",
                      "condition")
    prefix = prompt_prefix(("condition", "contrast"), TWO_LABEL_EXAMPLES)
    assert build_prompt(prefix, target) == golden("prompt_two_label_default.txt")


def test_prompt_two_labels_context_matches_golden():
    target = rendered("t:001", "because it can compute a single node similarity",
                      "without having to compute the similarities of the entire graph .",
                      "condition", context="that is efficient ...")
    prefix = prompt_prefix(("condition", "contrast"), TWO_LABEL_EXAMPLES)
    assert build_prompt(prefix, target) == golden("prompt_two_label_context.txt")


def test_prompt_three_labels_default_matches_golden():
    target = rendered("t:002", "the model predicts a relation",
                      "for every pair of units .", "background")
    prefix = prompt_prefix(("attribution", "background", "elab-addition"),
                           THREE_LABEL_EXAMPLES)
    assert build_prompt(prefix, target) == golden("prompt_three_label_default.txt")


def test_prompt_three_labels_context_matches_golden():
    target = rendered("t:002", "the model predicts a relation",
                      "for every pair of units .", "background",
                      context="we present a toolkit for discourse analysis .")
    prefix = prompt_prefix(("attribution", "background", "elab-addition"),
                           THREE_LABEL_EXAMPLES)
    assert build_prompt(prefix, target) == golden("prompt_three_label_context.txt")


def test_prompt_with_one_label_is_line_1_and_the_target():
    prefix = prompt_prefix(("cause",), (ICLExample(
        "we evaluate on two treebanks", "because the data is small .", "cause"),))
    target = rendered("t:004", "the scores drop", "since the documents are long .",
                      "cause")
    assert build_prompt(prefix, target) == (
        "Replace the MASK token (a discourse relation) by selecting only one of "
        "the following labels: [ cause] Examples: Passage 1: <we evaluate on two "
        "treebanks>, Passage 2: <because the data is small .>, connective: <none> "
        "| cause\n"
        "Passage 1: <the scores drop>, Passage 2: <since the documents are long .>, "
        "connective: <none> | [MASK]")


def test_prompt_spec_requires_one_example_per_label():
    for inventory, examples, message in [
            (("condition", "contrast"), TWO_LABEL_EXAMPLES[:1], "one example per label"),
            (("contrast", "condition"), TWO_LABEL_EXAMPLES, "in inventory order"),
            ((), (), "no label to prompt for")]:
        with pytest.raises(ValueError, match=message):
            prompt_prefix(inventory, examples)


def test_prompt_empty_context_passage_equals_arg1():
    prefix = prompt_prefix(("condition", "contrast"), TWO_LABEL_EXAMPLES)
    target = rendered("t:003", "plain argument one", "arg two .", "contrast")
    last_line = build_prompt(prefix, target).splitlines()[-1]
    assert last_line.startswith("Passage 1: <plain argument one>,")


def test_sample_icl_single_candidate_forced():
    train = dataset_of([rendered("a:001", "x", "y", "onlylabel")])
    [example] = sample_icl_examples(train, seed=7)
    assert example.label == "onlylabel"
    assert example.arg1 == "x"


def test_sample_icl_deterministic():
    instances = [rendered(f"a:{i:03d}", f"arg{i}", f"b{i}",
                          ["cause", "joint"][i % 2]) for i in range(20)]
    train = dataset_of(instances)
    assert sample_icl_examples(train, seed=3) == sample_icl_examples(train, seed=3)
    sweep = {sample_icl_examples(train, seed=s) for s in range(30)}
    assert len(sweep) > 1  # different seeds reach different picks


def test_sample_icl_one_per_label_over_seed_sweep():
    instances = []
    for label_index, label in enumerate(["l0", "l1", "l2"]):
        for k in range(10):
            instances.append(rendered(f"a:{label_index}{k:02d}",
                                      f"arg {label_index}", f"b {k}", label))
    train = dataset_of(instances)
    for seed in range(100):
        picks = sample_icl_examples(train, seed)
        assert [p.label for p in picks] == ["l0", "l1", "l2"]
        assert len(picks) == 3


def test_sample_icl_missing_label_errors():
    train = dataset_of([rendered("a:001", "x", "y", "cause")],
                       inventory=("cause", "ghost"))
    with pytest.raises(ValueError, match="ghost"):
        sample_icl_examples(train, seed=1)


def test_sample_icl_context_rides_in_example():
    train = dataset_of([rendered("a:001", "head text", "dep text", "cause",
                                 context="parent text")],
                       scheme=OR1)
    [example] = sample_icl_examples(train, seed=0)
    assert example.arg1 == "parent text head text"


#: A SciDTB-style relation inventory.
SCIDTB_LABELS = ["attribution", "background", "cause", "comparison", "condition",
                 "contrast", "elab-addition", "enablement", "evaluation", "joint",
                 "manner-means", "progression", "result", "summary", "temporal"]


@pytest.mark.parametrize("text, inventory, expected", [
    ("condition", ["condition", "contrast"], "condition"),
    ("The relation is elab-addition.", ["elab-addition", "elab-aspect"],
     "elab-addition"),
    ("no idea", ["condition", "contrast"], UNPARSED),
    ("CONTRAST!", ["condition", "contrast"], "contrast"),
    ("elab-addition", ["elab", "elab-addition"], "elab-addition"),
    ("I think contrast, maybe condition", ["condition", "contrast"], "contrast"),
    ("", ["condition"], UNPARSED),
    ("Because the second passage contrasts, the answer is contrast.",
     SCIDTB_LABELS, "contrast"),
    ("unconditional: temporal", SCIDTB_LABELS, "temporal"),
    ("condition", [], UNPARSED),
])
def test_parse_llm_output(text, inventory, expected):
    assert parse_llm_output(text, inventory) == expected


def test_majority_baseline_predicts_single_label():
    train = dataset_of([rendered(f"a:{i:03d}", "x", "y", "joint")
                        for i in range(5)])
    model = train_baseline(train, "majority")
    test = dataset_of([rendered("t:001", "p", "q", "cause")],
                      inventory=train.label_inventory, split="test")
    preds = predict_baseline(model, test, "default+majority")
    assert preds.records == {"t:001": "joint"}


def test_majority_tie_breaks_lexicographically():
    train = dataset_of([rendered("a:001", "x", "y", "zeta"),
                        rendered("a:002", "x", "y", "alpha")])
    assert train_baseline(train, "majority").majority_label == "alpha"


def test_cue_baseline_learns_arg2_first_token():
    # "without" labels condition twice, contrast once
    train = dataset_of([
        rendered("a:001", "h1", "without x .", "condition"),
        rendered("a:002", "h2", "Without y .", "condition"),
        rendered("a:003", "h3", "without z .", "contrast"),
        rendered("a:004", "h4", "but w .", "contrast"),
    ])
    model = train_baseline(train, "cue")
    test = dataset_of([rendered("t:001", "p", "without anything .", "contrast")],
                      inventory=train.label_inventory, split="test")
    preds = predict_baseline(model, test, "default+cue")
    assert preds.records["t:001"] == "condition"


def test_cue_baseline_backs_off_to_majority():
    train = dataset_of([
        rendered("a:001", "h", "without x .", "cause"),
        rendered("a:002", "h", "while y .", "joint"),
        rendered("a:003", "h", "while z .", "joint"),
    ])
    model = train_baseline(train, "cue")
    test = dataset_of([rendered("t:001", "p", "never seen .", "cause")],
                      inventory=train.label_inventory, split="test")
    preds = predict_baseline(model, test, "default+cue")
    assert preds.records["t:001"] == "joint"


def test_cue_baseline_uses_context_token():
    # identical arg2 cue, context token decides the label
    train_ctx = dataset_of([
        rendered("a:001", "h", "without x .", "condition",
                 context="efficient path ."),
        rendered("a:002", "h", "without y .", "contrast",
                 context="compared path ."),
    ], scheme=OR1)
    model = train_baseline(train_ctx, "cue")
    test = dataset_of([
        rendered("t:001", "p", "without q .", "condition",
                 context="efficient route ."),
        rendered("t:002", "p", "without r .", "contrast",
                 context="compared route ."),
    ], inventory=train_ctx.label_inventory, scheme=OR1, split="test")
    preds = predict_baseline(model, test, "OR1+cue")
    assert preds.records == {"t:001": "condition", "t:002": "contrast"}


# Texts that share words, so cues repeat, tie and back off, beside texts
# with Unicode spaces, words that are only punctuation, and no word at all.
CUE_TEXTS = st.one_of(st.sampled_from(["However, it", "however", "( CC )", "...",
                                       "but\u3000then", "", "\u2028so ."]),
                      CONNECTIVE_TEXTS)
CUE_ROWS = st.lists(st.tuples(CUE_TEXTS, CUE_TEXTS,
                              st.sampled_from(["cause", "contrast", "joint"])),
                    min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(CUE_ROWS, CUE_ROWS, st.sampled_from([DEFAULT, OR1]))
def test_cue_baseline_equals_the_counter_oracle(train_rows, test_rows, scheme):
    def dataset(rows, split):
        # The default scheme renders no context.
        return dataset_of([rendered(f"{split}:{k:03d}", "arg1", arg2, label,
                                    context if scheme.kind != "default" else "")
                           for k, (arg2, context, label) in enumerate(rows)],
                          inventory=("cause", "contrast", "joint"),
                          scheme=scheme, split=split)
    train, test = dataset(train_rows, "train"), dataset(test_rows, "test")
    majority, cue_table, records = cue_baseline(train.instances, test.instances)
    model = train_baseline(train, "cue")
    assert (model.majority_label, model.cue_table) == (majority, cue_table)
    assert predict_baseline(model, test, "c").records == records
    assert predict_baseline(train_baseline(train, "majority"), test, "m").records \
        == dict.fromkeys(records, majority)


def test_cue_baseline_reads_however_with_and_without_comma_as_one_cue():
    # The connective analysis's first-word rule: case and punctuation aside,
    # "However," and "however" open their EDUs with one word.
    def corpus(split, dependents):
        return Corpus("hw", split, tuple(tree_from(
            [(0, -1, "null", "ROOT"), (1, 0, "ROOT", f"we study problem {k} ."),
             (2, 1, label, text)], f"{split}{k}")
            for k, (label, text) in enumerate(dependents)))

    train = corpus("train", [("contrast", "However, the gain vanishes ."),
                             ("contrast", "However, it is slow ."),
                             ("condition", "if the graph is sparse ."),
                             ("condition", "if n is small ."),
                             ("condition", "if it halts .")])
    test = corpus("test", [("contrast", "however the bound is loose ."),
                           ("contrast", "however it holds ."),
                           ("condition", "if the graph is dense ."),
                           ("condition", "if n is large .")])
    train_ds = build_variant_dataset(train, DEFAULT)
    model = train_baseline(train_ds, "cue")
    assert set(model.cue_table) == {("however",), ("if",)}
    test_ds = build_variant_dataset(test, DEFAULT, train_ds.label_inventory)
    preds = predict_baseline(model, test_ds, "default+cue")
    assert score(test_ds, preds).macro_f1 == 1.0


def test_baselines_are_pure():
    train = dataset_of([rendered(f"a:{i:03d}", "x", f"tok{i % 3} y", f"l{i % 2}")
                        for i in range(12)])
    assert train_baseline(train, "cue") == train_baseline(train, "cue")
    assert train_baseline(train, "majority") == train_baseline(train, "majority")


def test_train_baseline_rejects_unknown_kind_and_empty():
    train = dataset_of([rendered("a:001", "x", "y", "cause")])
    with pytest.raises(ValueError, match="unknown baseline"):
        train_baseline(train, "neural")
    empty = VariantDataset("fix", DEFAULT, "train", (), ("cause",))
    with pytest.raises(ValueError, match="empty"):
        train_baseline(empty, "majority")


def make_test_dataset():
    instances = [rendered(f"t:{i:03d}", f"h{i}", f"d{i}",
                          ["cause", "joint"][i % 2])
                 for i in range(6)]
    return dataset_of(instances, split="test")


def test_predictions_file_round_trip(tmp_path):
    dataset = make_test_dataset()
    preds = PredictionSet("default+x", 3, dataset.gold_labels())
    path = tmp_path / "preds.jsonl"
    write_predictions(preds, path)
    again = import_predictions(path, dataset)
    assert again.records == preds.records
    assert again.condition == "default+x"
    assert again.run_id == 3


# Characters a JSON encoder escapes or must leave alone under
# ensure_ascii=False, mixed with any other text.
TRICKY = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\r", "\t",
                     "\u2028", "\u2029", "é", "中", "😀"]),
    st.characters(codec="utf-8")), max_size=12)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.dictionaries(TRICKY, TRICKY, max_size=8),
       condition=TRICKY,
       run_id=st.one_of(st.sampled_from([0, 2**63, 10**30]),
                        st.integers(min_value=0)))
def test_write_predictions_writes_json_dumps_lines(tmp_path, records, condition,
                                                   run_id):
    path = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet(condition, run_id, records), path)
    expected = [json.dumps({"instance_id": instance_id,
                            "predicted_label": records[instance_id],
                            "condition": condition, "run_id": run_id},
                           ensure_ascii=False)
                for instance_id in sorted(records)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


@pytest.mark.parametrize("run_id, detail", [
    ('"1"', "run_id '1' is not an integer"),
    ("1.5", "run_id 1.5 is not an integer"),
    ('"abc"', "run_id 'abc' is not an integer"),
    ("true", "run_id True is not an integer"),
], ids=["string", "float", "not_a_number", "bool"])
def test_import_rejects_run_id_that_is_not_an_integer(tmp_path, run_id, detail):
    # Every line carries the same run_id, so none of them is mixed.
    dataset = make_test_dataset()
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(
        f'{{"instance_id": "{instance_id}", "predicted_label": "cause", '
        f'"run_id": {run_id}}}\n'
        for instance_id in dataset.instance_ids()), encoding="utf-8")
    with pytest.raises(ValueError,
                       match=rf"preds\.jsonl:1: malformed record: {detail}"):
        import_predictions(path, dataset)


def test_import_shares_dataset_strings(tmp_path):
    # Loaded sets stay alive through a whole experiment; their keys and
    # labels must be the dataset's own strings, not per-file copies.
    dataset = make_test_dataset()
    path = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet("c", 0, dataset.gold_labels()), path)
    preds = import_predictions(path, dataset)
    ids = {id(i) for i in dataset.instance_ids()}
    labels = {id(lbl) for lbl in dataset.label_inventory}
    assert all(id(i) in ids for i in preds.records)
    assert all(id(lbl) in labels for lbl in preds.records.values())


@pytest.mark.parametrize("bad_line, detail", [
    ('{"instance_id": "t:001", "condition": "c"}', "missing field 'predicted_label'"),
    ('{"instance_id": "t:001", ', "Expecting"),
    ('["t:001", "joint"]', ""),
    ('{"instance_id": "t:001", "predicted_label": "joint", "condition": ["x"]}',
     r"condition \['x'\] is not a string"),
    ('{"instance_id": "t:001", "predicted_label": null}',
     "predicted_label None is not a string"),
    ('{"instance_id": "t:001", "predicted_label": 3}',
     "predicted_label 3 is not a string"),
    ('{"instance_id": "t:001", "predicted_label": ["x"]}',
     r"predicted_label \['x'\] is not a string"),
    ('{"instance_id": ["x"], "predicted_label": "joint"}',
     r"instance_id \['x'\] is not a string"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
    ('{"instance_id": "t:001", "predicted_label": "\udcff"}',
     "'utf-8' codec can't decode byte 0xff"),
], ids=["missing_field", "not_json", "not_object", "condition_not_string",
        "label_null", "label_number", "label_list", "instance_id_list",
        "deeply_nested", "not_utf8"])
def test_import_malformed_record_names_path_and_line(tmp_path, bad_line, detail):
    dataset = make_test_dataset()
    path = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet("c", 0, dataset.gold_labels()), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = bad_line
    # A lone surrogate escape writes the byte it stands for: "\udcff" is 0xff.
    path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                    errors="surrogateescape")
    with pytest.raises(ValueError,
                       match=rf"preds\.jsonl:2: malformed record: {detail}"):
        import_predictions(path, dataset)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.dictionaries(TRICKY, TRICKY, min_size=1, max_size=8),
       condition=TRICKY)
def test_predictions_file_round_trips_any_text(tmp_path, records, condition):
    # U+2028, U+2029 and U+0085 stay raw in a JSON string; they must not
    # end a record.
    dataset = dataset_of([rendered(iid, "h", "d", label)
                          for iid, label in records.items()])
    path = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet(condition, 7, records), path)
    again = import_predictions(path, dataset)
    assert (again.records, again.condition, again.run_id) == \
        (records, condition, 7)


def test_import_missing_instance_lists_id(tmp_path):
    dataset = make_test_dataset()
    records = dataset.gold_labels()
    del records["t:004"]
    path = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet("c", 0, records), path)
    with pytest.raises(ValueError, match="t:004"):
        import_predictions(path, dataset)


def test_import_unknown_instance_rejected(tmp_path):
    dataset = make_test_dataset()
    records = dataset.gold_labels()
    records["zz:999"] = "cause"
    path = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet("c", 0, records), path)
    with pytest.raises(ValueError, match="zz:999"):
        import_predictions(path, dataset)


def test_import_unknown_label_warns_but_keeps(tmp_path, caplog):
    dataset = make_test_dataset()
    records = dataset.gold_labels()
    records["t:000"] = "mystery"
    path = tmp_path / "preds.jsonl"
    write_predictions(PredictionSet("c", 0, records), path)
    with caplog.at_level(logging.WARNING):
        preds = import_predictions(path, dataset)
    assert preds.records["t:000"] == "mystery"
    assert any("mystery" in message for message in caplog.messages)


def test_import_ten_run_files(tmp_path):
    dataset = make_test_dataset()
    sets = []
    for run in range(10):
        path = tmp_path / f"run_{run}.jsonl"
        write_predictions(PredictionSet("default+plm", run,
                                        dataset.gold_labels()), path)
        sets.append(import_predictions(path, dataset))
    assert [p.run_id for p in sets] == list(range(10))
    assert all(set(p.records) == set(dataset.instance_ids()) for p in sets)


def test_unparsed_count():
    preds = PredictionSet("c", 0, {"a": UNPARSED, "b": "cause", "c": UNPARSED})
    assert preds.unparsed_count == 2


TWO_INSTANCES = VariantDataset("c", DEFAULT, "test", (
    RenderedInstance("t:001", "", "a", "b", "cause"),
    RenderedInstance("t:002", "", "c", "d", "joint")), ("cause", "joint"))


def evaluate_predictions(tmp_path: Path, *records: dict) -> int:
    """`drckit evaluate` of a prediction file holding ``records`` against
    TWO_INSTANCES: its exit code."""
    write_variant_dataset(TWO_INSTANCES, tmp_path / "variant.jsonl")
    (tmp_path / "preds.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return main(["evaluate", "--dataset", str(tmp_path / "variant.jsonl"),
                 "--predictions", str(tmp_path / "preds.jsonl"),
                 "--out", str(tmp_path / "out")])


def prediction(instance_id: str = "t:001", **fields) -> dict:
    return {"instance_id": instance_id, "predicted_label": "cause", "condition": "c",
            "run_id": 1, **fields}


# A fault, the exit code `drckit evaluate` gives it (None: a library call
# that raises ValueError) and its message, "{preds}" standing for the file.
INFERENCE_FAULTS = {
    "empty_dataset": (lambda tmp: endpoint_predictions(
        TWO_INSTANCES._replace(instances=()), TWO_INSTANCES,
        EndpointConfig("http://127.0.0.1:9"), 1, tmp / "log.jsonl", "c"),
        None, "dataset is empty"),
    "duplicate_id": (lambda tmp: evaluate_predictions(tmp, prediction(), prediction()),
                     1, "error: {preds}:2: duplicate instance_id 't:001'"),
    "mixed_conditions": (lambda tmp: evaluate_predictions(
        tmp, prediction(), prediction("t:002", condition="d")),
        1, "error: {preds}:2: mixed conditions in file"),
    "mixed_run_ids": (lambda tmp: evaluate_predictions(
        tmp, prediction(), prediction("t:002", run_id=2)),
        1, "error: {preds}:2: mixed run_ids in file"),
}


@pytest.mark.parametrize("fault, exit_code, message", INFERENCE_FAULTS.values(),
                         ids=INFERENCE_FAULTS)
def test_each_prediction_fault_is_reported(tmp_path, capsys, fault, exit_code,
                                           message):
    assert_fault_reported(capsys, lambda: fault(tmp_path), exit_code,
                          message.format(preds=tmp_path / "preds.jsonl"))
