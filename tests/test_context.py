from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from drckit.cli import main
from drckit.context import (
    ContextScheme,
    RenderedInstance,
    VariantDataset,
    build_variant_dataset,
    context_fragments,
    corpus_label_inventory,
    read_variant_dataset,
    render_instance,
    write_variant_dataset,
)
from drckit.endpoint import _load_results_log
from drckit.fields import STRING, check_fields
from drckit.inference import import_predictions
from drckit.treebank import (
    Corpus,
    ancestors,
    count_instances,
    extract_instances,
)

from conftest import RELATIONS, WORDS, chain_records, synthetic_corpus, tree_from
from oracles import path_to_root, preceding_sentences
from test_inference import TRICKY

OR1 = ContextScheme("oracle", 1)
OR2 = ContextScheme("oracle", 2)
AD1 = ContextScheme("add", 1)
DEFAULT = ContextScheme("default")


def instance_by_dependent(tree, dep_id):
    for inst in extract_instances(tree):
        if inst.arg2_edu_id == dep_id:
            return inst
    raise AssertionError(f"no instance with dependent {dep_id}")


@pytest.mark.parametrize("text, expected", [
    ("default", DEFAULT),
    ("AD1", AD1),
    ("ad3", ContextScheme("add", 3)),
    ("add2", ContextScheme("add", 2)),
    ("OR1", OR1),
    ("oracle2", OR2),
    ("OR", OR1),      # n defaults to 1
    ("add", AD1),
])
def test_scheme_parsing(text, expected):
    assert ContextScheme.parse(text) == expected


@pytest.mark.parametrize("bad", ["", "AD0", "window3", "default2"])
def test_scheme_parsing_rejects(bad):
    with pytest.raises(ValueError):
        ContextScheme.parse(bad)


def test_scheme_invariants():
    with pytest.raises(ValueError):
        ContextScheme("default", 1)
    with pytest.raises(ValueError):
        ContextScheme("oracle")
    assert OR1.tag == "OR1" and AD1.tag == "AD1" and DEFAULT.tag == "default"


def test_scheme_invariants_hold_under_replace():
    with pytest.raises(ValueError, match="requires n >= 1"):
        ContextScheme("add", 1)._replace(n=0)
    with pytest.raises(ValueError, match="takes no n"):
        DEFAULT._replace(n=1)
    assert AD1._replace(n=2) == ContextScheme("add", 2)


def test_worked_example_oracle_context(worked_example_tree):
    inst = instance_by_dependent(worked_example_tree, 4)
    fragments = context_fragments(worked_example_tree, inst.arg1_edu_id, OR1)
    assert fragments == ["that is efficient ..."]
    rendered = render_instance(inst, fragments)
    assert rendered.model_input == ("that is efficient ... "
                                    "because it can compute a single node similarity")


def test_oracle_empty_for_root_attached_arg1(worked_example_tree):
    # dependent 2's head is EDU 1... use the chain where e1 hangs off ROOT
    tree = tree_from(chain_records(3), "chain")
    inst = instance_by_dependent(tree, 2)  # arg1 = e1, attached to ROOT
    assert context_fragments(tree, inst.arg1_edu_id, OR1) == []


def test_oracle_stops_at_root_on_short_chain():
    tree = tree_from(chain_records(3), "chain")
    inst = instance_by_dependent(tree, 3)  # arg1 = e2
    assert context_fragments(tree, inst.arg1_edu_id, OR2) == ["unit 1 ."]


def test_oracle_orders_fragments_root_first(worked_example_tree):
    inst = instance_by_dependent(worked_example_tree, 4)
    fragments = context_fragments(worked_example_tree, inst.arg1_edu_id, OR2)
    # ancestors of arg1 (EDU 3) are [2]; EDU 2 attaches to ROOT directly
    assert fragments == ["that is efficient ..."]
    deep = tree_from(chain_records(5), "deep")
    inst = instance_by_dependent(deep, 5)  # arg1 = e4
    assert context_fragments(deep, inst.arg1_edu_id, ContextScheme("oracle", 3)) == \
        ["unit 1 .", "unit 2 .", "unit 3 ."]


def test_add_empty_in_first_sentence():
    tree = tree_from(chain_records(3), "chain")
    inst = instance_by_dependent(tree, 2)  # arg1 = e1, sentence 0
    assert context_fragments(tree, inst.arg1_edu_id, AD1) == []


def test_add_takes_whole_preceding_sentence():
    records = [
        (0, -1, "null", "ROOT"),
        (1, 0, "ROOT", "first part ,"),
        (2, 1, "joint", "same sentence ."),
        (3, 1, "elaboration", "second sentence here ."),
        (4, 3, "condition", "third sentence ."),
    ]
    tree = tree_from(records, "sents")
    inst = instance_by_dependent(tree, 4)  # arg1 = e3 in sentence 1
    assert context_fragments(tree, inst.arg1_edu_id, AD1) == \
        ["first part , same sentence ."]
    assert context_fragments(tree, inst.arg1_edu_id, ContextScheme("add", 2)) == \
        ["first part , same sentence ."]


def test_include_relations_flag(worked_example_tree):
    inst = instance_by_dependent(worked_example_tree, 4)
    fragments = context_fragments(worked_example_tree, inst.arg1_edu_id, OR1,
                                  include_relations=True)
    assert fragments == ["(ROOT) that is efficient ..."]


def test_render_empty_fragments(worked_example_tree):
    inst = instance_by_dependent(worked_example_tree, 4)
    rendered = render_instance(inst, [])
    assert rendered.context_text == ""
    assert rendered.model_input == inst.arg1


def test_render_joins_fragments():
    tree = tree_from(chain_records(3), "chain")
    inst = instance_by_dependent(tree, 3)
    rendered = render_instance(inst, ["A", "B"])
    assert rendered.context_text == "A B"
    assert rendered.model_input == "A B unit 2 ."


def test_oracle_matches_path_to_root_traversal():
    corpus, raw = synthetic_corpus(seed=21, n_docs=25)
    for tree in corpus.trees:
        records = raw[tree.doc_id]
        texts = {rec[0]: rec[3].strip() for rec in records}
        for inst in extract_instances(tree):
            for n in (1, 2, 3):
                expected = [texts[i] for i in
                            reversed(path_to_root(records, inst.arg1_edu_id)[:n])]
                got = context_fragments(tree, inst.arg1_edu_id,
                                        ContextScheme("oracle", n))
                assert got == expected


def test_add_matches_preceding_sentence_oracle():
    corpus, raw = synthetic_corpus(seed=22, n_docs=25)
    for tree in corpus.trees:
        records = raw[tree.doc_id]
        for inst in extract_instances(tree):
            expected = preceding_sentences(records, inst.arg1_edu_id, 1)
            assert context_fragments(tree, inst.arg1_edu_id, AD1) == expected


def test_scheme_monotonicity():
    corpus, _ = synthetic_corpus(seed=23, n_docs=20)
    for tree in corpus.trees:
        for inst in extract_instances(tree):
            for kind in ("oracle", "add"):
                for n in (1, 2):
                    small = context_fragments(tree, inst.arg1_edu_id,
                                              ContextScheme(kind, n))
                    big = context_fragments(tree, inst.arg1_edu_id,
                                            ContextScheme(kind, n + 1))
                    if small:
                        assert big[-len(small):] == small
                    assert len(big) >= len(small)


def test_arg2_never_in_own_context():
    corpus, _ = synthetic_corpus(seed=24, n_docs=20)
    for tree in corpus.trees:
        for inst in extract_instances(tree):
            assert inst.arg2_edu_id not in ancestors(tree, inst.arg1_edu_id, 10)


def test_default_dataset_has_empty_context():
    corpus, _ = synthetic_corpus(seed=25, n_docs=10)
    dataset = build_variant_dataset(corpus, DEFAULT)
    assert len(dataset.instances) == sum(
        len(extract_instances(t)) for t in corpus.trees)
    assert all(i.context_text == "" for i in dataset.instances)
    assert all(i.model_input == i.arg1_text for i in dataset.instances)


def test_dataset_order_and_inventory():
    corpus, _ = synthetic_corpus(seed=26, n_docs=10)
    dataset = build_variant_dataset(corpus, OR1)
    ids = dataset.instance_ids()
    assert ids == sorted(ids)
    assert dataset.label_inventory == corpus_label_inventory(corpus)
    assert dataset.label_inventory == tuple(sorted(set(dataset.label_inventory)))


def test_add1_on_single_sentence_docs_matches_default():
    records = [(0, -1, "null", "ROOT"),
               (1, 0, "ROOT", "only clause ,"),
               (2, 1, "joint", "one sentence .")]
    corpus_trees = (tree_from(records, "one"),)
    from drckit.treebank import Corpus
    corpus = Corpus("c", "test", corpus_trees)
    ad = build_variant_dataset(corpus, AD1)
    default = build_variant_dataset(corpus, DEFAULT)
    for a, d in zip(ad.instances, default.instances):
        assert a.context_text == d.context_text == ""
    assert ad.scheme == AD1 and default.scheme == DEFAULT


def test_dataset_file_round_trip(tmp_path):
    corpus, _ = synthetic_corpus(seed=27, n_docs=8)
    dataset = build_variant_dataset(corpus, OR1)
    path = tmp_path / "variant.jsonl"
    write_variant_dataset(dataset, path)
    again = read_variant_dataset(path, corpus_name=dataset.corpus_name,
                                 label_inventory=dataset.label_inventory)
    assert again.instances == dataset.instances
    assert again.scheme == dataset.scheme
    assert again.split == dataset.split


@pytest.mark.parametrize("scheme", [DEFAULT, AD1, OR1], ids=lambda s: s.tag)
def test_dataset_read_back_equals_dataset_built(tmp_path, scheme):
    # Document order is not id order: "d1:001" > "d10:001", "a:001" >
    # "a-b:001", and in the 1,001-EDU document "long:1000" < "long:101".
    trees = [tree_from(chain_records(4), doc_id)
             for doc_id in ("d1", "d2", "d10", "a", "a-b")]
    corpus = Corpus("c", "test",
                    (*trees, tree_from(chain_records(1001), "long")))
    inventory = corpus_label_inventory(corpus)
    built = build_variant_dataset(corpus, scheme, inventory)
    path = tmp_path / "variant.jsonl"
    write_variant_dataset(built, path)
    assert read_variant_dataset(path, "c", inventory) == built


def test_dataset_file_repeated_id_names_path_and_line(tmp_path):
    corpus, _ = synthetic_corpus(seed=32, n_docs=3)
    path = tmp_path / "variant.jsonl"
    write_variant_dataset(build_variant_dataset(corpus, OR1), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(3, lines[1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    repeated = json.loads(lines[1])["instance_id"]
    with pytest.raises(ValueError, match=rf"variant\.jsonl:4: duplicate "
                                         rf"instance_id '{repeated}'"):
        read_variant_dataset(path)


def test_dataset_names_first_repeated_id():
    a, b = (RenderedInstance(iid, "", "x", "y", "cause") for iid in "ab")
    with pytest.raises(ValueError, match="c/test: duplicate instance_id 'a'"):
        VariantDataset("c", OR1, "test", (b, a, b, a), ("cause",))


def test_dataset_replace_sorts_and_checks_its_instances():
    a, b = (RenderedInstance(iid, "", "x", "y", "cause") for iid in "ab")
    dataset = VariantDataset("c", OR1, "test", (a,), ["cause"])
    changed = dataset._replace(instances=[b, a])
    assert changed.instances == (a, b) and changed.label_inventory == ("cause",)
    with pytest.raises(ValueError, match="c/test: duplicate instance_id 'b'"):
        dataset._replace(instances=(b, a, b))


DROP = object()  # a field value that stands for "field left out"


@pytest.mark.parametrize("drop, value, detail", [
    ("scheme", DROP, "missing field 'scheme'"),
    ("label", DROP, "missing field 'label'"),
    (None, DROP, "Expecting"),
    ("instance_id", ["x"], r"instance_id \['x'\] is not a string"),
    ("label", None, "label None is not a string"),
    ("context", 5, "context 5 is not a string"),
    ("arg2", None, "arg2 None is not a string"),
    ("scheme", 5, "scheme 5 is not a string"),
    ("arg1", "\udcff", "'utf-8' codec can't decode byte 0xff"),
], ids=["missing_scheme", "missing_label", "not_json", "instance_id_list",
        "label_null", "context_number", "arg2_null", "scheme_number",
        "not_utf8"])
def test_dataset_file_malformed_record_names_path_and_line(tmp_path, drop,
                                                          value, detail):
    corpus, _ = synthetic_corpus(seed=30, n_docs=3)
    path = tmp_path / "variant.jsonl"
    write_variant_dataset(build_variant_dataset(corpus, OR1), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    if value is not DROP:
        lines[2] = json.dumps({**record, drop: value}, ensure_ascii=False)
    elif drop:
        lines[2] = json.dumps({k: v for k, v in record.items() if k != drop})
    else:
        lines[2] = lines[2][:-1]
    # A lone surrogate escape writes the byte it stands for: "\udcff" is 0xff.
    path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                    errors="surrogateescape")
    with pytest.raises(ValueError,
                       match=rf"variant\.jsonl:3: malformed record: {detail}"):
        read_variant_dataset(path)


def test_check_fields_names_the_field_a_parse_rejects():
    fields = {"scheme": STRING._replace(parse=ContextScheme.parse)}
    with pytest.raises(ValueError, match="^scheme: cannot parse context scheme 'x'"):
        check_fields({"scheme": "x"}, fields)


def test_closed_check_fields_names_a_field_its_table_lacks():
    record = {"scheme": "OR1", "shceme": "AD1"}
    assert check_fields(dict(record), {"scheme": STRING}) == record
    with pytest.raises(ValueError, match="^unknown field 'shceme'$"):
        check_fields(dict(record), {"scheme": STRING}, closed=True)


def test_dataset_file_mixing_scheme_spellings_reads_as_one_scheme(tmp_path):
    corpus, _ = synthetic_corpus(seed=31, n_docs=3)
    path = tmp_path / "variant.jsonl"
    write_variant_dataset(build_variant_dataset(corpus, OR1), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"scheme": "OR1"', '"scheme": "or1"')
    assert '"or1"' in lines[1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dataset = read_variant_dataset(path)
    assert dataset.scheme == OR1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=st.dictionaries(TRICKY, st.tuples(TRICKY, TRICKY, TRICKY, TRICKY),
                              min_size=1, max_size=8),
       split=TRICKY)
def test_dataset_file_round_trips_any_text(tmp_path, fields, split):
    # U+2028, U+2029 and U+0085 stay raw in a JSON string; they must not
    # end a record.
    instances = tuple(
        RenderedInstance(iid, context, arg1, arg2, label)
        for iid, (context, arg1, arg2, label) in fields.items())
    path = tmp_path / "variant.jsonl"
    dataset = VariantDataset("prop", AD1, split, instances, ())
    write_variant_dataset(dataset, path)
    again = read_variant_dataset(path, "prop", ())
    assert again == dataset


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TRICKY,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TRICKY, inner, max_size=3),
    max_leaves=6)
ONE_INSTANCE = VariantDataset("c", OR1, "test", (
    RenderedInstance("t:001", "", "a", "b", "cause"),), ("cause",))
# A well-formed line of each JSONL format, and the reader of its files.
LINE_FORMATS = [
    ({"instance_id": "t:001", "context": "", "arg1": "a", "arg2": "b",
      "label": "cause", "scheme": "OR1", "split": "test"}, read_variant_dataset),
    ({"instance_id": "t:001", "predicted_label": "cause", "condition": "c",
      "run_id": 1}, lambda path: import_predictions(path, ONE_INSTANCE)),
    ({"instance_id": "t:001", "raw": "cause"}, _load_results_log),
]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=JSON_VALUES)
def test_any_json_value_in_any_field_reads_or_is_a_malformed_record(
        tmp_path, data, value):
    record, read = data.draw(st.sampled_from(LINE_FORMATS))
    field = data.draw(st.sampled_from(sorted(record)))
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps({**record, field: value}, ensure_ascii=False)
                    + "\n", encoding="utf-8")
    right_type = type(value) is type(record[field])
    try:
        read(path)
    except ValueError as exc:
        # A value of the right type can still break a format rule (a scheme
        # name that does not parse, an unknown instance id).
        assert str(exc).startswith(
            f"{path}:1: " if right_type else f"{path}:1: malformed record: ")


def test_dataset_file_deterministic(tmp_path):
    corpus, _ = synthetic_corpus(seed=28, n_docs=8)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_variant_dataset(build_variant_dataset(corpus, OR1), p1)
    write_variant_dataset(build_variant_dataset(corpus, OR1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_file_fields(tmp_path):
    import json
    corpus, _ = synthetic_corpus(seed=29, n_docs=3)
    path = tmp_path / "variant.jsonl"
    write_variant_dataset(build_variant_dataset(corpus, AD1), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    assert set(record) == {"instance_id", "context", "arg1", "arg2",
                           "label", "scheme", "split"}
    assert record["scheme"] == "AD1"
    ids = [json.loads(l)["instance_id"] for l in lines]
    assert ids == sorted(ids)


# Sentence ends with and without closing quotes or brackets, and clause
# ends that do not close a sentence.
ENDINGS = (".", "!", "?", ".\"", "!”", "?’", ".»", ".)", ".]", ".}", ".\")",
           ",", ";", ":", "\"", ")")


@st.composite
def legal_records(draw):
    """A random legal document of 1-300 EDUs, as conftest.synthetic_records."""
    n_real = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    order = list(range(1, n_real + 1))
    rng.shuffle(order)
    attached = [order[0]]
    parents = {order[0]: 0}
    for node in order[1:]:
        parents[node] = rng.choice(attached)
        attached.append(node)
    records = [(0, -1, "null", "ROOT")]
    for i in range(1, n_real + 1):
        text = " ".join(rng.sample(WORDS, rng.randint(2, 5)))
        text += " " + rng.choice(ENDINGS)
        relation = "ROOT" if parents[i] == 0 else rng.choice(RELATIONS)
        records.append((i, parents[i], relation, text))
    return records


def oracle_context(records, arg1_edu_id, scheme):
    if scheme.kind == "add":
        return preceding_sentences(records, arg1_edu_id, scheme.n)
    texts = {rec[0]: rec[3].strip() for rec in records}
    return [texts[i] for i in
            reversed(path_to_root(records, arg1_edu_id)[:scheme.n])]


SCHEMES = [ContextScheme(kind, n) for kind in ("add", "oracle")
           for n in range(1, 5)]


@settings(max_examples=20, deadline=None)
@given(legal_records())
def test_context_matches_oracles_on_random_trees(records):
    """context_fragments and build_variant_dataset agree with the oracles."""
    corpus = Corpus("prop", "test", (tree_from(records, "prop"),))
    tree = corpus.trees[0]
    instances = extract_instances(tree)
    for scheme in SCHEMES:
        dataset = build_variant_dataset(corpus, scheme)
        assert [r.instance_id for r in dataset.instances] == \
            [i.instance_id for i in instances]
        # Dependents of one head share its context; ask the oracle once.
        oracle = {head: oracle_context(records, head, scheme)
                  for head in {i.arg1_edu_id for i in instances}}
        for rendered, inst in zip(dataset.instances, instances):
            expected = oracle[inst.arg1_edu_id]
            assert context_fragments(tree, inst.arg1_edu_id, scheme) == expected
            assert rendered.context_text == " ".join(expected)


REFERENCE_SCHEMES = [DEFAULT] + [ContextScheme(kind, n) for kind in ("add", "oracle")
                                  for n in (1, 2, 3)]


def reference_rendering(corpus, scheme, include_relations):
    """Each instance rendered on its own from its context fragments."""
    return sorted((render_instance(inst, context_fragments(
                       tree, inst.arg1_edu_id, scheme, include_relations))
                   for tree in corpus.trees for inst in extract_instances(tree)),
                  key=lambda inst: inst.instance_id)


@settings(max_examples=20, deadline=None)
@given(st.lists(legal_records(), min_size=1, max_size=3), st.booleans())
def test_build_variant_dataset_equals_rendering_each_instance(docs, include_relations):
    corpus = Corpus("prop", "test", tuple(
        tree_from(records, f"prop-{i}") for i, records in enumerate(docs)))
    for scheme in REFERENCE_SCHEMES:
        dataset = build_variant_dataset(corpus, scheme,
                                        include_relations=include_relations)
        assert list(dataset.instances) == \
            reference_rendering(corpus, scheme, include_relations)


# Sentence 0 is EDUs 1-2 and sentence 1 is EDUs 3-5, each the first argument
# of an instance; EDU 3 heads three dependents and EDU 1 attaches to ROOT.
SHARED_CONTEXT_RECORDS = [
    (0, -1, "null", "ROOT"),
    (1, 0, "ROOT", "first sentence opens ,"),
    (2, 1, "elaboration", "and ends here ."),
    (3, 1, "joint", "second one starts ,"),
    (4, 3, "elaboration", "goes on ,"),
    (5, 4, "condition", "and ends ."),
    (6, 3, "contrast", "third sentence ."),
    (7, 4, "temporal", "fourth one ."),
    (8, 5, "joint", "fifth one ."),
    (9, 3, "attribution", "sixth ."),
]


@pytest.mark.parametrize("include_relations", [False, True])
def test_instances_that_share_a_context_render_it_alike(include_relations):
    corpus = Corpus("fix", "test", (tree_from(SHARED_CONTEXT_RECORDS, "doc"),))
    first = "first sentence opens , and ends here ."
    ancestor = {1: "", 3: "(ROOT) first sentence opens ,",
                4: "(joint) second one starts ,", 5: "(elaboration) goes on ,"}
    if not include_relations:
        ancestor = {k: v.partition(") ")[2] for k, v in ancestor.items()}
    heads = {2: 1, 3: 1, 4: 3, 5: 4, 6: 3, 7: 4, 8: 5, 9: 3}
    expected = {
        AD1: {dep: "" if head == 1 else first for dep, head in heads.items()},
        OR1: {dep: ancestor[head] for dep, head in heads.items()},
    }
    for scheme in REFERENCE_SCHEMES:
        dataset = build_variant_dataset(corpus, scheme,
                                        include_relations=include_relations)
        assert list(dataset.instances) == \
            reference_rendering(corpus, scheme, include_relations)
        if scheme in expected:
            assert {int(inst.instance_id.split(":")[1]): inst.context_text
                    for inst in dataset.instances} == expected[scheme]


def json_dumps_variant_lines(dataset):
    """The variant file as one json.dumps call per record wrote it."""
    lines = [json.dumps({
        "instance_id": inst.instance_id,
        "context": inst.context_text,
        "arg1": inst.arg1_text,
        "arg2": inst.arg2_text,
        "label": inst.gold_label,
        "scheme": dataset.scheme.tag,
        "split": dataset.split,
    }, ensure_ascii=False)
        for inst in sorted(dataset.instances, key=lambda i: i.instance_id)]
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=st.dictionaries(TRICKY, st.tuples(
           st.one_of(st.just(""), TRICKY), TRICKY, TRICKY, TRICKY),
           max_size=8),
       scheme=st.sampled_from([DEFAULT, AD1, OR2]),
       split=TRICKY)
def test_write_variant_dataset_writes_json_dumps_lines(tmp_path, fields,
                                                      scheme, split):
    instances = tuple(
        RenderedInstance(iid, context, arg1, arg2, label)
        for iid, (context, arg1, arg2, label) in fields.items())
    dataset = VariantDataset("prop", scheme, split, instances, ())
    path = tmp_path / "variant.jsonl"
    write_variant_dataset(dataset, path)
    assert path.read_bytes() == json_dumps_variant_lines(dataset)


@settings(max_examples=20, deadline=None)
@given(st.lists(legal_records(), min_size=1, max_size=4))
def test_instance_counts_and_inventory_match_extracted_instances(docs):
    corpus = Corpus("prop", "test", tuple(
        tree_from(records, f"prop-{i}") for i, records in enumerate(docs)))
    instances = [inst for tree in corpus.trees
                 for inst in extract_instances(tree)]
    assert count_instances(corpus) == len(instances)
    assert corpus_label_inventory(corpus) == \
        tuple(sorted({inst.gold_label for inst in instances}))


def variant_line(**changes) -> str:
    return json.dumps({**LINE_FORMATS[0][0], **changes}) + "\n"


@pytest.mark.parametrize("text, error", [
    (variant_line() + variant_line(instance_id="t:002", scheme="default"),
     ":2: mixed scheme or split"),
    (variant_line() + variant_line(instance_id="t:002", split="train"),
     ":2: mixed scheme or split"),
    ("", ": empty dataset file"),
], ids=["mixed_scheme", "mixed_split", "empty"])
def test_each_variant_file_fault_exits_1_naming_the_file(tmp_path, capsys, text,
                                                         error):
    variant = tmp_path / "variant.jsonl"
    variant.write_text(text, encoding="utf-8")
    assert main(["evaluate", "--dataset", str(variant), "--predictions",
                 str(tmp_path / "preds.jsonl"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {variant}{error}\n"
