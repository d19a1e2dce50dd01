from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from drckit.cli import main
from drckit.treebank import (
    Corpus,
    DiscourseTree,
    EDU,
    TreeValidationError,
    ancestors,
    CorpusError,
    dependency_distance_stats,
    ends_sentence,
    extract_instances,
    load_corpus,
    load_split,
    parse_tree_document,
    serialize_tree_document,
    validate_tree,
)

from conftest import (
    assert_fault_reported,
    chain_records,
    doc_bytes,
    synthetic_corpus,
    tree_from,
    write_doc,
)
from test_context import legal_records


def test_parse_smallest_legal_tree():
    records = [(0, -1, "null", "ROOT"),
               (1, 0, "ROOT", "one ."),
               (2, 1, "elaboration", "two .")]
    tree = parse_tree_document(doc_bytes(records), "mini")
    assert len(tree.edus) == 3
    assert sum(1 for e in tree.edus if e.is_root) == 1
    assert tree.edu(2).head_id == 1


def test_parse_rejects_self_loop():
    records = [(0, -1, "null", "ROOT"),
               (1, 0, "ROOT", "one ."),
               (2, 1, "elaboration", "two ."),
               (3, 3, "joint", "three .")]
    with pytest.raises(TreeValidationError, match="self-loop at id 3"):
        parse_tree_document(doc_bytes(records), "selfloop")


@pytest.mark.parametrize("payload, message", [
    (b"{not json", "malformed document: Expecting property name"),
    (b"{}", "missing field 'root'"),
    (b'{"root": []}', "non-empty array"),
    (b'{"root": [{"id": 0, "parent": -1, "relation": "null"}]}',
     "missing field 'text'"),
    (b'{"root": [{"id": "0", "parent": -1, "relation": "null", "text": "R"}]}',
     r"root: \[0\]: id '0' is not an integer"),
    (b'{"root": [{"id": true, "parent": -1, "relation": "null", "text": "R"}]}',
     r"root: \[0\]: id True is not an integer"),
    (b'{"root": [{"id": 0, "parent": -1, "relation": "null", "text": "R"}, 5]}',
     r"root: \[1\] 5 is not an EDU record"),
])
def test_parse_errors_carry_doc_id(payload, message):
    with pytest.raises(TreeValidationError, match=message) as info:
        parse_tree_document(payload, "baddoc")
    assert str(info.value).startswith("baddoc: malformed document: ")
    assert [v.code for v in info.value.violations] == ["parse-error"]


def test_parse_rejects_duplicate_ids():
    # Reported by validate_tree, with the document's other violations.
    records = [(0, -1, "null", "ROOT"),
               (1, 0, "ROOT", "one ."),
               (1, 1, "elaboration", "dupe .")]
    with pytest.raises(TreeValidationError, match="duplicate ids: 1") as info:
        parse_tree_document(doc_bytes(records), "dupes")
    assert [v.code for v in info.value.violations] == ["duplicate-id", "self-loop"]


def test_parse_rejects_dangling_head():
    records = [(0, -1, "null", "ROOT"),
               (1, 0, "ROOT", "one ."),
               (2, 9, "elaboration", "two .")]
    with pytest.raises(TreeValidationError, match="dangling head_id 9 at id 2"):
        parse_tree_document(doc_bytes(records), "dangle")


def rejected(doc_id, edus):
    """The violations ``validate_tree`` finds in ``edus``, which building a
    tree of them must raise."""
    violations = validate_tree(doc_id, edus)
    with pytest.raises(TreeValidationError) as info:
        DiscourseTree(doc_id, edus)
    assert info.value.doc_id == doc_id and info.value.violations == violations
    return violations


def test_validate_legal_tree_is_clean():
    tree = tree_from(chain_records(2), "ok")
    assert validate_tree(tree.doc_id, tree.edus) == []


def test_validate_multiple_roots():
    violations = rejected("tworoots", (
        EDU(0, "ROOT", -1, "null"),
        EDU(1, "one .", -1, "null"),
    ))
    assert len(violations) == 1
    assert "multiple roots" in violations[0].detail


def test_validate_cycle_names_members():
    violations = rejected("cyclic", (
        EDU(0, "ROOT", -1, "null"),
        EDU(1, "one .", 2, "joint"),
        EDU(2, "two .", 1, "joint"),
        EDU(3, "three .", 0, "ROOT"),
    ))
    assert any(v.detail == "cycle involving ids 1,2" for v in violations)


def test_validate_missing_root():
    codes = {v.code for v in rejected("noroot", (
        EDU(0, "zero .", 1, "joint"),
        EDU(1, "one .", 0, "ROOT"),
    ))}
    assert "no-root" in codes


def test_extract_instances_root_only():
    tree = tree_from(chain_records(1), "single")
    assert extract_instances(tree) == []


def test_extract_instances_chain():
    tree = tree_from(chain_records(3), "chain")
    instances = extract_instances(tree)
    assert [(i.arg1_edu_id, i.arg2_edu_id) for i in instances] == [(1, 2), (2, 3)]
    assert instances[0].arg1 == "unit 1 ."
    assert instances[0].arg2 == "unit 2 ."
    assert instances[0].gold_label == "elaboration"
    assert instances[0].instance_id == "chain:002"


def test_instance_count_tracks_real_edus():
    corpus, _ = synthetic_corpus(seed=11, n_docs=30)
    for tree in corpus.trees:
        assert validate_tree(tree.doc_id, tree.edus) == []
        assert len(extract_instances(tree)) == len(tree.real_edus) - 1


def test_ancestors_of_root_attached_edu():
    tree = tree_from(chain_records(3), "chain")
    assert ancestors(tree, 1, 1) == []


def test_ancestors_chain_stops_before_root():
    tree = tree_from(chain_records(3), "chain")
    assert ancestors(tree, 3, 2) == [2, 1]
    assert ancestors(tree, 3, 5) == [2, 1]


def test_ancestors_worked_example(worked_example_tree):
    assert ancestors(worked_example_tree, 3, 1) == [2]
    assert worked_example_tree.edu(2).text == "that is efficient ..."


def test_ancestors_unknown_id():
    tree = tree_from(chain_records(2), "chain")
    with pytest.raises(ValueError, match="unknown EDU id 9"):
        ancestors(tree, 9, 1)


def test_edu_lookup_out_of_range():
    tree = tree_from(chain_records(3), "chain")
    for bad in (-1, len(tree.edus)):
        with pytest.raises(ValueError, match=f"unknown EDU id {bad}"):
            tree.edu(bad)


def test_edu_lookup_needs_id_at_its_position():
    # No tree holds an EDU away from its id's position, so none looks one up.
    violations = rejected("gap", (EDU(0, "ROOT", -1, "null"),
                                  EDU(2, "two .", 0, "ROOT")))
    assert [v.code for v in violations] == ["id-order"]


def test_ancestors_negative_id_does_not_wrap():
    tree = tree_from(chain_records(3), "chain")
    with pytest.raises(ValueError, match="unknown EDU id -1"):
        ancestors(tree, -1, 1)


def test_ancestors_prefix_property():
    corpus, _ = synthetic_corpus(seed=3, n_docs=20)
    for tree in corpus.trees:
        for edu in tree.real_edus:
            for n in range(1, 4):
                shorter = ancestors(tree, edu.id, n)
                longer = ancestors(tree, edu.id, n + 1)
                assert longer[:len(shorter)] == shorter


def test_sentence_indices_follow_punctuation():
    tree = tree_from([(0, -1, "null", "ROOT"),
                      (1, 0, "ROOT", "A ."),
                      (2, 1, "joint", "B ,"),
                      (3, 1, "joint", "C .")], "s")
    assert [e.sentence_index for e in tree.real_edus] == [0, 1, 1]


def test_sentence_indices_single_edu():
    tree = tree_from([(0, -1, "null", "ROOT"), (1, 0, "ROOT", "X .")], "s")
    assert tree.edu(1).sentence_index == 0


def test_sentence_indices_without_punctuation():
    tree = tree_from([(0, -1, "null", "ROOT"),
                      (1, 0, "ROOT", "alpha"),
                      (2, 1, "joint", "beta"),
                      (3, 1, "joint", "gamma")], "s")
    assert [e.sentence_index for e in tree.real_edus] == [0, 0, 0]


def test_sentence_indices_closing_quotes():
    tree = tree_from([(0, -1, "null", "ROOT"),
                      (1, 0, "ROOT", 'first ."'),
                      (2, 1, "joint", "second .")], "s")
    assert [e.sentence_index for e in tree.real_edus] == [0, 1]


def counted_sentence_indices(tree):
    """Sentence index per EDU by the counting rule, one EDU at a time."""
    index, out = 0, []
    for e in tree.edus:
        if e.is_root:
            out.append(0)
            continue
        out.append(index)
        if ends_sentence(e.text):
            index += 1
    return out


@settings(max_examples=30, deadline=None)
@given(legal_records(), st.lists(st.sampled_from(["", " ", "\t", "\n "]),
                                 min_size=2, max_size=2))
def test_parsed_sentence_indices_match_derivation(records, pads):
    # The ROOT text ends a sentence too, which must not advance the count.
    before, after = pads
    tree = tree_from([(i, p, r, before + t + (" ." if i == 0 else "") + after)
                      for i, p, r, t in records])
    assert [e.sentence_index for e in tree.edus] == \
        counted_sentence_indices(tree)


def test_distance_stats_single_edge():
    corpus = Corpus("c", "test", (tree_from(chain_records(2), "d"),))
    stats = dependency_distance_stats(corpus)
    assert stats.edu.adjacent_fraction == 1.0
    assert stats.sentence.adjacent_fraction == 1.0
    assert stats.edu.total == 1


def test_tree_and_corpus_built_from_lists_hold_tuples():
    edus = [EDU(0, "ROOT", -1, "null"), EDU(1, "a .", 0, "ROOT")]
    tree = DiscourseTree("d", edus)
    corpus = Corpus("c", "test", [tree])
    assert type(tree.edus) is tuple and type(corpus.trees) is tuple
    assert type(tree._replace(edus=edus).edus) is tuple
    assert type(corpus._replace(trees=[tree]).trees) is tuple
    # The cached sentence texts live on the tree, not in its fields.
    assert tree.sentence_texts == {0: "a ."} and tree == ("d", tuple(edus))


def test_distance_stats_counted_fixture():
    # chain doc: 5 adjacent edges; star doc: gaps 1..5, one adjacent.
    star = [(0, -1, "null", "ROOT")]
    star.append((1, 0, "ROOT", "hub ."))
    for i in range(2, 7):
        star.append((i, 1, "elaboration", f"spoke {i} ."))
    corpus = Corpus("c", "test", (
        tree_from(chain_records(6), "chain"),
        tree_from(star, "star"),
    ))
    stats = dependency_distance_stats(corpus)
    assert stats.edu.total == 10
    assert stats.edu.adjacent_fraction == pytest.approx(0.6)
    assert stats.edu.gap_3_to_5_fraction == pytest.approx(0.3)
    # every EDU ends a sentence here, so both units agree
    assert stats.sentence.adjacent_fraction == pytest.approx(0.6)
    assert stats.edu.histogram[1] == 6
    assert stats.edu.histogram[5] == 1


def test_distance_stats_invariants():
    corpus, _ = synthetic_corpus(seed=7, n_docs=25)
    stats = dependency_distance_stats(corpus)
    expected_total = sum(len(extract_instances(t)) for t in corpus.trees)
    for gap in (stats.edu, stats.sentence):
        assert 0.0 <= gap.adjacent_fraction <= 1.0
        assert 0.0 <= gap.gap_3_to_5_fraction <= 1.0
        assert sum(gap.histogram.values()) == gap.total == expected_total


def test_distance_stats_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        dependency_distance_stats(Corpus("c", "test", ()))


def test_serialize_parse_round_trip():
    corpus, _ = synthetic_corpus(seed=5, n_docs=15)
    for tree in corpus.trees:
        again = parse_tree_document(serialize_tree_document(tree), tree.doc_id)
        assert again == tree


def test_load_split_collects_violations(tmp_path):
    good = chain_records(3)
    cyclic = [(0, -1, "null", "ROOT"),
              (1, 0, "ROOT", "one ."),
              (2, 3, "joint", "two ."),
              (3, 2, "joint", "three .")]
    write_doc(tmp_path / "train", "good", good)
    write_doc(tmp_path / "train", "bad", cyclic)
    (tmp_path / "train" / "mangled.dep").write_bytes(b"{nope")
    corpus, violations = load_split(tmp_path, "train")
    assert [t.doc_id for t in corpus.trees] == ["good"]
    assert {v.doc_id for v in violations} == {"bad", "mangled"}
    codes = {v.code for v in violations}
    assert "cycle" in codes and "parse-error" in codes


def test_load_corpus_strict_raises(tmp_path):
    write_doc(tmp_path / "dev", "bad",
              [(0, -1, "null", "ROOT"), (1, 5, "ROOT", "one .")])
    with pytest.raises(CorpusError):
        load_corpus(tmp_path, "dev")


def test_load_corpus_ok(tmp_path):
    write_doc(tmp_path / "test", "a", chain_records(4))
    write_doc(tmp_path / "test", "b", chain_records(2))
    corpus = load_corpus(tmp_path, "test", name="fixture")
    assert corpus.name == "fixture"
    assert [t.doc_id for t in corpus.trees] == ["a", "b"]
    # instances ordered by (doc, dependent id) and ids are sortable strings
    ids = [i.instance_id for t in corpus.trees for i in extract_instances(t)]
    assert ids == sorted(ids)


def test_parse_trims_whitespace():
    records = [(0, -1, "null", "ROOT"), (1, 0, "ROOT", "  padded text .  ")]
    tree = parse_tree_document(doc_bytes(records), "pad")
    assert tree.edu(1).text == "padded text ."


def test_random_mutations_never_validate_clean():
    # Break one legal tree in assorted ways; building it must fail.
    rng = random.Random(123)
    base = chain_records(5)
    for _ in range(50):
        records = [list(r) for r in base]
        kind = rng.choice(["self", "dangle", "extra-root", "cycle"])
        victim = rng.randint(2, 5)
        if kind == "self":
            records[victim][1] = records[victim][0]
        elif kind == "dangle":
            records[victim][1] = 99
        elif kind == "extra-root":
            records[victim][1] = -1
        else:
            a, b = victim, rng.choice([i for i in range(2, 6) if i != victim])
            records[a][1] = b
            records[b][1] = a
        edus = tuple(EDU(i, t, p, rel) for i, p, rel, t in
                     [(r[0], r[1], r[2], r[3]) for r in records])
        assert rejected("mut", edus) != []


ROOT_RECORD = (0, -1, "null", "ROOT")


def validate_docs(tmp_path, docs):
    """`drckit validate` on a corpus whose test split holds ``docs``, file
    name -> records: its exit code."""
    for name, records in docs.items():
        path = tmp_path / "corpus" / "test" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(doc_bytes(records))
    return main(["validate", str(tmp_path / "corpus")])


# A fault, the exit code `drckit validate` reports it with (None: a library
# call that raises ValueError) and the report line or error it gives.
TREE_FAULTS = {
    "id_order": (lambda tmp: validate_docs(tmp, {"d.dep": [
        ROOT_RECORD, (2, 0, "ROOT", "one .")]}), 1,
        "d\tid-order\tids must be contiguous from 0 in ascending order"),
    "root_id": (lambda tmp: validate_docs(tmp, {"d.dep": [
        (0, 1, "ROOT", "one ."), (1, -1, "null", "ROOT")]}), 1,
        "d\troot-id\tvirtual ROOT must have id 0, got 1"),
    "root_relation": (lambda tmp: validate_docs(tmp, {"d.dep": [
        (0, -1, "ROOT", "ROOT"), (1, 0, "ROOT", "one .")]}), 1,
        'd\troot-relation\tvirtual ROOT must carry relation "null"'),
    "two_edus_on_root": (lambda tmp: validate_docs(tmp, {"d.dep": [
        ROOT_RECORD, (1, 0, "ROOT", "one ."), (2, 0, "ROOT", "two .")]}), 1,
        "d\troot-attachment\tmultiple EDUs attach to ROOT: ids 1,2"),
    "empty_text": (lambda tmp: validate_docs(tmp, {"d.dep": [
        ROOT_RECORD, (1, 0, "ROOT", "  ")]}), 1, "d\tempty-text\tempty text at id 1"),
    "duplicate_doc": (lambda tmp: validate_docs(tmp, {
        "d.dep": chain_records(2), "d.json": chain_records(2)}), 1,
        "d\tduplicate-doc\tdoc_id occurs twice in split test"),
    "ancestors_max_n": (lambda tmp: ancestors(tree_from(chain_records(2)), 2, 0),
                        None, "max_n must be >= 1, got 0"),
    # Every tree's head chains end at ROOT: one that would not is no tree.
    "broken_head_chain": (lambda tmp: validate_docs(tmp, {"d.dep": [
        ROOT_RECORD, (1, 9, "joint", "one .")]}), 1,
        "d\tdangling-head\tdangling head_id 9 at id 1"),
}


@pytest.mark.parametrize("fault, exit_code, message", TREE_FAULTS.values(),
                         ids=TREE_FAULTS)
def test_each_tree_fault_is_reported(tmp_path, capsys, fault, exit_code, message):
    assert_fault_reported(capsys, lambda: fault(tmp_path), exit_code, message)


# Each invalid document above, as records.
INVALID_RECORDS = {
    "self_loop": [(0, -1, "null", "ROOT"), (1, 0, "ROOT", "one ."),
                  (2, 1, "elaboration", "two ."), (3, 3, "joint", "three .")],
    "duplicate_ids": [(0, -1, "null", "ROOT"), (1, 0, "ROOT", "one ."),
                      (1, 1, "elaboration", "dupe .")],
    "dangling_head": [(0, -1, "null", "ROOT"), (1, 0, "ROOT", "one ."),
                      (2, 9, "elaboration", "two .")],
    "multiple_roots": [(0, -1, "null", "ROOT"), (1, -1, "null", "one .")],
    "cycle_with_root": [(0, -1, "null", "ROOT"), (1, 2, "joint", "one ."),
                        (2, 1, "joint", "two ."), (3, 0, "ROOT", "three .")],
    "cycle_below_root": [(0, -1, "null", "ROOT"), (1, 0, "ROOT", "one ."),
                         (2, 3, "joint", "two ."), (3, 2, "joint", "three .")],
    "missing_root": [(0, 1, "joint", "zero ."), (1, 0, "ROOT", "one .")],
    "id_order": [ROOT_RECORD, (2, 0, "ROOT", "one .")],
    "head_off_the_tree": [ROOT_RECORD, (1, 5, "ROOT", "one .")],
    "root_id": [(0, 1, "ROOT", "one ."), (1, -1, "null", "ROOT")],
    "root_relation": [(0, -1, "ROOT", "ROOT"), (1, 0, "ROOT", "one .")],
    "two_edus_on_root": [ROOT_RECORD, (1, 0, "ROOT", "one ."),
                         (2, 0, "ROOT", "two .")],
    "empty_text": [ROOT_RECORD, (1, 0, "ROOT", "  ")],
    "broken_head_chain": [ROOT_RECORD, (1, 9, "joint", "one .")],
}


@pytest.mark.parametrize("records", INVALID_RECORDS.values(), ids=INVALID_RECORDS)
def test_construction_and_parsing_report_alike(records):
    with pytest.raises(TreeValidationError) as parsed:
        parse_tree_document(doc_bytes(records), "d")
    # Parsing strips each text; it does not affect which invariants break.
    edus = [EDU(i, text.strip(), parent, relation)
            for i, parent, relation, text in records]
    assert parsed.value.violations == rejected("d", edus) != []
    assert str(parsed.value).startswith("d: ")


def test_replace_checks_the_tree_again():
    tree = tree_from(chain_records(2), "d")
    with pytest.raises(TreeValidationError, match="self-loop at id 2"):
        tree._replace(edus=tree.edus[:2] + (EDU(2, "unit 2 .", 2, "joint"),))
