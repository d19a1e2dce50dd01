from __future__ import annotations

from collections import Counter
from importlib import resources
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from drckit.analysis import (
    LOSING,
    LOSS,
    TIE,
    TIED,
    WIN,
    WINNING,
    ConnectiveLexicon,
    _PUNCT,
    _matches,
    _normalized_tokens,
    connective_match_rate,
    default_lexicon,
    first_connective_token,
    load_connective_lexicon,
    margins_by_category,
    pair_outcomes,
    relation_margins,
)
from drckit.cli import main
from drckit.context import (ContextScheme, RenderedInstance, VariantDataset,
                            write_variant_dataset)
from drckit.inference import PredictionSet, write_predictions

from conftest import assert_fault_reported
from oracles import category_match_rates, paired_outcomes

DEFAULT = ContextScheme("default")


def predictions(records, condition="c", run_id=0):
    return PredictionSet(condition=condition, run_id=run_id, records=dict(records))


def test_pair_outcomes_definitions():
    # One relation per instance, so each count names one instance's outcome.
    gold = {"i1": "r1", "i2": "r2", "i3": "r3", "i4": "r4"}
    preds_a = predictions({"i1": "r1", "i2": "x", "i3": "r3", "i4": "x"})
    preds_b = predictions({"i1": "r1", "i2": "r2", "i3": "x", "i4": "x"})
    # both right -> tie; B only -> win; A only -> loss; both wrong -> tie
    assert pair_outcomes(gold, [(preds_a, preds_b)]) == Counter({
        ("r1", TIE): 1, ("r2", WIN): 1, ("r3", LOSS): 1, ("r4", TIE): 1})


def test_pair_outcomes_requires_coverage():
    gold = {"i1": "cause", "i2": "cause"}
    full = predictions({"i1": "cause", "i2": "cause"})
    short = predictions({"i1": "cause"})
    with pytest.raises(ValueError, match="cover"):
        pair_outcomes(gold, [(short, full)])
    with pytest.raises(ValueError, match="cover"):
        pair_outcomes(gold, [(full, short)])


def test_pair_outcomes_accepts_dataset():
    instances = (RenderedInstance("i1", "", "a", "b", "cause"),)
    dataset = VariantDataset("c", DEFAULT, "test", instances, ("cause",))
    counts = pair_outcomes(dataset.gold_labels(), [
        (predictions({"i1": "joint"}, run_id=2), predictions({"i1": "cause"}, run_id=2))])
    assert counts == Counter({("cause", WIN): 1})


def single_relation_counts(relation, wins, losses, ties):
    return Counter({(relation, WIN): wins, (relation, LOSS): losses,
                    (relation, TIE): ties})


def test_margins_single_run():
    counts = single_relation_counts("elaboration", wins=3, losses=1, ties=0)
    [margin] = relation_margins(counts, num_runs=1)
    assert margin.delta == 2.0
    assert margin.category == WINNING
    assert (margin.wins, margin.losses, margin.ties) == (3, 1, 0)


def test_margins_all_ties():
    counts = single_relation_counts("joint", wins=0, losses=0, ties=8)
    [margin] = relation_margins(counts, num_runs=1)
    assert margin.delta == 0.0
    assert margin.category == TIED


def test_margins_published_delta_shape():
    # 60 wins and 3 losses over 10 runs average out to 5.7
    counts = single_relation_counts("elaboration", wins=60, losses=3, ties=0)
    [margin] = relation_margins(counts, num_runs=10)
    assert margin.delta == pytest.approx(5.7)
    assert margin.category == WINNING


def test_margins_support_normalizer():
    counts = single_relation_counts("cause", wins=6, losses=2, ties=2)
    [by_runs] = relation_margins(counts, num_runs=2)
    assert by_runs.delta == 2.0
    [by_support] = relation_margins(counts, num_runs=2, normalizer="support")
    assert by_support.delta == pytest.approx(0.4)
    with pytest.raises(ValueError, match="normalizer"):
        relation_margins(counts, num_runs=2, normalizer="weird")


def test_margins_sorted_by_absolute_delta():
    counts = (single_relation_counts("small", 2, 1, 0)
              + single_relation_counts("big", 9, 0, 0)
              + single_relation_counts("negative", 0, 5, 0))
    margins = relation_margins(counts, num_runs=1)
    assert [m.relation for m in margins] == ["big", "negative", "small"]
    categories = margins_by_category(margins)
    assert categories[WINNING] == ["big", "small"]
    assert categories[LOSING] == ["negative"]
    assert categories[TIED] == []


def test_margins_conservation_and_swap():
    gold = {f"i{k}": ["cause", "joint"][k % 2] for k in range(10)}
    preds_a = predictions({f"i{k}": "cause" for k in range(10)})
    preds_b = predictions({f"i{k}": "joint" if k % 3 == 0 else "cause"
                           for k in range(10)})
    margins = relation_margins(pair_outcomes(gold, [(preds_a, preds_b)] * 4),
                               num_runs=4)
    total = sum(m.wins + m.losses + m.ties for m in margins)
    assert total == len(gold) * 4

    swapped = pair_outcomes(gold, [(preds_b, preds_a)] * 4)
    swapped_margins = {m.relation: m for m in relation_margins(swapped, num_runs=4)}
    for m in margins:
        other = swapped_margins[m.relation]
        assert other.delta == -m.delta
        assert (other.wins, other.losses) == (m.losses, m.wins)
        if m.category == WINNING:
            assert other.category == LOSING
        elif m.category == LOSING:
            assert other.category == WINNING


def test_lexicon_dedup(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("Because\nbecause\n", encoding="utf-8")
    lexicon = load_connective_lexicon(path)
    assert lexicon.entries == frozenset({"because"})


@pytest.mark.parametrize("multiword", [False, True])
def test_lexicon_entries_read_like_arg2_text(tmp_path, multiword):
    # Entries lose case and punctuation, and "--", which has no word, is no
    # entry: as "" it would match every arg2 that has no word either.
    path = tmp_path / "lex.txt"
    path.write_text("However,\ne.g.\nas  a result\n--\n", encoding="utf-8")
    lexicon = load_connective_lexicon(path)
    assert lexicon.entries == frozenset({"however", "e.g", "as a result"})
    texts = ["However, the parser fails .", "e.g. a tree", "as a result we win",
             "-- ."]
    assert [_matches(text, lexicon, multiword) for text in texts] == \
        [True, True, multiword, False]


def test_lexicon_comments_only_is_empty(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_connective_lexicon(path)


def test_default_lexicon_has_core_entries():
    lexicon = default_lexicon()
    for connective in ("because", "without", "although"):
        assert connective in lexicon


def test_default_lexicon_parses_like_a_lexicon_file():
    packaged = resources.files("drckit.data") / "connectives.txt"
    with resources.as_file(packaged) as path:
        from_file = load_connective_lexicon(path)
    assert default_lexicon().entries == from_file.entries


def test_lexicon_indented_comment_is_not_an_entry(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("because\n   # indented comment\n", encoding="utf-8")
    assert load_connective_lexicon(path).entries == frozenset({"because"})


@pytest.mark.parametrize("text, token", [
    ("without having to compute the rest", "without"),
    ("( CC )", "cc"),
    ("“However, it failed”", "however"),
    ("...", ""),
    ("", ""),
])
def test_first_connective_token(text, token):
    assert first_connective_token(text) == token


# Every character str.split() splits on, and letters whose lowercase is
# longer or depends on the letters around them.
SPACES = "".join(chr(c) for c in range(0x3001) if chr(c).isspace())


TEXTS = st.text(st.one_of(st.sampled_from(SPACES + "ΣσςİIßẞΑβ" + _PUNCT),
                          st.characters()), max_size=12)


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_first_connective_token_reads_the_lowercased_text(text):
    # It splits and lowercases one word at a time; the rule it keeps is the
    # first word of the lowercased text that is not all punctuation.
    words = [word.strip(_PUNCT) for word in text.lower().split()]
    assert first_connective_token(text) == next(filter(None, words), "")


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_multiword_matching_reads_the_first_four_words(text):
    # The words --multiword matches against are the first four of the
    # lowercased text that are not all punctuation, by the cue baseline's rule.
    words = [word.strip(_PUNCT) for word in text.lower().split()]
    assert list(islice(_normalized_tokens(text), 4)) == list(filter(None, words))[:4]


def make_instances(rows):
    return [
        RenderedInstance(f"i{k:03d}", "", "arg1", arg2, label)
        for k, (arg2, label) in enumerate(rows)
    ]


def test_connective_match_rate_instance_level():
    instances = make_instances([
        ("without having to compute the rest .", "condition"),
        ("the gains persist .", "condition"),
        ("because it holds .", "cause"),
        ("strange opener .", "cause"),
        ("nothing here .", "joint"),
    ])
    categories = {WINNING: ["condition"], LOSING: ["cause"], TIED: ["joint"]}
    report = connective_match_rate(instances, categories, default_lexicon())
    assert report.by_category[WINNING].matched == 1
    assert report.by_category[WINNING].total == 2
    assert report.by_category[WINNING].percentage == pytest.approx(50.0)
    assert report.by_category[LOSING].percentage == pytest.approx(50.0)
    assert report.by_category[TIED].percentage == 0.0


def test_connective_match_rate_worked_example(worked_example_tree):
    from drckit.context import build_variant_dataset
    from drckit.treebank import Corpus
    corpus = Corpus("c", "test", (worked_example_tree,))
    dataset = build_variant_dataset(corpus, DEFAULT)
    categories = {WINNING: ["condition"]}
    report = connective_match_rate(dataset.instances, categories,
                                   default_lexicon())
    assert report.by_category[WINNING].matched == 1  # "without having to ..."


def test_connective_match_rate_zero_when_no_connectives():
    instances = make_instances([("plain text .", "cause"),
                                ("more text .", "cause")])
    report = connective_match_rate(instances, {LOSING: ["cause"]},
                                   default_lexicon())
    assert report.by_category[LOSING].percentage == 0.0


def test_connective_match_rate_type_level():
    instances = make_instances([
        ("because a .", "cause"), ("because b .", "cause"),
        ("because c .", "cause"), ("because d .", "cause"),
        ("odd one .", "result"), ("but two .", "result"),
    ])
    categories = {WINNING: ["cause", "result"]}
    instance_level = connective_match_rate(instances, categories,
                                           default_lexicon())
    type_level = connective_match_rate(instances, categories,
                                       default_lexicon(), level="type")
    assert instance_level.by_category[WINNING].percentage == pytest.approx(5 / 6 * 100)
    assert type_level.by_category[WINNING].percentage == pytest.approx(75.0)


def test_multiword_matching_flag(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("as a result\n", encoding="utf-8")
    lexicon = load_connective_lexicon(path)
    instances = make_instances([("as a result it works .", "cause")])
    categories = {WINNING: ["cause"]}
    strict = connective_match_rate(instances, categories, lexicon)
    assert strict.by_category[WINNING].matched == 0
    relaxed = connective_match_rate(instances, categories, lexicon,
                                    multiword=True)
    assert relaxed.by_category[WINNING].matched == 1


def test_percentages_bounded():
    instances = make_instances([("because x .", "cause")] * 7)
    report = connective_match_rate(instances, {WINNING: ["cause"]},
                                   default_lexicon())
    c = report.by_category[WINNING]
    assert 0.0 <= c.percentage <= 100.0
    assert c.matched <= c.total


RELATIONS = ["cause", "condition", "joint"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_outcome_counts_weight_shared_runs_as_pair_outcomes_counts(data):
    # Runs draw their A and B records from a small pool: the pool's own
    # dicts (shared, as a baseline's seeds share theirs) or equal copies.
    n = data.draw(st.integers(1, 6))
    ids = [f"i{k}" for k in range(n)]
    labels = st.lists(st.sampled_from(RELATIONS), min_size=n, max_size=n)
    gold = dict(zip(ids, data.draw(labels)))
    pool = [dict(zip(ids, data.draw(labels)))
            for _ in range(data.draw(st.integers(1, 3)))]
    picks = st.tuples(st.integers(0, len(pool) - 1), st.booleans())
    runs = []
    for run_id in range(data.draw(st.integers(1, 8))):
        sets = []
        for name in "AB":
            index, shared = data.draw(picks)
            records = pool[index] if shared else dict(pool[index])
            sets.append(PredictionSet(name, run_id, records))
        runs.append(tuple(sets))
    expected = Counter(paired_outcomes(gold, [(a.records, b.records)
                                              for a, b in runs]))
    assert pair_outcomes(gold, runs) == expected
    assert pair_outcomes(gold, iter(runs)) == expected


ARG2_WORDS = ["because", "as", "a", "result", "however,", "(but", "the",
              "in", "addition", "plain", "...", "Since"]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(RELATIONS),
                               st.lists(st.sampled_from(ARG2_WORDS), max_size=4)),
                     max_size=12),
       category_maps=st.lists(st.dictionaries(
           st.sampled_from([WINNING, LOSING, TIED]),
           st.lists(st.sampled_from(RELATIONS + ["unseen"]), max_size=4)),
           min_size=1, max_size=3),
       multiword=st.booleans())
def test_connective_match_rate_equals_the_oracle(rows, category_maps, multiword):
    instances = [RenderedInstance(f"i{k:03d}", "", "arg1", " ".join(words), label)
                 for k, (label, words) in enumerate(rows)]
    lexicon = ConnectiveLexicon(frozenset({"because", "as a result", "however",
                                           "but", "in addition", "since"}))
    hit_rows = [(i.gold_label, _matches(i.arg2_text, lexicon, multiword))
                for i in instances]
    for categories in category_maps:
        for level in ("instance", "type"):
            report = connective_match_rate(instances, categories, lexicon,
                                           level, multiword)
            assert {c: (m.matched, m.total, m.percentage)
                    for c, m in report.by_category.items()} == \
                category_match_rates(hit_rows, categories, level)


def analyze_twice_run_1(tmp_path) -> int:
    """`drckit analyze` with one prediction file given twice as set A: its
    exit code."""
    dataset = VariantDataset("c", DEFAULT, "test", (
        RenderedInstance("t:001", "", "a", "b", "cause"),), ("cause",))
    write_variant_dataset(dataset, tmp_path / "variant.jsonl")
    for condition in ("a", "b"):
        write_predictions(predictions({"t:001": "cause"}, condition, 1),
                          tmp_path / f"{condition}.jsonl")
    return main(["analyze", "--dataset", str(tmp_path / "variant.jsonl"),
                 "--preds-a", str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl"),
                 "--preds-b", str(tmp_path / "b.jsonl"), "--out", str(tmp_path / "out")])


# A fault, the exit code `drckit analyze` gives it (None: a library call that
# raises ValueError) and its message.
ANALYSIS_FAULTS = {
    "no_runs": (lambda tmp: relation_margins(Counter(), 0), None,
                "num_runs must be >= 1"),
    "unknown_level": (lambda tmp: connective_match_rate(
        [], {}, default_lexicon(), level="word"), None, "unknown level 'word'"),
    "duplicate_run_ids": (analyze_twice_run_1, 1,
                          "error: duplicate run ids in set A: [1, 1]"),
}


@pytest.mark.parametrize("fault, exit_code, message", ANALYSIS_FAULTS.values(),
                         ids=ANALYSIS_FAULTS)
def test_each_analysis_fault_is_reported(tmp_path, capsys, fault, exit_code,
                                         message):
    assert_fault_reported(capsys, lambda: fault(tmp_path), exit_code, message)
    assert not (tmp_path / "out").exists()
