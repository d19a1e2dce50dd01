from __future__ import annotations

import json
import random
import re
import tempfile
from pathlib import Path
from statistics import mean

import pytest
from hypothesis import given, settings, strategies as st

from drckit.context import ContextScheme, RenderedInstance, VariantDataset
from drckit.evaluation import (
    ClassScore,
    ConfusionMatrix,
    EvalReport,
    RunScore,
    aggregate_runs,
    bonferroni,
    compare_runs,
    report_texts,
    report_to_dict,
    score,
    wilcoxon_signed_rank,
    write_report_json,
    write_report_tsv,
    write_summary,
)
from drckit.inference import UNPARSED, PredictionSet

from oracles import brute_force_scores, enumerate_signed_rank_p

DEFAULT = ContextScheme("default")


def make_dataset(gold: list[str]) -> VariantDataset:
    instances = tuple(
        RenderedInstance(
            instance_id=f"d:{i:03d}", context_text="", arg1_text=f"a{i}",
            arg2_text=f"b{i}", gold_label=label)
        for i, label in enumerate(gold)
    )
    return VariantDataset("d", DEFAULT, "test", instances,
                          tuple(sorted(set(gold))))


def make_predictions(dataset: VariantDataset, labels: list[str],
                     condition: str = "default+x", run_id: int = 0
                     ) -> PredictionSet:
    records = {inst.instance_id: label
               for inst, label in zip(dataset.instances, labels)}
    return PredictionSet(condition=condition, run_id=run_id, records=records)


def test_score_all_correct():
    dataset = make_dataset(["A", "B", "A", "B"])
    report = score(dataset, make_predictions(dataset, ["A", "B", "A", "B"]))
    assert report.macro_f1 == 1.0
    assert report.accuracy == 1.0
    assert report.per_class["A"].support == 2


def test_score_hand_computed_case():
    dataset = make_dataset(["A", "A", "B", "B"])
    report = score(dataset, make_predictions(dataset, ["A", "B", "B", "B"]))
    assert report.per_class["A"].f1 == pytest.approx(2 / 3, abs=1e-15)
    assert report.per_class["B"].f1 == pytest.approx(4 / 5, abs=1e-15)
    assert report.macro_f1 == pytest.approx(11 / 15, abs=1e-15)
    assert report.accuracy == 0.75


def test_score_all_unparsed():
    dataset = make_dataset(["A", "B"])
    report = score(dataset, make_predictions(dataset, [UNPARSED, UNPARSED]))
    assert report.macro_f1 == 0.0
    assert report.accuracy == 0.0
    assert report.confusion.counts[0][-1] == 1  # gold A landed in <other>


def test_score_requires_exact_coverage():
    dataset = make_dataset(["A", "B"])
    preds = make_predictions(dataset, ["A", "B"])
    del preds.records["d:001"]
    with pytest.raises(ValueError, match="cover"):
        score(dataset, preds)


def test_score_matches_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(300):
        n_labels = rng.randint(1, 6)
        labels = [f"L{i}" for i in range(n_labels)]
        n = rng.randint(1, 50)
        gold = [rng.choice(labels) for _ in range(n)]
        pred = [rng.choice(labels + [UNPARSED, "junk"]) for _ in range(n)]
        dataset = make_dataset(gold)
        report = score(dataset, make_predictions(dataset, pred))
        macro, accuracy = brute_force_scores(gold, pred)
        assert report.macro_f1 == pytest.approx(macro, abs=1e-15)
        assert report.accuracy == pytest.approx(accuracy, abs=1e-15)


def loop_score(dataset, predictions):
    """score() as a loop over the dataset's instances, one count at a time."""
    gold_map = dataset.gold_labels()
    got, want = set(predictions.records), set(gold_map)
    if got != want:
        raise ValueError(f"predictions do not cover dataset "
                         f"(missing {sorted(want - got)[:5]}, "
                         f"extra {sorted(got - want)[:5]})")
    labels = tuple(sorted(set(gold_map.values())))
    index = {label: i for i, label in enumerate(labels)}
    rows = [[0] * (len(labels) + 1) for _ in labels]
    for i in dataset.instance_ids():
        rows[index[gold_map[i]]][index.get(predictions.records[i],
                                           len(labels))] += 1
    per_class = {}
    for i, label in enumerate(labels):
        tp = rows[i][i]
        fp = sum(rows[r][i] for r in range(len(labels)) if r != i)
        fn = sum(rows[i][c] for c in range(len(labels) + 1) if c != i)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class[label] = ClassScore(precision, recall, f1, support=tp + fn)
    total = len(gold_map)
    return EvalReport(
        condition=predictions.condition, run_id=predictions.run_id,
        per_class=per_class,
        macro_f1=mean(s.f1 for s in per_class.values()) if per_class else 0.0,
        accuracy=(sum(rows[i][i] for i in range(len(labels))) / total
                  if total else 0.0),
        n=total,
        confusion=ConfusionMatrix(labels, tuple(tuple(r) for r in rows)))


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from("ABC"),
                                st.sampled_from(["A", "B", "C", "D",
                                                 UNPARSED])),
                      max_size=40),
       drop=st.integers(0, 7), extra=st.integers(0, 7))
def test_score_matches_instance_loop(pairs, drop, extra):
    # D is outside the gold inventory and lands in <other> with UNPARSED.
    dataset = make_dataset([g for g, _ in pairs])
    preds = make_predictions(dataset, [p for _, p in pairs])
    for instance_id in list(preds.records)[:drop]:
        del preds.records[instance_id]
    for k in range(extra):
        preds.records[f"x:{k:03d}"] = "A"
    try:
        expected = loop_score(dataset, preds)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            score(dataset, preds)
        return
    assert score(dataset, preds) == expected


def test_score_invariant_under_relabeling():
    rng = random.Random(4)
    labels = ["x", "y", "z"]
    gold = [rng.choice(labels) for _ in range(40)]
    pred = [rng.choice(labels) for _ in range(40)]
    dataset = make_dataset(gold)
    base = score(dataset, make_predictions(dataset, pred))
    mapping = {"x": "q", "y": "r", "z": "s"}
    dataset2 = make_dataset([mapping[g] for g in gold])
    renamed = score(dataset2,
                    make_predictions(dataset2, [mapping[p] for p in pred]))
    assert renamed.macro_f1 == pytest.approx(base.macro_f1, abs=1e-15)
    assert renamed.accuracy == base.accuracy


def test_aggregate_two_runs():
    dataset = make_dataset(["A", "B"])
    r1 = score(dataset, make_predictions(dataset, ["A", "B"], run_id=0))
    agg = aggregate_runs([r1])
    assert agg.mean_macro_f1 == 1.0
    assert agg.stddev == 0.0
    assert agg.n_runs == 1


def test_aggregate_sample_stddev():
    dataset = make_dataset(["A", "B"])
    base = score(dataset, make_predictions(dataset, ["A", "B"]))
    reports = [base._replace(macro_f1=0.75, run_id=0),
               base._replace(macro_f1=0.76, run_id=1)]
    agg = aggregate_runs(reports)
    assert agg.mean_macro_f1 == pytest.approx(0.755)
    assert agg.stddev == pytest.approx(0.0070710678, abs=1e-9)


def test_aggregate_equal_scores_zero_stddev():
    dataset = make_dataset(["A"])
    base = score(dataset, make_predictions(dataset, ["A"]))
    reports = [base._replace(run_id=i) for i in range(10)]
    agg = aggregate_runs(reports)
    assert agg.stddev == 0.0
    assert agg.n_runs == 10


def test_aggregate_rejects_mixed_conditions():
    dataset = make_dataset(["A"])
    base = score(dataset, make_predictions(dataset, ["A"]))
    with pytest.raises(ValueError, match="mixed"):
        aggregate_runs([base, base._replace(condition="other")])


def test_wilcoxon_all_positive_ten_pairs():
    a = [0.5 + 0.01 * (i + 1) for i in range(10)]
    b = [0.5] * 10
    result = wilcoxon_signed_rank(a, b)
    assert result.n_effective == 10
    assert result.w_plus == 55.0
    assert result.p_two_sided == pytest.approx(2 / 1024, abs=1e-15)
    assert result.method == "exact"


def test_wilcoxon_identical_vectors():
    result = wilcoxon_signed_rank([0.3, 0.4], [0.3, 0.4])
    assert result.p_two_sided == 1.0
    assert result.n_effective == 0
    assert result.method == "all-tied"


def test_wilcoxon_matches_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 8)
        a = [rng.choice([0.0, 0.1, 0.25, 0.5, 0.75]) for _ in range(n)]
        b = [rng.choice([0.0, 0.1, 0.25, 0.5, 0.75]) for _ in range(n)]
        result = wilcoxon_signed_rank(a, b)
        w_ref, p_ref = enumerate_signed_rank_p(a, b)
        assert result.w_plus == pytest.approx(w_ref, abs=1e-12)
        assert result.p_two_sided == pytest.approx(p_ref, abs=1e-12)


def test_wilcoxon_shift_and_scale_invariance():
    rng = random.Random(31)
    a = [rng.random() for _ in range(9)]
    b = [rng.random() for _ in range(9)]
    base = wilcoxon_signed_rank(a, b)
    shifted = wilcoxon_signed_rank([x + 5 for x in a], [x + 5 for x in b])
    assert shifted.p_two_sided == pytest.approx(base.p_two_sided, abs=1e-12)
    scaled = wilcoxon_signed_rank([x * 4 for x in a], [x * 4 for x in b])
    assert scaled.p_two_sided == pytest.approx(base.p_two_sided, abs=1e-12)


def test_wilcoxon_bounds():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 12)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        result = wilcoxon_signed_rank(a, b)
        assert 0.0 <= result.p_two_sided <= 1.0
        n_eff = result.n_effective
        assert 0.0 <= result.w_plus <= n_eff * (n_eff + 1) / 2


def test_wilcoxon_normal_approximation_path():
    n = 30
    a = [0.5 + 0.001 * (i + 1) for i in range(n)]
    b = [0.5] * n
    result = wilcoxon_signed_rank(a, b)
    assert result.method == "normal"
    assert 0.0 < result.p_two_sided < 1e-4
    # perfectly balanced differences sit at the null mean, p collapses to 1
    diffs = [float(d) for d in range(1, 12)] + [-float(d) for d in range(1, 12)]
    sym = wilcoxon_signed_rank(diffs, [0.0] * len(diffs))
    assert sym.method == "normal"
    assert sym.p_two_sided == 1.0


def test_wilcoxon_handles_tied_magnitudes():
    a = [1.0, 1.0, 2.0, 0.0]
    b = [0.0, 0.0, 0.0, 0.0]
    result = wilcoxon_signed_rank(a, b)
    w_ref, p_ref = enumerate_signed_rank_p(a, b)
    assert result.n_effective == 3
    assert result.w_plus == pytest.approx(w_ref, abs=1e-12)
    assert result.p_two_sided == pytest.approx(p_ref, abs=1e-12)


def test_wilcoxon_length_mismatch():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])


def test_bonferroni_adjustment():
    result = wilcoxon_signed_rank([1, 2, 3], [0, 0, 0.0])
    [adjusted] = bonferroni([result], m=2, alpha=0.05)
    assert adjusted.p_adjusted == pytest.approx(min(1.0, 2 * result.p_two_sided))

    r = result._replace(p_two_sided=0.01)
    [adj] = bonferroni([r], m=2, alpha=0.05)
    assert adj.p_adjusted == pytest.approx(0.02)
    assert adj.significant is True

    r = result._replace(p_two_sided=0.8)
    [adj] = bonferroni([r], m=3, alpha=0.05)
    assert adj.p_adjusted == 1.0
    assert adj.significant is False

    r = result._replace(p_two_sided=0.0196)
    [adj] = bonferroni([r], m=2, alpha=0.05)
    assert adj.p_adjusted == pytest.approx(0.0392)
    assert adj.significant is True


def test_bonferroni_requires_family_at_least_results():
    result = wilcoxon_signed_rank([1.0], [0.0])
    with pytest.raises(ValueError, match="smaller"):
        bonferroni([result, result], m=1)


# Labels and conditions that stress the JSON text: quotes, escapes, the key
# name itself, line and paragraph separators, non-ASCII.
TRICKY_TEXT = st.one_of(
    st.sampled_from(['"run_id": 1', 'a"b', "back\\slash", "line\nbreak",
                     "tab\tbed", "\u2028sep\u2029", "é-ü", "😀", "", "{}"]),
    st.text(max_size=6))


@settings(max_examples=150, deadline=None)
@given(gold=st.lists(TRICKY_TEXT, min_size=1, max_size=8), data=st.data(),
       condition=TRICKY_TEXT,
       run_ids=st.lists(st.one_of(st.sampled_from([0, 2**63]), st.integers()),
                        min_size=1, max_size=4))
def test_shared_report_texts_give_each_runs_own_report(gold, data, condition,
                                                       run_ids):
    dataset = make_dataset(gold)
    predicted = data.draw(st.lists(st.one_of(st.sampled_from(gold), TRICKY_TEXT),
                                   min_size=len(gold), max_size=len(gold)))
    report = score(dataset, make_predictions(dataset, predicted, condition,
                                             run_ids[0]))
    texts = report_texts(report)
    with tempfile.TemporaryDirectory() as tmp:
        shared, own = Path(tmp) / "shared", Path(tmp) / "own"
        for run_id in run_ids:
            seed_report = report._replace(run_id=run_id)
            write_report_json(seed_report, shared, texts)
            assert shared.read_text(encoding="utf-8") == json.dumps(
                report_to_dict(seed_report), ensure_ascii=False, indent=2,
                sort_keys=True) + "\n"
            write_report_tsv(seed_report, shared, texts)
            write_report_tsv(seed_report, own)
            assert shared.read_bytes() == own.read_bytes()


# A call that no CLI command can make, and the error it raises.
EVALUATION_FAULTS = {
    "no_reports": (lambda: aggregate_runs([]), "need at least one report"),
    "no_pairs": (lambda: wilcoxon_signed_rank([], []), "need at least one pair"),
}


@pytest.mark.parametrize("call, outcome", EVALUATION_FAULTS.values(),
                         ids=EVALUATION_FAULTS)
def test_each_degenerate_input_is_reported(call, outcome):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == outcome


def test_dagger_marks_only_a_significant_improvement(tmp_path):
    # Every seed scores below default under AD1 and above it under OR1, so
    # the two-sided test finds both differences significant.
    base = [0.40 + seed / 100 for seed in range(10)]
    scores = {"default+cue": base, "AD1+cue": [s - 0.2 for s in base],
              "OR1+cue": [s + 0.1 for s in base]}
    runs = {condition: [RunScore(condition, seed, s) for seed, s in enumerate(group)]
            for condition, group in scores.items()}
    write_summary(runs, [("AD1+cue", "default+cue"), ("OR1+cue", "default+cue")],
                  0.05, 2, tmp_path)
    table = (tmp_path / "results_table.txt").read_text(encoding="utf-8").splitlines()
    marked = {line.split()[0]: line.endswith("†") for line in table[1:]}
    assert marked == {"default+cue": False, "AD1+cue": False, "OR1+cue": True}
    significance = (tmp_path / "significance.tsv").read_text(encoding="utf-8")
    assert [row.split("\t")[-1] for row in significance.splitlines()[1:]] == \
        ["True", "True"]


def test_compare_runs_pairs_by_run_id_not_by_position():
    runs_a = [RunScore("OR1+x", seed, 0.5 + seed / 10) for seed in range(6)]
    runs_b = [RunScore("default+x", seed, 0.45 + (seed % 3) / 10) for seed in range(6)]
    result = compare_runs(runs_a, runs_b)
    assert result == compare_runs(runs_a[::-1], runs_b)
    assert result == wilcoxon_signed_rank([a.macro_f1 for a in runs_a],
                                          [b.macro_f1 for b in runs_b],
                                          comparison=("OR1+x", "default+x"))


def test_summary_raises_on_runs_that_do_not_pair(tmp_path):
    # Positional pairs would test seed 1 against seed 2 and write a row.
    runs = {"OR1+x": [RunScore("OR1+x", seed, 0.4 + seed / 10) for seed in (1, 2, 3)],
            "default+x": [RunScore("default+x", seed, 0.2 + seed / 10)
                          for seed in (2, 3, 4)]}
    with pytest.raises(ValueError, match=re.escape(
            "runs do not pair by run id: A has [1, 2, 3], B has [2, 3, 4]")):
        write_summary(runs, [("OR1+x", "default+x")], 0.05, 1, tmp_path)
    assert list(tmp_path.iterdir()) == []
