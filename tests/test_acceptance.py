"""Acceptance suite: one test per release criterion, with timing budgets.

Criteria 1 and 2 run against the official SciDTB release.  Point
SCIDTB_DIR at the dataset root (the directory holding the train/dev/test
split folders) or place it under data/scidtb next to this repository's
root; without the dataset those two tests skip with an explicit message.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from drckit.analysis import (
    LOSING,
    TIED,
    WINNING,
    margins_by_category,
    pair_outcomes,
    relation_margins,
)
from drckit.context import (
    ContextScheme,
    build_variant_dataset,
    context_fragments,
    corpus_label_inventory,
)
from drckit.evaluation import score, wilcoxon_signed_rank
from drckit.inference import (
    PredictionSet,
    build_prompt,
    predict_baseline,
    prompt_prefix,
    train_baseline,
)
from drckit.treebank import (
    Corpus,
    count_instances,
    dependency_distance_stats,
    extract_instances,
    load_corpus,
)

from conftest import disambiguation_split, synthetic_corpus, tree_from
from oracles import (
    brute_force_scores,
    enumerate_signed_rank_p,
    path_to_root,
    preceding_sentences,
)
from test_inference import (
    THREE_LABEL_EXAMPLES,
    TWO_LABEL_EXAMPLES,
    golden,
    rendered,
)

DEFAULT = ContextScheme("default")
OR1 = ContextScheme("oracle", 1)

SCIDTB_EXPECTED = {"train": 6061, "dev": 1935, "test": 1912}


@contextmanager
def criterion(name: str, budget_seconds: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.monotonic() - started
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"{name} took {elapsed:.1f}s, budget {budget_seconds}s")
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def _has_documents(path: Path) -> bool:
    return path.is_dir() and any(path.glob("*.dep"))


def _split_dir(root: Path, split: str) -> Path | None:
    direct = root / split
    if _has_documents(direct):
        return direct
    gold = direct / "gold"
    if _has_documents(gold):
        return gold
    return None


def scidtb_root() -> Path | None:
    candidates = []
    env = os.environ.get("SCIDTB_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "scidtb")
    for candidate in candidates:
        if candidate.is_dir() and all(
                _split_dir(candidate, s) for s in SCIDTB_EXPECTED):
            return candidate
    return None


def _skip_scidtb(name: str):
    print(f"[acceptance] {name}: SKIP (SciDTB release not found; "
          f"set SCIDTB_DIR to the dataset root)")
    pytest.skip("SciDTB release not available in this environment")


def _load_scidtb_split(root: Path, split: str) -> Corpus:
    split_dir = _split_dir(root, split)
    relative = split_dir.relative_to(root)
    return load_corpus(root, str(relative), name="scidtb")


def test_c1_ingestion_fidelity():
    root = scidtb_root()
    if root is None:
        _skip_scidtb("C1 ingestion-fidelity")
    with criterion("C1 ingestion-fidelity", budget_seconds=10.0):
        for split, expected in SCIDTB_EXPECTED.items():
            corpus = _load_scidtb_split(root, split)
            got = count_instances(corpus)
            deviation = abs(got - expected) / expected
            assert deviation <= 0.02, (
                f"{split}: {got} instances vs expected {expected} "
                f"({100 * deviation:.2f}% off)")
            if got != expected:
                print(f"[acceptance] C1 note: {split} counted {got} vs "
                      f"{expected} (within 2%; counting convention: one "
                      f"instance per non-root EDU)")


def test_c2_corpus_statistics():
    root = scidtb_root()
    if root is None:
        _skip_scidtb("C2 corpus-statistics")
    with criterion("C2 corpus-statistics", budget_seconds=10.0):
        trees = []
        for split in SCIDTB_EXPECTED:
            trees.extend(_load_scidtb_split(root, split).trees)
        stats = dependency_distance_stats(Corpus("scidtb", "all", tuple(trees)))
        units = {"edu": stats.edu, "sentence": stats.sentence}
        matching = [
            unit for unit, gap in units.items()
            if abs(gap.adjacent_fraction - 0.61) <= 0.03
            and abs(gap.gap_3_to_5_fraction - 0.10) <= 0.03
        ]
        details = {unit: (round(gap.adjacent_fraction, 4),
                          round(gap.gap_3_to_5_fraction, 4))
                   for unit, gap in units.items()}
        assert matching, f"neither gap unit matches 61%/10%: {details}"


def test_c3_metric_oracle_equivalence():
    with criterion("C3 metric-oracle", budget_seconds=5.0):
        rng = random.Random(2024)
        from test_evaluation import make_dataset, make_predictions
        for _ in range(1000):
            labels = [f"L{i}" for i in range(rng.randint(1, 6))]
            n = rng.randint(1, 50)
            gold = [rng.choice(labels) for _ in range(n)]
            pred = [rng.choice(labels + ["<UNPARSED>", "junk"]) for _ in range(n)]
            dataset = make_dataset(gold)
            report = score(dataset, make_predictions(dataset, pred))
            macro_ref, accuracy_ref = brute_force_scores(gold, pred)
            assert abs(report.macro_f1 - macro_ref) <= 1e-12
            assert abs(report.accuracy - accuracy_ref) <= 1e-12


def test_c4_wilcoxon_exactness():
    with criterion("C4 wilcoxon-exactness", budget_seconds=10.0):
        rng = random.Random(777)
        for _ in range(200):
            n = rng.randint(1, 12)
            grid = [i / 8 for i in range(9)]
            a = [rng.choice(grid) for _ in range(n)]
            b = [rng.choice(grid) for _ in range(n)]
            result = wilcoxon_signed_rank(a, b)
            w_ref, p_ref = enumerate_signed_rank_p(a, b)
            assert abs(result.w_plus - w_ref) <= 1e-12
            assert abs(result.p_two_sided - p_ref) <= 1e-12

        all_positive = wilcoxon_signed_rank(
            [0.5 + (i + 1) / 16 for i in range(10)], [0.5] * 10)
        assert all_positive.method == "exact"
        assert abs(all_positive.p_two_sided - 0.001953125) <= 1e-15


def test_c5_context_scheme_correctness(worked_example_tree):
    with criterion("C5 context-schemes"):
        corpus, raw = synthetic_corpus(seed=4242, n_docs=50)
        checked = 0
        for tree in corpus.trees:
            records = raw[tree.doc_id]
            texts = {rec[0]: rec[3].strip() for rec in records}
            for inst in extract_instances(tree):
                for n in (1, 2, 3):
                    expected = [texts[i] for i in reversed(
                        path_to_root(records, inst.arg1_edu_id)[:n])]
                    got = context_fragments(tree, inst.arg1_edu_id,
                                            ContextScheme("oracle", n))
                    assert got == expected, (tree.doc_id, inst.instance_id, n)
                ad_expected = preceding_sentences(records, inst.arg1_edu_id, 1)
                assert context_fragments(tree, inst.arg1_edu_id,
                                         ContextScheme("add", 1)) \
                    == ad_expected, (tree.doc_id, inst.instance_id)
                checked += 1
        assert checked > 100

        worked = [i for i in extract_instances(worked_example_tree)
                  if i.arg2_edu_id == 4]
        fragments = context_fragments(worked_example_tree, worked[0].arg1_edu_id,
                                      OR1)
        assert fragments == ["that is efficient ..."]


def _disambiguation_corpus(split: str, n_per_label: int, prefix: str) -> Corpus:
    docs = disambiguation_split(n_per_label, prefix)
    trees = tuple(tree_from(records, doc_id)
                  for doc_id, records in sorted(docs.items()))
    return Corpus("disamb", split, trees)


def test_c6_context_benefit_end_to_end():
    with criterion("C6 context-benefit", budget_seconds=30.0):
        train_corpus = _disambiguation_corpus("train", 6, "tr")
        test_corpus = _disambiguation_corpus("test", 4, "te")
        inventory = corpus_label_inventory(train_corpus)
        seeds = list(range(1, 11))
        scores = {}
        for scheme in (DEFAULT, OR1):
            train_ds = build_variant_dataset(train_corpus, scheme, inventory)
            test_ds = build_variant_dataset(test_corpus, scheme, inventory)
            model = train_baseline(train_ds, "cue")
            per_run = []
            for seed in seeds:
                preds = predict_baseline(model, test_ds,
                                         f"{scheme.tag}+cue", run_id=seed)
                per_run.append(score(test_ds, preds).macro_f1)
            scores[scheme.tag] = per_run
        mean_default = sum(scores["default"]) / len(seeds)
        mean_or1 = sum(scores["OR1"]) / len(seeds)
        assert mean_or1 > mean_default, (mean_or1, mean_default)
        result = wilcoxon_signed_rank(scores["OR1"], scores["default"])
        assert result.method == "exact"
        assert result.p_two_sided < 0.05, result


def test_c7_paired_analysis_exactness():
    with criterion("C7 paired-analysis"):
        gold = {"e1": "elaboration", "e2": "elaboration",
                "c1": "condition", "b1": "background"}
        run_preds = {
            1: ({"e1": "elaboration", "e2": "condition",
                 "c1": "condition", "b1": "background"},
                {"e1": "elaboration", "e2": "elaboration",
                 "c1": "background", "b1": "background"}),
            2: ({"e1": "background", "e2": "condition",
                 "c1": "condition", "b1": "background"},
                {"e1": "elaboration", "e2": "elaboration",
                 "c1": "elaboration", "b1": "background"}),
        }
        runs = [(PredictionSet("default+plm", run_id, dict(rec_a)),
                 PredictionSet("OR1+plm", run_id, dict(rec_b)))
                for run_id, (rec_a, rec_b) in run_preds.items()]
        outcomes = pair_outcomes(gold, runs)
        swapped = pair_outcomes(gold, [(b, a) for a, b in runs])

        margins = {m.relation: m for m in relation_margins(outcomes, num_runs=2)}
        assert (margins["elaboration"].wins,
                margins["elaboration"].losses,
                margins["elaboration"].ties) == (3, 0, 1)
        assert margins["elaboration"].delta == 1.5
        assert margins["elaboration"].category == WINNING
        assert (margins["condition"].wins,
                margins["condition"].losses,
                margins["condition"].ties) == (0, 2, 0)
        assert margins["condition"].delta == -1.0
        assert margins["condition"].category == LOSING
        assert (margins["background"].wins,
                margins["background"].losses,
                margins["background"].ties) == (0, 0, 2)
        assert margins["background"].delta == 0.0
        assert margins["background"].category == TIED
        total = sum(m.wins + m.losses + m.ties for m in margins.values())
        assert total == len(gold) * 2
        ordering = [m.relation for m in relation_margins(outcomes, num_runs=2)]
        assert ordering == ["elaboration", "condition", "background"]
        categories = margins_by_category(relation_margins(outcomes, num_runs=2))
        assert categories == {WINNING: ["elaboration"],
                              LOSING: ["condition"],
                              TIED: ["background"]}

        swapped_margins = {m.relation: m
                           for m in relation_margins(swapped, num_runs=2)}
        for relation, m in margins.items():
            assert swapped_margins[relation].delta == -m.delta


def test_c8_prompt_golden_files():
    with criterion("C8 prompt-goldens"):
        cases = [
            ("prompt_two_label_default.txt", ("condition", "contrast"),
             TWO_LABEL_EXAMPLES, ""),
            ("prompt_two_label_context.txt", ("condition", "contrast"),
             TWO_LABEL_EXAMPLES, "that is efficient ..."),
            ("prompt_three_label_default.txt",
             ("attribution", "background", "elab-addition"),
             THREE_LABEL_EXAMPLES, ""),
            ("prompt_three_label_context.txt",
             ("attribution", "background", "elab-addition"),
             THREE_LABEL_EXAMPLES,
             "we present a toolkit for discourse analysis ."),
        ]
        for name, inventory, examples, context in cases:
            if inventory == ("condition", "contrast"):
                target = rendered(
                    "t:001", "because it can compute a single node similarity",
                    "without having to compute the similarities of the entire graph .",
                    "condition", context=context)
            else:
                target = rendered(
                    "t:002", "the model predicts a relation",
                    "for every pair of units .", "background", context=context)
            assert build_prompt(prompt_prefix(inventory, examples), target) \
                == golden(name), name


def test_c9_mock_endpoint_inference(tmp_path):
    from drckit.endpoint import EndpointError
    from drckit.inference import endpoint_predictions
    from conftest import ARG2_RE, MockChatServer, gold_echo_behavior
    from test_endpoint import config_for, fixture_datasets

    with criterion("C9 mock-endpoint"):
        test_ds, train_ds = fixture_datasets(n=8)

        # gold echo: perfect score, twice, identically
        runs = []
        for attempt in range(2):
            with MockChatServer(gold_echo_behavior(test_ds)) as server:
                preds = endpoint_predictions(
                    test_ds, train_ds, config_for(server), seed=5,
                    log_path=tmp_path / f"gold{attempt}.log.jsonl",
                    condition="default+mock")
            runs.append(preds.records)
            assert score(test_ds, preds).accuracy == 1.0
        assert runs[0] == runs[1]

        # garbage: every record lands on the unparsed sentinel
        with MockChatServer(lambda payload, index: (200, "beats me")) as server:
            preds = endpoint_predictions(
                test_ds, train_ds, config_for(server), seed=5,
                log_path=tmp_path / "garbage.log.jsonl",
                condition="default+mock")
        assert preds.unparsed_count == len(test_ds.instances)

        # flaky: two failures are retried through to a complete set
        gold = gold_echo_behavior(test_ds)

        def flaky(payload, index):
            if index < 2:
                return 500, None
            return gold(payload, index)

        with MockChatServer(flaky) as server:
            preds = endpoint_predictions(
                test_ds, train_ds, config_for(server, parallelism=1), seed=5,
                log_path=tmp_path / "flaky.log.jsonl",
                condition="default+mock")
            assert len(server.payloads) == len(test_ds.instances) + 2
        assert preds.records == test_ds.gold_labels()

        # hard failure aborts resumably, a rerun finishes the job
        poison = test_ds.instances[4].arg2_text

        def failing(payload, index):
            prompt = payload["messages"][0]["content"]
            if ARG2_RE.search(prompt.splitlines()[-1]).group(1) == poison:
                return 503, None
            return gold(payload, index)

        log_path = tmp_path / "resume.log.jsonl"
        with MockChatServer(failing) as server:
            with pytest.raises(EndpointError):
                endpoint_predictions(
                    test_ds, train_ds,
                    config_for(server, parallelism=1, max_retries=1),
                    seed=5, log_path=log_path, condition="default+mock")
        persisted = len(log_path.read_text(encoding="utf-8").splitlines())
        assert 1 <= persisted < len(test_ds.instances)
        with MockChatServer(gold) as server:
            preds = endpoint_predictions(
                test_ds, train_ds, config_for(server), seed=5,
                log_path=log_path, condition="default+mock")
            assert len(server.payloads) == len(test_ds.instances) - persisted
        assert preds.records == test_ds.gold_labels()
