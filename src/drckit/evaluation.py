"""Scoring, cross-run aggregation and nonparametric significance testing.

Macro-F1 is the unweighted mean of per-class F1 over the gold label set of
the evaluated split, with the 0/0 = 0 convention throughout, so classes
the model never predicts still drag the average down.  Significance uses
the Wilcoxon signed-rank test over run-paired scores: exact two-sided p by
sign enumeration for small samples, a tie-corrected normal approximation
beyond that, and Bonferroni adjustment across a comparison family.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from statistics import mean, stdev
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .analysis import pair_by_run_id
from .fields import INTEGER, NUMBER, STRING, check_fields, decode, write_atomic

if TYPE_CHECKING:
    from .context import VariantDataset
    from .inference import PredictionSet

#: Confusion-matrix column for predictions outside the gold inventory
#: (unparsed output, unknown labels from imported files).
OTHER_COLUMN = "<other>"

#: Largest effective sample size for which the signed-rank test gives the
#: exact p; above it, the test switches to the normal approximation.
EXACT_ENUMERATION_LIMIT = 20


class ClassScore(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


class ConfusionMatrix(NamedTuple):
    """Gold rows by predicted columns, plus one column for odd predictions."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def columns(self) -> tuple[str, ...]:
        return self.labels + (OTHER_COLUMN,)


class EvalReport(NamedTuple):
    condition: str
    run_id: int
    per_class: dict[str, ClassScore]
    macro_f1: float
    accuracy: float
    n: int
    confusion: ConfusionMatrix


class RunScore(NamedTuple):
    """What aggregation and significance testing need of one scored run."""

    condition: str
    run_id: int
    macro_f1: float


class RunAggregate(NamedTuple):
    condition: str
    mean_macro_f1: float
    stddev: float  # sample standard deviation; 0.0 when n_runs == 1
    n_runs: int


class SignificanceResult(NamedTuple):
    comparison: tuple[str, str]
    n_pairs: int
    n_effective: int
    w_plus: float
    p_two_sided: float
    method: str  # "exact" | "normal" | "all-tied"
    p_adjusted: float | None = None
    alpha: float | None = None
    significant: bool | None = None


def confusion_matrix(gold: Iterable[str], predicted: Iterable[str],
                     labels: Sequence[str]) -> ConfusionMatrix:
    index = {label: i for i, label in enumerate(labels)}
    rows = [[0] * (len(labels) + 1) for _ in labels]
    for (g, p), n in Counter(zip(gold, predicted)).items():
        rows[index[g]][index.get(p, len(labels))] += n
    return ConfusionMatrix(labels=tuple(labels),
                           counts=tuple(tuple(row) for row in rows))


def score(dataset: VariantDataset, predictions: PredictionSet) -> EvalReport:
    """Per-class P/R/F1, macro-F1 and accuracy for one prediction set.

    Predictions must cover the dataset exactly.  The class set is the
    sorted gold inventory of this split.
    """
    gold_map = dataset.gold_labels()
    records = predictions.records
    if records.keys() != gold_map.keys():
        missing = sorted(gold_map.keys() - records.keys())[:5]
        extra = sorted(records.keys() - gold_map.keys())[:5]
        raise ValueError(f"predictions do not cover dataset "
                         f"(missing {missing}, extra {extra})")

    labels = tuple(sorted(set(gold_map.values())))
    matrix = confusion_matrix(gold_map.values(), map(records.get, gold_map),
                              labels)

    per_class = {}
    for i, label in enumerate(labels):
        tp = matrix.counts[i][i]
        fp = sum(matrix.counts[r][i] for r in range(len(labels)) if r != i)
        fn = sum(matrix.counts[i][c] for c in range(len(labels) + 1) if c != i)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class[label] = ClassScore(precision, recall, f1, support=tp + fn)

    correct = sum(matrix.counts[i][i] for i in range(len(labels)))
    total = len(gold_map)
    return EvalReport(
        condition=predictions.condition,
        run_id=predictions.run_id,
        per_class=per_class,
        macro_f1=mean(s.f1 for s in per_class.values()) if per_class else 0.0,
        accuracy=correct / total if total else 0.0,
        n=total,
        confusion=matrix,
    )


def aggregate_runs(reports: Sequence[EvalReport | RunScore]) -> RunAggregate:
    """Mean and sample standard deviation of macro-F1 across runs, from
    reports or from the scores read back out of report files."""
    if not reports:
        raise ValueError("need at least one report")
    conditions = {r.condition for r in reports}
    if len(conditions) > 1:
        raise ValueError(f"mixed conditions: {sorted(conditions)}")
    scores = [r.macro_f1 for r in reports]
    return RunAggregate(
        condition=reports[0].condition,
        mean_macro_f1=mean(scores),
        stddev=stdev(scores) if len(scores) > 1 else 0.0,
        n_runs=len(scores),
    )


def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2  # average of 1-based positions i+1..j+1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _exact_two_sided_p(ranks: Sequence[float], w_plus: float) -> float:
    # Average ranks are integer multiples of 1/2; doubling makes the
    # subset-sum table exact in integers.
    scaled = [int(round(2 * r)) for r in ranks]
    total = sum(scaled)
    table = [0] * (total + 1)
    table[0] = 1
    for r in scaled:
        for s in range(total, r - 1, -1):
            table[s] += table[s - r]
    w2 = int(round(2 * w_plus))
    at_most = sum(table[: w2 + 1])
    at_least = sum(table[w2:])
    p = 2 * min(at_most, at_least) / 2 ** len(ranks)
    return min(1.0, p)


def _normal_two_sided_p(ranks: Sequence[float], w_plus: float) -> float:
    n = len(ranks)
    mu = n * (n + 1) / 4
    variance = n * (n + 1) * (2 * n + 1) / 24
    tie_sizes: dict[float, int] = {}
    for r in ranks:
        tie_sizes[r] = tie_sizes.get(r, 0) + 1
    variance -= sum(t ** 3 - t for t in tie_sizes.values()) / 48
    d = w_plus - mu
    # Continuity correction shrinks |d| by one half step.
    d -= 0.5 * (1 if d > 0 else -1 if d < 0 else 0)
    z = d / math.sqrt(variance)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def wilcoxon_signed_rank(scores_a: Sequence[float], scores_b: Sequence[float],
                         comparison: tuple[str, str] = ("A", "B")
                         ) -> SignificanceResult:
    """Two-sided Wilcoxon signed-rank test over run-paired scores.

    Differences a_i - b_i are taken pair by pair, zeros dropped, absolute
    values ranked with average ranks on ties, and W+ is the rank sum of the
    positive differences.  Up to EXACT_ENUMERATION_LIMIT effective pairs
    the p-value comes from the exact sign-flip null distribution; larger
    samples use the tie-corrected normal approximation with continuity
    correction.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError("score vectors must have the same length")
    if not scores_a:
        raise ValueError("need at least one pair")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    nonzero = [d for d in diffs if d != 0]
    n_eff = len(nonzero)
    if n_eff == 0:
        return SignificanceResult(comparison=comparison, n_pairs=len(diffs),
                                  n_effective=0, w_plus=0.0, p_two_sided=1.0,
                                  method="all-tied")
    ranks = _average_ranks([abs(d) for d in nonzero])
    w_plus = sum(r for d, r in zip(nonzero, ranks) if d > 0)
    if n_eff <= EXACT_ENUMERATION_LIMIT:
        p = _exact_two_sided_p(ranks, w_plus)
        method = "exact"
    else:
        p = _normal_two_sided_p(ranks, w_plus)
        method = "normal"
    return SignificanceResult(comparison=comparison, n_pairs=len(diffs),
                              n_effective=n_eff, w_plus=w_plus,
                              p_two_sided=p, method=method)


def compare_runs(runs_a: Sequence[EvalReport | RunScore],
                 runs_b: Sequence[EvalReport | RunScore]) -> SignificanceResult:
    """Signed-rank test of two conditions' macro-F1, A - B, paired by run id."""
    pairs = pair_by_run_id(runs_a, runs_b, "report")
    return wilcoxon_signed_rank([a.macro_f1 for a, _ in pairs],
                                [b.macro_f1 for _, b in pairs],
                                comparison=(runs_a[0].condition, runs_b[0].condition))


def bonferroni(results: Sequence[SignificanceResult], m: int,
               alpha: float = 0.05) -> list[SignificanceResult]:
    """Adjust each p for a family of m comparisons, capped at 1."""
    if m < len(results):
        raise ValueError(f"m = {m} is smaller than the number of "
                         f"comparisons ({len(results)})")
    adjusted = []
    for result in results:
        p_adj = min(1.0, result.p_two_sided * m)
        adjusted.append(result._replace(p_adjusted=p_adj, alpha=alpha,
                                        significant=p_adj < alpha))
    return adjusted


def report_to_dict(report: EvalReport) -> dict:
    return {
        "condition": report.condition,
        "run_id": report.run_id,
        "macro_f1": report.macro_f1,
        "accuracy": report.accuracy,
        "n": report.n,
        "per_class": {label: s._asdict() for label, s in report.per_class.items()},
        "confusion": {
            "labels": list(report.confusion.labels),
            "columns": list(report.confusion.columns),
            "counts": [list(row) for row in report.confusion.counts],
        },
    }


def report_texts(report: EvalReport) -> tuple[str, str]:
    """What the reports of one score under any run id share, for the writers
    below: the JSON up to its last key, ``run_id``, and the TSV table."""
    text = json.dumps(report_to_dict(report), ensure_ascii=False, indent=2,
                      sort_keys=True)
    lines = ["label\tprecision\trecall\tf1\tsupport"]
    for label in report.confusion.labels:
        s = report.per_class[label]
        lines.append(f"{label}\t{s.precision:.6f}\t{s.recall:.6f}"
                     f"\t{s.f1:.6f}\t{s.support}")
    lines.append(f"macro_f1\t\t\t{report.macro_f1:.6f}\t{report.n}")
    lines.append(f"accuracy\t\t\t{report.accuracy:.6f}\t{report.n}")
    return text[:text.rindex('"run_id": ')], "\n".join(lines) + "\n"


def write_report_json(report: EvalReport, path: Path | str,
                      texts: tuple[str, str] | None = None) -> None:
    body = (texts or report_texts(report))[0]
    write_atomic(path, f'{body}"run_id": {json.dumps(report.run_id)}\n}}\n')


def read_report_scores(path: Path | str) -> RunScore:
    """Pull (condition, run_id, macro_f1) back out of a report file.

    JSON floats round-trip exactly, so the score equals the one scored."""
    fields = {"condition": STRING, "run_id": INTEGER, "macro_f1": NUMBER}
    try:
        payload = check_fields(decode(Path(path).read_bytes()), fields)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed report: {exc}") from exc
    return RunScore(payload["condition"], payload["run_id"], float(payload["macro_f1"]))


def write_report_tsv(report: EvalReport, path: Path | str,
                     texts: tuple[str, str] | None = None) -> None:
    write_atomic(path, (texts or report_texts(report))[1])


def score_run(dataset: VariantDataset, preds: PredictionSet, report_dir: Path,
              stem: str, shared: dict) -> EvalReport:
    """Score one run and write ``<stem>.report.json`` and ``.report.tsv``;
    ``shared`` keeps each records dict's score and texts for one condition."""
    if id(preds.records) not in shared:  # an entry holds the dict it is keyed by
        report = score(dataset, preds)
        shared[id(preds.records)] = preds.records, report, report_texts(report)
    _, report, texts = shared[id(preds.records)]
    report = report._replace(run_id=preds.run_id)
    write_report_json(report, report_dir / f"{stem}.report.json", texts)
    write_report_tsv(report, report_dir / f"{stem}.report.tsv", texts)
    return report


def mean_line(agg: RunAggregate) -> str:
    """The line ``evaluate`` and ``experiment`` print for a condition's runs."""
    return (f"{agg.condition}: mean macro-F1 {100 * agg.mean_macro_f1:.2f} "
            f"({100 * agg.stddev:.2f}) over {agg.n_runs} runs")


def format_results_table(aggregates: Sequence[RunAggregate],
                         significance: dict[str, SignificanceResult] | None = None
                         ) -> str:
    """Render the "mean (stddev)" table with significance daggers.

    Scores are scaled to percentage points and rounded to two decimals;
    a dagger marks a condition significantly above its baseline: its adjusted
    p beats alpha and W+ (scheme minus baseline) tops its null mean.
    """
    significance = significance or {}
    width = max((len(a.condition) for a in aggregates), default=9)
    width = max(width, len("condition"))
    lines = [f"{'condition':<{width}}  macro-F1"]
    for agg in aggregates:
        cell = f"{100 * agg.mean_macro_f1:.2f} ({100 * agg.stddev:.2f})"
        result = significance.get(agg.condition)
        if result is not None and result.significant and \
                result.w_plus > result.n_effective * (result.n_effective + 1) / 4:
            cell += "†"
        if agg.n_runs == 1:
            cell += " [n=1]"
        lines.append(f"{agg.condition:<{width}}  {cell}")
    return "\n".join(lines)


def write_summary(runs: dict[str, Sequence[EvalReport | RunScore]],
                  comparisons: Sequence[tuple[str, str]], alpha: float,
                  m: int | None, out_dir: Path) -> str:
    """Write ``results_table.txt`` of each condition's ``runs`` under ``out_dir``,
    and ``significance.tsv`` if there are ``comparisons`` (condition, baseline),
    each tested by ``compare_runs`` and Bonferroni-adjusted over ``m``; return
    each condition's mean line and the table, as ``experiment`` prints them."""
    aggregates = [aggregate_runs(group) for group in runs.values()]
    significance = {}
    if comparisons:  # load_experiment_config has checked m
        results = [compare_runs(runs[a], runs[b]) for a, b in comparisons]
        sig_lines = ["condition\tbaseline\tn_eff\tw_plus\tp\tp_adjusted\tsignificant"]
        for result in bonferroni(results, m, alpha):
            significance[result.comparison[0]] = result
            sig_lines.append(
                f"{result.comparison[0]}\t{result.comparison[1]}"
                f"\t{result.n_effective}\t{result.w_plus:g}"
                f"\t{result.p_two_sided:.6g}\t{result.p_adjusted:.6g}"
                f"\t{result.significant}")
        write_atomic(out_dir / "significance.tsv", "\n".join(sig_lines) + "\n")
    table = format_results_table(aggregates, significance)
    write_atomic(out_dir / "results_table.txt", table + "\n")
    return "\n".join([*map(mean_line, aggregates), table])
