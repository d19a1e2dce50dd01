"""Paired error analysis between two prediction conditions.

For every instance and run, condition B (typically the context-bearing
one) either wins (B correct, A wrong), loses (A correct, B wrong) or ties
with condition A.  Margins aggregate wins and losses per gold relation
over the runs, and a connective-lexicon lookup over the first word of the
second argument separates explicitly marked relations from implicit ones.
"""

from __future__ import annotations

import string
from collections import Counter
from itertools import islice
from operator import eq, sub
from pathlib import Path
from typing import (TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence,
                    TypeVar)

from .fields import write_atomic

if TYPE_CHECKING:
    from .context import RenderedInstance, VariantDataset
    from .inference import PredictionSet

T = TypeVar("T")

WIN = "win"
LOSS = "loss"
TIE = "tie"

WINNING = "winning"
LOSING = "losing"
TIED = "tied"

_PUNCT = string.punctuation + "‘’“”«»"


class RelationMargin(NamedTuple):
    """Win/loss balance of one relation, averaged over runs."""

    relation: str
    wins: int
    losses: int
    ties: int
    delta: float  # (wins - losses) / number of runs
    category: str  # winning | losing | tied


class ConnectiveLexicon(NamedTuple):
    entries: frozenset[str]

    def __contains__(self, token: str) -> bool:
        return token in self.entries


class CategoryMatch(NamedTuple):
    matched: int
    total: int
    percentage: float


class ConnectiveMatchReport(NamedTuple):
    by_category: dict[str, CategoryMatch]


def pair_outcomes(labels: Mapping[str, str],
                  runs: Iterable[tuple[PredictionSet, PredictionSet]]) -> Counter:
    """(gold label, outcome) -> count over the paired runs (A, B).

    ``labels`` maps instance_id -> gold label (``VariantDataset.gold_labels``);
    both prediction sets of every run must cover it exactly.
    """
    ids = list(labels)
    gold = [labels[i] for i in ids]
    # Runs sharing A's and B's dicts (a baseline's seeds) count once, weighted.
    distinct: dict[tuple[int, int], list] = {}  # -> [A, B, runs]: holds the dicts
    for preds_a, preds_b in runs:
        distinct.setdefault((id(preds_a.records), id(preds_b.records)),
                            [preds_a, preds_b, 0])[2] += 1
    signs: Counter = Counter()
    for preds_a, preds_b, n_runs in distinct.values():
        for name, preds in (("A", preds_a), ("B", preds_b)):
            if preds.records.keys() != labels.keys():
                raise ValueError(f"predictions {name} do not cover the gold instances")
        correct_a = map(eq, gold, map(preds_a.records.__getitem__, ids))
        correct_b = map(eq, gold, map(preds_b.records.__getitem__, ids))
        # B correct minus A correct: 1 is a win, -1 a loss, 0 a tie.
        for key, n in Counter(zip(gold, map(sub, correct_b, correct_a))).items():
            signs[key] += n * n_runs
    return Counter({(relation, (TIE, WIN, LOSS)[sign]): n
                    for (relation, sign), n in signs.items()})


def relation_margins(counts: Counter, num_runs: int,
                     normalizer: str = "runs") -> list[RelationMargin]:
    """Per-relation margins from ``pair_outcomes``' (gold label, outcome)
    counts over all runs.

    The default delta is (wins - losses) / num_runs; ``normalizer="support"``
    divides by the relation's outcome count instead, giving a per-instance
    margin.  Sorted by absolute delta descending (relation name breaks
    ties), the order the win/loss tables are usually presented in.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    if normalizer not in ("runs", "support"):
        raise ValueError(f"unknown normalizer {normalizer!r}")
    margins = []
    for relation in {relation for relation, _ in counts}:
        wins, losses, ties = (counts[relation, o] for o in (WIN, LOSS, TIE))
        denominator = num_runs if normalizer == "runs" else wins + losses + ties
        delta = (wins - losses) / denominator
        category = WINNING if delta > 0 else LOSING if delta < 0 else TIED
        margins.append(RelationMargin(relation=relation, wins=wins,
                                      losses=losses, ties=ties,
                                      delta=delta, category=category))
    return sorted(margins, key=lambda m: (-abs(m.delta), m.relation))


def margins_by_category(margins: Sequence[RelationMargin]
                        ) -> dict[str, list[str]]:
    """Relation names per category, in margin order."""
    categories: dict[str, list[str]] = {WINNING: [], LOSING: [], TIED: []}
    for m in margins:
        categories[m.category].append(m.relation)
    return categories


def _parse_lexicon(text: str, source: str) -> ConnectiveLexicon:
    # A line with no word (such as "--") would match every arg2 without one.
    entries = frozenset(" ".join(_normalized_tokens(line)) for line in text.splitlines()
                        if not line.lstrip().startswith("#")) - {""}
    if not entries:
        raise ValueError(f"empty connective lexicon: {source}")
    return ConnectiveLexicon(entries=entries)


def load_connective_lexicon(path: Path | str | None, data: bytes | None = None
                            ) -> ConnectiveLexicon:
    """One connective per line, '#' comments allowed, deduped.  Each entry is
    read by the rule that reads arg2 text: lowercased, split into words and
    stripped of punctuation, so "However," is "however" and "as  a result"
    is "as a result".  ``data``, if given, is the file's bytes.  A file that
    is not UTF-8 raises ``ValueError`` naming it.  No path reads the packaged one."""
    if not path:
        return default_lexicon()
    path = Path(path)
    try:
        text = (path.read_bytes() if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return _parse_lexicon(text, str(path))


def default_lexicon() -> ConnectiveLexicon:
    """The lexicon shipped with the package."""
    # Read by path: from Python 3.12 on, importlib.resources imports inspect.
    text = (Path(__file__).parent / "data" / "connectives.txt").read_text("utf-8")
    return _parse_lexicon(text, "builtin")


def _first_word(text: str) -> tuple[str, str]:
    """The one rule drckit reads words by: the first whitespace token of ``text``
    that is not only punctuation, lowercased and stripped of punctuation, and
    the text after it; ("", "") if there is none."""
    parts = text.split(None, 1)
    while parts:
        word = parts[0].lower().strip(_PUNCT)
        if word:
            return word, parts[1] if len(parts) > 1 else ""
        parts = parts[1].split(None, 1) if len(parts) > 1 else ()
    return "", ""


def _normalized_tokens(text: str) -> Iterator[str]:
    """The words of ``text`` by ``_first_word``'s rule, split one at a time."""
    word, rest = _first_word(text)
    while word:
        yield word
        word, rest = _first_word(rest)


def first_connective_token(text: str) -> str:
    """First token of ``text`` after lowercasing and punctuation stripping,
    so "( CC )" yields "cc"; "" if there is none."""
    return _first_word(text)[0]


def _matches(arg2_text: str, lexicon: ConnectiveLexicon, multiword: bool) -> bool:
    if multiword:
        tokens = list(islice(_normalized_tokens(arg2_text), 4))
        for end in range(len(tokens), 0, -1):
            if " ".join(tokens[:end]) in lexicon:
                return True
        return False
    return first_connective_token(arg2_text) in lexicon


def connective_match_rate(instances: Iterable[RenderedInstance],
                          relation_categories: Mapping[str, Sequence[str]],
                          lexicon: ConnectiveLexicon,
                          level: str = "instance",
                          multiword: bool = False) -> ConnectiveMatchReport:
    """Fraction of instances whose arg2 opens with a known connective.

    ``relation_categories`` maps category names (e.g. winning/losing) to
    the relations they contain, as produced by margins_by_category.  At
    ``level="type"`` the percentage is the unweighted mean of per-relation
    match rates instead of the instance-level pool.
    """
    if level not in ("instance", "type"):
        raise ValueError(f"unknown level {level!r}")
    hits: dict[str, list[int]] = {}  # gold relation -> [matched, total]
    for inst in instances:
        counts = hits.setdefault(inst.gold_label, [0, 0])
        counts[0] += _matches(inst.arg2_text, lexicon, multiword)
        counts[1] += 1
    by_category = {}
    for category, relations in relation_categories.items():
        counts = [hits[r] for r in relations if r in hits]
        matched = sum(m for m, _ in counts)
        total = sum(t for _, t in counts)
        if level == "instance":
            percentage = 100.0 * matched / total if total else 0.0
        else:
            rates = [100.0 * m / t for m, t in counts]
            percentage = sum(rates) / len(rates) if rates else 0.0
        by_category[category] = CategoryMatch(matched=matched, total=total,
                                              percentage=percentage)
    return ConnectiveMatchReport(by_category=by_category)


def write_margins_tsv(margins: Sequence[RelationMargin], path: Path | str) -> None:
    lines = ["relation\twins\tlosses\tties\tdelta\tcategory"]
    for m in margins:
        lines.append(f"{m.relation}\t{m.wins}\t{m.losses}\t{m.ties}"
                     f"\t{m.delta:.6g}\t{m.category}")
    write_atomic(path, "\n".join(lines) + "\n")


def write_connective_report_tsv(report: ConnectiveMatchReport,
                                path: Path | str) -> None:
    lines = ["category\tmatched\ttotal\tpercentage"]
    for category in sorted(report.by_category):
        c = report.by_category[category]
        lines.append(f"{category}\t{c.matched}\t{c.total}\t{c.percentage:.1f}")
    write_atomic(path, "\n".join(lines) + "\n")


def pair_by_run_id(runs_a: list[T], runs_b: list[T], what: str) -> list[tuple[T, T]]:
    """(a, b) per run id, in run id order; raise unless each set holds one
    condition's runs and A and B pair one to one."""
    by_id = {}  # set name -> its runs by run id
    for name, runs in (("A", runs_a), ("B", runs_b)):
        conditions = sorted({run.condition for run in runs})
        if len(conditions) != 1:
            raise ValueError(f"mixed conditions in {what} set: {conditions}")
        by_id[name] = {run.run_id: run for run in runs}
        if len(by_id[name]) != len(runs):
            raise ValueError(f"duplicate run ids in set {name}: "
                             f"{sorted(run.run_id for run in runs)}")
    if by_id["A"].keys() != by_id["B"].keys():
        raise ValueError(f"runs do not pair by run id: A has {sorted(by_id['A'])}, "
                         f"B has {sorted(by_id['B'])}")
    return [(by_id["A"][run_id], by_id["B"][run_id]) for run_id in sorted(by_id["A"])]


def analyze_pair(dataset: VariantDataset, runs_a: list[PredictionSet],
                 runs_b: list[PredictionSet], lexicon: ConnectiveLexicon,
                 out_dir: Path, normalizer: str = "runs", level: str = "instance",
                 multiword: bool = False
                 ) -> tuple[list[RelationMargin], ConnectiveMatchReport]:
    """Pair A and B runs by run id, then write ``margins.tsv`` and
    ``connectives.tsv`` of B against A under ``out_dir``."""
    pairs = pair_by_run_id(runs_a, runs_b, "prediction")
    counts = pair_outcomes(dataset.gold_labels(), pairs)
    margins = relation_margins(counts, len(pairs), normalizer=normalizer)
    match_report = connective_match_rate(dataset.instances,
                                         margins_by_category(margins), lexicon,
                                         level=level, multiword=multiword)
    write_margins_tsv(margins, out_dir / "margins.tsv")
    write_connective_report_tsv(match_report, out_dir / "connectives.tsv")
    return margins, match_report
