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
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fields import write_atomic

if TYPE_CHECKING:
    from .context import RenderedInstance
    from .inference import PredictionSet

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


def load_connective_lexicon(path: Path | str) -> ConnectiveLexicon:
    """One connective per line, '#' comments allowed, deduped.  Each entry is
    read by the rule that reads arg2 text: lowercased, split into words and
    stripped of punctuation, so "However," is "however" and "as  a result"
    is "as a result".  A file that is not UTF-8 raises ``ValueError`` naming
    it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return _parse_lexicon(text, str(path))


def default_lexicon() -> ConnectiveLexicon:
    """The lexicon shipped with the package."""
    # Read by path: from Python 3.12 on, importlib.resources imports inspect.
    text = (Path(__file__).parent / "data" / "connectives.txt").read_text("utf-8")
    return _parse_lexicon(text, "builtin")


def _normalized_tokens(text: str) -> Iterator[str]:
    """The whitespace tokens of ``text``, lowercased and stripped of
    punctuation, less those that were only punctuation.  The text is split
    one token at a time, as the cue baseline keys every instance, context
    included, by the first."""
    parts = text.split(None, 1)
    while parts:
        token = parts[0].lower().strip(_PUNCT)
        if token:
            yield token
        parts = parts[1].split(None, 1) if len(parts) > 1 else []


def first_connective_token(text: str) -> str:
    """First token of ``text`` after lowercasing and punctuation stripping,
    so "( CC )" yields "cc"; "" if there is none."""
    return next(_normalized_tokens(text), "")


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
                          multiword: bool = False, shared: dict | None = None
                          ) -> ConnectiveMatchReport:
    """Fraction of instances whose arg2 opens with a known connective.

    ``relation_categories`` maps category names (e.g. winning/losing) to
    the relations they contain, as produced by margins_by_category.  At
    ``level="type"`` the percentage is the unweighted mean of per-relation
    match rates instead of the instance-level pool.  ``shared`` keeps [matched,
    total] per gold relation for calls on one instance set, lexicon and mode.
    """
    if level not in ("instance", "type"):
        raise ValueError(f"unknown level {level!r}")
    hits = {} if shared is None else shared
    if not hits:
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
