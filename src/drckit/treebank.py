"""Reading, validating and querying dependency discourse treebanks.

A treebank document is a list of EDUs (elementary discourse units) where
every EDU points at its head EDU through a labelled edge.  Documents carry
an explicit virtual ROOT node (id 0, head -1, relation "null") so that
"this EDU attaches to the root" is a queryable fact.  All structures here
are immutable once built; parsing and statistics are pure functions.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

# The run key lists a split's documents as load_split does, from config.
from .config import CorpusError, TreebankError, iter_document_files
from .fields import (INTEGER, STRING, Checked, JsonField, check_fields, decode,
                     list_of, rule, write_atomic)

ROOT_ID = 0
ROOT_HEAD = -1
ROOT_RELATION = "null"


class TreeValidationError(TreebankError):
    """A document is not a tree: one parse-error, or the invariants it violates."""

    def __init__(self, doc_id: str, violations: Sequence["Violation"]):
        detail = "; ".join(v.detail for v in violations)
        super().__init__(f"{doc_id}: {detail}")
        self.doc_id = doc_id
        self.violations = list(violations)


class EDU(NamedTuple):
    """One elementary discourse unit plus its edge to the governing EDU."""

    id: int
    text: str
    head_id: int
    relation: str
    sentence_index: int = 0

    @property
    def is_root(self) -> bool:
        return self.head_id == ROOT_HEAD


class _Tree(NamedTuple):
    doc_id: str
    edus: tuple[EDU, ...]


class DiscourseTree(Checked, _Tree):
    """A single document: EDUs in document order, linked into a tree.

    Building one raises TreeValidationError naming each invariant that
    ``validate_tree`` finds broken, so every tree is legal: an EDU's id is
    its position in ``edus``, and every head chain ends at the virtual ROOT.
    It has no ``__slots__``: ``sentence_texts`` and ``instances`` are cached
    in its ``__dict__``.
    """

    def __new__(cls, doc_id: str, edus: Iterable[EDU]):
        edus = tuple(edus)
        violations = validate_tree(doc_id, edus)
        if violations:
            raise TreeValidationError(doc_id, violations)
        return super().__new__(cls, doc_id, edus)

    def edu(self, edu_id: int) -> EDU:
        if 0 <= edu_id < len(self.edus):
            return self.edus[edu_id]
        raise ValueError(f"{self.doc_id}: unknown EDU id {edu_id}")

    @property
    def real_edus(self) -> tuple[EDU, ...]:
        return tuple(e for e in self.edus if not e.is_root)

    @cached_property
    def sentence_texts(self) -> dict[int, str]:
        """Joined text of the real EDUs of each sentence, by sentence index."""
        sentences: dict[int, list[str]] = {}
        for e in self.edus:
            if e.head_id != ROOT_HEAD:
                sentences.setdefault(e.sentence_index, []).append(e.text)
        return {i: " ".join(texts) for i, texts in sentences.items()}

    @cached_property
    def instances(self) -> tuple[RelationInstance, ...]:
        """Its relation instances, extracted once (see ``extract_instances``)."""
        return tuple(extract_instances(self))


class _Corpus(NamedTuple):
    name: str
    split: str
    trees: tuple[DiscourseTree, ...]


class Corpus(Checked, _Corpus):
    """One split of a treebank."""

    __slots__ = ()

    def __new__(cls, name: str, split: str, trees: Iterable[DiscourseTree]):
        return super().__new__(cls, name, split, tuple(trees))


class RelationInstance(NamedTuple):
    """One classification item: a labelled head/dependent EDU pair.

    ``arg1`` is the text of the head EDU, ``arg2`` the text of the dependent
    EDU that carries the relation label.
    """

    instance_id: str
    doc_id: str
    arg1: str
    arg2: str
    arg1_edu_id: int
    arg2_edu_id: int
    gold_label: str


class Violation(NamedTuple):
    """One failed invariant, locatable by document."""

    doc_id: str
    code: str
    detail: str

    def report_line(self) -> str:
        return f"{self.doc_id}\t{self.code}\t{self.detail}"


class GapStats(NamedTuple):
    """Distance histogram for one gap unit (EDUs or sentences)."""

    histogram: dict[int, int]
    adjacent_fraction: float
    gap_3_to_5_fraction: float
    total: int


class DistanceStats(NamedTuple):
    """Head/dependent distance statistics in both gap units."""

    edu: GapStats
    sentence: GapStats


# Terminal punctuation, optionally followed by closing quotes or brackets.
_SENTENCE_END = re.compile(r"[.!?][\"'”’»)\]}]*$")


def ends_sentence(text: str) -> bool:
    """Whether ``text``, stripped as an EDU's text is, ends a sentence."""
    return _SENTENCE_END.search(text) is not None


def make_instance_id(doc_id: str, dependent_id: int) -> str:
    # Zero-padded to three digits, which from id 1000 on does not keep string
    # order aligned with dependent order ("doc:1000" < "doc:101"), nor does a
    # doc id that prefixes another ("doc1:001" > "doc10:001").  A variant
    # dataset, built or read, and its file hold instances in id-string order.
    return f"{doc_id}:{dependent_id:03d}"


# A tree record; building the tree checks how the records link up.
_RECORD = JsonField((dict,), "an EDU record", parse=partial(check_fields, fields={
    "id": INTEGER, "parent": INTEGER, "relation": STRING, "text": STRING}))
_DOCUMENT_FIELDS = {"root": rule(list_of(_RECORD), "a non-empty array of records", bool)}


def parse_tree_document(data: bytes | str, doc_id: str) -> DiscourseTree:
    """Decode one canonical tree document into its tree.

    The canonical format is a JSON object with key "root" holding an array
    of ``{id, parent, relation, text}`` records in ascending id order.
    Raises TreeValidationError, with one parse-error for input that is not
    such a document, or, as building the tree does, with each invariant its
    records violate.
    """
    try:
        records = check_fields(decode(data), _DOCUMENT_FIELDS)["root"]
    except ValueError as exc:
        error = Violation(doc_id, "parse-error", f"malformed document: {exc}")
        raise TreeValidationError(doc_id, [error]) from exc

    edus = []
    sentence = 0
    for rec in records:
        text = rec["text"].strip()
        # A sentence ends after an EDU whose text ends with terminal
        # punctuation.  The virtual ROOT takes index 0 and ends none.
        own = sentence
        if rec["parent"] == ROOT_HEAD:
            own = 0
        elif ends_sentence(text):
            sentence += 1
        edus.append(EDU(rec["id"], text, rec["parent"], rec["relation"], own))

    return DiscourseTree(doc_id, edus)


def serialize_tree_document(tree: DiscourseTree) -> bytes:
    """Render a tree back into the canonical document format."""
    records = [
        {"id": e.id, "parent": e.head_id, "relation": e.relation, "text": e.text}
        for e in tree.edus
    ]
    text = json.dumps({"root": records}, ensure_ascii=False, indent=2)
    return (text + "\n").encode("utf-8")


def validate_tree(doc_id: str, edus: Sequence[EDU]) -> list[Violation]:
    """Check every tree invariant of the EDUs of document ``doc_id``; an empty
    list means they make a legal tree.  Violations are data, not errors:
    ``DiscourseTree`` raises on them."""
    v: list[Violation] = []
    ids = [e.id for e in edus]
    id_set = set(ids)

    dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
    if dupes:
        v.append(Violation(doc_id, "duplicate-id",
                           "duplicate ids: " + ",".join(map(str, dupes))))
    elif ids != list(range(len(ids))):
        v.append(Violation(doc_id, "id-order",
                           "ids must be contiguous from 0 in ascending order"))

    roots = [e for e in edus if e.head_id == ROOT_HEAD]
    if not roots:
        v.append(Violation(doc_id, "no-root", "missing ROOT (no EDU with head -1)"))
    elif len(roots) > 1:
        v.append(Violation(doc_id, "multiple-roots",
                           "multiple roots: ids "
                           + ",".join(str(e.id) for e in roots)))
    else:
        root = roots[0]
        if root.id != ROOT_ID:
            v.append(Violation(doc_id, "root-id",
                               f"virtual ROOT must have id {ROOT_ID}, got {root.id}"))
        if root.relation != ROOT_RELATION:
            v.append(Violation(doc_id, "root-relation",
                               f'virtual ROOT must carry relation "{ROOT_RELATION}"'))

    attached = [e for e in edus if e.head_id == ROOT_ID]
    if len(roots) == 1 and roots[0].id == ROOT_ID:
        if not attached:
            v.append(Violation(doc_id, "root-attachment",
                               "no real EDU attaches to ROOT"))
        elif len(attached) > 1:
            v.append(Violation(doc_id, "root-attachment",
                               "multiple EDUs attach to ROOT: ids "
                               + ",".join(str(e.id) for e in attached)))

    for e in edus:
        if e.head_id == ROOT_HEAD:
            continue
        if not e.text:
            v.append(Violation(doc_id, "empty-text", f"empty text at id {e.id}"))
        if e.head_id == e.id:
            v.append(Violation(doc_id, "self-loop", f"self-loop at id {e.id}"))
        elif e.head_id not in id_set:
            v.append(Violation(doc_id, "dangling-head",
                               f"dangling head_id {e.head_id} at id {e.id}"))

    v.extend(_find_cycles(doc_id, edus))
    return v


def _find_cycles(doc_id: str, edus: Sequence[EDU]) -> list[Violation]:
    heads = {e.id: e.head_id for e in edus}
    state: dict[int, int] = {}  # 0 on current path, 1 done
    cycles = []
    for start in heads:
        if start in state:
            continue
        path = []
        node = start
        while node in heads and node not in state and heads[node] != node:
            state[node] = 0
            path.append(node)
            node = heads[node]
            if node in state and state[node] == 0:
                members = path[path.index(node):]
                if len(members) > 1:
                    cycles.append(sorted(members))
                break
        for n in path:
            state[n] = 1
    return [
        Violation(doc_id, "cycle",
                  "cycle involving ids " + ",".join(map(str, members)))
        for members in sorted(cycles)
    ]


def extract_instances(tree: DiscourseTree) -> list[RelationInstance]:
    """One instance per real EDU whose head is another real EDU.

    The edge to the virtual ROOT yields no instance, so a legal tree with
    n real EDUs produces exactly n - 1 instances, ordered by dependent id.
    """
    doc_id, edus = tree
    return [RelationInstance(make_instance_id(doc_id, e.id), doc_id,
                             edus[e.head_id].text, e.text, e.head_id, e.id,
                             e.relation)
            for e in edus if e.head_id != ROOT_ID and e.head_id != ROOT_HEAD]


def ancestors(tree: DiscourseTree, edu_id: int, max_n: int) -> list[int]:
    """Up to ``max_n`` ancestor ids of ``edu_id``, nearest first.

    The walk stops before the virtual ROOT, so an EDU attached directly to
    ROOT has no ancestors.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    out: list[int] = []
    node = tree.edu(edu_id).head_id
    while node != ROOT_HEAD and node != ROOT_ID and len(out) < max_n:
        out.append(node)
        node = tree.edus[node].head_id
    return out


def dependency_distance_stats(corpus: Corpus) -> DistanceStats:
    """Head/dependent gap histograms over every relation instance.

    EDU gaps are signed (positive when the head precedes the dependent);
    sentence gaps are absolute.  Adjacency means an absolute gap of 1 in
    the respective unit.
    """
    if not corpus.trees:
        raise ValueError("corpus is empty")
    edu_hist: Counter[int] = Counter()
    sent_hist: Counter[int] = Counter()
    for tree in corpus.trees:
        for inst in tree.instances:
            edu_hist[inst.arg2_edu_id - inst.arg1_edu_id] += 1
            head = tree.edus[inst.arg1_edu_id]
            dep = tree.edus[inst.arg2_edu_id]
            sent_hist[abs(head.sentence_index - dep.sentence_index)] += 1
    return DistanceStats(edu=_gap_stats(edu_hist), sentence=_gap_stats(sent_hist))


def _gap_stats(hist: Counter) -> GapStats:
    total = sum(hist.values())
    adjacent = sum(c for gap, c in hist.items() if abs(gap) == 1)
    mid = sum(c for gap, c in hist.items() if 3 <= abs(gap) <= 5)
    return GapStats(
        histogram=dict(sorted(hist.items())),
        adjacent_fraction=adjacent / total if total else 0.0,
        gap_3_to_5_fraction=mid / total if total else 0.0,
        total=total,
    )


def count_instances(corpus: Corpus) -> int:
    return sum(len(tree.instances) for tree in corpus.trees)


def load_split(corpus_dir: Path | str, split: str, name: str | None = None
               ) -> tuple[Corpus, list[Violation]]:
    """Scan ``<corpus_dir>/<split>/`` and parse every document file.

    Returns the corpus of successfully parsed trees together with the
    violations collected from documents that failed; strict callers raise
    on a non-empty violation list.
    """
    corpus_dir = Path(corpus_dir)
    split_dir = corpus_dir / split
    trees = []
    violations: list[Violation] = []
    seen_docs = set()
    for path in iter_document_files(split_dir):
        doc_id = path.stem
        if doc_id in seen_docs:
            violations.append(Violation(doc_id, "duplicate-doc",
                                        f"doc_id occurs twice in split {split}"))
            continue
        seen_docs.add(doc_id)
        try:
            trees.append(parse_tree_document(path.read_bytes(), doc_id))
        except TreeValidationError as exc:
            violations.extend(exc.violations)
    return Corpus(name or corpus_dir.name, split, tuple(trees)), violations


def load_corpus(corpus_dir: Path | str, split: str, name: str | None = None
                ) -> Corpus:
    """Strict variant of load_split: raise CorpusError on any violation."""
    corpus, violations = load_split(corpus_dir, split, name)
    if violations:
        raise CorpusError(
            f"{corpus.name}/{split}: {len(violations)} violation(s)", violations)
    return corpus


def write_validation_report(violations: Iterable[Violation], path: Path | str) -> None:
    lines = [v.report_line() for v in violations]
    write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))
