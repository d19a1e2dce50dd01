"""Seeded synthetic treebank corpora, written as `.dep` JSON files.

The generator is self-contained on purpose: it neither imports drckit nor
uses its serializer, so a change to drckit cannot change the inputs a
benchmark run feeds it.  Two runs with the same seed and shape write
byte-identical files, and `corpus_digest` proves it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# SciDTB-style relation labels with Zipf-like weights; the first few
# dominate, as in the real treebank.
RELATIONS = (
    "elab-addition", "joint", "attribution", "enablement", "cause",
    "temporal", "bg-general", "contrast", "elab-aspect", "manner-means",
    "evaluation", "elab-enum_member", "condition", "comparison",
    "summary", "exp-evidence", "progression", "result",
)
WEIGHTS = tuple(1.0 / (rank + 1) for rank in range(len(RELATIONS)))

# A cue word opens the dependent EDU for part of each label's instances,
# so the cue baseline and the connective analysis see a real signal.
CUES = {
    "cause": "because", "temporal": "when", "contrast": "but",
    "condition": "if", "enablement": "to", "manner-means": "by",
    "result": "thus", "comparison": "than", "joint": "and",
    "progression": "then", "attribution": "that", "exp-evidence": "since",
}

WORDS = tuple(
    "graph kernel model parser method result data training structure label "
    "corpus tree edge node feature sentence document task score baseline "
    "annotation relation context argument span encoder decoder layer token "
    "vector attention loss metric accuracy split evaluation experiment error "
    "analysis scheme variant prompt signal treebank discourse unit head "
    "dependent ancestor window length gap sample seed run domain text "
    "we propose show compute improve train predict select render measure "
    "fast simple robust large small local global novel strong weak explicit "
    "implicit efficient accurate".split())


@dataclass(frozen=True)
class Shape:
    """How many documents a split holds and how long they are."""

    docs: int
    min_edus: int
    max_edus: int

    @property
    def total_edus(self) -> int:
        # Fixed per shape, so every seed yields the same instance count.
        return self.docs * (self.min_edus + self.max_edus) // 2

    @property
    def instances(self) -> int:
        # One instance per real EDU, minus the one attached to ROOT.
        return self.total_edus - self.docs


def _doc_lengths(rng: random.Random, shape: Shape) -> list[int]:
    lengths = [rng.randint(shape.min_edus, shape.max_edus)
               for _ in range(shape.docs)]
    diff = shape.total_edus - sum(lengths)
    while diff:
        i = rng.randrange(shape.docs)
        step = 1 if diff > 0 else -1
        if shape.min_edus <= lengths[i] + step <= shape.max_edus:
            lengths[i] += step
            diff -= step
    return lengths


def _doc_records(rng: random.Random, n: int) -> list[dict]:
    """A legal tree: one root EDU, every other EDU leans towards it.

    EDUs after the root attach to an earlier EDU, EDUs before it to a later
    one, mostly the adjacent one, so every head chain ends at the root.
    """
    root = rng.randint(1, max(1, n // 3))
    records = [{"id": 0, "parent": -1, "relation": "null", "text": "ROOT"}]
    for i in range(1, n + 1):
        if i == root:
            parent, relation = 0, "ROOT"
        else:
            reach = 1 if rng.random() < 0.6 else rng.randint(2, 6)
            parent = max(root, i - reach) if i > root else min(root, i + reach)
            relation = rng.choices(RELATIONS, WEIGHTS)[0]
        words = rng.sample(WORDS, rng.randint(3, 10))
        cue = CUES.get(relation)
        if cue and rng.random() < 0.5:
            words[0] = cue
        terminal = "." if rng.random() < 0.4 or i == n else ","
        records.append({"id": i, "parent": parent, "relation": relation,
                        "text": " ".join(words) + " " + terminal})
    return records


def write_corpus(root: Path, seed: int, shape: Shape) -> str:
    """Write `<root>/{test,train}/<doc>.dep`; return the corpus digest."""
    for split in ("test", "train"):
        rng = random.Random(f"{seed}/{split}")
        split_dir = root / split
        split_dir.mkdir(parents=True, exist_ok=True)
        for d, n in enumerate(_doc_lengths(rng, shape)):
            payload = {"root": _doc_records(rng, n)}
            (split_dir / f"{split}-{d:04d}.dep").write_bytes(
                json.dumps(payload, ensure_ascii=False).encode("utf-8"))
    return corpus_digest(root)


def corpus_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
