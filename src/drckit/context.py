"""Context selection schemes and dataset variant rendering.

Three schemes govern which preceding text is prepended to the first
argument of a classification item:

* ``default``: no context at all.
* ``add`` (ADn): the n sentences immediately preceding the sentence of the
  first argument, regardless of discourse links.
* ``oracle`` (ORn): the texts of up to n tree ancestors of the first
  argument, read root-to-argument, using the ground-truth annotations.

A variant file, one JSON line per instance, is read back through ``fields``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .config import ContextScheme  # the scheme grammar the config parses
from .fields import STRING, Checked, read_records, write_atomic
from .treebank import Corpus, DiscourseTree, RelationInstance, ancestors

class RenderedInstance(NamedTuple):
    """A classification item with its context already selected."""

    instance_id: str
    context_text: str
    arg1_text: str
    arg2_text: str
    gold_label: str

    @property
    def model_input(self) -> str:
        """Context-bearing first-argument string fed to a model."""
        if self.context_text:
            return f"{self.context_text} {self.arg1_text}"
        return self.arg1_text


class _Dataset(NamedTuple):
    corpus_name: str
    scheme: ContextScheme
    split: str
    instances: tuple[RenderedInstance, ...]
    label_inventory: tuple[str, ...]


class VariantDataset(Checked, _Dataset):
    """Every instance of one split rendered under one scheme, in instance_id
    order: the order of its file, so a dataset read back equals the one built.
    It has no ``__slots__``: ``_gold`` is cached in its ``__dict__``."""

    def __new__(cls, corpus_name: str, scheme: ContextScheme, split: str,
                instances: Iterable[RenderedInstance], label_inventory: Iterable[str]):
        instances = tuple(sorted(instances, key=itemgetter(0)))
        for a, b in zip(instances, instances[1:]):
            if a.instance_id == b.instance_id:
                raise ValueError(f"{corpus_name}/{split}: duplicate "
                                 f"instance_id {a.instance_id!r}")
        return super().__new__(cls, corpus_name, scheme, split, instances,
                               tuple(label_inventory))

    def instance_ids(self) -> list[str]:
        return [inst.instance_id for inst in self.instances]

    @cached_property
    def _gold(self) -> dict[str, str]:
        return {inst.instance_id: inst.gold_label for inst in self.instances}

    def gold_labels(self) -> dict[str, str]:
        return dict(self._gold)  # a copy of the one dict built per dataset


def context_fragments(tree: DiscourseTree, arg1_edu_id: int, scheme: ContextScheme,
                      include_relations: bool = False) -> list[str]:
    """Pick the context fragments for the instance whose first argument is
    EDU ``arg1_edu_id`` of ``tree``, in reading order.

    Oracle fragments come back furthest-ancestor-first so the concatenated
    text reads top-down; Add fragments are whole preceding sentences in
    document order.  ``include_relations`` prefixes oracle fragments with
    the relation label of the linked edge, off by default.
    """
    if scheme.kind == "default":
        return []
    if scheme.kind == "add":
        return _preceding_sentences(tree, arg1_edu_id, scheme.n)
    # A tree's EDU ids are their positions in it.
    edus = [tree.edus[i] for i in reversed(ancestors(tree, arg1_edu_id, scheme.n))]
    if include_relations:
        return [f"({edu.relation}) {edu.text}" for edu in edus]
    return [edu.text for edu in edus]


def _preceding_sentences(tree: DiscourseTree, edu_id: int, n: int) -> list[str]:
    arg_sentence = tree.edu(edu_id).sentence_index
    sentences = tree.sentence_texts
    picked = range(max(0, arg_sentence - n), arg_sentence)
    return [sentences[i] for i in picked if i in sentences]


def render_instance(instance: RelationInstance, fragments: Sequence[str]
                    ) -> RenderedInstance:
    """Join fragments with single spaces and attach them to the instance."""
    return RenderedInstance(instance.instance_id, " ".join(fragments), instance.arg1,
                            instance.arg2, instance.gold_label)


def corpus_label_inventory(corpus: Corpus) -> tuple[str, ...]:
    """Sorted distinct relation labels over all instances of a corpus."""
    return tuple(sorted({inst.gold_label for tree in corpus.trees
                         for inst in tree.instances}))


def build_variant_dataset(corpus: Corpus, scheme: ContextScheme,
                          label_inventory: Sequence[str] | None = None,
                          include_relations: bool = False) -> VariantDataset:
    """Render every instance of the corpus split under one scheme.

    ``label_inventory`` should be the training-split inventory when
    rendering dev or test data; it defaults to the labels of this corpus,
    which is only correct for the training split itself.
    """
    if label_inventory is None:
        label_inventory = corpus_label_inventory(corpus)
    rendered, oracle = [], scheme.kind == "oracle"
    for tree in corpus.trees:
        # A context is rendered once per tree for what its scheme reads: the
        # first argument under ORn, and its sentence otherwise.
        contexts: dict[int, str] = {}
        for inst in tree.instances:
            arg1 = inst.arg1_edu_id
            key = arg1 if oracle else tree.edus[arg1].sentence_index
            context = contexts.get(key)
            if context is None:
                context = contexts[key] = " ".join(context_fragments(
                    tree, arg1, scheme, include_relations))
            rendered.append(RenderedInstance(inst.instance_id, context, inst.arg1,
                                             inst.arg2, inst.gold_label))
    return VariantDataset(corpus.name, scheme, corpus.split, rendered,
                          label_inventory)


def write_variant_dataset(dataset: VariantDataset, path: Path | str) -> None:
    """Write the line-delimited dataset file consumed by inference.

    One JSON record per instance with fields {instance_id, context, arg1,
    arg2, label, scheme, split}, UTF-8, in the dataset's instance_id order:
    the lines ``json.dumps(record, ensure_ascii=False)`` gives, from its own
    escaper.
    """
    q = encode_basestring
    tail = (f', "scheme": {q(dataset.scheme.tag)}, '
            f'"split": {q(dataset.split)}}}')
    # Instances share contexts, so each distinct one is escaped once per call.
    contexts = {c: q(c) for c in {i.context_text for i in dataset.instances}}
    lines = [f'{{"instance_id": {q(i.instance_id)}, "context": '
             f'{contexts[i.context_text]}, "arg1": {q(i.arg1_text)}, "arg2": '
             f'{q(i.arg2_text)}, "label": {q(i.gold_label)}{tail}'
             for i in dataset.instances]
    write_atomic(path, "\n".join(lines) + "\n")


# Each spelling of a scheme is parsed once; "OR1" and "or1" parse to equal
# schemes, so a file that mixes them holds one scheme.
_VARIANT_FIELDS = {**dict.fromkeys(("instance_id", "context", "arg1", "arg2",
                                    "label", "split"), STRING),
                   "scheme": STRING._replace(parse=lru_cache(ContextScheme.parse))}


def read_variant_dataset(path: Path | str, corpus_name: str = "",
                         label_inventory: Sequence[str] | None = None
                         ) -> VariantDataset:
    """Read a dataset file back; the inverse of write_variant_dataset.

    Without an explicit ``label_inventory`` the sorted labels found in the
    file are used, which matches the training split convention.
    """
    path = Path(path)
    instances: dict[str, RenderedInstance] = {}
    scheme: ContextScheme | None = None
    split = ""
    for lineno, rec in read_records(path, _VARIANT_FIELDS):
        iid = rec["instance_id"]
        if scheme is None:
            scheme, split = rec["scheme"], rec["split"]
        elif rec["scheme"] != scheme or rec["split"] != split:
            raise ValueError(f"{path}:{lineno}: mixed scheme or split")
        if iid in instances:
            raise ValueError(f"{path}:{lineno}: duplicate instance_id {iid!r}")
        instances[iid] = RenderedInstance(iid, rec["context"], rec["arg1"],
                                          rec["arg2"], rec["label"])
    if scheme is None:
        raise ValueError(f"{path}: empty dataset file")
    if label_inventory is None:
        label_inventory = sorted({i.gold_label for i in instances.values()})
    return VariantDataset(corpus_name or path.stem, scheme, split,
                          instances.values(), label_inventory)
