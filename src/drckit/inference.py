"""Prompt construction, output parsing, baselines and prediction files.

Predictions come from three places: a chat-completion endpoint, which the
``endpoint`` transport sends this module's prompts to, the deterministic
desk-scale baselines below, or external prediction files produced by a
separate fine-tuning harness.  All three yield a PredictionSet, the unit
that evaluation and pairing consume.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from functools import cache
from json.encoder import encode_basestring
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence

from .analysis import first_connective_token
from .config import ConfigError
from .context import RenderedInstance, VariantDataset
from .fields import INTEGER, STRING, WARNING, log, read_records, write_atomic

if TYPE_CHECKING:
    from .endpoint import EndpointConfig

#: Sentinel for model output that names no known label.  It is a value,
#: not an error: unparsed predictions are counted and scored as wrong.
UNPARSED = "<UNPARSED>"

BASELINE_KINDS = ("majority", "cue")

class ICLExample(NamedTuple):
    """One in-context example line: two passages and the label."""

    arg1: str
    arg2: str
    label: str


class PredictionSet(NamedTuple):
    """Per-run model outputs keyed by instance id."""

    condition: str
    run_id: int
    records: dict[str, str]

    @property
    def unparsed_count(self) -> int:
        return sum(1 for label in self.records.values() if label == UNPARSED)


def sample_icl_examples(train_dataset: VariantDataset, seed: int
                        ) -> tuple[ICLExample, ...]:
    """Pick one training instance per label, deterministically from seed.

    Example passages use the model-input string, so context-bearing
    training variants yield context-bearing examples.
    """
    rng = random.Random(seed)
    by_label: dict[str, list[RenderedInstance]] = {}
    for inst in train_dataset.instances:
        by_label.setdefault(inst.gold_label, []).append(inst)
    examples = []
    for label in train_dataset.label_inventory:
        candidates = by_label.get(label)
        if not candidates:
            raise ValueError(f"label {label!r} has no training instance")
        pick = rng.choice(candidates)
        examples.append(ICLExample(
            arg1=pick.model_input,
            arg2=pick.arg2_text,
            label=label,
        ))
    return tuple(examples)


def _example_line(arg1: str, arg2: str, slot: str) -> str:
    # No treebank annotates a connective, so the slot always reads <none>.
    return (f"Passage 1: <{arg1}>, Passage 2: <{arg2}>, "
            f"connective: <none> | {slot}")


def prompt_prefix(label_inventory: tuple[str, ...],
                  icl_examples: tuple[ICLExample, ...]) -> str:
    """The lines a run's MASK-replacement prompts share: line 1 carries the
    instruction, the bracketed label list and the first example; each
    remaining example gets its own line.  There must be one example per
    label, in inventory order."""
    if not label_inventory:
        raise ValueError("no label to prompt for: the train split has no "
                         "relation instance")
    if [ex.label for ex in icl_examples] != list(label_inventory):
        raise ValueError("need exactly one example per label, "
                         "in inventory order")
    examples = "\n".join(_example_line(ex.arg1, ex.arg2, ex.label)
                         for ex in icl_examples)
    return ("Replace the MASK token (a discourse relation) by selecting only one "
            f"of the following labels: [ {', '.join(label_inventory)}] Examples: "
            + examples)


def build_prompt(prefix: str, target: RenderedInstance) -> str:
    """The prompt for one target: its run's prefix, then the target passages
    with the [MASK] slot.  Context rides inside Passage 1 through the
    target's model-input string."""
    return f"{prefix}\n{_example_line(target.model_input, target.arg2_text, '[MASK]')}"


@cache
def _label_pattern(inventory: tuple[str, ...]) -> tuple[tuple[str, ...], re.Pattern]:
    labels = tuple(sorted(inventory, key=len, reverse=True))  # ties keep their order
    words = "|".join(f"({re.escape(label.lower())})" for label in labels)
    return labels, re.compile(rf"(?<!\w)(?:{words})(?!\w)" if labels else "(?!)")


def parse_llm_output(text: str, label_inventory: Sequence[str]) -> str:
    """Map raw model output onto an inventory label.

    Case-insensitive scan for the earliest label standing as a word of its own;
    at a shared start the longer label wins, so "elab" cannot shadow
    "elab-addition".  Returns UNPARSED when no label occurs at all.
    """
    labels, pattern = _label_pattern(tuple(label_inventory))
    match = pattern.search(text.lower())
    return labels[match.lastindex - 1] if match else UNPARSED


class BaselineModel(NamedTuple):
    """A trained desk-scale classifier (majority or lexical cue)."""

    kind: str
    majority_label: str
    cue_table: Mapping[tuple[str, ...], str] = MappingProxyType({})


def _cue_keys(instances: Sequence[RenderedInstance]) -> Iterator[tuple[str, ...]]:
    # The cue is the first word of arg2, joined by the first word of the
    # context when the instance carries context (each distinct context is read
    # once per call), by the connective analysis's rule: "However," is "however".
    contexts = {text: (first_connective_token(text),)
                for text in {inst.context_text for inst in instances} if text}
    contexts[""] = ()
    return ((first_connective_token(inst.arg2_text),) + contexts[inst.context_text]
            for inst in instances)


def _most_frequent(counts: Mapping[str, int]) -> str:
    # Ties break lexicographically: max keeps the first of equal counts.
    return max(sorted(counts), key=counts.__getitem__)


def train_baseline(train_dataset: VariantDataset, kind: str) -> BaselineModel:
    """Fit a deterministic baseline on a rendered training split."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}; known: {BASELINE_KINDS}")
    if not train_dataset.instances:
        raise ValueError("empty training data")
    majority = _most_frequent(Counter(i.gold_label for i in train_dataset.instances))
    if kind == "majority":
        return BaselineModel(kind="majority", majority_label=majority)
    cue_counts: dict[tuple[str, ...], dict[str, int]] = {}
    for key, inst in zip(_cue_keys(train_dataset.instances), train_dataset.instances):
        counts = cue_counts.setdefault(key, {})
        counts[inst.gold_label] = counts.get(inst.gold_label, 0) + 1
    cue_table = {key: _most_frequent(c) for key, c in cue_counts.items()}
    return BaselineModel(kind="cue", majority_label=majority, cue_table=cue_table)


def predict_baseline(model: BaselineModel, dataset: VariantDataset,
                     condition: str, run_id: int = 0) -> PredictionSet:
    if model.kind == "majority":
        records = dict.fromkeys(dataset.instance_ids(), model.majority_label)
    else:
        cue, default = model.cue_table.get, model.majority_label
        records = {inst.instance_id: cue(key, default) for inst, key
                   in zip(dataset.instances, _cue_keys(dataset.instances))}
    return PredictionSet(condition=condition, run_id=run_id, records=records)


def endpoint_predictions(dataset: VariantDataset, train_dataset: VariantDataset,
                         config: EndpointConfig, seed: int, log_path: Path | str,
                         condition: str) -> PredictionSet:
    """Classify every dataset instance through the endpoint.  The seed samples
    the ICL examples from the training variant and is the run id; each reply,
    logged at ``log_path`` or fresh, is parsed once, by this dataset's labels."""
    from .endpoint import run_endpoint_inference  # a baseline run never imports it
    if not dataset.instances:
        raise ValueError("dataset is empty")
    inventory = dataset.label_inventory
    prefix = prompt_prefix(inventory, sample_icl_examples(train_dataset, seed))
    targets = {inst.instance_id: inst for inst in dataset.instances}
    replies = run_endpoint_inference(
        list(targets), lambda iid: build_prompt(prefix, targets[iid]), config, log_path)
    return PredictionSet(condition=condition, run_id=seed, records={
        iid: parse_llm_output(raw, inventory) for iid, raw in replies.items()})


def predictor(kind: str, options: dict, train_ds: VariantDataset,
              eval_ds: VariantDataset, condition: str, log_dir: Path
              ) -> Callable[[int], PredictionSet]:
    """Seed -> PredictionSet for a baseline or endpoint condition.

    A baseline is fit and predicts here, once: its predictions do not depend
    on the seed, so every seed's set shares one read-only records dict.
    """
    if kind in BASELINE_KINDS:
        records = predict_baseline(train_baseline(train_ds, kind), eval_ds,
                                   condition).records
        return lambda seed: PredictionSet(condition, seed, records)
    from .endpoint import EndpointConfig  # a baseline run never imports it
    try:
        endpoint_cfg = EndpointConfig(**options)
    except ValueError as exc:
        raise ConfigError(f"endpoint option {exc}") from exc
    return lambda seed: endpoint_predictions(
        eval_ds, train_ds, endpoint_cfg, seed,
        log_dir / f"{condition}.run{seed}.log.jsonl", condition)


def write_predictions(predictions: PredictionSet, path: Path | str,
                      shared: dict | None = None) -> None:
    """Write the line-delimited prediction file format: in id order, one
    ``json.dumps(record, ensure_ascii=False)`` line per record.  ``shared`` keeps
    the last dict's lines up to the run id, for its condition's other seeds."""
    # Strings go through json.dumps's own escaper, and the line tail after
    # the id is encoded once per label.
    records, shared = predictions.records, {} if shared is None else shared
    if id(records) not in shared:  # an entry holds the dict it is keyed by
        shared.clear()
        rest = f', "condition": {encode_basestring(predictions.condition)}, "run_id": '
        tails = {label: f', "predicted_label": {encode_basestring(label)}{rest}'
                 for label in set(records.values())}
        shared[id(records)] = records, [
            f'{{"instance_id": {encode_basestring(i)}{tails[label]}'
            for i, label in sorted(records.items())]
    lines, end = shared[id(records)][1], f"{int(predictions.run_id)}}}\n"
    write_atomic(path, end.join(lines) + end if lines else "\n")


PREDICTION_FIELDS = {"instance_id": STRING, "predicted_label": STRING,
                     "condition": STRING._replace(required=False),
                     "run_id": INTEGER._replace(required=False)}


def import_predictions(path: Path | str, dataset: VariantDataset,
                       condition: str | None = None, run_id: int | None = None,
                       data: bytes | None = None) -> PredictionSet:
    """Load an external prediction file against a dataset.

    The file must cover the dataset exactly: unknown or missing instance
    ids are errors.  Labels outside the inventory are kept (they will score
    as wrong) but logged as a warning.  Records are keyed by the dataset's
    own id strings and inventory labels map to the inventory's own strings,
    so a loaded set shares them instead of holding copies.  ``data``, if
    given, is the file's bytes.
    """
    path = Path(path)
    dataset_ids = {i: i for i in dataset.instance_ids()}
    known = {lbl: lbl for lbl in (*dataset.label_inventory, UNPARSED)}
    records: dict[str, str] = {}
    in_file: dict[str, str | int] = {}  # the file's condition and run_id
    for lineno, rec in read_records(path, PREDICTION_FIELDS, data):
        instance_id = dataset_ids.get(rec["instance_id"])
        if instance_id is None:
            raise ValueError(f"{path}:{lineno}: unknown instance_id "
                             f"{rec['instance_id']!r}")
        if instance_id in records:
            raise ValueError(f"{path}:{lineno}: duplicate instance_id {instance_id!r}")
        records[instance_id] = known.get(rec["predicted_label"], rec["predicted_label"])
        for key in ("condition", "run_id"):
            if key in rec and in_file.setdefault(key, rec[key]) != rec[key]:
                raise ValueError(f"{path}:{lineno}: mixed {key}s in file")
    missing = sorted(dataset_ids.keys() - records.keys())
    if missing:
        shown = ", ".join(missing[:5])
        raise ValueError(f"{path}: missing prediction(s) for {len(missing)} "
                         f"instance(s): {shown}")
    strange = sorted({lbl for lbl in records.values() if lbl not in known})
    if strange:
        log(__name__, WARNING, "%s: %d label(s) outside the inventory (kept, will "
            "score as wrong): %s", path, len(strange), ", ".join(strange[:5]))
    return PredictionSet(
        condition=in_file.get("condition", "") if condition is None else condition,
        run_id=in_file.get("run_id", 0) if run_id is None else run_id,
        records=records)
