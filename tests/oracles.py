"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's own code paths: scoring
is direct tally counting, the signed-rank p-value is a naive walk over
every sign assignment, tree traversals work straight off the raw
(id, parent, relation, text) records, paired outcomes are decided one
instance at a time, stage reuse is decided one stage at a time, just
before the stage would run, and the cue baseline counts with a Counter per
cue and reads its words off the whole lowercased text.
"""

from __future__ import annotations

import string
from collections import Counter
from itertools import product


def brute_force_scores(gold: list[str], pred: list[str]) -> tuple[float, float]:
    """(macro_f1, accuracy) by direct counting over the gold label set."""
    assert len(gold) == len(pred)
    f1s = []
    for label in sorted(set(gold)):
        tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
        fp = sum(1 for g, p in zip(gold, pred) if g != label and p == label)
        fn = sum(1 for g, p in zip(gold, pred) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    macro = sum(f1s) / len(f1s) if f1s else 0.0
    accuracy = sum(1 for g, p in zip(gold, pred) if g == p) / len(gold) if gold else 0.0
    return macro, accuracy


def midranks(values: list[float]) -> list[float]:
    """Average ranks by counting, not sorting: less + (equal + 1) / 2."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(less + (equal + 1) / 2)
    return ranks


def enumerate_signed_rank_p(scores_a: list[float], scores_b: list[float]
                            ) -> tuple[float, float]:
    """(W+, two-sided exact p) over all 2**n sign assignments.

    Rank values are integer halves, so plain float sums stay exact.
    """
    diffs = [a - b for a, b in zip(scores_a, scores_b) if a != b]
    if not diffs:
        return 0.0, 1.0
    ranks = midranks([abs(d) for d in diffs])
    w_obs = sum(r for d, r in zip(diffs, ranks) if d > 0)
    n = len(diffs)
    at_most = 0
    at_least = 0
    for signs in product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_obs:
            at_most += 1
        if w >= w_obs:
            at_least += 1
    p = 2 * min(at_most, at_least) / 2 ** n
    return w_obs, min(1.0, p)


def path_to_root(records: list[tuple], edu_id: int) -> list[int]:
    """Ancestor ids of edu_id, nearest first, stopping before id 0."""
    parents = {rec[0]: rec[1] for rec in records}
    out = []
    node = parents[edu_id]
    while node > 0:
        out.append(node)
        node = parents[node]
    return out


def sentences_of(records: list[tuple]) -> list[tuple[int, str]]:
    """(sentence index, joined text) per sentence over the real EDUs."""
    sentences = []
    current: list[str] = []
    index = 0
    for rec in records:
        if rec[0] == 0:
            continue
        text = rec[3].strip()
        current.append(text)
        bare = text.rstrip()
        while bare and bare[-1] in "\"'”’»)]}":
            bare = bare[:-1]
        if bare.endswith((".", "!", "?")):
            sentences.append((index, " ".join(current)))
            current = []
            index += 1
    if current:
        sentences.append((index, " ".join(current)))
    return sentences


def sentence_index_of(records: list[tuple], edu_id: int) -> int:
    index = 0
    for rec in records:
        if rec[0] == 0:
            continue
        if rec[0] == edu_id:
            return index
        bare = rec[3].strip()
        while bare and bare[-1] in "\"'”’»)]}":
            bare = bare[:-1]
        if bare.endswith((".", "!", "?")):
            index += 1
    raise KeyError(edu_id)


def preceding_sentences(records: list[tuple], edu_id: int, n: int) -> list[str]:
    """The n sentences before the sentence containing edu_id."""
    target = sentence_index_of(records, edu_id)
    sentences = dict(sentences_of(records))
    picked = range(max(0, target - n), target)
    return [sentences[i] for i in picked if i in sentences]


def category_match_rates(rows: list[tuple[str, bool]],
                         relation_categories: dict[str, list[str]],
                         level: str) -> dict[str, tuple[int, int, float]]:
    """(matched, total, percentage) per category from (gold relation, hit)
    rows: a 0/1 list per relation, pooled over the instances of a category
    or averaged over its relations (``level`` "type")."""
    per_relation: dict[str, list[int]] = {}
    for relation, hit in rows:
        per_relation.setdefault(relation, []).append(1 if hit else 0)
    out = {}
    for category, relations in relation_categories.items():
        lists = [per_relation.get(r, []) for r in relations]
        matched = sum(sum(h) for h in lists)
        total = sum(len(h) for h in lists)
        if level == "instance":
            percentage = 100.0 * matched / total if total else 0.0
        else:
            rates = [100.0 * sum(h) / len(h) for h in lists if h]
            percentage = sum(rates) / len(rates) if rates else 0.0
        out[category] = (matched, total, percentage)
    return out


def paired_outcomes(gold: dict[str, str], runs: list[tuple[dict, dict]]
                    ) -> list[tuple[str, str]]:
    """(gold relation, outcome) per instance of each paired run, given as
    (A, B) dicts of instance id -> predicted label: B alone right is a win,
    A alone right a loss, anything else a tie."""
    rows = []
    for preds_a, preds_b in runs:
        for instance_id, relation in gold.items():
            a_right = preds_a[instance_id] == relation
            b_right = preds_b[instance_id] == relation
            if b_right and not a_right:
                rows.append((relation, "win"))
            elif a_right and not b_right:
                rows.append((relation, "loss"))
            else:
                rows.append((relation, "tie"))
    return rows


def relation_tallies(rows: list[tuple[str, str]], num_runs: int,
                     normalizer: str = "runs"
                     ) -> list[tuple[str, int, int, int, float, str]]:
    """(relation, wins, losses, ties, delta, category) per relation of
    ``paired_outcomes`` rows, largest absolute delta first (then by name).
    Delta is (wins - losses) over the number of runs, or over the relation's
    rows for ``normalizer`` "support"."""
    out = []
    for relation in sorted({relation for relation, _ in rows}):
        outcomes = [outcome for r, outcome in rows if r == relation]
        wins, losses = outcomes.count("win"), outcomes.count("loss")
        ties = len(outcomes) - wins - losses
        delta = (wins - losses) / (num_runs if normalizer == "runs" else len(outcomes))
        category = "winning" if delta > 0 else "losing" if delta < 0 else "tied"
        out.append((relation, wins, losses, ties, delta, category))
    return sorted(out, key=lambda row: (-abs(row[4]), row[0]))


def one_pass_walk(stages, previous: dict) -> tuple[list[str], dict[str, bool]]:
    """(names of the stages run, in order; ``reused`` flag by stage) of a walk
    that decides each stage just before it would run it, from the flags of
    the stages before it and the files on disk at that moment.  A stage is
    reused when ``previous`` has it under the same key (with its text, if it
    has no ``load``), every stage in its ``inputs`` was reused and each of
    its ``outputs`` exists; any other stage runs."""
    ran, reused = [], {}
    for stage in stages:
        entry = previous.get(stage.name, {})
        reused[stage.name] = bool(entry) and entry.get("key", "") == stage.key \
            and (stage.load is not None or "text" in entry) \
            and all(reused[name] for name in stage.inputs) \
            and all(path.exists() for path in stage.outputs)
        if not reused[stage.name]:
            stage.run()
            ran.append(stage.name)
    return ran, reused


def cue_baseline(train: list, evaluate: list) -> tuple[str, dict, dict]:
    """(majority label, cue table, predictions) of the cue baseline, fitted by
    a Counter per cue.  A word is the first of the lowercased text, split at
    whitespace and stripped of punctuation, that is not empty."""
    punctuation = string.punctuation + "‘’“”«»"

    def first_word(text):
        words = [word.strip(punctuation) for word in text.lower().split()]
        return next(filter(None, words), "")

    def cue_key(inst):
        if inst.context_text:
            return (first_word(inst.arg2_text), first_word(inst.context_text))
        return (first_word(inst.arg2_text),)

    def most_frequent(counter):
        return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]

    majority = most_frequent(Counter(i.gold_label for i in train))
    cue_counts = {}
    for inst in train:
        cue_counts.setdefault(cue_key(inst), Counter())[inst.gold_label] += 1
    cue_table = {key: most_frequent(c) for key, c in cue_counts.items()}
    records = {inst.instance_id: cue_table.get(cue_key(inst), majority)
               for inst in evaluate}
    return majority, cue_table, records
