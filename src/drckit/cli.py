"""Command line entry points for the full experiment pipeline.

Subcommands: ingest, validate, stats, variants, infer, evaluate, compare,
analyze, experiment.  Exit codes: 0 success, 1 data or validation error,
2 configuration error, 3 endpoint failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from . import __version__
from .config import (CONFIG_FIELDS, ENDPOINT_FIELDS, TAG, ConfigError, ContextScheme,
                     ExperimentConfig, RunManifest, Stage, check_config, endpoint_config,
                     file_key, load_experiment_config, sweep)
from .fields import write_atomic

# Each layer is imported where one of its stages, subcommands or error
# branches runs, so a call loads only the layers it uses: a rerun with
# nothing changed loads none of treebank, context, inference, endpoint,
# evaluation and analysis.
if TYPE_CHECKING:
    from .analysis import ConnectiveLexicon, ConnectiveMatchReport, RelationMargin
    from .context import VariantDataset
    from .evaluation import EvalReport, RunAggregate
    from .inference import PredictionSet
    from .treebank import Corpus

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_ENDPOINT = 3

T = TypeVar("T")


def _detect_splits(corpus_dir: Path) -> list[str]:
    splits = [d.name for d in sorted(corpus_dir.iterdir()) if d.is_dir()]
    if not splits:
        from .treebank import TreebankError
        raise TreebankError(f"no split directories under {corpus_dir}")
    return splits


def cmd_ingest(args) -> int:
    from .treebank import (count_instances, load_split, serialize_tree_document,
                           write_validation_report)
    corpus_dir = Path(args.corpus_dir)
    splits = args.splits or _detect_splits(corpus_dir)
    name = args.name or corpus_dir.name
    out_dir = Path(args.out) if args.out else None
    all_violations = []
    for split in splits:
        corpus, violations = load_split(corpus_dir, split, name)
        all_violations.extend(violations)
        if out_dir is not None:
            for tree in corpus.trees:
                write_atomic(out_dir / name / split / f"{tree.doc_id}.dep",
                             serialize_tree_document(tree))
        print(f"{name}/{split}: {len(corpus.trees)} documents, "
              f"{count_instances(corpus)} instances, "
              f"{len(violations)} violations")
    if out_dir is not None:
        write_validation_report(all_violations, out_dir / name / "validation.tsv")
    for v in all_violations:
        print(v.report_line(), file=sys.stderr)
    print(f"{len(all_violations)} violations")
    if all_violations and not args.lenient:
        return EXIT_DATA
    return EXIT_OK


def cmd_validate(args) -> int:
    from .treebank import load_split
    corpus_dir = Path(args.corpus_dir)
    splits = args.splits or _detect_splits(corpus_dir)
    total = 0
    for split in splits:
        _, violations = load_split(corpus_dir, split, args.name)
        for v in violations:
            print(v.report_line())
        total += len(violations)
    print(f"{total} violations", file=sys.stderr)
    return EXIT_DATA if total else EXIT_OK


def _merged_corpus(corpus_dir: Path, splits: list[str], name: str | None) -> Corpus:
    from .treebank import Corpus, load_corpus
    trees = []
    for split in splits:
        corpus = load_corpus(corpus_dir, split, name)
        trees.extend(corpus.trees)
    return Corpus(name or corpus_dir.name, "+".join(splits), tuple(trees))


def cmd_stats(args) -> int:
    from .treebank import dependency_distance_stats
    corpus_dir = Path(args.corpus_dir)
    splits = args.splits or _detect_splits(corpus_dir)
    corpus = _merged_corpus(corpus_dir, splits, args.name)
    stats = dependency_distance_stats(corpus)
    print(f"corpus {corpus.name} ({corpus.split}): "
          f"{len(corpus.trees)} documents, {stats.edu.total} relations")
    print("unit      adjacent  gap3-5   total")
    for unit, gap in (("EDU", stats.edu), ("sentence", stats.sentence)):
        print(f"{unit:<9} {100 * gap.adjacent_fraction:>7.1f}% "
              f"{100 * gap.gap_3_to_5_fraction:>6.1f}% {gap.total:>7}")
    if args.histogram:
        for unit, gap in (("EDU", stats.edu), ("sentence", stats.sentence)):
            for gap_size, count in gap.histogram.items():
                print(f"{unit}\t{gap_size}\t{count}")
    return EXIT_OK


def cmd_variants(args) -> int:
    from .context import build_variant_dataset, write_variant_dataset
    from .treebank import load_corpus
    scheme = ContextScheme.parse(args.scheme)
    corpus = load_corpus(Path(args.corpus_dir), args.split, args.name)
    dataset = build_variant_dataset(corpus, scheme,
                                    include_relations=args.include_relations)
    out = Path(args.out)
    write_variant_dataset(dataset, out)
    print(f"wrote {len(dataset.instances)} instances "
          f"({scheme.tag}, {args.split}) to {out}")
    return EXIT_OK


def _predictor(kind: str, options: dict, train_ds: VariantDataset,
               eval_ds: VariantDataset, condition: str, log_dir: Path
               ) -> Callable[[int], PredictionSet]:
    """Seed -> PredictionSet for a baseline or endpoint condition.

    A baseline is fit and predicts here, once: its predictions do not depend
    on the seed, so every seed's set shares one read-only records dict.
    """
    from .inference import (BASELINE_KINDS, PredictionSet, predict_baseline,
                            train_baseline)
    if kind in BASELINE_KINDS:
        records = predict_baseline(train_baseline(train_ds, kind), eval_ds,
                                   condition).records
        return lambda seed: PredictionSet(condition, seed, records)
    from .endpoint import run_endpoint_inference
    endpoint_cfg = endpoint_config(options)
    return lambda seed: run_endpoint_inference(
        eval_ds, train_ds, endpoint_cfg, seed,
        log_dir / f"{condition}.run{seed}.log.jsonl", condition)


def cmd_infer(args) -> int:
    from .context import read_variant_dataset
    from .inference import write_predictions
    dataset = read_variant_dataset(args.dataset)
    train = read_variant_dataset(args.train)
    dataset = dataset._replace(label_inventory=train.label_inventory)
    condition = args.condition or f"{dataset.scheme.tag}+{args.backend}"
    check_config({"condition": condition}, {"condition": TAG}, "infer")
    out_dir = Path(args.out)
    flags = {key: value for key, value in vars(args).items()
             if key in ENDPOINT_FIELDS and value is not None}
    predict = _predictor(args.backend, flags, train, dataset, condition,
                         out_dir / "logs")
    for seed in args.seeds:
        preds = predict(seed)
        path = out_dir / f"{condition}.run{seed}.jsonl"
        write_predictions(preds, path)
        print(f"wrote {path} ({preds.unparsed_count} unparsed)")
    return EXIT_OK


def _score_run(dataset: VariantDataset, preds: PredictionSet, report_dir: Path,
               stem: str, shared: dict) -> EvalReport:
    """Score one run and write ``<stem>.report.json`` and ``.report.tsv``;
    ``shared`` keeps each records dict's score and texts for one condition."""
    from .evaluation import report_texts, score, write_report_json, write_report_tsv
    if id(preds.records) not in shared:  # an entry holds the dict it is keyed by
        report = score(dataset, preds)
        shared[id(preds.records)] = preds.records, report, report_texts(report)
    _, report, texts = shared[id(preds.records)]
    report = report._replace(run_id=preds.run_id)
    write_report_json(report, report_dir / f"{stem}.report.json", texts)
    write_report_tsv(report, report_dir / f"{stem}.report.tsv", texts)
    return report


def cmd_evaluate(args) -> int:
    from .context import read_variant_dataset
    from .evaluation import aggregate_runs
    from .inference import import_predictions
    dataset = read_variant_dataset(args.dataset)
    by_condition: dict[str, list[EvalReport]] = {}
    for pred_path in args.predictions:
        preds = import_predictions(pred_path, dataset)
        report = _score_run(dataset, preds, Path(args.out), Path(pred_path).stem, {})
        print(f"{report.condition} run {report.run_id}: "
              f"macro-F1 {report.macro_f1:.4f}, accuracy {report.accuracy:.4f}")
        by_condition.setdefault(report.condition, []).append(report)
    for group in by_condition.values():
        if len(group) > 1:
            print(_mean_line(aggregate_runs(group)))
    return EXIT_OK


def _mean_line(agg: RunAggregate) -> str:
    """The line ``evaluate`` and ``experiment`` print for a condition's runs."""
    return (f"{agg.condition}: mean macro-F1 {100 * agg.mean_macro_f1:.2f} "
            f"({100 * agg.stddev:.2f}) over {agg.n_runs} runs")


def _pair_by_run_id(runs_a: list[tuple[int, T]], runs_b: list[tuple[int, T]]
                    ) -> list[tuple[int, T, T]]:
    """(run_id, a, b) per run id; raise unless A and B pair one to one."""
    by_id_a, by_id_b = dict(runs_a), dict(runs_b)
    for name, runs, by_id in (("A", runs_a, by_id_a), ("B", runs_b, by_id_b)):
        if len(by_id) != len(runs):
            raise ValueError(f"duplicate run ids in set {name}: "
                             f"{sorted(run_id for run_id, _ in runs)}")
    if by_id_a.keys() != by_id_b.keys():
        raise ValueError(f"runs do not pair by run id: A has {sorted(by_id_a)}, "
                         f"B has {sorted(by_id_b)}")
    return [(run_id, by_id_a[run_id], by_id_b[run_id]) for run_id in sorted(by_id_a)]


def _lexicon(path: Path | str | None) -> ConnectiveLexicon:
    from .analysis import default_lexicon, load_connective_lexicon
    return load_connective_lexicon(path) if path else default_lexicon()


def _analyze_pair(dataset: VariantDataset, runs_a: list[PredictionSet],
                  runs_b: list[PredictionSet], lexicon: ConnectiveLexicon,
                  out_dir: Path, normalizer: str = "runs", level: str = "instance",
                  multiword: bool = False, shared: dict | None = None
                  ) -> tuple[list[RelationMargin], ConnectiveMatchReport]:
    """Pair A and B runs by run id, then write ``margins.tsv`` and
    ``connectives.tsv`` of B against A under ``out_dir``."""
    from .analysis import (connective_match_rate, margins_by_category,
                           pair_outcomes, relation_margins,
                           write_connective_report_tsv, write_margins_tsv)
    pairs = _pair_by_run_id([(p.run_id, p) for p in runs_a],
                            [(p.run_id, p) for p in runs_b])
    counts = pair_outcomes(dataset.gold_labels(),
                           [(preds_a, preds_b) for _, preds_a, preds_b in pairs])
    margins = relation_margins(counts, len(pairs), normalizer=normalizer)
    match_report = connective_match_rate(dataset.instances,
                                         margins_by_category(margins), lexicon,
                                         level=level, multiword=multiword,
                                         shared=shared)
    write_margins_tsv(margins, out_dir / "margins.tsv")
    write_connective_report_tsv(match_report, out_dir / "connectives.tsv")
    return margins, match_report


def cmd_compare(args) -> int:
    from .evaluation import bonferroni, read_report_scores, wilcoxon_signed_rank
    rules = {"--m": CONFIG_FIELDS["bonferroni_m"], "--alpha": CONFIG_FIELDS["alpha"]}
    check_config({"--m": args.m, "--alpha": args.alpha}, rules, "compare")
    def read_scores(paths):
        triples = [read_report_scores(p) for p in paths]
        conditions = {t[0] for t in triples}
        if len(conditions) != 1:
            raise ValueError(f"mixed conditions in report set: {sorted(conditions)}")
        return conditions.pop(), [(run_id, f1) for _, run_id, f1 in triples]

    cond_a, runs_a = read_scores(args.reports_a)
    cond_b, runs_b = read_scores(args.reports_b)
    pairs = _pair_by_run_id(runs_a, runs_b)
    result = wilcoxon_signed_rank([a for _, a, _ in pairs], [b for _, _, b in pairs],
                                  comparison=(cond_a, cond_b))
    [result] = bonferroni([result], m=args.m, alpha=args.alpha)
    print(f"{cond_a} vs {cond_b}: n={result.n_pairs} "
          f"(effective {result.n_effective}), W+={result.w_plus:g}, "
          f"p={result.p_two_sided:.6g}, adjusted p={result.p_adjusted:.6g} "
          f"(m={args.m}), {'significant' if result.significant else 'not significant'} "
          f"at alpha={args.alpha}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .context import read_variant_dataset
    from .inference import import_predictions
    dataset = read_variant_dataset(args.dataset)
    lexicon = _lexicon(args.lexicon)

    def read_runs(paths):
        return [import_predictions(path, dataset) for path in paths]

    margins, match_report = _analyze_pair(
        dataset, read_runs(args.preds_a), read_runs(args.preds_b), lexicon,
        Path(args.out), args.margin_normalizer, args.level, args.multiword)
    for m in margins:
        print(f"{m.relation}: delta={m.delta:g} ({m.category}; "
              f"{m.wins}W/{m.losses}L/{m.ties}T)")
    for category in sorted(match_report.by_category):
        c = match_report.by_category[category]
        print(f"{category}: {c.percentage:.1f}% connective matches "
              f"({c.matched}/{c.total})")
    return EXIT_OK


def experiment_stages(cfg: ExperimentConfig, inventory: Sequence[str],
                      corpus: Callable[[str, bool], Corpus],
                      value: Callable[[str], object]) -> list[Stage]:
    """The stages of the experiment ``cfg``, in the order they run.

    ``inventory`` is the train split's labels, ``corpus(split, last)``
    parses a split once (``last`` releases it), and ``value(name)`` is the
    value of a stage that has run or been reused.  Declaring runs no stage
    and reads only the files that stage keys digest: the lexicon and
    imported prediction files.
    """
    out_dir, splits = cfg.out_dir, (cfg.train_split, cfg.eval_split)
    # Only the analysis stages read the lexicon; the tool version covers the
    # packaged one.
    lexicon = cache(lambda: _lexicon(cfg.lexicon))
    lexicon_key = file_key(cfg.lexicon) if cfg.lexicon else ""
    written: dict = {}  # the last predictions' file lines, for the seeds sharing them
    hits: dict = {}  # connective hits: all analyses read one eval variant, lexicon

    # What each stage kind does, given the arguments its declaration binds.
    def build_variant(path, scheme, split):
        from .context import build_variant_dataset, write_variant_dataset
        dataset = build_variant_dataset(corpus(split, scheme == cfg.schemes[-1]),
                                        scheme, inventory)
        write_variant_dataset(dataset, path)
        return dataset

    def read_variant(path):
        from .context import read_variant_dataset
        return read_variant_dataset(path, cfg.corpus_name, inventory)

    def make_predictor(backend, condition, train, test):
        return _predictor(backend.kind, backend.options, value(train), value(test),
                          condition, out_dir / "logs")

    def read_source(source):  # the format only: running the stage checks the ids
        from .inference import PREDICTION_FIELDS, read_records
        for _ in read_records(Path(source), PREDICTION_FIELDS):
            pass

    def read_run(path, condition, seed, test):
        from .inference import import_predictions
        return import_predictions(path, value(test), condition=condition, run_id=seed)

    def predict(path, condition, seed, test, source, predictor):
        from .inference import write_predictions
        preds = read_run(source, condition, seed, test) if source \
            else predictor()(seed)
        write_predictions(preds, path, written)
        return preds

    def score(stem, preds, test, scored):
        return _score_run(value(test), value(preds), out_dir / "reports", stem, scored)

    def read_score(path):
        from .evaluation import read_report_scores
        return read_report_scores(path)

    def analyze(analysis_dir, runs_a, runs_b):
        _analyze_pair(value(variants[("default", cfg.eval_split)]),
                      [value(name) for name in runs_a],
                      [value(name) for name in runs_b], lexicon(), analysis_dir,
                      shared=hits)

    def summarize(conditions, comparisons):
        from .evaluation import (aggregate_runs, bonferroni, format_results_table,
                                 wilcoxon_signed_rank)
        aggregates = {condition: aggregate_runs([value(name) for name in names])
                      for condition, names in conditions.items()}
        significance = {}
        if comparisons:  # load_experiment_config has checked bonferroni_m
            results = [wilcoxon_signed_rank(aggregates[a].per_run_scores,
                                            aggregates[b].per_run_scores,
                                            comparison=(a, b))
                       for a, b in comparisons]
            sig_lines = ["condition\tbaseline\tn_eff\tw_plus\tp\tp_adjusted"
                         "\tsignificant"]
            for result in bonferroni(results, cfg.bonferroni_m, cfg.alpha):
                significance[result.comparison[0]] = result
                sig_lines.append(
                    f"{result.comparison[0]}\t{result.comparison[1]}"
                    f"\t{result.n_effective}\t{result.w_plus:g}"
                    f"\t{result.p_two_sided:.6g}\t{result.p_adjusted:.6g}"
                    f"\t{result.significant}")
            write_atomic(out_dir / "significance.tsv", "\n".join(sig_lines) + "\n")
        table = format_results_table(list(aggregates.values()), significance)
        write_atomic(out_dir / "results_table.txt", table + "\n")
        return "\n".join([*map(_mean_line, aggregates.values()), table])

    stages, variants = [], {}
    conditions = {}  # the score stages of each condition, in seed order
    comparisons = []  # (condition, its default condition), as the analyses pair them
    for scheme in cfg.schemes:
        for split in splits:
            path = out_dir / "variants" / f"{cfg.corpus_name}.{scheme.tag}.{split}.jsonl"
            name = variants[(scheme.tag, split)] = f"variants:{scheme.tag}:{split}"
            stages.append(Stage(name, (path,),
                                partial(build_variant, path, scheme, split),
                                partial(read_variant, path)))
    for backend in cfg.backends:
        runs = {}  # the predict stages of each scheme, in seed order
        for scheme in cfg.schemes:
            condition = f"{scheme.tag}+{backend.tag}"
            train, test = (variants[(scheme.tag, split)] for split in splits)
            sources = dict(zip(cfg.seeds, backend.options["runs"][scheme.tag])) \
                if backend.kind == "import" else {}
            predictor = cache(partial(make_predictor, backend, condition, train, test))
            scored = {}  # the reports of the predictions this condition's seeds share
            runs[scheme.tag] = [f"predict:{condition}:{seed}" for seed in cfg.seeds]
            for seed, name in zip(cfg.seeds, runs[scheme.tag]):
                path = out_dir / "predictions" / f"{condition}.run{seed}.jsonl"
                # An imported run is read from its source, keyed by the source's bytes.
                source = sources.get(seed)
                stages.append(Stage(
                    name, (path,),
                    partial(predict, path, condition, seed, test, source, predictor),
                    partial(read_run, path, condition, seed, test),
                    key=file_key(source) if source else "",
                    check=partial(read_source, source) if source else None,
                    checkpoint=backend.kind == "endpoint"))
            conditions[condition] = [f"score:{condition}:{seed}" for seed in cfg.seeds]
            for seed, predict_name, name in zip(cfg.seeds, runs[scheme.tag],
                                                conditions[condition]):
                stem = f"{condition}.run{seed}"
                reports = tuple(out_dir / "reports" / f"{stem}.report.{suffix}"
                                for suffix in ("json", "tsv"))
                stages.append(Stage(
                    name, reports, partial(score, stem, predict_name, test, scored),
                    partial(read_score, reports[0]), inputs=(predict_name, test)))
        for scheme in [s for s in cfg.schemes
                       if "default" in runs and s.kind != "default"]:
            analysis_dir = out_dir / "analysis" / \
                f"{backend.tag}.default-vs-{scheme.tag}"
            stages.append(Stage(
                f"analysis:{backend.tag}:default-vs-{scheme.tag}",
                (analysis_dir / "margins.tsv", analysis_dir / "connectives.tsv"),
                partial(analyze, analysis_dir, runs["default"], runs[scheme.tag]),
                lambda: None,  # nothing reads an analysis back
                inputs=(variants[("default", cfg.eval_split)], *runs["default"],
                        *runs[scheme.tag]), key=lexicon_key, check=lexicon))
            comparisons.append((f"{scheme.tag}+{backend.tag}",
                                f"default+{backend.tag}"))
    summary = [out_dir / "results_table.txt"]
    if comparisons:
        summary.append(out_dir / "significance.tsv")
    # The run key covers alpha and bonferroni_m, the only settings it reads.
    stages.append(Stage(
        "summary", tuple(summary), partial(summarize, conditions, comparisons),
        inputs=tuple(name for names in conditions.values() for name in names)))
    return stages


def cmd_experiment(args) -> int:
    cfg = load_experiment_config(args.config)

    # A split is parsed only when a variants stage builds from it, or to make
    # the ingest summary that a manifest under this run key lacks, and kept,
    # with its trees' instances, until its last variants stage has built.
    parsed: dict[str, Corpus] = {}

    def corpus(split: str, last: bool = False) -> Corpus:
        if split not in parsed:
            from .treebank import load_corpus
            parsed[split] = load_corpus(cfg.corpus_dir, split, cfg.corpus_name)
        return parsed.pop(split) if last else parsed[split]

    manifest = RunManifest.load_or_create(cfg.out_dir / "manifest.json",
                                          cfg.run_key(__version__), __version__)
    if manifest.ingest is None:
        from .context import corpus_label_inventory
        from .treebank import count_instances
        manifest.ingest = {
            "train_instances": count_instances(corpus(cfg.train_split)),
            "eval_instances": count_instances(corpus(cfg.eval_split)),
            "label_inventory": corpus_label_inventory(corpus(cfg.train_split))}
    print(f"ingested {cfg.corpus_name}: "
          f"{cfg.train_split} {manifest.ingest['train_instances']} instances, "
          f"{cfg.eval_split} {manifest.ingest['eval_instances']} instances")

    stages = experiment_stages(cfg, manifest.ingest["label_inventory"], corpus,
                               manifest.value)
    try:
        manifest.walk(stages)
    finally:  # a run cut short prints the conditions it scored
        if "summary" not in manifest.stages:
            from .evaluation import aggregate_runs
            for condition in (f"{scheme.tag}+{backend.tag}" for backend in cfg.backends
                              for scheme in cfg.schemes):
                names = [f"score:{condition}:{seed}" for seed in cfg.seeds]
                if all(name in manifest.stages for name in names):
                    print(_mean_line(aggregate_runs([manifest.value(name)
                                                     for name in names])))
    sweep(cfg.out_dir, stages)  # the outputs of conditions the config dropped
    print(manifest.value("summary"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drckit",
        description="Context-aware discourse relation classification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="scan, validate and persist a corpus")
    p.add_argument("corpus_dir")
    p.add_argument("--name")
    p.add_argument("--splits", nargs="*")
    p.add_argument("--out", help="directory for the normalized corpus store")
    p.add_argument("--lenient", action="store_true",
                   help="exit 0 even when documents fail validation")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", help="report violations without persisting")
    p.add_argument("corpus_dir")
    p.add_argument("--name")
    p.add_argument("--splits", nargs="*")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="head/dependent distance statistics")
    p.add_argument("corpus_dir")
    p.add_argument("--name")
    p.add_argument("--splits", nargs="*")
    p.add_argument("--histogram", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("variants", help="render a dataset variant file")
    p.add_argument("corpus_dir")
    p.add_argument("--name")
    p.add_argument("--scheme", required=True, help="default, AD<n> or OR<n>")
    p.add_argument("--split", required=True)
    p.add_argument("--include-relations", action="store_true",
                   help="prefix oracle fragments with their relation label")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser("infer", help="produce prediction files for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--train", required=True,
                   help="training variant (baseline fitting, ICL sampling)")
    p.add_argument("--backend", required=True,
                   choices=["majority", "cue", "endpoint"])
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--condition")
    p.add_argument("--out", required=True)
    # Endpoint options, typed by their table (a number is a float); one left
    # out keeps its EndpointConfig default.
    for key, field in ENDPOINT_FIELDS.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=field.types[-1])
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="score prediction files")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="signed-rank test between two conditions")
    p.add_argument("--reports-a", nargs="+", required=True)
    p.add_argument("--reports-b", nargs="+", required=True)
    p.add_argument("--m", type=int, required=True,
                   help="size of the comparison family for Bonferroni")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", help="paired win/loss/tie error analysis")
    p.add_argument("--dataset", required=True,
                   help="variant file supplying gold labels and arg2 text")
    p.add_argument("--preds-a", nargs="+", required=True)
    p.add_argument("--preds-b", nargs="+", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--level", choices=["instance", "type"], default="instance")
    p.add_argument("--multiword", action="store_true",
                   help="match multiword connectives by longest prefix")
    p.add_argument("--margin-normalizer", choices=["runs", "support"],
                   default="runs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("experiment", help="run the configured pipeline end to end")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # These classes are imported once an error occurs, so a run that
        # needs neither layer loads neither module.
        from .endpoint import EndpointError
        from .treebank import CorpusError, TreebankError
        if isinstance(exc, EndpointError):
            print(f"endpoint error: {exc}", file=sys.stderr)
            return EXIT_ENDPOINT
        if not isinstance(exc, (TreebankError, ValueError, OSError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CorpusError):  # name the documents at fault
            for violation in exc.violations[:5]:
                print(violation.report_line(), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
