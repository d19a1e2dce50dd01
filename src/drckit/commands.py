"""The single-step subcommands: ingest, validate, stats, variants, infer,
evaluate, compare and analyze.  ``cli.main`` imports this module only when
one of them runs, and it imports nothing from ``cli``, which sits above it.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from .config import (CONFIG_FIELDS, ENDPOINT_FIELDS, EXIT_DATA, EXIT_OK, TAG,
                     ContextScheme, TreebankError, check_config, one_run)
from .fields import write_atomic

if TYPE_CHECKING:
    from .evaluation import EvalReport
    from .treebank import Corpus


def _detect_splits(corpus_dir: Path) -> list[str]:
    splits = [d.name for d in sorted(corpus_dir.iterdir()) if d.is_dir()]
    if not splits:
        raise TreebankError(f"no split directories under {corpus_dir}")
    return splits


def cmd_ingest(args) -> int:
    from .treebank import (count_instances, load_split, serialize_tree_document,
                           write_validation_report)
    corpus_dir = Path(args.corpus_dir)
    splits = args.splits or _detect_splits(corpus_dir)
    name = args.name or corpus_dir.name
    check_config({"--name": name}, {"--name": TAG}, "ingest")  # it names a directory
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

def cmd_infer(args) -> int:
    from .context import read_variant_dataset
    from .inference import predictor, write_predictions
    dataset = read_variant_dataset(args.dataset)
    train = read_variant_dataset(args.train)
    dataset = dataset._replace(label_inventory=train.label_inventory)
    condition = args.condition or f"{dataset.scheme.tag}+{args.backend}"
    check_config({"condition": condition}, {"condition": TAG}, "infer")
    out_dir = Path(args.out)
    flags = {key: value for key, value in vars(args).items()
             if key in ENDPOINT_FIELDS and value is not None}
    predict = predictor(args.backend, flags, train, dataset, condition,
                         out_dir / "logs")
    # An endpoint run appends to its log under out_dir, so it runs alone there.
    with one_run(out_dir) if args.backend == "endpoint" else nullcontext():
        for seed in args.seeds:
            preds = predict(seed)
            path = out_dir / f"{condition}.run{seed}.jsonl"
            write_predictions(preds, path)
            print(f"wrote {path} ({preds.unparsed_count} unparsed)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .context import read_variant_dataset
    from .evaluation import aggregate_runs, mean_line, score_run
    from .inference import import_predictions
    dataset = read_variant_dataset(args.dataset)
    by_condition: dict[str, list[EvalReport]] = {}
    for pred_path in args.predictions:
        preds = import_predictions(pred_path, dataset)
        report = score_run(dataset, preds, Path(args.out), Path(pred_path).stem, {})
        print(f"{report.condition} run {report.run_id}: "
              f"macro-F1 {report.macro_f1:.4f}, accuracy {report.accuracy:.4f}")
        by_condition.setdefault(report.condition, []).append(report)
    for group in by_condition.values():
        if len(group) > 1:
            print(mean_line(aggregate_runs(group)))
    return EXIT_OK


def cmd_compare(args) -> int:
    from .evaluation import bonferroni, compare_runs, read_report_scores
    rules = {"--m": CONFIG_FIELDS["bonferroni_m"], "--alpha": CONFIG_FIELDS["alpha"]}
    check_config({"--m": args.m, "--alpha": args.alpha}, rules, "compare")
    result = compare_runs([read_report_scores(path) for path in args.reports_a],
                          [read_report_scores(path) for path in args.reports_b])
    [result] = bonferroni([result], m=args.m, alpha=args.alpha)
    print(f"{' vs '.join(result.comparison)}: n={result.n_pairs} "
          f"(effective {result.n_effective}), W+={result.w_plus:g}, "
          f"p={result.p_two_sided:.6g}, adjusted p={result.p_adjusted:.6g} "
          f"(m={args.m}), {'significant' if result.significant else 'not significant'} "
          f"at alpha={args.alpha}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .analysis import analyze_pair, load_connective_lexicon
    from .context import read_variant_dataset
    from .inference import import_predictions
    dataset = read_variant_dataset(args.dataset)
    lexicon = load_connective_lexicon(args.lexicon)

    def read_runs(paths):
        return [import_predictions(path, dataset) for path in paths]

    margins, match_report = analyze_pair(
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
