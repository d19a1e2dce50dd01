"""Command line entry point and the experiment pipeline.

Subcommands: ingest, validate, stats, variants, infer, evaluate, compare,
analyze (all in ``commands``), experiment.  Exit codes (``config.EXIT_*``):
0 success, 1 data or validation error, 2 configuration error, 3 endpoint
failure.  This module is the top of the stack: no drckit module imports it.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__, fields
from .config import (ENDPOINT_FIELDS, EXIT_CONFIG, EXIT_DATA, EXIT_ENDPOINT, EXIT_OK,
                     ConfigError, CorpusError, EndpointError, ExperimentConfig,
                     RunManifest, Stage, TreebankError, load_experiment_config,
                     one_run, stage_key, sweep)

# Each layer is imported where one of its stages or subcommands runs: a rerun
# with nothing changed loads none of treebank, context, inference, endpoint,
# evaluation and analysis.  What a stale stage does is in the layer it drives,
# so a warm run compiles only the parser, the stages and the walk.
if TYPE_CHECKING:
    from .treebank import Corpus


def experiment_stages(cfg: ExperimentConfig, keys: dict[str, str],
                      inventory: Sequence[str], corpus: Callable[[str, bool], Corpus],
                      value: Callable[[str], object]) -> list[Stage]:
    """The stages of the experiment ``cfg``, in the order they run.

    ``keys`` is ``cfg.variant_keys()``, ``inventory`` the train split's
    labels; ``corpus(split, last)`` parses a split once (``last`` releases it),
    and ``value(name)`` is the value of a stage that has run or been reused.
    Declaring runs no stage and reads only the files that stage keys digest,
    the lexicon and imported prediction files, each once: a stage's check and
    run parse the bytes its key digests.  One stage predicts all of a
    condition's seeds and one scores them, so what they share is done once.
    """
    out_dir, splits = cfg.out_dir, (cfg.train_split, cfg.eval_split)
    # Only the analysis stages read the lexicon; the tool version covers the
    # packaged one.
    lexicon_data = cfg.lexicon.read_bytes() if cfg.lexicon else None
    lexicon_key = stage_key([lexicon_data]) if cfg.lexicon else ""

    @cache
    def lexicon():
        from .analysis import load_connective_lexicon
        return load_connective_lexicon(cfg.lexicon, lexicon_data)

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

    def read_sources(sources, data):  # the format only: running the stage checks ids
        from .inference import PREDICTION_FIELDS, read_records
        for source, source_data in zip(sources, data):
            for _ in read_records(Path(source), PREDICTION_FIELDS, source_data):
                pass

    def read_runs(paths, condition, test, data=None):
        from .inference import import_predictions
        return [import_predictions(path, value(test), condition=condition, run_id=seed,
                                   data=source_data) for seed, path, source_data
                in zip(cfg.seeds, paths, data or [None] * len(paths))]

    def predict(paths, backend, condition, train, test, sources, data):
        from .inference import predictor, write_predictions
        if sources:  # parsed from the bytes their key digests, then let go
            runs = read_runs(sources, condition, test, data)
            data.clear()
        else:  # lazily: each seed's file is written once it has run, and kept on abort
            runs = map(predictor(backend.kind, backend.options, value(train),
                                 value(test), condition, out_dir / "logs"), cfg.seeds)
        written, kept = {}, []  # written: the file lines of a dict the seeds share
        for preds, path in zip(runs, paths):
            write_predictions(preds, path, written)
            kept.append(preds)
        return kept

    def score(stems, predict_name, test):
        from .evaluation import score_run
        scored = {}  # the report of each records dict the seeds share
        return [score_run(value(test), preds, out_dir / "reports", stem, scored)
                for stem, preds in zip(stems, value(predict_name))]

    def read_scores(paths):
        from .evaluation import read_report_scores
        return [read_report_scores(path) for path in paths]

    def analyze(analysis_dir, predict_a, predict_b):
        from .analysis import analyze_pair
        analyze_pair(value(variants[("default", cfg.eval_split)]), value(predict_a),
                     value(predict_b), lexicon(), analysis_dir)

    def summarize(conditions, comparisons):
        from .evaluation import write_summary
        return write_summary({condition: value(name)
                              for condition, name in conditions.items()},
                             comparisons, cfg.alpha, cfg.bonferroni_m, out_dir)

    # Readers' keys digest what a variant's key does, so no inputs list a variant.
    stages, variants = [], {}
    conditions = {}  # the score stage of each condition
    comparisons = []  # (condition, its default condition), as the analyses pair them
    for scheme in cfg.schemes:
        for split in splits:
            path = out_dir / "variants" / f"{cfg.corpus_name}.{scheme.tag}.{split}.jsonl"
            name = variants[(scheme.tag, split)] = f"variants:{scheme.tag}:{split}"
            stages.append(Stage(name, (path,),
                                partial(build_variant, path, scheme, split),
                                partial(read_variant, path), key=keys[split]))
    for backend in cfg.backends:
        runs = {}  # the predict stage of each scheme
        # Imported runs are keyed by their sources' bytes, not by their paths.
        options = {field: setting for field, setting in backend.options.items()
                   if field != "runs"}
        for scheme in cfg.schemes:
            condition = f"{scheme.tag}+{backend.tag}"
            train, test = (variants[(scheme.tag, split)] for split in splits)
            stems = [f"{condition}.run{seed}" for seed in cfg.seeds]
            paths = [out_dir / "predictions" / f"{stem}.jsonl" for stem in stems]
            sources = backend.options["runs"][scheme.tag] \
                if backend.kind == "import" else []
            data = [Path(source).read_bytes() for source in sources]
            name = runs[scheme.tag] = f"predict:{condition}"
            stages.append(Stage(
                name, tuple(paths),
                partial(predict, paths, backend, condition, train, test, sources, data),
                partial(read_runs, paths, condition, test),
                key=stage_key([keys[cfg.eval_split], backend.kind, options, cfg.seeds,
                               *data]),
                check=partial(read_sources, sources, data) if sources else None,
                checkpoint=backend.kind == "endpoint"))
            reports = {suffix: [out_dir / "reports" / f"{stem}.report.{suffix}"
                                for stem in stems] for suffix in ("json", "tsv")}
            conditions[condition] = f"score:{condition}"
            stages.append(Stage(
                conditions[condition], (*reports["json"], *reports["tsv"]),
                partial(score, stems, name, test), partial(read_scores, reports["json"]),
                inputs=(name,)))
        for scheme in [s for s in cfg.schemes
                       if "default" in runs and s.kind != "default"]:
            analysis_dir = out_dir / "analysis" / \
                f"{backend.tag}.default-vs-{scheme.tag}"
            stages.append(Stage(
                f"analysis:{backend.tag}:default-vs-{scheme.tag}",
                (analysis_dir / "margins.tsv", analysis_dir / "connectives.tsv"),
                partial(analyze, analysis_dir, runs["default"], runs[scheme.tag]),
                lambda: None,  # nothing reads an analysis back
                inputs=(runs["default"], runs[scheme.tag]), key=lexicon_key,
                check=lexicon))
            comparisons.append((f"{scheme.tag}+{backend.tag}",
                                f"default+{backend.tag}"))
    summary = [out_dir / "results_table.txt"]
    if comparisons:
        summary.append(out_dir / "significance.tsv")
    stages.append(Stage(
        "summary", tuple(summary), partial(summarize, conditions, comparisons),
        inputs=tuple(conditions.values()),
        # Names the table's dagger rule, so a table marked by another is redone.
        key=stage_key([cfg.alpha, cfg.bonferroni_m, list(conditions), comparisons,
                       "dagger: significant improvement"])))
    return stages


def cmd_experiment(args) -> int:
    cfg = load_experiment_config(args.config)
    with one_run(cfg.out_dir):
        return _experiment(cfg)


def _experiment(cfg: ExperimentConfig) -> int:
    # A split is parsed only when a variants stage builds from it, or to make
    # an ingest summary the manifest lacks for these documents, and kept,
    # with its trees' instances, until its last variants stage has built.
    parsed: dict[str, Corpus] = {}

    def corpus(split: str, last: bool = False) -> Corpus:
        if split not in parsed:
            from .treebank import load_corpus
            parsed[split] = load_corpus(cfg.corpus_dir, split, cfg.corpus_name)
        return parsed.pop(split) if last else parsed[split]

    keys = cfg.variant_keys()
    manifest = RunManifest.load_or_create(cfg.out_dir / "manifest.json", __version__)
    if (manifest.ingest or {}).get("key") != keys[cfg.eval_split]:
        from .context import corpus_label_inventory
        from .treebank import count_instances
        manifest.ingest = {
            "key": keys[cfg.eval_split],
            "train_instances": count_instances(corpus(cfg.train_split)),
            "eval_instances": count_instances(corpus(cfg.eval_split)),
            "label_inventory": corpus_label_inventory(corpus(cfg.train_split))}
    print(f"ingested {cfg.corpus_name}: "
          f"{cfg.train_split} {manifest.ingest['train_instances']} instances, "
          f"{cfg.eval_split} {manifest.ingest['eval_instances']} instances")

    stages = experiment_stages(cfg, keys, manifest.ingest["label_inventory"], corpus,
                               manifest.value)
    try:
        manifest.walk(stages)
    finally:  # a run cut short prints the conditions it scored
        if "summary" not in manifest.stages:
            from .evaluation import aggregate_runs, mean_line
            for name in manifest.stages:
                if name.startswith("score:"):
                    print(mean_line(aggregate_runs(manifest.value(name))))
    sweep(cfg.out_dir, stages)  # the outputs of conditions the config dropped
    print(manifest.value("summary"))
    return EXIT_OK


#: The subcommands, in the order ``drckit -h`` lists them.
COMMANDS = ("ingest", "validate", "stats", "variants", "infer", "evaluate", "compare",
            "analyze", "experiment")


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of ``drckit``.  Only the named subcommand's subparser is
    built when the first token of ``argv`` other than ``-v``, ``--verbose``
    and ``--version`` names one; else all are, for help and for the errors
    that name the subcommand argument."""
    named = next((token for token in argv
                  if token not in ("-v", "--verbose", "--version")), None)
    built = (named,) if named in COMMANDS else COMMANDS
    parser = argparse.ArgumentParser(
        prog="drckit",
        description="Context-aware discourse relation classification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    # With one subparser built, the metavar keeps the usage line listing all.
    metavar = None if built == COMMANDS else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str, help: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, help=help) if name in built else None

    if p := add("ingest", "scan, validate and persist a corpus"):
        p.add_argument("corpus_dir")
        p.add_argument("--name")
        p.add_argument("--splits", nargs="*")
        p.add_argument("--out", help="directory for the normalized corpus store")
        p.add_argument("--lenient", action="store_true",
                       help="exit 0 even when documents fail validation")

    if p := add("validate", "report violations without persisting"):
        p.add_argument("corpus_dir")
        p.add_argument("--name")
        p.add_argument("--splits", nargs="*")

    if p := add("stats", "head/dependent distance statistics"):
        p.add_argument("corpus_dir")
        p.add_argument("--name")
        p.add_argument("--splits", nargs="*")
        p.add_argument("--histogram", action="store_true")

    if p := add("variants", "render a dataset variant file"):
        p.add_argument("corpus_dir")
        p.add_argument("--name")
        p.add_argument("--scheme", required=True, help="default, AD<n> or OR<n>")
        p.add_argument("--split", required=True)
        p.add_argument("--include-relations", action="store_true",
                       help="prefix oracle fragments with their relation label")
        p.add_argument("--out", required=True)

    if p := add("infer", "produce prediction files for a dataset"):
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

    if p := add("evaluate", "score prediction files"):
        p.add_argument("--dataset", required=True)
        p.add_argument("--predictions", nargs="+", required=True)
        p.add_argument("--out", required=True)

    if p := add("compare", "signed-rank test between two conditions"):
        p.add_argument("--reports-a", nargs="+", required=True)
        p.add_argument("--reports-b", nargs="+", required=True)
        p.add_argument("--m", type=int, required=True,
                       help="size of the comparison family for Bonferroni")
        p.add_argument("--alpha", type=float, default=0.05)

    if p := add("analyze", "paired win/loss/tie error analysis"):
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

    if p := add("experiment", "run the configured pipeline end to end"):
        p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    fields.cli_log_level = fields.DEBUG if args.verbose else fields.WARNING
    try:
        if args.command == "experiment":
            return cmd_experiment(args)
        from . import commands
        return getattr(commands, f"cmd_{args.command}")(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        if exc.__cause__ is not None:  # an abort names the failure behind it
            print(f"caused by: {exc.__cause__}", file=sys.stderr)
        return EXIT_ENDPOINT
    except (TreebankError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CorpusError):  # name the documents
            for violation in exc.violations[:5]:
                print(violation.report_line(), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
