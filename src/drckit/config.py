"""Experiment configuration file, the reuse manifest it drives and the lock
that guards a run directory's manifest and logs; drckit's errors and exit statuses.

The context scheme grammar and the listing of a split's documents live here
too: the config parses schemes, and the variants stages' keys read the documents.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple
from urllib.parse import urlsplit

from .fields import (INTEGER, NUMBER, STRING, WARNING, Checked, JsonField,
                     check_fields, decode, list_of, log, map_of, rule, write_atomic)

SCHEMA_VERSION = 1

BACKEND_KINDS = ("majority", "cue", "endpoint", "import")


class ConfigError(Exception):
    """The experiment configuration is unusable."""


class EndpointError(Exception):
    """Endpoint unusable after retries; partial results stay on disk."""


class TreebankError(Exception):
    """Base class for treebank ingestion failures."""


class CorpusError(TreebankError):
    """A corpus directory contains invalid documents (``treebank.Violation``s)."""

    def __init__(self, message: str, violations: Iterable):
        super().__init__(message)
        self.violations = list(violations)


EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_ENDPOINT = 3

# n is optional in scheme names and defaults to 1 ("OR" means "OR1").
_SCHEME_RE = re.compile(r"^(?:(default)|(?:ad|add)(\d*)|(?:or|oracle)(\d*))$",
                        re.IGNORECASE)


class _Scheme(NamedTuple):
    kind: str  # "default" | "add" | "oracle"
    n: int | None = None


class ContextScheme(Checked, _Scheme):
    """Which preceding text gets prepended before the first argument."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int | None = None):
        if kind not in ("default", "add", "oracle"):
            raise ValueError(f"unknown scheme kind {kind!r}")
        if kind == "default":
            if n is not None:
                raise ValueError("default scheme takes no n")
        elif n is None or n < 1:
            raise ValueError(f"{kind} scheme requires n >= 1")
        return super().__new__(cls, kind, n)

    @property
    def tag(self) -> str:
        if self.kind == "default":
            return "default"
        prefix = "AD" if self.kind == "add" else "OR"
        return f"{prefix}{self.n}"

    @classmethod
    def parse(cls, text: str) -> "ContextScheme":
        m = _SCHEME_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse context scheme {text!r} "
                             "(expected default, AD<n> or OR<n>)")
        if m.group(1):
            return cls("default")
        if m.group(2) is not None:
            return cls("add", int(m.group(2) or 1))
        return cls("oracle", int(m.group(3) or 1))


#: File suffixes scanned when loading a corpus split directory.
DOCUMENT_SUFFIXES = (".dep", ".json", ".txt")


def iter_document_files(split_dir: Path) -> Iterator[Path]:
    if not split_dir.is_dir():
        raise FileNotFoundError(f"split directory not found: {split_dir}")
    for path in sorted(split_dir.iterdir()):
        if path.is_file() and path.suffix in DOCUMENT_SUFFIXES:
            yield path


class BackendSpec(NamedTuple):
    kind: str
    tag: str
    options: dict


class ExperimentConfig(NamedTuple):
    corpus_name: str
    corpus_dir: Path
    schemes: tuple[ContextScheme, ...]
    backends: tuple[BackendSpec, ...]
    seeds: tuple[int, ...]
    out_dir: Path
    train_split: str = "train"
    eval_split: str = "test"
    bonferroni_m: int | None = None
    alpha: float = 0.05
    lexicon: Path | None = None

    def variant_keys(self) -> dict[str, str]:
        """The key of each split's variants stages.  A train variant reads its
        split's documents, by name and bytes; an eval variant, each predict
        stage and the ingest summary read both splits' (train gives the labels)."""
        train, test = (stage_key(part for path in iter_document_files(self.corpus_dir / s)
                                 for part in (path.name, path))
                       for s in (self.train_split, self.eval_split))
        return {self.train_split: train, self.eval_split: stage_key([train, test])}


def stage_key(parts: Iterable[Any]) -> str:
    """sha256 of ``parts``, each length-prefixed so no two lists of parts give
    one stream: bytes, a path's bytes (read as its turn comes), or else JSON."""
    import hashlib  # OpenSSL's _hashlib is imported by the calls that key stages
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            part = part.read_bytes()
        data = part if isinstance(part, bytes) else \
            json.dumps(part, sort_keys=True).encode("utf-8")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def check_config(record: Any, fields: dict[str, JsonField], where: str) -> dict:
    """``record`` checked against ``fields``, the only keys it may hold."""
    try:
        return check_fields(record, fields, closed=True)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _http_url(value: str) -> bool:
    url = urlsplit(value)  # a ValueError names a port that is no number in range
    # Requests go to <base_url>/chat/completions, which a query or fragment
    # would swallow, and credentials in the URL would never be sent.
    return url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0 \
        and "@" not in url.netloc and not {"?", "#"} & set(value)


OPTIONAL_STRING, OPTIONAL_NUMBER, OPTIONAL_INTEGER = (
    field._replace(required=False) for field in (STRING, NUMBER, INTEGER))
# A tag names output files and directories, so it holds no "/" or NUL and
# is not "." or "..".
TAG = rule(STRING, "a non-empty string with no / or NUL, and not . or ..",
           lambda tag: tag not in ("", ".", "..") and "/" not in tag
           and "\0" not in tag)

# Endpoint options, named as the ``infer`` flags; one left out keeps its default.
ENDPOINT_FIELDS = {
    "base_url": rule(STRING, "an http or https URL with a host and no user info, "
                     "query or fragment", _http_url),
    "model": OPTIONAL_STRING,
    "auth_env": OPTIONAL_STRING,
    "timeout": rule(OPTIONAL_NUMBER, "a number > 0", lambda v: 0 < v < math.inf),
    "backoff": rule(OPTIONAL_NUMBER, "a number >= 0", lambda v: 0 <= v < math.inf),
    "max_retries": rule(OPTIONAL_INTEGER, "an integer >= 0", lambda v: v >= 0),
    "parallelism": rule(OPTIONAL_INTEGER, "an integer >= 1", lambda v: v >= 1),
}

_KIND = rule(STRING, f"one of {', '.join(BACKEND_KINDS)}", BACKEND_KINDS.__contains__)
_BACKEND_FIELDS = {
    "majority": {"kind": _KIND, "tag": TAG},
    "cue": {"kind": _KIND, "tag": TAG},
    "endpoint": {"kind": _KIND, **ENDPOINT_FIELDS, "tag": TAG},
    "import": {"kind": _KIND, "tag": TAG, "runs": map_of(
        list_of(STRING, "a list of files"), "a map of scheme tag -> files")},
}

CORPUS_FIELDS = {"dir": STRING, "name": OPTIONAL_STRING}
CONFIG_FIELDS = {
    "schema_version": rule(INTEGER, str(SCHEMA_VERSION), SCHEMA_VERSION.__eq__),
    "corpus": JsonField((dict,), "an object", parse=lambda corpus: check_fields(
        corpus, CORPUS_FIELDS, closed=True)),
    "schemes": rule(
        list_of(STRING._replace(what="a scheme name", parse=ContextScheme.parse)),
        "a non-empty list of scheme names, no two naming one scheme",
        lambda schemes: schemes and len({s.tag for s in schemes}) == len(schemes)),
    # Each backend is checked on its own, by its kind.
    "backends": rule(list_of(JsonField((dict,), "an object")),
                     "a non-empty list of objects", bool),
    "seeds": rule(list_of(INTEGER), "a non-empty list of distinct integers",
                  lambda seeds: seeds and len(set(seeds)) == len(seeds)),
    "out_dir": STRING,
    "train_split": OPTIONAL_STRING,
    "eval_split": OPTIONAL_STRING,
    "lexicon": OPTIONAL_STRING,
    "alpha": rule(OPTIONAL_NUMBER, "a number > 0 and < 1", lambda v: 0 < v < 1),
    "bonferroni_m": rule(OPTIONAL_INTEGER, "an integer >= 1", lambda v: v >= 1),
}


def _backend(entry: dict, where: str, base: Path,
             schemes: tuple[ContextScheme, ...], n_seeds: int) -> BackendSpec:
    """The backend ``entry``, checked against the table of its kind."""
    kind = entry.get("kind")
    # An unknown kind fails the check of its table, which holds only kind.
    fields = _BACKEND_FIELDS[kind] if kind in BACKEND_KINDS else {"kind": _KIND}
    # An endpoint is tagged by its model unless the entry names a tag.
    default_tag = entry.get("model", kind) if kind == "endpoint" else kind
    options = check_config({"tag": default_tag, **entry}, fields, where)
    kind, tag = options.pop("kind"), options.pop("tag")
    if kind == "import":
        runs = options["runs"] = {scheme_tag: [str((base / f).resolve()) for f in files]
                                  for scheme_tag, files in options["runs"].items()}
        for ref in (ref for refs in runs.values() for ref in refs):
            if not Path(ref).is_file():
                raise ConfigError(f"{where} references missing prediction file {ref}")
        for scheme in schemes:
            n_files = len(runs.get(scheme.tag, ()))
            if n_files != n_seeds:
                raise ConfigError(
                    f"{where}: import backend {tag!r} needs one run of "
                    f"{scheme.tag} per seed ({n_seeds} files), not {n_files}")
    return BackendSpec(kind=kind, tag=tag, options=options)


#: The directories under ``out_dir`` that hold only what the stages write.
OUTPUT_DIRS = ("variants", "predictions", "reports", "analysis")


def load_experiment_config(path: Path | str) -> ExperimentConfig:
    """Load and check a declarative experiment configuration.

    The file is JSON with a mandatory ``schema_version`` field; each object
    may hold only the keys of its table, every path it reads must exist and
    lie outside ``OUTPUT_DIRS``, and no two conditions may share a name.
    """
    path = Path(path)
    try:
        payload = decode(path.read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    payload = check_config(payload, CONFIG_FIELDS, str(path))

    corpus_dir = (path.parent / payload["corpus"]["dir"]).resolve()
    if not corpus_dir.is_dir():
        raise ConfigError(f"{path}: corpus dir does not exist: {corpus_dir}")
    schemes, seeds = payload["schemes"], payload["seeds"]
    backends = tuple(_backend(entry, f"{path}: backends[{i}]", path.parent,
                              schemes, len(seeds))
                     for i, entry in enumerate(payload["backends"]))
    tags = [backend.tag for backend in backends]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"{path}: two backends share a tag, so two "
                          f"conditions would share a name: {tags}")

    lexicon = (path.parent / payload["lexicon"]).resolve() \
        if "lexicon" in payload else None
    if lexicon and not lexicon.is_file():
        raise ConfigError(f"{path}: lexicon file does not exist: {lexicon}")

    # Every other scheme is compared against default, per backend.
    comparisons = len(backends) * (len(schemes) - 1) \
        if any(s.kind == "default" for s in schemes) else 0
    if comparisons > payload.get("bonferroni_m", 0):
        raise ConfigError(f"{path}: the experiment makes {comparisons} "
                          f"comparisons, so bonferroni_m must be >= {comparisons}")

    # The corpus name, given or the directory's, names the variant files.
    corpus_name = payload["corpus"].get("name", corpus_dir.name)
    check_config({"name": corpus_name}, {"name": TAG}, f"{path}: corpus")

    cfg = ExperimentConfig(
        corpus_name=corpus_name, corpus_dir=corpus_dir, schemes=schemes,
        backends=backends, seeds=seeds,
        out_dir=(path.parent / payload["out_dir"]).resolve(), lexicon=lexicon,
        # A key left out keeps its ExperimentConfig default.
        **{key: payload[key] for key in ("train_split", "eval_split",
                                         "bonferroni_m", "alpha") if key in payload})
    splits = (cfg.train_split, cfg.eval_split)
    inputs = [lexicon, *((corpus_dir / split).resolve() for split in splits),
              *(Path(ref) for backend in backends if backend.kind == "import"
                for refs in backend.options["runs"].values() for ref in refs)]
    for source in filter(None, inputs):
        if any(source.is_relative_to(cfg.out_dir / name) for name in OUTPUT_DIRS):
            raise ConfigError(f"{path}: {source} lies inside an output directory of "
                              f"{cfg.out_dir}, which a completed run sweeps")
    return cfg


_MANIFEST_FIELDS = {"stages": map_of(JsonField(
    (dict,), "a stage record", parse=lambda entry: check_fields(
        entry, {"completed_at": OPTIONAL_STRING, "text": OPTIONAL_STRING})),
        "a map of stage records"),
    # What ingest found: the corpus's counts and its train label inventory,
    # as a tuple, under the key of the two splits' documents it was found in.
    "ingest": JsonField((dict,), "an ingest summary", False, lambda s: check_fields(s, {
        "key": OPTIONAL_STRING, "train_instances": INTEGER, "eval_instances": INTEGER,
        "label_inventory": list_of(STRING, "a list of labels")}))}


@contextmanager
def one_run(run_dir: Path) -> Iterator[None]:
    """Hold ``run_dir`` (made if missing) for the block, or raise a ValueError
    naming it if another run holds it: two would pay each endpoint request twice
    and race on the manifest.  A directory flock leaves no file, nor outlives a kill."""
    import fcntl  # only a run that writes its directory pays for it
    run_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(run_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ValueError(f"{run_dir} is in use by another drckit run") from None
        yield
    finally:
        os.close(fd)


class RunManifest:
    """A run dir's stage records and values, and the walk that makes them.

    ``previous`` holds the stages of the manifest loaded under this drckit
    version, each with the key it was recorded under, and ``stages`` those
    recorded in this run, the only ones ``save`` writes: a run cut short
    leaves no record of a stage it did not reach, whose outputs may have been
    made from inputs that have since been made again.  ``ingest`` holds the
    ingest summary loaded under this version, or set in this run."""

    def __init__(self, path: Path, tool_version: str):
        self.path = path
        self.tool_version = tool_version
        self.previous: dict[str, dict] = {}
        self.stages: dict[str, dict] = {}
        self.ingest: dict | None = None
        self._values: dict[str, Any] = {}
        self._loads: dict[str, Callable[[], Any]] = {}

    @classmethod
    def load_or_create(cls, path: Path | str, tool_version: str) -> "RunManifest":
        """The manifest at ``path``; one without stages when the file is missing,
        is not a manifest (a torn write) or is another drckit version's."""
        manifest = cls(Path(path), tool_version)
        try:
            payload = check_fields(decode(manifest.path.read_bytes()), _MANIFEST_FIELDS)
        except FileNotFoundError:
            return manifest
        except ValueError as exc:  # not JSON, or no manifest
            log(__name__, WARNING, "%s is not a run manifest, so every stage "
                "runs again: %s", manifest.path, exc)
            return manifest
        if payload.get("tool_version") == tool_version:
            manifest.previous, manifest.ingest = payload["stages"], payload.get("ingest")
        return manifest

    def save(self) -> None:
        """Write the stages recorded in this run, flushed to disk before the
        rename, so even a power loss leaves the old manifest or the new one."""
        payload = {"tool_version": self.tool_version, "stages": self.stages}
        if self.ingest is not None:
            payload["ingest"] = self.ingest
        write_atomic(self.path, json.dumps(payload, indent=2, sort_keys=True) + "\n",
                     fsync=True)

    def value(self, name: str) -> Any:
        """What stage ``name`` returned, or what it loads on first use."""
        if name not in self._values:
            self._values[name] = self._loads.pop(name)()
        return self._values[name]

    def walk(self, stages: list[Stage]) -> None:
        """Decide every stage, checking each stale one, then run each stale
        stage and load each reused one, in order, recording each.  A stage is
        reused when ``previous`` has it under the same key (and text, if it
        has no ``load``), its ``outputs`` exist and no stage in its ``inputs``
        is stale.  A failed check leaves the manifest file as it was; once
        stages run, the walk saves it when it ends, even cut short."""
        reused: dict[str, bool] = {}
        for stage in stages:
            entry = self.previous.get(stage.name, {})
            reused[stage.name] = bool(entry) and entry.get("key", "") == stage.key \
                and (stage.load is not None or "text" in entry) \
                and all(reused[name] for name in stage.inputs) \
                and all(p.exists() for p in stage.outputs)
            if stage.check and not reused[stage.name]:
                stage.check()
        try:
            for stage in stages:
                entry, hit = self.previous.get(stage.name, {}), reused[stage.name]
                if hit:  # a stage with no load is reused from its recorded text
                    self._loads[stage.name] = stage.load or partial(entry.get, "text")
                else:
                    self._values[stage.name] = stage.run()
                self.stages[stage.name] = {
                    # A reused stage keeps the time it was first completed.
                    "completed_at": hit and entry.get("completed_at")
                    or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "reused": hit, **({"key": stage.key} if stage.key else {}),
                    **({"text": self.value(stage.name)} if stage.load is None else {})}
                if stage.checkpoint and not hit:
                    self.save()
        finally:
            self.save()


class Stage(NamedTuple):
    """One step of an experiment: ``run()`` makes its ``outputs`` and returns
    its value, and ``load()`` reads that value back from them; with no
    ``load``, its value is text that its manifest record keeps.  ``inputs``
    names the earlier stages whose rerun can change its value, ``key``
    digests all else that can (see ``stage_key``), ``check`` reads what it
    takes from outside the run before any stage runs, and ``checkpoint`` saves
    the manifest once it has run, so a killed process keeps the work it paid for."""

    name: str
    outputs: tuple[Path, ...]
    run: Callable[[], Any]
    load: Callable[[], Any] | None = None
    inputs: tuple[str, ...] = ()
    key: str = ""
    check: Callable[[], Any] | None = None
    checkpoint: bool = False


def sweep(out_dir: Path, stages: Iterable[Stage]) -> None:
    """Unlink each file under the ``OUTPUT_DIRS`` of ``out_dir``, and each of
    its summary files and their ``.tmp``, that no stage in ``stages`` lists,
    then each directory this leaves empty.  Only a completed run sweeps: one
    cut short has not made all that its stages list."""
    keep = {str(path) for stage in stages for path in stage.outputs}
    for name in ("results_table.txt", "significance.tsv"):
        for path in (out_dir / name, out_dir / f"{name}.tmp"):
            if str(path) not in keep:
                path.unlink(missing_ok=True)
    for name in OUTPUT_DIRS:  # bottom-up, so a directory goes after its contents
        for directory, _, files in os.walk(out_dir / name, topdown=False):
            stray = {os.path.join(directory, f) for f in files} - keep
            for path in stray:
                os.unlink(path)
            if len(stray) == len(files) and not os.listdir(directory):
                os.rmdir(directory)
