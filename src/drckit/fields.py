"""The one JSON reader: every JSON input is decoded by ``decode`` and checked
by ``check_fields`` against a table of ``JsonField``s, into a ValueError that
its caller words as a data, configuration or endpoint error; ``Checked``,
the base of a record that checks its fields; ``write_atomic``, the one file
writer; and ``log``, through which every module logs.  It imports
nothing from drckit, so every module can use it.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple


def decode(data: bytes | str) -> Any:
    """The JSON value ``data`` holds; a ValueError if it is not UTF-8, is not
    JSON, or is nested too deeply to decode."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except RecursionError as exc:
        raise ValueError(str(exc)) from exc


class JsonField(NamedTuple):
    """A record field: its exact JSON types, named for errors; whether a
    record must hold it; and a parse of its value, which may raise ValueError."""

    types: tuple[type, ...]
    what: str
    required: bool = True
    parse: Callable[[Any], Any] | None = None


class Checked:
    """Put before the NamedTuple base of a record whose ``__new__`` checks or
    normalizes its fields, so that ``_make``, and with it ``_replace``, builds
    through that ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# Exact types: JSON true/false load as bool, a subclass of int.
STRING = JsonField((str,), "a string")
INTEGER = JsonField((int,), "an integer")
NUMBER = JsonField((int, float), "a number")


def check_fields(record: Any, fields: Mapping[str, JsonField],
                 closed: bool = False) -> dict:
    """``record`` with its ``fields`` parsed; a ValueError names the first
    field it lacks, holds with another JSON type or fails to parse, or, if
    ``closed``, the first field it holds that ``fields`` does not list."""
    if type(record) is not dict:
        raise ValueError(f"{type(record).__name__} is not a JSON object")
    for name, field in fields.items():
        if name not in record:
            if field.required:
                raise ValueError(f"missing field {name!r}")
        elif type(record[name]) not in field.types:
            raise ValueError(f"{name} {record[name]!r} is not {field.what}")
        elif field.parse is not None:
            try:
                record[name] = field.parse(record[name])
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
    if closed and record.keys() - fields.keys():
        raise ValueError(f"unknown field {min(record.keys() - fields.keys())!r}")
    return record


def rule(field: JsonField, what: str, ok: Callable[[Any], bool]) -> JsonField:
    """``field``, whose value (once parsed, if ``field`` parses) must also
    pass ``ok``; ``what`` says what the value must be."""
    def parse(value):
        parsed = field.parse(value) if field.parse else value
        if not ok(parsed):
            raise ValueError(f"{value!r} is not {what}")
        return parsed
    return field._replace(what=what, parse=parse)


def map_of(item: JsonField, what: str) -> JsonField:
    """A JSON object whose every value is an ``item``."""
    return JsonField((dict,), what, parse=lambda value: check_fields(
        value, dict.fromkeys(value, item)))


def list_of(item: JsonField, what: str = "a list") -> JsonField:
    """A JSON list of ``item``s, as a tuple; an error names an element ``[i]``."""
    def parse(values):
        parsed = []
        for i, value in enumerate(values):
            if type(value) not in item.types:
                raise ValueError(f"[{i}] {value!r} is not {item.what}")
            try:
                parsed.append(item.parse(value) if item.parse else value)
            except ValueError as exc:
                raise ValueError(f"[{i}]: {exc}") from exc
        return tuple(parsed)
    return JsonField((list,), what, parse=parse)


def read_records(path: Path, fields: Mapping[str, JsonField],
                 data: bytes | None = None) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of the JSONL file at
    ``path`` (or of its bytes ``data``), checked against ``fields``; any other
    line, or one that is not UTF-8, raises
    ``ValueError("<path>:<line>: malformed record: ...")``."""
    if data is None:
        data = path.read_bytes()
    # Only "\n" ends a record: JSON strings keep U+2028 and U+0085 unescaped,
    # and str.splitlines() would split at them.
    for lineno, line in enumerate(data.split(b"\n"), 1):
        try:
            line = line.decode("utf-8")
            if not line.strip():
                continue
            record = check_fields(decode(line), fields)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
        yield lineno, record


# logging's levels, named here so that naming one does not import it.
DEBUG, INFO, WARNING = 10, 20, 30
#: The level of the stderr handler a CLI call asks for; the first record
#: installs it with ``logging.basicConfig``.  Logging is configured per
#: process, so this is process state too.
cli_log_level: int | None = None


def log(name: str, level: int, msg: str, *args: Any) -> None:
    """Record ``msg % args`` at ``level`` on the logger ``name``.  ``logging``
    is imported here, so a call that records nothing never loads it."""
    global cli_log_level
    import logging
    if cli_log_level is not None:
        logging.basicConfig(level=cli_log_level)
        cli_log_level = None
    logging.getLogger(name).log(level, msg, *args, stacklevel=2)


def write_atomic(path: Path | str, data: str | bytes, fsync: bool = False) -> None:
    """Write ``data`` (text as UTF-8) to ``<path>.tmp``, making its directory,
    and rename it over ``path``: a killed process leaves the old file or none,
    never a torn one, and at most a ``.tmp`` that the next change replaces.
    ``fsync`` flushes the data to disk first, so a power loss cannot tear it.
    A file that already holds ``data`` is not written, so it keeps its mtime:
    its size is compared first, and its bytes only when the sizes match."""
    path = Path(path)
    data = data.encode("utf-8") if isinstance(data, str) else data
    with suppress(OSError):  # no such file, or none that reads: write it
        if path.stat().st_size == len(data) and path.read_bytes() == data:
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as sink:
        sink.write(data)
        if fsync:
            sink.flush()
            os.fsync(sink.fileno())
    os.replace(tmp, path)
