"""The on-disk record format: UTF-8 text, one compact JSON object per line.

Files the engine writes start with a header line `{"format", "version", ...,
"generated_at"}`, the only line that carries a timestamp. A single-object file
(a critic or a scripted generator) holds `format` and `version` in the object
itself. A malformed file raises the caller's error type with the text
`path:line: reason`, or `path: reason` for a single-object file or one that
cannot be opened. Every input file is opened by `open_input`, and every output
file is written by `write`, which replaces it atomically.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .errors import ContractViolationError, OutputError


_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def dumps(record) -> str:
    """Compact JSON with non-ASCII text kept as UTF-8."""
    return _ENCODER.encode(record)


def lines(records) -> str:
    """One compact JSON line per record, each ending in a newline."""
    return "".join(dumps(record) + "\n" for record in records)


def header(format: str, version: int = 1, **fields) -> str:
    """A record file's header line, stamped with the current UTC time."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return dumps({"format": format, "version": version, **fields, "generated_at": stamp}) + "\n"


def write(path, data: str | bytes | Iterable[bytes]) -> None:
    """Replace `path` with `data` (a str is encoded as UTF-8) atomically.

    `data` may also be an iterable of bytes-like chunks, written in turn.
    The parent directory is created, the bytes go to a temporary file beside
    `path`, and `os.replace` moves it over `path`. A failed or interrupted
    write leaves any previous file intact and removes the temporary file. It
    does not fsync, so it covers a failed process, not a machine crash. An
    OSError, or a path with no file name ("", ".", "/"), is raised as an
    OutputError whose message starts with `path`.
    """
    path = Path(path)
    if not path.name:
        raise OutputError(f"{path}: names no file")
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(temporary, "wb") as fh:
                data = data.encode("utf-8") if isinstance(data, str) else data
                fh.writelines([data] if isinstance(data, bytes) else data)
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
    except OSError as err:
        raise OutputError(f"{path}: {err}") from err


def read(path, parse, error, header: tuple[str, int] | None = None) -> list:
    """`parse` of each record of a line-delimited file; blank lines are skipped.

    With `header` = (format, version), line 1 must be that file's header line.
    A line that is not UTF-8 or not a JSON object, or that `parse` rejects
    with a KeyError, ValueError, TypeError or ContractViolationError, raises
    `error`. Lines are read as bytes and decoded one by one, so a bad byte is
    reported at its line.
    """
    parsed = []
    with open_input(path, error) as fh:
        for number, line in enumerate(fh, start=1):
            if number == 1 and header is not None:
                _decode(line, dict, error, f"{path}:1", header)
            elif line.strip():
                parsed.append(_decode(line, parse, error, f"{path}:{number}"))
    return parsed


def strings(value, what: str) -> list[str]:
    """`value` if it is a list of strings; a TypeError naming `what` otherwise."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"{what} must be a list of strings, got {value!r}")
    return value


def read_document(path, parse, error, header: tuple[str, int] | None = None):
    """`parse` of a single-object file; with `header`, its `format` and `version` must match."""
    with open_input(path, error) as fh:
        return _decode(fh.read(), parse, error, str(path), header)


def open_input(path, error):
    """`path` opened for reading bytes; an OSError is raised again as `error` naming it."""
    try:
        return open(path, "rb")
    except OSError as err:
        raise error(f"{path}: {err}") from err


def _decode(raw: bytes, parse, error, where: str, header: tuple[str, int] | None = None):
    try:
        data = json.loads(raw.decode("utf-8"))  # a UnicodeDecodeError is a ValueError
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got a {type(data).__name__}")
        if header is not None and (data.get("format"), data.get("version")) != header:
            raise ValueError(f"not a {header[0]} v{header[1]} file")
        return parse(data)
    except KeyError as err:
        raise error(f"{where}: missing key {err}") from err
    except (ValueError, TypeError, ContractViolationError) as err:
        raise error(f"{where}: {err}") from err
