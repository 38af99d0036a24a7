"""Line reading shared by every text input file.

Every input is UTF-8 text. Blank lines and lines whose first non-blank
character is `#` are comments; a file that cannot be opened is a LoadError
naming its path, and a bad data line, or a line that is not valid UTF-8, is
a LoadError naming `path:line`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, TypeVar

from .errors import ConfigError, LoadError

K = TypeVar("K")
V = TypeVar("V")


def data_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line without its newline) for each data line."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise LoadError(path, f"cannot open: {exc.strerror}") from exc
    with fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                head = raw.lstrip()
                if head and head[0] != "#":
                    yield lineno, raw.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise LoadError(path, f"not valid UTF-8 ({exc.reason})",
                            _first_undecodable_line(path)) from None


def _first_undecodable_line(path) -> int | None:
    """Number of the first line that is not valid UTF-8.

    The decoder reports an error inside a block of bytes, not a line, so the
    file is read again with each bad byte escaped to a lone surrogate, which
    no valid line holds and which does not encode back to UTF-8.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return None


def tsv_fields(path, lineno: int, line: str, n: int) -> list[str]:
    parts = line.split("\t")
    if len(parts) != n:
        raise LoadError(path, f"expected {n} tab-separated fields, got {len(parts)}", lineno)
    return parts


def json_table(path, what: str, key: str, parse: Callable[[Any], tuple[K, V]]) -> dict[K, V]:
    """The (key, value) pairs that `parse` makes of each data line's decoded
    JSON value, as a dict.

    A line that is not JSON, whose value `parse` rejects (KeyError,
    TypeError, ValueError, AttributeError or ConfigError), or whose key an
    earlier line gave, is a LoadError `bad {what} record: ...` naming
    `path:line`; `key` names the key in that message.
    """
    table: dict[K, V] = {}
    for lineno, line in data_lines(path):
        try:
            put_new(table, *parse(json.loads(line)), key)
        except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
            raise LoadError(path, f"bad {what} record: {exc}", lineno) from exc
    return table


def put_new(table: dict[K, V], key: K, value: V, what: str) -> None:
    """`table[key] = value`; a key already there is a ValueError naming it as `what`."""
    if key in table:
        raise ValueError(f"duplicate {what} {key!r}")
    table[key] = value


def json_list(value, kind: type) -> list:
    """`value` if it is a list of `kind` values, bools not counted as ints; else ValueError."""
    if type(value) is not list or any(type(x) is not kind for x in value):
        raise ValueError(f"expected a list of {kind.__name__}, got {value!r}")
    return value


def json_str(value) -> str:
    """`value` if it is a string; else ValueError. Ids and pool tags are JSON strings."""
    if type(value) is not str:
        raise ValueError(f"expected a string, got {value!r}")
    return value
