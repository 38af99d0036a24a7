"""Line reading shared by every text input file.

Every input is UTF-8 text. Blank lines and lines whose first non-blank
character is `#` are comments; a file that cannot be opened is a LoadError
naming its path, and a bad data line, or a line that is not valid UTF-8, is
a LoadError naming `path:line`.
"""

from __future__ import annotations

from typing import Iterator

from .errors import LoadError


def data_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line without its newline) for each data line."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise LoadError(path, f"cannot open: {exc.strerror}") from exc
    with fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if line.strip() and not line.lstrip().startswith("#"):
                    yield lineno, line
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
