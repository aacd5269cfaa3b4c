"""File helpers that every artifact reader and writer shares.

`read_text`/`read_lines` report bad input as ValidationError naming the path
(and line) and let a missing file raise OSError; `file_sha256` hashes inputs
for provenance; `atomic_open` writes a file all at once.  The run
configuration itself (`RunConfig` and its key table) lives in cli.py.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import IO, Iterator

from .errors import ValidationError


def read_text(path) -> str:
    """The whole file decoded as UTF-8.

    Bad bytes raise ValidationError naming the path and the line of the first
    one; a missing or unreadable file raises OSError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} on line {line_no})"
        ) from None


def read_lines(path) -> list[tuple[int, str]]:
    r"""(line number, line) for each non-empty line of a UTF-8 text file.

    Lines end at "\n" only and lose one trailing "\r", so LF and CRLF files
    read alike; blank lines are skipped but still counted.  (str.splitlines
    would also split at form feeds, "\x85", "\u2028" and other characters a
    field may hold.)
    """
    rows = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if line:
            rows.append((line_no, line))
    return rows


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path, mode: str = "w") -> Iterator[IO]:
    """Write `path` all at once: a killed or failing writer leaves it as it was.

    Yields a file opened on a fresh temporary name in the same directory
    (UTF-8 with "\\n" newlines for mode "w", bytes for "wb").  A clean exit
    renames it over `path`; an exception removes it.  There is no fsync: this
    guards against a killed process, not against power loss.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open mode must be 'w' or 'wb', got {mode!r}")
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    text = {} if mode == "wb" else {"encoding": "utf-8", "newline": "\n"}
    fh = open(tmp, mode.replace("w", "x"), **text)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
