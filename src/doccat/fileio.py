"""File reading and atomic file writing helpers.

Input files (model files aside) are read as UTF-8 text less a leading
byte-order mark, and one that cannot be read or decoded fails with its
path; in a line-oriented one, `#` starts a comment.
Output files are written to a temporary sibling and renamed into place so
a crash mid-write never leaves a torn model or report file.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import UnreadableFileError


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at `path`, less a leading byte-order mark
    (RFC 8259 8.1), dropped after decoding so error offsets are file offsets.

    Raises:
        UnreadableFileError: the file cannot be read or is not valid UTF-8.
    """
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise UnreadableFileError(str(path), str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise UnreadableFileError(str(path), f"invalid UTF-8: {exc}") from exc


def read_entries(path: str | Path) -> list[tuple[int, str]]:
    """The (line number, entry) pairs of a line-oriented file: each line up
    to its `#` comment, stripped; empty entries are dropped."""
    lines = enumerate(read_text(path).splitlines(), 1)
    return [(n, entry) for n, line in lines if (entry := line.split("#", 1)[0].strip())]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` (UTF-8) to `path` via a temp file + rename.

    The file gets the mode a plain open() would give it, 0o666 less the
    umask: the temp file is created with that mode, and the kernel applies
    the umask (tempfile.mkstemp would create it 0o600). A failed create or
    rename raises an OSError naming `path`, not the temp file.
    """
    target = Path(path)
    while True:
        tmp_name = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        try:
            os.replace(tmp_name, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
