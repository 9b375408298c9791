"""Atomic file writing helpers.

Output files are written to a temporary sibling and renamed into place so a
crash mid-write never leaves a torn model or report file.
"""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` (UTF-8) to `path` via a temp file + rename.

    The file gets the mode a plain open() would give it, 0o666 less the
    umask: the temp file is created with that mode, and the kernel applies
    the umask (tempfile.mkstemp would create it 0o600).
    """
    target = Path(path)
    while True:
        tmp_name = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
