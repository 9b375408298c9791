"""File reading and atomic file writing helpers.

`read_text` is the one decoder of input files, model files included:
strict UTF-8 less a leading byte-order mark, no line end translated; a
file that cannot be read or decoded fails with its path. `read_lines` is
the one line rule (JSONL, stopword and suffix files): a line ends
at `\\n` only, less one trailing `\\r`; in an entry file (`read_entries`),
`#` starts a comment and a line may hold no other line boundary.
`STRICT_JSON` is the one JSON rule of JSONL lines and model files (RFC
8259): its decode() raises ValueError on NaN, infinities and repeated keys.
Output files are written to a temporary sibling and renamed into place so
a crash mid-write never leaves a torn model or report file; a bad output
path gets the OS's own error (`check_out_path`, `check_out_dir`).
"""

from __future__ import annotations

import errno
import json
import os
import re
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

from .errors import MalformedLineError, UnreadableFileError, quoted

# The characters at which str.splitlines ends a line. An entry file's line
# may hold none of them, so that no reader could split the file into other
# lines than `read_lines` does, and neither may an id or a label
# (`corpus.check_field`), so that no output line holds two.
LINE_BOUNDARY_RE = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _reject_constant(name: str) -> None:
    """json's parse_constant: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} is not a JSON value")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json's object_pairs_hook: the object, unless a key repeats in it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ValueError(f"key {quoted(repeated)} repeats within one object")
    return obj


STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant, object_pairs_hook=_unique_keys)


def read_text(path: str | Path) -> str:
    """The text of the input file at `path`: strict UTF-8, less one leading
    byte-order mark (RFC 8259 8.1), dropped after decoding so error offsets
    are file offsets. No line end is translated: "\\r\\n" and "\\r" stay.

    Raises:
        UnreadableFileError: the file cannot be read or is not valid UTF-8.
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read().removeprefix("\ufeff")
    except OSError as exc:
        raise UnreadableFileError(str(path), str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise UnreadableFileError(str(path), f"invalid UTF-8: {exc}") from exc


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The (line number, line) pairs of the line-oriented file at `path`
    (`read_text`), numbered from 1, to be iterated once. Lines end at "\\n"
    only, and one "\\r" that ends a line is dropped, so a CRLF file reads as
    its LF copy; any other character, line boundaries included, stays in its
    line. A file that ends in "\\n" ends in one empty line."""
    return enumerate((line.removesuffix("\r") for line in read_text(path).split("\n")), 1)


def read_entries(path: str | Path) -> list[tuple[int, str]]:
    """The (line number, entry) pairs of a line-oriented file (`read_lines`):
    each line up to its `#` comment, stripped; empty entries are dropped.

    Raises:
        MalformedLineError: a line holds a line boundary
            (LINE_BOUNDARY_RE), such as U+2028 or a bare "\\r".
        UnreadableFileError: as `read_lines`.
    """
    entries = []
    for line_no, line in read_lines(path):
        if found := LINE_BOUNDARY_RE.search(line):
            reason = f"holds the line boundary {quoted(found[0])}; lines end at \\n only"
            raise MalformedLineError(str(path), line_no, reason)
        if entry := line.split("#", 1)[0].strip():
            entries.append((line_no, entry))
    return entries


def check_out_dir(path: str | Path) -> None:
    """Fail as creating the directory `path` with its parents would when
    `path` is empty (`[Errno 2] No such file or directory: ''`), is a file
    (`[Errno 17] File exists`) or lies under one (`[Errno 20] Not a
    directory`). `doccat benchmark` calls it before it reads anything and
    `evaluation.benchmark` before it preprocesses; each creates it later."""
    if not path:  # Path("") is the current directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    target = Path(path)
    existing = next(p for p in (target, *target.parents) if p.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == target else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(path))


def check_out_path(path: str | Path) -> None:
    """Fail as open(path, "w") would, with the OS's own error: `path` is
    created and removed at once. An existing file is left untouched, and an
    existing directory fails with `[Errno 21]`, as the rename into place
    would. The CLI calls it for each output file before it reads anything."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except FileExistsError:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path)) from None
        return
    os.close(fd)
    os.remove(path)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` (UTF-8) to `path` via a temp file + rename.

    The file gets the mode a plain open() would give it, 0o666 less the
    umask: the temp file is created with that mode, and the kernel applies
    the umask (tempfile.mkstemp would create it 0o600). A failed create or
    rename raises an OSError naming `path`, not the temp file. The path is
    judged as written: one whose last component is empty, `.` or `..`
    (`m/`, `m/.`, `..`) names no file, so it fails in `check_out_path` with
    what open() raises and nothing is written.
    """
    if os.path.basename(path) in ("", ".", ".."):
        check_out_path(path)
    while True:
        tmp_name = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
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
            os.replace(tmp_name, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
