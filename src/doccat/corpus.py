"""Labeled document corpora: loading and validation.

Two on-disk formats are supported:

* JSONL (the canonical interchange format): one JSON object per line
  (`fileio.read_lines`) with required string fields ``text`` and ``label``
  and an optional ``id``. Blank lines are ignored.
* Directory-per-category: ``<root>/<label>/<file>.txt`` where each ``.txt``
  file is one document, decoded by `fileio.read_text` as a JSONL file is.

Corpora are immutable after construction and safe to share across threads.
Document order is load order for JSONL and ``(label, filename)``
lexicographic for directories, so downstream training is deterministic.
Invalid UTF-8 is a load error, never silently replaced: corrupted Bengali
text must fail loudly (`fileio.read_lines`, `fileio.read_text`).
`LabeledDocument` checks each document, and the two loaders, `load_jsonl`
and `load_dir`, name the line or file of one that fails.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DuplicateIdError,
    EmptyCorpusError,
    MalformedLineError,
    UnreadableFileError,
    quoted,
)
from .fileio import LINE_BOUNDARY_RE, STRICT_JSON, read_lines, read_text


def check_field(value: object, name: str) -> None:
    """Raise ValueError unless `value` is a non-empty string without a tab
    or a line boundary (`fileio.LINE_BOUNDARY_RE`). Ids and labels are
    fields of tab-separated output lines (`predict`), so they must not break
    one. The message quotes `value` by `errors.quoted`."""
    # A printable string holds neither a tab nor a line boundary, so most
    # ids and labels skip the search.
    if type(value) is str and value and value.isprintable():
        return
    if (
        not isinstance(value, str)
        or not value
        or "\t" in value
        or LINE_BOUNDARY_RE.search(value)
    ):
        raise ValueError(
            f"{name} must be non-empty without tabs or line breaks, got {quoted(value)}"
        )


@dataclass(frozen=True)
class LabeledDocument:
    """One raw document with its category label: non-blank string text, and
    an id and a label that pass `check_field`; else ValueError."""

    id: str
    text: str
    label: str

    def __post_init__(self) -> None:
        check_field(self.id, "document id")
        if not isinstance(self.text, str) or not self.text or self.text.isspace():
            raise ValueError(f"document {quoted(self.id)}: text must be a non-empty string")
        try:
            check_field(self.label, "label")
        except ValueError as exc:
            raise ValueError(f"document {quoted(self.id)}: {exc}") from None


@dataclass(frozen=True)
class LabeledCorpus:
    """An ordered collection of labeled documents with pairwise distinct ids."""

    documents: tuple[LabeledDocument, ...]
    labels: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise DuplicateIdError(doc.id)
            seen.add(doc.id)
        object.__setattr__(
            self, "labels", tuple(sorted({doc.label for doc in self.documents}))
        )

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


def load_jsonl(path: str | Path, label: str | None = None) -> LabeledCorpus:
    """Load a labeled corpus from a JSONL file in line order; blank lines are skipped.

    Each line (`fileio.read_lines`, so other line boundaries, which JSON
    strings may hold, stay in their line) is a strict JSON object
    (`fileio.STRICT_JSON`) with a ``text``, an optional ``id`` (synthesized
    as ``<filename>:<line-number>`` when missing) and a ``label``, which
    `LabeledDocument` checks. A `label` argument is given to every
    document instead, and the lines' ``label`` fields are not read.

    Raises:
        MalformedLineError: a non-blank line is not such an object, or the
            document is invalid.
        UnreadableFileError: the file cannot be read or is not valid UTF-8.
        EmptyCorpusError: the file holds no documents.
        DuplicateIdError: two lines carry the same id; the message starts
            with `<path>: `.
    """
    name = Path(path).name
    documents: list[LabeledDocument] = []
    required = ("text",) if label is not None else ("text", "label")
    for line_no, line in read_lines(path):
        if not line or line.isspace():
            continue
        try:
            obj = STRICT_JSON.decode(line)
        except ValueError as exc:
            reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise MalformedLineError(str(path), line_no, f"invalid JSON: {reason}") from exc
        except RecursionError:
            raise MalformedLineError(str(path), line_no, "invalid JSON: nested too deep") from None
        if not isinstance(obj, dict):
            raise MalformedLineError(str(path), line_no, "line is not a JSON object")
        for key in required:
            if key not in obj:
                raise MalformedLineError(str(path), line_no, f"missing field {key!r}")
        doc_id = obj.get("id")
        try:
            documents.append(LabeledDocument(
                id=f"{name}:{line_no}" if doc_id is None else doc_id,
                text=obj["text"], label=obj["label"] if label is None else label,
            ))
        except ValueError as exc:
            raise MalformedLineError(str(path), line_no, str(exc)) from exc
    if not documents:
        raise EmptyCorpusError(f"no documents in {str(path)!r}")
    try:
        return LabeledCorpus(documents=tuple(documents))
    except DuplicateIdError as exc:
        raise DuplicateIdError(exc.doc_id, str(path)) from None


def read_document(path: str | Path, doc_id: str, label: str) -> LabeledDocument:
    """The document whose text is all of the file at `path` (`read_text`).
    UnreadableFileError names the path when it or `LabeledDocument` fails."""
    try:
        return LabeledDocument(id=doc_id, text=read_text(path), label=label)
    except ValueError as exc:
        raise UnreadableFileError(str(path), str(exc)) from exc


def load_dir(path: str | Path) -> LabeledCorpus:
    """Load a directory-per-category corpus.

    The label is the subdirectory name and the id is ``<label>/<filename>``.
    Documents are ordered by ``(label, filename)`` lexicographically.

    Raises:
        OSError: `os.listdir(path)` fails: `[Errno 2]` for a missing or
            empty path, `[Errno 20]` for a file.
        UnreadableFileError: a ``.txt`` file cannot be read, is not UTF-8,
            or holds no text.
        EmptyCorpusError: no documents were found.
    """
    root = Path(path)
    documents = [
        read_document(txt, f"{label}/{txt.name}", label)
        for label in sorted(os.listdir(path)) if (root / label).is_dir()
        for txt in sorted((root / label).glob("*.txt"))
    ]
    if not documents:
        raise EmptyCorpusError(f"no documents under {str(path)!r}")
    return LabeledCorpus(documents=tuple(documents))
