"""Labeled document corpora: loading and validation.

Two on-disk formats are supported:

* JSONL (the canonical interchange format): one JSON object per line with
  required string fields ``text`` and ``label`` and an optional ``id``.
  Blank lines are ignored.
* Directory-per-category: ``<root>/<label>/<file>.txt`` where each ``.txt``
  file is one UTF-8 document.

Corpora are immutable after construction and safe to share across threads.
Document order is load order for JSONL and ``(label, filename)``
lexicographic for directories, so downstream training is deterministic.
Invalid UTF-8 is a load error, never silently replaced: corrupted Bengali
text must fail loudly (`fileio.read_text`). `LabeledDocument` checks each
document, and the readers name the line or file of one that fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DuplicateIdError,
    EmptyCorpusError,
    MalformedLineError,
    UnreadableFileError,
    quoted,
)
from .fileio import read_text


def check_field(value: object, name: str) -> None:
    """Raise ValueError unless `value` is a non-empty string without a tab,
    CR or LF. Ids and labels are fields of tab-separated output lines
    (`predict`), so they must not break one. The message quotes `value` by
    `errors.quoted`."""
    if (
        not isinstance(value, str)
        or not value
        or "\t" in value
        or "\r" in value
        or "\n" in value
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
        if not isinstance(self.text, str) or not self.text.strip():
            raise ValueError(f"document {quoted(self.id)}: text must be a non-empty string")
        check_field(self.label, f"document {quoted(self.id)}: label")


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


def read_jsonl_documents(path: str | Path, label: str | None = None) -> list[LabeledDocument]:
    """The documents of a JSONL file in line order; blank lines are skipped.

    Each line is a JSON object with a ``text``, an optional ``id``
    (synthesized as ``<filename>:<line-number>`` when missing) and a
    ``label``, which `LabeledDocument` checks. A `label` argument is given
    to every document instead, and the lines' ``label`` fields are not read.

    Raises:
        MalformedLineError: a non-blank line is not such an object, or the
            document is invalid.
        UnreadableFileError: the file cannot be read or is not valid UTF-8.
        EmptyCorpusError: the file holds no documents.
    """
    path = Path(path)
    raw = read_text(path)

    documents: list[LabeledDocument] = []
    required = ("text",) if label is not None else ("text", "label")
    # split on \n only: JSON strings may legally contain other Unicode line
    # boundaries (NEL, U+2028) that splitlines() would treat as line breaks
    for line_no, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLineError(str(path), line_no, f"invalid JSON: {exc.msg}") from exc
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
                id=f"{path.name}:{line_no}" if doc_id is None else doc_id,
                text=obj["text"], label=obj["label"] if label is None else label,
            ))
        except ValueError as exc:
            raise MalformedLineError(str(path), line_no, str(exc)) from exc
    if not documents:
        raise EmptyCorpusError(f"no documents in {path}")
    return documents


def load_jsonl(path: str | Path) -> LabeledCorpus:
    """Load a labeled corpus from a JSONL file (see `read_jsonl_documents`),
    preserving line order.

    Raises:
        MalformedLineError, UnreadableFileError, EmptyCorpusError: as
            `read_jsonl_documents`.
        DuplicateIdError: two lines carry the same id.
    """
    return LabeledCorpus(documents=tuple(read_jsonl_documents(path)))


def read_document(path: Path, doc_id: str, label: str) -> LabeledDocument:
    """The document in the text file at `path`. UnreadableFileError names
    the path when `read_text` fails or `LabeledDocument` rejects the document."""
    try:
        return LabeledDocument(id=doc_id, text=read_text(path), label=label)
    except ValueError as exc:
        raise UnreadableFileError(str(path), str(exc)) from exc


def load_dir(path: str | Path) -> LabeledCorpus:
    """Load a directory-per-category corpus.

    The label is the subdirectory name and the id is ``<label>/<filename>``.
    Documents are ordered by ``(label, filename)`` lexicographically.

    Raises:
        NotADirectoryError: `path` is not a directory.
        UnreadableFileError: a ``.txt`` file cannot be read, is not UTF-8,
            or holds no text.
        EmptyCorpusError: no documents were found.
    """
    root = Path(path)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")

    documents = [
        read_document(txt, f"{category_dir.name}/{txt.name}", category_dir.name)
        for category_dir in sorted(p for p in root.iterdir() if p.is_dir())
        for txt in sorted(category_dir.glob("*.txt"))
    ]
    if not documents:
        raise EmptyCorpusError(f"no documents under {root}")
    return LabeledCorpus(documents=tuple(documents))
