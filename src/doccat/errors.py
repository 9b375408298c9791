"""Exception types shared across the toolkit, and the one rule for quoting a
rejected value in their messages (`quoted`)."""

from __future__ import annotations

# The most characters of a rejected value that a message quotes.
QUOTED_CHARS = 80


def quoted(value: object) -> str:
    """repr(value), cut to its first QUOTED_CHARS characters and "...", so a
    long value read from a file cannot make a message as long as itself."""
    text = repr(value)
    return text if len(text) <= QUOTED_CHARS else text[:QUOTED_CHARS] + "..."


class DoccatError(Exception):
    """Base class for all toolkit errors."""


class MalformedLineError(DoccatError):
    """A line of an input file could not be parsed: a JSONL line into a
    labeled document, or a suffix-table or config line into its rule or
    value."""

    def __init__(self, path: str, line_no: int, reason: str) -> None:
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}: malformed line {line_no}: {reason}")


class EmptyCorpusError(DoccatError):
    """A corpus source contained no documents."""


class DuplicateIdError(DoccatError):
    """Two documents in one corpus share an id."""

    def __init__(self, doc_id: str) -> None:
        self.doc_id = doc_id
        super().__init__(f"duplicate document id: {quoted(doc_id)}")


class UnreadableFileError(DoccatError):
    """An input file could not be read or decoded as UTF-8, or a document
    file (`corpus.read_document`) held no valid document."""

    def __init__(self, path: str, reason: str) -> None:
        self.path = str(path)
        self.reason = reason
        super().__init__(f"unreadable file {path}: {reason}")


class EmptyVocabularyError(DoccatError):
    """No term survived vocabulary construction or feature selection."""


class SingleClassError(DoccatError):
    """Training data contains fewer than two distinct labels."""


class NegativeFeatureError(DoccatError):
    """A feature weight was negative where non-negative input is required."""


class LengthMismatchError(DoccatError):
    """Two parallel sequences differ in length."""


class UnknownLabelError(DoccatError):
    """A label fell outside the expected label set."""

    def __init__(self, label: str) -> None:
        self.label = label
        super().__init__(f"unknown label: {quoted(label)}")


class ModelFormatError(DoccatError):
    """A model file is missing, corrupt, or has an unsupported schema."""


class PreprocessMismatchError(DoccatError):
    """The active preprocessing config does not match the one a model was trained with."""


class ConvergenceWarning(UserWarning):
    """An iterative trainer stopped before reaching its tolerance."""
