"""Exception types shared across the toolkit."""

from __future__ import annotations


class DoccatError(Exception):
    """Base class for all toolkit errors."""


class MalformedLineError(DoccatError):
    """A JSONL line could not be parsed into a valid labeled document."""

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
        super().__init__(f"duplicate document id: {doc_id!r}")


class UnreadableFileError(DoccatError):
    """An input file could not be read or decoded as UTF-8, or a corpus file
    held no valid document."""

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
        super().__init__(f"unknown label: {label!r}")


class ModelFormatError(DoccatError):
    """A model file is missing, corrupt, or has an unsupported schema."""


class PreprocessMismatchError(DoccatError):
    """The active preprocessing config does not match the one a model was trained with."""


class ConvergenceWarning(UserWarning):
    """An iterative trainer stopped before reaching its tolerance."""
