"""Bengali text preprocessing: sentence split, tokenize, symbol strip, stem, stopwords.

The pipeline applied per document is

    strip symbols -> split into sentences -> split on whitespace
        -> per token: lowercase -> stem -> remove stopwords

Stripping STRIP_SYMBOLS and lowercasing are fixed steps; a configuration
chooses the stopwords, the suffix table and whether stemming and stopword
removal run. Sentences are kept as the grouping unit because the
chi-square feature scorer uses the sentence as its co-occurrence window.
Bengali script has no case, so lowercasing only changes embedded Latin (or
other cased) fragments.

The stemmer is a table-driven longest-suffix stripper: at most one suffix
is removed per token, and a rule fires only when stripping leaves at least
the rule's minimum stem length. The shipped table lists composed
plural+case chains as single rules so one pass removes the whole
inflection; with it, re-preprocessing preprocessed text is a no-op on
ordinary Bengali prose. A pathological token can still expose a second
suffix after one strip (no finite single-pass table can rule that out),
which is why the suffix table stays a replaceable data file rather than
hard-coded rules.

The strip pattern, one regular expression that matches any strip symbol
except the sentence delimiters, is compiled once per process. The whole
document is stripped once, then split into sentences and tokens, which
gives the same tokens as stripping each token of each sentence: strip
symbols are single non-whitespace characters, and the delimiters stay out
of the strip pattern (a delimiter still ends its sentence, and splitting
removes it anyway). Each distinct stripped token is then lowercased,
stemmed and stopword-filtered once, in a plain dict memo per configuration
that empties itself when it holds TOKEN_MEMO_SIZE (65,536) tokens; it is
not LRU. Lowercasing token by token gives what lowercasing the whole
document would: lowercasing creates no whitespace or delimiter, and
neither is cased nor case-ignorable, so the context that makes a Greek
sigma final never crosses a token's edge. The memo pays off because
tokens repeat: on a cold memo, 78-89% of the token occurrences in the
benchmark corpora are hits; text whose tokens never repeat runs about 1.5
times slower with it than without (README gives the figures). Results are pure functions of (input, config); the
compiled configurations and their token memos are shared, bounded and
thread-safe, so documents may still be preprocessed in parallel.
"""

from __future__ import annotations

import hashlib
import json
import re
import string
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain
from pathlib import Path

from .corpus import LabeledCorpus, LabeledDocument
from .errors import MalformedLineError, quoted
from .fileio import read_entries

SENTENCE_DELIMITERS = "।?!\n"
BENGALI_DIGITS = "০১২৩৪৫৬৭৮৯"

STRIP_SYMBOLS: frozenset[str] = frozenset(
    string.punctuation
    + string.digits
    + BENGALI_DIGITS
    + "।॥"
    + "“”‘’„‚«»"  # curly quotes, guillemets
    + "–—…"  # dashes, ellipsis
)

SENTENCE_SPLIT_RE = re.compile(f"[{re.escape(SENTENCE_DELIMITERS)}]")
# An alternation of single characters runs as one character class (much
# faster than str.translate on non-ASCII text).
STRIP_RE = re.compile(
    "|".join(map(re.escape, sorted(STRIP_SYMBOLS.difference(SENTENCE_DELIMITERS))))
)

# Distinct raw tokens each compiled configuration remembers; the memo
# empties itself when it is full, so a long prediction stream cannot grow
# memory without limit. Threads that miss at the same moment may each add
# one token past the bound before the next miss empties it.
TOKEN_MEMO_SIZE = 1 << 16


@dataclass(frozen=True)
class PreprocessConfig:
    """Immutable preprocessing configuration: the stopwords, the suffix
    table and whether stemming and stopword removal run.

    `suffix_table` is an ordered list of (suffix, min_stem_length) rules,
    sorted by descending suffix length so longest-match-first is well
    defined. `stopword_list` should contain the stemmed forms of inflected
    stopwords as well, since stopword removal runs after stemming. Any
    iterables are accepted and stored as a frozenset of stopwords and a
    tuple of (suffix, min_stem_length) pairs, so a configuration is always
    hashable.
    """

    stopword_list: frozenset[str]
    suffix_table: tuple[tuple[str, int], ...]
    enable_stemming: bool = True
    enable_stopwords: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "stopword_list", frozenset(self.stopword_list))
        object.__setattr__(self, "suffix_table", tuple(map(tuple, self.suffix_table)))
        validate_suffix_table(self.suffix_table)

    def digest(self) -> str:
        """Stable checksum of the full configuration, for model files."""
        payload = json.dumps(
            {
                "stopword_list": sorted(self.stopword_list),
                "suffix_table": [list(rule) for rule in self.suffix_table],
                # The fixed steps keep their keys: model files store this
                # digest, and a changed digest would reject every existing
                # model with a misleading mismatch message.
                "strip_symbols": sorted(STRIP_SYMBOLS),
                "enable_stemming": self.enable_stemming,
                "enable_stopwords": self.enable_stopwords,
                "lowercase_latin": True,
            },
            ensure_ascii=False,
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenizedDocument:
    """Sentence-grouped tokens produced by the preprocessing pipeline."""

    sentences: tuple[tuple[str, ...], ...]
    label: str | None = None
    doc_id: str | None = None

    @property
    def token_count(self) -> int:
        return sum(map(len, self.sentences))

    def tokens(self):
        """Iterate over all tokens in sentence order."""
        return chain.from_iterable(self.sentences)


def validate_suffix_table(rules: tuple[tuple[str, int], ...]) -> None:
    """Check structural invariants of a suffix table.

    Raises ValueError on empty suffixes, non-positive minimum stem lengths,
    duplicate suffixes, or rules not sorted by descending suffix length.
    """
    seen: set[str] = set()
    previous_len: int | None = None
    for suffix, min_stem in rules:
        if not suffix:
            raise ValueError("suffix table: empty suffix")
        if min_stem < 1:
            raise ValueError(f"suffix table: rule {quoted(suffix)} has min stem length < 1")
        if suffix in seen:
            raise ValueError(f"suffix table: duplicate suffix {quoted(suffix)}")
        seen.add(suffix)
        if previous_len is not None and len(suffix) > previous_len:
            raise ValueError("suffix table: rules not sorted by descending suffix length")
        previous_len = len(suffix)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword file: one token per line, '#' comments allowed."""
    return frozenset(entry for _, entry in read_entries(path))


def load_suffix_table(path: str | Path) -> tuple[tuple[str, int], ...]:
    """Load suffix rules from a `<suffix>\\t<min_stem_length>` file ('#'
    comments allowed), sorted by descending suffix length, ties
    lexicographically. A line that does not parse, fails
    `validate_suffix_table` or repeats a suffix raises MalformedLineError."""
    rules: dict[str, int] = {}
    for line_no, entry in read_entries(path):
        parts = entry.split("\t")
        try:
            if len(parts) != 2:
                raise ValueError("expected <suffix>\\t<min_stem_length>")
            suffix = parts[0].strip()
            if suffix in rules:
                raise ValueError(f"duplicate suffix {quoted(suffix)}")
            rules[suffix] = int(parts[1])
            validate_suffix_table(((suffix, rules[suffix]),))
        except ValueError as exc:
            raise MalformedLineError(str(path), line_no, str(exc)) from None
    return tuple(sorted(rules.items(), key=lambda rule: (-len(rule[0]), rule[0])))


@lru_cache(maxsize=1)
def default_config() -> PreprocessConfig:
    """The shipped default configuration (packaged data files)."""
    data = resources.files("doccat") / "data"
    with resources.as_file(data / "bengali_stopwords.txt") as stopword_path:
        stopwords = load_stopwords(stopword_path)
    with resources.as_file(data / "bengali_suffixes.tsv") as suffix_path:
        suffixes = load_suffix_table(suffix_path)
    return PreprocessConfig(stopword_list=stopwords, suffix_table=suffixes)


def stem(token: str, suffix_table: tuple[tuple[str, int], ...]) -> str:
    """Strip at most one suffix: the longest rule whose removal leaves
    at least the rule's minimum stem length. Otherwise return unchanged."""
    for suffix, min_stem in suffix_table:
        if len(token) - len(suffix) >= min_stem and token.endswith(suffix):
            return token[: -len(suffix)]
    return token


class _TokenMemo(dict):
    """A configuration's memo from a stripped raw token to its final token
    ("" for a stopword). A miss lowercases, stems and filters the token,
    first emptying the memo if it holds TOKEN_MEMO_SIZE tokens."""

    def __init__(self, config: PreprocessConfig) -> None:
        super().__init__()
        self.config = config

    def __missing__(self, raw: str) -> str:
        config = self.config
        token = raw.lower()
        if config.enable_stemming:
            token = stem(token, config.suffix_table)
        if config.enable_stopwords and token in config.stopword_list:
            token = ""
        if len(self) >= TOKEN_MEMO_SIZE:
            self.clear()
        self[raw] = token
        return token


@lru_cache(maxsize=8)
def _compiled(config: PreprocessConfig):
    """The lookup of the configuration's token memo, built once."""
    return _TokenMemo(config).__getitem__


def preprocess_document(doc: LabeledDocument, config: PreprocessConfig) -> TokenizedDocument:
    """Run the full pipeline over one document.

    Emptied tokens and emptied sentences are dropped; an all-stopword
    document yields a valid TokenizedDocument with zero tokens.
    """
    final_token = _compiled(config)
    sentences = [
        tokens
        for segment in SENTENCE_SPLIT_RE.split(STRIP_RE.sub("", doc.text))
        if (tokens := tuple(filter(None, map(final_token, segment.split()))))
    ]
    return TokenizedDocument(sentences=tuple(sentences), label=doc.label, doc_id=doc.id)


def preprocess_corpus(corpus: LabeledCorpus, config: PreprocessConfig) -> list[TokenizedDocument]:
    """Preprocess every document, preserving corpus order."""
    return [preprocess_document(doc, config) for doc in corpus]


def tokenized_to_json(doc: TokenizedDocument) -> str:
    """One tokenized document as a JSON line: {"id", "label", "sentences"}."""
    return json.dumps(
        {
            "id": doc.doc_id,
            "label": doc.label,
            "sentences": [list(sentence) for sentence in doc.sentences],
        },
        ensure_ascii=False,
    )
