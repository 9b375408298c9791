"""Bengali text preprocessing: sentence split, tokenize, symbol strip, stem, stopwords.

The pipeline applied per document is

    strip symbols -> split into sentences -> split on whitespace
        -> per token: lowercase -> stem -> remove stopwords

Stripping STRIP_SYMBOLS and lowercasing are fixed steps; a configuration
is the two tables it applies, stopwords and suffix rules, and an empty
table applies nothing. A model file holds the tables, and a change to a
fixed step needs a new models.MODEL_FORMAT_VERSION. Sentences are kept as the grouping unit because the
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
stemmed and stopword-filtered once, in a plain dict memo that each
configuration builds when it is made and that empties itself when it
holds TOKEN_MEMO_SIZE (65,536) tokens; it is not LRU. Lowercasing token
by token gives what lowercasing the whole document would: lowercasing
creates no whitespace or delimiter, and neither is cased nor
case-ignorable, so the context that makes a Greek sigma final never
crosses a token's edge. The memo pays off because
tokens repeat: on a cold memo, 78-89% of the token occurrences in the
benchmark corpora are hits; text whose tokens never repeat runs about 1.5
times slower with it than without (README gives the figures). Results are
pure functions of (input, config); a configuration's memo is bounded and
thread-safe, so documents may still be preprocessed in parallel.

`preprocess_corpus` returns a TokenizedCorpus: a list of the documents
that also carries one TokenTable, the corpus's tokens as integer ids,
built on first use. The feature builders read every corpus through a
table (`token_table`), so each token string is mapped to its id once per
corpus rather than once per feature call; any other sequence of documents
gets the same table built on the spot.
"""

from __future__ import annotations

import json
import operator
import re
import string
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

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

# An alternation of single characters runs as one character class (much
# faster than str.translate on non-ASCII text).
STRIP_RE = re.compile(
    "|".join(map(re.escape, sorted(STRIP_SYMBOLS.difference(SENTENCE_DELIMITERS))))
)

# Distinct raw tokens each configuration's memo remembers; the memo
# empties itself when it is full, so a long prediction stream cannot grow
# memory without limit. Threads that miss at the same moment may each add
# one token past the bound before the next miss empties it.
TOKEN_MEMO_SIZE = 1 << 16

# Tokens renumbered at a time while a TokenTable is built, so the only
# temporary of the renumbering is one 256 KB block.
_RENUMBER_TOKENS = 1 << 16


@dataclass(frozen=True)
class PreprocessConfig:
    """Immutable preprocessing configuration: the stopwords and the suffix
    rules it applies.

    `suffix_table` holds (suffix, min_stem_length) rules, stored in one
    canonical order, descending suffix length then suffix, so
    longest-match-first is well defined and the same rules in any order give
    an equal configuration and hash. `stopword_list` should contain
    the stemmed forms of inflected stopwords as well, since stopword removal
    runs after stemming. Iterables other than a str are stored as a frozenset
    of stopwords and a tuple of (suffix, min_stem_length) pairs, so a config
    is always hashable; a str table (its items are characters), a stopword
    that is no str, or a rule that `validate_suffix_table` rejects, raises
    ValueError. An empty table applies nothing. Each configuration builds
    its own token memo, which is no field: it takes no part in equality,
    hashing or repr.
    """

    stopword_list: frozenset[str]
    suffix_table: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for name in ("stopword_list", "suffix_table"):
            if isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a collection, not a string")
        object.__setattr__(self, "stopword_list", frozenset(self.stopword_list))
        for word in self.stopword_list:
            if type(word) is not str:
                raise ValueError(f"stopword must be a string, got {quoted(word)}")
        rules = tuple(self.suffix_table)
        validate_suffix_table(rules)
        rules = sorted(map(tuple, rules), key=lambda rule: (-len(rule[0]), rule[0]))
        object.__setattr__(self, "suffix_table", tuple(rules))
        object.__setattr__(self, "_token_memo", _TokenMemo(self))


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
    """Raise ValueError on a rule that is no (suffix, min_stem_length) pair
    of exactly a str and an int (True is no length), an empty suffix, a
    minimum stem length below 1 or a repeated suffix, in rules of any order."""
    seen: set[str] = set()
    for rule in rules:
        if list(map(type, rule)) != [str, int]:
            raise ValueError(
                f"suffix table: rule must be a (string, integer) pair, got {quoted(rule)}"
            )
        suffix, min_stem = rule
        if not suffix:
            raise ValueError("suffix table: empty suffix")
        if min_stem < 1:
            raise ValueError(f"suffix table: rule {quoted(suffix)} has min stem length < 1")
        if suffix in seen:
            raise ValueError(f"suffix table: duplicate suffix {quoted(suffix)}")
        seen.add(suffix)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword file: one token per line, '#' comments allowed."""
    return frozenset(entry for _, entry in read_entries(path))


def load_suffix_table(path: str | Path) -> tuple[tuple[str, int], ...]:
    """Load suffix rules from a `<suffix>\\t<min_stem_length>` file ('#'
    comments allowed), in file order; `PreprocessConfig` puts them in its
    canonical order. A line that does not parse, fails
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
    return tuple(rules.items())


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
    """Strip at most one suffix: the first rule whose removal leaves at
    least the rule's minimum stem length, which is the longest such rule in
    a `PreprocessConfig`'s table. Otherwise return unchanged."""
    for suffix, min_stem in suffix_table:
        if len(token) - len(suffix) >= min_stem and token.endswith(suffix):
            return token[: -len(suffix)]
    return token


class _TokenMemo(dict):
    """A configuration's memo from a stripped raw token to its final token
    ("" for a stopword). A miss lowercases, stems and filters the token,
    first emptying the memo if it holds TOKEN_MEMO_SIZE tokens. It holds
    the configuration's two tables, not the configuration."""

    def __init__(self, config: PreprocessConfig) -> None:
        super().__init__()
        self.suffix_table = config.suffix_table
        self.stopwords = config.stopword_list

    def __missing__(self, raw: str) -> str:
        token = stem(raw.lower(), self.suffix_table)
        if token in self.stopwords:
            token = ""
        if len(self) >= TOKEN_MEMO_SIZE:
            self.clear()
        self[raw] = token
        return token


def preprocess_document(doc: LabeledDocument, config: PreprocessConfig) -> TokenizedDocument:
    """Run the full pipeline over one document.

    Emptied tokens and emptied sentences are dropped; an all-stopword
    document yields a valid TokenizedDocument with zero tokens.
    """
    final_token = config._token_memo.__getitem__
    # Every one of SENTENCE_DELIMITERS becomes "\n", the one split point.
    text = STRIP_RE.sub("", doc.text).replace("।", "\n").replace("?", "\n").replace("!", "\n")
    sentences = [
        tokens
        for segment in text.split("\n")
        if (tokens := tuple(filter(None, map(final_token, segment.split()))))
    ]
    return TokenizedDocument(sentences=tuple(sentences), label=doc.label, doc_id=doc.id)


def preprocess_corpus(corpus: LabeledCorpus, config: PreprocessConfig) -> TokenizedCorpus:
    """Preprocess every document, preserving corpus order."""
    return TokenizedCorpus(preprocess_document(doc, config) for doc in corpus)


@dataclass(frozen=True, eq=False)
class TokenTable:
    """The tokens of a sequence of documents as integer ids.

    `terms` holds the distinct terms in ascending order, and `ids` (int32)
    one id per token, in document, sentence and token order: the position of
    its term in `terms`, so no id depends on the process's string hashing.
    Document d's sentences have the token counts
    `sentence_lengths[sentence_offsets[d]:sentence_offsets[d + 1]]` (int32)
    and its tokens are `ids[token_offsets[d]:token_offsets[d + 1]]`; both
    offset arrays are intp and hold one entry more than there are
    documents. The arrays are read-only.
    """

    terms: tuple[str, ...]
    ids: np.ndarray
    sentence_lengths: np.ndarray
    sentence_offsets: np.ndarray
    token_offsets: np.ndarray

    @classmethod
    def build(cls, docs: Sequence[TokenizedDocument]) -> TokenTable:
        """The table of `docs`, built with no list of all sentences or tokens
        in between: the int32 ids are the only per-token array. One pass
        gives each token a provisional id in order of first appearance, and
        the ids are then renumbered by term in place, block by block."""
        counts = np.fromiter(map(len, (doc.sentences for doc in docs)), np.intp, len(docs))
        sentence_offsets = np.concatenate(([0], np.cumsum(counts)))
        sentences = chain.from_iterable(doc.sentences for doc in docs)
        lengths = np.fromiter(map(len, sentences), np.int32, int(sentence_offsets[-1]))
        token_offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))[sentence_offsets]
        numbering = _Numbering()
        tokens = chain.from_iterable(chain.from_iterable(doc.sentences for doc in docs))
        ids = np.fromiter(map(numbering.__getitem__, tokens), np.int32, int(token_offsets[-1]))
        seen = list(numbering)
        del numbering
        order = sorted(range(len(seen)), key=seen.__getitem__)
        rank = np.empty(len(seen), np.int32)
        rank[order] = np.arange(len(seen), dtype=np.int32)
        for start in range(0, ids.size, _RENUMBER_TOKENS):
            block = ids[start:start + _RENUMBER_TOKENS]
            block[...] = rank[block]
        for array in (ids, lengths, sentence_offsets, token_offsets):
            array.flags.writeable = False
        terms = tuple(map(seen.__getitem__, order))
        return cls(terms, ids, lengths, sentence_offsets, token_offsets)


class _Numbering(dict):
    """Numbers each new key in order of first appearance: 0, 1, 2, ..."""

    def __missing__(self, key: str) -> int:
        self[key] = number = len(self)
        return number


class TokenizedCorpus(list):
    """A list of TokenizedDocuments that keeps its token table.

    `preprocess_corpus` returns one. It is a plain list in every other
    respect: slicing, `+` and `list(corpus)` give plain lists, which the
    feature builders read through a table built on the spot.

    The table is built by `token_table` on first use and kept. It never goes
    stale: it remembers the documents it was built from, by identity, and
    is rebuilt when the corpus no longer holds exactly those documents in
    that order, so items appended, replaced, deleted or reordered after it
    was built are seen by the next feature call. Documents are immutable,
    so the same documents give the same table.

    The table takes 4 bytes per token (its int32 ids), 4 per sentence, 16
    per document (two offsets) and a pointer per distinct term, whose
    strings the documents already hold; the corpus adds a pointer per
    document for the identities it checks. The documents keep their own
    tuples of token strings. At the paper's scale, 1.71M training tokens,
    the ids take about 6.8 MB.
    """

    __slots__ = ("_table",)  # (the documents the table was built from, the table)


def token_table(docs: Sequence[TokenizedDocument]) -> TokenTable:
    """The token table of `docs`. A TokenizedCorpus's kept table is returned
    while the corpus holds the documents it was built from; otherwise a new
    one is built and kept. Any other sequence gets a new table."""
    if not isinstance(docs, TokenizedCorpus):
        return TokenTable.build(docs)
    kept = getattr(docs, "_table", None)
    if kept is None or len(kept[0]) != len(docs) or not all(map(operator.is_, kept[0], docs)):
        documents = tuple(docs)
        kept = docs._table = documents, TokenTable.build(documents)
    return kept[1]


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
