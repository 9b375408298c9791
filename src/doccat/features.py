"""Feature engineering: vocabularies, TF-IDF vectors, and chi-square selection.

Two feature spaces are provided, each named by its selector (SELECTORS),
which its Vocabulary carries and only this module interprets:

* TF-IDF ("tfidf"): raw term counts weighted by the smoothed inverse
  document frequency ``ln((N + 1) / (DF + 1)) + 1`` and scaled to unit
  Euclidean norm (length normalization). The squares are summed with
  math.fsum, which rounds correctly, so a norm depends neither on the
  order of the terms nor on the Python version.
* Chi-square ("chi2"): a per-document co-occurrence score ranks each
  document's terms; the top share of every document's ranking is kept and
  the union forms the vocabulary, vectorized with raw counts.

The three corpus builders, `build_vocabulary`, `select_chi_features` and
`vectorize_corpus`, read the documents through their token table
(`textprep.token_table`): the corpus's distinct terms in ascending order and
one id per token, a term's position there, so no id depends on the
process's string hashing. A TokenizedCorpus keeps its table, so its token
strings are mapped to ids once, however many features are built from it.
Both vocabularies take each term's document frequency from one count,
`_doc_freq`: one sort of the table's (document, id) keys.

A corpus becomes one CorpusMatrix: a CSR matrix with one row per document
of ascending feature indices and their non-zero weights, checked once when
it is built and used as it is by the trainers and the scoring.
`vectorize_corpus(docs, vocab)` looks up the feature index of each of the
corpus's terms once, then builds the matrix in chunks of whole documents of
at most _VECTORIZE_CHUNK_TOKENS tokens: per chunk, one `take` maps the
token ids to feature ids, one `np.unique` counts the (document, feature)
keys, and for TF-IDF each row takes one correctly rounded norm.
One document's row comes from `vectorize_document`, ascending like a
matrix row, which prediction scores as it is, so one document is
never built into a one-row matrix; a corpus row equals its document's
vector bit for bit.

The chi-square score for a term w in one document treats each sentence as
the co-occurrence window:

    score(w) = sum over g != w of (O[g, w] - E[g, w])^2 / E[g, w]

computed from the document's sentence x term incidence matrix B, with the
distinct terms in lexicographic order and B[s, t] = 1 when sentence s
contains term t:

    O = B^T B        O[g, w] counts the sentences containing both g and w
    n = len . B      n_w, the total token count of the sentences containing
                     w, where len holds the sentence lengths with repeated
                     tokens counted
    E = p (x) n      E[g, w] = p_g * n_w, with p_g g's share of the
                     document's tokens

g ranges over the document's other distinct terms, added one after another
in lexicographic order, so scores do not depend on the process's string
hashing. `check_chi_settings` is the one range check of `top_percent`, for
every caller.

The scores of a corpus are computed in batches rather than one document at
a time. The documents, sorted by token count, are cut into chunks, and a
chunk's token ids and sentence lengths are gathered from the token table.
A chunk is a padded stack of incidence matrices, (documents, sentences, T)
with T the widest document; O and E for all of its documents come from one
batched product and one broadcast, with the same elementwise expressions as
for a single document.
After the deviation is taken, the pairs that must not count (padding and
g == w) get an infinite E, so each adds an exact +0.0 to a non-negative
sum, which then equals the one-document result bit for bit. The documents
x T x T arrays of a chunk hold at most _CHI_CHUNK_CELLS cells (512 KB per
float64 array), because a document has no more distinct terms than tokens;
only a document that alone exceeds that makes a larger chunk, of itself.

Note on n_w: a narrower reading of this family of scores takes n_w to be
w's own frequency within its sentences; this implementation deliberately
uses the total-token count so that p_g * n_w is the expected co-occurrence
frequency, which is what the squared deviation is measured against. A term
that appears in long sentences therefore co-occurs with more terms and
scores as more important.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Iterator, Literal, Sequence, get_args

import numpy as np

from .errors import EmptyVocabularyError, quoted
from .textprep import TokenizedDocument, TokenTable, token_table

# Cells (documents x T x T) of one chunk's padded chi-square arrays: 512 KB
# per float64 array. Larger chunks were no faster on 3000 documents.
_CHI_CHUNK_CELLS = 1 << 16

# Tokens of one vectorize_corpus chunk, whose temporaries take about 1 MB.
# Vectorizing 3000 documents (1.7 MB of CSR arrays) in one chunk peaked at
# 10 MB of allocations, against 4 MB in chunks of this size.
_VECTORIZE_CHUNK_TOKENS = 1 << 14

Selector = Literal["tfidf", "chi2"]
SELECTORS: tuple[Selector, ...] = get_args(Selector)


def check_selector(selector: object) -> None:
    """Raise ValueError unless `selector` is one of SELECTORS."""
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector: {quoted(selector)} (expected one of {SELECTORS})")


@dataclass(frozen=True)
class Vocabulary:
    """A feature space as the model file stores it.

    `selector` names it and so its weighting (SELECTORS). `terms` is not
    empty, strictly ascending and a term's position is its feature index, so
    the same documents always give the same feature space. `doc_freq` holds
    each term's document frequency in the same order, as Python ints in
    [1, n_docs]; n_docs is at most 2**53, the largest count a float holds
    exactly, so `idf` cannot overflow. `index`, the term-to-feature-index
    map, is built on first use.
    """

    terms: tuple[str, ...]
    doc_freq: tuple[int, ...]
    n_docs: int
    selector: Selector

    def __post_init__(self) -> None:
        terms, doc_freq, n_docs = self.terms, self.doc_freq, self.n_docs
        check_selector(self.selector)
        if not terms:
            raise ValueError("a vocabulary needs at least one term")
        if not all(map(operator.lt, terms, terms[1:])):
            raise ValueError("vocabulary terms must be unique and in ascending order")
        if len(doc_freq) != len(terms):
            raise ValueError(
                f"vocabulary doc_freq holds {len(doc_freq)} values for {len(terms)} terms"
            )
        if n_docs > 2**53:
            raise ValueError("n_docs exceeds 2**53, the largest count a float holds exactly")
        if not (1 <= min(doc_freq) and max(doc_freq) <= n_docs):
            term, df = next(
                (term, df) for term, df in zip(terms, doc_freq) if not 1 <= df <= n_docs
            )
            raise ValueError(f"term {quoted(term)}: DF {df} outside [1, {n_docs}]")

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def index(self) -> dict[str, int]:
        """Each term's feature index, its position in `terms`."""
        return dict(zip(self.terms, range(len(self.terms))))

    @cached_property
    def idf_weights(self) -> np.ndarray:
        """Read-only `idf` of every term, indexed by feature; computed once."""
        weights = np.array([idf(self.n_docs, df) for df in self.doc_freq], dtype=np.float64)
        weights.flags.writeable = False
        return weights


@dataclass(frozen=True, eq=False)
class CorpusMatrix:
    """A corpus as one immutable CSR matrix of shape (documents, n_features).

    Row i holds the feature `indices[indptr[i]:indptr[i + 1]]` (intp,
    strictly ascending within the row, in [0, n_features)) and their
    `values` (float64, finite and non-zero); zeros are omitted. `indptr` and
    `indices` must hold integers unless empty. The arrays are checked once
    here and marked read-only, arrays passed in included.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    n_features: int

    def __post_init__(self) -> None:
        indptr, indices = np.asarray(self.indptr), np.asarray(self.indices)
        if any(array.size and array.dtype.kind not in "iu" for array in (indptr, indices)):
            raise ValueError("indptr and indices must hold integers")
        indptr, indices = indptr.astype(np.intp, copy=False), indices.astype(np.intp, copy=False)
        values = np.asarray(self.values, dtype=np.float64)
        n_features, nnz = self.n_features, indices.size
        if n_features < 1:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if indptr.ndim != 1 or indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indptr, indices and values must be 1-D, the last two equally long")
        if not indptr.size or indptr[0] != 0 or indptr[-1] != nnz:
            raise ValueError("indptr must run from 0 to the number of stored entries")
        if (np.diff(indptr) < 0).any():
            raise ValueError("indptr must not decrease")
        # An index may fall or repeat only where a new row starts. The "table"
        # kind skips isin's sort method, which imports numpy.ma (1.2 MB of RSS).
        if not np.isin(np.flatnonzero(indices[1:] <= indices[:-1]) + 1, indptr, kind="table").all():
            raise ValueError("feature indices must be strictly ascending within each row")
        if nnz and (indices.min() < 0 or indices.max() >= n_features):
            raise ValueError(f"feature index outside [0, {n_features})")
        if np.count_nonzero(np.isfinite(values)) < nnz or np.count_nonzero(values) < nnz:
            raise ValueError("feature weights must be finite and non-zero")
        for name, array in (("indptr", indptr), ("indices", indices), ("values", values)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.n_features


def build_vocabulary(docs: Sequence[TokenizedDocument]) -> Vocabulary:
    """Collect every distinct token with its document frequency.

    Raises EmptyVocabularyError if every document is empty.
    """
    if not docs:
        raise ValueError("cannot build a vocabulary from zero documents")
    table = token_table(docs)
    if not table.terms:
        raise EmptyVocabularyError("no terms to build a vocabulary from (all documents empty)")
    doc_freq = tuple(_doc_freq(table).tolist())
    return Vocabulary(terms=table.terms, doc_freq=doc_freq, n_docs=len(docs), selector="tfidf")


def _doc_freq(table: TokenTable) -> np.ndarray:
    """The number of documents of `table` that hold each of its terms, in
    term order. The table must hold at least one term."""
    n_terms = len(table.terms)
    # One (document, term) key per token, in int32 while documents x terms
    # fits (intp keys made train-large's chi-square selection 1-5% slower),
    # else in intp. Distinct keys come from one sort in place: plain
    # np.unique was 10x slower in numpy 2.4 and imports numpy.ma.
    sizes = np.diff(table.token_offsets)
    dtype = np.int32 if sizes.size * n_terms <= np.iinfo(np.int32).max else np.intp
    keys = np.repeat(np.arange(0, sizes.size * n_terms, n_terms, dtype=dtype), sizes)
    keys += table.ids
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.bincount(keys[first] % n_terms, minlength=n_terms)


def idf(n_docs: int, df: int) -> float:
    """Smoothed inverse document frequency: ln((N + 1) / (DF + 1)) + 1.

    Equals exactly 1.0 when a term appears in every document and grows as
    the term gets rarer. Raises ValueError outside 1 <= df <= n_docs.
    """
    if df < 1 or df > n_docs:
        raise ValueError(f"DF must satisfy 1 <= DF <= N, got DF={df}, N={n_docs}")
    return math.log((n_docs + 1) / (df + 1)) + 1.0


def check_chi_settings(top_percent: float) -> None:
    """Raise ValueError unless 0 < top_percent <= 100."""
    if not 0.0 < top_percent <= 100.0:
        raise ValueError(f"chi_top_percent must be in (0, 100], got {top_percent!r}")


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index ranges [start, start + length), concatenated in order."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


def _chi_chunks(table: TokenTable) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Chi-score the non-empty documents of `table` in chunks of similar size.

    A term's id is its position in `table.terms`. Yields (ids, n_terms,
    scores) per chunk, one row per document: the document's term ids
    ascending in ids[r, :n_terms[r]] and their scores at the same
    positions. The rest of a row is padding: id 0 and score 0.
    """
    # A document has at most as many distinct terms as tokens, so the token
    # count bounds the chunk's padded width.
    token_starts, sentence_starts = table.token_offsets[:-1], table.sentence_offsets[:-1]
    sizes, sentence_counts = np.diff(table.token_offsets), np.diff(table.sentence_offsets)
    order = np.argsort(sizes, kind="stable")
    order = order[sizes[order] > 0]
    sorted_sizes = sizes[order].tolist()
    start = 0
    while start < len(order):
        # Sizes ascend, so the chunk's last document is its widest.
        stop = start + 1
        while (
            stop < len(order)
            and (stop - start + 1) * sorted_sizes[stop] ** 2 <= _CHI_CHUNK_CELLS
        ):
            stop += 1
        chunk = order[start:stop]
        per_doc = sentence_counts[chunk]
        yield _chi_chunk(
            table.ids[_ranges(token_starts[chunk], sizes[chunk])],
            table.sentence_lengths[_ranges(sentence_starts[chunk], per_doc)],
            per_doc,
            len(table.terms),
        )
        start = stop


def _chi_chunk(
    tokens: np.ndarray, lengths: np.ndarray, per_doc: np.ndarray, n_ids: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_chi_chunks` for one chunk of non-empty documents: `tokens` holds
    their token ids, each below `n_ids`, `lengths` their sentence lengths and
    `per_doc` each document's number of sentences."""
    n_docs, n_sentences = len(per_doc), len(lengths)
    sentence_doc = np.repeat(np.arange(n_docs), per_doc)
    sentence_row = np.arange(n_sentences) - np.repeat(np.cumsum(per_doc) - per_doc, per_doc)
    token_sentence = np.repeat(np.arange(n_sentences), lengths)
    token_doc = sentence_doc[token_sentence]

    # One key per (document, term), ascending by document and then term, so
    # a document's columns are its terms in ascending order.
    keys, token_key = np.unique(token_doc * n_ids + tokens, return_inverse=True)
    key_doc = keys // n_ids
    n_terms = np.bincount(key_doc, minlength=n_docs)
    key_column = np.arange(keys.size) - np.repeat(np.cumsum(n_terms) - n_terms, n_terms)
    width = int(n_terms.max())
    ids = np.zeros((n_docs, width), dtype=np.intp)
    ids[key_doc, key_column] = keys - key_doc * n_ids
    counts = np.zeros((n_docs, width))
    counts[key_doc, key_column] = np.bincount(token_key, minlength=keys.size)
    incidence = np.zeros((n_docs, int(per_doc.max()), width))
    incidence[token_doc, sentence_row[token_sentence], key_column[token_key]] = 1.0
    padded_lengths = np.zeros((n_docs, 1, incidence.shape[1]))
    padded_lengths[sentence_doc, 0, sentence_row] = lengths

    real = np.arange(width) < n_terms[:, None]

    # Axis 1 holds the partners g, axis 2 the terms w. A contiguous B^T lets
    # the batched product run as BLAS calls; the strided view took twice as
    # long. The counts are small integers, exact in any summation order.
    observed = np.ascontiguousarray(incidence.transpose(0, 2, 1)) @ incidence
    expected = (counts / counts.sum(axis=1, keepdims=True))[:, :, None] * (
        padded_lengths @ incidence
    )
    deviation = np.subtract(observed, expected, out=observed)
    deviation *= deviation
    # Once the deviation is taken, an excluded pair gets an infinite
    # expectation, so its finite squared deviation adds an exact +0.0.
    expected[~real] = np.inf  # padding partners
    expected.transpose(0, 2, 1)[~real] = np.inf  # padding terms
    expected.reshape(n_docs, -1)[:, :: width + 1] = np.inf  # g == w
    # The sum over axis 1 adds the partners one after another in term order.
    return ids, n_terms, np.divide(deviation, expected, out=deviation).sum(axis=1)


def select_chi_features(docs: Sequence[TokenizedDocument], top_percent: float) -> Vocabulary:
    """Keep each document's top share of chi-scored terms; union the keeps.

    Per document, terms are ranked by score descending (ties broken
    lexicographically) and the first ceil(top_percent * distinct-term count
    / 100) survive, computed in that order: at 30% a 10-term document keeps
    3 (0.3 * 10 would round up to 4). Document frequencies and N in the
    returned "chi2" vocabulary are computed over the full `docs` list. With
    top_percent=100 only its selector differs from build_vocabulary(docs).
    """
    if not docs:
        raise ValueError("cannot select features from zero documents")
    check_chi_settings(top_percent)

    table = token_table(docs)
    terms = table.terms
    if not terms:
        raise EmptyVocabularyError("chi-square selection kept no terms (all documents empty)")
    # Counted before the chunks allocate, so its keys are freed by then.
    doc_freq = _doc_freq(table)
    kept = np.zeros(len(terms), dtype=bool)
    for ids, n_terms, scores in _chi_chunks(table):
        columns = np.arange(ids.shape[1])
        keep = np.ceil(top_percent * n_terms / 100.0)
        # Columns are in term order and padding follows them, scoring 0 where
        # terms score >= 0, so a stable sort ranks each document's terms by
        # (-score, term) ahead of padding.
        ranked = np.take_along_axis(ids, np.argsort(-scores, axis=1, kind="stable"), axis=1)
        kept[ranked[columns < keep[:, None]]] = True

    return Vocabulary(
        terms=tuple(compress(terms, kept.tolist())),
        doc_freq=tuple(doc_freq[kept].tolist()),
        n_docs=len(docs),
        selector="chi2",
    )


def build_feature_space(
    docs: Sequence[TokenizedDocument], selector: Selector, top_percent: float
) -> Vocabulary:
    """`build_vocabulary` ("tfidf") or `select_chi_features` ("chi2") of `docs`,
    the selector checked first. Builders here are looked up by name on every
    call, so a wrapper bound in one's place (a tracer) sees each call."""
    check_selector(selector)
    if selector == "tfidf":
        return build_vocabulary(docs)
    return select_chi_features(docs, top_percent)


def count_vector(doc: TokenizedDocument, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """One document's row of raw counts: its in-vocabulary feature indices in
    ascending order and their counts; out-of-vocabulary tokens are ignored."""
    counts = Counter(map(vocab.index.get, doc.tokens()))
    counts.pop(None, None)  # the out-of-vocabulary tokens
    indices = np.fromiter(counts.keys(), dtype=np.intp, count=len(counts))
    values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    order = indices.argsort()
    return indices[order], values[order]


def _norm(squares: list[float]) -> float:
    """The Euclidean norm whose squared entries are `squares`. math.fsum
    rounds their sum correctly, so the norm depends neither on the order of
    the entries nor on the Python version (builtin sum changed in 3.12)."""
    return math.sqrt(math.fsum(squares))


def tfidf_vector(doc: TokenizedDocument, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """`count_vector`'s row, indices still ascending, with each count weighted
    by its term's `idf` and the weights scaled to unit Euclidean norm
    (`_norm`). A document with no in-vocabulary token has no entries and is
    not normalized."""
    indices, weights = count_vector(doc, vocab)
    if indices.size:
        weights *= vocab.idf_weights[indices]
        weights /= _norm((weights * weights).tolist())
    return indices, weights


def vectorize_document(doc: TokenizedDocument, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """`vectorize_corpus` of one document: `tfidf_vector` ("tfidf") or
    `count_vector` ("chi2") as `vocab.selector` names."""
    if vocab.selector == "tfidf":
        return tfidf_vector(doc, vocab)
    return count_vector(doc, vocab)


def vectorize_corpus(docs: Sequence[TokenizedDocument], vocab: Vocabulary) -> CorpusMatrix:
    """One row per document, in order, weighted as `vocab.selector` names:
    unit-norm TF-IDF weights for "tfidf", raw counts for "chi2".

    The documents are vectorized in chunks of at most _VECTORIZE_CHUNK_TOKENS
    tokens (a longer document is a chunk of its own) and the chunks' arrays
    are joined once. Every row equals `tfidf_vector` ("tfidf") or
    `count_vector` ("chi2") of its document bit for bit."""
    table = token_table(docs)
    # Each of the corpus's terms' feature index, -1 outside the vocabulary.
    term_features = np.fromiter(
        map(vocab.index.get, table.terms, repeat(-1)), np.intp, len(table.terms)
    )
    sizes = np.diff(table.token_offsets).tolist()
    pieces = []  # (row lengths, indices, values) per chunk
    start = first_token = 0
    while start < len(docs):
        stop, tokens = start + 1, sizes[start]
        while stop < len(docs) and tokens + sizes[stop] <= _VECTORIZE_CHUNK_TOKENS:
            tokens += sizes[stop]
            stop += 1
        ids = term_features.take(table.ids[first_token:first_token + tokens])
        pieces.append(_vectorize_chunk(ids, sizes[start:stop], vocab))
        start, first_token = stop, first_token + tokens
    if not pieces:
        return CorpusMatrix([0], [], [], len(vocab))
    row_lengths, indices, values = map(np.concatenate, zip(*pieces))
    indptr = np.concatenate(([0], np.cumsum(row_lengths)))
    return CorpusMatrix(indptr, indices, values, len(vocab))


def _vectorize_chunk(
    ids: np.ndarray, sizes: list[int], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`vectorize_corpus` for one chunk of documents with `sizes` tokens each,
    whose tokens have the feature indices `ids` (-1 outside the vocabulary):
    its row lengths, feature indices and weights."""
    n_features = len(vocab)
    keys = np.repeat(np.arange(len(sizes)) * n_features, sizes)
    keys += ids
    # One key per (document, feature) in ascending order, so each row's
    # indices ascend; out-of-vocabulary tokens (id -1) are dropped first.
    keys, counts = np.unique(keys[ids >= 0], return_counts=True)
    rows = keys // n_features
    indices = keys - rows * n_features
    values = counts.astype(np.float64)
    row_lengths = np.bincount(rows, minlength=len(sizes))
    if vocab.selector == "tfidf" and keys.size:
        # The same elementwise operations as tfidf_vector, and the same
        # correctly rounded norm, so every row equals `tfidf_vector` bit for bit.
        values *= vocab.idf_weights[indices]
        squares = (values * values).tolist()
        filled = row_lengths[row_lengths > 0]
        bounds = np.concatenate(([0], np.cumsum(filled))).tolist()
        norms = [_norm(squares[begin:end]) for begin, end in zip(bounds, bounds[1:])]
        values /= np.repeat(norms, filled)
    return row_lengths, indices, values
