"""Feature engineering: vocabularies, TF-IDF vectors, and chi-square selection.

Two pipelines are provided and used separately downstream:

* TF-IDF: raw term counts weighted by the smoothed inverse document
  frequency ``ln((N + 1) / (DF + 1)) + 1`` and scaled to unit Euclidean
  norm (length normalization). The squares are summed with math.fsum,
  which rounds correctly, so a norm depends neither on the order of the
  terms nor on the Python version.
* Chi-square: a per-document co-occurrence score ranks each document's
  terms; the top share of every document's ranking is kept and the union
  forms the vocabulary, vectorized with raw counts.

A corpus becomes one CorpusMatrix: a CSR matrix with one row per document
of ascending feature indices and their non-zero weights, checked once when
it is built and used as it is by the trainers and the scoring.
`vectorize_corpus` builds it in chunks of whole documents of at most
_VECTORIZE_CHUNK_TOKENS tokens: per chunk, one pass maps the tokens to
feature ids, one `np.unique` counts the (document, feature) keys, and for
TF-IDF each row takes one correctly rounded norm. One document's row comes
from `count_vector` or `tfidf_vector`, ascending like a matrix row, which
prediction scores as it is, so one document is never built into a one-row
matrix; a corpus row equals its document's vector bit for bit.

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

g ranges over the document's distinct terms (or its k most frequent ones,
see chi_score_document), and the partners are added one after another in
lexicographic order, so scores do not depend on the process's string
hashing. `check_chi_settings` is the one range check of the settings
`top_percent` and `g_top_k`, for every caller.

The scores of a corpus are computed in batches rather than one document at
a time. Every term gets one id in ascending term order, and the documents,
sorted by token count, are cut into chunks. A chunk is a padded stack of
incidence matrices, (documents, sentences, T) with T the widest document;
O and E for all of its documents come from one batched product and one
broadcast, with the same elementwise expressions as for a single document.
After the deviation is taken, the pairs that must not count (padding, the
terms outside g_top_k, g == w) get an infinite E, so each adds an exact
+0.0 to a non-negative sum, which then equals the one-document result bit
for bit. The documents x T x T arrays of a chunk hold at most
_CHI_CHUNK_CELLS cells (512 KB per float64 array), because a document has no
more distinct terms than tokens; only a document that alone exceeds that
makes a larger chunk, of itself.

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
from itertools import chain, compress, repeat
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import EmptyVocabularyError, quoted
from .textprep import TokenizedDocument

ChiScoreTable = dict[str, float]

# Cells (documents x T x T) of one chunk's padded chi-square arrays: 512 KB
# per float64 array. Larger chunks were no faster on 3000 documents.
_CHI_CHUNK_CELLS = 1 << 16

# Tokens of one vectorize_corpus chunk, whose temporaries take about 1 MB.
# Vectorizing 3000 documents (1.7 MB of CSR arrays) in one chunk peaked at
# 10 MB of allocations, against 4 MB in chunks of this size.
_VECTORIZE_CHUNK_TOKENS = 1 << 14

FeatureMode = Literal["tfidf", "counts"]


@dataclass(frozen=True)
class Vocabulary:
    """A feature space as the model file stores it.

    `terms` is not empty, strictly ascending and a term's position is its
    feature index, so the same documents always give the same feature space.
    `doc_freq` holds each term's document frequency in the same order, as
    Python ints in [1, n_docs]. `index`, the term-to-feature-index map, is
    built on first use.
    """

    terms: tuple[str, ...]
    doc_freq: tuple[int, ...]
    n_docs: int

    def __post_init__(self) -> None:
        terms, doc_freq, n_docs = self.terms, self.doc_freq, self.n_docs
        if not terms:
            raise ValueError("a vocabulary needs at least one term")
        if not all(map(operator.lt, terms, terms[1:])):
            raise ValueError("vocabulary terms must be unique and in ascending order")
        if len(doc_freq) != len(terms):
            raise ValueError(
                f"vocabulary doc_freq holds {len(doc_freq)} values for {len(terms)} terms"
            )
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
        bounds = indptr.tolist()
        if not bounds or bounds[0] != 0 or bounds[-1] != nnz:
            raise ValueError("indptr must run from 0 to the number of stored entries")
        if any(end < start for start, end in zip(bounds, bounds[1:])):
            raise ValueError("indptr must not decrease")
        # np.count_nonzero is the cheapest reduction on short arrays.
        falls = indices[1:] <= indices[:-1]
        if np.count_nonzero(falls):
            # An index may fall or repeat only where a new row starts.
            if not set((np.flatnonzero(falls) + 1).tolist()) <= set(bounds):
                raise ValueError("feature indices must be strictly ascending within each row")
            low, high = indices.min(), indices.max()
        else:  # ascending throughout, so the ends bound every index
            low, high = (indices[0], indices[-1]) if nnz else (0, 0)
        if low < 0 or high >= n_features:
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
    doc_freq: Counter[str] = Counter()
    for doc in docs:
        doc_freq.update(set(doc.tokens()))
    if not doc_freq:
        raise EmptyVocabularyError("no terms to build a vocabulary from (all documents empty)")
    terms = tuple(sorted(doc_freq))
    return Vocabulary(
        terms=terms, doc_freq=tuple(map(doc_freq.__getitem__, terms)), n_docs=len(docs)
    )


def idf(n_docs: int, df: int) -> float:
    """Smoothed inverse document frequency: ln((N + 1) / (DF + 1)) + 1.

    Equals exactly 1.0 when a term appears in every document and grows as
    the term gets rarer. Raises ValueError outside 1 <= df <= n_docs.
    """
    if df < 1 or df > n_docs:
        raise ValueError(f"DF must satisfy 1 <= DF <= N, got DF={df}, N={n_docs}")
    return math.log((n_docs + 1) / (df + 1)) + 1.0


def check_chi_settings(top_percent: float = 100.0, g_top_k: int | None = None) -> None:
    """Raise ValueError unless 0 < top_percent <= 100 and g_top_k is None or at least 1."""
    if not 0.0 < top_percent <= 100.0:
        raise ValueError(f"chi_top_percent must be in (0, 100], got {top_percent!r}")
    if g_top_k is not None and g_top_k < 1:
        raise ValueError(f"chi_g_top_k must be at least 1, got {g_top_k!r}")


def chi_score_document(doc: TokenizedDocument, g_top_k: int | None = None) -> ChiScoreTable:
    """Score every distinct term of one document by sentence co-occurrence.

    For each term w, the squared deviation of observed sentence-level
    co-occurrence from its expectation p_g * n_w is summed over the
    document's other distinct terms g (see the module docstring for the
    exact quantities). `g_top_k` optionally restricts g to the document's
    k most frequent terms (ties broken lexicographically); the default
    uses all terms; `check_chi_settings` rejects a k below 1.

    An empty document yields an empty table; a term with no co-occurring
    terms scores 0.
    """
    check_chi_settings(g_top_k=g_top_k)
    terms = _sorted_terms([doc])
    if not terms:
        return {}
    (_, _, scores), = _chi_chunks([doc], terms, g_top_k)
    return dict(zip(terms, scores[0].tolist()))


def _sorted_terms(docs: Sequence[TokenizedDocument]) -> list[str]:
    """The distinct terms of `docs` in ascending order."""
    return sorted(set(chain.from_iterable(chain.from_iterable(doc.sentences for doc in docs))))


def _chi_chunks(
    docs: Sequence[TokenizedDocument], terms: list[str], g_top_k: int | None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Chi-score the non-empty documents in chunks of similar size.

    `terms` are the distinct terms of `docs` in ascending order, and a term's
    id is its position there. Yields (ids, n_terms, scores) per chunk, one
    row per document: the document's term ids ascending in
    ids[r, :n_terms[r]] and their scores at the same positions. The rest of
    a row is padding: id 0 and score 0.
    """
    term_ids = dict(zip(terms, range(len(terms))))
    # A document has at most as many distinct terms as tokens, so the token
    # count bounds the chunk's padded width.
    sizes = [doc.token_count for doc in docs]
    order = sorted(filter(sizes.__getitem__, range(len(docs))), key=sizes.__getitem__)
    start = 0
    while start < len(order):
        # Sizes ascend, so the chunk's last document is its widest.
        stop = start + 1
        while (
            stop < len(order)
            and (stop - start + 1) * sizes[order[stop]] ** 2 <= _CHI_CHUNK_CELLS
        ):
            stop += 1
        yield _chi_chunk([docs[index] for index in order[start:stop]], term_ids, g_top_k)
        start = stop


def _chi_chunk(
    docs: list[TokenizedDocument], term_ids: dict[str, int], g_top_k: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_chi_chunks` for one chunk of non-empty documents."""
    n_docs, n_ids = len(docs), len(term_ids)
    sentences = [sentence for doc in docs for sentence in doc.sentences]
    per_doc = np.fromiter(map(len, (doc.sentences for doc in docs)), np.intp, n_docs)
    lengths = np.fromiter(map(len, sentences), np.intp, len(sentences))
    tokens = np.fromiter(
        map(term_ids.__getitem__, chain.from_iterable(sentences)), np.intp, int(lengths.sum())
    )
    sentence_doc = np.repeat(np.arange(n_docs), per_doc)
    sentence_row = np.arange(len(sentences)) - np.repeat(np.cumsum(per_doc) - per_doc, per_doc)
    token_sentence = np.repeat(np.arange(len(sentences)), lengths)
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
    partners = real
    if g_top_k is not None:
        # Columns are in term order and padding counts 0, so a stable sort
        # ranks each document's real terms by (-count, term) ahead of padding.
        partners = np.zeros_like(real)
        ranked = np.argsort(-counts, axis=1, kind="stable")[:, :g_top_k]
        np.put_along_axis(partners, ranked, True, axis=1)
        partners &= real

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
    expected[~partners] = np.inf  # padding and, with g_top_k, the other terms
    expected.transpose(0, 2, 1)[~real] = np.inf  # padding
    expected.reshape(n_docs, -1)[:, :: width + 1] = np.inf  # g == w
    # The sum over axis 1 adds the partners one after another in term order.
    return ids, n_terms, np.divide(deviation, expected, out=deviation).sum(axis=1)


def select_chi_features(
    docs: Sequence[TokenizedDocument],
    top_percent: float,
    g_top_k: int | None = None,
) -> Vocabulary:
    """Keep each document's top share of chi-scored terms; union the keeps.

    Per document, terms are ranked by score descending (ties broken
    lexicographically) and the first ceil(top_percent/100 * distinct-term
    count) survive. Document frequencies and N in the returned vocabulary
    are computed over the full `docs` list. With top_percent=100 the result
    is identical to build_vocabulary(docs).
    """
    if not docs:
        raise ValueError("cannot select features from zero documents")
    check_chi_settings(top_percent, g_top_k)

    terms = _sorted_terms(docs)
    if not terms:
        raise EmptyVocabularyError("chi-square selection kept no terms (all documents empty)")
    kept = np.zeros(len(terms), dtype=bool)
    doc_freq = np.zeros(len(terms), dtype=np.intp)
    for ids, n_terms, scores in _chi_chunks(docs, terms, g_top_k):
        columns = np.arange(ids.shape[1])
        doc_freq += np.bincount(ids[columns < n_terms[:, None]], minlength=len(terms))
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
    )


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


def vectorize_corpus(
    docs: Sequence[TokenizedDocument], vocab: Vocabulary, mode: FeatureMode
) -> CorpusMatrix:
    """One row per document, in order: raw counts for "counts", unit-norm
    TF-IDF weights for "tfidf".

    The documents are vectorized in chunks of at most _VECTORIZE_CHUNK_TOKENS
    tokens (a longer document is a chunk of its own) and the chunks' arrays
    are joined once. Every row equals `count_vector` ("counts") or
    `tfidf_vector` ("tfidf") of its document bit for bit."""
    if mode not in ("tfidf", "counts"):
        raise ValueError(f"unknown feature mode: {mode!r}")
    sizes = [doc.token_count for doc in docs]
    pieces = []  # (row lengths, indices, values) per chunk
    start = 0
    while start < len(docs):
        stop, tokens = start + 1, sizes[start]
        while stop < len(docs) and tokens + sizes[stop] <= _VECTORIZE_CHUNK_TOKENS:
            tokens += sizes[stop]
            stop += 1
        pieces.append(_vectorize_chunk(docs[start:stop], sizes[start:stop], vocab, mode))
        start = stop
    if not pieces:
        return CorpusMatrix([0], [], [], len(vocab))
    row_lengths, indices, values = map(np.concatenate, zip(*pieces))
    indptr = np.concatenate(([0], np.cumsum(row_lengths)))
    return CorpusMatrix(indptr, indices, values, len(vocab))


def _vectorize_chunk(
    docs: Sequence[TokenizedDocument],
    sizes: list[int],
    vocab: Vocabulary,
    mode: FeatureMode,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`vectorize_corpus` for one chunk of documents with `sizes` tokens each:
    its row lengths, feature indices and weights."""
    n_features = len(vocab)
    ids = np.fromiter(
        map(vocab.index.get, chain.from_iterable(doc.tokens() for doc in docs), repeat(-1)),
        np.intp,
        sum(sizes),
    )
    keys = np.repeat(np.arange(len(docs)) * n_features, sizes)
    keys += ids
    # One key per (document, feature) in ascending order, so each row's
    # indices ascend; out-of-vocabulary tokens (id -1) are dropped first.
    keys, counts = np.unique(keys[ids >= 0], return_counts=True)
    rows = keys // n_features
    indices = keys - rows * n_features
    values = counts.astype(np.float64)
    row_lengths = np.bincount(rows, minlength=len(docs))
    if mode == "tfidf" and keys.size:
        # The same elementwise operations as tfidf_vector, and the same
        # correctly rounded norm, so every row equals `tfidf_vector` bit for bit.
        values *= vocab.idf_weights[indices]
        squares = (values * values).tolist()
        filled = row_lengths[row_lengths > 0]
        bounds = np.concatenate(([0], np.cumsum(filled))).tolist()
        norms = [_norm(squares[begin:end]) for begin, end in zip(bounds, bounds[1:])]
        values /= np.repeat(norms, filled)
    return row_lengths, indices, values
