"""Feature engineering: vocabularies, TF-IDF vectors, and chi-square selection.

Two pipelines are provided and used separately downstream:

* TF-IDF: raw term counts weighted by the smoothed inverse document
  frequency ``ln((N + 1) / (DF + 1)) + 1`` and scaled to unit Euclidean
  norm (length normalization).
* Chi-square: a per-document co-occurrence score ranks each document's
  terms; the top share of every document's ranking is kept and the union
  forms the vocabulary, vectorized with raw counts.

A corpus becomes one CorpusMatrix: a CSR matrix with one row per document
of ascending feature indices and their non-zero weights, checked once when
it is built and used as it is by the trainers and the scoring. A single
document is a one-row matrix.

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
hashing.

Note on n_w: a narrower reading of this family of scores takes n_w to be
w's own frequency within its sentences; this implementation deliberately
uses the total-token count so that p_g * n_w is the expected co-occurrence
frequency, which is what the squared deviation is measured against. A term
that appears in long sentences therefore co-occurs with more terms and
scores as more important.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .errors import EmptyVocabularyError
from .textprep import TokenizedDocument

ChiScoreTable = dict[str, float]

FeatureMode = Literal["tfidf", "counts"]


@dataclass(frozen=True)
class Vocabulary:
    """Term to feature-index map with document frequencies.

    Indices are dense 0-based and assigned in lexicographic term order, so
    the same documents always produce the same feature space. `terms` holds
    the terms in that order, so its keys are the feature space as the model
    file stores it.
    """

    terms: dict[str, int]
    doc_freq: dict[str, int]
    n_docs: int

    def __post_init__(self) -> None:
        terms = list(self.terms)
        if list(self.terms.values()) != list(range(len(terms))) or terms != sorted(terms):
            raise ValueError("vocabulary terms must map in ascending order to indices 0..V-1")
        if set(self.doc_freq) != set(self.terms):
            raise ValueError("doc_freq keys must match terms")
        for term, df in self.doc_freq.items():
            if not 1 <= df <= self.n_docs:
                raise ValueError(f"term {term!r}: DF {df} outside [1, {self.n_docs}]")

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.terms

    @cached_property
    def idf_weights(self) -> np.ndarray:
        """Read-only `idf` of every term, indexed by feature; computed once."""
        weights = np.empty(len(self.terms))
        for term, index in self.terms.items():
            weights[index] = idf(self.n_docs, self.doc_freq[term])
        weights.flags.writeable = False
        return weights


@dataclass(frozen=True, eq=False)
class CorpusMatrix:
    """A corpus as one immutable CSR matrix of shape (documents, n_features).

    Row i holds the feature `indices[indptr[i]:indptr[i + 1]]` (intp,
    strictly ascending within the row, in [0, n_features)) and their
    `values` (float64, finite and non-zero); zeros are omitted. A single
    document is a one-row matrix. The arrays are checked once here and
    marked read-only, arrays passed in included.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    n_features: int

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.intp)
        indices = np.asarray(self.indices, dtype=np.intp)
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
        # np.count_nonzero is the cheapest reduction on the short rows of
        # single documents.
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


def build_vocabulary(docs: Sequence[TokenizedDocument], min_df: int = 1) -> Vocabulary:
    """Collect all distinct tokens with document frequency >= min_df.

    Raises EmptyVocabularyError if nothing survives the threshold.
    """
    if not docs:
        raise ValueError("cannot build a vocabulary from zero documents")
    doc_freq: Counter[str] = Counter()
    for doc in docs:
        doc_freq.update(set(doc.tokens()))
    kept = sorted(term for term, df in doc_freq.items() if df >= min_df)
    if not kept:
        raise EmptyVocabularyError(f"no term reaches document frequency {min_df}")
    return Vocabulary(
        terms={term: index for index, term in enumerate(kept)},
        doc_freq={term: doc_freq[term] for term in kept},
        n_docs=len(docs),
    )


def idf(n_docs: int, df: int) -> float:
    """Smoothed inverse document frequency: ln((N + 1) / (DF + 1)) + 1.

    Equals exactly 1.0 when a term appears in every document and grows as
    the term gets rarer. Raises ValueError outside 1 <= df <= n_docs.
    """
    if df < 1 or df > n_docs:
        raise ValueError(f"DF must satisfy 1 <= DF <= N, got DF={df}, N={n_docs}")
    return math.log((n_docs + 1) / (df + 1)) + 1.0


def _check_g_top_k(g_top_k: int | None) -> None:
    if g_top_k is not None and g_top_k < 1:
        raise ValueError(f"g_top_k must be at least 1, got {g_top_k}")


def chi_score_document(doc: TokenizedDocument, g_top_k: int | None = None) -> ChiScoreTable:
    """Score every distinct term of one document by sentence co-occurrence.

    For each term w, the squared deviation of observed sentence-level
    co-occurrence from its expectation p_g * n_w is summed over the
    document's other distinct terms g (see the module docstring for the
    exact quantities). `g_top_k` optionally restricts g to the document's
    k most frequent terms (ties broken lexicographically); the default
    uses all terms; a k below 1 raises ValueError.

    An empty document yields an empty table; a term with no co-occurring
    terms scores 0.
    """
    _check_g_top_k(g_top_k)
    terms, scores = _chi_scores(doc, g_top_k)
    return dict(zip(terms, scores.tolist()))


def _chi_scores(doc: TokenizedDocument, g_top_k: int | None) -> tuple[list[str], np.ndarray]:
    """The document's distinct terms in sorted order and their chi scores."""
    token_counts = Counter(doc.tokens())
    terms = sorted(token_counts)
    if not terms:
        return terms, np.empty(0)
    column = {term: index for index, term in enumerate(terms)}
    counts = np.array([token_counts[term] for term in terms], dtype=np.float64)

    lengths = np.array([len(sentence) for sentence in doc.sentences], dtype=np.intp)
    incidence = np.zeros((len(lengths), len(terms)))
    incidence[
        np.repeat(np.arange(len(lengths)), lengths),
        [column[token] for sentence in doc.sentences for token in sentence],
    ] = 1.0

    # Column order is term order, so a stable sort ranks by (-count, term).
    partners = np.ones(len(terms), dtype=bool)
    if g_top_k is not None:
        partners[np.argsort(-counts, kind="stable")[g_top_k:]] = False
    rows = np.flatnonzero(partners)

    # Rows are partners g, columns are terms w.
    observed = (incidence.T @ incidence)[partners]
    expected = np.outer(counts[partners] / counts.sum(), lengths @ incidence)
    deviation = observed - expected
    contribution = deviation * deviation / expected
    contribution[np.arange(rows.size), rows] = 0.0  # g == w
    # Summing a C-contiguous (partner, term) array over axis 0 adds the
    # partners one after another in sorted order, so scores do not depend on
    # the process's string hashing.
    return terms, contribution.sum(axis=0)


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
    is identical to build_vocabulary(docs, min_df=1). A `g_top_k` below 1
    raises ValueError.
    """
    if not docs:
        raise ValueError("cannot select features from zero documents")
    if not 0.0 < top_percent <= 100.0:
        raise ValueError(f"top_percent must be in (0, 100], got {top_percent}")
    _check_g_top_k(g_top_k)

    kept_terms: set[str] = set()
    doc_freq: Counter[str] = Counter()
    for doc in docs:
        terms, scores = _chi_scores(doc, g_top_k)
        doc_freq.update(terms)
        keep = math.ceil(top_percent * len(terms) / 100.0)
        # Terms are in sorted order, so a stable sort ranks by (-score, term).
        ranked = np.argsort(-scores, kind="stable")[:keep]
        kept_terms.update(terms[index] for index in ranked.tolist())

    if not kept_terms:
        raise EmptyVocabularyError("chi-square selection kept no terms (all documents empty)")

    ordered = sorted(kept_terms)
    return Vocabulary(
        terms={term: index for index, term in enumerate(ordered)},
        doc_freq={term: doc_freq[term] for term in ordered},
        n_docs=len(docs),
    )


def count_vector(doc: TokenizedDocument, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """One document's in-vocabulary feature indices in first-occurrence order,
    and their raw counts; out-of-vocabulary tokens are ignored."""
    counts = Counter(map(vocab.terms.get, doc.tokens()))
    counts.pop(None, None)  # the out-of-vocabulary tokens
    indices = np.fromiter(counts.keys(), dtype=np.intp, count=len(counts))
    values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    return indices, values


def tfidf_vector(doc: TokenizedDocument, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """`count_vector` with each count weighted by its term's `idf` and the
    weights scaled to unit Euclidean norm, their squares summed in
    first-occurrence order. A document with no in-vocabulary token has no
    entries and is not normalized."""
    indices, weights = count_vector(doc, vocab)
    if indices.size:
        weights *= vocab.idf_weights[indices]
        weights /= math.sqrt(sum((weights * weights).tolist()))
    return indices, weights


def vectorize_corpus(
    docs: Sequence[TokenizedDocument], vocab: Vocabulary, mode: FeatureMode
) -> CorpusMatrix:
    """One row per document, in order: raw counts for "counts", unit-norm
    TF-IDF weights for "tfidf"."""
    vector = {"tfidf": tfidf_vector, "counts": count_vector}.get(mode)
    if vector is None:
        raise ValueError(f"unknown feature mode: {mode!r}")
    indptr, row_indices, row_values = [0], [], []
    for doc in docs:
        indices, values = vector(doc, vocab)
        order = np.argsort(indices)
        row_indices.append(indices[order])
        row_values.append(values[order])
        indptr.append(indptr[-1] + indices.size)
    if not docs:
        return CorpusMatrix(indptr, [], [], len(vocab))
    return CorpusMatrix(
        indptr, np.concatenate(row_indices), np.concatenate(row_values), len(vocab)
    )
