"""Shared test utilities: synthetic corpora and independent brute-force oracles.

The oracles here are written directly from the definitions and deliberately
share no code with the package so that agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from doccat.corpus import LabeledCorpus, LabeledDocument
from doccat.features import CorpusMatrix
from doccat.models import LinearModel, predict_linear
from doccat.textprep import PreprocessConfig, TokenizedDocument, split_sentences

CATEGORY_NAMES = (
    "accident", "art", "crime", "economics", "education", "entertainment",
    "environment", "international", "opinion", "politics", "science", "sports",
)

# Disjoint per-category keyword pools built from Bengali consonants. The
# terms end in consonants so the shipped stemmer never touches them, none
# collide with the shipped stopword list, and they contain no strip symbols.
_POOL_FIRST = "কখগঘচছজঝটঠডঢ"
_POOL_SECOND = "নপফবম"


def category_pools(n_categories: int = 12, pool_size: int = 5) -> dict[str, list[str]]:
    assert n_categories <= len(_POOL_FIRST) and pool_size <= len(_POOL_SECOND)
    pools = {}
    for c in range(n_categories):
        label = CATEGORY_NAMES[c]
        pools[label] = [
            _POOL_FIRST[c] + _POOL_SECOND[k] + _POOL_FIRST[c] for k in range(pool_size)
        ]
    return pools


def make_synthetic_corpus(
    docs_per_category: int,
    seed: int,
    n_categories: int = 12,
    pool_size: int = 5,
) -> LabeledCorpus:
    """Linearly separable corpus: each category draws only from its own pool."""
    rng = np.random.default_rng(seed)
    pools = category_pools(n_categories, pool_size)
    documents = []
    for label, pool in pools.items():
        for d in range(docs_per_category):
            n_sentences = int(rng.integers(1, 4))
            sentences = []
            for _ in range(n_sentences):
                n_tokens = int(rng.integers(2, 6))
                sentences.append(" ".join(rng.choice(pool) for _ in range(n_tokens)))
            text = "। ".join(sentences) + "।"
            documents.append(LabeledDocument(id=f"{label}-{d}", text=text, label=label))
    return LabeledCorpus(documents=tuple(documents))


# Consonants outside _POOL_FIRST: shared terms start with one, own-pool terms
# end with one, so the two kinds never collide. Like the pools above, every
# term ends in a bare consonant that no shipped suffix rule strips.
_OVERLAP_CONSONANTS = "তথদধ"


def make_overlapping_corpus(
    docs_per_category: int,
    seed: int,
    n_categories: int = 12,
    own_share: float = 0.3,
) -> LabeledCorpus:
    """Label-grouped corpus whose categories share most of their vocabulary.

    Each token comes from the document's own category pool with probability
    `own_share` and otherwise from one shared pool, unlike the disjoint
    pools of `make_synthetic_corpus`. Documents are listed category by
    category, as `load_dir` returns them.
    """
    assert n_categories <= len(_POOL_FIRST)
    rng = np.random.default_rng(seed)
    shared = [
        first + second + third
        for first in _OVERLAP_CONSONANTS
        for second in _POOL_SECOND
        for third in _POOL_FIRST[:5]
    ]
    documents = []
    for c in range(n_categories):
        label = CATEGORY_NAMES[c]
        own = [
            _POOL_FIRST[c] + second + third
            for second in _POOL_SECOND
            for third in _OVERLAP_CONSONANTS
        ]
        for d in range(docs_per_category):
            sentences = []
            for _ in range(int(rng.integers(2, 5))):
                n_tokens = int(rng.integers(4, 9))
                sentences.append(" ".join(
                    rng.choice(own) if rng.random() < own_share else rng.choice(shared)
                    for _ in range(n_tokens)
                ))
            text = "। ".join(sentences) + "।"
            documents.append(LabeledDocument(id=f"{label}-{d}", text=text, label=label))
    return LabeledCorpus(documents=tuple(documents))


def matrix(rows: list[dict[int, float]], n_features: int) -> CorpusMatrix:
    """A CorpusMatrix with one row per {feature index: weight} dict."""
    ordered = [sorted(row.items()) for row in rows]
    return CorpusMatrix(
        indptr=np.cumsum([0] + [len(row) for row in ordered]),
        indices=[index for row in ordered for index, _ in row],
        values=[weight for row in ordered for _, weight in row],
        n_features=n_features,
    )


def row_pairs(X: CorpusMatrix, row: int) -> list[tuple[int, float]]:
    """Row `row` of X as (feature index, weight) pairs."""
    start, end = X.indptr[row], X.indptr[row + 1]
    return list(zip(X.indices[start:end].tolist(), X.values[start:end].tolist()))


def predict_row(
    model: LinearModel, row: dict[int, float]
) -> tuple[str, dict[str, float]]:
    """(label, per-class scores) of one {feature index: weight} row."""
    (label,), scores = predict_linear(model, matrix([row], model.vocab_size))
    return label, dict(zip(model.class_labels, scores[0].tolist()))


def random_tokenized_doc(
    rng: np.random.Generator,
    max_sentences: int = 5,
    max_terms: int = 6,
    label: str | None = None,
) -> TokenizedDocument:
    """Random sentence-grouped document over a small term alphabet."""
    alphabet = ["ক", "খ", "গ", "ঘ", "ঙ", "চ"][: int(rng.integers(1, max_terms + 1))]
    n_sentences = int(rng.integers(1, max_sentences + 1))
    sentences = []
    for _ in range(n_sentences):
        n_tokens = int(rng.integers(1, 7))
        sentences.append(tuple(rng.choice(alphabet) for _ in range(n_tokens)))
    return TokenizedDocument(sentences=tuple(sentences), label=label)


def preprocess_oracle(doc: LabeledDocument, config: PreprocessConfig) -> TokenizedDocument:
    """The per-token pipeline, one step at a time: split each sentence on
    whitespace; per token strip symbols, lowercase and stem by walking the
    suffix table in order; then filter stopwords."""
    sentences = []
    for raw_sentence in split_sentences(doc.text):
        tokens = []
        for raw_token in raw_sentence.split():
            token = "".join(ch for ch in raw_token if ch not in config.strip_symbols)
            if not token:
                continue
            if config.lowercase_latin:
                token = token.lower()
            if config.enable_stemming:
                for suffix, min_stem in config.suffix_table:
                    if len(token) - len(suffix) >= min_stem and token.endswith(suffix):
                        token = token[: -len(suffix)]
                        break
            tokens.append(token)
        if config.enable_stopwords:
            tokens = [token for token in tokens if token not in config.stopword_list]
        if tokens:
            sentences.append(tuple(tokens))
    return TokenizedDocument(sentences=tuple(sentences), label=doc.label, doc_id=doc.id)


def chi_oracle(sentences: list[list[str]], g_top_k: int | None = None) -> dict[str, float]:
    """Brute-force triple loop over the co-occurrence score definition.

    With `g_top_k`, the partners g are the k most frequent terms, ties
    going to the lexicographically smaller term.
    """
    tokens = [token for sentence in sentences for token in sentence]
    total = len(tokens)
    if total == 0:
        return {}
    distinct = sorted(set(tokens))
    partners = distinct
    if g_top_k is not None:
        partners = sorted(distinct, key=lambda term: (-tokens.count(term), term))[:g_top_k]
    scores = {}
    for w in distinct:
        containing = [sentence for sentence in sentences if w in sentence]
        n_w = sum(len(sentence) for sentence in containing)
        score = 0.0
        for g in partners:
            if g == w:
                continue
            observed = sum(1 for sentence in sentences if w in sentence and g in sentence)
            expected = (tokens.count(g) / total) * n_w
            if expected > 0:
                score += (observed - expected) ** 2 / expected
        scores[w] = score
    return scores


def nb_oracle(
    rows: list[dict[int, float]], labels: list[str], alpha: float, n_features: int
) -> tuple[list[str], dict[str, float], dict[str, list[float]]]:
    """Direct Bayes computation: priors, smoothed likelihoods (not logged)."""
    classes = sorted(set(labels))
    priors = {c: labels.count(c) / len(labels) for c in classes}
    likelihoods = {}
    for c in classes:
        weight = [0.0] * n_features
        for row, label in zip(rows, labels):
            if label != c:
                continue
            for index, value in row.items():
                weight[index] += value
        total = sum(weight)
        likelihoods[c] = [(w + alpha) / (total + alpha * n_features) for w in weight]
    return classes, priors, likelihoods


def nb_oracle_predict(
    classes: list[str],
    priors: dict[str, float],
    likelihoods: dict[str, list[float]],
    x: dict[int, float],
) -> str:
    best_label, best_score = None, -math.inf
    for c in classes:  # sorted order makes ties lexicographic
        score = math.log(priors[c])
        for index, value in x.items():
            score += value * math.log(likelihoods[c][index])
        if score > best_score:
            best_label, best_score = c, score
    return best_label


def metrics_oracle(counts: list[list[int]]) -> dict[str, float]:
    """Independent macro metric computation from a square count matrix."""
    k = len(counts)
    precisions, recalls, f1s = [], [], []
    for i in range(k):
        tp = counts[i][i]
        col = sum(counts[r][i] for r in range(k))
        row = sum(counts[i])
        p = tp / col if col else 0.0
        r = tp / row if row else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    total = sum(sum(row) for row in counts)
    return {
        "macro_precision": sum(precisions) / k,
        "macro_recall": sum(recalls) / k,
        "macro_f1": sum(f1s) / k,
        "accuracy": sum(counts[i][i] for i in range(k)) / total,
        "per_class_precision": precisions,
        "per_class_recall": recalls,
        "per_class_f1": f1s,
    }
