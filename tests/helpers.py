"""Shared test utilities: synthetic corpora and independent brute-force oracles.

The oracles here are written directly from the definitions and deliberately
share no code with the package so that agreement is meaningful; a path's
error is the one the OS gives (`os_error`).
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np

from doccat.corpus import LabeledCorpus, LabeledDocument
from doccat.features import CorpusMatrix, Vocabulary, _chi_chunks
from doccat.errors import SingleClassError
from doccat.models import LinearModel, TrainHyperparams, _orders, predict_linear
from doccat.textprep import (
    SENTENCE_DELIMITERS,
    STRIP_SYMBOLS,
    PreprocessConfig,
    TokenizedDocument,
    token_table,
)

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


def save_jsonl(corpus: LabeledCorpus, path: str | Path) -> None:
    """Write a corpus as JSONL; re-loading yields an identical corpus."""
    lines = [
        json.dumps({"id": doc.id, "text": doc.text, "label": doc.label}, ensure_ascii=False)
        for doc in corpus
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# Output paths, relative to a directory that `make_out_tree` fills: each
# way a path can be new, taken, missing its directory, under a file, end
# in a separator or end in `.` or `..` (which Path() would fold away), and
# a last component of 255 bytes, the longest that common file systems take.
OUT_PATHS = ("", "newfile", "newdir/", "adir/", "afile/", "afile/x", "afile/x/",
             "nodir/x", "nodir/x/", "adir", "afile", ".", "..", "afile/.", "new/.",
             "adir/.", "adir/..", "m" * 250 + ".json", "adir/" + "m" * 255)


def path_id(name: str) -> str:
    """A test id for `name`: its repr, each run of 50 or more equal
    characters written `<count char>`."""
    return repr(re.sub(r"(.)\1{49,}", lambda run: f"<{len(run[0])} {run[1]}>", name))


def make_out_tree(root: Path) -> None:
    """A file `afile` holding "kept" and an empty directory `adir`."""
    (root / "afile").write_text("kept", encoding="utf-8")
    (root / "adir").mkdir()


def assert_out_tree_kept(root: Path) -> None:
    """`root` holds just what `make_out_tree` made, bytes unchanged."""
    assert sorted(os.listdir(root)) == ["adir", "afile"] and os.listdir(root / "adir") == []
    assert (root / "afile").read_text(encoding="utf-8") == "kept"


def os_error(call) -> tuple[type, str] | None:
    """The type and message of the OSError that `call()` raises, or None."""
    try:
        call()
    except OSError as exc:
        return type(exc), str(exc)
    return None


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


def with_empty_rows(X, y, before, labels):
    """X and y with an empty row, labeled from `labels` in turn, inserted
    before each row index in `before` (X.shape[0] appends one)."""
    lengths = np.insert(np.diff(X.indptr), before, 0)
    y = list(y)
    for count, index in enumerate(sorted(before, reverse=True)):
        y.insert(index, labels[count % len(labels)])
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    return CorpusMatrix(indptr, X.indices, X.values, X.n_features), y


def predict_row(
    model: LinearModel, row: dict[int, float]
) -> tuple[str, dict[str, float]]:
    """(label, per-class scores) of one {feature index: weight} row."""
    (label,), scores = predict_linear(model, matrix([row], model.weights.shape[1]))
    return label, dict(zip(model.class_labels, scores[0].tolist()))


def reference_scores(
    X: CorpusMatrix, coefficients: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """(n, C) scores coefficients @ x + offsets of every row x of X: one
    np.add.reduceat over the whole corpus, as the package sums its blocks of
    rows (reduceat sums each row on its own). An empty row scores 0.
    """
    filled = np.flatnonzero(np.diff(X.indptr))
    products = coefficients[:, X.indices] * X.values
    scores = np.zeros((X.shape[0], len(offsets)))
    scores[filled] = np.add.reduceat(products, X.indptr[filled], axis=1).T
    return scores + offsets


def reference_train_sgd(
    X: CorpusMatrix, y: list[str], hyper: TrainHyperparams
) -> tuple[LinearModel, Counter]:
    """The per-step form of `models.train_sgd`, and the number of steps
    that updated each number of classes.

    Every step scores one example against all classes with a matrix-vector
    product, decays `scale` and updates the classes whose margin is below 1;
    nothing is batched. The example orders are an input, not what is
    checked, so they come from `models._orders` as the trainer's do. The
    objectives score the corpus with `reference_scores` and repeat the
    arithmetic of `models._hinge_objectives` operation for operation, so
    that `fit_info` can be compared bit for bit.
    """
    labels = sorted(set(y))
    if len(labels) < 2:
        raise SingleClassError("training corpus has one class")
    targets = np.where(np.asarray(y)[:, None] == np.asarray(labels)[None, :], 1.0, -1.0)
    alpha = hyper.sgd_alpha
    v = np.zeros((len(labels), X.n_features))
    biases = np.zeros(len(labels))
    updates = np.zeros(len(labels), dtype=int)
    classes_per_step: Counter = Counter()
    scale = 1.0
    t0 = 1.0 / alpha
    step = 0
    orders = _orders(hyper.seed, len(y))
    bounds = X.indptr.tolist()

    def objectives(weights):
        hinge = np.maximum(0.0, 1.0 - targets * reference_scores(X, weights, biases))
        return 0.5 * alpha * np.einsum("ij,ij->i", weights, weights) + hinge.mean(axis=0)

    for epoch in range(hyper.sgd_epochs):
        for i in next(orders).tolist():
            step += 1
            eta = 1.0 / (alpha * (t0 + step))
            start, end = bounds[i], bounds[i + 1]
            cols, x, t = X.indices[start:end], X.values[start:end], targets[i]
            margins = t * (scale * (v.take(cols, axis=1) @ x) + biases)
            scale *= 1.0 - eta * alpha
            rows = np.flatnonzero(margins < 1.0)
            classes_per_step[rows.size] += 1
            if rows.size:
                v[rows[:, None], cols] += (eta * t[rows] / scale)[:, None] * x
                biases[rows] += eta * t[rows]
                updates[rows] += 1
        if epoch == 0:
            objective_epoch1 = objectives(scale * v)

    weights = scale * v
    objective_final = objectives(weights)
    model = LinearModel(
        class_labels=tuple(labels),
        weights=weights,
        biases=biases,
        trainer_tag="sgd",
        fit_info={
            label: {
                "objective_epoch1": float(objective_epoch1[row]),
                "objective_final": float(objective_final[row]),
                "updates": int(updates[row]),
            }
            for row, label in enumerate(labels)
        },
    )
    return model, classes_per_step


def reference_train_svm(
    X: CorpusMatrix, y: list[str], hyper: TrainHyperparams, tolerance: float, max_passes: int
) -> LinearModel:
    """The per-step form of `models.train_svm`.

    The weights are one (V+1, C) matrix whose row V is the bias, and each
    example is its entries followed by (V, 1.0). Every step scores one
    example against all classes, accumulates the violation, and updates
    only the running classes whose alpha changes, through a 2-D fancy-index
    scatter; stopped classes are masked out. Each pass's order comes from
    `models._orders`, as the trainer's does. The pass-end check and
    `fit_info` score the corpus with `reference_scores` and repeat
    `models.train_svm` operation for operation, so the result can be
    compared bit for bit. No warning is emitted.
    """
    labels = sorted(set(y))
    if len(labels) < 2:
        raise SingleClassError("training corpus has one class")
    targets = np.where(np.asarray(y)[:, None] == np.asarray(labels)[None, :], 1.0, -1.0)
    n_classes = len(labels)
    c = hyper.svm_c
    alphas = np.zeros((len(y), n_classes))
    W = np.zeros((X.n_features + 1, n_classes))
    bounds = X.indptr.tolist()
    q_diag = [
        float(X.values[start:end] @ X.values[start:end]) + 1.0
        for start, end in zip(bounds, bounds[1:])
    ]
    orders = _orders(hyper.seed, len(y))

    def projected_gradient(gradient, alpha):
        return np.where(
            alpha <= 0.0,
            np.minimum(gradient, 0.0),
            np.where(alpha >= c, np.maximum(gradient, 0.0), gradient),
        )

    running = np.ones(n_classes, dtype=bool)
    converged = np.zeros(n_classes, dtype=bool)
    passes = np.zeros(n_classes, dtype=int)
    updates = np.zeros(n_classes, dtype=int)
    violation = np.full(n_classes, np.inf)
    for _ in range(max_passes):
        if not running.any():
            break
        passes[running] += 1
        sweep_violation = np.zeros(n_classes)
        for i in next(orders).tolist():
            start, end = bounds[i], bounds[i + 1]
            cols = np.append(X.indices[start:end], X.n_features)
            x = np.append(X.values[start:end], 1.0)
            t, a = targets[i], alphas[i]
            gradient = t * (x @ W.take(cols, axis=0)) - 1.0
            np.maximum(
                sweep_violation, np.abs(projected_gradient(gradient, a)), out=sweep_violation
            )
            updated = np.minimum(np.maximum(a - gradient / q_diag[i], 0.0), c)
            rows = np.flatnonzero(running & (updated != a))
            if rows.size:
                delta = (updated[rows] - a[rows]) * t[rows]
                a[rows] = updated[rows]
                W[cols[:, None], rows] += x[:, None] * delta
                updates[rows] += 1
        violation[running] = sweep_violation[running]
        check = running & (sweep_violation < tolerance)
        if check.any():
            margins = targets * reference_scores(X, W[:-1].T, W[-1])
            final = np.abs(projected_gradient(margins - 1.0, alphas)).max(axis=0)
            violation[check] = final[check]
            converged |= check & (final < tolerance)
            running &= ~converged

    weights, biases = W[:-1].T.copy(), W[-1].copy()
    margins = targets * reference_scores(X, weights, biases)
    squared_norms = np.einsum("ij,ij->i", weights, weights) + biases * biases
    hinge_sums = np.maximum(0.0, 1.0 - margins).sum(axis=0)
    dual = [float(alphas[:, row].sum() - 0.5 * squared_norms[row]) for row in range(len(labels))]
    primal = [float(0.5 * squared_norms[row] + c * hinge_sums[row]) for row in range(len(labels))]
    fit_info = {
        label: {
            "alphas": alphas[:, row].copy(),
            "margins": margins[:, row].copy(),
            "dual_objective": dual[row],
            "primal_objective": primal[row],
            "gap": (primal[row] - dual[row]) / abs(primal[row]),
            "violation": float(violation[row]),
            "passes": int(passes[row]),
            "updates": int(updates[row]),
            "converged": bool(converged[row]),
        }
        for row, label in enumerate(labels)
    }
    return LinearModel(
        class_labels=tuple(labels),
        weights=weights,
        biases=biases,
        trainer_tag="svm",
        fit_info=fit_info,
    )


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
    """The per-token pipeline, one step at a time: split the text on the
    sentence delimiters, trim each sentence and drop the empty ones; split
    each sentence on whitespace; per token strip symbols, lowercase and stem
    by walking the suffix table in order; then filter stopwords."""
    sentences = []
    for raw_sentence in re.split(f"[{re.escape(SENTENCE_DELIMITERS)}]", doc.text):
        raw_sentence = raw_sentence.strip()
        if not raw_sentence:
            continue
        tokens = []
        for raw_token in raw_sentence.split():
            token = "".join(ch for ch in raw_token if ch not in STRIP_SYMBOLS).lower()
            if not token:
                continue
            for suffix, min_stem in config.suffix_table:
                if len(token) - len(suffix) >= min_stem and token.endswith(suffix):
                    token = token[: -len(suffix)]
                    break
            tokens.append(token)
        tokens = [token for token in tokens if token not in config.stopword_list]
        if tokens:
            sentences.append(tuple(tokens))
    return TokenizedDocument(sentences=tuple(sentences), label=doc.label, doc_id=doc.id)


def chi_scores(doc: TokenizedDocument) -> dict[str, float]:
    """One document's chi-square scores by term, in ascending term order, read
    through `doccat.features._chi_chunks`, the scorer of `select_chi_features`;
    an empty document has none."""
    terms = sorted(set(doc.tokens()))
    chunks = list(_chi_chunks(token_table([doc])))
    return dict(zip(terms, chunks[0][2][0].tolist())) if chunks else {}


def reference_chi_scores(doc: TokenizedDocument) -> tuple[list[str], np.ndarray]:
    """The per-document form of the chi-square scorer in `doccat.features`:
    the document's distinct terms in sorted order and their scores.

    One document at a time, with its own (sentence, term) incidence matrix
    and no padding; the elementwise expressions and the partner order are
    those of the batched scorer, so the scores can be compared bit for bit.
    """
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

    # Rows are partners g, columns are terms w.
    observed = incidence.T @ incidence
    expected = np.outer(counts / counts.sum(), lengths @ incidence)
    deviation = observed - expected
    contribution = deviation * deviation / expected
    np.fill_diagonal(contribution, 0.0)  # g == w
    # Summing a C-contiguous (partner, term) array over axis 0 adds the
    # partners one after another in sorted order.
    return terms, contribution.sum(axis=0)


def reference_select_chi_features(docs: list[TokenizedDocument], top_percent: float) -> Vocabulary:
    """The per-document form of `doccat.features.select_chi_features`: score
    each document with `reference_chi_scores`, keep its top share ranked by
    (-score, term), and count document frequencies with a Counter."""
    kept: set[str] = set()
    doc_freq: Counter = Counter()
    for doc in docs:
        terms, scores = reference_chi_scores(doc)
        doc_freq.update(terms)
        keep = math.ceil(top_percent * len(terms) / 100.0)
        kept.update(terms[index] for index in np.argsort(-scores, kind="stable")[:keep].tolist())
    ordered = tuple(sorted(kept))
    return Vocabulary(
        terms=ordered, doc_freq=tuple(doc_freq[term] for term in ordered), n_docs=len(docs),
        selector="chi2",
    )


def reference_build_vocabulary(docs: list[TokenizedDocument]) -> Vocabulary:
    """`doccat.features.build_vocabulary` from the token strings: each
    document's distinct tokens counted with a Counter, the terms sorted."""
    doc_freq: Counter = Counter()
    for doc in docs:
        doc_freq.update(set(doc.tokens()))
    terms = tuple(sorted(doc_freq))
    return Vocabulary(
        terms=terms, doc_freq=tuple(doc_freq[term] for term in terms), n_docs=len(docs),
        selector="tfidf",
    )


def reference_vectorize_corpus(docs: list[TokenizedDocument], vocab: Vocabulary) -> CorpusMatrix:
    """`doccat.features.vectorize_corpus` from the token strings, one document
    at a time: a row counts the document's in-vocabulary tokens by term in
    ascending feature order; for "tfidf" each count is multiplied by
    ln((N + 1) / (DF + 1)) + 1 and the row divided by its Euclidean norm,
    the square root of the math.fsum of its squared weights."""
    column = {term: index for index, term in enumerate(vocab.terms)}
    indptr, indices, values = [0], [], []
    for doc in docs:
        counts = Counter(column[token] for token in doc.tokens() if token in column)
        row = sorted(counts)
        weights = np.array([float(counts[index]) for index in row])
        if vocab.selector == "tfidf" and row:
            weights *= np.array([
                math.log((vocab.n_docs + 1) / (vocab.doc_freq[index] + 1)) + 1.0 for index in row
            ])
            weights /= math.sqrt(math.fsum((weights * weights).tolist()))
        indices += row
        values += weights.tolist()
        indptr.append(len(indices))
    return CorpusMatrix(indptr, indices, values, len(vocab))


def chi_oracle(sentences: list[list[str]]) -> dict[str, float]:
    """Brute-force triple loop over the co-occurrence score definition."""
    tokens = [token for sentence in sentences for token in sentence]
    total = len(tokens)
    if total == 0:
        return {}
    distinct = sorted(set(tokens))
    scores = {}
    for w in distinct:
        containing = [sentence for sentence in sentences if w in sentence]
        n_w = sum(len(sentence) for sentence in containing)
        score = 0.0
        for g in distinct:
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
