"""Classifier training and prediction: multinomial NB, hinge-loss SGD, linear SVM.

All three classifiers reduce multiclass to one-vs-rest: one binary problem
per class label (labels sorted lexicographically), predicting by argmax of
the per-class decision scores with ties broken toward the lexicographically
smallest label. Each trainer takes (X, y, hyper): the training corpus as
one features.CorpusMatrix, its labels and one TrainHyperparams, which
checks every setting when it is built, so no trainer checks one again. It
reads the feature count from X and fits every class in one loop over a
(classes x features) weight matrix. The trainers share one frame.
`_classes` applies the label rule once: one label per row, every label
passing `corpus.check_field` (non-empty, no tab or line boundary), at
least two distinct labels. It returns the sorted labels and maps
each row to its class index by exact string lookup, so labels that differ
only by a trailing NUL are two classes. `_linear_model` builds every
trainer's LinearModel and per-class `fit_info`. Every trainer
returns a LinearModel, scored as w_c . x + b_c: `predict` labels a batch of
documents in the feature space of the model's vocabulary, and
`predict_tokenized` labels one document from the row that
`features.vectorize_document` returns, without building a one-row matrix;
a selector is only passed through to `features`. Every w . x of whole
rows but the SVM's per-step score is summed by `_block_dots` into an
array its caller passes (a block's scores, one document's row, or one
class's strided column of a block), each row on its own, so a document
scores the same bits alone as inside a corpus.

* Naive Bayes uses Lidstone smoothing and accepts real-valued non-negative
  feature weights, so TF-IDF inputs are as valid as raw counts. Its log
  joint log P(c) + sum_t x_t log P(t|c) is linear in x: the weights are the
  log likelihoods and the biases the log priors.
* The SGD trainer minimizes the L2-regularized mean hinge loss
  J(w, b) = (alpha/2) ||w||^2 + (1/n) sum max(0, 1 - y (w.x + b)) with the
  step schedule eta_t = 1 / (alpha (t0 + t)), t0 = 1/alpha, decaying across
  all updates, so the weight scale after t steps is t0 / (t0 + t). The bias
  is unregularized. Once the model fits, most steps leave every margin at 1
  or above and update nothing, so the trainer gathers each epoch's entries
  in step order once, scores consecutive steps in blocks of them and
  applies only the steps that update a class. The model equals that of a
  step-by-step loop unless a margin lies within rounding of exactly 1.
* The SVM trainer solves the L1-loss C-SVC dual by coordinate descent with
  the bias as a constant-1 feature, visiting the examples in a seeded
  random permutation on every pass, and stopping each class when its
  largest projected-gradient violation falls below the tolerance. During
  the fit the bias is the last row of one (features + 1, classes) weight
  matrix, as in LIBLINEAR (Fan et al., JMLR 2008). A visit copies the
  example's whole rows of that matrix out and back, the `ndarray.dot`
  method writes its two BLAS products into buffers allocated once per fit,
  and the clipped duals go straight into the one dual array, whose values
  at the start of each pass are kept in a record that the pass reads.

Every SGD epoch's and SVM pass's example order is a draw of `_orders`,
from CPython's MT19937 through `random.Random(seed).getrandbits`, whose
stream was the same under CPython 3.6 to 3.13, so the SGD and SVM model
bytes do not depend on the interpreter; no trainer imports `numpy.random`.

The classes share the seeded example order and, for SGD, the step size,
so every row of a trained model equals the model of its binary problem
trained alone: bit for bit for NB and SGD, within rounding for the SVM.
The SVM scores all classes of a step, bias included, with one
matrix-vector product, whose rounding depends on the number of classes; on
12-class corpora its rows differed from the rows trained alone by up to
1.9e-15. Training runs single-threaded. Trained models are immutable and
safe for concurrent prediction.

`save_model` writes a trained model as one JSON document (format version
4) that stores each fact once: the pipeline identity, the two preprocessing
tables (stopwords ascending, suffix rules in canonical order; the fixed
steps belong to the version), the vocabulary as its terms in ascending
order (a term's position is its feature index) with their document
frequencies, the class labels, a per-class `fit` block of solver
diagnostics (SGD and SVM only), and the weights and biases, each as the
base64 of its little-endian float64 bytes, in the shape that the labels and
the vocabulary fix. Nothing in it reads the clock, so the same corpus,
config and seed write the same bytes. Parameters round-trip bit for bit,
and saving a loaded model writes the same bytes. Model files are strict
JSON both ways: `save_model` writes no NaN or infinity, and `load_model`
reads them as any input file (`fileio.read_text`, `fileio.STRICT_JSON`),
checks each value as it decodes it, rejects other format versions (an
older file needs retraining) and names the file in every rejection.
"""

from __future__ import annotations

import base64
import json
import math
import operator
import random
import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, Literal, Sequence, get_args

import numpy as np

from .corpus import LabeledCorpus, check_field
from .errors import (
    ConvergenceWarning,
    LengthMismatchError,
    ModelFormatError,
    NegativeFeatureError,
    SingleClassError,
    UnreadableFileError,
    quoted,
)
from .features import (
    SELECTORS,
    CorpusMatrix,
    Selector,
    Vocabulary,
    build_feature_space,
    check_chi_settings,
    vectorize_corpus,
    vectorize_document,
)
from .fileio import STRICT_JSON, atomic_write_text, read_text
from .textprep import PreprocessConfig, TokenizedDocument, preprocess_corpus, token_table

MODEL_FORMAT_VERSION = 4
# The keys of a model file, in the order `save_model` writes them.
_MODEL_KEYS = ("format_version", "selector", "preprocessing", "vocabulary", "model_type",
               "class_labels", "fit", "weights", "biases")
_VOCABULARY_KEYS = ("n_docs", "terms", "doc_freq")

SVM_TOLERANCE = 1e-3
SVM_MAX_PASSES = 1000
# The largest SGD alpha; from about 1e16 the first decay rounds to 0.
SGD_ALPHA_MAX = 1e12

# The most rows (or SGD steps) scored in one block, and the most SGD gather
# positions offset by one arange (128 KB).
_BLOCK_ROWS = 32
_SGD_POSITION_CHUNK = 16_384
# The row starts of a one-row block, indexed by whether the row has entries.
_ONE_ROW_STARTS = (np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp))

Classifier = Literal["nb", "sgd", "svm"]
CLASSIFIERS: tuple[Classifier, ...] = get_args(Classifier)
# The timed stages of training, in the order they run.
TRAIN_STAGES = ("features", "vectorize", "fit")


@dataclass(frozen=True)
class TrainHyperparams:
    """Training knobs; the defaults are the reference configuration.

    Each field is the one declaration of its setting: its type, its default
    and, in `metadata["help"]`, the help of its CLI flag. Every field is
    checked here, when one is built, and the trainers trust it. A field
    declared `int` must be an exact int, one declared `float` an int or a
    float but not a bool. `features.check_chi_settings` checks the range of
    `chi_top_percent`; every other float must be positive and finite. The
    fields are checked in declaration order, each for its type and then its
    range, so of several bad fields the first declared is reported. Each
    rejection is a ValueError naming the field.
    """

    nb_alpha: float = field(default=0.01, metadata={"help": "NB smoothing"})
    sgd_alpha: float = field(default=0.0001, metadata={"help": "SGD L2 regularization strength"})
    sgd_epochs: int = field(default=50, metadata={"help": "SGD passes over the data"})
    svm_c: float = field(default=1.0, metadata={"help": "SVM soft-margin penalty"})
    seed: int = field(default=42, metadata={"help": "random seed for all shuffling"})
    chi_top_percent: float = field(
        default=30.0, metadata={"help": "share of each document's chi-ranked terms to keep"})

    def __post_init__(self) -> None:
        for spec in fields(self):
            name, value = spec.name, getattr(self, spec.name)
            if spec.type == "int":
                if type(value) is not int:
                    raise ValueError(f"{name} must be an integer, got {quoted(value)}")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {quoted(value)}")
            elif name == "chi_top_percent":
                check_chi_settings(value)
            elif not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
            if name == "sgd_alpha" and not (value <= SGD_ALPHA_MAX and math.isfinite(1.0 / value)):
                raise ValueError(f"sgd_alpha must be at most {SGD_ALPHA_MAX:g} and have a "
                                 f"finite reciprocal, got {value!r}")
            if name == "sgd_epochs" and value < 1:
                raise ValueError(f"sgd_epochs must be at least 1, got {value}")
            if name == "seed" and value < 0:
                raise ValueError(f"seed must be non-negative, got {value}")


@dataclass(eq=False)
class LinearModel:
    """One-vs-rest linear decision functions: score_c(x) = w_c . x + b_c.

    `fit_info` maps each class label to its trainer's diagnostics (None
    for NB). Models compare by identity: a field-wise `==` would compare
    arrays, which has no single truth value.
    """

    class_labels: tuple[str, ...]
    weights: np.ndarray  # shape (n_classes, vocabulary size)
    biases: np.ndarray  # shape (n_classes,)
    trainer_tag: Classifier
    fit_info: dict | None = None


@dataclass(eq=False)
class TrainedModel:
    """A fitted classifier (`model.trainer_tag`) bundled with its feature space
    (`vocabulary.selector`) and preprocessing config; compared by identity."""

    model: LinearModel
    vocabulary: Vocabulary
    preprocess_config: PreprocessConfig
    stage_seconds: dict[str, float]

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.model.class_labels

    @property
    def train_seconds(self) -> float:
        """Feature building, vectorization and fitting: the sum of `stage_seconds`."""
        return sum(self.stage_seconds.values())


def _classes(X: CorpusMatrix, y: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct labels, each passing `corpus.check_field`, and each
    row's class index: its label's position among them, by exact lookup."""
    if X.shape[0] != len(y):
        raise LengthMismatchError(f"{X.shape[0]} rows but {len(y)} labels")
    distinct = dict.fromkeys(y)  # in first-seen order, so the first bad label fails
    for label in distinct:
        check_field(label, "class label")
    labels = sorted(distinct)
    if len(labels) < 2:
        raise SingleClassError("training corpus has one class")
    index = {label: c for c, label in enumerate(labels)}
    return labels, np.fromiter(map(index.__getitem__, y), np.intp, len(y))


def _targets(classes: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, C) one-vs-rest targets: +1 where the example has the class, else -1."""
    return np.where(classes[:, None] == np.arange(n_classes), 1.0, -1.0)


def _linear_model(tag: Classifier, labels: list[str], weights: np.ndarray, biases: np.ndarray,
                  **fit_columns: np.ndarray) -> LinearModel:
    """The LinearModel whose row c is class labels[c]; `fit_info` maps each label
    to entry c of every fit column (1-D: a Python scalar, 2-D: an array row),
    or is None without columns (NB)."""
    rows = zip(*(column.tolist() if column.ndim == 1 else column
                 for column in fit_columns.values()))
    fit_info = {label: dict(zip(fit_columns, row)) for label, row in zip(labels, rows)}
    return LinearModel(tuple(labels), weights, biases, tag, fit_info or None)


def _check_width(n_features: int, coefficients: np.ndarray) -> None:
    if n_features != coefficients.shape[1]:
        raise ValueError(f"{n_features} features against a model of {coefficients.shape[1]}")


def _block_dots(
    coefficients: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    filled: np.ndarray,
    starts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write into `out`, (n_rows, C), the products coefficients @ x of a
    block of rows x laid end to end in `cols` and `vals`, or into `out`,
    (n_rows,), those of one (V,) coefficient row: one gather, one multiply
    and one reduceat. `out` may be strided, such as a column of a block's
    (n_rows, C) products. Row filled[k] starts at starts[k]; the other rows
    are empty and score 0.
    reduceat sums each row's products on their own, so a row scores the
    same bits alone as inside any block. (It sums from one start to the
    next, so it must not see an empty row.)"""
    products = coefficients.take(cols, axis=-1)
    products *= vals
    if len(starts) == len(out):  # no empty row: reduceat writes every row in place
        np.add.reduceat(products, starts, axis=-1, out=out.T)
    else:
        out.fill(0.0)
        out[filled] = np.add.reduceat(products, starts, axis=-1).T


def _scores(X: CorpusMatrix, coefficients: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n, C) scores coefficients @ x + offsets of every row x of X, summed by
    `_block_dots` _BLOCK_ROWS rows at a time, so the gathered products stay
    small."""
    _check_width(X.n_features, coefficients)
    n_rows = X.shape[0]
    scores = np.empty((n_rows, len(offsets)))
    bounds, lengths = X.indptr.tolist(), np.diff(X.indptr)
    for begin in range(0, n_rows, _BLOCK_ROWS):
        end = min(begin + _BLOCK_ROWS, n_rows)
        lo, hi = bounds[begin], bounds[end]
        filled = lengths[begin:end].nonzero()[0]
        starts = X.indptr[begin:end][filled] - lo
        _block_dots(coefficients, X.indices[lo:hi], X.values[lo:hi], filled, starts,
                    scores[begin:end])
    scores += offsets
    return scores


def _hinge_objectives(
    X: CorpusMatrix,
    targets: np.ndarray,
    weights: np.ndarray,
    biases: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Per-class L2-regularized mean hinge loss (alpha/2)||w_c||^2 + mean hinge."""
    hinge = np.maximum(0.0, 1.0 - targets * _scores(X, weights, biases))
    return 0.5 * alpha * np.einsum("ij,ij->i", weights, weights) + hinge.mean(axis=0)


def _orders(seed: int, n: int) -> Iterator[np.ndarray]:
    """Endless permutations of range(n) as intp arrays, one per epoch or pass,
    drawn from CPython's MT19937 through `random.Random(seed).getrandbits`.

    Each draw reads 64 * n random bits as n little-endian uint64 keys,
    overwrites each key's low (n - 1).bit_length() bits with its index, so
    no two keys are equal, sorts the keys and returns their low bits. With
    distinct keys the order does not depend on the sort algorithm. It does
    not use `numpy.random`, which costs about 2 MB of RSS to import, while
    `import numpy` loads `random` already."""
    source = random.Random(seed)
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    indices = np.arange(n, dtype=np.uint64)
    while True:
        keys = np.frombuffer(source.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8")
        keys = (keys & ~low) | indices
        keys.sort()
        yield (keys & low).astype(np.intp)


def train_nb(X: CorpusMatrix, y: Sequence[str], hyper: TrainHyperparams) -> LinearModel:
    """Fit multinomial NB with Lidstone smoothing alpha = `hyper.nb_alpha`.

    Per class c and feature t: likelihood(c, t) = (W(c,t) + alpha) /
    (W(c) + alpha * V), where W sums feature weights over the class's
    rows. The model's weights are the log likelihoods and its biases the
    log priors. Raises NegativeFeatureError on any negative weight,
    SingleClassError when fewer than two labels are present and ValueError
    when `hyper.nb_alpha` is too large or too small for a finite log likelihood.
    """
    alpha = hyper.nb_alpha
    labels, classes = _classes(X, y)
    if (X.values < 0).any():
        raise NegativeFeatureError(f"negative feature weight {X.values[X.values < 0][0]}")

    weight_sums = np.zeros((len(labels), X.n_features))
    np.add.at(weight_sums, (np.repeat(classes, np.diff(X.indptr)), X.indices), X.values)
    log_prior = np.log(np.bincount(classes, minlength=len(labels)) / len(y))
    totals = weight_sums.sum(axis=1, keepdims=True)
    with np.errstate(all="ignore"):  # an extreme alpha over- or underflows the ratio
        log_likelihood = np.log((weight_sums + alpha) / (totals + alpha * X.n_features))
    if not np.isfinite(log_likelihood).all():
        raise ValueError(f"nb_alpha {alpha!r} over {X.n_features} features "
                         "gives a non-finite log likelihood")
    return _linear_model("nb", labels, log_likelihood, log_prior)


def train_sgd(X: CorpusMatrix, y: Sequence[str], hyper: TrainHyperparams) -> LinearModel:
    """Train one-vs-rest hinge-loss SGD classifiers in one loop over the examples.

    The step size, the L2 decay and the seeded shuffle (a fresh `_orders`
    draw per epoch, from `random.Random(hyper.seed).getrandbits`) are the
    same for every class, so each step scores all classes at once and
    updates only the classes whose margin is below 1. The weights are kept
    as scale * v (Bottou, "Stochastic Gradient Descent Tricks", 2012), so
    the decay is a single multiply. The decays telescope to a scale of t0 / (t0 + t) after
    t steps, and step t adds x y eta_t / scale = x y to v, so v stays
    bounded and is never rescaled. TrainHyperparams rejects an alpha above
    SGD_ALPHA_MAX, whose first decay could round to 0.

    Most steps update no class, so the steps are scored in blocks rather
    than one at a time. Each epoch's step sizes and the scale before and
    after every step come from one vectorized schedule, and each epoch
    gathers its rows' entries and targets in step order once. A block of up
    to _BLOCK_ROWS consecutive steps is a slice of those arrays, scored
    by one `_block_dots`, each row with its own pre-decay scale and the
    current biases. The steps before the first margin below 1 change
    nothing; that step's update is applied as a single step would apply it,
    the whole block's rows are summed again by `_block_dots` for each
    updated class, straight into that class's column of the block's sums,
    and the scan goes on after the step, reading only the rows after it.
    An update reads the step's entries, step size and post-step scale once
    for all its classes, from Python lists of the epoch's schedule, takes
    each class's sign from its target (+1.0 or -1.0, so eta * target is
    exact) and adds to that class's row of v through a 1-D view. The block
    sums may run in a different order from a per-step dot product, which
    can matter only for a margin within rounding of exactly 1.

    Each row equals the model trained on its class alone, training is
    deterministic given (seed, corpus), and symmetric label swaps produce
    exactly mirrored weights. `fit_info` holds per class the objective
    after the first and the last epoch (`_hinge_objectives`, which scores
    the corpus with `_scores`) and `updates`, the number of steps whose
    margin for that class was below 1.
    """
    labels, classes = _classes(X, y)
    targets = _targets(classes, len(labels))
    alpha = hyper.sgd_alpha
    n_rows, n_classes = X.shape[0], len(labels)
    v = np.zeros((n_classes, X.n_features))
    v_rows = list(v)  # each class's row as a 1-D view
    biases = np.zeros(n_classes)
    updates = np.zeros(n_classes, dtype=int)
    scale = 1.0
    t0 = 1.0 / alpha
    orders = _orders(hyper.seed, n_rows)
    lengths = np.diff(X.indptr)
    # Each epoch's entries and targets in step order, gathered into the same
    # buffers every epoch.
    epoch_cols, epoch_vals = np.empty_like(X.indices), np.empty_like(X.values)
    epoch_targets = np.empty_like(targets)

    for epoch in range(hyper.sgd_epochs):
        order = next(orders)
        row_lengths = lengths[order]
        # Step k's row order[k] is entries offsets[k]:offsets[k + 1] of the
        # epoch's rows laid end to end, gathered from X once; a block is a
        # slice of them. Entry j of the epoch, in step k's row, is entry
        # X.indptr[order[k]] - offsets[k] + j of X; the j are added a chunk at
        # a time, so no epoch-long arange is allocated beside the positions.
        offsets = np.concatenate(([0], np.cumsum(row_lengths)))
        positions = (X.indptr[order] - offsets[:-1]).repeat(row_lengths)
        for lo in range(0, offsets[-1], _SGD_POSITION_CHUNK):
            hi = min(lo + _SGD_POSITION_CHUNK, offsets[-1])
            positions[lo:hi] += np.arange(lo, hi)
        # The positions are in range by construction; the default mode="raise"
        # would copy through a temporary buffer, twice as slow.
        X.indices.take(positions, out=epoch_cols, mode="clip")
        X.values.take(positions, out=epoch_vals, mode="clip")
        del positions  # before the objective or the next epoch's positions
        targets.take(order, axis=0, out=epoch_targets, mode="clip")
        offsets_list = offsets.tolist()
        etas = 1.0 / (alpha * (t0 + np.arange(epoch * n_rows + 1, (epoch + 1) * n_rows + 1)))
        # scales[k] is the scale before step k of the epoch and scales[k + 1]
        # the scale after it; accumulate multiplies in step order.
        scales = np.multiply.accumulate(np.concatenate(([scale], 1.0 - etas * alpha)))
        etas_list, scales_list = etas.tolist(), scales.tolist()
        begin = 0
        while begin < n_rows:
            end = min(begin + _BLOCK_ROWS, n_rows)
            lo, hi = offsets_list[begin], offsets_list[end]
            cols, vals = epoch_cols[lo:hi], epoch_vals[lo:hi]
            filled = row_lengths[begin:end].nonzero()[0]
            starts = offsets[begin:end][filled] - lo
            dots = np.empty((end - begin, n_classes))
            _block_dots(v, cols, vals, filled, starts, dots)
            block_targets = epoch_targets[begin:end]
            first = 0  # the block's first row not yet scanned
            while first < end - begin:
                below = (
                    block_targets[first:]
                    * (scales[begin + first : end, None] * dots[first:] + biases)
                    < 1.0
                )
                first_below = int(below.argmax())  # in step order
                if not below.item(first_below):
                    break
                step = begin + first + first_below // n_classes
                updated = below[first_below // n_classes]
                updates += updated
                row = slice(offsets_list[step] - lo, offsets_list[step + 1] - lo)
                step_cols, step_vals = cols[row], vals[row]
                eta, step_scale = etas_list[step], scales_list[step + 1]
                first = step - begin + 1
                for c in updated.nonzero()[0].tolist():
                    # The target is +1.0 or -1.0, so the product is exact.
                    change = eta * block_targets.item(step - begin, c)
                    v_rows[c][step_cols] += step_vals * (change / step_scale)
                    biases[c] += change
                    _block_dots(v_rows[c], cols, vals, filled, starts, dots[:, c])
            begin = end
        del etas_list, scales_list  # before the objective or the next epoch's positions
        scale = scales[-1]
        if epoch == 0:
            objective_epoch1 = _hinge_objectives(X, targets, scale * v, biases, alpha)

    weights = scale * v
    return _linear_model(
        "sgd", labels, weights, biases,
        objective_epoch1=objective_epoch1,
        objective_final=_hinge_objectives(X, targets, weights, biases, alpha),
        updates=updates,
    )


def _violations(margins: np.ndarray, betas: np.ndarray, targets: np.ndarray,
                c: float) -> np.ndarray:
    """Each class's largest projected-gradient violation: the largest |g| of
    the dual gradients g = margin - 1 projected onto the box 0 <= alpha <= C
    of each alpha = beta * t."""
    gradient, alphas = margins - 1.0, betas * targets
    projected = np.where(alphas <= 0.0, np.minimum(gradient, 0.0),
                         np.where(alphas >= c, np.maximum(gradient, 0.0), gradient))
    return np.abs(projected).max(axis=0)


def train_svm(X: CorpusMatrix, y: Sequence[str], hyper: TrainHyperparams) -> LinearModel:
    """Train one-vs-rest linear C-SVC classifiers by dual coordinate descent.

    Each pass visits the examples in a fresh permutation, an `_orders` draw
    from `random.Random(hyper.seed).getrandbits` (Hsieh et al., ICML
    2008), so corpora grouped by label converge and training is
    deterministic given (seed, corpus). All classes share the pass, and a
    class stops once its largest projected-gradient violation, measured
    again on the final iterate, is below SVM_TOLERANCE. A class still
    running after SVM_MAX_PASSES passes emits a ConvergenceWarning and is
    recorded as not converged in `fit_info`; the model is still returned.

    The bias is a constant-1 feature: during the fit the weights are one
    (V+1, C) matrix W whose row V is the bias, and every example carries
    the extra entry (V, 1.0) in one augmented copy of X. The duals are kept
    signed, beta = t * alpha for the example's target t, in the box
    [min(0, tC), max(0, tC)]; as t is +1 or -1, every beta rounds as
    t * alpha would. A step gathers the example's rows of W once, scores
    every class with them, clips each beta - (score - t) / q into its box
    (q = x . x + 1) and writes the rows back updated. A stopped class's box
    is pinned to its betas at the start of each pass, so its step is
    exactly zero and leaves its alphas and weights unchanged.

    W is also viewed as a 1-D array of whole rows (one void item per row),
    so the gather (`take`) and the write-back (a 1-D fancy index) copy a
    row per index. Three buffers serve every step of the fit: the gathered
    rows and the outer product x delta, each one row wider than the widest
    example, and delta. The betas live in one (n, C) array; each pass
    starts by copying it into a second, the record of the betas the pass
    started from, and a step reads the example's betas from that record
    and writes the clipped betas straight into the example's row of the
    live array. The `ndarray.dot` method, which skips the dispatch that
    `np.dot` runs on every call, writes the score into the step's score
    record and the outer product into its buffer; the product's inner
    dimension is 1, so each entry is x_k * delta_c rounded once, as
    `np.multiply.outer` would give. Each step's arrays are views built
    once, before the first pass: the example's rows of the per-example
    arrays, and the buffers' slices as wide as the example, one set of
    them per width, shared by every example of that width. A step is 11
    numpy calls. Each step records its scores; the pass's violation
    (`_violations`) is taken from those records and the starting betas
    once, after the pass. `fit_info` holds per class `updates`, the number
    of steps that changed the class's alpha, and `gap`, the duality gap
    relative to the primal objective: (primal - dual) / |primal|.
    """
    labels, classes = _classes(X, y)
    n_rows, n_classes, n_features = len(y), len(labels), X.n_features
    targets = _targets(classes, n_classes)
    c = hyper.svm_c
    W = np.zeros((n_features + 1, n_classes))
    indices = np.insert(X.indices, X.indptr[1:], n_features)
    values = np.insert(X.values, X.indptr[1:], 1.0)
    # The live betas, and each pass's record of the betas it started from.
    betas, visited = np.zeros((n_rows, n_classes)), np.empty((n_rows, n_classes))
    low, high = np.minimum(targets * c, 0.0), np.maximum(targets * c, 0.0)
    scores = np.empty((n_rows, n_classes))  # each pass's scores, by example
    # W and the gather buffer seen as 1-D arrays of whole rows, so a gather
    # or scatter copies one row per index.
    as_rows = np.dtype((np.void, W.itemsize * n_classes))
    W_rows = W.view(as_rows)[:, 0]
    widths = np.diff(X.indptr) + 1  # each example's entries and its bias entry
    gathered = np.empty((int(widths.max()), n_classes))
    gathered_rows = gathered.view(as_rows)[:, 0]
    products = np.empty_like(gathered)
    delta = np.empty((1, n_classes))
    delta_row = delta[0]  # a ufunc writes a 1-D `out` faster than a (1, C) one
    # Each example's augmented entries, curvature and rows of the
    # per-example arrays and the fit-wide buffers, as views built once; the
    # buffers' views depend only on the width, so one set serves each width.
    buffer_views = {width: (gathered[:width], gathered_rows[:width], products[:width])
                    for width in set(widths.tolist())}
    steps = []
    bounds = X.indptr.tolist()
    for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
        x = X.values[start:end]
        rows = slice(start + i, end + i + 1)
        steps.append((indices[rows], values[rows], values[rows, None], float(x @ x) + 1.0,
                       visited[i], betas[i], low[i], high[i], targets[i], scores[i])
                      + buffer_views[end - start + 1])
    orders = _orders(hyper.seed, n_rows)
    # Looked up once per fit rather than on every step.
    take, subtract, maximum, minimum = W_rows.take, np.subtract, np.maximum, np.minimum

    def unaugmented() -> tuple[np.ndarray, np.ndarray]:
        return np.ascontiguousarray(W[:n_features].T), W[n_features].copy()

    converged = np.zeros(n_classes, dtype=bool)
    passes = np.zeros(n_classes, dtype=int)
    updates = np.zeros(n_classes, dtype=int)
    violation = np.full(n_classes, np.inf)
    for _ in range(SVM_MAX_PASSES):
        running = ~converged
        if not running.any():
            break
        passes[running] += 1
        np.copyto(visited, betas)
        low[:, converged] = high[:, converged] = visited[:, converged]
        for i in next(orders).tolist():
            cols, x, x_column, q, b, s, lo, hi, t, score, local, local_rows, product = steps[i]
            # Every column is in range, so "clip" clips nothing; unlike the
            # default "raise", it writes into `out` without a buffered copy.
            take(cols, out=local_rows, mode="clip")
            x.dot(local, score)
            # beta - (score - t) / q is t * (alpha - gradient / q) to the bit.
            subtract(score, t, out=s)
            s /= q
            subtract(b, s, out=s)
            maximum(s, lo, out=s)
            minimum(s, hi, out=s)
            subtract(s, b, out=delta_row)
            # One term per entry: each is x_k * delta_c rounded once.
            x_column.dot(delta, product)
            local += product
            W_rows[cols] = local_rows
        updates += (betas != visited).sum(axis=0)
        sweep_violation = _violations(targets * scores, visited, targets, c)
        violation[running] = sweep_violation[running]
        # Gradients measured mid-sweep go stale as later updates move w, so
        # confirm convergence against the final iterate before stopping.
        check = running & (sweep_violation < SVM_TOLERANCE)
        if check.any():
            final = _violations(targets * _scores(X, *unaugmented()), betas, targets, c)
            violation[check] = final[check]
            converged |= check & (final < SVM_TOLERANCE)

    weights, biases = unaugmented()
    for row in (~converged).nonzero()[0].tolist():
        warnings.warn(
            f"SVM problem for class {labels[row]!r} stopped after {passes[row]} passes "
            f"with violation {violation[row]:.3e}",
            ConvergenceWarning,
            stacklevel=2,
        )
    margins = targets * _scores(X, weights, biases)
    squared_norms = np.einsum("ij,ij->i", weights, weights) + biases * biases
    hinge_sums = np.maximum(0.0, 1.0 - margins).sum(axis=0)
    by_class = (betas * targets).T.copy()  # row c is class c's alphas
    dual_objective = by_class.sum(axis=1) - 0.5 * squared_norms
    # Positive: at w = 0 and b = 0 every hinge term is 1, elsewhere the norm is.
    primal_objective = 0.5 * squared_norms + c * hinge_sums
    return _linear_model(
        "svm", labels, weights, biases,
        alphas=by_class,
        margins=margins.T.copy(),
        dual_objective=dual_objective,
        primal_objective=primal_objective,
        gap=(primal_objective - dual_objective) / np.abs(primal_objective),
        violation=violation,
        passes=passes,
        updates=updates,
        converged=converged,
    )


def _features(
    docs: Sequence[TokenizedDocument], selector: Selector, classifier: Classifier,
    hyper: TrainHyperparams,
) -> tuple[Vocabulary, CorpusMatrix, tuple[str, ...], list[float]]:
    """Check the classifier and the labels, then build the feature space and
    the training matrix from the token table of `docs`: the vocabulary, X,
    the labels and the clock read before, between and after the two stages.
    Nothing returned keeps `docs` or its table alive."""
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier: {classifier!r} (expected one of {CLASSIFIERS})")

    clock = [time.perf_counter()]
    table = token_table(docs)
    if None in table.labels:
        raise ValueError("training documents must carry labels")
    vocabulary = build_feature_space(table, selector, hyper.chi_top_percent)
    clock.append(time.perf_counter())
    X = vectorize_corpus(table, vocabulary)
    clock.append(time.perf_counter())
    return vocabulary, X, table.labels, clock


def _fit(
    vocabulary: Vocabulary,
    X: CorpusMatrix,
    labels: tuple[str, ...],
    clock: list[float],
    classifier: Classifier,
    hyper: TrainHyperparams,
    preprocess_config: PreprocessConfig,
) -> TrainedModel:
    """Fit one classifier on what `_features` returned, and time the fit."""
    # Built per call from the module's names, so a wrapper bound in a
    # trainer's place (a tracer, say) sees the call.
    trainer = {"nb": train_nb, "sgd": train_sgd, "svm": train_svm}[classifier]
    model = trainer(X, labels, hyper)
    clock.append(time.perf_counter())

    return TrainedModel(
        model=model,
        vocabulary=vocabulary,
        preprocess_config=preprocess_config,
        stage_seconds={
            stage: end - start for stage, start, end in zip(TRAIN_STAGES, clock, clock[1:])
        },
    )


def train_from_tokens(
    docs: Sequence[TokenizedDocument],
    selector: Selector,
    classifier: Classifier,
    hyper: TrainHyperparams,
    preprocess_config: PreprocessConfig,
) -> TrainedModel:
    """Build the feature space and fit one classifier on preprocessed docs,
    or on their `textprep.TokenTable`, which is read as it is.

    `features.build_feature_space` checks the selector and builds its space.
    `stage_seconds` times feature building ("features"), vectorization
    ("vectorize") and classifier fitting ("fit"); their sum,
    `train_seconds`, is the method-specific work the benchmark compares.
    """
    return _fit(*_features(docs, selector, classifier, hyper), classifier, hyper,
                preprocess_config)


def train(
    corpus: LabeledCorpus,
    selector: Selector,
    classifier: Classifier,
    hyper: TrainHyperparams,
    config: PreprocessConfig,
) -> TrainedModel:
    """Preprocess a labeled corpus and train one (selector, classifier)
    pipeline as `train_from_tokens` does. The preprocessed documents are
    freed once the features are built, so the fit runs without them."""
    return _fit(*_features(preprocess_corpus(corpus, config), selector, classifier, hyper),
                classifier, hyper, config)


def predict_linear(model: LinearModel, X: CorpusMatrix) -> tuple[list[str], np.ndarray]:
    """Labels and (n, C) decision scores w_c . x + b_c of every row of X: the
    argmax label, ties going to the lexicographically smallest label. An
    empty row scores the biases; for NB the scores are the log joints."""
    scores = _scores(X, model.weights, model.biases)
    return [model.class_labels[index] for index in scores.argmax(axis=1).tolist()], scores


# NB needs no scorer of its own. The name stays only because the benchmark's
# tracer (perfbench/tracing.py) still looks it up; it goes when that list does.
predict_nb = predict_linear


def predict(
    trained: TrainedModel, docs: Sequence[TokenizedDocument]
) -> tuple[list[str], np.ndarray]:
    """Labels and (n, C) per-class scores of preprocessed documents,
    vectorized in the model's stored feature space (`vectorize_corpus`)."""
    X = vectorize_corpus(docs, trained.vocabulary)
    return predict_linear(trained.model, X)


def predict_tokenized(
    trained: TrainedModel, doc: TokenizedDocument
) -> tuple[str, float, dict[str, float]]:
    """Predict one preprocessed document: (label, winning score, all scores).

    The row of `features.vectorize_document` is scored as it is, with the
    same arithmetic as its row of `predict`, to the same label and scores
    bit for bit.
    """
    model, vocab = trained.model, trained.vocabulary
    _check_width(len(vocab), model.weights)
    cols, vals = vectorize_document(doc, vocab)
    starts = _ONE_ROW_STARTS[cols.size > 0]
    dots = np.empty((1, len(model.biases)))
    _block_dots(model.weights, cols, vals, starts, starts, dots)
    scores = dots[0]
    scores += model.biases
    label = model.class_labels[int(scores.argmax())]
    row = dict(zip(model.class_labels, scores.tolist()))
    return label, row[label], row


# The per-class fit diagnostics a model file keeps and `-v` prints, with
# their JSON types, for the trainers that have any. Alphas, margins and
# timings stay out.
FIT_FIELDS: dict[str, dict[str, type]] = {
    "sgd": {"objective_epoch1": float, "objective_final": float, "updates": int},
    "svm": {"passes": int, "updates": int, "violation": float, "converged": bool, "gap": float},
}


# The JSON name of each type a model file holds: of one value and of a list of them.
_JSON_NAMES: dict[type, tuple[str, str]] = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    bool: ("a boolean", "booleans"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
    list: ("a list", "lists"),
}


def _typed(value: object, kind: type, key: str):
    """`value` if its type is exactly `kind`. `type`, not isinstance: JSON
    `true` loads as a bool, which isinstance counts as an int."""
    if type(value) is not kind:
        raise ModelFormatError(f"{key} must be {_JSON_NAMES[kind][0]}, got {quoted(value)}")
    return value


def _check_keys(payload: dict, keys: tuple[str, ...], where: str) -> None:
    """Reject the first key of `payload` that is not in `keys`."""
    for key in payload:
        if key not in keys:
            raise ModelFormatError(f"unknown {where} key {quoted(key)}")


def _typed_list(values: object, kind: type, key: str) -> list:
    """`values` if it is a list whose items' types are exactly `kind`."""
    if type(values) is not list or not set(map(type, values)) <= {kind}:
        raise ModelFormatError(f"{key} must be a list of {_JSON_NAMES[kind][1]}")
    return values


def _array_to_payload(values: np.ndarray) -> str:
    """The base64 of the little-endian float64 bytes, in C order."""
    return base64.b64encode(values.astype("<f8", copy=False).tobytes()).decode("ascii")


def _array_from_payload(text: object, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The parameter stored under `key`, if it is base64 of 8 bytes per value
    of `shape` and every value is finite."""
    try:
        raw = base64.b64decode(_typed(text, str, key), validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ModelFormatError(f"{key} is not valid base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ModelFormatError(f"{key} holds {len(raw)} bytes, not 8 per value of shape {shape}")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False).reshape(shape)
    if not np.isfinite(values).all():
        raise ModelFormatError(f"{key} has non-finite values")
    return values


def _vocabulary_to_payload(vocab: Vocabulary) -> dict:
    return {"n_docs": vocab.n_docs, "terms": list(vocab.terms), "doc_freq": list(vocab.doc_freq)}


def _vocabulary_from_payload(payload: object, selector: Selector) -> Vocabulary:
    """The `selector` vocabulary of the payload's JSON lists, if it holds no
    other key; Vocabulary checks their order, their lengths and that every
    document frequency is in [1, n_docs]."""
    payload = _typed(payload, dict, "vocabulary")
    _check_keys(payload, _VOCABULARY_KEYS, "vocabulary")
    return Vocabulary(
        terms=tuple(_typed_list(payload["terms"], str, "vocabulary terms")),
        doc_freq=tuple(_typed_list(payload["doc_freq"], int, "vocabulary doc_freq")),
        n_docs=_typed(payload["n_docs"], int, "n_docs"),
        selector=selector,
    )


def _preprocessing_to_payload(config: PreprocessConfig) -> dict:
    rules = [list(rule) for rule in config.suffix_table]
    return {"stopwords": sorted(config.stopword_list), "suffix_table": rules}


def _preprocessing_from_payload(payload: object) -> PreprocessConfig:
    """The config of the payload's tables, if the payload is what `save_model`
    writes for it; PreprocessConfig checks each rule (`validate_suffix_table`)."""
    payload = _typed(payload, dict, "preprocessing")
    stopwords = _typed_list(payload["stopwords"], str, "preprocessing stopwords")
    rules = _typed_list(payload["suffix_table"], list, "preprocessing suffix_table")
    config = PreprocessConfig(stopword_list=stopwords, suffix_table=rules)
    if payload != _preprocessing_to_payload(config):
        raise ModelFormatError("preprocessing must hold only its stopwords, once each in "
                               "ascending order, and its suffix rules in canonical order")
    return config


def _fit_to_payload(model: LinearModel) -> dict | None:
    kinds = FIT_FIELDS.get(model.trainer_tag)
    if kinds is None:
        return None
    return {
        label: {key: model.fit_info[label][key] for key in kinds}
        for label in model.class_labels
    }


def _fit_from_payload(fit: object, model_type: str, labels: list[str]) -> dict | None:
    kinds = FIT_FIELDS.get(model_type)
    if kinds is None:
        if fit is not None:
            raise ModelFormatError(f"a {model_type} model file has no fit block")
        return None
    if list(_typed(fit, dict, "fit")) != labels:
        raise ModelFormatError("the fit block's classes differ from class_labels")
    for label, info in fit.items():
        if set(_typed(info, dict, f"fit block of class {quoted(label)}")) != set(kinds):
            raise ModelFormatError(
                f"fit block of class {quoted(label)} must hold {', '.join(kinds)}"
            )
        for key, kind in kinds.items():
            _typed(info[key], kind, f"fit {key} of class {quoted(label)}")
    return fit


def model_to_dict(trained: TrainedModel) -> dict:
    """The model-file payload. Each parameter is stored as the base64 of its
    float64 bytes, so it round-trips exactly."""
    model = trained.model
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "selector": trained.vocabulary.selector,
        "preprocessing": _preprocessing_to_payload(trained.preprocess_config),
        "vocabulary": _vocabulary_to_payload(trained.vocabulary),
        "model_type": model.trainer_tag,
        "class_labels": list(model.class_labels),
        "fit": _fit_to_payload(model),
        "weights": _array_to_payload(model.weights),
        "biases": _array_to_payload(model.biases),
    }


def save_model(trained: TrainedModel, path: str | Path) -> None:
    """Write the model as one strict UTF-8 JSON document (atomic replace); a
    non-finite fit value raises ValueError and writes nothing."""
    atomic_write_text(
        path, json.dumps(model_to_dict(trained), ensure_ascii=False, allow_nan=False)
    )


def load_model(path: str | Path) -> TrainedModel:
    """Load a model file, checking each value as it is decoded. Every
    rejection is a ModelFormatError reading `invalid model file '<path>':
    <reason>`, the path quoted as repr(str(path)) and never cut. A value
    of the wrong JSON type reads `<key> must be an integer|a number|a
    boolean|a string|an object, got <value>` (cut by
    `errors.quoted`), or `<key> must be a list of integers|strings|lists`;
    types are exact, so `true` is not an integer and `1` is not a number. A
    missing key reads `missing key '<key>'`, and a key that `save_model`
    does not write, at the top level or in the vocabulary, reads `unknown
    top-level|vocabulary key '<key>'`. The other reasons are a file
    that cannot be read (`fileio.read_text`) or parsed (`fileio.STRICT_JSON`,
    which rejects NaN, infinities and repeated keys), a format version other
    than MODEL_FORMAT_VERSION (an older file needs retraining), an unknown
    model type, a preprocessing block that `save_model` would
    not write (a suffix rule that `textprep.validate_suffix_table` rejects,
    tables out of order, another key),
    class labels or vocabulary terms not in strictly ascending order, a
    class label that fails `corpus.check_field`, fewer than two class labels
    or no vocabulary term, a document frequency outside [1, n_docs], an
    n_docs above 2**53, an unknown selector (`features.check_selector`), a fit
    block whose classes or fields do not match, a parameter that is not
    base64 of 8 bytes per value of the shape the labels and the vocabulary
    fix, or a non-finite parameter."""
    try:
        payload = _typed(STRICT_JSON.decode(read_text(path)), dict, "top-level value")
        version = _typed(payload["format_version"], int, "format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"model format version {version} is not readable: this doccat reads "
                f"version {MODEL_FORMAT_VERSION} only, so retrain the model"
            )
        _check_keys(payload, _MODEL_KEYS, "top-level")
        selector = _typed(payload["selector"], str, "selector")
        model_type = _typed(payload["model_type"], str, "model_type")
        if model_type not in CLASSIFIERS:
            raise ModelFormatError(f"unknown model type {quoted(model_type)}")
        labels = _typed_list(payload["class_labels"], str, "class_labels")
        if not all(map(operator.lt, labels, labels[1:])):
            raise ModelFormatError("class_labels must be unique and in ascending order")
        for label in labels:
            check_field(label, "class label")
        if len(labels) < 2:
            raise ModelFormatError(
                f"class_labels holds {len(labels)} classes; a trained model has at least two"
            )
        vocabulary = _vocabulary_from_payload(payload["vocabulary"], selector)
        model = LinearModel(
            class_labels=tuple(labels),
            trainer_tag=model_type,
            fit_info=_fit_from_payload(payload["fit"], model_type, labels),
            weights=_array_from_payload(
                payload["weights"], "weights", (len(labels), len(vocabulary))
            ),
            biases=_array_from_payload(payload["biases"], "biases", (len(labels),)),
        )
        return TrainedModel(
            model=model,
            vocabulary=vocabulary,
            preprocess_config=_preprocessing_from_payload(payload["preprocessing"]),
            stage_seconds=dict.fromkeys(TRAIN_STAGES, 0.0),
        )
    except KeyError as exc:
        raise ModelFormatError(f"invalid model file {str(path)!r}: missing key {exc}") from exc
    except UnreadableFileError as exc:
        raise ModelFormatError(f"invalid model file {str(path)!r}: {exc.reason}") from exc
    # The decoder raises RecursionError on arrays or objects nested too deep.
    except (RecursionError, TypeError, ValueError, ModelFormatError) as exc:
        raise ModelFormatError(f"invalid model file {str(path)!r}: {exc}") from exc
