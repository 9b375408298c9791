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
documents, and `predict_tokenized` labels one document from the row that
features.tfidf_vector or features.count_vector returns, without building a
one-row matrix. Every w . x of whole rows but the SVM's per-step gradient
is summed by `_block_dots`, which sums each row on its own, so a document
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
  largest projected-gradient violation falls below the tolerance.

The classes share the seeded example order and, for SGD, the step size,
so every row of a trained model equals the model of its binary problem
trained alone: bit for bit for NB and SGD, within rounding for the SVM.
The SVM scores all classes of a step with one matrix-vector product, whose
rounding depends on the number of classes; on a 12-class corpus its rows
differed from the rows trained alone by up to 1.6e-15. Training runs
single-threaded. Trained models are immutable and safe for concurrent
prediction.

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
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence

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
    CorpusMatrix,
    FeatureMode,
    Vocabulary,
    build_vocabulary,
    check_chi_settings,
    count_vector,
    select_chi_features,
    tfidf_vector,
    vectorize_corpus,
)
from .fileio import STRICT_JSON, atomic_write_text, read_text
from .textprep import PreprocessConfig, TokenizedDocument, preprocess_corpus

MODEL_FORMAT_VERSION = 4

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

SELECTORS = ("tfidf", "chi2")
# The feature mode each selector's pipeline vectorizes with.
FEATURE_MODES: dict[str, FeatureMode] = {"tfidf": "tfidf", "chi2": "counts"}
CLASSIFIERS = ("nb", "sgd", "svm")
# The timed stages of training, in the order they run.
TRAIN_STAGES = ("features", "vectorize", "fit")

Selector = Literal["tfidf", "chi2"]
Classifier = Literal["nb", "sgd", "svm"]


@dataclass(frozen=True)
class TrainHyperparams:
    """Training knobs; the defaults are the reference configuration.

    Every field is checked here, when one is built, and the trainers trust
    it. `sgd_epochs`, `seed` and a set `chi_g_top_k` must be exact ints, the
    other four ints or floats but not bools; `features.check_chi_settings`
    checks the two chi-square ranges. Each rejection is a ValueError naming
    the field.
    """

    nb_alpha: float = 0.01
    sgd_alpha: float = 0.0001
    sgd_epochs: int = 50
    svm_c: float = 1.0
    seed: int = 42
    chi_top_percent: float = 30.0
    chi_g_top_k: int | None = None

    def __post_init__(self) -> None:
        for name in ("nb_alpha", "sgd_alpha", "svm_c", "chi_top_percent"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {quoted(value)}")
            if name != "chi_top_percent" and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("sgd_epochs", "seed", "chi_g_top_k"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "chi_g_top_k" and value is None):
                raise ValueError(f"{name} must be an integer, got {quoted(value)}")
        if not (self.sgd_alpha <= SGD_ALPHA_MAX and math.isfinite(1.0 / self.sgd_alpha)):
            raise ValueError(f"sgd_alpha must be at most {SGD_ALPHA_MAX:g} and have a finite "
                             f"reciprocal, got {self.sgd_alpha!r}")
        if self.sgd_epochs < 1:
            raise ValueError(f"sgd_epochs must be at least 1, got {self.sgd_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        check_chi_settings(self.chi_top_percent, self.chi_g_top_k)


@dataclass(eq=False)
class LinearModel:
    """One-vs-rest linear decision functions: score_c(x) = w_c . x + b_c.

    `fit_info` maps each class label to its trainer's diagnostics (None
    for NB), and `converged` is derived from it. Models compare by
    identity: a field-wise `==` would compare arrays, which has no single
    truth value.
    """

    class_labels: tuple[str, ...]
    weights: np.ndarray  # shape (n_classes, vocabulary size)
    biases: np.ndarray  # shape (n_classes,)
    trainer_tag: Classifier
    fit_info: dict | None = None

    @property
    def converged(self) -> bool:
        """True when every class converged; a class whose `fit_info` has no
        `converged` entry counts as converged."""
        return all(info.get("converged", True) for info in (self.fit_info or {}).values())


@dataclass(eq=False)
class TrainedModel:
    """A fitted classifier bundled with its feature space, pipeline identity
    and preprocessing config; compared by identity, as its LinearModel is."""

    model: LinearModel
    vocabulary: Vocabulary
    selector: Selector
    preprocess_config: PreprocessConfig
    stage_seconds: dict[str, float]

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.model.class_labels

    @property
    def feature_mode(self) -> FeatureMode:
        return FEATURE_MODES[self.selector]

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
    n_rows: int,
) -> np.ndarray:
    """(n_rows, C) products coefficients @ x of a block of rows x laid end to
    end in `cols` and `vals`, or (n_rows,) for one (V,) coefficient row: one
    gather, one multiply and one reduceat. Row filled[k] starts at
    starts[k]; the other rows are empty and score 0.
    reduceat sums each row's products on their own, so a row scores the
    same bits alone as inside any block. (It sums from one start to the
    next, so it must not see an empty row.)"""
    products = coefficients.take(cols, axis=-1)
    products *= vals
    dots = np.zeros((n_rows, *coefficients.shape[:-1]))
    if len(starts) == n_rows:  # no empty row: reduceat writes every row in place
        np.add.reduceat(products, starts, axis=-1, out=dots.T)
    else:
        dots[filled] = np.add.reduceat(products, starts, axis=-1).T
    return dots


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
        scores[begin:end] = _block_dots(
            coefficients, X.indices[lo:hi], X.values[lo:hi], filled, starts, end - begin
        )
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

    The step size, the L2 decay and the seeded shuffle are the same for
    every class, so each step scores all classes at once and updates only
    the classes whose margin is below 1. The weights are kept as scale * v
    (Bottou, "Stochastic Gradient Descent Tricks", 2012), so the decay is a
    single multiply. The decays telescope to a scale of t0 / (t0 + t) after
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
    updated class, and the scan goes on after the step, reading only the
    rows after it. The block sums may run in a different order from a
    per-step dot product, which can matter only for a margin within
    rounding of exactly 1.

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
    biases = np.zeros(n_classes)
    updates = np.zeros(n_classes, dtype=int)
    scale = 1.0
    t0 = 1.0 / alpha
    rng = np.random.default_rng(hyper.seed)
    lengths = np.diff(X.indptr)
    # Each epoch's entries and targets in step order, gathered into the same
    # buffers every epoch.
    epoch_cols, epoch_vals = np.empty_like(X.indices), np.empty_like(X.values)
    epoch_targets = np.empty_like(targets)

    for epoch in range(hyper.sgd_epochs):
        order = rng.permutation(n_rows)
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
        begin = 0
        while begin < n_rows:
            end = min(begin + _BLOCK_ROWS, n_rows)
            lo, hi = offsets_list[begin], offsets_list[end]
            cols, vals = epoch_cols[lo:hi], epoch_vals[lo:hi]
            filled = row_lengths[begin:end].nonzero()[0]
            starts = offsets[begin:end][filled] - lo
            dots = _block_dots(v, cols, vals, filled, starts, end - begin)
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
                first = step - begin + 1
                for c in updated.nonzero()[0].tolist():
                    change = etas[step] * block_targets[step - begin, c]
                    v[c, cols[row]] += vals[row] * (change / scales[step + 1])
                    biases[c] += change
                    dots[:, c] = _block_dots(v[c], cols, vals, filled, starts, end - begin)
            begin = end
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


def _projected_gradient(gradient: np.ndarray, alpha: np.ndarray, c: float) -> np.ndarray:
    """The dual gradient projected onto the box 0 <= alpha <= C, elementwise."""
    return np.where(
        alpha <= 0.0,
        np.minimum(gradient, 0.0),
        np.where(alpha >= c, np.maximum(gradient, 0.0), gradient),
    )


def train_svm(X: CorpusMatrix, y: Sequence[str], hyper: TrainHyperparams) -> LinearModel:
    """Train one-vs-rest linear C-SVC classifiers by dual coordinate descent.

    Each pass visits the examples in a fresh permutation drawn from a
    generator seeded with `hyper.seed` (Hsieh et al., ICML 2008), so corpora
    grouped by label converge and training is deterministic given (seed,
    corpus). All classes share the pass, and a class stops once its largest
    projected-gradient violation, measured again on the final iterate, is
    below SVM_TOLERANCE. The bias is a constant-1 feature kept in its own
    vector. A class still running after SVM_MAX_PASSES passes emits a
    ConvergenceWarning and is recorded as not converged in `fit_info`; the
    model is still returned.

    A step gathers the example's columns of the weight matrix once, scores
    every class with them and writes them back updated. A stopped class's
    curvature is infinite for the pass, so its step is exactly zero and
    leaves its alpha and weights unchanged. Each step records its gradients,
    and each pass copies the alphas it starts from (every example is visited
    once per pass); the pass's violation is taken from those records once,
    after the pass. `fit_info` holds per class `updates`, the number of
    steps that changed the class's alpha, and `gap`, the duality gap
    relative to the primal objective: (primal - dual) / |primal|.
    """
    labels, classes = _classes(X, y)
    n_rows, n_classes = len(y), len(labels)
    targets = _targets(classes, n_classes)
    c = hyper.svm_c
    alphas = np.zeros((n_rows, n_classes))
    weights = np.zeros((n_classes, X.n_features))
    biases = np.zeros(n_classes)
    bounds = X.indptr.tolist()
    q_diag = np.array([
        float(X.values[start:end] @ X.values[start:end]) + 1.0
        for start, end in zip(bounds, bounds[1:])
    ])
    rng = np.random.default_rng(hyper.seed)
    # Each pass's gradient and starting alphas of every step, by example.
    gradients = np.empty((n_rows, n_classes))
    visited = np.empty((n_rows, n_classes))

    running = np.ones(n_classes, dtype=bool)
    converged = np.zeros(n_classes, dtype=bool)
    passes = np.zeros(n_classes, dtype=int)
    updates = np.zeros(n_classes, dtype=int)
    violation = np.full(n_classes, np.inf)
    for _ in range(SVM_MAX_PASSES):
        if not running.any():
            break
        passes[running] += 1
        curvature = q_diag[:, None] * np.where(running, 1.0, np.inf)
        np.copyto(visited, alphas)
        for i in rng.permutation(n_rows).tolist():
            start, end = bounds[i], bounds[i + 1]
            cols, x = X.indices[start:end], X.values[start:end]
            t, a = targets[i], alphas[i]
            local = weights.take(cols, axis=1)
            gradient = t * (local @ x + biases) - 1.0
            gradients[i] = gradient
            updated = np.minimum(np.maximum(a - gradient / curvature[i], 0.0), c)
            # A zero projected gradient leaves `updated` equal to `a`, and
            # then the zero delta leaves the weights and the bias as they are.
            delta = (updated - a) * t
            a[:] = updated
            local += delta[:, None] * x
            weights[:, cols] = local
            biases += delta
        updates += (alphas != visited).sum(axis=0)
        sweep_violation = np.abs(_projected_gradient(gradients, visited, c)).max(axis=0)
        violation[running] = sweep_violation[running]
        # Gradients measured mid-sweep go stale as later updates move w, so
        # confirm convergence against the final iterate before stopping.
        check = running & (sweep_violation < SVM_TOLERANCE)
        if check.any():
            margins = targets * _scores(X, weights, biases)
            final = np.abs(_projected_gradient(margins - 1.0, alphas, c)).max(axis=0)
            violation[check] = final[check]
            converged |= check & (final < SVM_TOLERANCE)
            running &= ~converged

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
    by_class = alphas.T.copy()  # row c is class c's alphas
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


def train_from_tokens(
    docs: Sequence[TokenizedDocument],
    selector: Selector,
    classifier: Classifier,
    hyper: TrainHyperparams,
    preprocess_config: PreprocessConfig,
) -> TrainedModel:
    """Build the feature space and fit one classifier on preprocessed docs.

    `stage_seconds` times feature building ("features"), vectorization
    ("vectorize") and classifier fitting ("fit"); their sum,
    `train_seconds`, is the method-specific work the benchmark compares.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector: {selector!r} (expected one of {SELECTORS})")
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier: {classifier!r} (expected one of {CLASSIFIERS})")
    labels = [doc.label for doc in docs]
    if any(label is None for label in labels):
        raise ValueError("training documents must carry labels")

    clock = [time.perf_counter()]
    if selector == "tfidf":
        vocabulary = build_vocabulary(docs)
    else:
        vocabulary = select_chi_features(docs, hyper.chi_top_percent, hyper.chi_g_top_k)
    clock.append(time.perf_counter())
    X = vectorize_corpus(docs, vocabulary, FEATURE_MODES[selector])
    clock.append(time.perf_counter())

    # Built per call from the module's names, so a wrapper bound in a
    # trainer's place (a tracer, say) sees the call.
    trainer = {"nb": train_nb, "sgd": train_sgd, "svm": train_svm}[classifier]
    model = trainer(X, labels, hyper)
    clock.append(time.perf_counter())

    return TrainedModel(
        model=model,
        vocabulary=vocabulary,
        selector=selector,
        preprocess_config=preprocess_config,
        stage_seconds={
            stage: end - start for stage, start, end in zip(TRAIN_STAGES, clock, clock[1:])
        },
    )


def train(
    corpus: LabeledCorpus,
    selector: Selector,
    classifier: Classifier,
    hyper: TrainHyperparams,
    config: PreprocessConfig,
) -> TrainedModel:
    """Preprocess a labeled corpus and train one (selector, classifier) pipeline."""
    docs = preprocess_corpus(corpus, config)
    return train_from_tokens(docs, selector, classifier, hyper, config)


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
    vectorized in the model's stored feature space."""
    X = vectorize_corpus(docs, trained.vocabulary, trained.feature_mode)
    return predict_linear(trained.model, X)


def predict_tokenized(
    trained: TrainedModel, doc: TokenizedDocument
) -> tuple[str, float, dict[str, float]]:
    """Predict one preprocessed document: (label, winning score, all scores).

    The document's row is scored as it is, with the same arithmetic as its
    row of `predict`, so the label and scores are the same bit for bit.
    """
    model = trained.model
    _check_width(len(trained.vocabulary), model.weights)
    # Both builders are looked up by name on every call, so a wrapper bound
    # in their place (a tracer, say) sees each row.
    vector = tfidf_vector if trained.feature_mode == "tfidf" else count_vector
    cols, vals = vector(doc, trained.vocabulary)
    starts = _ONE_ROW_STARTS[cols.size > 0]
    scores = _block_dots(model.weights, cols, vals, starts, starts, 1)[0]
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


def _vocabulary_from_payload(payload: object) -> Vocabulary:
    """The vocabulary of the payload's JSON lists; Vocabulary checks their
    order, their lengths and that every document frequency is in [1, n_docs]."""
    payload = _typed(payload, dict, "vocabulary")
    return Vocabulary(
        terms=tuple(_typed_list(payload["terms"], str, "vocabulary terms")),
        doc_freq=tuple(_typed_list(payload["doc_freq"], int, "vocabulary doc_freq")),
        n_docs=_typed(payload["n_docs"], int, "n_docs"),
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
    for rule in rules:
        if list(map(type, rule)) != [str, int]:
            raise ModelFormatError(f"suffix rule must be [string, integer], got {quoted(rule)}")
    config = PreprocessConfig(stopword_list=stopwords, suffix_table=rules)
    if payload != _preprocessing_to_payload(config):
        raise ModelFormatError("preprocessing must hold only its stopwords, once each in "
                               "ascending order, and its suffix rules in canonical order")
    return config


def _fit_to_payload(model: LinearModel) -> dict | None:
    fields = FIT_FIELDS.get(model.trainer_tag)
    if fields is None:
        return None
    return {
        label: {key: model.fit_info[label][key] for key in fields}
        for label in model.class_labels
    }


def _fit_from_payload(fit: object, model_type: str, labels: list[str]) -> dict | None:
    fields = FIT_FIELDS.get(model_type)
    if fields is None:
        if fit is not None:
            raise ModelFormatError(f"a {model_type} model file has no fit block")
        return None
    if list(_typed(fit, dict, "fit")) != labels:
        raise ModelFormatError("the fit block's classes differ from class_labels")
    for label, info in fit.items():
        if set(_typed(info, dict, f"fit block of class {quoted(label)}")) != set(fields):
            raise ModelFormatError(
                f"fit block of class {quoted(label)} must hold {', '.join(fields)}"
            )
        for key, kind in fields.items():
            _typed(info[key], kind, f"fit {key} of class {quoted(label)}")
    return fit


def model_to_dict(trained: TrainedModel) -> dict:
    """The model-file payload. Each parameter is stored as the base64 of its
    float64 bytes, so it round-trips exactly."""
    model = trained.model
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "selector": trained.selector,
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
    rejection is a ModelFormatError reading `invalid model file <path>:
    <reason>`. A value of the wrong JSON type reads `<key> must be an
    integer|a number|a boolean|a string|an object, got <value>` (cut by
    `errors.quoted`), or `<key> must be a list of integers|strings|lists`;
    types are exact, so `true` is not an integer and `1` is not a number. A
    missing key reads `missing key '<key>'`. The other reasons are a file
    that cannot be read (`fileio.read_text`) or parsed (`fileio.STRICT_JSON`,
    which rejects NaN, infinities and repeated keys), a format version other
    than MODEL_FORMAT_VERSION (an older file needs retraining), an unknown
    selector or model type, a preprocessing block that `save_model` would
    not write (a suffix rule that is no [string, integer] pair or fails
    `textprep.validate_suffix_table`, tables out of order, another key),
    class labels or vocabulary terms not in strictly ascending order, a
    class label that fails `corpus.check_field`, fewer than two class labels
    or no vocabulary term, a document frequency outside [1, n_docs], a fit
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
        selector = _typed(payload["selector"], str, "selector")
        if selector not in SELECTORS:
            raise ModelFormatError(f"unknown selector {quoted(selector)}")
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
        vocabulary = _vocabulary_from_payload(payload["vocabulary"])
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
            selector=selector,
            preprocess_config=_preprocessing_from_payload(payload["preprocessing"]),
            stage_seconds=dict.fromkeys(TRAIN_STAGES, 0.0),
        )
    except KeyError as exc:
        raise ModelFormatError(f"invalid model file {path}: missing key {exc}") from exc
    except UnreadableFileError as exc:
        raise ModelFormatError(f"invalid model file {path}: {exc.reason}") from exc
    # The decoder raises RecursionError on arrays or objects nested too deep.
    except (RecursionError, TypeError, ValueError, ModelFormatError) as exc:
        raise ModelFormatError(f"invalid model file {path}: {exc}") from exc
