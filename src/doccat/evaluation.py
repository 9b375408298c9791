"""Evaluation metrics and the six-way benchmark harness.

Metric conventions:

* precision(c) = TP / (TP + FP) and recall(c) = TP / (TP + FN), both 0 when
  the denominator is 0; f1 is their harmonic mean, 0 when both are 0.
* Macro averages are the unweighted mean of the per-class values over every
  label in the matrix, zero-denominator classes included. Macro-F1 is the
  mean of per-class F1, not the harmonic mean of macro-P and macro-R.
* accuracy = trace / total.

The benchmark trains and evaluates the paper's six pipelines, the rows of
PIPELINES, on a shared preprocessing pass, and writes one model and one
report per pipeline plus a plottable `comparison.tsv`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import LabeledCorpus
from .errors import (
    LengthMismatchError, PreprocessMismatchError, SingleClassError, UnknownLabelError,
)
from .features import vectorize_corpus
from .fileio import atomic_write_text, check_out_dir
from .models import (
    Classifier,
    Selector,
    TrainedModel,
    TrainHyperparams,
    predict_linear,
    save_model,
    train_from_tokens,
)
from .textprep import PreprocessConfig, TokenTable, preprocess_corpus, token_table

# The paper's results table: each method's name and its (selector,
# classifier) pipeline, in the table's row order.
PIPELINES: dict[str, tuple[Selector, Classifier]] = {
    "CHI-SQUARE+SGD": ("chi2", "sgd"),
    "TFIDF+SGD": ("tfidf", "sgd"),
    "CHI-SQUARE+NB": ("chi2", "nb"),
    "TFIDF+NB": ("tfidf", "nb"),
    "CHI-SQUARE+SVM": ("chi2", "svm"),
    "TFIDF+SVM": ("tfidf", "svm"),
}
METHOD_ORDER: tuple[str, ...] = tuple(PIPELINES)
_METHOD_NAMES = {pipeline: name for name, pipeline in PIPELINES.items()}

# The timed stages of prediction, in the order they run.
PREDICT_STAGES = ("vectorize", "score")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix: rows are true labels, columns predicted labels."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class EvaluationReport:
    """One benchmark row: per-class and macro P/R/F1, accuracy, wall times.

    `stage_seconds` times the model's training stages and
    `predict_stage_seconds` the PREDICT_STAGES; `train_seconds` and
    `predict_seconds` are their sums. `preprocess_seconds` is the time spent
    preprocessing the scored test documents and building their token table.
    """

    method_name: str
    per_class: dict[str, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    confusion: ConfusionMatrix
    preprocess_seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    predict_stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def train_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def predict_seconds(self) -> float:
        return sum(self.predict_stage_seconds.values())


@dataclass
class BenchmarkResult:
    reports: list[EvaluationReport] = field(default_factory=list)
    failures: list[tuple[str, Exception]] = field(default_factory=list)


def confusion_matrix(
    y_true: Sequence[str], y_pred: Sequence[str], label_order: Sequence[str]
) -> ConfusionMatrix:
    """Count (true, predicted) pairs over a fixed label order."""
    if len(y_true) != len(y_pred):
        raise LengthMismatchError(f"{len(y_true)} true labels but {len(y_pred)} predictions")
    if not y_true:
        raise LengthMismatchError("cannot build a confusion matrix from zero documents")
    index = {label: i for i, label in enumerate(label_order)}
    counts = [[0] * len(label_order) for _ in label_order]
    for true, pred in zip(y_true, y_pred):
        if true not in index:
            raise UnknownLabelError(true)
        if pred not in index:
            raise UnknownLabelError(pred)
        counts[index[true]][index[pred]] += 1
    return ConfusionMatrix(
        labels=tuple(label_order), counts=tuple(tuple(row) for row in counts)
    )


def metrics_from_matrix(cm: ConfusionMatrix) -> EvaluationReport:
    """Compute per-class and macro metrics from a confusion matrix. The
    macro averages sum the per-class values with math.fsum, correctly
    rounded, so they do not depend on the Python version."""
    per_class: dict[str, ClassMetrics] = {}
    for i, label in enumerate(cm.labels):
        tp = cm.counts[i][i]
        predicted = sum(cm.counts[row][i] for row in range(len(cm.labels)))
        actual = sum(cm.counts[i])
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = ClassMetrics(precision=precision, recall=recall, f1=f1)

    k = len(cm.labels)
    trace = sum(cm.counts[i][i] for i in range(k))
    return EvaluationReport(
        method_name="",
        per_class=per_class,
        macro_precision=math.fsum(m.precision for m in per_class.values()) / k,
        macro_recall=math.fsum(m.recall for m in per_class.values()) / k,
        macro_f1=math.fsum(m.f1 for m in per_class.values()) / k,
        accuracy=trace / cm.total,
        confusion=cm,
    )


def _check_labels(corpus: LabeledCorpus, known: Sequence[str]) -> None:
    """Raise UnknownLabelError for the first label of `corpus`, in sorted
    order, that is not in `known`."""
    known = set(known)
    for label in corpus.labels:
        if label not in known:
            raise UnknownLabelError(label)


def _timed_preprocess(corpus: LabeledCorpus, config: PreprocessConfig) -> tuple[TokenTable, float]:
    """The token table of the preprocessed corpus, and the seconds that
    preprocessing and the table's build took."""
    started = time.perf_counter()
    table = token_table(preprocess_corpus(corpus, config))
    return table, time.perf_counter() - started


def _evaluate_tokenized(
    trained: TrainedModel, table: TokenTable, preprocess_seconds: float
) -> EvaluationReport:
    clock = [time.perf_counter()]
    X = vectorize_corpus(table, trained.vocabulary)
    clock.append(time.perf_counter())
    y_pred, _ = predict_linear(trained.model, X)
    clock.append(time.perf_counter())

    report = metrics_from_matrix(confusion_matrix(table.labels, y_pred, trained.class_labels))
    report.method_name = _METHOD_NAMES[trained.vocabulary.selector, trained.model.trainer_tag]
    report.stage_seconds = dict(trained.stage_seconds)
    report.predict_stage_seconds = {
        stage: end - start for stage, start, end in zip(PREDICT_STAGES, clock, clock[1:])
    }
    report.preprocess_seconds = preprocess_seconds
    return report


def evaluate(
    trained: TrainedModel, test_corpus: LabeledCorpus, config: PreprocessConfig
) -> EvaluationReport:
    """Preprocess, vectorize, and score a labeled test corpus.

    A config other than the model's `preprocess_config` raises
    PreprocessMismatchError, and a test label outside the model's label set
    raises UnknownLabelError, both before any preprocessing.
    The report is named by the model's pipeline, as in PIPELINES.
    `predict_stage_seconds` times vectorization and scoring over the full
    pass, and `preprocess_seconds` is the preprocessing before it.
    """
    if config != trained.preprocess_config:
        raise PreprocessMismatchError("the config differs from the model's preprocess_config")
    _check_labels(test_corpus, trained.class_labels)
    table, preprocess_seconds = _timed_preprocess(test_corpus, config)
    return _evaluate_tokenized(trained, table, preprocess_seconds)


def benchmark(
    train_corpus: LabeledCorpus,
    test_corpus: LabeledCorpus,
    hyper: TrainHyperparams,
    config: PreprocessConfig,
    out_dir: str | Path,
    keep_going: bool = False,
    repro: bool = False,
) -> BenchmarkResult:
    """Train and evaluate every pipeline of PIPELINES with one shared seed.

    Each pipeline's model and report are written to `out_dir` as
    `model_<stem>.json` and `report_<stem>.json`, the stem being its name
    with "+" and "-" made "_", and the reports that succeed to
    `comparison.tsv` in table order; a pipeline that fails leaves no model or
    report, not even an earlier run's. With `keep_going`, a failing pipeline
    is recorded and the others still run; otherwise the first failure
    propagates. `repro` zeroes the reports' timings so two runs with the
    same seed are byte-identical; model files hold no wall-clock field.

    Before it creates `out_dir` or preprocesses anything, an `out_dir` that
    `fileio.check_out_dir` rejects (one that os.makedirs would) raises
    OSError, a training corpus with fewer than two labels SingleClassError,
    and a test label that no training document has UnknownLabelError.
    """
    check_out_dir(out_dir)
    if len(train_corpus.labels) < 2:
        raise SingleClassError(
            f"benchmark needs two training labels, got {list(train_corpus.labels)}"
        )
    _check_labels(test_corpus, train_corpus.labels)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Only the splits' tables are kept: no document is held through the fits.
    train_table = token_table(preprocess_corpus(train_corpus, config))
    test_table, preprocess_seconds = _timed_preprocess(test_corpus, config)
    if repro:
        preprocess_seconds = 0.0

    result = BenchmarkResult()
    for name, (selector, classifier) in PIPELINES.items():
        stem = name.replace("+", "_").replace("-", "_")
        model_path, report_path = out_dir / f"model_{stem}.json", out_dir / f"report_{stem}.json"
        try:
            model_path.unlink(missing_ok=True)  # a failure leaves no earlier run's files
            report_path.unlink(missing_ok=True)
            trained = train_from_tokens(train_table, selector, classifier, hyper, config)
            report = _evaluate_tokenized(trained, test_table, preprocess_seconds)
            if repro:
                report.stage_seconds = dict.fromkeys(report.stage_seconds, 0.0)
                report.predict_stage_seconds = dict.fromkeys(report.predict_stage_seconds, 0.0)
            save_model(trained, model_path)
            write_report(report, report_path)
            del trained  # not held while the next pipeline trains
        except Exception as exc:  # noqa: BLE001 - collected per pipeline
            if not keep_going:
                raise
            result.failures.append((name, exc))
        else:
            result.reports.append(report)

    write_comparison_tsv(result.reports, out_dir / "comparison.tsv")
    return result


def write_comparison_tsv(reports: Sequence[EvaluationReport], path: str | Path) -> None:
    """Write the plottable method-comparison table."""
    lines = ["method\ttrain_sec\tprecision\trecall\tf1\taccuracy"]
    for report in reports:
        lines.append(
            f"{report.method_name}\t{report.train_seconds:.4f}"
            f"\t{report.macro_precision:.6f}\t{report.macro_recall:.6f}"
            f"\t{report.macro_f1:.6f}\t{report.accuracy:.6f}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "method": report.method_name,
        "train_seconds": report.train_seconds,
        "predict_seconds": report.predict_seconds,
        "predict_stage_seconds": report.predict_stage_seconds,
        "preprocess_seconds": report.preprocess_seconds,
        "stage_seconds": report.stage_seconds,
        "accuracy": report.accuracy,
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
        "per_class": {
            label: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
            for label, m in report.per_class.items()
        },
        "confusion": {
            "labels": list(report.confusion.labels),
            "counts": [list(row) for row in report.confusion.counts],
        },
    }


def write_report(report: EvaluationReport, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(report_to_dict(report), ensure_ascii=False, indent=2))
