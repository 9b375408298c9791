"""Evaluation metrics and the six-way benchmark harness.

Metric conventions:

* precision(c) = TP / (TP + FP) and recall(c) = TP / (TP + FN), both 0 when
  the denominator is 0; f1 is their harmonic mean, 0 when both are 0.
* Macro averages are the unweighted mean of the per-class values over every
  label in the matrix, zero-denominator classes included. Macro-F1 is the
  mean of per-class F1, not the harmonic mean of macro-P and macro-R.
* accuracy = trace / total.

The benchmark trains and evaluates all six (feature, classifier)
combinations on a shared preprocessing pass and emits one report per
method plus a plottable `comparison.tsv`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import LabeledCorpus
from .errors import (
    LengthMismatchError,
    PreprocessMismatchError,
    SingleClassError,
    UnknownLabelError,
)
from .features import vectorize_corpus
from .fileio import atomic_write_text
from .models import (
    CLASSIFIERS,
    SELECTORS,
    Classifier,
    Selector,
    TrainedModel,
    TrainHyperparams,
    predict_linear,
    save_model,
    train_from_tokens,
)
from .textprep import PreprocessConfig, TokenizedDocument, preprocess_corpus

METHOD_ORDER: tuple[str, ...] = (
    "CHI-SQUARE+SGD",
    "TFIDF+SGD",
    "CHI-SQUARE+NB",
    "TFIDF+NB",
    "CHI-SQUARE+SVM",
    "TFIDF+SVM",
)

# The timed stages of prediction, in the order they run.
PREDICT_STAGES = ("vectorize", "score")

_SELECTOR_NAMES = {"tfidf": "TFIDF", "chi2": "CHI-SQUARE"}
_CLASSIFIER_NAMES = {"nb": "NB", "sgd": "SGD", "svm": "SVM"}


def method_name(selector: Selector, classifier: Classifier) -> str:
    return f"{_SELECTOR_NAMES[selector]}+{_CLASSIFIER_NAMES[classifier]}"


_METHOD_COMBOS: dict[str, tuple[Selector, Classifier]] = {
    method_name(sel, clf): (sel, clf) for sel in SELECTORS for clf in CLASSIFIERS
}


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

    `stage_seconds` splits `train_seconds` into the model's training stages
    and `predict_stage_seconds` splits `predict_seconds` into PREDICT_STAGES;
    `preprocess_seconds` is the time spent preprocessing the scored test
    documents.
    """

    method_name: str
    per_class: dict[str, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    train_seconds: float = 0.0
    predict_seconds: float = 0.0
    preprocess_seconds: float = 0.0
    confusion: ConfusionMatrix | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    predict_stage_seconds: dict[str, float] = field(default_factory=dict)


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
    """Compute per-class and macro metrics from a confusion matrix."""
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
        macro_precision=sum(m.precision for m in per_class.values()) / k,
        macro_recall=sum(m.recall for m in per_class.values()) / k,
        macro_f1=sum(m.f1 for m in per_class.values()) / k,
        accuracy=trace / cm.total,
        confusion=cm,
    )


def _timed_preprocess(
    corpus: LabeledCorpus, config: PreprocessConfig
) -> tuple[list[TokenizedDocument], float]:
    started = time.perf_counter()
    docs = preprocess_corpus(corpus, config)
    return docs, time.perf_counter() - started


def _evaluate_tokenized(
    trained: TrainedModel,
    docs: Sequence[TokenizedDocument],
    name: str,
    preprocess_seconds: float,
) -> EvaluationReport:
    for doc in docs:
        if doc.label not in trained.class_labels:
            raise UnknownLabelError(doc.label)
    clock = [time.perf_counter()]
    X = vectorize_corpus(docs, trained.vocabulary, trained.feature_mode)
    clock.append(time.perf_counter())
    y_pred, _ = predict_linear(trained.model, X)
    clock.append(time.perf_counter())

    y_true = [doc.label for doc in docs]
    report = metrics_from_matrix(confusion_matrix(y_true, y_pred, trained.class_labels))
    report.method_name = name
    report.train_seconds = trained.train_seconds
    report.stage_seconds = dict(trained.stage_seconds)
    report.predict_stage_seconds = {
        stage: end - start for stage, start, end in zip(PREDICT_STAGES, clock, clock[1:])
    }
    report.predict_seconds = sum(report.predict_stage_seconds.values())
    report.preprocess_seconds = preprocess_seconds
    return report


def evaluate(
    trained: TrainedModel,
    test_corpus: LabeledCorpus,
    config: PreprocessConfig,
    name: str | None = None,
) -> EvaluationReport:
    """Preprocess, vectorize, and score a labeled test corpus.

    The preprocessing config must be the one the model was trained with
    (checked by digest). A test label outside the model's label set raises
    UnknownLabelError. `predict_seconds` covers vectorization plus
    prediction over the full pass, `predict_stage_seconds` splits it into
    the two, and `preprocess_seconds` is the preprocessing before it.
    """
    if config.digest() != trained.preprocess_config_digest:
        raise PreprocessMismatchError(
            "preprocessing config does not match the one this model was trained with"
        )
    docs, preprocess_seconds = _timed_preprocess(test_corpus, config)
    if name is None:
        name = method_name(trained.selector, trained.model.trainer_tag)
    return _evaluate_tokenized(trained, docs, name, preprocess_seconds)


def benchmark(
    train_corpus: LabeledCorpus,
    test_corpus: LabeledCorpus,
    hyper: TrainHyperparams,
    config: PreprocessConfig,
    out_dir: str | Path | None = None,
    keep_going: bool = False,
    repro: bool = False,
) -> BenchmarkResult:
    """Train and evaluate all six method combinations with one shared seed.

    With `out_dir` set, each combination's model and report JSON are written
    there along with `comparison.tsv`. With `keep_going`, a failing
    combination is recorded and the others still run; otherwise the first
    failure propagates. `repro` zeroes wall-clock fields in all output files
    so two runs with the same seed are byte-identical.
    """
    shared = set(train_corpus.labels) & set(test_corpus.labels)
    if len(shared) < 2:
        raise SingleClassError(
            f"benchmark needs two labels shared between train and test, got {sorted(shared)}"
        )

    digest = config.digest()
    train_docs = preprocess_corpus(train_corpus, config)
    test_docs, preprocess_seconds = _timed_preprocess(test_corpus, config)

    def run_one(name: str) -> EvaluationReport:
        selector, classifier = _METHOD_COMBOS[name]
        trained = train_from_tokens(
            train_docs,
            selector,
            classifier,
            hyper,
            digest,
            created_unix_seconds=0 if repro else None,
        )
        report = _evaluate_tokenized(trained, test_docs, name, preprocess_seconds)
        if repro:
            report.train_seconds = 0.0
            report.predict_seconds = 0.0
            report.preprocess_seconds = 0.0
            report.stage_seconds = dict.fromkeys(report.stage_seconds, 0.0)
            report.predict_stage_seconds = dict.fromkeys(report.predict_stage_seconds, 0.0)
        if out_dir is not None:
            stem = name.replace("+", "_").replace("-", "_")
            save_model(trained, Path(out_dir) / f"model_{stem}.json")
            write_report(report, Path(out_dir) / f"report_{stem}.json")
        return report

    result = BenchmarkResult()
    for name in METHOD_ORDER:
        try:
            result.reports.append(run_one(name))
        except Exception as exc:  # noqa: BLE001 - collected per combination
            if not keep_going:
                raise
            result.failures.append((name, exc))

    if out_dir is not None:
        write_comparison_tsv(result.reports, Path(out_dir) / "comparison.tsv")
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


def format_report_table(reports: Sequence[EvaluationReport]) -> str:
    """Human-readable comparison table with percentage metrics."""
    header = f"{'Method':<16}{'Train Time(sec)':>16}{'Precision (%)':>15}{'Recall (%)':>12}{'F1-Measure (%)':>16}"
    rows = [header, "-" * len(header)]
    for report in reports:
        rows.append(
            f"{report.method_name:<16}{report.train_seconds:>16.4f}"
            f"{100 * report.macro_precision:>15.2f}{100 * report.macro_recall:>12.2f}"
            f"{100 * report.macro_f1:>16.2f}"
        )
    return "\n".join(rows)


def report_to_dict(report: EvaluationReport) -> dict:
    payload = {
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
    }
    if report.confusion is not None:
        payload["confusion"] = {
            "labels": list(report.confusion.labels),
            "counts": [list(row) for row in report.confusion.counts],
        }
    return payload


def write_report(report: EvaluationReport, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(report_to_dict(report), ensure_ascii=False, indent=2))
