"""The three benchmark workloads, and the harness that measures one of them.

Each workload is a closed loop with one caller in one thread, using the
default ``TrainHyperparams()`` (the paper's settings). It reads the corpora
that ``corpusgen`` wrote into its work directory and calls doccat only
through public module attributes (``models.train``, never a name imported
into this file), so ``tracing.Tracer`` sees every call.

``setup`` holds the program calls made before the timed phase, ``run_pass``
is one unit of timed work, and ``check`` verifies the outputs of every pass
and returns the number of failed operations. ``measure`` runs them and
``all_metrics`` turns the result into every end-to-end metric.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import warnings
from pathlib import Path

import numpy as np

from doccat import corpus, evaluation, models, textprep
from doccat.errors import ConvergenceWarning

import speed
import tracing
from speed import clock

PIPELINES = ("chi2_nb", "chi2_sgd", "chi2_svm", "tfidf_nb", "tfidf_sgd", "tfidf_svm")

# Held-out macro-F1 below which a trained train-large model counts as failed;
# chance level for 12 classes is about 0.08.
TRAIN_LARGE_F1_FLOOR = 0.5


def pipeline_key(method: str) -> str:
    """``"CHI-SQUARE+SGD"`` -> ``"chi2_sgd"``, the metric suffix."""
    selector, classifier = method.split("+")
    return {"CHI-SQUARE": "chi2", "TFIDF": "tfidf"}[selector] + "_" + classifier.lower()


def model_file_stem(method: str) -> str:
    """The file stem ``evaluation.benchmark`` gives a method's model and report."""
    return method.replace("+", "_").replace("-", "_")


def predictions(trained, docs) -> list[str]:
    return [models.predict_tokenized(trained, doc)[0] for doc in docs]


def timed_loads(path: Path, repeats: int, intervals: dict[str, list[tuple[float, float]]]):
    """Load a model file `repeats` times, recording each load's clock interval; return the model.

    Each load starts from a collected heap: otherwise whether, and over how
    many live objects, a full garbage collection runs inside the load
    depends on what the workload allocated before it.
    """
    for _ in range(repeats):
        gc.collect()
        started = clock()
        trained = models.load_model(path)
        intervals.setdefault(path.name, []).append((started, clock()))
    return trained


class Workload:
    """Shared state: work directory, config, hyperparameters and results."""

    name = ""
    splits: dict[str, int] = {}  # split name -> documents per class
    setup_repeats = 9
    load_repeats = 5
    min_passes = 1

    def __init__(self, work: Path) -> None:
        self.work = work
        self.hyper = models.TrainHyperparams()
        self.macro_f1: dict[str, float] = {}
        self.load_intervals: dict[str, list[tuple[float, float]]] = {}
        self.latency_intervals: list[tuple[float, float]] = []
        self.convergence_warnings = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int):
        raise NotImplementedError

    def check(self, outputs: list) -> int:
        raise NotImplementedError

    def operations_per_pass(self) -> int:
        raise NotImplementedError


class Sixway(Workload):
    """The paper's experiment: ``evaluation.benchmark`` over all six pipelines."""

    name = "sixway"
    splits = {"train": 20, "test": 40}

    def setup(self) -> None:
        self.config = textprep.default_config()
        self.train = corpus.load_jsonl(self.work / "train.jsonl")
        self.test = corpus.load_jsonl(self.work / "test.jsonl")

    def operations_per_pass(self) -> int:
        return len(evaluation.METHOD_ORDER)

    def run_pass(self, index: int):
        out_dir = self.work / f"sixway-{index}"
        out_dir.mkdir(exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            result = evaluation.benchmark(
                self.train, self.test, self.hyper, self.config, out_dir=out_dir, keep_going=True
            )
        self.convergence_warnings += sum(issubclass(w.category, ConvergenceWarning) for w in caught)
        return result, out_dir

    def check(self, outputs: list) -> int:
        test_docs = textprep.preprocess_corpus(self.test, self.config)
        y_true = [doc.label for doc in test_docs]
        failed = 0
        for result, out_dir in outputs:
            reports = {report.method_name: report for report in result.reports}
            tsv = (out_dir / "comparison.tsv").read_text(encoding="utf-8").splitlines()[1:]
            tsv_methods = {line.split("\t")[0] for line in tsv}
            for method in evaluation.METHOD_ORDER:
                report = reports.get(method)
                if report is not None:
                    self.macro_f1[pipeline_key(method)] = report.macro_f1
                ok = (
                    report is not None
                    and report.confusion.total == len(self.test)
                    and len(tsv) == len(evaluation.METHOD_ORDER)
                    and method in tsv_methods
                )
                if ok:
                    path = out_dir / f"model_{model_file_stem(method)}.json"
                    reloaded = timed_loads(path, self.load_repeats, self.load_intervals)
                    matrix = evaluation.confusion_matrix(
                        y_true, predictions(reloaded, test_docs), reloaded.class_labels
                    )
                    ok = matrix == report.confusion
                failed += not ok
        return failed


class TrainLarge(Workload):
    """One chi-square + SGD training run on the large split, saved to a model file."""

    name = "train-large"
    splits = {"train": 250, "heldout": 50}
    # One pass is a single 9 s call whose corrected time still moved by up to
    # 15% between runs of the same seed; the median of two halves that.
    min_passes = 2

    def setup(self) -> None:
        self.config = textprep.default_config()
        self.train = corpus.load_jsonl(self.work / "train.jsonl")
        self.heldout = corpus.load_jsonl(self.work / "heldout.jsonl")

    def operations_per_pass(self) -> int:
        return 1

    def run_pass(self, index: int):
        trained = models.train(self.train, "chi2", "sgd", self.hyper, self.config)
        path = self.work / f"train-large-{index}.json"
        models.save_model(trained, path)
        return trained, path

    def check(self, outputs: list) -> int:
        heldout_docs = textprep.preprocess_corpus(self.heldout, self.config)
        y_true = [doc.label for doc in heldout_docs]
        failed = 0
        for trained, path in outputs:
            reloaded = timed_loads(path, self.load_repeats, self.load_intervals)
            expected = predictions(trained, heldout_docs)
            matrix = evaluation.confusion_matrix(
                y_true, predictions(reloaded, heldout_docs), reloaded.class_labels
            )
            f1 = evaluation.metrics_from_matrix(matrix).macro_f1
            self.macro_f1["chi2_sgd"] = f1
            ok = (
                reloaded.vocabulary.terms == trained.vocabulary.terms
                and np.array_equal(reloaded.model.weights, trained.model.weights)
                and np.array_equal(reloaded.model.biases, trained.model.biases)
                and matrix == evaluation.confusion_matrix(y_true, expected, trained.class_labels)
                and f1 > TRAIN_LARGE_F1_FLOOR
            )
            failed += not ok
        return failed


class PredictBatch(Workload):
    """Label raw documents one at a time with a reloaded TFIDF+SGD model."""

    name = "predict-batch"
    splits = {"train": Sixway.splits["train"], "predict": 250}
    setup_repeats = 3

    def setup(self) -> None:
        self.config = textprep.default_config()
        train = corpus.load_jsonl(self.work / "train.jsonl")
        self.docs = corpus.load_jsonl(self.work / "predict.jsonl")
        trained = models.train(train, "tfidf", "sgd", self.hyper, self.config)
        path = self.work / "predict-batch.json"
        models.save_model(trained, path)
        self.model = models.load_model(path)
        self.model_path = path

    def operations_per_pass(self) -> int:
        return len(self.docs)

    def run_pass(self, index: int):
        labeled = []
        for doc in self.docs:
            started = clock()
            label, score, _ = models.predict_tokenized(
                self.model, textprep.preprocess_document(doc, self.config)
            )
            self.latency_intervals.append((started, clock()))
            labeled.append((label, score))
        return labeled

    def check(self, outputs: list) -> int:
        timed_loads(self.model_path, self.load_repeats, self.load_intervals)
        labels = self.model.class_labels
        y_true = [doc.label for doc in self.docs]
        reference = evaluation.evaluate(self.model, self.docs, self.config)
        self.macro_f1["tfidf_sgd"] = reference.macro_f1
        failed = 0
        for labeled in outputs:
            bad = sum(label not in labels or not math.isfinite(score) for label, score in labeled)
            if not bad:
                matrix = evaluation.confusion_matrix(y_true, [label for label, _ in labeled], labels)
                report = evaluation.metrics_from_matrix(matrix)
                if matrix != reference.confusion or report.macro_f1 != reference.macro_f1:
                    bad = len(labeled)
            failed += bad
        return failed


WORKLOADS = {cls.name: cls for cls in (Sixway, TrainLarge, PredictBatch)}


def timed_passes(workload, seconds: float) -> tuple[list[tuple[float, float]], list[float], list]:
    """Run passes until `seconds` of pass CPU time are measured (at least
    ``workload.min_passes``).

    Returns each pass's clock interval, its wall seconds, and its output.
    """
    intervals, wall, outputs = [], [], []
    while len(intervals) < workload.min_passes or sum(e - s for s, e in intervals) < seconds:
        started, started_wall = clock(), time.perf_counter()
        outputs.append(workload.run_pass(len(intervals)))
        intervals.append((started, clock()))
        wall.append(time.perf_counter() - started_wall)
    return intervals, wall, outputs


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, time passes, check outputs; with `trace`, add one traced round.

    Intervals are recorded on the thread CPU clock and converted to
    reference seconds (see ``speed``) once the run is over.
    """
    with speed.SpeedMeter() as meter:
        setup = []
        for _ in range(1 if trace else workload.setup_repeats):
            started = clock()
            workload.setup()
            setup.append((started, clock()))
        passes, wall, outputs = timed_passes(workload, seconds)
        failed = workload.check(outputs)
        attempted = workload.operations_per_pass() * len(passes)
        # Latencies, loads and memory of the untraced round only.
        loads = {name: list(intervals) for name, intervals in workload.load_intervals.items()}
        latencies = list(workload.latency_intervals)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer = tracing.Tracer(clock)
            tracer.install()
            try:
                workload.setup()
                started = clock()
                output = workload.run_pass(len(passes))
                traced = (started, clock())
                failed += workload.check([output])
            finally:
                tracer.uninstall()
            attempted += workload.operations_per_pass()

    def seconds_of(intervals):
        starts, ends = np.array(intervals).reshape(-1, 2).T
        return meter.seconds(starts, ends).tolist()

    pass_seconds = seconds_of(passes)
    result = {
        "setup_seconds": seconds_of(setup),
        "pass_seconds": pass_seconds,
        "pass_cpu_seconds": [end - start for start, end in passes],
        "pass_wall_seconds": wall,
        "load_seconds": {name: seconds_of(intervals) for name, intervals in loads.items()},
        "latency_seconds": seconds_of(latencies),
        "slowdown": meter.slowdown(),
        "probes": meter.probes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        result["tracer"] = tracer
        result["per_layer"] = tracer.metrics(
            seconds_of([traced])[0] / statistics.median(pass_seconds), meter.seconds
        )
    return result


def all_metrics(workload, measured: dict) -> list[tuple[str, object, str, str]]:
    """Every end-to-end metric this benchmark defines: (name, value or None, unit, note)."""
    passes = measured["pass_seconds"]
    rows = [
        ("setup_s", statistics.median(measured["setup_seconds"]), "s",
         f"median of {len(measured['setup_seconds'])} set-ups"),
        ("run_s", statistics.median(passes), "s", f"median of {len(passes)} passes"),
        ("run_cpu_s", statistics.median(measured["pass_cpu_seconds"]), "s",
         "raw CPU time, not speed-corrected"),
        ("run_wall_s", statistics.median(measured["pass_wall_seconds"]), "s",
         "wall time, includes time other tenants take"),
        ("slowdown", measured["slowdown"], "x", f"median of {measured['probes']} speed probes"),
        ("peak_rss_mb", measured["peak_rss_mb"], "MB", ""),
        ("failed_ratio", measured["failed"] / measured["attempted"], "ratio",
         f"{measured['failed']} of {measured['attempted']} operations"),
    ]
    for key in PIPELINES:
        rows.append((f"macro_f1.{key}", workload.macro_f1.get(key), "ratio", ""))
    latencies = sorted(measured["latency_seconds"])
    if latencies:
        docs = workload.operations_per_pass() * len(passes)
        n = len(latencies)
        rows.append(("docs_per_s", docs / sum(passes), "1/s", f"{docs} documents"))
        rows.append(("latency_p50_ms", 1000 * statistics.median(latencies), "ms", f"{n} samples"))
        # p99 is reported only with at least ten samples beyond it.
        p99 = 1000 * latencies[math.ceil(0.99 * n) - 1] if n >= 1000 else None
        rows.append(("latency_p99_ms", p99, "ms", f"{n} samples"))
    else:
        rows += [("docs_per_s", None, "1/s", ""), ("latency_p50_ms", None, "ms", ""),
                 ("latency_p99_ms", None, "ms", "")]
    # Files differ in size (NB against linear, TF-IDF against chi-square
    # vocabularies), so each file gets its own median before averaging.
    loads = measured["load_seconds"]
    per_file = [statistics.median(seconds) for seconds in loads.values()]
    rows.append(("load_model_s", statistics.fmean(per_file) if per_file else None, "s",
                 f"mean over {len(per_file)} files of the median load"))
    f1 = list(workload.macro_f1.values())
    rows.append(("macro_f1", statistics.fmean(f1) if f1 else None, "ratio",
                 f"mean over {len(f1)} pipelines"))
    return rows
