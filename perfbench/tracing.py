"""Span tracing of doccat's public functions, installed from outside the program.

``Tracer.install`` rebinds each traced function in every ``doccat`` module
that holds it by name (``doccat.models.select_chi_features`` as well as
``doccat.features.select_chi_features``), so calls between modules are seen
too. Each call records a span (group, function, start, end, parent) on an
in-memory stack; ``metrics`` derives per-group self time (a span's duration
minus the time its child spans cover) and the counts taken from arguments
and return values.

The tracer only reads public names. A traced function that the program no
longer has, or a count whose source no longer has the expected shape, is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import pkgutil
from collections import defaultdict
from pathlib import Path

import numpy as np

# group -> (module, public function names); groups are the per-layer metric prefixes.
GROUPS = {
    "corpus.load_jsonl": ("doccat.corpus", ("load_jsonl",)),
    "textprep.preprocess": ("doccat.textprep", ("preprocess_corpus", "preprocess_document")),
    "features.select_chi_features": ("doccat.features", ("select_chi_features",)),
    "features.build_vocabulary": ("doccat.features", ("build_vocabulary",)),
    "features.vectorize": ("doccat.features", ("vectorize_corpus", "tfidf_vector", "count_vector")),
    "models.train_nb": ("doccat.models", ("train_nb",)),
    "models.train_sgd": ("doccat.models", ("train_sgd",)),
    "models.train_svm": ("doccat.models", ("train_svm",)),
    "models.predict": ("doccat.models", ("predict_tokenized", "predict_nb", "predict_linear")),
    "models.save_model": ("doccat.models", ("save_model",)),
    "models.load_model": ("doccat.models", ("load_model",)),
    "evaluation.benchmark": ("doccat.evaluation", ("benchmark",)),
    "evaluation.metrics": ("doccat.evaluation", ("confusion_matrix", "metrics_from_matrix")),
    "evaluation.write_report": ("doccat.evaluation", ("write_report", "write_comparison_tsv")),
}

# Every per-layer metric in report order: (name, unit, group it is read from).
# A metric is absent when its group never ran or returned something its
# count could not be read from.
PER_LAYER = (
    ("corpus.load_jsonl.self_s", "s", "corpus.load_jsonl"),
    ("corpus.docs", "count", "corpus.load_jsonl"),
    ("textprep.preprocess.self_s", "s", "textprep.preprocess"),
    ("textprep.preprocess.calls", "count", "textprep.preprocess"),
    ("textprep.tokens", "count", "textprep.preprocess"),
    ("textprep.sentences", "count", "textprep.preprocess"),
    ("features.select_chi_features.self_s", "s", "features.select_chi_features"),
    ("features.select_chi_features.calls", "count", "features.select_chi_features"),
    ("features.chi2_vocab_terms", "count", "features.select_chi_features"),
    ("features.chi2_kept_ratio", "ratio", "features.select_chi_features"),
    ("features.build_vocabulary.self_s", "s", "features.build_vocabulary"),
    ("features.build_vocabulary.calls", "count", "features.build_vocabulary"),
    ("features.tfidf_vocab_terms", "count", "features.build_vocabulary"),
    ("features.vectorize.self_s", "s", "features.vectorize"),
    ("features.nnz", "count", "features.vectorize"),
    ("models.train_nb.self_s", "s", "models.train_nb"),
    ("models.train_sgd.self_s", "s", "models.train_sgd"),
    ("models.train_sgd.steps", "count", "models.train_sgd"),
    ("models.train_svm.self_s", "s", "models.train_svm"),
    ("models.train_svm.passes", "count", "models.train_svm"),
    ("models.train_svm.converged_ratio", "ratio", "models.train_svm"),
    ("models.train_svm.violation_max", "value", "models.train_svm"),
    ("models.predict.self_s", "s", "models.predict"),
    ("models.predict.calls", "count", "models.predict"),
    ("models.save_model.self_s", "s", "models.save_model"),
    ("models.save_model.bytes", "bytes", "models.save_model"),
    ("models.load_model.self_s", "s", "models.load_model"),
    ("evaluation.benchmark.self_s", "s", "evaluation.benchmark"),
    ("evaluation.metrics.self_s", "s", "evaluation.metrics"),
    ("evaluation.write_report.self_s", "s", "evaluation.write_report"),
    ("trace.overhead_ratio", "ratio", None),
)


def _doccat_modules() -> list:
    package = importlib.import_module("doccat")
    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__, "doccat."))
    return [package] + [importlib.import_module(name) for name in names]


class Tracer:
    """Records spans and counts while installed; restores the program on uninstall."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[tuple[str, str, float, float, int]] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.broken_counts: set[str] = set()
        self._chi2_inputs: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _doccat_modules()
        for group, (module_name, functions) in GROUPS.items():
            home = importlib.import_module(module_name)
            for function in functions:
                original = getattr(home, function, None)
                if original is None:
                    self.missing.append(f"{module_name}.{function}")
                    continue
                wrapper = self._wrap(group, function, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, group: str, function: str, original):
        signature = inspect.signature(original)
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = self.clock

        def traced(*args, **kwargs):
            outermost = depth[group] == 0
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # placeholder keeps parent indices stable
            stack.append(index)
            depth[group] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                depth[group] -= 1
                stack.pop()
                spans[index] = (group, function, start, end, parent)
            if outermost:
                self._count(group, signature, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        traced.__doc__ = original.__doc__
        return traced

    # -- counts -------------------------------------------------------------

    def _count(self, group, signature, args, kwargs, result) -> None:
        self.counts[f"{group}.calls"] += 1
        try:
            if group in ("features.select_chi_features", "models.train_sgd", "models.save_model"):
                bound = signature.bind(*args, **kwargs).arguments
            if group == "corpus.load_jsonl":
                self.counts["corpus.docs"] += len(result)
            elif group == "textprep.preprocess":
                docs = result if isinstance(result, list) else [result]
                self.counts["textprep.tokens"] += sum(doc.token_count for doc in docs)
                self.counts["textprep.sentences"] += sum(len(doc.sentences) for doc in docs)
            elif group == "features.select_chi_features":
                self.samples["features.chi2_vocab_terms"].append(len(result))
                self._chi2_inputs.append((bound["docs"], len(result)))
            elif group == "features.build_vocabulary":
                self.samples["features.tfidf_vocab_terms"].append(len(result))
            elif group == "features.vectorize":
                vectors = result if isinstance(result, list) else [result]
                self.counts["features.nnz"] += sum(len(vector) for vector in vectors)
            elif group == "models.train_sgd":
                self.counts["models.train_sgd.steps"] += (
                    bound["hyper"].sgd_epochs * len(bound["X"]) * len(result.class_labels)
                )
            elif group == "models.train_svm":
                for info in result.fit_info.values():
                    self.counts["models.train_svm.passes"] += info["passes"]
                    self.counts["models.train_svm.converged"] += bool(info["converged"])
                    self.counts["models.train_svm.classes"] += 1
                    self.samples["models.train_svm.violation"].append(float(info["violation"]))
            elif group == "models.save_model":
                self.counts["models.save_model.bytes"] += os.path.getsize(bound["path"])
        except (AttributeError, KeyError, TypeError, ValueError, OSError):
            self.broken_counts.add(group)

    # -- results ------------------------------------------------------------

    def self_times(self, seconds) -> dict[str, float]:
        """Self time per group; `seconds(starts, ends)` converts clock intervals."""
        if not self.spans:
            return {}
        starts = np.array([span[2] for span in self.spans])
        ends = np.array([span[3] for span in self.spans])
        durations = seconds(starts, ends)
        covered = np.zeros(len(self.spans))
        for index, (_, _, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += durations[index]
        totals: dict[str, float] = defaultdict(float)
        for (group, *_), own in zip(self.spans, (durations - covered).tolist()):
            totals[group] += own
        return totals

    def metrics(self, overhead_ratio: float, seconds) -> tuple[dict[str, float], list[str]]:
        """Every per-layer metric, and the names of those that are absent (read as 0)."""
        self_times = self.self_times(seconds)
        counts = self.counts
        values = {f"{group}.self_s": self_times.get(group, 0.0) for group in GROUPS}
        classes = counts["models.train_svm.classes"]
        violations = self.samples["models.train_svm.violation"]
        values.update(
            {
                "features.chi2_vocab_terms": _mean(self.samples["features.chi2_vocab_terms"]),
                "features.chi2_kept_ratio": _mean(self._kept_ratios()),
                "features.tfidf_vocab_terms": _mean(self.samples["features.tfidf_vocab_terms"]),
                "models.train_svm.converged_ratio": (
                    counts["models.train_svm.converged"] / classes if classes else 0.0
                ),
                "models.train_svm.violation_max": max(violations, default=0.0),
                "trace.overhead_ratio": overhead_ratio,
            }
        )
        # The rest are counts taken as they are at the call boundary.
        for name, _, _ in PER_LAYER:
            values.setdefault(name, counts[name])

        ran = {group for group, *_ in self.spans}
        absent = [
            name
            for name, _, group in PER_LAYER
            if group is not None and (group not in ran or group in self.broken_counts)
        ]
        return values, absent

    def _kept_ratios(self) -> list[float]:
        """Kept / distinct terms per selection call, counted after the run so
        that the counting adds nothing to the traced spans."""
        try:
            return [
                n_kept / len({token for doc in docs for token in doc.tokens()})
                for docs, n_kept in self._chi2_inputs
            ]
        except (AttributeError, TypeError, ZeroDivisionError):
            self.broken_counts.add("features.select_chi_features")
            return []

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSON lines; times are thread CPU seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            for index, (group, function, start, end, parent) in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": parent,
                    "group": group,
                    "function": function,
                    "start_cpu_s": start - origin,
                    "end_cpu_s": end - origin,
                }
                handle.write(json.dumps(record) + "\n")


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0
