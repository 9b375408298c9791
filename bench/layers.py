"""Time each layer of doccat at two corpus sizes and write BENCH_layers.json.

    python bench/layers.py
    python bench/layers.py --size 4:4 --out /tmp/BENCH_layers.json

Run from the root of a source checkout: doccat is imported from ``src/``.
Each ``--size TRAIN:TEST`` gives the documents per class of the train and
test splits that ``perfbench/corpusgen.py`` draws for its 12 classes from
seed ``SEED``; the default sizes are 12x250 against 12x250 and the paper's
12x2400 against 12x250. Every size runs ``REPEATS`` times.

A run is two child processes. The first calls the program's public
functions in pipeline order, with no tracer: ``load_jsonl`` and
``preprocess_corpus`` of both splits, their token tables,
``build_vocabulary`` and ``select_chi_features``, ``vectorize_corpus`` of
both splits per selector, then per pipeline the trainer, ``predict_linear``
on the test matrix, ``save_model`` and ``load_model``. The second loads both
splits and times one full ``evaluation.benchmark``, so the benchmark's peak
RSS is its own. Times are ``perfbench/speed.py`` reference seconds: thread
CPU time with the machine's slowdown at the moment divided out.

The record holds, per size, the median seconds of every stage and their
spread (the smallest and largest of the runs), each pipeline's stages,
solver counts and macro F1, and peak RSS: the first child's high-water mark
(``ru_maxrss``, which never falls) after loading, after preprocessing and at
its end, and the second child's own peak as ``benchmark``. Per file it holds
the host's CPU count, the commit, the Python and numpy versions, the seed
and the number of repeats. It gates nothing: a change that claims a gain at
these sizes reruns it at the parent and at the change, on the same host.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpusgen  # noqa: E402
import run  # noqa: E402
import numpy as np  # noqa: E402

DEFAULT_SIZES = ("250:250", "2400:250")
SEED = 5
REPEATS = 3
PARTS = ("layers", "benchmark")
SELECTORS = ("tfidf", "chi2")
CLASSIFIERS = ("nb", "sgd", "svm")


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB of 2**20 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(part: str, data: Path, work: Path) -> dict:
    """One child's run of `part` (``layers`` or ``benchmark``) on the splits
    in `data`, with its stages in reference seconds, its ConvergenceWarning
    count, its wall time and the machine's slowdown."""
    run.import_program()
    import speed
    from doccat.errors import ConvergenceWarning

    intervals: dict[str, tuple[float, float]] = {}

    @contextmanager
    def timed(name: str):
        started = speed.clock()
        yield
        intervals[name] = (started, speed.clock())

    started_wall = time.perf_counter()
    with speed.SpeedMeter() as meter, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        record = (layers if part == "layers" else benchmark)(data, work, timed)

    seconds = {name: float(meter.seconds(*span)) for name, span in intervals.items()}
    for name, info in record.get("pipelines", {}).items():
        info["seconds"] = {
            stage.split(".", 1)[1]: seconds.pop(stage)
            for stage in list(seconds) if stage.startswith(name + ".")
        }
    return {
        **record,
        "seconds": seconds,
        "convergence_warnings": sum(issubclass(w.category, ConvergenceWarning) for w in caught),
        "wall_s": time.perf_counter() - started_wall,
        "slowdown": meter.slowdown(),
    }


def layers(data: Path, work: Path, timed) -> dict:
    """Every stage of the six pipelines, one call at a time: each pipeline's
    solver counts and macro F1, and the peak RSS after loading, after
    preprocessing and at the end."""
    from doccat import corpus, evaluation, features, models, textprep

    hyper, config = models.TrainHyperparams(), textprep.default_config()
    rss: dict[str, float] = {}
    pipelines: dict[str, dict] = {}
    with timed("load_jsonl.train"):
        train_raw = corpus.load_jsonl(data / "train.jsonl")
    with timed("load_jsonl.test"):
        test_raw = corpus.load_jsonl(data / "test.jsonl")
    rss["after_load"] = peak_rss_mb()
    with timed("preprocess_corpus.train"):
        train_docs = textprep.preprocess_corpus(train_raw, config)
    with timed("preprocess_corpus.test"):
        test_docs = textprep.preprocess_corpus(test_raw, config)
    rss["after_preprocess"] = peak_rss_mb()
    # The builders below are passed these tables, so they time only their
    # own work.
    with timed("token_table.train"):
        train_table = textprep.token_table(train_docs)
    with timed("token_table.test"):
        test_table = textprep.token_table(test_docs)

    with timed("build_vocabulary"):
        tfidf = features.build_vocabulary(train_table)
    with timed("select_chi_features"):
        chi2 = features.select_chi_features(train_table, hyper.chi_top_percent)
    for selector, vocab in zip(SELECTORS, (tfidf, chi2)):
        with timed(f"vectorize_corpus.{selector}.train"):
            X = features.vectorize_corpus(train_table, vocab)
        with timed(f"vectorize_corpus.{selector}.test"):
            X_test = features.vectorize_corpus(test_table, vocab)
        for classifier in CLASSIFIERS:
            name = f"{selector}_{classifier}"
            with timed(f"{name}.fit"):
                model = getattr(models, f"train_{classifier}")(X, train_table.labels, hyper)
            with timed(f"{name}.predict_linear"):
                y_pred, _ = models.predict_linear(model, X_test)
            trained = models.TrainedModel(model, vocab, config, {})
            path = work / f"model_{name}.json"
            with timed(f"{name}.save_model"):
                models.save_model(trained, path)
            with timed(f"{name}.load_model"):
                models.load_model(path)
            confusion = evaluation.confusion_matrix(test_table.labels, y_pred, model.class_labels)
            pipelines[name] = {
                "features": len(vocab),
                "macro_f1": evaluation.metrics_from_matrix(confusion).macro_f1,
                **solver_counts(classifier, model.fit_info),
            }
        del X, X_test, model, trained
    rss["end"] = peak_rss_mb()
    return {
        "train_docs": len(train_raw),
        "test_docs": len(test_raw),
        "train_tokens": int(train_table.ids.size),
        "pipelines": pipelines,
        "peak_rss_mb": rss,
    }


def benchmark(data: Path, work: Path, timed) -> dict:
    """Load both splits, then one full `evaluation.benchmark`: its macro F1
    per method and this process's peak RSS."""
    from doccat import corpus, evaluation, models, textprep

    train_raw, test_raw = (corpus.load_jsonl(data / f"{split}.jsonl") for split in ("train", "test"))
    with timed("benchmark"):
        result = evaluation.benchmark(
            train_raw, test_raw, models.TrainHyperparams(), textprep.default_config(),
            out_dir=work / "benchmark",
        )
    return {
        "benchmark_macro_f1": {report.method_name: report.macro_f1 for report in result.reports},
        "peak_rss_mb": {"benchmark": peak_rss_mb()},
    }


def solver_counts(classifier: str, fit_info: dict | None) -> dict:
    """SGD `updates`, summed over the classes, and SVM `passes` (the most of
    any class), `updates` (summed), largest relative `gap` and whether every
    class `converged`; nothing for NB."""
    if classifier == "nb":
        return {}
    per_class = list(fit_info.values())
    counts = {"updates": sum(info["updates"] for info in per_class)}
    if classifier == "svm":
        counts["passes"] = max(info["passes"] for info in per_class)
        counts["gap"] = max(info["gap"] for info in per_class)
        counts["converged"] = all(info["converged"] for info in per_class)
    return counts


def summarize(runs: list[dict]) -> dict:
    """One size's runs: every number that varies between runs as its median,
    with each stage's spread as [smallest, largest]."""
    first = runs[0]

    def median(get):
        return statistics.median(get(one) for one in runs)

    def spread(get):
        values = [get(one) for one in runs]
        return [min(values), max(values)]

    summary = {key: first[key] for key in ("train_docs", "test_docs", "train_tokens")}
    summary["seconds"] = {stage: median(lambda one: one["seconds"][stage])
                          for stage in first["seconds"]}
    summary["spread"] = {stage: spread(lambda one: one["seconds"][stage])
                         for stage in first["seconds"]}
    summary["pipelines"] = {}
    for name, info in first["pipelines"].items():
        summary["pipelines"][name] = {
            **{key: value for key, value in info.items() if key != "seconds"},
            "seconds": {stage: median(lambda one: one["pipelines"][name]["seconds"][stage])
                        for stage in info["seconds"]},
            "spread": {stage: spread(lambda one: one["pipelines"][name]["seconds"][stage])
                       for stage in info["seconds"]},
        }
    summary["benchmark_macro_f1"] = first["benchmark_macro_f1"]
    summary["convergence_warnings"] = first["convergence_warnings"]
    summary["peak_rss_mb"] = {point: median(lambda one: one["peak_rss_mb"][point])
                              for point in first["peak_rss_mb"]}
    summary["peak_rss_mb_spread"] = {point: spread(lambda one: one["peak_rss_mb"][point])
                                     for point in first["peak_rss_mb"]}
    summary["wall_s"] = [one["wall_s"] for one in runs]
    summary["slowdown"] = [one["slowdown"] for one in runs]
    return summary


def rounded(value):
    """`value` with every float cut to 4 significant digits, for a readable file."""
    if isinstance(value, float):
        return float(f"{value:.4g}")
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    return value


def run_size(train: int, test: int) -> dict:
    """Draw one size's corpora, then run it `REPEATS` times, each run as one
    child per part."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        pools = corpusgen.Pools(SEED, *corpusgen.read_word_lists(corpusgen.DATA_DIR))
        for split, per_class in (("train", train), ("test", test)):
            corpusgen.write_jsonl(pools.split(SEED, split, per_class), work / f"{split}.jsonl")
        del pools
        runs = []
        for _ in range(REPEATS):
            first, second = (
                json.loads(subprocess.run(
                    [sys.executable, __file__, "--child", part, str(work)],
                    stdout=subprocess.PIPE, text=True, check=True,
                ).stdout.splitlines()[-1])
                for part in PARTS
            )
            # One run: the layer child's record with the benchmark child's
            # stage, peak and scores added, their wall times summed and the
            # larger slowdown.
            first["seconds"].update(second["seconds"])
            first["peak_rss_mb"].update(second["peak_rss_mb"])
            first["benchmark_macro_f1"] = second["benchmark_macro_f1"]
            for key in ("convergence_warnings", "wall_s"):
                first[key] += second[key]
            first["slowdown"] = max(first["slowdown"], second["slowdown"])
            runs.append(first)
    return summarize(runs)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--size", action="append", metavar="TRAIN:TEST",
                        help=f"documents per class of each split (default {' '.join(DEFAULT_SIZES)})")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    parser.add_argument("--child", nargs=2, metavar=("PART", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        part, data = args.child
        with tempfile.TemporaryDirectory() as tmp:
            record = measure(part, Path(data), Path(tmp))
        print(json.dumps(record))
        return

    record = {
        "script": "bench/layers.py",
        "unit": "perfbench/speed.py reference seconds",
        **run.metadata(np.__version__),
        "seed": SEED,
        "repeats": REPEATS,
        "sizes": {},
    }
    sizes = [size.partition(":")[::2] for size in args.size or DEFAULT_SIZES]
    for train, test in sizes:
        if not (train.isdigit() and test.isdigit() and int(train) and int(test)):
            parser.error(f"bad size {train}:{test}: expected TRAIN:TEST, two positive integers")
    for train, test in sizes:
        label = f"12x{train}/12x{test}"
        print(f"layers: {label}, {REPEATS} runs", file=sys.stderr)
        record["sizes"][label] = run_size(int(train), int(test))
    text = json.dumps(rounded(record), indent=1)
    # Each list of numbers on one line.
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m[1]) + "]", text)
    args.out.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
