"""Tests of the benchmark itself: generator determinism, smoke runs, failing checks.

The smoke runs call ``run.main`` in-process on tiny corpora, so the whole
command (generation, set-up, one pass, checks, report) runs in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpusgen
import run
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

TINY_SPLITS = {
    "sixway": {"train": 2, "test": 1},
    "train-large": {"train": 30, "heldout": 5},
    "predict-batch": {"train": 4, "predict": 2},
}


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(monkeypatch, tmp_path, capsys, workload: str, trace: int = 0) -> tuple[int, dict]:
    monkeypatch.setattr(workloads.WORKLOADS[workload], "splits", TINY_SPLITS[workload])
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_generator_is_byte_identical_under_any_hash_seed(tmp_path):
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "corpusgen.py"), "--seed", "7", "--out", str(out),
             "train=3", "test=2"],
            check=True, env=env, timeout=120,
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == {"train.jsonl", "test.jsonl", "stats.json"}


def test_splits_share_pools_but_not_documents():
    pools = corpusgen.Pools(5, *corpusgen.read_word_lists(corpusgen.DATA_DIR))
    train = pools.split(5, "train", 2)
    again = pools.split(5, "train", 2)
    test = pools.split(5, "test", 2)
    assert train == again
    assert {doc["text"] for doc in train}.isdisjoint(doc["text"] for doc in test)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(monkeypatch, tmp_path, capsys, workload):
    code, result = run_tiny(monkeypatch, tmp_path, capsys, workload)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in benchmark_json()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_sixway_reports_every_layer(monkeypatch, tmp_path, capsys):
    code, result = run_tiny(monkeypatch, tmp_path, capsys, "sixway", trace=1)
    assert code == 0 and result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in benchmark_json()["per_layer"]}
    assert metrics["features.select_chi_features.calls"]["value"] == 3
    assert metrics["models.train_svm.passes"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    spans = (tmp_path / "runs" / "sixway-seed3-trace1.spans.jsonl").read_text().splitlines()
    assert any(json.loads(line)["group"] == "evaluation.benchmark" for line in spans)


def test_corrupted_prediction_fails_the_command(monkeypatch, tmp_path, capsys):
    from doccat import models

    original = models.predict_tokenized

    def shifted(trained, doc):
        label, score, scores = original(trained, doc)
        labels = trained.class_labels
        return labels[(labels.index(label) + 1) % len(labels)], score, scores

    monkeypatch.setattr(models, "predict_tokenized", shifted)
    code, result = run_tiny(monkeypatch, tmp_path, capsys, "predict-batch")
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_corrupted_round_trip_fails_the_command(monkeypatch, tmp_path, capsys):
    from doccat import models

    original = models.load_model

    def perturbed(path):
        trained = original(path)
        trained.model.weights = trained.model.weights + np.float64(1e-12)
        return trained

    monkeypatch.setattr(models, "load_model", perturbed)
    code, result = run_tiny(monkeypatch, tmp_path, capsys, "train-large")
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_tracer_marks_a_missing_function_absent(monkeypatch):
    groups = dict(tracing.GROUPS, **{"models.train_nb": ("doccat.models", ("no_such_function",))})
    monkeypatch.setattr(tracing, "GROUPS", groups)
    tracer = tracing.Tracer(workloads.clock)
    tracer.install()
    tracer.uninstall()
    values, absent = tracer.metrics(overhead_ratio=1.0, seconds=lambda start, end: end - start)
    assert tracer.missing == ["doccat.models.no_such_function"]
    assert "models.train_nb.self_s" in absent and values["models.train_nb.self_s"] == 0.0


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sixway", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_benchmark_json_matches_the_command():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER
    ]


def test_speed_meter_converts_cpu_time_of_an_interval():
    with speed.SpeedMeter() as meter:
        started = speed.clock()
        total = sum(i % 7 for i in range(2_000_000))
        ended = speed.clock()
    assert total > 0 and meter.probes > 10
    halves = meter.seconds(np.array([started, (started + ended) / 2]), np.array([(started + ended) / 2, ended]))
    whole = meter.seconds(started, ended)
    assert 0 < halves[0] and 0 < halves[1]
    assert abs(halves.sum() - whole) < 1e-9
    # A probe that slows down with the machine corrects by at most its slowdown range.
    assert 0.2 < whole / (ended - started) < 5
