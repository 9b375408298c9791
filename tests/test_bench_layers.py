"""bench/layers.py runs end to end and writes a record with every key.

The script times each layer at corpus sizes far too long for tier-1, so
this runs it at a toy size (12x4) and checks only the record's shape. It
gates no speed.
"""

import json
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

STAGES = {
    "load_jsonl.train", "load_jsonl.test", "preprocess_corpus.train", "preprocess_corpus.test",
    "token_table.train", "token_table.test", "build_vocabulary", "select_chi_features",
    "vectorize_corpus.tfidf.train", "vectorize_corpus.tfidf.test",
    "vectorize_corpus.chi2.train", "vectorize_corpus.chi2.test", "benchmark",
}
PIPELINE_STAGES = {"fit", "predict_linear", "save_model", "load_model"}
SOLVER_KEYS = {"nb": set(), "sgd": {"updates"}, "svm": {"updates", "passes", "gap", "converged"}}


def test_layers_script_writes_its_record(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    subprocess.run(
        [sys.executable, str(_SCRIPT), "--size", "4:4", "--out", str(out)],
        check=True, capture_output=True, timeout=300,
    )
    record = json.loads(out.read_text(encoding="utf-8"))

    assert set(record) == {
        "script", "unit", "commit", "nproc", "python", "numpy", "PYTHONHASHSEED", "seed",
        "repeats", "sizes",
    }
    assert (record["seed"], record["repeats"]) == (5, 3)
    assert list(record["sizes"]) == ["12x4/12x4"]
    size = record["sizes"]["12x4/12x4"]
    assert (size["train_docs"], size["test_docs"]) == (48, 48)
    assert set(size["seconds"]) == set(size["spread"]) == STAGES
    for stage, (low, high) in size["spread"].items():
        assert 0 <= low <= size["seconds"][stage] <= high, stage
    assert set(size["peak_rss_mb"]) == {"after_load", "after_preprocess", "end", "benchmark"}
    assert len(size["wall_s"]) == len(size["slowdown"]) == 3

    assert set(size["pipelines"]) == {
        f"{selector}_{classifier}" for selector in ("tfidf", "chi2") for classifier in SOLVER_KEYS
    }
    for name, info in size["pipelines"].items():
        classifier = name.split("_")[1]
        assert set(info) == {"features", "macro_f1", "seconds", "spread"} | SOLVER_KEYS[classifier]
        assert set(info["seconds"]) == set(info["spread"]) == PIPELINE_STAGES
        assert 0 <= info["macro_f1"] <= 1
    # The full benchmark and the layer-by-layer pipelines score alike.
    selectors = {"CHI-SQUARE": "chi2", "TFIDF": "tfidf"}
    assert {
        f"{selectors[method.split('+')[0]]}_{method.split('+')[1].lower()}": f1
        for method, f1 in size["benchmark_macro_f1"].items()
    } == {name: info["macro_f1"] for name, info in size["pipelines"].items()}
