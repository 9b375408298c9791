"""The package as a whole: `doccat.__all__` lists what the package holds,
and the program's paths import no numpy module they do not need."""

import os
import subprocess
import sys
from pathlib import Path

import doccat

REPO = Path(__file__).resolve().parent.parent

# Trains and saves every pipeline (benchmark), then loads one model and
# labels a corpus with it (predict), and prints which of numpy.ma and
# numpy.random, which `import numpy` alone leaves out, were imported on the
# way.
PROGRAM_PATHS = """
import sys
import numpy

before = set(sys.modules)
from doccat.cli import main

corpus, out = sys.argv[1:]
assert main(["benchmark", "--train", corpus, "--test", corpus, "--out-dir", out]) == 0
assert main(["predict", "--model", f"{out}/model_TFIDF_SVM.json", "--input", corpus]) == 0
print(sorted({"numpy.ma", "numpy.random"} & (set(sys.modules) - before)))
"""


def test_all_names_resolve_and_star_import_works():
    assert len(set(doccat.__all__)) == len(doccat.__all__)
    assert [name for name in doccat.__all__ if not hasattr(doccat, name)] == []
    namespace = {}
    exec("from doccat import *", namespace)
    assert set(doccat.__all__) <= set(namespace)


def test_no_program_path_imports_numpy_ma_or_numpy_random(tmp_path):
    """numpy.ma adds about 1.25 MB of RSS, and np.isin imports it for its
    sort method (features.CorpusMatrix asks for kind="table"). isin picks
    that method by itself once rows average more than about six entries,
    so the corpus is corpusgen's, whose documents hold about 60 tokens.
    numpy.random adds about 2 MB; the SGD and SVM example orders come from
    the standard library's `random` (models._orders) instead."""
    subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "corpusgen.py"), "--seed", "5",
         "--out", str(tmp_path / "corpus"), "train=2", "test=1"],
        check=True, capture_output=True, timeout=120,
    )
    corpus = tmp_path / "corpus" / "train.jsonl"
    run = subprocess.run(
        [sys.executable, "-c", PROGRAM_PATHS, str(corpus), str(tmp_path / "bench")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), os.environ.get("PYTHONPATH", "")])},
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
