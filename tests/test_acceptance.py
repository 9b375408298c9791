"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Expected values come from independent oracles computed first; the
final conditional criterion needs a real corpus and is skipped unless the
DOCCAT_REAL_TRAIN / DOCCAT_REAL_TEST environment variables are set.
"""

import math
import os
import time
from contextlib import contextmanager
from decimal import Decimal, getcontext

import numpy as np
import pytest

from doccat.cli import main
from doccat.corpus import load_dir, load_jsonl
from doccat.evaluation import METHOD_ORDER, ConfusionMatrix, benchmark, metrics_from_matrix
from doccat.features import (
    build_vocabulary,
    idf,
    select_chi_features,
    vectorize_corpus,
)
from doccat.models import (
    TrainHyperparams,
    predict_tokenized,
    train_from_tokens,
    train_nb,
)
from doccat.textprep import TokenizedDocument, default_config

from helpers import (
    chi_oracle,
    chi_scores,
    make_synthetic_corpus,
    matrix,
    metrics_oracle,
    nb_oracle,
    nb_oracle_predict,
    predict_row,
    random_tokenized_doc,
    row_pairs,
    save_jsonl,
)

getcontext().prec = 50


@contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - started
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def test_idf_exactness():
    with criterion("idf-exactness", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 10**6 + 1))
            df = int(rng.integers(1, n + 1))
            reference = float((Decimal(n + 1) / Decimal(df + 1)).ln() + 1)
            assert abs(idf(n, df) - reference) <= 1e-12
        for n in (1, 3, 1000, 10**6):
            assert abs(idf(n, n) - 1.0) <= 1e-15


def test_tfidf_normalization():
    with criterion("tfidf-normalization", 1.0):
        rng = np.random.default_rng(31)
        docs = [random_tokenized_doc(rng) for _ in range(500)]
        vocab = build_vocabulary(docs)
        non_empty = 0
        X = vectorize_corpus(docs, vocab)
        for row in range(X.shape[0]):
            weights = [weight for _, weight in row_pairs(X, row)]
            if weights:
                non_empty += 1
                norm = math.sqrt(sum(weight * weight for weight in weights))
                assert abs(norm - 1.0) <= 1e-9
        assert non_empty > 0


def test_chi_square_oracle_equivalence():
    with criterion("chi-square-oracle", 5.0):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            doc = random_tokenized_doc(rng, max_sentences=5, max_terms=6)
            expected = chi_oracle([list(s) for s in doc.sentences])
            actual = chi_scores(doc)
            assert set(actual) == set(expected)
            for term in actual:
                assert abs(actual[term] - expected[term]) <= 1e-9
        # identical sentences make every observed co-occurrence equal its
        # expectation, so the score is exactly zero
        uniform = TokenizedDocument(sentences=(("ক", "খ"), ("ক", "খ")))
        assert chi_scores(uniform) == {"ক": 0.0, "খ": 0.0}


def test_chi_selection_identity():
    with criterion("selection-identity", 5.0):
        rng = np.random.default_rng(777)
        for _ in range(50):
            docs = [random_tokenized_doc(rng) for _ in range(int(rng.integers(1, 9)))]
            selected = select_chi_features(docs, top_percent=100.0)
            baseline = build_vocabulary(docs)
            assert selected.terms == baseline.terms
            assert selected.doc_freq == baseline.doc_freq
            assert selected.n_docs == baseline.n_docs


def test_nb_oracle_equivalence():
    with criterion("nb-oracle", 5.0):
        rng = np.random.default_rng(888)
        for trial in range(100):
            n_docs = int(rng.integers(2, 6))
            n_features = int(rng.integers(2, 7))
            alpha = (0.01, 1.0)[trial % 2]
            labels = [f"c{int(rng.integers(0, 3))}" for _ in range(n_docs)]
            labels[0], labels[1] = "c0", "c1"
            rows = []
            for _ in range(n_docs):
                row = {j: float(rng.integers(0, 4)) for j in range(n_features)}
                rows.append({j: v for j, v in row.items() if v > 0})
            model = train_nb(matrix(rows, n_features), labels, TrainHyperparams(nb_alpha=alpha))
            classes, priors, likelihoods = nb_oracle(rows, labels, alpha, n_features)
            assert tuple(classes) == model.class_labels
            for ci, c in enumerate(classes):
                assert abs(model.biases[ci] - math.log(priors[c])) <= 1e-9
                for j in range(n_features):
                    assert abs(
                        model.weights[ci][j] - math.log(likelihoods[c][j])
                    ) <= 1e-9
            query = {j: float(rng.integers(0, 3)) for j in range(n_features)}
            query = {j: v for j, v in query.items() if v > 0}
            predicted, _ = predict_row(model, query)
            assert predicted == nb_oracle_predict(classes, priors, likelihoods, query)


def test_sgd_descent_and_separability(synth_train_tokens, default_cfg):
    with criterion("sgd-descent-separability", 10.0):
        for seed in (1, 2, 3, 4, 5):
            trained = train_from_tokens(
                synth_train_tokens, "tfidf", "sgd", TrainHyperparams(seed=seed), default_cfg
            )
            correct = sum(
                predict_tokenized(trained, doc)[0] == doc.label
                for doc in synth_train_tokens
            )
            assert correct == len(synth_train_tokens), f"seed {seed} not separable"
            for label, info in trained.model.fit_info.items():
                assert info["objective_final"] <= info["objective_epoch1"], (
                    f"seed {seed} class {label} objective rose"
                )


def test_svm_duality(synth_train_tokens, default_cfg):
    # The soft-margin box must not bind for the hard-margin margin check to
    # be meaningful, so this runs at C=2 (the synthetic corpus needs
    # max alpha ~1.8); the box and gap clauses also hold at the default C=1,
    # covered by the unit suite.
    with criterion("svm-duality", 30.0):
        hyper = TrainHyperparams(svm_c=2.0)
        trained = train_from_tokens(synth_train_tokens, "tfidf", "svm", hyper, default_cfg)
        assert all(info["converged"] for info in trained.model.fit_info.values())
        for label, info in trained.model.fit_info.items():
            assert info["alphas"].min() >= 0.0, label
            assert info["alphas"].max() <= hyper.svm_c, label
            gap = info["primal_objective"] - info["dual_objective"]
            assert gap / abs(info["primal_objective"]) <= 1e-2, label
            assert info["margins"].min() >= 1.0 - 1e-3, label


def test_end_to_end_benchmark(synth_train, synth_test, default_cfg, tmp_path):
    with criterion("end-to-end-benchmark", 60.0):
        result = benchmark(
            synth_train, synth_test, TrainHyperparams(), default_cfg, out_dir=tmp_path
        )
        assert [r.method_name for r in result.reports] == list(METHOD_ORDER)
        assert not result.failures
        for report in result.reports:
            assert report.macro_f1 >= 0.95, report.method_name
        tsv = (tmp_path / "comparison.tsv").read_text(encoding="utf-8").splitlines()
        assert tsv[0].split("\t") == [
            "method", "train_sec", "precision", "recall", "f1", "accuracy",
        ]
        assert len(tsv) == 1 + 6


def test_metrics_oracle_equivalence():
    with criterion("metrics-oracle", 5.0):
        report = metrics_from_matrix(ConfusionMatrix(("A", "B"), ((1, 1), (0, 1))))
        assert report.macro_f1 == 2 / 3
        assert report.accuracy == 2 / 3
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 500:
            k = int(rng.integers(2, 8))
            counts = [[int(c) for c in rng.integers(0, 12, size=k)] for _ in range(k)]
            if sum(map(sum, counts)) == 0:
                continue
            checked += 1
            mine = metrics_from_matrix(
                ConfusionMatrix(tuple(f"c{i}" for i in range(k)), tuple(map(tuple, counts)))
            )
            reference = metrics_oracle(counts)
            assert abs(mine.macro_precision - reference["macro_precision"]) <= 1e-12
            assert abs(mine.macro_recall - reference["macro_recall"]) <= 1e-12
            assert abs(mine.macro_f1 - reference["macro_f1"]) <= 1e-12
            assert abs(mine.accuracy - reference["accuracy"]) <= 1e-12


def test_benchmark_determinism(synth_train, synth_test, tmp_path):
    with criterion("benchmark-determinism", 60.0):
        train_path = tmp_path / "train.jsonl"
        test_path = tmp_path / "test.jsonl"
        save_jsonl(synth_train, train_path)
        save_jsonl(synth_test, test_path)
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code = main([
                "benchmark", "--train", str(train_path), "--test", str(test_path),
                "--out-dir", str(out_dir), "--seed", "7", "--repro",
            ])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert set(outputs[0]) == set(outputs[1])
        assert any(name.startswith("model_") for name in outputs[0])
        assert "comparison.tsv" in outputs[0]
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"


@pytest.mark.skipif(
    not (os.environ.get("DOCCAT_REAL_TRAIN") and os.environ.get("DOCCAT_REAL_TEST")),
    reason="conditional criterion: needs a real ~29k/~3k 12-category Bengali corpus "
    "(set DOCCAT_REAL_TRAIN and DOCCAT_REAL_TEST)",
)
def test_conditional_real_corpus_targets(tmp_path):
    """On a comparable real corpus, TF-IDF must beat chi-square for every
    classifier and TFIDF+SVM macro-F1 must land within 5 points of 92.57%."""

    def load(path):
        return load_dir(path) if os.path.isdir(path) else load_jsonl(path)

    with criterion("conditional-real-corpus", 24 * 3600.0):
        train_corpus = load(os.environ["DOCCAT_REAL_TRAIN"])
        test_corpus = load(os.environ["DOCCAT_REAL_TEST"])
        result = benchmark(
            train_corpus, test_corpus, TrainHyperparams(), default_config(), tmp_path
        )
        by_name = {r.method_name: r for r in result.reports}
        for classifier in ("NB", "SGD", "SVM"):
            assert (
                by_name[f"TFIDF+{classifier}"].macro_f1
                > by_name[f"CHI-SQUARE+{classifier}"].macro_f1
            )
        assert abs(by_name["TFIDF+SVM"].macro_f1 - 0.9257) <= 0.05
