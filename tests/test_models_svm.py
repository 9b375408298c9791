import tracemalloc
import warnings

import numpy as np
import pytest

from doccat import models
from doccat.errors import ConvergenceWarning, SingleClassError
from doccat.features import CorpusMatrix, build_feature_space, build_vocabulary, vectorize_corpus
from doccat.models import (
    SVM_TOLERANCE,
    TrainHyperparams,
    predict_tokenized,
    train_from_tokens,
    train_svm,
)
from doccat.textprep import preprocess_corpus

from helpers import (
    make_overlapping_corpus,
    matrix,
    predict_row,
    reference_train_svm,
    with_empty_rows,
)


def two_point_problem():
    return matrix([{0: 1.0}, {0: -1.0}], 1), ["pos", "neg"]


class TestTwoPointProblem:
    """1-D problem solvable by hand: x=+1 labeled pos, x=-1 labeled neg.

    With the bias handled as a constant-1 feature, the dual optimum for the
    'pos' one-vs-rest problem is alpha = (1/2, 1/2), giving w = 1 on the
    data feature, b = 0, and dual objective 1/2 (verified by brute-force
    grid over alpha in [0, 1]^2).
    """

    def test_matches_grid_verified_optimum(self):
        X, y = two_point_problem()
        model = train_svm(X, y, TrainHyperparams(svm_c=1.0))
        pos_row = model.class_labels.index("pos")
        assert model.weights[pos_row, 0] == pytest.approx(1.0, abs=1e-3)
        assert model.biases[pos_row] == pytest.approx(0.0, abs=1e-3)
        info = model.fit_info["pos"]
        assert info["dual_objective"] == pytest.approx(0.5, abs=1e-3)
        assert info["alphas"] == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_classifies_both_points(self):
        X, y = two_point_problem()
        model = train_svm(X, y, TrainHyperparams())
        assert predict_row(model, {0: 1.0})[0] == "pos"
        assert predict_row(model, {0: -1.0})[0] == "neg"

    def test_kkt_margins(self):
        X, y = two_point_problem()
        model = train_svm(X, y, TrainHyperparams())
        for info in model.fit_info.values():
            assert info["margins"].min() >= 1.0 - 1e-3

    def test_zero_duality_gap(self):
        X, y = two_point_problem()
        model = train_svm(X, y, TrainHyperparams())
        info = model.fit_info["pos"]
        assert info["primal_objective"] - info["dual_objective"] == pytest.approx(0.0, abs=1e-3)


class TestDualityGap:
    def test_gap_is_relative_to_the_primal_objective(self, default_cfg):
        docs = preprocess_corpus(make_overlapping_corpus(6, seed=3), default_cfg)
        X = vectorize_corpus(docs, build_vocabulary(docs))
        y = [doc.label for doc in docs]
        for hyper in (TrainHyperparams(), TrainHyperparams(svm_c=100.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                model = train_svm(X, y, hyper)
            for info in model.fit_info.values():
                primal, dual = info["primal_objective"], info["dual_objective"]
                assert primal > 0.0
                assert info["gap"] == (primal - dual) / abs(primal)
                # weak duality, up to rounding
                assert info["gap"] >= -1e-12

    def test_one_pass_leaves_a_larger_gap(self, default_cfg, monkeypatch):
        docs = preprocess_corpus(make_overlapping_corpus(6, seed=3), default_cfg)
        X = vectorize_corpus(docs, build_vocabulary(docs))
        y = [doc.label for doc in docs]
        converged = train_svm(X, y, TrainHyperparams())
        assert all(info["converged"] for info in converged.fit_info.values())
        monkeypatch.setattr(models, "SVM_MAX_PASSES", 1)
        with pytest.warns(ConvergenceWarning):
            capped = train_svm(X, y, TrainHyperparams())
        for label, info in capped.fit_info.items():
            assert info["gap"] > converged.fit_info[label]["gap"]


class TestTrainSVM:
    def test_vanishing_c_shrinks_weights(self):
        X, y = two_point_problem()
        model = train_svm(X, y, TrainHyperparams(svm_c=1e-8))
        assert np.abs(model.weights).max() <= 2e-8

    def test_alphas_stay_in_box(self, synth_train_tokens, default_cfg):
        trained = train_from_tokens(
            synth_train_tokens, "tfidf", "svm", TrainHyperparams(), default_cfg
        )
        for info in trained.model.fit_info.values():
            assert info["alphas"].min() >= 0.0
            assert info["alphas"].max() <= 1.0

    def test_duality_gap_at_default_c(self, synth_train_tokens, default_cfg):
        trained = train_from_tokens(
            synth_train_tokens, "tfidf", "svm", TrainHyperparams(), default_cfg
        )
        for info in trained.model.fit_info.values():
            gap = info["primal_objective"] - info["dual_objective"]
            assert gap >= -1e-9  # weak duality
            assert gap / abs(info["primal_objective"]) <= 1e-2

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            train_svm(matrix([{0: 1.0}, {0: 2.0}], 1), ["c", "c"], TrainHyperparams())

    def test_non_convergence_warns_and_flags(self, monkeypatch):
        monkeypatch.setattr(models, "SVM_MAX_PASSES", 1)
        rng = np.random.default_rng(5)
        X = matrix([{j: float(rng.normal()) for j in range(4)} for _ in range(30)], 4)
        y = [("a", "b")[int(rng.integers(0, 2))] for _ in range(30)]
        y[0], y[1] = "a", "b"
        with pytest.warns(ConvergenceWarning):
            model = train_svm(X, y, TrainHyperparams())
        assert not all(info["converged"] for info in model.fit_info.values())
        assert model.weights.shape == (2, 4)  # model still returned

    def test_deterministic(self):
        X, y = two_point_problem()
        m1 = train_svm(X, y, TrainHyperparams())
        m2 = train_svm(X, y, TrainHyperparams())
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)


@pytest.fixture(scope="module")
def overlapping_tokens(default_cfg):
    return preprocess_corpus(make_overlapping_corpus(20, seed=7), default_cfg)


def train_overlapping(tokens, cfg, selector="tfidf", seed=42):
    return train_from_tokens(
        tokens, selector, "svm", TrainHyperparams(seed=seed), cfg
    ).model


class TestOverlappingCorpus:
    """Label-grouped 12 x 20 corpus whose classes share most of their terms.

    The size is chosen so that a solver visiting the examples in a fixed
    cyclic order would stop above tolerance at the 1000-pass cap on TF-IDF.
    """

    @pytest.mark.parametrize("selector", ["tfidf", "chi2"])
    def test_converges_at_default_c(self, overlapping_tokens, default_cfg, selector):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            model = train_overlapping(overlapping_tokens, default_cfg, selector)
        assert all(info["converged"] for info in model.fit_info.values())
        for label, info in model.fit_info.items():
            assert info["converged"] is True, label
            assert info["violation"] < SVM_TOLERANCE, label
            assert info["gap"] < 1e-2, label

    def test_same_seed_gives_identical_model(self, overlapping_tokens, default_cfg):
        m1 = train_overlapping(overlapping_tokens, default_cfg, seed=3)
        m2 = train_overlapping(overlapping_tokens, default_cfg, seed=3)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)

    def test_different_seeds_reach_the_same_optimum(self, overlapping_tokens, default_cfg):
        m1 = train_overlapping(overlapping_tokens, default_cfg, seed=1)
        m2 = train_overlapping(overlapping_tokens, default_cfg, seed=2)
        for model in (m1, m2):
            assert all(info["converged"] for info in model.fit_info.values())
        assert not np.array_equal(m1.weights, m2.weights)  # the seed reaches the solver
        for label in m1.class_labels:
            assert m2.fit_info[label]["dual_objective"] == pytest.approx(
                m1.fit_info[label]["dual_objective"], rel=1e-3
            ), label


def overlapping_matrix(tokens, selector):
    X = vectorize_corpus(tokens, build_feature_space(tokens, selector, 30.0))
    return X, [doc.label for doc in tokens]


def assert_matches_reference(X, y):
    hyper = TrainHyperparams()
    model = train_svm(X, y, hyper)
    reference = reference_train_svm(X, y, hyper, SVM_TOLERANCE, models.SVM_MAX_PASSES)
    assert model.class_labels == reference.class_labels
    assert np.array_equal(model.weights, reference.weights)
    assert np.array_equal(model.biases, reference.biases)
    assert (all(info["converged"] for info in model.fit_info.values())
            == all(info["converged"] for info in reference.fit_info.values()))
    for label, expected in reference.fit_info.items():
        info = model.fit_info[label]
        assert info.keys() == expected.keys(), label
        for key, value in expected.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(info[key], value), (label, key)
            else:
                assert info[key] == value, (label, key)
    return model


class TestMatchesPerStepReference:
    """The step shares one gather between gradient and update, steps the
    stopped classes by zero and takes the violation once per pass; the
    result must equal that of the per-step loop with masked classes."""

    @pytest.mark.parametrize("selector", ["tfidf", "chi2"])
    def test_overlapping_corpus(self, overlapping_tokens, selector):
        model = assert_matches_reference(*overlapping_matrix(overlapping_tokens, selector))
        assert all(info["converged"] for info in model.fit_info.values())
        passes = [info["passes"] for info in model.fit_info.values()]
        # Classes that stop early are carried through later passes.
        assert min(passes) < max(passes)
        for info in model.fit_info.values():
            assert 0 < info["updates"] <= info["passes"] * len(info["alphas"])

    @pytest.mark.parametrize("selector", ["tfidf", "chi2"])
    def test_a_stopped_class_stays_frozen(self, overlapping_tokens, monkeypatch, selector):
        """The class that stops first ends a run capped at its pass count with
        the bits it ends the full run with: the later passes never move it."""
        X, y = overlapping_matrix(overlapping_tokens, selector)
        full = train_svm(X, y, TrainHyperparams())
        passes = {label: info["passes"] for label, info in full.fit_info.items()}
        first = min(passes, key=passes.get)
        assert passes[first] < max(passes.values())
        monkeypatch.setattr(models, "SVM_MAX_PASSES", passes[first])
        with pytest.warns(ConvergenceWarning):
            capped = train_svm(X, y, TrainHyperparams())
        assert capped.fit_info[first]["converged"] is True
        row = full.class_labels.index(first)
        assert (capped.fit_info[first]["alphas"].tobytes()
                == full.fit_info[first]["alphas"].tobytes())
        assert capped.weights[row].tobytes() == full.weights[row].tobytes()
        assert capped.biases[row].tobytes() == full.biases[row].tobytes()

    @pytest.mark.parametrize("selector", ["tfidf", "chi2"])
    def test_empty_rows_and_a_full_row(self, overlapping_tokens, selector):
        """An empty row's step holds the bias entry alone, and a row holding
        every feature fills the trainer's widest gather."""
        X, y = overlapping_matrix(overlapping_tokens, selector)
        n_features, n_rows = X.n_features, X.shape[0]
        full = CorpusMatrix(
            np.append(X.indptr, X.indptr[-1] + n_features),
            np.concatenate((X.indices, np.arange(n_features))),
            np.concatenate((X.values, np.full(n_features, X.values.mean()))),
            n_features,
        )
        X, y = with_empty_rows(full, y + [y[0]], [0, n_rows // 2, n_rows + 1], sorted(set(y)))
        lengths = np.diff(X.indptr)
        assert lengths[0] == lengths[n_rows // 2 + 1] == lengths[-1] == 0
        assert lengths.max() == n_features
        assert_matches_reference(X, y)

    # Runs capped after an even and after an odd number of passes: a fit
    # that stops before converging matches the per-step loop either way.
    @pytest.mark.parametrize("max_passes", [2, 3])
    def test_capped_run(self, overlapping_tokens, monkeypatch, max_passes):
        monkeypatch.setattr(models, "SVM_MAX_PASSES", max_passes)
        X, y = overlapping_matrix(overlapping_tokens, "tfidf")
        with pytest.warns(ConvergenceWarning):
            model = assert_matches_reference(X, y)
        assert not all(info["converged"] for info in model.fit_info.values())
        assert all(info["passes"] == max_passes for info in model.fit_info.values())


class TestOneVsRestRows:
    def test_each_row_matches_its_class_trained_alone(self, default_cfg):
        docs = preprocess_corpus(make_overlapping_corpus(8, seed=11, n_categories=3), default_cfg)
        vocab = build_vocabulary(docs)
        X, y = vectorize_corpus(docs, vocab), [doc.label for doc in docs]
        hyper = TrainHyperparams(seed=5)
        model = train_svm(X, y, hyper)
        assert len(model.class_labels) == 3
        assert all(info["converged"] for info in model.fit_info.values())
        for row, label in enumerate(model.class_labels):
            relabeled = [label if example == label else "~rest" for example in y]
            alone = train_svm(X, relabeled, hyper)
            alone_row = alone.class_labels.index(label)
            assert model.weights[row] == pytest.approx(alone.weights[alone_row], abs=1e-12)
            assert model.biases[row] == pytest.approx(alone.biases[alone_row], abs=1e-12)
            assert model.fit_info[label]["passes"] == alone.fit_info[label]["passes"]


class TestAgreementWithSGD:
    def test_predictions_mostly_agree_on_separable_data(self, synth_train_tokens, default_cfg):
        hyper = TrainHyperparams()
        svm = train_from_tokens(synth_train_tokens, "tfidf", "svm", hyper, default_cfg)
        sgd = train_from_tokens(synth_train_tokens, "tfidf", "sgd", hyper, default_cfg)
        agree = sum(
            predict_tokenized(svm, doc)[0] == predict_tokenized(sgd, doc)[0]
            for doc in synth_train_tokens
        )
        assert agree / len(synth_train_tokens) >= 0.9


class TestFitMemory:
    """The fit's traced memory per training row, so that what the fit holds
    per row (mostly each row's step views) cannot grow back unnoticed."""

    # Bytes per row of a 2-pass fit on the 3 x 200 corpus below, both
    # selectors alike (Python 3.11, numpy 2.4): 2,063 when every row held
    # its own three views of the fit-wide buffers, 1,743 with one set of
    # views per row width.
    BOUND = 1_900

    @pytest.mark.parametrize("selector", ["tfidf", "chi2"])
    def test_peak_per_row(self, default_cfg, monkeypatch, selector):
        corpus = make_overlapping_corpus(200, seed=7, n_categories=3)
        X, y = overlapping_matrix(preprocess_corpus(corpus, default_cfg), selector)
        monkeypatch.setattr(models, "SVM_MAX_PASSES", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            train_svm(X, y, TrainHyperparams())  # pays the process's first-call costs
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                train_svm(X, y, TrainHyperparams())
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if started:
                    tracemalloc.stop()
        assert peak / len(y) < self.BOUND, peak / len(y)
