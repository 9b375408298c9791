import math

import numpy as np
import pytest

from doccat.errors import LengthMismatchError, NegativeFeatureError, SingleClassError
from doccat.models import LinearModel, TrainHyperparams, predict_linear, train_nb

from helpers import matrix, nb_oracle, nb_oracle_predict, predict_row


@pytest.fixture()
def two_class_model():
    # c1 sees {a:2, b:1}; c2 sees {b:2}; V=2, alpha=0.01
    X = matrix([{0: 2.0, 1: 1.0}, {1: 2.0}], 2)
    return train_nb(X, ["c1", "c2"], TrainHyperparams(nb_alpha=0.01))


class TestTrainNB:
    def test_smoothed_likelihoods(self, two_class_model):
        lik = np.exp(two_class_model.weights)
        assert lik[0] == pytest.approx([2.01 / 3.02, 1.01 / 3.02], abs=1e-12)
        assert lik[1] == pytest.approx([0.01 / 2.02, 2.01 / 2.02], abs=1e-12)
        assert np.exp(two_class_model.biases) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_prior_and_likelihood_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_docs = int(rng.integers(2, 8))
            n_feat = int(rng.integers(2, 6))
            labels = [f"c{int(rng.integers(0, 3))}" for _ in range(n_docs)]
            labels[0], labels[1] = "c0", "c1"
            rows = []
            for _ in range(n_docs):
                row = {j: float(rng.integers(1, 5)) for j in range(n_feat)
                       if rng.integers(0, 2)}
                rows.append(row or {0: 1.0})
            model = train_nb(matrix(rows, n_feat), labels, TrainHyperparams(nb_alpha=0.5))
            assert float(np.exp(model.biases).sum()) == pytest.approx(1.0, abs=1e-9)
            for row in np.exp(model.weights):
                assert float(row.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            train_nb(matrix([{0: 1.0}, {0: 2.0}], 1), ["c", "c"], TrainHyperparams(nb_alpha=0.01))

    def test_negative_feature_rejected(self):
        with pytest.raises(NegativeFeatureError):
            train_nb(matrix([{0: -1.0}, {0: 1.0}], 1), ["a", "b"], TrainHyperparams(nb_alpha=0.01))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            train_nb(matrix([{0: 1.0}], 1), ["a", "b"], TrainHyperparams(nb_alpha=0.01))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="^nb_alpha must be positive and finite"):
            TrainHyperparams(nb_alpha=alpha)

    def test_large_alpha_approaches_uniform(self):
        model = train_nb(
            matrix([{0: 3.0}, {1: 1.0}], 2), ["a", "b"], TrainHyperparams(nb_alpha=1e9)
        )
        lik = np.exp(model.weights)
        assert lik == pytest.approx(np.full((2, 2), 0.5), abs=1e-6)

    def test_fractional_weights_accepted(self):
        model = train_nb(
            matrix([{0: 0.25, 1: 0.75}, {1: 0.1}], 2), ["a", "b"], TrainHyperparams(nb_alpha=0.01)
        )
        assert np.isfinite(model.weights).all()


class TestPredictNB:
    def test_hand_computed_scores(self, two_class_model):
        label, scores = predict_row(two_class_model, {0: 1.0})
        assert label == "c1"
        assert scores["c1"] == pytest.approx(-1.1002692898757394, abs=1e-12)
        assert scores["c2"] == pytest.approx(-6.0014148779611505, abs=1e-12)

    def test_empty_vector_falls_back_to_priors(self):
        model = train_nb(
            matrix([{0: 1.0}, {0: 1.0}, {1: 1.0}], 2), ["a", "a", "b"], TrainHyperparams(nb_alpha=1.0)
        )
        label, scores = predict_row(model, {})
        assert label == "a"
        assert scores["a"] == pytest.approx(math.log(2 / 3), abs=1e-12)

    def test_exact_tie_goes_to_lexicographically_first(self):
        model = LinearModel(
            class_labels=("a", "b"),
            weights=np.log([[0.5, 0.5], [0.5, 0.5]]),
            biases=np.log([0.5, 0.5]),
            trainer_tag="nb",
        )
        labels, _ = predict_linear(model, matrix([{0: 1.0, 1: 1.0}, {}], 2))
        assert labels == ["a", "a"]

    def test_feature_count_mismatch_rejected(self, two_class_model):
        with pytest.raises(ValueError, match="features"):
            predict_linear(two_class_model, matrix([{5: 1.0}], 6))

    def test_scaling_preserves_argmax_under_uniform_priors(self):
        rng = np.random.default_rng(21)
        X = matrix([{0: 2.0, 1: 1.0}, {1: 3.0}, {0: 1.0}, {1: 1.0, 2: 2.0}], 3)
        model = train_nb(X, ["a", "b", "a", "b"], TrainHyperparams(nb_alpha=0.01))
        for _ in range(25):
            x = {j: float(rng.integers(1, 4)) for j in range(3) if rng.integers(0, 2)}
            lam = float(rng.uniform(0.1, 10.0))
            base, _ = predict_row(model, x)
            scaled, _ = predict_row(model, {j: lam * v for j, v in x.items()})
            assert base == scaled


class TestNBOracle:
    def test_parameters_and_argmax_match_brute_force(self):
        rng = np.random.default_rng(777)
        for trial in range(40):
            n_docs = int(rng.integers(2, 6))
            n_feat = int(rng.integers(2, 7))
            alpha = (0.01, 1.0)[trial % 2]
            labels = [f"c{int(rng.integers(0, 3))}" for _ in range(n_docs)]
            labels[0], labels[1] = "c0", "c1"
            rows = []
            for _ in range(n_docs):
                row = {j: float(rng.integers(0, 4)) for j in range(n_feat)}
                rows.append({j: v for j, v in row.items() if v > 0})
            model = train_nb(matrix(rows, n_feat), labels, TrainHyperparams(nb_alpha=alpha))
            classes, priors, likelihoods = nb_oracle(rows, labels, alpha, n_feat)
            assert tuple(classes) == model.class_labels
            for ci, c in enumerate(classes):
                assert model.biases[ci] == pytest.approx(math.log(priors[c]), abs=1e-9)
                for j in range(n_feat):
                    assert model.weights[ci][j] == pytest.approx(
                        math.log(likelihoods[c][j]), abs=1e-9
                    )
            query = {j: float(rng.integers(0, 3)) for j in range(n_feat)}
            query = {j: v for j, v in query.items() if v > 0}
            predicted, _ = predict_row(model, query)
            assert predicted == nb_oracle_predict(classes, priors, likelihoods, query)
