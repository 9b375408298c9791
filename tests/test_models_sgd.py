import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doccat import models
from doccat.errors import SingleClassError
from doccat.features import build_vocabulary, select_chi_features, vectorize_corpus
from doccat.models import (
    LinearModel,
    TrainHyperparams,
    model_to_dict,
    predict_linear,
    train_from_tokens,
    train_sgd,
)
from doccat.textprep import preprocess_corpus

from helpers import (
    make_overlapping_corpus,
    matrix,
    predict_row,
    reference_train_sgd,
    row_pairs,
    with_empty_rows,
)


def separable_two_class(n_per_class=10):
    """Two disjoint one-hot features; trivially separable."""
    return matrix([{0: 1.0}, {1: 1.0}] * n_per_class, 2), ["neg", "pos"] * n_per_class


def real_valued_three_class(n_rows=40, n_features=6, seed=0):
    """Rows of three random features in [0.1, 2), three classes in turn."""
    rng = np.random.default_rng(seed)
    rows = [
        dict(zip(rng.choice(n_features, 3, replace=False).tolist(), rng.uniform(0.1, 2.0, 3)))
        for _ in range(n_rows)
    ]
    return matrix(rows, n_features), [("a", "b", "c")[row % 3] for row in range(n_rows)]


class TestTrainSGD:
    def test_separable_data_reaches_full_accuracy(self):
        X, y = separable_two_class()
        model = train_sgd(X, y, TrainHyperparams())
        assert predict_linear(model, X)[0] == y

    def test_objective_descends_after_first_epoch(self):
        X, y = separable_two_class()
        model = train_sgd(X, y, TrainHyperparams())
        for label, info in model.fit_info.items():
            assert info["objective_final"] <= info["objective_epoch1"]

    def test_huge_regularization_shrinks_weights(self):
        X, y = separable_two_class()
        hyper = TrainHyperparams(sgd_alpha=1e6, sgd_epochs=5)
        model = train_sgd(X, y, hyper)
        assert np.linalg.norm(model.weights) < 1e-3

    def test_symmetric_problem_mirrors_weights(self):
        # one example per class with identical features: the two one-vs-rest
        # problems are exact mirrors, so weights and biases cancel
        X = matrix([{0: 1.0}, {0: 1.0}], 1)
        model = train_sgd(X, ["a", "b"], TrainHyperparams(sgd_epochs=10))
        assert model.weights[0] == pytest.approx(-model.weights[1], abs=0.0)
        assert model.biases[0] == pytest.approx(-model.biases[1], abs=0.0)
        _, scores = predict_row(model, {0: 1.0})
        assert scores["a"] == pytest.approx(-scores["b"], abs=0.0)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            train_sgd(matrix([{0: 1.0}, {0: 2.0}], 1), ["c", "c"], TrainHyperparams())

    def test_deterministic_given_seed(self, synth_train_tokens, default_cfg):
        runs = [
            train_from_tokens(
                synth_train_tokens, "tfidf", "sgd", TrainHyperparams(seed=7), default_cfg
            )
            for _ in range(2)
        ]
        payloads = [json.dumps(model_to_dict(m)) for m in runs]
        assert payloads[0] == payloads[1]

    def test_different_seeds_differ(self, synth_train_tokens, default_cfg):
        m1 = train_from_tokens(
            synth_train_tokens, "tfidf", "sgd", TrainHyperparams(seed=1), default_cfg
        )
        m2 = train_from_tokens(
            synth_train_tokens, "tfidf", "sgd", TrainHyperparams(seed=2), default_cfg
        )
        assert not np.array_equal(m1.model.weights, m2.model.weights)


class TestOrders:
    """`models._orders`, the example order of every SGD epoch and SVM pass."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 240, 1024, 1025])
    def test_each_draw_is_an_intp_permutation(self, n):
        orders = models._orders(7, n)
        for _ in range(3):
            order = next(orders)
            assert order.dtype == np.intp
            assert sorted(order.tolist()) == list(range(n))

    def test_one_example_orders_to_itself(self):
        assert next(models._orders(42, 1)).tolist() == [0]

    def test_seed_42_stream_is_pinned(self):
        # Any change to the stream changes every SGD and SVM model.
        orders = models._orders(42, 8)
        assert [next(orders).tolist() for _ in range(2)] == [
            [4, 0, 3, 2, 6, 7, 5, 1],
            [0, 1, 2, 7, 4, 3, 6, 5],
        ]

    def test_first_orders_of_three_are_near_uniform(self):
        # Deterministic: over seeds 0-5999 the counts run from 977 to 1090.
        counts = Counter(tuple(next(models._orders(seed, 3)).tolist()) for seed in range(6000))
        assert len(counts) == 6
        assert all(850 <= count <= 1150 for count in counts.values()), counts


class TestPredictLinear:
    def test_sign_check(self):
        model = LinearModel(
            class_labels=("c1", "c2"),
            weights=np.array([[1.0], [-1.0]]),
            biases=np.zeros(2),
            trainer_tag="sgd",
        )
        label, scores = predict_row(model, {0: 1.0})
        assert label == "c1"
        assert scores == {"c1": 1.0, "c2": -1.0}

    def test_empty_vector_scores_biases(self):
        model = LinearModel(
            class_labels=("a", "b"),
            weights=np.zeros((2, 3)),
            biases=np.array([-1.0, 2.0]),
            trainer_tag="sgd",
        )
        label, scores = predict_row(model, {})
        assert label == "b"
        assert scores == {"a": -1.0, "b": 2.0}

    def test_all_equal_scores_tie_to_first(self):
        model = LinearModel(
            class_labels=("a", "b", "c"),
            weights=np.zeros((3, 2)),
            biases=np.zeros(3),
            trainer_tag="sgd",
        )
        labels, _ = predict_linear(model, matrix([{0: 5.0}, {}], 2))
        assert labels == ["a", "a"]

    def test_feature_count_mismatch_rejected(self):
        model = LinearModel(
            class_labels=("a", "b"),
            weights=np.zeros((2, 2)),
            biases=np.zeros(2),
            trainer_tag="sgd",
        )
        with pytest.raises(ValueError, match="features"):
            predict_linear(model, matrix([{2: 1.0}], 3))


def objective_from_definition(X, y, label, weights, bias, alpha):
    """(alpha/2) ||w||^2 + (1/n) sum max(0, 1 - t (w.x + b)), written out."""
    total = 0.0
    for row, example_label in enumerate(y):
        target = 1.0 if example_label == label else -1.0
        score = sum(weights[i] * v for i, v in row_pairs(X, row)) + bias
        total += max(0.0, 1.0 - target * score)
    return 0.5 * alpha * sum(w * w for w in weights) + total / len(y)


class TestHingeObjective:
    """`fit_info` objectives against the definition of the SGD objective."""

    def test_manual_computation(self):
        X = matrix([{0: 1.0}, {0: -2.0, 1: 0.5}, {1: 1.5}, {0: 0.3}], 2)
        y = ["a", "b", "c", "a"]
        hyper = TrainHyperparams(sgd_alpha=0.1, sgd_epochs=3)
        model = train_sgd(X, y, hyper)
        for row, label in enumerate(model.class_labels):
            expected = objective_from_definition(
                X, y, label, model.weights[row], model.biases[row], hyper.sgd_alpha
            )
            assert model.fit_info[label]["objective_final"] == pytest.approx(
                expected, abs=1e-12
            )

    def test_zero_loss_beyond_margin(self):
        X, y = separable_two_class()
        hyper = TrainHyperparams()
        model = train_sgd(X, y, hyper)
        for row, label in enumerate(model.class_labels):
            w, b = model.weights[row], model.biases[row]
            for example, example_label in enumerate(y):
                target = 1.0 if example_label == label else -1.0
                score = sum(w[i] * v for i, v in row_pairs(X, example)) + b
                assert target * score >= 1.0
            regularizer = 0.5 * hyper.sgd_alpha * float(w @ w)
            assert model.fit_info[label]["objective_final"] == pytest.approx(
                regularizer, abs=1e-15
            )


def overlapping_tfidf(cfg, n_categories):
    docs = preprocess_corpus(make_overlapping_corpus(8, seed=11, n_categories=n_categories), cfg)
    vocab = build_vocabulary(docs)
    return vectorize_corpus(docs, vocab), [doc.label for doc in docs]


@pytest.fixture(scope="module")
def three_class_tfidf(default_cfg):
    return overlapping_tfidf(default_cfg, 3)


class TestOneVsRestRows:
    def test_each_row_equals_its_class_trained_alone(self, three_class_tfidf):
        X, y = three_class_tfidf
        hyper = TrainHyperparams(seed=5)
        model = train_sgd(X, y, hyper)
        assert len(model.class_labels) == 3
        for row, label in enumerate(model.class_labels):
            relabeled = [label if example == label else "~rest" for example in y]
            alone = train_sgd(X, relabeled, hyper)
            alone_row = alone.class_labels.index(label)
            assert model.weights[row] == pytest.approx(alone.weights[alone_row], abs=0)
            assert model.biases[row] == pytest.approx(alone.biases[alone_row], abs=0)


def assert_matches_reference(X, y, hyper):
    """train_sgd against the per-step reference, bit for bit; returns the
    reference's count of steps per number of classes updated."""
    model = train_sgd(X, y, hyper)
    reference, classes_per_step = reference_train_sgd(X, y, hyper)
    assert model.class_labels == reference.class_labels
    assert model.weights.tobytes() == reference.weights.tobytes()
    assert model.biases.tobytes() == reference.biases.tobytes()
    assert model.fit_info == reference.fit_info
    return classes_per_step


def _sgd_block_case(n_rows, n_features, n_classes, seed):
    """A random CSR matrix of rows with 0 to n_features entries in [0.1, 3),
    and labels from n_classes classes with at least two of them used."""
    rng = np.random.default_rng(seed)
    rows = [
        {
            int(index): float(rng.uniform(0.1, 3.0))
            for index in rng.choice(n_features, rng.integers(0, n_features + 1), replace=False)
        }
        for _ in range(n_rows)
    ]
    classes = "abcd"[:n_classes]
    y = ["a", "b"] + [classes[k] for k in rng.integers(0, n_classes, n_rows - 2)]
    return matrix(rows, n_features), [y[k] for k in rng.permutation(n_rows)]


@st.composite
def sgd_block_cases(draw):
    """`_sgd_block_case` over 1 to 3 blocks, the last holding 1, 2,
    models._BLOCK_ROWS - 1 or models._BLOCK_ROWS rows (at least 2 in all),
    and hyperparameters for it."""
    size = models._BLOCK_ROWS
    last = draw(st.sampled_from((1, 2, size - 1, size)))
    n_rows = max(2, draw(st.integers(0, 2)) * size + last)
    X, y = _sgd_block_case(
        n_rows, draw(st.integers(1, 8)), draw(st.integers(2, 4)),
        draw(st.integers(0, 2**32 - 1)),
    )
    hyper = TrainHyperparams(
        sgd_alpha=draw(st.floats(1e-3, 1.0)), sgd_epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return X, y, hyper


class TestBlockScoringMatchesPerStepReference:
    """Block scoring skips steps whose margins are all at least 1; the
    weights, biases and fit_info must equal those of scoring every step."""

    # Two one-vs-rest problems mirror each other, so a step updates both
    # classes or neither; with three, a step updates any number of them.
    @pytest.mark.parametrize("n_categories,classes_updated", [(2, {0, 2}), (3, {0, 1, 2, 3})])
    def test_overlapping_tfidf(self, default_cfg, n_categories, classes_updated):
        X, y = overlapping_tfidf(default_cfg, n_categories)
        classes_per_step = assert_matches_reference(X, y, TrainHyperparams(seed=5))
        assert set(classes_per_step) == classes_updated

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_strong_decay(self, three_class_tfidf, alpha):
        # Each step decays the scale by 1 / (t0 + t) of itself, so margins
        # scored with the scale after the step instead of before would differ.
        X, y = three_class_tfidf
        assert_matches_reference(X, y, TrainHyperparams(sgd_alpha=alpha, sgd_epochs=10))

    def test_chi2_counts_with_empty_rows_at_start_middle_and_end(self, default_cfg):
        docs = preprocess_corpus(make_overlapping_corpus(20, seed=12, n_categories=3), default_cfg)
        X = vectorize_corpus(docs, select_chi_features(docs, 30.0))
        y = [doc.label for doc in docs]
        X, y = with_empty_rows(X, y, [0, X.shape[0] // 2, X.shape[0]], sorted(set(y)))
        lengths = np.diff(X.indptr)
        assert lengths[0] == lengths[X.shape[0] // 2] == lengths[-1] == 0
        assert X.shape[0] > 32  # longer than one block
        assert_matches_reference(X, y, TrainHyperparams(seed=3))

    def test_blocks_of_empty_rows(self):
        # 40 of 44 rows are empty, so some blocks of several rows gather no entries.
        rows = [{}] * 40 + [{0: 1.0}, {1: 2.0}, {0: 1.0, 2: 0.5}, {2: 3.0}]
        y = ["a", "b"] * 20 + ["a", "b", "a", "b"]
        assert_matches_reference(matrix(rows, 3), y, TrainHyperparams(sgd_epochs=20))

    def test_all_rows_empty(self):
        X, y = matrix([{}] * 10, 2), ["a", "b", "c", "a", "a", "b", "c", "a", "b", "a"]
        assert_matches_reference(X, y, TrainHyperparams(sgd_epochs=5))
        assert not train_sgd(X, y, TrainHyperparams(sgd_epochs=5)).weights.any()

    @pytest.mark.parametrize(
        "make_data", [separable_two_class, real_valued_three_class],
        ids=["two_class", "three_class"],
    )
    @pytest.mark.parametrize("alpha", [1e8, 1e12], ids=["1e8", "1e12"])
    def test_no_rescale(self, make_data, alpha):
        X, y = make_data()
        hyper = TrainHyperparams(sgd_alpha=alpha, sgd_epochs=5)
        # The scale after t steps telescopes to
        # prod_s (t0 + s - 1) / (t0 + s) = t0 / (t0 + t): it ends at most
        # 1e-10 (alpha 1e8) or 1e-14 (alpha 1e12), far below a rescale floor
        # of 1e-9 (Bottou 2012), and still needs no rescale.
        t0 = 1.0 / alpha
        assert t0 / (t0 + hyper.sgd_epochs * len(y)) <= 1e-10
        # Such a decay keeps every margin below 1, so every step divides its
        # update by that small scale, and v stays bounded without a rescale.
        assert assert_matches_reference(X, y, hyper)[0] == 0
        assert np.isfinite(train_sgd(X, y, hyper).weights).all()

    @pytest.mark.parametrize("alpha", [1e8, 1e12], ids=["1e8", "1e12"])
    def test_no_rescale_in_idle_block(self, alpha):
        # Features of 1e9 push every margin far above 1 once each class has
        # been updated, so most blocks update nothing while the scale falls
        # below 1e-10 (alpha 1e8) or 1e-14 (alpha 1e12) without a rescale.
        X = matrix([{0: 1e9}, {1: 1e9}] * 20, 2)
        y = ["neg", "pos"] * 20
        hyper = TrainHyperparams(sgd_alpha=alpha, sgd_epochs=3)
        t0 = 1.0 / alpha
        assert t0 / (t0 + hyper.sgd_epochs * len(y)) < 1e-10
        classes_per_step = assert_matches_reference(X, y, hyper)
        assert classes_per_step[0] > 100
        assert np.isfinite(train_sgd(X, y, hyper).weights).all()

    # The labels are random, so most steps update some class: a block holds
    # several updates, and its last row often updates too.
    @settings(max_examples=60, deadline=None)
    @example((*_sgd_block_case(2 * models._BLOCK_ROWS + 1, 5, 3, 0),
              TrainHyperparams(sgd_alpha=0.1, sgd_epochs=2)))
    @given(sgd_block_cases())
    def test_random_block_layouts(self, case):
        assert_matches_reference(*case)
