import copy
import json
import math

import numpy as np
import pytest

from doccat.errors import ModelFormatError, SingleClassError
from doccat.models import (
    TrainHyperparams,
    load_model,
    model_to_dict,
    predict_tokenized,
    save_model,
    train,
    train_from_tokens,
)
from doccat.textprep import preprocess_corpus

from helpers import make_synthetic_corpus

ALL_COMBOS = [(sel, clf) for sel in ("tfidf", "chi2") for clf in ("nb", "sgd", "svm")]


@pytest.fixture(scope="module")
def small_tokens(default_cfg):
    corpus = make_synthetic_corpus(4, seed=31, n_categories=3, pool_size=3)
    return preprocess_corpus(corpus, default_cfg)


class TestTrainPipelines:
    @pytest.mark.parametrize("selector,classifier", ALL_COMBOS)
    def test_every_combo_trains_and_round_trips(
        self, selector, classifier, small_tokens, default_cfg, tmp_path
    ):
        trained = train_from_tokens(
            small_tokens, selector, classifier, TrainHyperparams(), default_cfg.digest()
        )
        assert trained.selector == selector
        assert trained.feature_mode == ("tfidf" if selector == "tfidf" else "counts")
        assert trained.model.vocab_size == len(trained.vocabulary)
        assert trained.train_seconds > 0
        assert list(trained.stage_seconds) == ["features", "vectorize", "fit"]
        assert all(seconds > 0 for seconds in trained.stage_seconds.values())
        assert trained.train_seconds == sum(trained.stage_seconds.values())

        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.stage_seconds == {"features": 0.0, "vectorize": 0.0, "fit": 0.0}
        assert loaded.train_seconds == 0.0
        assert loaded.class_labels == trained.class_labels
        assert loaded.preprocess_config_digest == default_cfg.digest()
        save_model(loaded, tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()
        for doc in small_tokens[:5]:
            assert predict_tokenized(loaded, doc)[0] == predict_tokenized(trained, doc)[0]

    def test_tfidf_nb_accepts_fractional_weights(self, small_tokens, default_cfg):
        trained = train_from_tokens(
            small_tokens, "tfidf", "nb", TrainHyperparams(), default_cfg.digest()
        )
        assert trained.model.trainer_tag == "nb"
        assert np.isfinite(trained.model.weights).all()

    def test_unknown_classifier_fails_before_any_work(self, small_tokens, default_cfg):
        with pytest.raises(ValueError, match="classifier"):
            train_from_tokens(
                small_tokens, "tfidf", "forest", TrainHyperparams(), default_cfg.digest()
            )

    def test_unknown_selector_fails_before_any_work(self, small_tokens, default_cfg):
        with pytest.raises(ValueError, match="selector"):
            train_from_tokens(
                small_tokens, "mutualinfo", "nb", TrainHyperparams(), default_cfg.digest()
            )

    def test_single_label_corpus_rejected(self, default_cfg):
        corpus = make_synthetic_corpus(4, seed=3, n_categories=1, pool_size=3)
        with pytest.raises(SingleClassError):
            train(corpus, "tfidf", "nb", TrainHyperparams(), default_cfg)


class TestModelFile:
    @pytest.mark.parametrize(
        "classifier,parameter_keys",
        [("nb", ["log_prior", "log_likelihood"]), ("svm", ["weights", "biases"])],
        ids=["nb", "svm"],
    )
    def test_schema_fields(self, classifier, parameter_keys, small_tokens, default_cfg):
        trained = train_from_tokens(
            small_tokens, "chi2", classifier, TrainHyperparams(), default_cfg.digest()
        )
        payload = model_to_dict(trained)
        assert list(payload) == [
            "format_version", "created_unix_seconds", "feature_mode", "selector",
            "preprocess_config_digest", "vocabulary", "model_type", "class_labels",
            *parameter_keys,
        ]
        assert payload["format_version"] == 1
        assert payload["selector"] == "chi2"
        assert payload["feature_mode"] == "counts"
        assert payload["model_type"] == classifier
        assert set(payload["vocabulary"]) == {"n_docs", "terms"}

    def test_float_parameters_round_trip_exactly(self, small_tokens, default_cfg, tmp_path):
        trained = train_from_tokens(
            small_tokens, "tfidf", "sgd", TrainHyperparams(), default_cfg.digest()
        )
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.model.weights, trained.model.weights)
        assert np.array_equal(loaded.model.biases, trained.model.biases)
        assert loaded.vocabulary == trained.vocabulary

    def test_nb_parameters_round_trip_exactly(self, small_tokens, default_cfg, tmp_path):
        trained = train_from_tokens(
            small_tokens, "tfidf", "nb", TrainHyperparams(), default_cfg.digest()
        )
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.model.biases, trained.model.biases)
        assert np.array_equal(loaded.model.weights, trained.model.weights)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.json")

    def test_wrong_version_rejected(self, small_tokens, default_cfg, tmp_path):
        trained = train_from_tokens(
            small_tokens, "tfidf", "nb", TrainHyperparams(), default_cfg.digest()
        )
        payload = model_to_dict(trained)
        payload["format_version"] = 99
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_model_type_rejected(self, small_tokens, default_cfg, tmp_path):
        trained = train_from_tokens(
            small_tokens, "tfidf", "nb", TrainHyperparams(), default_cfg.digest()
        )
        payload = model_to_dict(trained)
        payload["model_type"] = "tree"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)


def _drop_last_column(matrix):
    return [row[:-1] for row in matrix]


# (model type, edit to the saved payload) pairs that must not load.
INCONSISTENT_FILES = {
    "truncated_weight_columns": ("sgd", lambda p: p.update(weights=_drop_last_column(p["weights"]))),
    "missing_weight_row": ("sgd", lambda p: p.update(weights=p["weights"][:-1])),
    "truncated_likelihood_columns": (
        "nb", lambda p: p.update(log_likelihood=_drop_last_column(p["log_likelihood"]))
    ),
    "short_biases": ("sgd", lambda p: p.update(biases=p["biases"][:-1])),
    "long_log_prior": ("nb", lambda p: p.update(log_prior=p["log_prior"] + [-1.0])),
    "nan_bias": ("svm", lambda p: p["biases"].__setitem__(0, math.nan)),
    "infinite_weight": ("sgd", lambda p: p["weights"][1].__setitem__(0, math.inf)),
    "nan_likelihood": ("nb", lambda p: p["log_likelihood"][0].__setitem__(0, math.nan)),
    "duplicate_labels": (
        "sgd", lambda p: p["class_labels"].__setitem__(1, p["class_labels"][0])
    ),
    "unsorted_labels": ("nb", lambda p: p["class_labels"].reverse()),
    "unknown_feature_mode": ("sgd", lambda p: p.update(feature_mode="binary")),
    "crossed_pipeline": ("nb", lambda p: p.update(selector="chi2")),
    "string_class_labels": (
        "sgd", lambda p: p.update(class_labels="abcdefghijkl"[: len(p["class_labels"])])
    ),
    "integer_class_labels": (
        "sgd", lambda p: p.update(class_labels=list(range(len(p["class_labels"]))))
    ),
    "integer_vocabulary_term": ("sgd", lambda p: p["vocabulary"]["terms"][0].__setitem__(0, 7)),
    "repeated_vocabulary_entry": (
        "sgd", lambda p: p["vocabulary"]["terms"].append(list(p["vocabulary"]["terms"][-1]))
    ),
    "boolean_format_version": ("sgd", lambda p: p.update(format_version=True)),
    # Numbers that int() would coerce into a loadable model.
    "string_vocabulary_index": ("sgd", lambda p: p["vocabulary"]["terms"][0].__setitem__(1, "0")),
    "boolean_vocabulary_index": (
        "sgd", lambda p: p["vocabulary"]["terms"][1].__setitem__(1, True)
    ),
    "fractional_document_frequency": (
        "sgd", lambda p: p["vocabulary"]["terms"][0].__setitem__(
            2, p["vocabulary"]["terms"][0][2] + 0.7
        )
    ),
    "string_n_docs": (
        "nb", lambda p: p["vocabulary"].update(n_docs=str(p["vocabulary"]["n_docs"]))
    ),
    "fractional_created_unix_seconds": ("svm", lambda p: p.update(created_unix_seconds=1.9)),
    "integer_config_digest": ("sgd", lambda p: p.update(preprocess_config_digest=5)),
}


@pytest.fixture(scope="module")
def saved_payloads(small_tokens, default_cfg):
    return {
        classifier: model_to_dict(train_from_tokens(
            small_tokens, "tfidf", classifier, TrainHyperparams(), default_cfg.digest()
        ))
        for classifier in ("nb", "sgd", "svm")
    }


class TestModelFileValidation:
    @pytest.mark.parametrize("case", sorted(INCONSISTENT_FILES))
    def test_inconsistent_model_file_rejected(self, case, saved_payloads, tmp_path):
        classifier, corrupt = INCONSISTENT_FILES[case]
        payload = copy.deepcopy(saved_payloads[classifier])
        corrupt(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
