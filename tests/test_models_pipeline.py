import base64
import codecs
import copy
import dataclasses
import json
import math
import re
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doccat import features, models, textprep
from doccat.errors import ConvergenceWarning, ModelFormatError, SingleClassError
from doccat.features import vectorize_corpus
from doccat.models import (
    TrainHyperparams,
    load_model,
    model_to_dict,
    predict,
    predict_tokenized,
    save_model,
    train,
    train_from_tokens,
    train_svm,
)
from doccat.textprep import preprocess_corpus

from helpers import make_synthetic_corpus, matrix, reference_scores

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
            small_tokens, selector, classifier, TrainHyperparams(), default_cfg
        )
        assert trained.vocabulary.selector == selector
        assert trained.model.weights.shape[1] == len(trained.vocabulary)
        assert trained.train_seconds > 0
        assert list(trained.stage_seconds) == ["features", "vectorize", "fit"]
        assert all(seconds > 0 for seconds in trained.stage_seconds.values())
        assert trained.train_seconds == sum(trained.stage_seconds.values())

        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        # The selector comes back from the file's top level into the vocabulary.
        assert loaded.vocabulary == trained.vocabulary
        assert loaded.stage_seconds == {"features": 0.0, "vectorize": 0.0, "fit": 0.0}
        assert loaded.train_seconds == 0.0
        assert loaded.class_labels == trained.class_labels
        assert loaded.preprocess_config == default_cfg
        if classifier == "nb":
            assert loaded.model.fit_info is None
        else:
            for label, info in loaded.model.fit_info.items():
                assert info == {key: trained.model.fit_info[label][key] for key in info}
        save_model(loaded, tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()
        for doc in small_tokens[:5]:
            assert predict_tokenized(loaded, doc)[0] == predict_tokenized(trained, doc)[0]

    def test_tfidf_nb_accepts_fractional_weights(self, small_tokens, default_cfg):
        trained = train_from_tokens(
            small_tokens, "tfidf", "nb", TrainHyperparams(), default_cfg
        )
        assert trained.model.trainer_tag == "nb"
        assert np.isfinite(trained.model.weights).all()

    def test_equal_models_compare_by_identity(self, small_tokens, default_cfg, tmp_path):
        trained = train_from_tokens(
            small_tokens, "tfidf", "sgd", TrainHyperparams(), default_cfg
        )
        save_model(trained, tmp_path / "model.json")
        first, second = (load_model(tmp_path / "model.json") for _ in range(2))
        assert np.array_equal(first.model.weights, second.model.weights)
        # Equal fields, distinct objects: False, not an ambiguous-truth ValueError.
        assert (first == second) is False
        assert (first.model == second.model) is False
        assert first == first and first.model == first.model

    def test_unknown_classifier_fails_before_any_work(self, small_tokens, default_cfg):
        with pytest.raises(ValueError, match="classifier"):
            train_from_tokens(
                small_tokens, "tfidf", "forest", TrainHyperparams(), default_cfg
            )

    def test_unknown_selector_fails_before_any_work(self, small_tokens, default_cfg):
        with pytest.raises(ValueError, match="selector"):
            train_from_tokens(
                small_tokens, "mutualinfo", "nb", TrainHyperparams(), default_cfg
            )

    def test_predict_tokenized_looks_its_row_builder_up_on_every_call(
        self, small_tokens, default_cfg, monkeypatch
    ):
        trained = train_from_tokens(small_tokens, "tfidf", "sgd", TrainHyperparams(), default_cfg)
        expected = predict_tokenized(trained, small_tokens[0])
        rows = []
        tfidf_vector = features.tfidf_vector

        def traced(doc, vocab):
            rows.append(doc)
            return tfidf_vector(doc, vocab)

        monkeypatch.setattr(features, "tfidf_vector", traced)
        assert predict_tokenized(trained, small_tokens[0]) == expected
        assert rows == [small_tokens[0]]

    def test_single_label_corpus_rejected(self, default_cfg):
        corpus = make_synthetic_corpus(4, seed=3, n_categories=1, pool_size=3)
        with pytest.raises(SingleClassError):
            train(corpus, "tfidf", "nb", TrainHyperparams(), default_cfg)

    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_train_fits_with_no_preprocessed_document_alive(
        self, classifier, default_cfg, monkeypatch
    ):
        # Weak references to the corpus, the documents and the token table
        # that this call to `train` makes, each checked as the fit starts.
        made = []

        class WatchedCorpus(textprep.TokenizedCorpus):
            __slots__ = ("__weakref__",)

            def __init__(self, docs):
                super().__init__(docs)
                made.append(weakref.ref(self))
                made.extend(map(weakref.ref, self))

        build = textprep.TokenTable.build.__func__

        def watched_build(cls, docs):
            table = build(cls, docs)
            made.append(weakref.ref(table))
            return table

        alive_at_fit = []
        trainer = getattr(models, f"train_{classifier}")

        def watched_trainer(*args):
            alive_at_fit.append(sum(ref() is not None for ref in made))
            return trainer(*args)

        monkeypatch.setattr(textprep, "TokenizedCorpus", WatchedCorpus)
        monkeypatch.setattr(textprep.TokenTable, "build", classmethod(watched_build))
        monkeypatch.setattr(models, f"train_{classifier}", watched_trainer)
        corpus = make_synthetic_corpus(4, seed=31, n_categories=3, pool_size=3)
        train(corpus, "chi2", classifier, TrainHyperparams(), default_cfg)
        assert len(made) == len(corpus) + 2
        assert alive_at_fit == [0]


class TestHyperparams:
    # A float where an exact int belongs, a bool or a non-number where a number does.
    @pytest.mark.parametrize("field, value", [
        ("nb_alpha", True), ("sgd_alpha", "0.0001"), ("sgd_epochs", 2.5), ("svm_c", None),
        ("seed", 1.5), ("chi_top_percent", True), ("sgd_epochs", True), ("seed", "7"),
        ("chi_top_percent", "30"),
    ])
    def test_wrong_type_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an? (integer|number), got "):
            TrainHyperparams(**{field: value})

    # Each field is checked for its type and then its range before the next
    # declared one, so a type error may be named before a range error.
    @pytest.mark.parametrize("bad, named", [
        ({"sgd_epochs": "x", "svm_c": -1}, "sgd_epochs"),
        ({"sgd_epochs": 0, "svm_c": 0}, "sgd_epochs"),
        ({"seed": -1, "chi_top_percent": "x"}, "seed"),
    ], ids=["type_before_range", "ranges", "range_before_type"])
    def test_first_bad_field_in_declaration_order_is_named(self, bad, named):
        with pytest.raises(ValueError, match=f"^{named} must be "):
            TrainHyperparams(**bad)

    def test_ints_and_numpy_floats_are_numbers(self):
        hyper = TrainHyperparams(nb_alpha=1, svm_c=np.float64(2.0), chi_top_percent=50)
        assert (hyper.nb_alpha, hyper.svm_c, hyper.chi_top_percent) == (1, 2.0, 50)

    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_train_from_tokens_calls_the_trainer_bound_in_the_module(
        self, classifier, small_tokens, default_cfg, monkeypatch
    ):
        # A tracer rebinds the trainers' module names, so a table of trainers
        # built at import would hide the call from it.
        calls = []
        for name in ("train_nb", "train_sgd", "train_svm"):
            def counting(*args, _name=name, _trainer=getattr(models, name)):
                calls.append(_name)
                return _trainer(*args)
            monkeypatch.setattr(models, name, counting)
        train_from_tokens(
            small_tokens, "chi2", classifier, TrainHyperparams(), default_cfg
        )
        assert calls == [f"train_{classifier}"]


class TestOneVsRestFrame:
    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_labels_differing_by_a_trailing_nul_are_two_classes(
        self, classifier, small_tokens, default_cfg, tmp_path
    ):
        # A numpy string array drops a trailing NUL, which once merged these
        # two labels: SGD fitted two equal rows and NB a zero prior.
        renamed = {"accident": "sport", "art": "sport\0"}
        docs = [dataclasses.replace(doc, label=renamed.get(doc.label, doc.label))
                for doc in small_tokens]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trained = train_from_tokens(
                docs, "tfidf", classifier, TrainHyperparams(), default_cfg
            )
        model = trained.model
        assert model.class_labels == ("crime", "sport", "sport\0")
        assert np.isfinite(model.weights).all() and np.isfinite(model.biases).all()
        assert not np.array_equal(model.weights[1], model.weights[2])
        if classifier == "nb":
            count = sum(doc.label == "sport\0" for doc in docs)
            assert model.biases[2] == math.log(count / len(docs))
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.class_labels == model.class_labels
        assert loaded.model.weights.tobytes() == model.weights.tobytes()
        assert loaded.model.biases.tobytes() == model.biases.tobytes()

    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_label_with_a_tab_fails_in_training(self, classifier):
        trainer = {
            "nb": lambda X, y: models.train_nb(X, y, TrainHyperparams()),
            "sgd": lambda X, y: models.train_sgd(X, y, TrainHyperparams()),
            "svm": lambda X, y: models.train_svm(X, y, TrainHyperparams()),
        }[classifier]
        with pytest.raises(ValueError, match=r"^class label must be non-empty without tabs"):
            trainer(matrix([{0: 1.0}, {0: 2.0}, {0: 3.0}], 1), ["a", "b\tc", "a"])


def _decode(payload, key):
    """Model-file parameter `key` as the float64 array it encodes, in the
    shape the class labels fix."""
    values = np.frombuffer(base64.b64decode(payload[key], validate=True), dtype="<f8")
    n_classes = len(payload["class_labels"])
    return values.reshape((n_classes, -1) if key == "weights" else n_classes)


def _encode(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _write(payload, path):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# The top-level keys of a model file, in the order save_model writes them.
MODEL_KEYS = (
    "format_version", "selector", "preprocessing", "vocabulary",
    "model_type", "class_labels", "fit", "weights", "biases",
)


def _assert_rejected(path, pattern):
    """load_model(path) fails with a ModelFormatError that names the file and
    whose reason matches `pattern`."""
    with pytest.raises(ModelFormatError) as caught:
        load_model(path)
    prefix = f"invalid model file {str(path)!r}: "
    assert str(caught.value).startswith(prefix)
    assert re.search(pattern, str(caught.value)[len(prefix):])


class TestModelFile:
    @pytest.mark.parametrize("classifier", ["nb", "svm"])
    def test_schema_fields(self, classifier, small_tokens, default_cfg):
        trained = train_from_tokens(
            small_tokens, "chi2", classifier, TrainHyperparams(), default_cfg
        )
        payload = model_to_dict(trained)
        assert list(payload) == list(MODEL_KEYS)
        assert payload["format_version"] == 4
        assert payload["selector"] == "chi2"
        assert payload["preprocessing"] == {
            "stopwords": sorted(default_cfg.stopword_list),
            "suffix_table": [list(rule) for rule in default_cfg.suffix_table],
        }
        assert payload["model_type"] == classifier
        vocabulary = payload["vocabulary"]
        assert list(vocabulary) == ["n_docs", "terms", "doc_freq"]
        assert vocabulary["terms"] == sorted(trained.vocabulary.terms)
        assert vocabulary["terms"] == list(trained.vocabulary.terms)
        assert vocabulary["doc_freq"] == list(trained.vocabulary.doc_freq)
        for key in ("weights", "biases"):
            assert type(payload[key]) is str
            decoded = _decode(payload, key)
            assert decoded.tobytes() == getattr(trained.model, key).tobytes()
        if classifier == "nb":
            assert payload["fit"] is None
        else:
            assert list(payload["fit"]) == list(trained.class_labels)
            for info in payload["fit"].values():
                assert list(info) == ["passes", "updates", "violation", "converged", "gap"]

    def test_same_bytes_whatever_the_clock(self, small_tokens, default_cfg, tmp_path,
                                           monkeypatch):
        # Each reading of the wall clock is a day after the one before.
        readings = iter(range(1_700_000_000, 1_800_000_000, 86_400))
        monkeypatch.setattr(time, "time", lambda: float(next(readings)))
        files = []
        for run in ("one", "two"):
            trained = train_from_tokens(
                small_tokens, "tfidf", "svm", TrainHyperparams(), default_cfg
            )
            save_model(trained, tmp_path / f"{run}.json")
            files.append((tmp_path / f"{run}.json").read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_parameters_round_trip_exactly(
        self, classifier, small_tokens, default_cfg, tmp_path
    ):
        trained = train_from_tokens(
            small_tokens, "tfidf", classifier, TrainHyperparams(), default_cfg
        )
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        for name in ("weights", "biases"):
            original, reloaded = getattr(trained.model, name), getattr(loaded.model, name)
            assert reloaded.dtype == np.float64 and reloaded.shape == original.shape
            assert reloaded.tobytes() == original.tobytes()
        assert loaded.vocabulary == trained.vocabulary

    def test_extreme_values_round_trip_bit_exactly(self, small_tokens, default_cfg, tmp_path):
        trained = train_from_tokens(
            small_tokens, "tfidf", "sgd", TrainHyperparams(), default_cfg
        )
        extremes = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                    np.finfo(np.float64).max, 1 / 3]
        weights = np.zeros_like(trained.model.weights)
        weights.flat[: len(extremes)] = extremes
        biases = np.array([-0.0, 5e-324, -1e308])[: len(trained.class_labels)]
        extreme = dataclasses.replace(
            trained, model=dataclasses.replace(trained.model, weights=weights, biases=biases)
        )
        path = tmp_path / "model.json"
        save_model(extreme, path)
        loaded = load_model(path)
        assert loaded.model.weights.tobytes() == weights.tobytes()
        assert loaded.model.biases.tobytes() == biases.tobytes()
        assert np.signbit(loaded.model.weights.flat[0])

    def test_capped_svm_reloads_unconverged_with_its_fit_block(
        self, small_tokens, default_cfg, tmp_path, monkeypatch
    ):
        trained = train_from_tokens(
            small_tokens, "tfidf", "svm", TrainHyperparams(), default_cfg
        )
        X = vectorize_corpus(small_tokens, trained.vocabulary)
        monkeypatch.setattr(models, "SVM_MAX_PASSES", 1)
        with pytest.warns(ConvergenceWarning):
            capped = train_svm(X, [doc.label for doc in small_tokens], TrainHyperparams())
        assert not all(info["converged"] for info in capped.fit_info.values())
        path = tmp_path / "model.json"
        save_model(dataclasses.replace(trained, model=capped), path)
        loaded = load_model(path)
        assert not all(info["converged"] for info in loaded.model.fit_info.values())
        assert loaded.model.fit_info == {
            label: {key: info[key]
                    for key in ("passes", "updates", "violation", "converged", "gap")}
            for label, info in capped.fit_info.items()
        }
        assert all(info["passes"] == 1 for info in loaded.model.fit_info.values())

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_version_1_file_asks_for_retraining(
        self, version, small_tokens, default_cfg, tmp_path
    ):
        trained = train_from_tokens(
            small_tokens, "tfidf", "sgd", TrainHyperparams(), default_cfg
        )
        vocab = trained.vocabulary
        payload = model_to_dict(trained)
        # Versions 1-3 kept a SHA-256 digest of the tables, not the tables.
        del payload["preprocessing"]
        payload["preprocess_config_digest"] = (
            "062f246eb73082d5b8e1aea826eb6e7cbf3b2f8913de7486899367b280857dbc"
        )
        if version == 1:
            # [term, index, df] triples and float lists, and no fit block.
            del payload["fit"]
            payload.update(
                vocabulary={
                    "n_docs": vocab.n_docs,
                    "terms": [
                        [term, index, df]
                        for index, (term, df) in enumerate(zip(vocab.terms, vocab.doc_freq))
                    ],
                },
                weights=trained.model.weights.tolist(),
                biases=trained.model.biases.tolist(),
            )
        elif version == 2:
            # The version 2 layout, less its creation time: the feature mode,
            # a top-level converged and each parameter with its shape.
            payload.update(
                feature_mode="tfidf",
                converged=True,
                **{
                    key: {"shape": list(getattr(trained.model, key).shape),
                          "base64": payload[key]}
                    for key in ("weights", "biases")
                },
            )
        payload["format_version"] = version
        _assert_rejected(
            _write(payload, tmp_path / "model.json"),
            f"^model format version {version} is not readable: this doccat reads version 4 "
            "only, so retrain the model$",
        )

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        _assert_rejected(path, "Expecting property name")

    def test_missing_file_rejected(self, tmp_path):
        _assert_rejected(tmp_path / "absent.json", "No such file")

    def test_json_nested_too_deep_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        _assert_rejected(path, "recursion")

    @pytest.mark.parametrize("key,opening", [
        ("format_version", '{"format_version": '), ("n_docs", '"vocabulary": {"n_docs": ')
    ])
    def test_repeated_key_rejected(self, key, opening, small_tokens, default_cfg, tmp_path):
        # The key's first value goes ahead of the saved one. Without the
        # check the last value won: a version 2 ahead of a 3 loaded as 3.
        trained = train_from_tokens(
            small_tokens, "tfidf", "nb", TrainHyperparams(), default_cfg
        )
        text = json.dumps(model_to_dict(trained))
        assert text.count(opening) == 1
        path = tmp_path / "model.json"
        path.write_text(text.replace(opening, f'{opening}2, "{key}": '), encoding="utf-8")
        _assert_rejected(path, f"^key '{key}' repeats within one object$")

    def test_non_finite_fit_value_is_not_saved(self, small_tokens, default_cfg, tmp_path):
        trained = train_from_tokens(
            small_tokens, "tfidf", "svm", TrainHyperparams(), default_cfg
        )
        trained.model.fit_info[trained.class_labels[0]]["violation"] = math.nan
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(trained, path)
        assert not path.exists()

    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_byte_order_mark_is_dropped(self, classifier, small_tokens, default_cfg, tmp_path):
        trained = train_from_tokens(
            small_tokens, "chi2", classifier, TrainHyperparams(), default_cfg
        )
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        save_model(trained, plain)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        loaded = load_model(marked)
        assert model_to_dict(loaded) == model_to_dict(load_model(plain))
        labels, scores = predict(loaded, small_tokens)
        expected_labels, expected_scores = predict(trained, small_tokens)
        assert labels == expected_labels
        assert scores.tobytes() == expected_scores.tobytes()

    def test_invalid_utf8_names_the_file_once(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format_version": 2, "selector": "\xff"}')
        with pytest.raises(ModelFormatError) as caught:
            load_model(path)
        message = str(caught.value)
        assert message.startswith(f"invalid model file {str(path)!r}: invalid UTF-8: ")
        assert "in position 35" in message
        assert message.count(str(path)) == 1


def _edit_parameter(key, edit):
    """A payload edit that decodes parameter `key`, applies `edit` to the
    array and stores the result."""
    return lambda p: p.update({key: _encode(edit(np.array(_decode(p, key))))})


def _set_item(index, value):
    def edit(values):
        values[index] = value
        return values
    return edit


def _edit_vocabulary(key, edit):
    return lambda p: p["vocabulary"].update({key: edit(p["vocabulary"][key])})


def _replace_first(value):
    return lambda values: [value(values[0])] + values[1:]


def _edit_preprocessing(key, edit):
    return lambda p: p["preprocessing"].update({key: edit(p["preprocessing"][key])})


# Each case: (model type, edit to the saved payload or a JSON value written
# instead of it, pattern its error must match).
INCONSISTENT_FILES = {
    "list_at_top_level": ("sgd", [1, 2], "^top-level value must be an object, got \\[1, 2\\]$"),
    # A model file holds its nine keys and nothing else.
    "extra_top_level_key": (
        "nb", lambda p: p.update(created="2024-01-01"), "^unknown top-level key 'created'$"
    ),
    "vocabulary_extra_key": (
        "nb", lambda p: p["vocabulary"].update(index={}), "^unknown vocabulary key 'index'$"
    ),
    # The labels and the vocabulary fix each parameter's shape.
    "truncated_weight_columns": (
        "sgd", _edit_parameter("weights", lambda w: w[:, :-1]),
        r"^weights holds \d+ bytes, not 8 per value of shape \(3, \d+\)$",
    ),
    "missing_weight_row": ("sgd", _edit_parameter("weights", lambda w: w[:-1]), "weights holds"),
    "truncated_likelihood_columns": (
        "nb", _edit_parameter("weights", lambda w: w[:, :-1]), "weights holds"
    ),
    "short_biases": (
        "sgd", _edit_parameter("biases", lambda b: b[:-1]),
        r"^biases holds 16 bytes, not 8 per value of shape \(3,\)$",
    ),
    "long_log_prior": (
        "nb", _edit_parameter("biases", lambda b: np.append(b, -1.0)), "biases holds 32 bytes"
    ),
    "nan_bias": ("svm", _edit_parameter("biases", _set_item(0, math.nan)), "non-finite"),
    "infinite_weight": ("sgd", _edit_parameter("weights", _set_item((1, 0), math.inf)), "non-finite"),
    "nan_likelihood": (
        "nb", _edit_parameter("weights", _set_item((0, 0), math.nan)), "non-finite"
    ),
    "duplicate_labels": (
        "sgd", lambda p: p["class_labels"].__setitem__(1, p["class_labels"][0]), "class_labels"
    ),
    "unsorted_labels": ("nb", lambda p: p["class_labels"].reverse(), "class_labels"),
    # A tab would split the label's column of a `predict` TSV; appended to
    # the last label, it keeps the labels in order (NB has no fit block).
    "tab_in_label": (
        "nb", lambda p: p["class_labels"].__setitem__(-1, p["class_labels"][-1] + "\t"),
        "class label must be non-empty without tabs",
    ),
    # U+2029 ends a line for str.splitlines, so it would split a TSV line too.
    "line_boundary_in_label": (
        "nb", lambda p: p["class_labels"].__setitem__(-1, p["class_labels"][-1] + "\u2029"),
        "class label must be non-empty without tabs or line breaks",
    ),
    # Training never writes these; they failed later with numpy errors.
    "no_class_labels": (
        "sgd",
        lambda p: p.update(
            class_labels=[],
            fit={},
            biases="",
            weights="",
        ),
        "class_labels holds 0 classes",
    ),
    "one_class_label": (
        "nb",
        lambda p: p.update(
            class_labels=p["class_labels"][:1],
            biases=_encode(_decode(p, "biases")[:1]),
            weights=_encode(_decode(p, "weights")[:1]),
        ),
        "class_labels holds 1 classes",
    ),
    "empty_vocabulary": (
        "sgd",
        lambda p: p.update(
            vocabulary={"terms": [], "doc_freq": [], "n_docs": -5},
            weights="",
        ),
        "at least one term",
    ),
    "unknown_selector": ("sgd", lambda p: p.update(selector="counts"),
                         r"^unknown selector: 'counts' \(expected one of \('tfidf', 'chi2'\)\)$"),
    # The message of every unknown selector cuts the value (errors.quoted).
    "long_unknown_selector": (
        "sgd", lambda p: p.update(selector="x" * 10_000),
        "^unknown selector: '" + "x" * 79 + r"\.\.\. \(expected one of \('tfidf', 'chi2'\)\)$",
    ),
    # Above 2**53, idf's (n_docs + 1) / (df + 1) can overflow a float.
    "n_docs_beyond_float": (
        "sgd", lambda p: p["vocabulary"].update(n_docs=10**400),
        r"^n_docs exceeds 2\*\*53, the largest count a float holds exactly$",
    ),
    "string_class_labels": (
        "sgd", lambda p: p.update(class_labels="abcdefghijkl"[: len(p["class_labels"])]),
        "class_labels must be a list",
    ),
    "integer_class_labels": (
        "sgd", lambda p: p.update(class_labels=list(range(len(p["class_labels"])))),
        "class_labels must be a list",
    ),
    "integer_vocabulary_term": (
        "sgd", _edit_vocabulary("terms", _replace_first(lambda term: 7)), "vocabulary terms"
    ),
    "repeated_vocabulary_entry": (
        "sgd",
        lambda p: [p["vocabulary"][key].append(p["vocabulary"][key][-1])
                   for key in ("terms", "doc_freq")],
        "vocabulary terms",
    ),
    "unsorted_vocabulary_terms": (
        "sgd", _edit_vocabulary("terms", lambda terms: terms[::-1]), "vocabulary terms"
    ),
    "boolean_format_version": ("sgd", lambda p: p.update(format_version=True), "format_version"),
    "format_version_99": ("nb", lambda p: p.update(format_version=99), "version 99"),
    "unknown_model_type": ("nb", lambda p: p.update(model_type="tree"), "unknown model type"),
    # Numbers that int() would coerce into a loadable model.
    "fractional_document_frequency": (
        "sgd", _edit_vocabulary("doc_freq", _replace_first(lambda df: df + 0.7)), "doc_freq"
    ),
    "float_document_frequency": (
        "sgd", _edit_vocabulary("doc_freq", _replace_first(float)), "doc_freq"
    ),
    "boolean_document_frequency": (
        "nb", _edit_vocabulary("doc_freq", _replace_first(lambda df: True)), "doc_freq"
    ),
    "zero_document_frequency": (
        "sgd", _edit_vocabulary("doc_freq", _replace_first(lambda df: 0)), r"outside \[1, "
    ),
    "document_frequency_above_n_docs": (
        "svm", lambda p: p["vocabulary"]["doc_freq"].__setitem__(-1, p["vocabulary"]["n_docs"] + 1),
        r"outside \[1, ",
    ),
    "short_doc_freq": ("sgd", _edit_vocabulary("doc_freq", lambda dfs: dfs[:-1]), "doc_freq"),
    "long_doc_freq": ("nb", _edit_vocabulary("doc_freq", lambda dfs: dfs + [1]), "doc_freq"),
    "string_n_docs": ("nb", _edit_vocabulary("n_docs", str), "n_docs must be an integer"),
    # The preprocessing block: exactly what save_model writes for its tables.
    "preprocessing_as_list": (
        "sgd", lambda p: p.update(preprocessing=[]), "^preprocessing must be an object, got \\[\\]$"
    ),
    "preprocessing_string_stopwords": (
        "nb", _edit_preprocessing("stopwords", " ".join),
        "^preprocessing stopwords must be a list of strings$",
    ),
    "preprocessing_integer_stopword": (
        "sgd", _edit_preprocessing("stopwords", lambda words: words + [7]),
        "^preprocessing stopwords must be a list of strings$",
    ),
    "preprocessing_unsorted_stopwords": (
        "svm", _edit_preprocessing("stopwords", lambda words: words[::-1]),
        "^preprocessing must hold only its stopwords, once each in ascending order",
    ),
    "preprocessing_repeated_stopword": (
        "nb", _edit_preprocessing("stopwords", lambda words: words[:1] + words),
        "^preprocessing must hold only its stopwords, once each in ascending order",
    ),
    "preprocessing_extra_key": (
        "sgd", lambda p: p["preprocessing"].update(lowercase=True),
        "^preprocessing must hold only its stopwords",
    ),
    "suffix_table_as_object": (
        "sgd", _edit_preprocessing("suffix_table", lambda rules: {}),
        "^preprocessing suffix_table must be a list of lists$",
    ),
    "suffix_rule_as_string": (
        "nb", _edit_preprocessing("suffix_table", _replace_first(lambda rule: rule[0])),
        "^preprocessing suffix_table must be a list of lists$",
    ),
    "suffix_rule_of_three": (
        "sgd", _edit_preprocessing("suffix_table", _replace_first(lambda rule: rule + [1])),
        "^suffix table: rule must be a \\(string, integer\\) pair, got \\['",
    ),
    "suffix_rule_reversed": (
        "svm", _edit_preprocessing("suffix_table", _replace_first(lambda rule: rule[::-1])),
        "^suffix table: rule must be a \\(string, integer\\) pair, got \\[\\d",
    ),
    "suffix_rule_float_min_stem": (
        "sgd", _edit_preprocessing("suffix_table", _replace_first(lambda rule: [rule[0], 2.0])),
        "^suffix table: rule must be a \\(string, integer\\) pair, got \\['[^']+', 2\\.0\\]$",
    ),
    "suffix_rule_boolean_min_stem": (
        "nb", _edit_preprocessing("suffix_table", _replace_first(lambda rule: [rule[0], True])),
        "^suffix table: rule must be a \\(string, integer\\) pair, got \\['[^']+', True\\]$",
    ),
    "empty_suffix": (
        "sgd", _edit_preprocessing("suffix_table", lambda rules: rules + [["", 1]]),
        "^suffix table: empty suffix$",
    ),
    "zero_min_stem": (
        "svm", _edit_preprocessing("suffix_table", _replace_first(lambda rule: [rule[0], 0])),
        "^suffix table: rule '[^']+' has min stem length < 1$",
    ),
    "repeated_suffix": (
        "nb", _edit_preprocessing("suffix_table", lambda rules: rules[:1] + rules),
        "^suffix table: duplicate suffix '[^']+'$",
    ),
    "suffix_rules_out_of_canonical_order": (
        "sgd", _edit_preprocessing("suffix_table", lambda rules: rules[::-1]),
        "in ascending order, and its suffix rules in canonical order$",
    ),
    # A decoder that skips characters outside the alphabet would load this.
    "invalid_base64": (
        "sgd", lambda p: p.update(weights="*" + p["weights"]), "weights is not valid base64"
    ),
    "unpadded_base64": (
        "svm", lambda p: p.update(biases=p["biases"][:-1]), "biases is not valid base64"
    ),
    # b64decode raises a plain ValueError, not binascii.Error, for these.
    "non_ascii_base64": (
        "nb", lambda p: p.update(weights="\u0995" + p["weights"][1:]),
        "^weights is not valid base64: ",
    ),
    # Byte counts that are no whole number of float64 values.
    "decoded_length_short_of_shape": (
        "sgd",
        lambda p: p.update(biases=base64.b64encode(base64.b64decode(p["biases"])[:-3]).decode()),
        "^biases holds 21 bytes",
    ),
    "decoded_length_beyond_shape": (
        "nb",
        lambda p: p.update(biases=base64.b64encode(base64.b64decode(p["biases"]) + b"\0" * 4)
                           .decode()),
        "^biases holds 28 bytes",
    ),
    "list_parameter": (
        "sgd", lambda p: p.update(biases=_decode(p, "biases").tolist()),
        "^biases must be a string, got \\[",
    ),
    "integer_weights": ("svm", lambda p: p.update(weights=7), "^weights must be a string, got 7$"),
    "fit_block_missing_a_class": (
        "svm", lambda p: p["fit"].pop(p["class_labels"][-1]), "fit block's classes"
    ),
    "fit_block_extra_class": (
        "sgd", lambda p: p["fit"].update(zzz=p["fit"][p["class_labels"][0]]), "fit block's classes"
    ),
    "fit_block_missing_field": (
        "svm", lambda p: p["fit"][p["class_labels"][0]].pop("violation"), "fit block of class"
    ),
    "fit_block_float_count": (
        "sgd", lambda p: p["fit"][p["class_labels"][1]].update(updates=3.0), "fit updates"
    ),
    "fit_block_integer_objective": (
        "sgd", lambda p: p["fit"][p["class_labels"][0]].update(objective_final=1), "fit objective"
    ),
    "fit_block_boolean_passes": (
        "svm", lambda p: p["fit"][p["class_labels"][0]].update(passes=True), "fit passes"
    ),
    # JSON has one boolean type: neither "true" nor 1 is one.
    "fit_block_string_converged": (
        "svm", lambda p: p["fit"][p["class_labels"][0]].update(converged="true"),
        "^fit converged of class '[^']+' must be a boolean, got 'true'$",
    ),
    "fit_block_integer_converged": (
        "svm", lambda p: p["fit"][p["class_labels"][1]].update(converged=1),
        "^fit converged of class '[^']+' must be a boolean, got 1$",
    ),
    "fit_block_missing_gap": (
        "svm", lambda p: p["fit"][p["class_labels"][1]].pop("gap"), "fit block of class"
    ),
    "fit_block_integer_gap": (
        "svm", lambda p: p["fit"][p["class_labels"][2]].update(gap=0), "^fit gap of class"
    ),
    "nb_fit_block": ("nb", lambda p: p.update(fit={}), "no fit block"),
    # Values of the wrong JSON type, one for each key the type rule checks.
    "string_format_version": (
        "sgd", lambda p: p.update(format_version="2"), "^format_version must be an integer"
    ),
    "boolean_n_docs": (
        "nb", _edit_vocabulary("n_docs", lambda n: True), "^n_docs must be an integer"
    ),
    "string_vocabulary_terms": (
        "sgd", _edit_vocabulary("terms", "".join),
        "^vocabulary terms must be a list of strings",
    ),
    "number_doc_freq": (
        "nb", _edit_vocabulary("doc_freq", sum), "^vocabulary doc_freq must be a list of integers"
    ),
    "sgd_fit_block_as_list": (
        "sgd", lambda p: p.update(fit=list(p["fit"].values())), "^fit must be an object"
    ),
    "svm_fit_block_as_list": (
        "svm", lambda p: p.update(fit=list(p["fit"].values())), "^fit must be an object"
    ),
    "class_fit_entry_as_list": (
        "svm", lambda p: p["fit"].update({p["class_labels"][0]: [1, 2]}),
        "^fit block of class '[^']+' must be an object",
    ),
    "vocabulary_as_list": (
        "sgd", lambda p: p.update(vocabulary=[]), "^vocabulary must be an object, got \\[\\]$"
    ),
    "list_selector": (
        "nb", lambda p: p.update(selector=[p["selector"]]),
        "^selector must be a string, got \\['tfidf'\\]$",
    ),
    "integer_model_type": (
        "svm", lambda p: p.update(model_type=3), "^model_type must be a string, got 3$"
    ),
    # A long value is quoted as a short prefix; its whole repr is 688,890
    # characters.
    "long_list_at_top_level": (
        "sgd", list(range(100_000)),
        r"^top-level value must be an object, got \[0, 1, 2, .{,80}\.\.\.$",
    ),
    # NaN, Infinity and -Infinity are not JSON, though json.dumps writes them.
    "nan_fit_violation": (
        "svm", lambda p: p["fit"][p["class_labels"][0]].update(violation=math.nan),
        "^NaN is not a JSON value$",
    ),
    "infinite_fit_objective": (
        "sgd", lambda p: p["fit"][p["class_labels"][0]].update(objective_final=math.inf),
        "^Infinity is not a JSON value$",
    ),
    "negative_infinite_fit_objective": (
        "sgd", lambda p: p["fit"][p["class_labels"][1]].update(objective_epoch1=-math.inf),
        "^-Infinity is not a JSON value$",
    ),
}


@pytest.fixture(scope="module")
def saved_payloads(small_tokens, default_cfg):
    return {
        classifier: model_to_dict(train_from_tokens(
            small_tokens, "tfidf", classifier, TrainHyperparams(), default_cfg
        ))
        for classifier in ("nb", "sgd", "svm")
    }


class TestModelFileValidation:
    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_unedited_payload_loads(self, classifier, saved_payloads, tmp_path):
        payload = copy.deepcopy(saved_payloads[classifier])
        assert load_model(_write(payload, tmp_path / "model.json")).model.trainer_tag == classifier

    # Each key holds a fact the loader cannot derive from the others; NB's
    # `fit` is null, but the key is still required.
    @pytest.mark.parametrize("classifier", ["nb", "svm"])
    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_every_key_is_required(self, key, classifier, saved_payloads, tmp_path):
        payload = copy.deepcopy(saved_payloads[classifier])
        del payload[key]
        _assert_rejected(_write(payload, tmp_path / "model.json"), f"^missing key '{key}'$")

    @pytest.mark.parametrize("case", sorted(INCONSISTENT_FILES))
    def test_inconsistent_model_file_rejected(self, case, saved_payloads, tmp_path):
        classifier, corrupt, message = INCONSISTENT_FILES[case]
        payload = copy.deepcopy(saved_payloads[classifier])
        if callable(corrupt):
            corrupt(payload)
        else:
            payload = corrupt
        _assert_rejected(_write(payload, tmp_path / "model.json"), message)

    def test_long_rejected_label_is_cut_in_the_message(
        self, saved_payloads, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        payload = copy.deepcopy(saved_payloads["nb"])
        payload["class_labels"][-1] = "x" * 100_000 + "\t"  # still the last in order
        with pytest.raises(ModelFormatError) as caught:
            load_model(_write(payload, tmp_path / "m.json").name)
        message = str(caught.value)
        assert message.startswith("invalid model file 'm.json': class label must be non-empty")
        assert message.endswith("x" * 20 + "...") and len(message) < 300


def _blocked_case(n_rows, kinds, n_features, n_classes, seed):
    """A random CSR matrix with coefficients and offsets. kinds[b] fills
    block b of models._BLOCK_ROWS rows: "empty" rows only, "filled" rows
    only, or "mixed", rows of any length after an empty first row."""
    rng = np.random.default_rng(seed)
    rows = []
    for row in range(n_rows):
        kind = kinds[row // models._BLOCK_ROWS]
        if kind == "empty" or (kind == "mixed" and row % models._BLOCK_ROWS == 0):
            size = 0
        else:
            size = int(rng.integers(1 if kind == "filled" else 0, n_features + 1))
        rows.append({
            int(index): float(rng.uniform(0.1, 3.0) * rng.choice((-1, 1)))
            for index in rng.choice(n_features, size, replace=False)
        })
    return (
        matrix(rows, n_features),
        rng.standard_normal((n_classes, n_features)),
        rng.standard_normal(n_classes),
    )


@st.composite
def blocked_cases(draw):
    """`_blocked_case` with a row count next to a multiple of the block size."""
    n_rows = max(0, draw(st.integers(0, 3)) * models._BLOCK_ROWS + draw(st.integers(-1, 1)))
    n_blocks = n_rows // models._BLOCK_ROWS + 1
    kinds = draw(st.lists(
        st.sampled_from(("empty", "filled", "mixed")), min_size=n_blocks, max_size=n_blocks
    ))
    return _blocked_case(
        n_rows, kinds, draw(st.integers(1, 10)), draw(st.integers(1, 4)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestBlockedScorer:
    # A filled block takes `_block_dots`' path without empty rows, and the
    # mixed and empty ones the zero-filled path; so do filled and empty rows
    # scored alone, against all classes and against one coefficient row.
    @settings(max_examples=60, deadline=None)
    @example(_blocked_case(2 * models._BLOCK_ROWS + 1, ("filled", "mixed", "empty"), 6, 3, 0))
    @given(blocked_cases())
    def test_every_row_scores_as_it_does_alone(self, case):
        X, coefficients, offsets = case
        scores = models._scores(X, coefficients, offsets)
        assert scores.shape == (X.shape[0], len(offsets))
        assert scores.tobytes() == reference_scores(X, coefficients, offsets).tobytes()
        bounds = X.indptr.tolist()
        for row, (start, end) in enumerate(zip(bounds, bounds[1:])):
            starts = np.zeros(min(end - start, 1), dtype=np.intp)
            alone = np.empty((1, len(offsets)))
            models._block_dots(
                coefficients, X.indices[start:end], X.values[start:end], starts, starts, alone
            )
            assert scores[row].tobytes() == (alone[0] + offsets).tobytes()
            one_class = np.empty(1)
            models._block_dots(
                coefficients[-1], X.indices[start:end], X.values[start:end], starts, starts,
                one_class,
            )
            assert one_class.tobytes() == alone[:, -1].tobytes()
            if start == end:
                assert scores[row].tobytes() == offsets.tobytes()

    def test_a_strided_column_and_a_fresh_array_get_the_same_bits(self):
        """`_block_dots` writes into the array it is given: one class's sums
        into a column of the block's (rows, classes) products, as SGD
        re-sums an updated class, equal those written into a contiguous
        array, and empty rows read exactly 0 whatever the array held."""
        rng = np.random.default_rng(3)
        n_features, empty = 8, [0, 3, 6]
        rows = [{} if row in empty else {
            int(index): float(rng.uniform(0.1, 3.0))
            for index in rng.choice(n_features, int(rng.integers(1, n_features + 1)), False)
        } for row in range(7)]
        X = matrix(rows, n_features)
        coefficients = rng.standard_normal((4, n_features))
        filled = np.diff(X.indptr).nonzero()[0]
        starts = X.indptr[:-1][filled]
        block = np.full((len(rows), len(coefficients)), np.nan)
        models._block_dots(coefficients, X.indices, X.values, filled, starts, block)
        for c in range(len(coefficients)):
            column = np.full_like(block, np.nan)
            models._block_dots(coefficients[c], X.indices, X.values, filled, starts, column[:, c])
            fresh = np.full(len(rows), np.nan)
            models._block_dots(coefficients[c], X.indices, X.values, filled, starts, fresh)
            assert column[:, c].tobytes() == fresh.tobytes() == block[:, c].tobytes()
            assert fresh[empty].tobytes() == np.zeros(len(empty)).tobytes()
            assert np.isnan(np.delete(column, c, axis=1)).all()
