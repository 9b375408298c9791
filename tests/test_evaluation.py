import errno
import itertools
import json
import os
import stat

import numpy as np
import pytest

from doccat.corpus import LabeledCorpus, LabeledDocument
from doccat.errors import (
    LengthMismatchError,
    PreprocessMismatchError,
    SingleClassError,
    UnknownLabelError,
)
from doccat.evaluation import (
    METHOD_ORDER,
    PIPELINES,
    ConfusionMatrix,
    benchmark,
    confusion_matrix,
    evaluate,
    metrics_from_matrix,
    report_to_dict,
    write_comparison_tsv,
)
from doccat.models import (
    CLASSIFIERS,
    SELECTORS,
    TrainHyperparams,
    predict,
    predict_tokenized,
    save_model,
    train,
    train_from_tokens,
)
from doccat.textprep import PreprocessConfig, preprocess_corpus

from helpers import make_overlapping_corpus, metrics_oracle

import doccat.evaluation as evaluation_module
import doccat.models as models_module


class TestConfusionMatrix:
    def test_direct_count(self):
        cm = confusion_matrix(["A", "A", "B"], ["A", "B", "B"], ["A", "B"])
        assert cm.counts == ((1, 1), (0, 1))
        assert cm.total == 3

    def test_perfect_predictions_are_diagonal(self):
        cm = confusion_matrix(["A", "B", "B"], ["A", "B", "B"], ["A", "B"])
        assert cm.counts == ((1, 0), (0, 2))

    def test_unknown_predicted_label(self):
        with pytest.raises(UnknownLabelError):
            confusion_matrix(["A"], ["C"], ["A", "B"])

    def test_unknown_true_label(self):
        with pytest.raises(UnknownLabelError):
            confusion_matrix(["C"], ["A"], ["A", "B"])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion_matrix(["A", "B"], ["A"], ["A", "B"])

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatchError):
            confusion_matrix([], [], ["A"])


class TestMetricsFromMatrix:
    def test_hand_computed_two_by_two(self):
        report = metrics_from_matrix(ConfusionMatrix(("A", "B"), ((1, 1), (0, 1))))
        assert report.per_class["A"].precision == 1.0
        assert report.per_class["A"].recall == 0.5
        assert report.per_class["B"].precision == 0.5
        assert report.per_class["B"].recall == 1.0
        assert report.per_class["A"].f1 == pytest.approx(2 / 3, abs=0.0)
        assert report.per_class["B"].f1 == pytest.approx(2 / 3, abs=0.0)
        assert report.macro_f1 == pytest.approx(2 / 3, abs=0.0)
        assert report.accuracy == pytest.approx(2 / 3, abs=0.0)

    def test_diagonal_matrix_is_perfect(self):
        report = metrics_from_matrix(ConfusionMatrix(("A", "B"), ((3, 0), (0, 2))))
        assert report.macro_precision == report.macro_recall == report.macro_f1 == 1.0
        assert report.accuracy == 1.0

    def test_absent_class_contributes_zeros(self):
        # C never true and never predicted: P = R = F1 = 0 enters the mean
        cm = ConfusionMatrix(("A", "B", "C"), ((2, 0, 0), (0, 2, 0), (0, 0, 0)))
        report = metrics_from_matrix(cm)
        assert report.per_class["C"] .f1 == 0.0
        assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert report.accuracy == 1.0

    def test_macro_is_mean_of_per_class(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            counts = tuple(
                tuple(int(c) for c in rng.integers(0, 9, size=k)) for _ in range(k)
            )
            if sum(map(sum, counts)) == 0:
                continue
            report = metrics_from_matrix(ConfusionMatrix(tuple("abcdef"[:k]), counts))
            values = list(report.per_class.values())
            assert report.macro_precision == pytest.approx(
                sum(m.precision for m in values) / k, abs=1e-12
            )
            assert report.macro_f1 == pytest.approx(sum(m.f1 for m in values) / k, abs=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            counts = [[int(c) for c in rng.integers(0, 9, size=k)] for _ in range(k)]
            if sum(map(sum, counts)) == 0:
                continue
            report = metrics_from_matrix(
                ConfusionMatrix(tuple(f"c{i}" for i in range(k)), tuple(map(tuple, counts)))
            )
            expected = metrics_oracle(counts)
            assert report.macro_precision == pytest.approx(expected["macro_precision"], abs=1e-12)
            assert report.macro_recall == pytest.approx(expected["macro_recall"], abs=1e-12)
            assert report.macro_f1 == pytest.approx(expected["macro_f1"], abs=1e-12)
            assert report.accuracy == pytest.approx(expected["accuracy"], abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(19)
        y_true = [("A", "B", "C")[int(rng.integers(0, 3))] for _ in range(60)]
        y_pred = [("A", "B", "C")[int(rng.integers(0, 3))] for _ in range(60)]
        base = metrics_from_matrix(confusion_matrix(y_true, y_pred, ("A", "B", "C")))
        perm = rng.permutation(60)
        shuffled = metrics_from_matrix(
            confusion_matrix(
                [y_true[i] for i in perm], [y_pred[i] for i in perm], ("A", "B", "C")
            )
        )
        assert base.macro_f1 == shuffled.macro_f1
        assert base.accuracy == shuffled.accuracy
        assert base.confusion == shuffled.confusion

    def test_accuracy_equals_trace_over_total(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            counts = rng.integers(0, 10, size=(k, k))
            if counts.sum() == 0:
                continue
            cm = ConfusionMatrix(
                tuple(f"c{i}" for i in range(k)), tuple(tuple(int(x) for x in r) for r in counts)
            )
            assert metrics_from_matrix(cm).accuracy == counts.trace() / counts.sum()


class TestEvaluate:
    def test_separable_train_equals_test_is_perfect(self, synth_train, default_cfg):
        trained = train(synth_train, "tfidf", "nb", TrainHyperparams(), default_cfg)
        report = evaluate(trained, synth_train, default_cfg)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.method_name == "TFIDF+NB"
        assert report.predict_seconds > 0
        assert list(report.predict_stage_seconds) == ["vectorize", "score"]
        assert report.predict_seconds == sum(report.predict_stage_seconds.values())
        assert report.preprocess_seconds > 0

    def test_unseen_label_rejected(self, synth_train, default_cfg):
        trained = train(synth_train, "tfidf", "nb", TrainHyperparams(), default_cfg)
        stranger = LabeledCorpus((
            LabeledDocument("s", "কনক খনখ", "thirteenth"),
        ))
        with pytest.raises(UnknownLabelError):
            evaluate(trained, stranger, default_cfg)

    def test_unseen_label_rejected_before_preprocessing(
        self, synth_train, default_cfg, monkeypatch
    ):
        trained = train(synth_train, "tfidf", "nb", TrainHyperparams(), default_cfg)

        def never(*args, **kwargs):
            raise AssertionError("preprocessed a corpus with an unseen label")

        monkeypatch.setattr(evaluation_module, "preprocess_corpus", never)
        stranger = LabeledCorpus(
            tuple(synth_train) + (LabeledDocument("s", "কনক খনখ", "thirteenth"),)
        )
        with pytest.raises(UnknownLabelError, match="'thirteenth'"):
            evaluate(trained, stranger, default_cfg)

    def test_empty_token_document_still_counted(self, synth_train, default_cfg):
        trained = train(synth_train, "tfidf", "nb", TrainHyperparams(), default_cfg)
        label = synth_train.labels[0]
        degenerate = LabeledCorpus((
            LabeledDocument("empty", "১২৩ ৪৫৬", label),
        ))
        report = evaluate(trained, degenerate, default_cfg)
        assert report.confusion.total == 1

    def test_config_mismatch_rejected(self, synth_train, default_cfg):
        trained = train(synth_train, "tfidf", "nb", TrainHyperparams(), default_cfg)
        other = PreprocessConfig(stopword_list=default_cfg.stopword_list, suffix_table=())
        with pytest.raises(PreprocessMismatchError):
            evaluate(trained, synth_train, other)


    @pytest.mark.parametrize("selector", ["tfidf", "chi2"])
    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_batch_predictions_equal_per_document_predictions(
        self, selector, classifier, default_cfg
    ):
        # Overlapping classes, so the labels carry errors a mix-up would move.
        train_corpus = make_overlapping_corpus(6, seed=21)
        overlapping = make_overlapping_corpus(4, seed=22)
        label = overlapping.labels[0]
        test_corpus = LabeledCorpus(tuple(overlapping) + (
            LabeledDocument("emptied", "১২৩। ৪৫৬! ,;", label),
            LabeledDocument("out-of-vocabulary", "Zqxv wqyz। ΑΣ?Σ", label),
        ))
        trained = train(train_corpus, selector, classifier, TrainHyperparams(), default_cfg)
        docs = preprocess_corpus(test_corpus, default_cfg)
        emptied, unknown = docs[-2:]
        assert emptied.token_count == 0
        assert unknown.token_count and not set(unknown.tokens()) & set(trained.vocabulary.terms)
        batch_labels, batch_scores = predict(trained, docs)
        one_by_one = []
        for doc, batch_label, batch_row in zip(docs, batch_labels, batch_scores):
            label, score, row = predict_tokenized(trained, doc)
            assert label == batch_label
            assert list(row) == list(trained.class_labels)
            assert np.array(list(row.values())).tobytes() == batch_row.tobytes()
            assert score == row[label]
            one_by_one.append(label)
        y_true = [doc.label for doc in docs]
        report = evaluate(trained, test_corpus, default_cfg)
        assert report.confusion == confusion_matrix(y_true, one_by_one, trained.class_labels)


class TestBenchmark:
    def test_one_model_per_pipeline_of_the_papers_table(self, tiny_corpus, default_cfg, tmp_path):
        # The paper's row order; perfbench's `pipeline_key` parses these names.
        assert METHOD_ORDER == (
            "CHI-SQUARE+SGD", "TFIDF+SGD", "CHI-SQUARE+NB", "TFIDF+NB",
            "CHI-SQUARE+SVM", "TFIDF+SVM",
        )
        benchmark(tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, tmp_path)
        assert len(list(tmp_path.glob("model_*.json"))) == len(METHOD_ORDER)
        pipelines = {}
        for name in METHOD_ORDER:
            stem = name.replace("+", "_").replace("-", "_")
            payload = json.loads((tmp_path / f"model_{stem}.json").read_text(encoding="utf-8"))
            pipelines[name] = (payload["selector"], payload["model_type"])
        assert sorted(pipelines.values()) == sorted(itertools.product(SELECTORS, CLASSIFIERS))
        selector_names = {"chi2": "CHI-SQUARE", "tfidf": "TFIDF"}
        for name, (selector, classifier) in pipelines.items():
            assert name == f"{selector_names[selector]}+{classifier.upper()}"

    def test_six_reports_in_table_order(self, tiny_corpus, default_cfg, tmp_path):
        result = benchmark(
            tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, out_dir=tmp_path
        )
        assert [r.method_name for r in result.reports] == list(METHOD_ORDER)
        assert not result.failures
        tsv = (tmp_path / "comparison.tsv").read_text(encoding="utf-8").splitlines()
        assert tsv[0] == "method\ttrain_sec\tprecision\trecall\tf1\taccuracy"
        assert len(tsv) == 7
        for name in METHOD_ORDER:
            stem = name.replace("+", "_").replace("-", "_")
            assert (tmp_path / f"model_{stem}.json").exists()
            assert (tmp_path / f"report_{stem}.json").exists()

    @pytest.mark.parametrize(
        "umask,mode",
        [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
        ids=["umask-022", "umask-077", "umask-002"],
    )
    def test_outputs_get_the_umask_mode(self, umask, mode, tiny_corpus, default_cfg, tmp_path):
        previous = os.umask(umask)
        try:
            benchmark(tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, out_dir=tmp_path)
        finally:
            os.umask(previous)
        written = sorted(path.name for path in tmp_path.iterdir())
        assert len(written) == 13  # six models, six reports and the table, no temp files
        assert "model_CHI_SQUARE_SVM.json" in written and "report_TFIDF_NB.json" in written
        for name in written:
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name

    def test_train_equals_test_is_perfect_for_all_six(self, tiny_corpus, default_cfg, tmp_path):
        result = benchmark(tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, tmp_path)
        for report in result.reports:
            assert report.macro_f1 == 1.0

    @pytest.mark.parametrize("repro", [False, True])
    def test_reports_carry_stage_seconds(self, repro, tiny_corpus, default_cfg, tmp_path):
        result = benchmark(
            tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, out_dir=tmp_path,
            repro=repro,
        )
        for report in result.reports:
            assert list(report.stage_seconds) == ["features", "vectorize", "fit"]
            assert report.train_seconds == sum(report.stage_seconds.values())
            assert list(report.predict_stage_seconds) == ["vectorize", "score"]
            assert report.predict_seconds == sum(report.predict_stage_seconds.values())
            timings = [*report.stage_seconds.values(), *report.predict_stage_seconds.values()]
            if repro:
                assert set(timings) == {0.0}
                assert report.preprocess_seconds == 0.0
            else:
                assert all(seconds > 0 for seconds in timings)
                assert report.preprocess_seconds > 0
        # one shared test pass is preprocessed for all six methods
        assert len({report.preprocess_seconds for report in result.reports}) == 1
        assert len(list(tmp_path.glob("model_*.json"))) == 6
        for path in tmp_path.glob("report_*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["train_seconds"] == sum(payload["stage_seconds"].values())
            assert payload["predict_seconds"] == sum(payload["predict_stage_seconds"].values())

    def test_model_files_are_the_trained_models(self, tiny_corpus, default_cfg, tmp_path):
        # --repro zeroes report timings only: with or without it, each model
        # file holds the bytes that training the pipeline on its own saves.
        hyper = TrainHyperparams(seed=7)
        for repro in (False, True):
            benchmark(tiny_corpus, tiny_corpus, hyper, default_cfg, tmp_path / str(repro),
                      repro=repro)
        docs = preprocess_corpus(tiny_corpus, default_cfg)
        for name, (selector, classifier) in PIPELINES.items():
            path = tmp_path / "alone" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            save_model(
                train_from_tokens(docs, selector, classifier, hyper, default_cfg), path
            )
            stem = name.replace("+", "_").replace("-", "_")
            for repro in (False, True):
                saved = tmp_path / str(repro) / f"model_{stem}.json"
                assert saved.read_bytes() == path.read_bytes(), (name, repro)

    def test_shared_label_precondition(self, tiny_corpus, default_cfg, tmp_path):
        other = LabeledCorpus((
            LabeledDocument("x", "কনক", "somethingelse"),
            LabeledDocument("y", "খনখ", "another"),
        ))
        with pytest.raises(UnknownLabelError, match="'another'"):
            benchmark(tiny_corpus, other, TrainHyperparams(), default_cfg, tmp_path)

    def test_unseen_test_label_fails_before_training(
        self, tiny_corpus, default_cfg, tmp_path, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("trained despite an unseen test label")

        monkeypatch.setattr(evaluation_module, "train_from_tokens", never)
        monkeypatch.setattr(evaluation_module, "preprocess_corpus", never)
        test_corpus = LabeledCorpus(
            tuple(tiny_corpus) + (LabeledDocument("new", "কনক", "brand-new"),)
        )
        out_dir = tmp_path / "bench"
        with pytest.raises(UnknownLabelError, match="'brand-new'"):
            benchmark(tiny_corpus, test_corpus, TrainHyperparams(), default_cfg, out_dir=out_dir)
        assert not out_dir.exists()

    def test_empty_out_dir_writes_nothing(self, tiny_corpus, default_cfg, tmp_path, monkeypatch):
        # Path("") is the current directory, where the 13 files would land.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as caught:
            benchmark(tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, out_dir="")
        assert caught.value.errno == errno.ENOENT and caught.value.filename == ""
        assert str(caught.value) == "[Errno 2] No such file or directory: ''"
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_that_is_a_file_fails_before_preprocessing(
        self, tiny_corpus, default_cfg, tmp_path, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("preprocessed for an out_dir that is a file")

        monkeypatch.setattr(evaluation_module, "preprocess_corpus", never)
        target = tmp_path / "taken"
        target.write_text("kept", encoding="utf-8")
        with pytest.raises(FileExistsError) as caught:
            benchmark(tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, out_dir=target)
        assert str(caught.value) == f"[Errno 17] File exists: {str(target)!r}"
        assert target.read_text(encoding="utf-8") == "kept"

    def test_long_unseen_test_label_is_cut_in_the_message(
        self, tiny_corpus, default_cfg, tmp_path
    ):
        label = "z" * 100_000
        test_corpus = LabeledCorpus(
            tuple(tiny_corpus) + (LabeledDocument("new", "কনক", label),)
        )
        with pytest.raises(UnknownLabelError) as caught:
            benchmark(tiny_corpus, test_corpus, TrainHyperparams(), default_cfg, tmp_path)
        assert caught.value.label == label
        assert str(caught.value).endswith("z" * 20 + "...") and len(str(caught.value)) < 300

    def test_one_training_label_rejected_once(
        self, tiny_corpus, default_cfg, tmp_path, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("preprocessed a one-label training corpus")

        monkeypatch.setattr(evaluation_module, "preprocess_corpus", never)
        label = tiny_corpus.labels[0]
        single = LabeledCorpus(tuple(doc for doc in tiny_corpus if doc.label == label))
        with pytest.raises(SingleClassError, match="two training labels"):
            benchmark(single, single, TrainHyperparams(), default_cfg, tmp_path, keep_going=True)

    def test_one_label_test_corpus_gives_six_reports(self, tiny_corpus, default_cfg, tmp_path):
        label = tiny_corpus.labels[0]
        single = LabeledCorpus(tuple(doc for doc in tiny_corpus if doc.label == label))
        result = benchmark(tiny_corpus, single, TrainHyperparams(), default_cfg, tmp_path)
        assert [r.method_name for r in result.reports] == list(METHOD_ORDER)
        assert not result.failures
        for report in result.reports:
            assert report.confusion.labels == tiny_corpus.labels
            assert report.confusion.total == len(single)

    def test_partial_failure_keeps_going(self, tiny_corpus, default_cfg, tmp_path, monkeypatch):
        real = evaluation_module.train_from_tokens

        def sabotaged(docs, selector, classifier, *args, **kwargs):
            if (selector, classifier) == ("chi2", "svm"):
                raise SingleClassError("injected failure")
            return real(docs, selector, classifier, *args, **kwargs)

        monkeypatch.setattr(evaluation_module, "train_from_tokens", sabotaged)
        result = benchmark(
            tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, tmp_path, keep_going=True
        )
        assert len(result.reports) == 5
        assert [name for name, _ in result.failures] == ["CHI-SQUARE+SVM"]

    def test_failed_pipeline_leaves_no_output_of_an_earlier_run(
        self, tiny_corpus, default_cfg, tmp_path, monkeypatch
    ):
        hyper = TrainHyperparams()
        benchmark(tiny_corpus, tiny_corpus, hyper, default_cfg, tmp_path, keep_going=True)
        earlier = {path.name for path in tmp_path.iterdir()}
        assert len(earlier) == 13
        for name in earlier:
            (tmp_path / name).write_text("stale", encoding="utf-8")

        def explode(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setattr(models_module, "train_nb", explode)
        result = benchmark(tiny_corpus, tiny_corpus, hyper, default_cfg, tmp_path, keep_going=True)
        assert [name for name, _ in result.failures] == ["CHI-SQUARE+NB", "TFIDF+NB"]
        nb_outputs = {f"{kind}_{selector}_NB.json"
                      for kind in ("model", "report") for selector in ("CHI_SQUARE", "TFIDF")}
        assert {path.name for path in tmp_path.iterdir()} == earlier - nb_outputs
        for path in tmp_path.iterdir():
            assert path.read_text(encoding="utf-8") != "stale", path.name

    def test_failure_propagates_without_keep_going(
        self, tiny_corpus, default_cfg, tmp_path, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise SingleClassError("injected failure")

        monkeypatch.setattr(evaluation_module, "train_from_tokens", explode)
        with pytest.raises(SingleClassError):
            benchmark(tiny_corpus, tiny_corpus, TrainHyperparams(), default_cfg, tmp_path)


class TestReportSerialization:
    def test_payload_fields(self):
        report = metrics_from_matrix(ConfusionMatrix(("A", "B"), ((1, 1), (0, 1))))
        report.method_name = "TFIDF+NB"
        report.preprocess_seconds = 0.75
        report.stage_seconds = {"features": 0.5, "vectorize": 0.25, "fit": 0.5}
        report.predict_stage_seconds = {"vectorize": 0.375, "score": 0.125}
        payload = json.loads(json.dumps(report_to_dict(report)))
        assert payload == {
            "method": "TFIDF+NB",
            "train_seconds": 1.25,
            "predict_seconds": 0.5,
            "predict_stage_seconds": {"vectorize": 0.375, "score": 0.125},
            "preprocess_seconds": 0.75,
            "stage_seconds": {"features": 0.5, "vectorize": 0.25, "fit": 0.5},
            "accuracy": report.accuracy,
            "macro_precision": report.macro_precision,
            "macro_recall": report.macro_recall,
            "macro_f1": report.macro_f1,
            "per_class": {
                label: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
                for label, m in report.per_class.items()
            },
            "confusion": {"labels": ["A", "B"], "counts": [[1, 1], [0, 1]]},
        }
        assert payload["accuracy"] == 2 / 3
        assert payload["per_class"]["A"] == {"precision": 1.0, "recall": 0.5, "f1": 2 / 3}

    def test_comparison_tsv_format(self, tmp_path):
        report = metrics_from_matrix(ConfusionMatrix(("A", "B"), ((2, 0), (0, 2))))
        report.method_name = "TFIDF+SVM"
        report.stage_seconds = {"features": 0.036, "vectorize": 0.0, "fit": 0.05}
        path = tmp_path / "comparison.tsv"
        write_comparison_tsv([report], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "TFIDF+SVM\t0.0860\t1.000000\t1.000000\t1.000000\t1.000000"
