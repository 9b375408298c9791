import errno
import json
import os
import re
import warnings

import numpy as np
import pytest

from doccat.cli import (
    HYPER_DEFAULTS,
    build_parser,
    build_preprocess_config,
    main,
    parse_config_file,
    resolve_hyper,
)
from doccat.corpus import load_jsonl
from doccat.errors import MalformedLineError
from doccat.evaluation import evaluate
from doccat.models import TrainHyperparams, load_model, predict, predict_tokenized
from doccat.textprep import (
    PreprocessConfig, default_config, load_stopwords, load_suffix_table, preprocess_document,
)

from helpers import make_synthetic_corpus, save_jsonl

SUBCOMMANDS = ("preprocess", "train", "predict", "evaluate", "benchmark")


@pytest.fixture()
def corpora(tmp_path):
    train_path = tmp_path / "train.jsonl"
    test_path = tmp_path / "test.jsonl"
    save_jsonl(make_synthetic_corpus(4, seed=50, n_categories=3, pool_size=3), train_path)
    save_jsonl(make_synthetic_corpus(2, seed=60, n_categories=3, pool_size=3), test_path)
    return train_path, test_path


def train_model(tmp_path, corpora, classifier="nb", features="tfidf"):
    train_path, _ = corpora
    model_path = tmp_path / "model.json"
    code = main([
        "train", "--corpus", str(train_path), "--features", features,
        "--model", classifier, "--out", str(model_path),
    ])
    assert code == 0
    return model_path


class TestUsageContract:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero_without_touching_fs(self, sub, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preprocess"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_choice_is_usage_error(self, corpora):
        train_path, _ = corpora
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(train_path), "--features", "pca",
                  "--model", "nb", "--out", "m.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag", [["--chi-top-percent", "150"], ["--seed", "-1"]], ids=["percent", "seed"]
    )
    def test_out_of_range_percent_is_usage_error(self, flag, corpora):
        train_path, _ = corpora
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(train_path), "--features", "chi2",
                  "--model", "nb", "--out", "m.json", *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--input", "--stopwords", "--suffixes", "--config"])
    def test_input_file_that_is_not_utf8_is_named(self, flag, tmp_path, corpora, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        if flag == "--input":  # a raw prediction input
            argv = ["predict", "--model", str(train_model(tmp_path, corpora)),
                    "--input", str(bad), "--out", str(out)]
        else:
            argv = ["train", "--corpus", str(corpora[0]), "--features", "tfidf",
                    "--model", "nb", "--out", str(out), flag, str(bad)]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: unreadable file {bad}: invalid UTF-8: ")


class TestResolvedConfig:
    def test_defaults_match_reference_configuration(self):
        parser = build_parser()
        args = parser.parse_args([
            "train", "--corpus", "c", "--features", "tfidf", "--model", "nb", "--out", "m",
        ])
        hyper = resolve_hyper(args)
        assert hyper == TrainHyperparams()
        assert hyper.nb_alpha == 0.01
        assert hyper.sgd_alpha == 0.0001
        assert hyper.sgd_epochs == 50
        assert hyper.svm_c == 1.0
        assert hyper.chi_top_percent == 30.0
        assert hyper.seed == 42
        assert hyper.chi_g_top_k is None
        assert HYPER_DEFAULTS == {
            "nb_alpha": 0.01, "sgd_alpha": 0.0001, "sgd_epochs": 50, "svm_c": 1.0,
            "seed": 42, "chi_top_percent": 30.0, "chi_g_top_k": None,
        }

    def test_no_flags_build_empty_tables(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        parser = build_parser()

        def config(*flags):
            return build_preprocess_config(
                parser.parse_args(["preprocess", "--corpus", "c", "--out", "o", *flags])
            )

        base = default_config()
        no_stopwords = PreprocessConfig(stopword_list=(), suffix_table=base.suffix_table)
        no_stemming = PreprocessConfig(stopword_list=base.stopword_list, suffix_table=())
        assert config() == base
        for built, expected in [
            (config("--no-stopwords"), no_stopwords),
            (config("--stopwords", str(empty)), no_stopwords),
            (config("--no-stemming"), no_stemming),
            (config("--suffixes", str(empty)), no_stemming),
        ]:
            assert built == expected

    def test_flag_overrides_config_file_overrides_default(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("nb-alpha = 0.5\nseed = 9\n# comment\n", encoding="utf-8")
        parser = build_parser()
        args = parser.parse_args([
            "train", "--corpus", "c", "--features", "tfidf", "--model", "nb", "--out", "m",
            "--config", str(config_file), "--nb-alpha", "0.25",
        ])
        hyper = resolve_hyper(args)
        assert hyper.nb_alpha == 0.25  # flag wins
        assert hyper.seed == 9  # config file wins over default
        assert hyper.sgd_epochs == HYPER_DEFAULTS["sgd_epochs"]

    def test_unknown_config_key_is_data_error(self, tmp_path, corpora, capsys):
        train_path, _ = corpora
        config_file = tmp_path / "run.cfg"
        config_file.write_text("learning-rate = 3\n", encoding="utf-8")
        code = main([
            "train", "--corpus", str(train_path), "--features", "tfidf",
            "--model", "nb", "--out", str(tmp_path / "m.json"), "--config", str(config_file),
        ])
        assert code == 1
        assert "learning-rate" in capsys.readouterr().err.replace("_", "-")

    @pytest.mark.parametrize(
        "line", ["chi_g_top_k=0", "sgd-epochs = 0", "svm_c = nan", "seed = -1"]
    )
    def test_config_value_gets_the_flag_check(self, line, tmp_path, corpora, capsys):
        train_path, _ = corpora
        config_file = tmp_path / "run.cfg"
        config_file.write_text(line + "\n", encoding="utf-8")
        code = main([
            "train", "--corpus", str(train_path), "--features", "chi2",
            "--model", "nb", "--out", str(tmp_path / "m.json"), "--config", str(config_file),
        ])
        assert code == 1
        key = line.split("=")[0].strip().replace("-", "_")
        assert key in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_bad_config_value_names_its_line_under_an_overriding_flag(
        self, tmp_path, corpora, capsys
    ):
        train_path, _ = corpora
        config_file = tmp_path / "run.cfg"
        config_file.write_text("seed = 9\nsvm_c = nan\n", encoding="utf-8")
        code = main([
            "train", "--corpus", str(train_path), "--features", "tfidf", "--model", "svm",
            "--out", str(tmp_path / "m.json"), "--config", str(config_file), "--svm-c", "2",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {config_file}: malformed line 2: svm_c: 'nan': "
        )
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("first, repeat", [
        ("seed = 1", "seed = 2"),
        ("sgd-alpha = 0.001", "sgd_alpha = 0.01"),
        ("sgd_alpha = 0.001", "sgd-alpha = 0.001"),
    ])
    def test_repeated_config_key_names_its_line(self, first, repeat, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{first}\n# comment\n{repeat}\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            parse_config_file(path)
        assert exc.value.line_no == 3
        key = first.split("=")[0].strip().replace("-", "_")
        assert exc.value.reason == f"key {key!r} repeats line 1"

    # Above the largest accepted alpha (1e12), or with an infinite reciprocal.
    @pytest.mark.parametrize("text", ["1e13", "1e306", "5e-324"])
    def test_sgd_alpha_bound_at_every_level(self, text, tmp_path, corpora, capsys):
        reason = "sgd_alpha must be at most 1e+12 and have a finite reciprocal"
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}, got "):
            TrainHyperparams(sgd_alpha=float(text))
        out = tmp_path / "m.json"
        argv = ["train", "--corpus", str(corpora[0]), "--features", "tfidf",
                "--model", "sgd", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--sgd-alpha", text])
        assert exc.value.code == 2
        assert f"error: argument --sgd-alpha: {text!r}: {reason}" in capsys.readouterr().err
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"seed = 3\nsgd_alpha = {text}\n", encoding="utf-8")
        assert main([*argv, "--config", str(config_file)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {config_file}: malformed line 2: sgd_alpha: {text!r}: {reason}"
        )
        assert not out.exists()

    def test_largest_sgd_alpha_trains_without_warnings(self, tmp_path, corpora, capsys):
        out = tmp_path / "m.json"
        config_file = tmp_path / "run.cfg"
        config_file.write_text("sgd_alpha = 1e12\n", encoding="utf-8")
        for source in (["--sgd-alpha", "1e12"], ["--config", str(config_file)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["train", "--corpus", str(corpora[0]), "--features", "tfidf",
                             "--model", "sgd", "--out", str(out), *source])
            assert code == 0 and capsys.readouterr().err == ""
            weights = load_model(out).model.weights
            assert weights.any() and np.isfinite(weights).all()

    @pytest.mark.parametrize("key, kind", [("seed", "an integer"), ("sgd_alpha", "a number")])
    def test_long_config_value_is_cut_in_the_message(self, key, kind, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {'x' * 100_000}\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            parse_config_file(path)
        assert exc.value.reason == f"{key}: '{'x' * 79}...: not {kind}"

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sgd_alpha = 0.001\nseed = 3\n", encoding="utf-8-sig")
        assert parse_config_file(path) == {"sgd_alpha": 0.001, "seed": 3}

    def test_line_boundary_inside_a_config_line_is_malformed(self, tmp_path):
        # str.splitlines would read two settings from this one line.
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\u2028svm-c = 2\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            parse_config_file(path)
        assert str(exc.value) == (
            f"{path}: malformed line 1: holds the line boundary '\\u2028'; lines end at \\n only"
        )

    def test_crlf_config_file_reads_as_its_lf_copy(self, tmp_path):
        text = "# run\nsvm_c=2.0\n\nseed = 3  # x\n"
        lf, crlf = tmp_path / "lf.cfg", tmp_path / "crlf.cfg"
        lf.write_bytes(text.encode("utf-8"))
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert parse_config_file(crlf) == parse_config_file(lf) == {"svm_c": 2.0, "seed": 3}

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# svm_c = nan\nsvm_c=2.0\n\nchi-top-percent = 45  # wider\n",
                        encoding="utf-8")
        assert parse_config_file(path) == {"svm_c": 2.0, "chi_top_percent": 45.0}


def _assert_missing_directory_named(tmp_path, capsys, argv, flag="--out"):
    """Run `argv` verbosely with `flag` naming a file in a directory that does
    not exist: it exits 1 before reading anything, so stderr holds only the
    error naming the requested path (not a temp file), and creates nothing."""
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "nodir" / "out.json"
    assert main([*argv, "-v", flag, str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


class TestOutputPath:
    # Every input named here is absent, so reading anything first would fail
    # with another error.
    COMMANDS = {
        "preprocess": (["preprocess", "--corpus", "absent.jsonl"], "--out"),
        "train": (["train", "--corpus", "absent.jsonl", "--features", "chi2",
                   "--model", "svm"], "--out"),
        "predict": (["predict", "--model", "absent.json", "--input", "absent.txt"], "--out"),
        "evaluate": (["evaluate", "--model", "absent.json", "--corpus", "absent.jsonl"],
                     "--report"),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_existing_directory_fails_before_reading(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        argv, flag = self.COMMANDS[command]
        assert main([*argv, "-v", flag, "adir"]) == 1
        assert capsys.readouterr().err == "error: [Errno 21] Is a directory: 'adir'\n"
        assert list(tmp_path.rglob("*")) == [tmp_path / "adir"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_path_fails_before_reading(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        argv, flag = self.COMMANDS[command]
        assert main([*argv, "-v", flag, ""]) == 1
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []


class TestPreprocess:
    def test_writes_tokenized_jsonl(self, tmp_path, corpora, capsys):
        train_path, _ = corpora
        out = tmp_path / "tokens.jsonl"
        assert main(["preprocess", "--corpus", str(train_path), "--out", str(out)]) == 0
        assert "documents=12" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 12
        assert set(rows[0]) == {"id", "label", "sentences"}

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        rows = ['{"text": "ক", "label": "x"}'] * 6 + ['{"label": "x"}']
        bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["preprocess", "--corpus", str(bad), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "7" in capsys.readouterr().err

    def test_line_nested_too_deep_names_its_line(self, tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text('{"text": "ক", "label": "x"}\n{"text": ' + "[" * 100_000 + "\n",
                        encoding="utf-8")
        code = main(["preprocess", "--corpus", str(deep), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {deep}: malformed line 2: invalid JSON: nested too deep\n"
        )

    def test_missing_corpus_file(self, tmp_path, capsys):
        code = main(["preprocess", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 1

    def test_out_in_missing_directory_names_the_path(self, tmp_path, corpora, capsys):
        _assert_missing_directory_named(
            tmp_path, capsys, ["preprocess", "--corpus", str(corpora[0])]
        )

    def test_out_that_is_a_directory_names_the_path(self, tmp_path, corpora, capsys):
        # The rename into place fails; the error names --out, not the temp file.
        out = tmp_path / "adir"
        out.mkdir()
        assert main(["preprocess", "--corpus", str(corpora[0]), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert list(out.iterdir()) == [] and sorted(tmp_path.iterdir()) == sorted([*corpora, out])


class TestTrain:
    def test_reports_feature_count_and_time(self, tmp_path, corpora, capsys):
        model_path = train_model(tmp_path, corpora)
        out = capsys.readouterr().out
        assert "features=" in out and "train_sec=" in out
        assert model_path.exists()

    def test_chi2_flag_routing(self, tmp_path, corpora):
        model_path = train_model(tmp_path, corpora, features="chi2")
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        assert payload["selector"] == "chi2"
        assert load_model(model_path).feature_mode == "counts"

    def test_verbose_svm_prints_solver_diagnostics_per_class(
        self, tmp_path, corpora, capsys
    ):
        train_path, _ = corpora
        code = main(["train", "-v", "--corpus", str(train_path), "--features", "tfidf",
                     "--model", "svm", "--out", str(tmp_path / "m.json")])
        assert code == 0
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("svm class=")
        ]
        docs = load_jsonl(train_path)
        labels = sorted({doc.label for doc in docs})
        assert [line.split()[1] for line in lines] == [f"class={label}" for label in labels]
        for line in lines:
            fields = dict(item.split("=", 1) for item in line.split()[1:])
            assert set(fields) == {
                "class", "passes", "updates", "violation", "converged", "gap",
            }
            assert line.endswith(f" gap={fields['gap']}")
            assert int(fields["passes"]) >= 1
            # The first step meets every gradient at -1 and so changes every
            # class's alpha; a pass has one step per document.
            assert 1 <= int(fields["updates"]) <= int(fields["passes"]) * len(docs)
            assert float(fields["violation"]) < 1e-3
            assert fields["converged"] == "True"
            # Weak duality: no dual objective exceeds the primal one.
            assert 0.0 <= float(fields["gap"]) < 1e-2

    def test_verbose_sgd_prints_objectives_per_class(self, tmp_path, corpora, capsys):
        train_path, _ = corpora
        code = main(["train", "-v", "--corpus", str(train_path), "--features", "tfidf",
                     "--model", "sgd", "--out", str(tmp_path / "m.json")])
        assert code == 0
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("sgd class=")
        ]
        docs = load_jsonl(train_path)
        labels = sorted({doc.label for doc in docs})
        assert [line.split()[1] for line in lines] == [f"class={label}" for label in labels]
        for line in lines:
            fields = dict(item.split("=", 1) for item in line.split()[1:])
            assert set(fields) == {"class", "objective_epoch1", "objective_final", "updates"}
            assert 0.0 <= float(fields["objective_final"]) <= float(fields["objective_epoch1"])
            # Every class is updated at the first step (all margins are 0),
            # and no class more often than there are steps.
            assert 1 <= int(fields["updates"]) <= TrainHyperparams().sgd_epochs * len(docs)

    def test_verbose_prints_stage_seconds(self, tmp_path, corpora, capsys):
        train_path, _ = corpora
        code = main(["train", "-v", "--corpus", str(train_path), "--features", "chi2",
                     "--model", "nb", "--out", str(tmp_path / "m.json")])
        assert code == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.startswith("stage ")]
        assert len(lines) == 1
        fields = dict(item.split("=", 1) for item in lines[0].split()[1:])
        assert list(fields) == ["features", "vectorize", "fit"]
        train_sec = float(captured.out.split("train_sec=")[1].split()[0])
        assert sum(map(float, fields.values())) == pytest.approx(train_sec, abs=5e-4)

    @pytest.mark.parametrize("alpha", ["1e308", "5e-324"])
    def test_nb_alpha_without_finite_likelihoods_writes_no_model(
        self, alpha, tmp_path, corpora, capsys
    ):
        out = tmp_path / "m.json"
        code = main(["train", "--corpus", str(corpora[0]), "--features", "tfidf",
                     "--model", "nb", "--out", str(out), "--nb-alpha", alpha])
        captured = capsys.readouterr()
        assert code == 1 and "nb_alpha" in captured.err and not out.exists()

    @pytest.mark.parametrize(
        "table", ["রা\t2\nগুলো\t2\nরা\t3\n", "রা\t0\n", "\t2\n"],
        ids=["duplicate", "zero_min", "empty_suffix"],
    )
    def test_bad_suffix_table_names_the_file(self, table, tmp_path, corpora, capsys):
        suffixes = tmp_path / "suf.tsv"
        suffixes.write_text(table, encoding="utf-8")
        out = tmp_path / "m.json"
        code = main(["train", "--corpus", str(corpora[0]), "--features", "tfidf",
                     "--model", "nb", "--out", str(out), "--suffixes", str(suffixes)])
        captured = capsys.readouterr()
        assert code == 1 and not out.exists()
        assert captured.err.startswith(f"error: {suffixes}: malformed line ")

    def test_out_in_missing_directory_names_the_path(self, tmp_path, corpora, capsys):
        _assert_missing_directory_named(tmp_path, capsys, [
            "train", "--corpus", str(corpora[0]), "--features", "tfidf", "--model", "nb",
        ])

    def test_missing_out_directory_fails_before_loading(self, tmp_path, corpora, capsys):
        out = tmp_path / "nodir" / "m.json"
        code = main(["train", "-v", "--corpus", str(corpora[0]), "--features", "chi2",
                     "--model", "svm", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted(corpora)

    def test_single_label_corpus_is_data_error(self, tmp_path, capsys):
        single = tmp_path / "single.jsonl"
        save_jsonl(make_synthetic_corpus(3, seed=1, n_categories=1, pool_size=3), single)
        code = main(["train", "--corpus", str(single), "--features", "tfidf",
                     "--model", "nb", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "one class" in capsys.readouterr().err

    # A switched-off step is an empty table, so every way of giving that
    # empty table writes the same model. A file given beside its --no-*
    # flag is read and checked, and then not applied.
    @pytest.mark.parametrize(
        "ways",
        [
            [["--no-stopwords"], ["--stopwords", "empty.txt"],
             ["--no-stopwords", "--stopwords", "one.txt"]],
            [["--no-stemming"], ["--suffixes", "empty.txt"],
             ["--no-stemming", "--suffixes", "one.tsv"]],
        ],
        ids=["stopwords", "stemming"],
    )
    def test_switched_off_step_is_its_empty_table(self, ways, tmp_path, corpora, capsys):
        (tmp_path / "empty.txt").write_text("# nothing\n", encoding="utf-8")
        (tmp_path / "one.txt").write_text("কনক\n", encoding="utf-8")
        (tmp_path / "one.tsv").write_text("নক\t1\n", encoding="utf-8")
        saved = []
        for index, flags in enumerate(ways):
            path = tmp_path / f"m{index}.json"
            flags = [str(tmp_path / flag) if flag.startswith(("empty", "one")) else flag
                     for flag in flags]
            assert main(["train", *flags, "--corpus", str(corpora[0]), "--features", "tfidf",
                         "--model", "nb", "--out", str(path)]) == 0
            saved.append(path.read_bytes())
        assert "error" not in capsys.readouterr().err
        assert saved[1:] == saved[:1] * (len(ways) - 1)
        assert saved[0] != train_model(tmp_path, corpora).read_bytes()


class TestPredict:
    def test_out_in_missing_directory_fails_before_reading_the_model(
        self, tmp_path, corpora, capsys
    ):
        # The model file does not exist either: the output path is checked first.
        _assert_missing_directory_named(tmp_path, capsys, [
            "predict", "--model", str(tmp_path / "absent.json"), "--input", str(corpora[1]),
        ])

    def test_single_text_file(self, tmp_path, corpora, capsys):
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        sample = tmp_path / "sample.txt"
        sample.write_text("কনক কপক কনক।", encoding="utf-8")
        assert main(["predict", "--model", str(model_path), "--input", str(sample)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        doc_id, label, score = lines[0].split("\t")
        assert doc_id == "sample.txt"
        assert label == "accident"

    @pytest.mark.parametrize(
        "text", ["কনক খনখ\rগনগ কপক", "কনক খনখ\r\nগনগ কপক\r\n", "কনক খনখ\u2028গনগ কপক"],
        ids=["bare_cr", "crlf", "u2028"],
    )
    def test_document_file_reads_as_its_jsonl_text(self, tmp_path, corpora, capsys, text):
        # The same text as a raw predict input, as a directory corpus file
        # and as a JSONL `text` gives the same labels and the same sentences.
        model_path = train_model(tmp_path, corpora, features="chi2")
        raw = tmp_path / "tree" / "accident" / "x.txt"
        raw.parent.mkdir(parents=True)
        raw.write_bytes(text.encode("utf-8"))
        batch = tmp_path / "x.jsonl"
        batch.write_text(json.dumps({"id": "x.txt", "text": text, "label": "accident"}) + "\n",
                         encoding="utf-8")
        outputs = {}
        for name, document, corpus in (("raw", raw, tmp_path / "tree"), ("jsonl", batch, batch)):
            assert main(["predict", "--model", str(model_path), "--input", str(document),
                         "--out", str(tmp_path / f"{name}.tsv")]) == 0
            tokens_path = tmp_path / f"{name}.tokens.jsonl"
            assert main(["preprocess", "--corpus", str(corpus), "--out", str(tokens_path)]) == 0
            (row,) = map(json.loads, tokens_path.read_text(encoding="utf-8").splitlines())
            outputs[name] = ((tmp_path / f"{name}.tsv").read_bytes(), row["sentences"])
        assert outputs["raw"] == outputs["jsonl"]

    def test_jsonl_order_preserved(self, tmp_path, corpora, capsys):
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        batch = tmp_path / "batch.jsonl"
        batch.write_text(
            "\n".join([
                '{"id": "one", "text": "কনক কপক"}',
                '{"id": "two", "text": "খনখ খপখ"}',
                '{"id": "three", "text": "গনগ গপগ"}',
            ]) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "pred.tsv"
        assert main(["predict", "--model", str(model_path), "--input", str(batch),
                     "--out", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r[0] for r in rows] == ["one", "two", "three"]
        assert [r[1] for r in rows] == ["accident", "art", "crime"]

    def test_jsonl_batch_equals_per_document_predictions(self, tmp_path, corpora, capsys):
        _, test_path = corpora
        model_path = train_model(tmp_path, corpora, classifier="sgd")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--input", str(test_path)]) == 0
        trained, config = load_model(model_path), default_config()
        expected = []
        for doc in load_jsonl(test_path):
            label, score, _ = predict_tokenized(trained, preprocess_document(doc, config))
            expected.append(f"{doc.id}\t{label}\t{score:.6f}")
        assert capsys.readouterr().out.splitlines() == expected

    def test_byte_order_mark_in_a_batch_is_dropped(self, tmp_path, corpora, capsys):
        _, test_path = corpora
        model_path = train_model(tmp_path, corpora)
        marked = tmp_path / "marked.jsonl"
        marked.write_text(test_path.read_text(encoding="utf-8"), encoding="utf-8-sig")
        capsys.readouterr()
        outputs = []
        for batch in (test_path, marked):
            assert main(["predict", "--model", str(model_path), "--input", str(batch)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_batch_of_blank_lines_is_an_empty_corpus(self, tmp_path, corpora, capsys):
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        batch = tmp_path / "batch.jsonl"
        batch.write_text("\n  \n\n", encoding="utf-8")
        code = main(["predict", "--model", str(model_path), "--input", str(batch)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: no documents in {batch}\n"

    def test_blank_raw_file_names_its_path(self, tmp_path, corpora, capsys):
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        sample = tmp_path / "blank.txt"
        sample.write_text(" \n\t\n", encoding="utf-8")
        code = main(["predict", "--model", str(model_path), "--input", str(sample)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: unreadable file {sample}: document 'blank.txt': "
            "text must be a non-empty string\n"
        )

    @pytest.mark.parametrize("line, reason", [
        ('{"id": 7, "text": "আমি"}', "document id must be non-empty without tabs or line "
                                     "breaks, got 7"),
        ('{"id": "blank", "text": "   "}', "text must be a non-empty string"),
        ('{"id": "", "text": "কনক"}', "document id must be non-empty"),
    ])
    def test_invalid_jsonl_document_names_its_line(
        self, tmp_path, corpora, capsys, line, reason
    ):
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        batch = tmp_path / "batch.jsonl"
        batch.write_text('{"id": "ok", "text": "কনক"}\n' + line + "\n", encoding="utf-8")
        code = main(["predict", "--model", str(model_path), "--input", str(batch)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "malformed line 2: " in captured.err and reason in captured.err

    @pytest.mark.parametrize("source", ["jsonl", "raw"])
    def test_tab_or_line_break_in_an_id_writes_no_tsv(self, tmp_path, corpora, capsys, source):
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        if source == "jsonl":
            batch = tmp_path / "batch.jsonl"
            rows = [{"id": "a\nb", "text": "কনক"}, {"id": "c\td", "text": "কনক"}]
            batch.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        else:  # a raw file's id is its name
            batch = tmp_path / "a\tb.txt"
            batch.write_text("কনক", encoding="utf-8")
        out = tmp_path / "labels.tsv"
        code = main(["predict", "--model", str(model_path), "--input", str(batch),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists()
        assert "without tabs or line breaks" in captured.err
        if source == "jsonl":
            assert "malformed line 1: " in captured.err

    def test_corrupted_model_is_data_error(self, tmp_path, corpora, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{oops", encoding="utf-8")
        sample = tmp_path / "sample.txt"
        sample.write_text("কনক", encoding="utf-8")
        code = main(["predict", "--model", str(broken), "--input", str(sample)])
        assert code == 1
        assert "invalid model file" in capsys.readouterr().err

    def test_model_brings_its_tables(self, tmp_path, corpora, capsys):
        # Trained with its own tables, a model labels and scores with them:
        # predict and evaluate take no preprocessing flag.
        train_path, test_path = corpora
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("# the stem of কনক\nকন\n", encoding="utf-8")
        suffixes = tmp_path / "suf.tsv"
        suffixes.write_text("ক\t2\n", encoding="utf-8")
        model_path = tmp_path / "m.json"
        assert main(["train", "--corpus", str(train_path), "--features", "tfidf",
                     "--model", "sgd", "--out", str(model_path),
                     "--stopwords", str(stopwords), "--suffixes", str(suffixes)]) == 0
        config = PreprocessConfig(load_stopwords(stopwords), load_suffix_table(suffixes))
        trained = load_model(model_path)
        assert trained.preprocess_config == config
        assert "কফ" in trained.vocabulary.terms and "কন" not in trained.vocabulary.terms

        tsv = tmp_path / "labels.tsv"
        assert main(["predict", "--model", str(model_path), "--input", str(test_path),
                     "--out", str(tsv)]) == 0
        corpus = load_jsonl(test_path)
        labels, _ = predict(trained, [preprocess_document(doc, config) for doc in corpus])
        lines = tsv.read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[1] for line in lines] == labels
        shipped = [preprocess_document(doc, default_config()) for doc in corpus]
        assert predict(trained, shipped)[0] != labels

        capsys.readouterr()
        assert main(["evaluate", "--model", str(model_path), "--corpus", str(test_path)]) == 0
        report = evaluate(trained, corpus, config)
        assert f"macro_f1={report.macro_f1:.4f} " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize(
        "flag", [["--no-stemming"], ["--no-stopwords"], ["--stopwords", "s.txt"],
                 ["--suffixes", "s.tsv"]],
        ids=["no_stemming", "no_stopwords", "stopwords", "suffixes"],
    )
    def test_preprocessing_flag_is_usage_error(self, command, flag, tmp_path, corpora, capsys):
        model_path = train_model(tmp_path, corpora)
        data = ["--input" if command == "predict" else "--corpus", str(corpora[1])]
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", str(model_path), *data, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert flag[0] not in capsys.readouterr().out


class TestEvaluate:
    def test_report_in_missing_directory_fails_before_evaluating(
        self, tmp_path, corpora, capsys
    ):
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        _assert_missing_directory_named(tmp_path, capsys, [
            "evaluate", "--model", str(model_path), "--corpus", str(corpora[1]),
        ], flag="--report")

    def test_perfect_toy_report(self, tmp_path, corpora, capsys):
        train_path, _ = corpora
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--model", str(model_path), "--corpus", str(train_path),
                     "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "macro_f1=1.0000" in out
        assert "accuracy=1.0000" in out
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["macro_f1"] == 1.0
        assert payload["method"] == "TFIDF+NB"

    @pytest.mark.parametrize("classifier", ["nb", "sgd", "svm"])
    def test_verbose_prints_fit_block_and_predict_stages(
        self, classifier, tmp_path, corpora, capsys
    ):
        train_path, test_path = corpora
        main(["train", "-v", "--corpus", str(train_path), "--features", "tfidf",
              "--model", classifier, "--out", str(tmp_path / "m.json")])
        trained_fit = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith(f"{classifier} class=")
        ]
        code = main(["evaluate", "-v", "--model", str(tmp_path / "m.json"),
                     "--corpus", str(test_path)])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        # The reloaded model prints the lines training printed, the SVM's gap
        # included.
        assert [line for line in err if line.startswith(f"{classifier} class=")] == trained_fit
        assert len(trained_fit) == (0 if classifier == "nb" else 3)
        stages = [line for line in err if line.startswith("predict ")]
        assert len(stages) == 1
        fields = dict(item.split("=", 1) for item in stages[0].split()[1:])
        assert list(fields) == ["vectorize", "score"]
        assert all(float(value) >= 0 for value in fields.values())

    def test_unseen_label_names_the_label(self, tmp_path, corpora, capsys):
        model_path = train_model(tmp_path, corpora)
        capsys.readouterr()
        stranger = tmp_path / "stranger.jsonl"
        stranger.write_text(
            '{"text": "কনক", "label": "mystery"}\n', encoding="utf-8"
        )
        code = main(["evaluate", "--model", str(model_path), "--corpus", str(stranger)])
        assert code == 1
        assert "mystery" in capsys.readouterr().err


class TestBenchmark:
    def test_prints_six_rows_and_writes_artifacts(self, tmp_path, corpora, capsys):
        train_path, test_path = corpora
        out_dir = tmp_path / "bench"
        code = main(["benchmark", "--train", str(train_path), "--test", str(test_path),
                     "--out-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("CHI-SQUARE+SGD", "TFIDF+SGD", "CHI-SQUARE+NB",
                     "TFIDF+NB", "CHI-SQUARE+SVM", "TFIDF+SVM"):
            assert name in out
        assert (out_dir / "comparison.tsv").exists()

    def test_seeded_runs_are_byte_identical(self, tmp_path, corpora):
        train_path, test_path = corpora
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            assert main(["benchmark", "--train", str(train_path), "--test", str(test_path),
                         "--out-dir", str(out_dir), "--seed", "7", "--repro"]) == 0
            outputs.append({
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            })
        assert outputs[0] == outputs[1]

    # Path("") is the current directory, which would take every output.
    @pytest.mark.parametrize("out_dir, code", [
        ("afile", errno.EEXIST), ("afile/sub", errno.ENOTDIR), ("", errno.ENOENT),
    ])
    def test_out_dir_at_or_under_a_file_fails_before_loading(
        self, tmp_path, corpora, capsys, monkeypatch, out_dir, code
    ):
        train_path, test_path = corpora
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("x", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main(["benchmark", "-v", "--train", str(train_path), "--test", str(test_path),
                     "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {code}] {os.strerror(code)}: {out_dir!r}\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    def test_unseen_test_label_is_one_error(self, tmp_path, corpora, capsys):
        train_path, test_path = corpora
        with test_path.open("a", encoding="utf-8") as handle:
            handle.write('{"text": "কনক", "label": "brand-new"}\n')
        code = main(["benchmark", "--train", str(train_path), "--test", str(test_path),
                     "--out-dir", str(tmp_path / "bench")])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown label: 'brand-new'\n"
        assert not (tmp_path / "bench").exists()

    def test_repeated_id_names_its_corpus_file(self, tmp_path, corpora, capsys):
        train_path, _ = corpora
        test_path = tmp_path / "t.jsonl"
        test_path.write_text('{"id": "a", "text": "কনক", "label": "accident"}\n' * 2,
                             encoding="utf-8")
        code = main(["benchmark", "--train", str(train_path), "--test", str(test_path),
                     "--out-dir", str(tmp_path / "bench")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {test_path}: duplicate document id: 'a'\n"
        assert not (tmp_path / "bench").exists()

    def test_partial_failure_reports_rest_and_exits_one(
        self, tmp_path, corpora, capsys, monkeypatch
    ):
        import doccat.evaluation as evaluation_module
        from doccat.errors import SingleClassError

        real = evaluation_module.train_from_tokens

        def sabotaged(docs, selector, classifier, *args, **kwargs):
            if (selector, classifier) == ("chi2", "nb"):
                raise SingleClassError("injected failure")
            return real(docs, selector, classifier, *args, **kwargs)

        monkeypatch.setattr(evaluation_module, "train_from_tokens", sabotaged)
        train_path, test_path = corpora
        code = main(["benchmark", "--train", str(train_path), "--test", str(test_path),
                     "--out-dir", str(tmp_path / "bench")])
        assert code == 1
        captured = capsys.readouterr()
        assert "CHI-SQUARE+NB" in captured.err
        assert "TFIDF+SVM" in captured.out  # the others still reported
