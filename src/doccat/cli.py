"""Command-line interface: preprocess, train, predict, evaluate, benchmark.

Exit codes: 0 success, 1 data or runtime error, 2 usage error. Successful
runs print machine-parseable lines only; diagnostics go to stderr. Each
setting has one flag: a hyperparameter flag takes its type, default and
help from its ``TrainHyperparams`` field, and ``--stopwords``/``--suffixes``
replace a shipped table (an empty file switches that step off). All
randomness flows from ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import evaluation, models
from .corpus import LabeledCorpus, LabeledDocument, load_dir, load_jsonl, read_document
from .errors import DoccatError, quoted
from .fileio import atomic_write_text, check_out_dir, check_out_path, read_text
from .models import TrainHyperparams
from .textprep import (
    PreprocessConfig,
    default_config,
    load_stopwords,
    load_suffix_table,
    preprocess_corpus,
    preprocess_document,
    tokenized_to_json,
)


def _hyper_parser(name: str, kind: type):
    """Parse one hyperparameter value and apply TrainHyperparams' check to it."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:  # float()'s message would quote all of `text`
            raise argparse.ArgumentTypeError(
                f"{quoted(text)}: not {'an integer' if kind is int else 'a number'}"
            ) from None
        try:
            TrainHyperparams(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{quoted(text)}: {exc}") from None
        return value

    return parse


def _hyper_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("hyperparameters")
    for field in fields(TrainHyperparams):
        # The field type ("int" or "float") names the value type.
        kind = int if field.type == "int" else float
        group.add_argument(f"--{field.name.replace('_', '-')}",
                           type=_hyper_parser(field.name, kind), default=field.default,
                           help=f"{field.metadata['help']} (default {field.default})")
    return parent


def _preprocess_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("preprocessing")
    group.add_argument("--stopwords", default=None, metavar="FILE",
                       help="stopword file, empty for none (default: shipped Bengali list)")
    group.add_argument("--suffixes", default=None, metavar="FILE",
                       help="suffix table file, empty for none (default: shipped Bengali table)")
    return parent


def _common_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("-v", "--verbose", action="store_true",
                        help="print diagnostics on stderr")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doccat",
        description="Supervised document categorization for Bengali text.",
    )
    common = _common_flags()
    hyper = _hyper_flags()
    prep = _preprocess_flags()
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("preprocess", parents=[common, prep],
                       help="tokenize a corpus and write tokenized JSONL")
    p.add_argument("--corpus", required=True, help="JSONL file or directory-per-category root")
    p.add_argument("--out", required=True, help="output tokenized JSONL path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common, hyper, prep],
                       help="train one (features, classifier) pipeline")
    p.add_argument("--corpus", required=True, help="labeled training corpus")
    p.add_argument("--features", required=True, choices=models.SELECTORS,
                   help="feature engineering pipeline")
    p.add_argument("--model", required=True, choices=models.CLASSIFIERS,
                   help="classifier to train")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common],
                       help="label raw documents with a trained model and its tables")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--input", required=True,
                   help="raw UTF-8 text file (one document) or JSONL with a 'text' field")
    p.add_argument("--out", default=None, help="output TSV path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score a trained model, with its tables, on a labeled corpus")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--corpus", required=True, help="labeled test corpus")
    p.add_argument("--report", default=None, help="write the full report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", parents=[common, hyper, prep],
                       help="train and evaluate all six method combinations")
    p.add_argument("--train", required=True, dest="train_corpus", help="training corpus")
    p.add_argument("--test", required=True, dest="test_corpus", help="test corpus")
    p.add_argument("--out-dir", default="benchmark_out",
                   help="directory for models, reports, and comparison.tsv")
    p.add_argument("--repro", action="store_true",
                   help="zero the timings in reports so runs with the same seed are "
                        "byte-identical (model files hold no wall-clock field)")
    p.set_defaults(func=cmd_benchmark)
    return parser


def resolve_hyper(args: argparse.Namespace) -> TrainHyperparams:
    """The hyperparameter flags' values; each flag defaults to its field's default."""
    return TrainHyperparams(**{field.name: getattr(args, field.name)
                               for field in fields(TrainHyperparams)})


def build_preprocess_config(args: argparse.Namespace) -> PreprocessConfig:
    """The shipped tables or the given files; an empty file is an empty table,
    which switches its step off. An empty path names no file, so it fails to
    read like a missing one."""
    base = default_config()
    stopwords, suffixes = args.stopwords, args.suffixes
    return PreprocessConfig(
        stopword_list=base.stopword_list if stopwords is None else load_stopwords(stopwords),
        suffix_table=base.suffix_table if suffixes is None else load_suffix_table(suffixes),
    )


def _load_corpus(path: str) -> LabeledCorpus:
    """A directory-per-category corpus, else a JSONL file."""
    if os.path.isdir(path):
        return load_dir(path)
    return load_jsonl(path)


def _check_out(args: argparse.Namespace, out_flag: str, input_flags: tuple[str, ...]) -> None:
    """`check_out_path` on the path of `out_flag`, if given, then fail when it
    names the same existing file as one of `input_flags`, which the command
    would otherwise replace with its output."""
    out = getattr(args, out_flag)
    if out is None:
        return
    check_out_path(out)
    for flag in input_flags:
        source = getattr(args, flag)
        try:
            same = source is not None and os.path.samefile(out, source)
        except OSError:  # one of the two names no existing file
            continue
        if same:
            raise ValueError(f"--{out_flag} and --{flag} name the same file {out!r}")


def _diag(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _diag_seconds(args: argparse.Namespace, name: str, seconds: dict[str, float]) -> None:
    _diag(args, f"{name} " + " ".join(f"{stage}={value:.4f}" for stage, value in seconds.items()))


def _diag_fit(args: argparse.Namespace, model: models.LinearModel) -> None:
    """One stderr line per class of the solver diagnostics a model file keeps
    (models.FIT_FIELDS), for the trainers that have any: the same lines for
    a freshly trained model and for the file it is saved to."""
    for label, info in (model.fit_info or {}).items():
        detail = " ".join(
            f"{key}={info[key]:.6e}" if kind is float else f"{key}={info[key]}"
            for key, kind in models.FIT_FIELDS[model.trainer_tag].items()
        )
        _diag(args, f"{model.trainer_tag} class={label} {detail}")


def cmd_preprocess(args: argparse.Namespace) -> int:
    _check_out(args, "out", ("corpus", "stopwords", "suffixes"))
    corpus = _load_corpus(args.corpus)
    _diag(args, f"loaded {len(corpus)} documents, {len(corpus.labels)} labels")
    config = build_preprocess_config(args)
    docs = preprocess_corpus(corpus, config)
    atomic_write_text(args.out, "\n".join(tokenized_to_json(doc) for doc in docs) + "\n")
    print(f"documents={len(docs)} tokens={sum(d.token_count for d in docs)} out={args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    _check_out(args, "out", ("corpus", "stopwords", "suffixes"))
    hyper = resolve_hyper(args)
    config = build_preprocess_config(args)
    corpus = _load_corpus(args.corpus)
    _diag(args, f"loaded {len(corpus)} documents, {len(corpus.labels)} labels")
    _diag(args, f"resolved hyperparameters: {hyper}")
    trained = models.train(corpus, args.features, args.model, hyper, config)
    _diag_seconds(args, "stage", trained.stage_seconds)
    _diag_fit(args, trained.model)
    models.save_model(trained, args.out)
    print(
        f"features={len(trained.vocabulary)} train_sec={trained.train_seconds:.4f} "
        f"model={args.out}"
    )
    return 0


def _load_predict_documents(path: str) -> tuple[LabeledDocument, ...]:
    """Prediction input: a JSONL corpus (a `.jsonl` suffix in any case), whose
    labels are not read but whose ids must differ, or one raw text file.
    The path is read as given, so an empty one fails as a missing file."""
    target = Path(path)
    if target.suffix.lower() == ".jsonl":
        return load_jsonl(path, label="-").documents
    return (read_document(path, target.name, "-"),)


def cmd_predict(args: argparse.Namespace) -> int:
    _check_out(args, "out", ("model", "input"))
    trained = models.load_model(args.model)
    config = trained.preprocess_config
    docs = _load_predict_documents(args.input)
    labels, scores = models.predict(trained, [preprocess_document(doc, config) for doc in docs])
    lines = [
        f"{doc.id}\t{label}\t{score:.6f}"
        for doc, label, score in zip(docs, labels, scores.max(axis=1).tolist())
    ]
    output = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, output)
        print(f"documents={len(lines)} out={args.out}")
    else:
        sys.stdout.write(output)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_out(args, "report", ("model", "corpus"))
    trained = models.load_model(args.model)
    corpus = _load_corpus(args.corpus)
    report = evaluation.evaluate(trained, corpus, trained.preprocess_config)
    _diag_fit(args, trained.model)
    _diag_seconds(args, "predict", report.predict_stage_seconds)
    if args.report:
        evaluation.write_report(report, args.report)
    print(
        f"macro_precision={report.macro_precision:.4f} "
        f"macro_recall={report.macro_recall:.4f} "
        f"macro_f1={report.macro_f1:.4f} "
        f"accuracy={report.accuracy:.4f}"
    )
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    check_out_dir(args.out_dir)
    hyper = resolve_hyper(args)
    config = build_preprocess_config(args)
    train_corpus = _load_corpus(args.train_corpus)
    test_corpus = _load_corpus(args.test_corpus)
    _diag(args, f"train: {len(train_corpus)} documents, test: {len(test_corpus)} documents")
    result = evaluation.benchmark(
        train_corpus,
        test_corpus,
        hyper,
        config,
        out_dir=args.out_dir,
        keep_going=True,
        repro=args.repro,
    )
    sys.stdout.write(read_text(Path(args.out_dir) / "comparison.tsv"))
    print(f"out_dir={Path(args.out_dir)}")
    for name, error in result.failures:
        print(f"error: {name} failed: {error}", file=sys.stderr)
    return 1 if result.failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DoccatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
