"""Supervised document categorization toolkit for Bengali text.

Pipeline: corpus loading -> preprocessing -> feature engineering (TF-IDF or
chi-square selection) -> classifier training (NB, SGD, SVM) -> evaluation.
Vectorization turns a corpus into one CSR CorpusMatrix, which the trainers
fit and the scoring reads as it is; a single document is scored from its
feature row directly.
"""

from .corpus import LabeledCorpus, LabeledDocument, load_dir, load_jsonl
from .errors import DoccatError
from .evaluation import (
    BenchmarkResult,
    ConfusionMatrix,
    EvaluationReport,
    benchmark,
    confusion_matrix,
    evaluate,
    metrics_from_matrix,
)
from .features import (
    CorpusMatrix,
    Vocabulary,
    build_vocabulary,
    count_vector,
    idf,
    select_chi_features,
    tfidf_vector,
    vectorize_corpus,
)
from .models import (
    LinearModel,
    TrainedModel,
    TrainHyperparams,
    load_model,
    predict,
    predict_linear,
    save_model,
    train,
    train_nb,
    train_sgd,
    train_svm,
)
from .textprep import (
    PreprocessConfig,
    TokenizedCorpus,
    TokenizedDocument,
    default_config,
    preprocess_corpus,
    preprocess_document,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "ConfusionMatrix",
    "CorpusMatrix",
    "DoccatError",
    "EvaluationReport",
    "LabeledCorpus",
    "LabeledDocument",
    "LinearModel",
    "PreprocessConfig",
    "TokenizedCorpus",
    "TokenizedDocument",
    "TrainHyperparams",
    "TrainedModel",
    "Vocabulary",
    "benchmark",
    "build_vocabulary",
    "confusion_matrix",
    "count_vector",
    "default_config",
    "evaluate",
    "idf",
    "load_dir",
    "load_jsonl",
    "load_model",
    "metrics_from_matrix",
    "predict",
    "predict_linear",
    "preprocess_corpus",
    "preprocess_document",
    "save_model",
    "select_chi_features",
    "tfidf_vector",
    "train",
    "train_nb",
    "train_sgd",
    "train_svm",
    "vectorize_corpus",
    "__version__",
]
