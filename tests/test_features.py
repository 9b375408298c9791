import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import doccat.features as features_module
import doccat.textprep as textprep_module

from doccat.corpus import LabeledCorpus, LabeledDocument
from doccat.errors import EmptyVocabularyError, quoted
from doccat.features import (
    CorpusMatrix,
    Vocabulary,
    build_feature_space,
    build_vocabulary,
    count_vector,
    idf,
    select_chi_features,
    tfidf_vector,
    vectorize_corpus,
    vectorize_document,
)
from doccat.models import TrainHyperparams, train_from_tokens
from doccat.textprep import (
    TokenTable,
    TokenizedDocument,
    default_config,
    preprocess_corpus,
    token_table,
)

from helpers import (
    chi_oracle,
    chi_scores,
    make_overlapping_corpus,
    random_tokenized_doc,
    reference_build_vocabulary,
    reference_chi_scores,
    reference_select_chi_features,
    reference_vectorize_corpus,
    row_pairs,
)


def tdoc(*sentences, label=None):
    return TokenizedDocument(sentences=tuple(tuple(s) for s in sentences), label=label)


def pairs(doc, vocab):
    """The one-row matrix of `doc` as (feature index, weight) pairs."""
    return row_pairs(vectorize_corpus([doc], vocab), 0)


class TestBuildVocabulary:
    def test_direct_count(self):
        vocab = build_vocabulary([tdoc(["ক", "খ"]), tdoc(["খ"])])
        assert vocab.terms == ("ক", "খ")
        assert vocab.doc_freq == (1, 2)
        assert vocab.n_docs == 2

    def test_all_empty_docs(self):
        with pytest.raises(EmptyVocabularyError, match="all documents empty"):
            build_vocabulary([tdoc(), tdoc([], [])])

    def test_no_docs(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_deterministic_indices(self):
        docs = [tdoc(["গ", "ক"]), tdoc(["খ", "ক"])]
        assert build_vocabulary(docs).terms == build_vocabulary(list(docs)).terms

    def test_invariants_enforced(self):
        cases = [
            ((("ক", "ক"), (1, 1), 1), "ascending order"),  # a repeated term
            ((("খ", "ক"), (1, 1), 1), "ascending order"),  # unsorted terms
            ((("ক", "খ"), (1,), 1), "doc_freq holds 1 values for 2 terms"),
            ((("ক", "খ"), (1, 1, 1), 1), "doc_freq holds 3 values for 2 terms"),
            ((("ক", "খ"), (1, 5), 2), r"'খ': DF 5 outside \[1, 2\]"),
            ((("ক", "খ"), (0, 1), 2), r"'ক': DF 0 outside \[1, 2\]"),
            ((("ক",), (1,), 2**53 + 1), r"^n_docs exceeds 2\*\*53, the largest count"),
            (((), (), -5), "at least one term"),
        ]
        for (terms, doc_freq, n_docs), message in cases:
            with pytest.raises(ValueError, match=message):
                Vocabulary(terms=terms, doc_freq=doc_freq, n_docs=n_docs, selector="tfidf")

    # "counts" is how the chi-square space weights its terms, not its name.
    @pytest.mark.parametrize(
        "selector", ["counts", "binary", pytest.param("x" * 10_000, id="long")]
    )
    def test_unknown_selector_fails_as_in_training(self, selector):
        docs = [tdoc(["ক"], label="a"), tdoc(["খ"], label="b")]
        with pytest.raises(ValueError) as caught:
            Vocabulary(terms=("ক", "খ"), doc_freq=(1, 1), n_docs=2, selector=selector)
        with pytest.raises(ValueError) as in_training:
            train_from_tokens(docs, selector, "nb", TrainHyperparams(), default_config())
        message = str(caught.value)
        assert message == str(in_training.value)
        assert message == (
            f"unknown selector: {quoted(selector)} (expected one of ('tfidf', 'chi2'))"
        )
        assert len(message) < 200

    def test_index_is_the_position_of_each_term(self):
        rng = np.random.default_rng(3)
        vocab = build_vocabulary([random_tokenized_doc(rng) for _ in range(20)])
        assert len(vocab.index) == len(vocab) > 1
        for position, term in enumerate(vocab.terms):
            assert vocab.index[term] == position
            assert term in vocab.index
        assert "" not in vocab.index and "টার্ম-নয়" not in vocab.index


class TestIdf:
    def test_paper_prose_scenario(self):
        # a term in 10 of 15 documents
        assert idf(15, 10) == pytest.approx(1.3746934494414107, abs=1e-15)

    def test_ubiquitous_term_floor(self):
        assert idf(15, 15) == 1.0
        assert idf(1, 1) == 1.0
        assert idf(10**6, 10**6) == 1.0

    def test_rare_term(self):
        assert idf(3, 1) == pytest.approx(1.6931471805599454, abs=1e-15)

    @pytest.mark.parametrize("n,df", [(10, 0), (10, 11), (5, -1)])
    def test_domain_errors(self, n, df):
        with pytest.raises(ValueError):
            idf(n, df)

    @given(st.integers(min_value=2, max_value=10**6), st.data())
    def test_strictly_decreasing_in_df(self, n, data):
        df = data.draw(st.integers(min_value=1, max_value=n - 1))
        assert idf(n, df) > idf(n, df + 1)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_floor_is_exactly_one(self, n):
        assert idf(n, n) == 1.0


class TestCorpusMatrix:
    @staticmethod
    def build(indptr, indices, values, n_features=8):
        return CorpusMatrix(indptr, indices, values, n_features)

    # The second input falls inside a later row, not the first.
    @pytest.mark.parametrize("indptr, indices", [([0, 2], [2, 1]), ([0, 2, 4], [0, 3, 5, 4])])
    def test_ascending_required_within_a_row(self, indptr, indices):
        with pytest.raises(ValueError, match="ascending"):
            self.build(indptr, indices, [1.0] * len(indices))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            self.build([0, 2], [1, 1], [1.0, 2.0])

    def test_rows_restart_their_index_order(self):
        X = self.build([0, 2, 2, 4], [3, 5, 0, 1], [1.0, 2.0, 3.0, 4.0])
        assert X.shape == (3, 8)
        assert row_pairs(X, 1) == [] and row_pairs(X, 2) == [(0, 3.0), (1, 4.0)]

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            self.build([0, 1], [0], [0.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            self.build([0, 2], [-1, 0], [1.0, 1.0])

    def test_index_beyond_the_feature_count_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            self.build([0, 2], [0, 8], [1.0, 1.0])

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            self.build([0, 2], [0, 1], [1.0, weight])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equally long"):
            self.build([0, 2], [0, 1], [1.0])

    @pytest.mark.parametrize("indptr", [[1, 2], [0, 1], [0, 3], []])
    def test_indptr_must_run_from_zero_to_nnz(self, indptr):
        with pytest.raises(ValueError, match="indptr"):
            self.build(indptr, [0, 1], [1.0, 1.0])

    @pytest.mark.parametrize(
        "indptr, indices",
        [
            ([0, 1], [2.9]),
            ([0.0, 1.5], [0]),
            ([0, 1], np.array([True])),
            (np.array([False, True]), [0]),
        ],
        ids=["float_indices", "float_indptr", "bool_indices", "bool_indptr"],
    )
    def test_non_integer_positions_rejected(self, indptr, indices):
        with pytest.raises(ValueError, match="must hold integers"):
            self.build(indptr, indices, [1.0])

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError, match="decrease"):
            self.build([0, 2, 1, 2], [0, 1], [1.0, 1.0])

    def test_feature_count_must_be_positive(self):
        with pytest.raises(ValueError, match="n_features"):
            self.build([0], [], [], n_features=0)

    def test_stores_read_only_intp_indices_and_float64_values(self):
        X = self.build([0, 0, 2], [0, 4], [3, 4])
        assert X.indptr.dtype == np.intp and X.indices.dtype == np.intp
        assert X.values.dtype == np.float64
        assert X.shape == (2, 8)
        assert not (X.indptr.flags.writeable or X.indices.flags.writeable
                    or X.values.flags.writeable)
        assert self.build([0], [], []).shape == (0, 8)


class TestCountVector:
    def test_counting(self):
        vocab = select_chi_features([tdoc(["ক", "ক", "খ"])], 100.0)
        assert pairs(tdoc(["ক", "ক", "খ"]), vocab) == [(0, 2.0), (1, 1.0)]

    def test_oov_ignored(self):
        vocab = select_chi_features([tdoc(["ক"])], 100.0)
        assert pairs(tdoc(["ঘ", "ঙ"]), vocab) == []

    def test_empty_doc(self):
        vocab = select_chi_features([tdoc(["ক"])], 100.0)
        assert pairs(tdoc(), vocab) == []


class TestTfidfVector:
    def test_weighting_then_normalization(self):
        # vocab over two docs: DF(ক)=1, DF(খ)=2, N=2
        vocab = build_vocabulary([tdoc(["ক", "খ"]), tdoc(["খ"])])
        weights = dict(pairs(tdoc(["ক", "ক", "খ"]), vocab))
        assert weights[0] == pytest.approx(0.9421556246632359, abs=1e-12)
        assert weights[1] == pytest.approx(0.33517574332792605, abs=1e-12)
        assert np.linalg.norm(list(weights.values())) == pytest.approx(1.0, abs=1e-9)

    def test_single_token_normalizes_to_one(self):
        vocab = build_vocabulary([tdoc(["ক", "খ"]), tdoc(["খ"])])
        assert pairs(tdoc(["ক", "ক", "ক"]), vocab) == [(0, 1.0)]

    def test_empty_doc(self):
        vocab = build_vocabulary([tdoc(["ক"])])
        assert pairs(tdoc(), vocab) == []

    def test_unit_norm_property(self):
        rng = np.random.default_rng(4)
        docs = [random_tokenized_doc(rng) for _ in range(60)]
        vocab = build_vocabulary(docs)
        X = vectorize_corpus(docs, vocab)
        for row in range(X.shape[0]):
            weights = [weight for _, weight in row_pairs(X, row)]
            if weights:
                assert abs(np.linalg.norm(weights) - 1.0) < 1e-9

    def test_token_order_does_not_change_the_row(self):
        rng = np.random.default_rng(21)
        docs = [random_tokenized_doc(rng, max_sentences=8) for _ in range(30)]
        vocab = build_vocabulary(docs)
        for doc in docs:
            tokens = list(doc.tokens())
            rng.shuffle(tokens)
            shuffled = tdoc(tokens)
            # The norm is summed correctly rounded, so in any order.
            assert (
                vectorize_corpus([shuffled], vocab).values.tobytes()
                == vectorize_corpus([doc], vocab).values.tobytes()
            )
            assert (
                tfidf_vector(shuffled, vocab)[1].tobytes()
                == tfidf_vector(doc, vocab)[1].tobytes()
            )

    def test_equals_the_idf_formula_exactly(self):
        rng = np.random.default_rng(12)
        docs = [random_tokenized_doc(rng) for _ in range(40)]
        vocab = build_vocabulary(docs[:30])
        for index, df in enumerate(vocab.doc_freq):
            assert vocab.idf_weights[index] == idf(vocab.n_docs, df)
        position = {term: index for index, term in enumerate(vocab.terms)}
        for doc in docs:
            counts = {}
            for token in doc.tokens():
                if token in position:
                    counts[token] = counts.get(token, 0) + 1
            weighted = {
                position[term]: count * idf(vocab.n_docs, vocab.doc_freq[position[term]])
                for term, count in counts.items()
            }
            norm = math.sqrt(math.fsum(weight * weight for weight in weighted.values()))
            expected = sorted((index, weight / norm) for index, weight in weighted.items())
            assert pairs(doc, vocab) == expected


class TestChiScore:
    def test_two_sentence_example(self):
        scores = chi_scores(tdoc(["ক", "খ"], ["ক", "গ"]))
        assert scores["ক"] == 0.0
        assert scores["খ"] == pytest.approx(0.5, abs=1e-12)
        assert scores["গ"] == pytest.approx(0.5, abs=1e-12)

    def test_single_term_scores_zero(self):
        assert chi_scores(tdoc(["ক"])) == {"ক": 0.0}

    def test_empty_document(self):
        assert chi_scores(tdoc()) == {}

    def test_uniform_cooccurrence_is_exactly_zero(self):
        scores = chi_scores(tdoc(["ক", "খ"], ["ক", "খ"]))
        assert scores == {"ক": 0.0, "খ": 0.0}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            doc = random_tokenized_doc(rng)
            expected = chi_oracle([list(s) for s in doc.sentences])
            actual = chi_scores(doc)
            assert set(actual) == set(expected)
            for term, score in actual.items():
                assert score == pytest.approx(expected[term], abs=1e-9)
                assert score >= 0.0 and math.isfinite(score)

    def test_invariant_under_sentence_reordering(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            doc = random_tokenized_doc(rng)
            reversed_doc = TokenizedDocument(sentences=doc.sentences[::-1])
            assert chi_scores(doc) == pytest.approx(chi_scores(reversed_doc))

    def test_every_term_is_a_partner(self):
        # ক's score sums over all three other terms: খ gives 1/15, গ 1/30 and
        # ঘ, the rarest and never beside ক, 5/6.
        scores = chi_scores(tdoc(["ক", "খ", "গ"], ["ক", "খ"], ["ঘ"]))
        assert scores["ক"] == pytest.approx(1 / 15 + 1 / 30 + 5 / 6, abs=1e-12)


def batched_chi_rows(docs):
    """The batched scores of `docs` as a Counter of (terms, score bytes), one
    entry per non-empty document, and each chunk's document widths."""
    table = token_table(docs)
    terms = table.terms
    rows, chunk_widths = Counter(), []
    for ids, n_terms, scores in features_module._chi_chunks(table):
        chunk_widths.append(n_terms.tolist())
        for row, n in enumerate(n_terms.tolist()):
            row_terms = tuple(terms[index] for index in ids[row, :n].tolist())
            rows[row_terms, scores[row, :n].tobytes()] += 1
    return rows, chunk_widths


def reference_chi_rows(docs):
    """`batched_chi_rows` from `reference_chi_scores`, one document at a time."""
    rows = Counter()
    for doc in docs:
        terms, scores = reference_chi_scores(doc)
        if terms:
            rows[tuple(terms), scores.tobytes()] += 1
    return rows


EDGE_DOCS = [
    tdoc(),  # no sentences
    tdoc([], []),  # empty sentences only
    tdoc(["ক"]),  # one term
    tdoc(["ক", "ক"], ["ক"]),  # one term, repeated
    tdoc(["ক", "খ", "ক", "ক"], ["খ", "গ"]),  # a token repeated within a sentence
    tdoc(["গ", "খ"], [], ["ক", "খ", "খ"]),  # an empty sentence between others
    tdoc(["ঘ", "ঙ", "চ", "ছ", "জ", "ঝ", "ঞ", "ট"], ["ঘ"]),
]

documents_strategy = st.lists(
    st.lists(
        st.lists(st.sampled_from(["ক", "খ", "গ", "ঘ", "ঙ", "চ", "ছ", "জ", "ঝ"]), max_size=8),
        max_size=5,
    ).map(lambda sentences: TokenizedDocument(sentences=tuple(map(tuple, sentences)))),
    min_size=1,
    max_size=12,
)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # padding must not divide 0 by 0
class TestBatchedChiScores:
    """The chunked scorer against the per-document `reference_chi_scores`,
    compared bit for bit (`tobytes()`)."""

    @pytest.mark.parametrize("cells", [None, 1, 2000])
    def test_synthetic_corpora_match_the_reference(
        self, cells, synth_train_tokens, default_cfg, monkeypatch
    ):
        overlapping = preprocess_corpus(make_overlapping_corpus(5, seed=1), default_cfg)
        if cells is not None:  # 1: one document per chunk; 2000: mixed widths
            monkeypatch.setattr(features_module, "_CHI_CHUNK_CELLS", cells)
        for docs in (synth_train_tokens, overlapping, EDGE_DOCS):
            rows, chunk_widths = batched_chi_rows(docs)
            assert rows == reference_chi_rows(docs)
            assert sum(map(len, chunk_widths)) == sum(1 for doc in docs if doc.token_count)
            if cells == 1:
                assert all(len(widths) == 1 for widths in chunk_widths)
            if cells == 2000 and docs is overlapping:
                assert len(chunk_widths) > 1
                assert any(min(widths) < max(widths) for widths in chunk_widths)

    @given(docs=documents_strategy, cells=st.integers(1, 3000))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_documents_match_the_reference(self, docs, cells, monkeypatch):
        monkeypatch.setattr(features_module, "_CHI_CHUNK_CELLS", cells)
        assert batched_chi_rows(docs)[0] == reference_chi_rows(docs)
        if any(doc.token_count for doc in docs):
            for top_percent in (30.0, 100.0):
                assert select_chi_features(docs, top_percent) == (
                    reference_select_chi_features(docs, top_percent)
                )
        else:
            with pytest.raises(EmptyVocabularyError):
                select_chi_features(docs, 30.0)

    @pytest.mark.parametrize("top_percent", [1.0, 30.0, 100.0])
    def test_selection_matches_the_reference(
        self, top_percent, synth_train_tokens, default_cfg, monkeypatch
    ):
        overlapping = preprocess_corpus(make_overlapping_corpus(5, seed=1), default_cfg)
        monkeypatch.setattr(features_module, "_CHI_CHUNK_CELLS", 2000)
        for docs in (synth_train_tokens, overlapping, EDGE_DOCS):
            assert select_chi_features(docs, top_percent) == (
                reference_select_chi_features(docs, top_percent)
            )

    def test_all_empty_corpus_rejected_with_a_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(features_module, "_CHI_CHUNK_CELLS", 1)
        with pytest.raises(EmptyVocabularyError):
            select_chi_features([tdoc(), tdoc([], [])], top_percent=30.0)

    def test_document_order_does_not_matter(self, monkeypatch):
        rng = np.random.default_rng(31)
        docs = [random_tokenized_doc(rng, max_terms=6) for _ in range(60)] + EDGE_DOCS
        monkeypatch.setattr(features_module, "_CHI_CHUNK_CELLS", 500)
        expected = select_chi_features(docs, 30.0)
        for _ in range(5):
            permuted = [docs[index] for index in rng.permutation(len(docs)).tolist()]
            vocab = select_chi_features(permuted, 30.0)
            assert vocab == expected
            assert list(vocab.terms) == list(expected.terms)


class TestSelectChiFeatures:
    def test_full_keep_equals_build_vocabulary(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            docs = [random_tokenized_doc(rng) for _ in range(int(rng.integers(1, 8)))]
            selected = select_chi_features(docs, top_percent=100.0)
            baseline = build_vocabulary(docs)
            assert selected.terms == baseline.terms
            assert selected.doc_freq == baseline.doc_freq
            assert selected.n_docs == baseline.n_docs
            # The same terms, in another feature space.
            assert (selected.selector, baseline.selector) == ("chi2", "tfidf")

    def test_ranks_by_score_then_term(self):
        # the per-document ranking is sorted((-score, term)) over the reference scores
        rng = np.random.default_rng(8)
        for top_percent in (10.0, 30.0, 55.0):
            docs = [random_tokenized_doc(rng) for _ in range(25)]
            expected: set[str] = set()
            for doc in docs:
                terms, scores = reference_chi_scores(doc)
                table = dict(zip(terms, scores.tolist()))
                ranked = sorted(table, key=lambda term: (-table[term], term))
                expected.update(ranked[: math.ceil(top_percent * len(table) / 100.0)])
            vocab = select_chi_features(docs, top_percent)
            assert vocab.terms == tuple(sorted(expected))
            for term, df in zip(vocab.terms, vocab.doc_freq):
                assert df == sum(term in set(d.tokens()) for d in docs)

    def test_keep_count_is_ceil(self):
        # one doc, 10 distinct terms, 30% -> exactly 3 kept
        terms = [f"টার্ম{c}" for c in "০১২৩৪৫৬৭৮৯"]
        doc = tdoc(terms)
        vocab = select_chi_features([doc], top_percent=30.0)
        assert len(vocab) == 3

    def test_union_of_disjoint_keeps(self):
        doc_a = tdoc(["ক", "খ", "গ"])
        doc_b = tdoc(["ঘ", "ঙ"])
        vocab = select_chi_features([doc_a, doc_b], top_percent=100.0)
        assert len(vocab) == 5

    def test_all_empty_docs(self):
        with pytest.raises(EmptyVocabularyError):
            select_chi_features([tdoc(), tdoc()], top_percent=30.0)

    def test_bad_percent(self):
        with pytest.raises(ValueError):
            select_chi_features([tdoc(["ক"])], top_percent=0.0)
        with pytest.raises(ValueError):
            select_chi_features([tdoc(["ক"])], top_percent=100.5)

    @pytest.mark.parametrize("top_percent", [0.0, -1.0, 100.5, math.nan])
    def test_bad_percent_rejected_before_scoring(self, top_percent):
        # even when no document has a term to score
        with pytest.raises(ValueError, match="^chi_top_percent must be in"):
            select_chi_features([tdoc()], top_percent=top_percent)

    def test_df_counted_over_all_docs(self):
        # খ survives selection only in doc_a's ranking but DF spans both docs
        doc_a = tdoc(["ক", "খ"])
        doc_b = tdoc(["খ"])
        vocab = select_chi_features([doc_a, doc_b], top_percent=100.0)
        assert dict(zip(vocab.terms, vocab.doc_freq))["খ"] == 2
        assert vocab.n_docs == 2

    def test_vocabulary_does_not_depend_on_the_hash_seed(self):
        # Near-tied chi scores rank by their float sums, so those sums must
        # not follow the iteration order of hashed strings.
        tests_dir = Path(__file__).resolve().parent
        script = (
            "import json\n"
            "from doccat.features import select_chi_features\n"
            "from doccat.textprep import default_config, preprocess_corpus\n"
            "from helpers import make_overlapping_corpus\n"
            "docs = preprocess_corpus(make_overlapping_corpus(5, 1), default_config())\n"
            "print(json.dumps(sorted(select_chi_features(docs, 30.0).terms)))\n"
        )
        path = os.pathsep.join(
            [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")]
        )
        vocabularies = [
            json.loads(subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout)
            for hash_seed in ("1", "2")
        ]
        assert vocabularies[0] == vocabularies[1]


class TestBuildFeatureSpace:
    def test_each_selector_builds_its_space(self):
        rng = np.random.default_rng(29)
        docs = [random_tokenized_doc(rng) for _ in range(20)]
        assert build_feature_space(docs, "tfidf", 30.0) == build_vocabulary(docs)
        assert build_feature_space(docs, "chi2", 30.0) == select_chi_features(docs, 30.0)
        assert build_feature_space(docs, "chi2", 60.0) == select_chi_features(docs, 60.0)

    def test_unknown_selector_fails_before_the_documents_are_read(self):
        def unreadable():
            raise AssertionError("the documents were read")
            yield

        with pytest.raises(ValueError, match="^unknown selector: 'counts'"):
            build_feature_space(unreadable(), "counts", 30.0)


class TestVectorizeCorpus:
    def test_order_preserved(self):
        docs = [tdoc(["ক"]), tdoc(["খ"]), tdoc(["ক", "খ"])]
        vocab = select_chi_features(docs, 100.0)
        X = vectorize_corpus(docs, vocab)
        assert X.shape == (3, 2)
        assert row_pairs(X, 0) == [(0, 1.0)]
        assert row_pairs(X, 2) == [(0, 1.0), (1, 1.0)]

    def test_counts_are_positive_integers(self):
        rng = np.random.default_rng(11)
        docs = [random_tokenized_doc(rng) for _ in range(20)]
        vocab = select_chi_features(docs, 100.0)
        for weight in vectorize_corpus(docs, vocab).values.tolist():
            assert weight > 0 and weight.is_integer()

    @pytest.mark.parametrize("selector", ["tfidf", "chi2"])
    def test_each_row_equals_its_document_alone(self, selector, monkeypatch):
        cap = 12
        monkeypatch.setattr(features_module, "_VECTORIZE_CHUNK_TOKENS", cap)
        rng = np.random.default_rng(13)
        docs = [random_tokenized_doc(rng, max_terms=6) for _ in range(40)]
        # Later documents carry unseen terms.
        vocab = replace(build_vocabulary(docs[:20]), selector=selector)
        docs[5] = docs[17] = tdoc()
        docs[30] = tdoc(["ঞ", "ঞ"])  # only out-of-vocabulary tokens
        sizes = [doc.token_count for doc in docs]
        assert max(sizes) > cap  # a chunk of its own
        assert sum(sizes) > 3 * cap  # several chunks
        assert any(a + b <= cap for a, b in zip(sizes, sizes[1:]))  # a chunk of two
        X = vectorize_corpus(docs, vocab)
        assert X.shape == (len(docs), len(vocab))
        for row, doc in enumerate(docs):
            indices, values = vectorize_document(doc, vocab)
            start, end = X.indptr[row], X.indptr[row + 1]
            assert X.indices[start:end].tobytes() == indices.tobytes()
            assert X.values[start:end].tobytes() == values.tobytes()
        assert row_pairs(X, 5) == row_pairs(X, 30) == []

    @pytest.mark.parametrize("vector", [count_vector, tfidf_vector])
    def test_each_vector_is_a_row_in_ascending_feature_order(self, vector):
        rng = np.random.default_rng(17)
        docs = [random_tokenized_doc(rng) for _ in range(30)]
        vocab = build_vocabulary(docs[:15])
        # First occurrence out of feature order, nothing, only out-of-vocabulary.
        docs += [tdoc(list(reversed(vocab.terms))), tdoc(), tdoc(["ঞ", "ঞ"])]
        for doc in docs:
            indices, values = vector(doc, vocab)
            assert indices.dtype == np.intp and values.dtype == np.float64
            assert indices.shape == values.shape
            assert np.all(indices[1:] > indices[:-1])
            CorpusMatrix([0, indices.size], indices, values, len(vocab))  # a valid row
        assert vector(docs[-3], vocab)[0].tolist() == list(range(len(vocab)))
        assert vector(docs[-2], vocab)[0].size == vector(docs[-1], vocab)[0].size == 0

    def test_zero_documents_give_zero_rows(self):
        vocab = build_vocabulary([tdoc(["ক"])])
        assert vectorize_corpus([], vocab).shape == (0, 1)


# Words for raw test corpora: terms the shipped stemmer leaves alone, a
# stopword and a token of strip symbols only (so some documents preprocess
# to nothing), and terms that only test documents use.
TRAIN_WORDS = ["কনক", "খপখ", "গবগ", "তনক", "থমচ", "দফছ", "তিনি", "১২৩"]
TEST_ONLY_WORDS = ["ঞনঞ", "টমট"]


def raw_corpus(texts: list[str], prefix: str) -> LabeledCorpus:
    return LabeledCorpus(documents=tuple(
        LabeledDocument(id=f"{prefix}{index}", text=text, label="x")
        for index, text in enumerate(texts)
    ))


def text_strategy(words):
    sentence = st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join)
    return st.lists(sentence, min_size=1, max_size=4).map("। ".join)


def matrix_bytes(X: CorpusMatrix) -> tuple:
    return X.indptr.tobytes(), X.indices.tobytes(), X.values.tobytes(), X.n_features


def feature_outputs(vocabulary, select, vectorize, train, test):
    """The TF-IDF vocabulary (`vocabulary`) and the chi-square vocabularies
    (`select`) at 5, 30 and 100% of `train`, and each one's matrices
    (`vectorize`) of `train` and `test`, as bytes."""
    vocabs = [vocabulary(train)] + [select(train, top_percent) for top_percent in (5.0, 30.0, 100.0)]
    return vocabs, [
        matrix_bytes(vectorize(docs, vocab)) for vocab in vocabs for docs in (train, test)
    ]


def assert_builders_agree(train, test):
    """The feature builders give the same bits on plain lists of documents,
    on the lists' token tables and through the string oracles."""
    assert type(train) is type(test) is list
    builders = (build_vocabulary, select_chi_features, vectorize_corpus)
    tables = token_table(train), token_table(test)
    if not any(doc.token_count for doc in train):
        for docs in (train, tables[0]):
            with pytest.raises(EmptyVocabularyError):
                build_vocabulary(docs)
            with pytest.raises(EmptyVocabularyError):
                select_chi_features(docs, 30.0)
        return
    expected = feature_outputs(
        reference_build_vocabulary, reference_select_chi_features, reference_vectorize_corpus,
        train, test,
    )
    assert feature_outputs(*builders, train, test) == expected
    assert feature_outputs(*builders, *tables) == expected


class TestTokenTableBuilders:
    """`build_vocabulary`, `select_chi_features` and `vectorize_corpus` read
    every corpus through its token table; the results must not depend on
    whether a builder is passed the table or a list of the documents."""

    def test_edge_documents(self, default_cfg, monkeypatch):
        cap, cells = 10, 40
        monkeypatch.setattr(features_module, "_VECTORIZE_CHUNK_TOKENS", cap)
        monkeypatch.setattr(features_module, "_CHI_CHUNK_CELLS", cells)
        monkeypatch.setattr(textprep_module, "_RENUMBER_TOKENS", 7)
        train = preprocess_corpus(raw_corpus([
            "কনক খপখ। গবগ কনক",
            "তিনি ১২৩",  # preprocesses to an empty document
            " ".join(["কনক", "খপখ", "তনক", "থমচ"] * 4) + "। দফছ কনক",  # longer than cap
            "খপখ গবগ। তনক",
            "১২৩।",
        ], "train"), default_cfg)
        test = preprocess_corpus(raw_corpus([
            "ঞনঞ টমট। ঞনঞ",  # all out of vocabulary
            "তিনি",
            "কনক ঞনঞ " * 8,
            "গবগ",
        ], "test"), default_cfg)
        sizes = [doc.token_count for doc in train] + [doc.token_count for doc in test]
        assert 0 in sizes and max(sizes) > cap
        assert max(sizes) ** 2 > cells  # a chi-square chunk of one document
        assert_builders_agree(train, test)

    @given(
        train_texts=st.lists(text_strategy(TRAIN_WORDS), min_size=1, max_size=10),
        test_texts=st.lists(text_strategy(TRAIN_WORDS + TEST_ONLY_WORDS), max_size=6),
        cap=st.integers(1, 40),
        cells=st.integers(1, 3000),
    )
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_corpora(self, train_texts, test_texts, cap, cells, default_cfg, monkeypatch):
        monkeypatch.setattr(features_module, "_VECTORIZE_CHUNK_TOKENS", cap)
        monkeypatch.setattr(features_module, "_CHI_CHUNK_CELLS", cells)
        assert_builders_agree(
            preprocess_corpus(raw_corpus(train_texts, "train"), default_cfg),
            preprocess_corpus(raw_corpus(test_texts, "test"), default_cfg),
        )


def test_doc_freq_with_keys_wider_than_int32():
    """`_doc_freq` keys each token by document x terms + id, in int32 only
    while that fits. 65,536 documents x 32,769 terms do not, so a count in
    int32 would wrap the last documents' keys."""
    n_docs, n_terms = 1 << 16, (1 << 15) + 1
    tokens = {n_docs - 3: [0, n_terms - 1, 0], n_docs - 2: [n_terms - 1], n_docs - 1: [5, 5]}
    sizes = np.zeros(n_docs, dtype=np.intp)
    sizes[list(tokens)] = [len(ids) for ids in tokens.values()]
    table = TokenTable(
        terms=tuple(f"t{i:05d}" for i in range(n_terms)),
        ids=np.array([i for ids in tokens.values() for i in ids], dtype=np.int32),
        sentence_lengths=sizes[sizes > 0].astype(np.int32),
        sentence_offsets=np.concatenate(([0], np.cumsum(sizes > 0))),
        token_offsets=np.concatenate(([0], np.cumsum(sizes))),
        labels=(None,) * n_docs,
        doc_ids=(None,) * n_docs,
    )
    expected = [0] * n_terms
    expected[0], expected[5], expected[n_terms - 1] = 1, 1, 2
    assert features_module._doc_freq(table).tolist() == expected
