import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from doccat.errors import EmptyVocabularyError
from doccat.features import (
    SparseVector,
    Vocabulary,
    build_vocabulary,
    chi_score_document,
    count_vector,
    idf,
    select_chi_features,
    tfidf_vector,
    vectorize_corpus,
)
from doccat.textprep import TokenizedDocument

from helpers import chi_oracle, random_tokenized_doc


def tdoc(*sentences, label=None):
    return TokenizedDocument(sentences=tuple(tuple(s) for s in sentences), label=label)


def pairs(vector):
    return list(zip(vector.indices.tolist(), vector.values.tolist()))


class TestBuildVocabulary:
    def test_direct_count(self):
        vocab = build_vocabulary([tdoc(["ক", "খ"]), tdoc(["খ"])])
        assert vocab.terms == {"ক": 0, "খ": 1}
        assert vocab.doc_freq == {"ক": 1, "খ": 2}
        assert vocab.n_docs == 2

    def test_min_df_filter(self):
        vocab = build_vocabulary([tdoc(["ক", "খ"]), tdoc(["খ"])], min_df=2)
        assert vocab.terms == {"খ": 0}

    def test_min_df_too_high(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([tdoc(["ক", "খ"]), tdoc(["খ"])], min_df=3)

    def test_no_docs(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_deterministic_indices(self):
        docs = [tdoc(["গ", "ক"]), tdoc(["খ", "ক"])]
        assert build_vocabulary(docs).terms == build_vocabulary(list(docs)).terms

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Vocabulary(terms={"ক": 0, "খ": 2}, doc_freq={"ক": 1, "খ": 1}, n_docs=1)
        with pytest.raises(ValueError):
            Vocabulary(terms={"ক": 0}, doc_freq={"ক": 5}, n_docs=2)


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


class TestSparseVector:
    def test_ascending_required(self):
        with pytest.raises(ValueError):
            SparseVector([2, 1], [1.0, 1.0])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([1, 1], [1.0, 2.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([0], [0.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([-1, 0], [1.0, 1.0])

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError):
            SparseVector([0, 1], [1.0, weight])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([0, 1], [1.0])

    def test_stores_intp_indices_and_float64_values(self):
        vector = SparseVector([0, 4], [3, 4])
        assert vector.indices.dtype == np.intp
        assert vector.values.dtype == np.float64
        assert len(vector) == 2 and vector.max_index() == 4
        assert len(SparseVector([], [])) == 0 and SparseVector([], []).max_index() == -1


class TestCountVector:
    def test_counting(self):
        vocab = build_vocabulary([tdoc(["ক", "ক", "খ"])])
        vec = count_vector(tdoc(["ক", "ক", "খ"]), vocab)
        assert pairs(vec) == [(0, 2.0), (1, 1.0)]

    def test_oov_ignored(self):
        vocab = build_vocabulary([tdoc(["ক"])])
        assert pairs(count_vector(tdoc(["ঘ", "ঙ"]), vocab)) == []

    def test_empty_doc(self):
        vocab = build_vocabulary([tdoc(["ক"])])
        assert pairs(count_vector(tdoc(), vocab)) == []


class TestTfidfVector:
    def test_weighting_then_normalization(self):
        # vocab over two docs: DF(ক)=1, DF(খ)=2, N=2
        vocab = build_vocabulary([tdoc(["ক", "খ"]), tdoc(["খ"])])
        vec = tfidf_vector(tdoc(["ক", "ক", "খ"]), vocab)
        weights = dict(pairs(vec))
        assert weights[0] == pytest.approx(0.9421556246632359, abs=1e-12)
        assert weights[1] == pytest.approx(0.33517574332792605, abs=1e-12)
        assert np.linalg.norm(vec.values) == pytest.approx(1.0, abs=1e-9)

    def test_single_token_normalizes_to_one(self):
        vocab = build_vocabulary([tdoc(["ক", "খ"]), tdoc(["খ"])])
        vec = tfidf_vector(tdoc(["ক", "ক", "ক"]), vocab)
        assert pairs(vec) == [(0, 1.0)]

    def test_empty_doc(self):
        vocab = build_vocabulary([tdoc(["ক"])])
        assert pairs(tfidf_vector(tdoc(), vocab)) == []

    def test_unit_norm_property(self):
        rng = np.random.default_rng(4)
        docs = [random_tokenized_doc(rng) for _ in range(60)]
        vocab = build_vocabulary(docs)
        for vec in vectorize_corpus(docs, vocab, "tfidf"):
            if len(vec):
                assert abs(np.linalg.norm(vec.values) - 1.0) < 1e-9

    def test_equals_the_idf_formula_exactly(self):
        rng = np.random.default_rng(12)
        docs = [random_tokenized_doc(rng) for _ in range(40)]
        vocab = build_vocabulary(docs[:30])
        for term, index in vocab.terms.items():
            assert vocab.idf_weights[index] == idf(vocab.n_docs, vocab.doc_freq[term])
        for doc in docs:
            counts = {}
            for token in doc.tokens():
                if token in vocab:
                    counts[token] = counts.get(token, 0) + 1
            weighted = {
                vocab.terms[term]: count * idf(vocab.n_docs, vocab.doc_freq[term])
                for term, count in counts.items()
            }
            norm = math.sqrt(sum(weight * weight for weight in weighted.values()))
            expected = sorted((index, weight / norm) for index, weight in weighted.items())
            assert pairs(tfidf_vector(doc, vocab)) == expected


class TestChiScore:
    def test_two_sentence_example(self):
        scores = chi_score_document(tdoc(["ক", "খ"], ["ক", "গ"]))
        assert scores["ক"] == 0.0
        assert scores["খ"] == pytest.approx(0.5, abs=1e-12)
        assert scores["গ"] == pytest.approx(0.5, abs=1e-12)

    def test_single_term_scores_zero(self):
        assert chi_score_document(tdoc(["ক"])) == {"ক": 0.0}

    def test_empty_document(self):
        assert chi_score_document(tdoc()) == {}

    def test_uniform_cooccurrence_is_exactly_zero(self):
        scores = chi_score_document(tdoc(["ক", "খ"], ["ক", "খ"]))
        assert scores == {"ক": 0.0, "খ": 0.0}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            doc = random_tokenized_doc(rng)
            expected = chi_oracle([list(s) for s in doc.sentences])
            actual = chi_score_document(doc)
            assert set(actual) == set(expected)
            for term, score in actual.items():
                assert score == pytest.approx(expected[term], abs=1e-9)
                assert score >= 0.0 and math.isfinite(score)

    def test_invariant_under_sentence_reordering(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            doc = random_tokenized_doc(rng)
            reversed_doc = TokenizedDocument(sentences=doc.sentences[::-1])
            assert chi_score_document(doc) == pytest.approx(chi_score_document(reversed_doc))

    def test_g_top_k_restricts_partners(self):
        doc = tdoc(["ক", "ক", "খ"], ["ক", "গ"])
        full = chi_score_document(doc)
        limited = chi_score_document(doc, g_top_k=1)
        # only the most frequent term (ক) serves as a partner
        assert set(limited) == set(full)
        assert limited["ক"] == 0.0  # its only partner would be itself

    def test_g_top_k_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            doc = random_tokenized_doc(rng)
            k = int(rng.integers(1, 5))
            expected = chi_oracle([list(s) for s in doc.sentences], g_top_k=k)
            actual = chi_score_document(doc, g_top_k=k)
            assert set(actual) == set(expected)
            for term, score in actual.items():
                assert score == pytest.approx(expected[term], abs=1e-9)

    @pytest.mark.parametrize("k", [0, -1])
    def test_g_top_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="g_top_k"):
            chi_score_document(tdoc(["ক", "খ"]), g_top_k=k)


class TestSelectChiFeatures:
    def test_full_keep_equals_build_vocabulary(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            docs = [random_tokenized_doc(rng) for _ in range(int(rng.integers(1, 8)))]
            selected = select_chi_features(docs, top_percent=100.0)
            baseline = build_vocabulary(docs)
            assert selected == baseline

    def test_ranks_by_score_then_term(self):
        # the per-document ranking is sorted((-score, term)) over the dict API
        rng = np.random.default_rng(8)
        for top_percent in (10.0, 30.0, 55.0):
            docs = [random_tokenized_doc(rng) for _ in range(25)]
            expected: set[str] = set()
            for doc in docs:
                table = chi_score_document(doc)
                ranked = sorted(table, key=lambda term: (-table[term], term))
                expected.update(ranked[: math.ceil(top_percent * len(table) / 100.0)])
            vocab = select_chi_features(docs, top_percent)
            assert set(vocab.terms) == expected
            for term in expected:
                assert vocab.doc_freq[term] == sum(term in set(d.tokens()) for d in docs)

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

    @pytest.mark.parametrize("k", [0, -1])
    def test_g_top_k_below_one_rejected(self, k):
        # even when no document has a term to score
        with pytest.raises(ValueError, match="g_top_k"):
            select_chi_features([tdoc()], top_percent=30.0, g_top_k=k)

    def test_df_counted_over_all_docs(self):
        # খ survives selection only in doc_a's ranking but DF spans both docs
        doc_a = tdoc(["ক", "খ"])
        doc_b = tdoc(["খ"])
        vocab = select_chi_features([doc_a, doc_b], top_percent=100.0)
        assert vocab.doc_freq["খ"] == 2
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


class TestVectorizeCorpus:
    def test_order_preserved(self):
        docs = [tdoc(["ক"]), tdoc(["খ"]), tdoc(["ক", "খ"])]
        vocab = build_vocabulary(docs)
        vectors = vectorize_corpus(docs, vocab, "counts")
        assert len(vectors) == 3
        assert pairs(vectors[0]) == [(0, 1.0)]
        assert pairs(vectors[2]) == [(0, 1.0), (1, 1.0)]

    def test_counts_are_positive_integers(self):
        rng = np.random.default_rng(11)
        docs = [random_tokenized_doc(rng) for _ in range(20)]
        vocab = build_vocabulary(docs)
        for vec in vectorize_corpus(docs, vocab, "counts"):
            for weight in vec.values.tolist():
                assert weight > 0 and weight.is_integer()

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            vectorize_corpus([tdoc(["ক"])], build_vocabulary([tdoc(["ক"])]), "binary")

