import dataclasses
import itertools
import string
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from doccat import textprep
from doccat.corpus import LabeledDocument
from doccat.errors import MalformedLineError
from doccat.textprep import (
    SENTENCE_DELIMITERS,
    STRIP_RE,
    STRIP_SYMBOLS,
    TOKEN_MEMO_SIZE,
    PreprocessConfig,
    TokenizedDocument,
    TokenTable,
    default_config,
    load_stopwords,
    load_suffix_table,
    preprocess_corpus,
    preprocess_document,
    stem,
    token_table,
    tokenized_to_json,
    validate_suffix_table,
)

from helpers import make_overlapping_corpus, make_synthetic_corpus, preprocess_oracle

# Realistic inflected forms for pipeline-level checks.
LEXICON = [
    "ছেলেরা", "মানুষের", "বাড়িতে", "বইটি", "ঘরটা", "গরুগুলো", "ছেলেদেরকে",
    "কলমগুলোতে", "ঘোড়ারা", "খেলা", "ফুটবল", "রাজনীতি", "অর্থনীতি", "শিক্ষা",
    "বিজ্ঞান", "সংবাদ", "আদালত", "পুলিশ", "হাসপাতাল", "বাজার", "সরকার",
    "নির্বাচন", "আন্দোলন", "পরিবেশ", "নদী",
]


def only(stopword_list=frozenset()) -> PreprocessConfig:
    """A configuration with no suffix rules: it strips, lowercases and
    splits, and removes the given stopwords."""
    return PreprocessConfig(stopword_list=stopword_list, suffix_table=())


def tokens_of(text: str, config: PreprocessConfig) -> list[str]:
    return list(preprocess_document(LabeledDocument(id="d", text=text, label="x"), config).tokens())


def sentences_of(text: str) -> tuple[tuple[str, ...], ...]:
    return preprocess_document(LabeledDocument(id="d", text=text, label="x"), only()).sentences


class TestSplitSentences:
    def test_danda_and_question(self):
        assert sentences_of("ক খ। গ ঘ?") == (("ক", "খ"), ("গ", "ঘ"))

    def test_no_delimiter_is_one_sentence(self):
        assert sentences_of("ক খ গ") == (("ক", "খ", "গ"),)

    def test_only_delimiters(self):
        assert sentences_of("।।") == ()

    def test_newline_and_bang(self):
        assert sentences_of("ক\nখ! গ") == (("ক",), ("খ",), ("গ",))


class TestTokenize:
    def test_plain(self):
        assert tokens_of("আমি ভাত খাই", only()) == ["আমি", "ভাত", "খাই"]

    def test_whitespace_runs_collapse(self):
        assert tokens_of("  ক \t\u00a0 খ\u2003", only()) == ["ক", "খ"]

    def test_empty(self):
        doc = LabeledDocument(id="d", text=" \u2003।\t", label="x")
        assert preprocess_document(doc, only()).sentences == ()


class TestStripSymbols:
    def test_trailing_comma(self):
        assert tokens_of("ঢাকা,", only()) == ["ঢাকা"]

    def test_all_digits_vanish(self):
        assert tokens_of("১২৩ 123 ঢাকা", only()) == ["ঢাকা"]
        doc = LabeledDocument(id="d", text="১২৩ 123", label="x")
        assert preprocess_document(doc, only()).sentences == ()

    def test_clean_token_unchanged(self):
        assert tokens_of("ক", only()) == ["ক"]

    @given(st.text(max_size=30))
    def test_no_strip_char_survives(self, text):
        assume(text.strip())
        for token in tokens_of(text, only()):
            assert not set(token) & STRIP_SYMBOLS

    # Stripping the whole document at once equals stripping each token only
    # for single non-whitespace characters, and the delimiters among them
    # must still end their sentences.
    @pytest.mark.parametrize("symbol", sorted(STRIP_SYMBOLS))
    def test_each_symbol_is_removed_inside_a_token(self, symbol):
        assert len(symbol) == 1 and not symbol.isspace()
        doc = LabeledDocument(id="d", text=f"ক{symbol}খ গ", label="x")
        expected = (("ক",), ("খ", "গ")) if symbol in SENTENCE_DELIMITERS else (("কখ", "গ"),)
        assert preprocess_document(doc, only()).sentences == expected
        assert preprocess_oracle(doc, only()).sentences == expected


class TestRemoveStopwords:
    def test_basic(self):
        config = only(stopword_list=frozenset({"আমি"}))
        assert tokens_of("আমি ভাত", config) == ["ভাত"]

    def test_empty(self):
        config = only(stopword_list=frozenset({"আমি"}))
        doc = LabeledDocument(id="d", text="আমি আমি", label="x")
        assert preprocess_document(doc, config).sentences == ()

    def test_no_match_identity(self):
        config = only(stopword_list=frozenset({"আমি"}))
        assert tokens_of("ভাত খাই", config) == ["ভাত", "খাই"]


class TestStem:
    def test_plural_suffix(self, default_cfg):
        assert stem("ছেলেরা", default_cfg.suffix_table) == "ছেলে"

    def test_min_stem_guard(self, default_cfg):
        assert stem("রা", default_cfg.suffix_table) == "রা"

    def test_no_match_identity(self, default_cfg):
        assert stem("ভাত", default_cfg.suffix_table) == "ভাত"

    def test_longest_match_wins(self, default_cfg):
        # a composed plural+case chain is removed in a single pass
        assert stem("কলমগুলোতে", default_cfg.suffix_table) == "কলম"
        assert stem("ছেলেদেরকে", default_cfg.suffix_table) == "ছেলে"

    def test_strips_at_most_one_suffix(self):
        table = (("রা", 2),)
        assert stem("ঘরারারা", table) == "ঘরারা"


class TestPreprocessDocument:
    def test_four_step_composition(self, default_cfg):
        doc = LabeledDocument(id="d", text="আমি ভাত খাই। ১২৩", label="Food")
        out = preprocess_document(doc, default_cfg)
        assert out.sentences == (("ভাত", "খাই"),)
        assert out.token_count == 2
        assert out.label == "Food"
        assert out.doc_id == "d"

    def test_degenerate_document(self, default_cfg):
        doc = LabeledDocument(id="d", text="১২৩ ৪৫৬, (!)", label="x")
        out = preprocess_document(doc, default_cfg)
        assert out.token_count == 0
        assert out.sentences == ()

    def test_flags_off_only_strips_and_lowercases(self, default_cfg):
        config = dataclasses.replace(default_cfg, stopword_list=(), suffix_table=())
        doc = LabeledDocument(id="d", text="আমি ছেলেরা, Khai ১২৩", label="x")
        out = preprocess_document(doc, config)
        assert list(out.tokens()) == ["আমি", "ছেলেরা", "khai"]

    def test_latin_fragments_lowercased(self, default_cfg):
        doc = LabeledDocument(id="d", text="ঢাকা Dhaka FIFA", label="x")
        out = preprocess_document(doc, default_cfg)
        assert list(out.tokens()) == ["ঢাকা", "dhaka", "fifa"]

    def test_determinism(self, default_cfg):
        doc = LabeledDocument(id="d", text="ছেলেরা খেলা দেখে। আবার খেলবে!", label="x")
        assert preprocess_document(doc, default_cfg) == preprocess_document(doc, default_cfg)


class TestTokenTable:
    def test_preprocess_corpus_returns_a_list_of_the_documents(self, default_cfg):
        raw = make_overlapping_corpus(2, seed=3, n_categories=3)
        corpus = preprocess_corpus(raw, default_cfg)
        assert type(corpus) is list
        assert corpus == [preprocess_document(doc, default_cfg) for doc in raw]

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_the_table_holds_every_token_by_term(self, block, monkeypatch):
        if block is not None:  # renumbered in several blocks, the last one partial
            monkeypatch.setattr(textprep, "_RENUMBER_TOKENS", block)
        docs = [
            TokenizedDocument(sentences=(("খ", "ক", "খ"), ("গ",)), label="x", doc_id="d0"),
            TokenizedDocument(sentences=()),
            TokenizedDocument(sentences=(("ক",), (), ("ঘ", "খ")), label="y"),
        ]
        table = token_table(docs)
        assert table.terms == ("ক", "খ", "গ", "ঘ")
        assert table.ids.dtype == table.sentence_lengths.dtype == np.int32
        assert table.ids.tolist() == [1, 0, 1, 2, 0, 3, 1]
        assert table.sentence_lengths.tolist() == [3, 1, 1, 0, 2]
        assert table.sentence_offsets.tolist() == [0, 2, 2, 5]
        assert table.token_offsets.tolist() == [0, 4, 4, 7]
        assert table.labels == ("x", None, "y") and table.doc_ids == ("d0", None, None)
        for array in (table.ids, table.sentence_lengths, table.sentence_offsets,
                      table.token_offsets):
            assert not array.flags.writeable
        # A read-only sequence of the documents, empty sentences and
        # unlabeled documents included.
        assert len(table) == 3 and list(table) == docs and table[-1] == docs[-1]
        with pytest.raises(IndexError):
            table[3]
        assert token_table(table) is table
        empty = token_table([])
        assert empty.terms == () and empty.ids.size == 0 and list(empty) == []
        assert empty.token_offsets.tolist() == empty.sentence_offsets.tolist() == [0]

    def test_a_corpus_table_gives_back_the_corpus(self, default_cfg):
        corpus = preprocess_corpus(make_synthetic_corpus(3, seed=5), default_cfg)
        table = token_table(corpus)
        assert isinstance(table, TokenTable)
        assert token_table(table) is table
        assert list(table) == corpus
        assert table.terms == tuple(sorted({t for d in corpus for t in d.tokens()}))
        tokens = [table.terms[i] for i in table.ids.tolist()]
        assert tokens == [token for doc in corpus for token in doc.tokens()]


# Raw text pieces whose concatenations exercise every step: stems, shipped
# suffixes (so stems pick up inflections), stopwords, strip symbols, sentence
# delimiters, mixed whitespace (segments are split on whitespace without
# being trimmed first, so whitespace-only segments must come out empty), and
# uppercase Latin and Greek. A final sigma lowercases by its context, so
# per-token lower() must match lowering the whole document.
_DEFAULT = default_config()
PIECES = sorted(
    set(LEXICON)
    | {suffix for suffix, _ in _DEFAULT.suffix_table}
    | set(_DEFAULT.stopword_list)
    | set(STRIP_SYMBOLS)
    | {"।", "?", "!", " ", "\t", "\u00a0", "\u2003", "\n", "\r", "\x85", "\u2028", "\x1c"}
    | {"Σ", "ΑΣ", "ΟΔΟΣ", "σ", "FIFA", "Dhaka", "İ"}
)
# The document is stripped before it is split into sentences, so the strip
# symbols that are also sentence delimiters (।, ? and !) must still end
# their sentences. Each case applies the shipped suffix table or none, and
# the shipped stopwords or none.
FLAGS = list(itertools.product([True, False], repeat=2))


class TestMatchesPerTokenOracle:
    @pytest.mark.parametrize(("stemming", "stopwords"), FLAGS)
    @given(pieces=st.lists(st.sampled_from(PIECES), min_size=1, max_size=40))
    # Final sigmas on both sides of every delimiter and of a strip symbol.
    @example(pieces=["ΑΣ", "?", "Σ", "।", "ΟΔΟΣ", "!", "ΣΑ", "\n", "Α", ",", "Σ"])
    @settings(max_examples=60)
    def test_random_text(self, stemming, stopwords, pieces):
        text = "".join(pieces)
        assume(text.strip())
        config = PreprocessConfig(
            stopword_list=_DEFAULT.stopword_list if stopwords else (),
            suffix_table=_DEFAULT.suffix_table if stemming else (),
        )
        doc = LabeledDocument(id="d", text=text, label="x")
        assert preprocess_document(doc, config) == preprocess_oracle(doc, config)
        # The memo lowercases token by token; lowering the whole stripped
        # document first must change no token.
        lowered = STRIP_RE.sub("", text).lower()
        if lowered.strip():
            lowered_doc = dataclasses.replace(doc, text=lowered)
            assert preprocess_document(lowered_doc, config) == preprocess_document(doc, config)


class TestTokenMemo:
    def test_memo_stays_bounded(self):
        config = PreprocessConfig(stopword_list=frozenset(), suffix_table=())
        memo = config._token_memo
        letters = string.ascii_lowercase
        distinct = [
            "".join(letters[(i // 26**k) % 26] for k in range(4))
            for i in range(2 * TOKEN_MEMO_SIZE)
        ]
        chunk = TOKEN_MEMO_SIZE // 16
        for start in range(0, len(distinct), chunk):
            text = " ".join(distinct[start : start + chunk])
            doc = LabeledDocument(id="d", text=text, label="x")
            assert preprocess_document(doc, config).token_count == chunk
            assert 0 < len(memo) <= TOKEN_MEMO_SIZE

    def test_each_configuration_owns_its_memo(self, default_cfg):
        copy = dataclasses.replace(default_cfg)
        assert copy == default_cfg and hash(copy) == hash(default_cfg)
        assert repr(copy) == repr(default_cfg)
        assert "_token_memo" not in repr(copy)
        assert copy._token_memo is not default_cfg._token_memo
        doc = LabeledDocument(id="d", text="কনক খনখ", label="x")
        copy._token_memo.clear()
        preprocess_document(doc, copy)
        assert sorted(copy._token_memo) == ["কনক", "খনখ"]

    def test_memo_that_empties_inside_documents(self, default_cfg, monkeypatch):
        monkeypatch.setattr(textprep, "TOKEN_MEMO_SIZE", 5)
        # a new configuration, so its memo starts empty
        config = dataclasses.replace(
            default_cfg, stopword_list=default_cfg.stopword_list | {"memo-empties-inside"}
        )
        memo = config._token_memo
        docs = list(make_synthetic_corpus(4, seed=5)) + list(make_overlapping_corpus(2, seed=5))
        expected = [preprocess_oracle(doc, config) for doc in docs]
        # documents with more distinct tokens than the memo holds
        assert any(len(set(doc.tokens())) > 5 for doc in expected)
        for doc, want in zip(docs, expected):
            assert preprocess_document(doc, config) == want
            assert len(memo) <= 5

    def test_threads_share_the_memo(self, default_cfg):
        # a new configuration, so the threads start on a cold memo
        config = dataclasses.replace(
            default_cfg, stopword_list=default_cfg.stopword_list | {"threads-share-the-memo"}
        )
        docs = list(make_synthetic_corpus(6, seed=3))
        expected = [preprocess_oracle(doc, config) for doc in docs]
        results: list[bool] = []

        def work():
            for _ in range(5):
                results.append([preprocess_document(doc, config) for doc in docs] == expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 20


def rejoin(doc: TokenizedDocument) -> str:
    return "। ".join(" ".join(sentence) for sentence in doc.sentences) + "।"


class TestIdempotence:
    def test_lexicon(self, default_cfg):
        doc = LabeledDocument(id="d", text=" ".join(LEXICON), label="x")
        once = preprocess_document(doc, default_cfg)
        assert once.token_count > 0
        twice = preprocess_document(
            LabeledDocument(id="d", text=rejoin(once), label="x"), default_cfg
        )
        assert twice.sentences == once.sentences

    def test_synthetic_corpus(self, default_cfg):
        for raw in make_synthetic_corpus(4, seed=9):
            once = preprocess_document(raw, default_cfg)
            twice = preprocess_document(
                LabeledDocument(id=raw.id, text=rejoin(once), label=raw.label), default_cfg
            )
            assert twice.sentences == once.sentences


@given(st.text(max_size=80))
@settings(max_examples=150)
def test_pipeline_output_has_no_strip_chars(text):
    config = default_config()
    if not text.strip():
        return
    try:
        doc = LabeledDocument(id="d", text=text, label="x")
    except ValueError:
        return
    out = preprocess_document(doc, config)
    for token in out.tokens():
        assert token
        assert not set(token) & STRIP_SYMBOLS
        assert not any(ch.isspace() for ch in token)


class TestConfigFiles:
    def test_stopword_file_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# heading\nআমি\nতুমি  # trailing\n\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"আমি", "তুমি"})

    def test_suffix_table_normalized_and_sorted(self, tmp_path):
        path = tmp_path / "suf.tsv"
        path.write_text(
            "# suffix\tmin\nরা\t2\n\nগুলো\t2  # plural\nটা\t3\n", encoding="utf-8"
        )
        table = load_suffix_table(path)
        assert table == (("রা", 2), ("গুলো", 2), ("টা", 3))
        config = PreprocessConfig(stopword_list=(), suffix_table=table)
        assert config.suffix_table == (("গুলো", 2), ("টা", 3), ("রা", 2))

    def test_byte_order_mark_is_not_part_of_the_first_stopword(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("আমি\nতুমি\n", encoding="utf-8-sig")
        config = only(stopword_list=load_stopwords(path))
        assert tokens_of("আমি ভাত খাই", config) == ["ভাত", "খাই"]

    def test_byte_order_mark_is_not_part_of_the_first_suffix(self, tmp_path):
        path = tmp_path / "suf.tsv"
        path.write_text("রা\t2\n", encoding="utf-8-sig")
        assert stem("ছেলেরা", load_suffix_table(path)) == "ছেলে"

    def test_crlf_files_load_as_their_lf_copies(self, tmp_path):
        files = {"stop.txt": "# head\nআমি\nতুমি  # x\n", "suf.tsv": "রা\t2\n\nগুলো\t2  # x\n"}
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("utf-8"))
            (tmp_path / f"crlf-{name}").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert load_stopwords(tmp_path / "crlf-stop.txt") == load_stopwords(tmp_path / "stop.txt")
        assert load_suffix_table(tmp_path / "crlf-suf.tsv") == load_suffix_table(tmp_path / "suf.tsv")

    def test_form_feed_between_two_stopwords_is_malformed(self, tmp_path):
        # str.splitlines would read the two words as two stopwords.
        path = tmp_path / "stop.txt"
        path.write_text("আমি\fতুমি\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            load_stopwords(path)
        assert exc.value.line_no == 1
        assert exc.value.reason == "holds the line boundary '\\x0c'; lines end at \\n only"

    def test_suffix_table_with_bare_carriage_returns_is_malformed(self, tmp_path):
        path = tmp_path / "suf.tsv"
        path.write_bytes("রা\t2\rগুলো\t2\r".encode("utf-8"))
        with pytest.raises(MalformedLineError) as exc:
            load_suffix_table(path)
        assert exc.value.line_no == 1
        assert exc.value.reason == "holds the line boundary '\\r'; lines end at \\n only"

    def test_suffix_table_bad_min(self, tmp_path):
        path = tmp_path / "suf.tsv"
        path.write_text("রা\tx\n", encoding="utf-8")
        with pytest.raises(MalformedLineError):
            load_suffix_table(path)

    def test_any_order_is_valid_and_stored_canonically(self):
        rules = (("লো", 2), ("রা", 2), ("গুলো", 2))
        validate_suffix_table(rules)
        config = PreprocessConfig(stopword_list=(), suffix_table=rules)
        # descending suffix length, then suffix
        assert config.suffix_table == (("গুলো", 2), ("রা", 2), ("লো", 2))
        # so the longest rule that fits wins, not the first one given
        assert stem("ঘরগুলো", rules) == "ঘরগু"
        assert tokens_of("ঘরগুলো", config) == ["ঘর"]

    def test_validate_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validate_suffix_table((("রা", 2), ("রা", 3)))

    def test_validate_rejects_nonpositive_min(self):
        with pytest.raises(ValueError):
            validate_suffix_table((("রা", 0),))

    # Each of these trained, then failed to load from its saved model file, or
    # raised TypeError: a config must hold what a model file can hold.
    NOT_A_RULE = "suffix table: rule must be a (string, integer) pair, got "

    @pytest.mark.parametrize("stopwords, rules, message", [
        ((), [("া", True)], NOT_A_RULE + "('া', True)"),
        ((), [("া", 2.5)], NOT_A_RULE + "('া', 2.5)"),
        ((), [("া", "2")], NOT_A_RULE + "('া', '2')"),
        ((), [(5, 1)], NOT_A_RULE + "(5, 1)"),
        ((), [("া", 1, 1)], NOT_A_RULE + "('া', 1, 1)"),
        ([5], (), "stopword must be a string, got 5"),
    ], ids=["boolean_min", "float_min", "string_min", "integer_suffix", "triple",
            "integer_stopword"])
    def test_config_rejects_what_a_model_file_cannot_hold(self, stopwords, rules, message):
        with pytest.raises(ValueError) as caught:
            PreprocessConfig(stopword_list=stopwords, suffix_table=rules)
        assert str(caught.value) == message

    # A str iterates as its characters: "এবং" once made the three one-letter
    # stopwords "ং", "এ" and "ব", which trained and saved without a word.
    @pytest.mark.parametrize("field", ["stopword_list", "suffix_table"])
    def test_config_rejects_a_string_table(self, field):
        tables = {"stopword_list": (), "suffix_table": (), field: "এবং"}
        with pytest.raises(ValueError) as caught:
            PreprocessConfig(**tables)
        assert str(caught.value) == f"{field} must be a collection, not a string"

    def test_shipped_stopwords_closed_under_stemming(self, default_cfg):
        # removal runs after stemming, so each entry's stem must be listed too
        for word in default_cfg.stopword_list:
            assert stem(word, default_cfg.suffix_table) in default_cfg.stopword_list

    def test_plain_iterables_are_stored_hashable(self, default_cfg):
        config = PreprocessConfig(
            stopword_list=set(default_cfg.stopword_list),
            suffix_table=[list(rule) for rule in default_cfg.suffix_table],
        )
        assert config == default_cfg
        assert hash(config) == hash(default_cfg)
        doc = LabeledDocument(id="d", text="ছেলেরা বাড়িতে, খেলা। Dhaka 2024!", label="x")
        assert preprocess_document(doc, config) == preprocess_oracle(doc, default_cfg)

    def test_fixed_steps_are_pinned(self):
        # A model file holds the two tables but not these fixed steps, which
        # belong to its format version.
        bump = "a change to a fixed step needs a new models.MODEL_FORMAT_VERSION"
        assert "".join(sorted(STRIP_SYMBOLS)) == (
            "!\"#$%&'()*+,-./0123456789:;<=>?@[\\]^_`{|}~«»।॥০১২৩৪৫৬৭৮৯–—‘’‚“”„…"
        ), bump
        assert SENTENCE_DELIMITERS == "।?!\n", bump
        empty = PreprocessConfig(stopword_list=(), suffix_table=())
        assert tokens_of("DhAkA", empty) == ["dhaka"], bump

    def test_tie_order_changes_nothing(self, default_cfg):
        # Two suffixes of one length cannot both end a token, so their order
        # stems nothing differently.
        table = list(default_cfg.suffix_table)
        first = table.index(("গুলোকে", 2))
        assert table[first + 1] == ("গুলোতে", 2)
        table[first], table[first + 1] = table[first + 1], table[first]
        for rules in (table, reversed(table)):
            config = PreprocessConfig(stopword_list=default_cfg.stopword_list, suffix_table=rules)
            assert config == default_cfg and hash(config) == hash(default_cfg)
            assert config.suffix_table == default_cfg.suffix_table


def test_tokenized_to_json_shape(default_cfg):
    doc = LabeledDocument(id="d7", text="ছেলেরা খেলে। ভাত খায়।", label="Sports")
    out = preprocess_document(doc, default_cfg)
    import json

    payload = json.loads(tokenized_to_json(out))
    assert payload["id"] == "d7"
    assert payload["label"] == "Sports"
    assert payload["sentences"] == [list(s) for s in out.sentences]
