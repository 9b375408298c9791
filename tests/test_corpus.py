import codecs
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doccat.corpus import (
    LabeledCorpus,
    LabeledDocument,
    check_field,
    load_dir,
    load_jsonl,
)
from doccat.errors import (
    DuplicateIdError,
    EmptyCorpusError,
    MalformedLineError,
    UnreadableFileError,
)
from doccat.fileio import LINE_BOUNDARY_RE
from doccat.textprep import preprocess_corpus

from helpers import os_error, save_jsonl

# The characters LINE_BOUNDARY_RE matches, read from its character class.
LINE_BOUNDARIES = LINE_BOUNDARY_RE.pattern.removeprefix("[").removesuffix("]")


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows), encoding="utf-8")


class TestCheckField:
    def test_line_boundaries_are_those_of_splitlines(self):
        ends_a_line = [chr(i) for i in range(0x110000) if len(f"a{chr(i)}b".splitlines()) == 2]
        assert sorted(LINE_BOUNDARIES) == ends_a_line

    @pytest.mark.parametrize("char", [*LINE_BOUNDARIES, "\t"], ids=ascii)
    def test_tab_or_line_boundary_anywhere_fails(self, char):
        for value in (char, f"{char}id", f"id{char}", f"আ{char}মি"):
            with pytest.raises(ValueError, match="without tabs or line breaks"):
                check_field(value, "label")

    # ZWJ and ZWNJ (in Bengali conjuncts and ya-phala) and the other
    # characters here are not printable, yet no line boundary.
    @pytest.mark.parametrize("value", [
        "doc-1", "আমি", " a b ", "র\u200d্য", "ক\u200cষ", "\u200d", "\u200c", "\x00",
        "\u00ad", "a\u00a0b", "\u2003", "\U0001f600",
    ], ids=ascii)
    def test_other_strings_pass(self, value):
        check_field(value, "document id")

    @pytest.mark.parametrize("value", ["", None, 7, b"id", ["id"]], ids=repr)
    def test_empty_or_no_string_fails(self, value):
        with pytest.raises(ValueError, match="must be non-empty"):
            check_field(value, "document id")


class TestLoadJsonl:
    def test_basic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"text": "ক খ", "label": "Sports"},
            {"text": "গ", "label": "Crime"},
        ])
        corpus = load_jsonl(path)
        assert len(corpus) == 2
        assert corpus.labels == ("Crime", "Sports")
        assert corpus.documents[0].text == "ক খ"

    def test_ids_synthesized_from_line_numbers(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"text": "a", "label": "x"}\n\n{"text": "b", "label": "y"}\n', encoding="utf-8"
        )
        corpus = load_jsonl(path)
        assert [d.id for d in corpus] == ["c.jsonl:1", "c.jsonl:3"]

    def test_explicit_ids_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "doc-9", "text": "a", "label": "x"},
                           {"text": "b", "label": "y"}])
        corpus = load_jsonl(path)
        assert corpus.documents[0].id == "doc-9"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyCorpusError) as caught:
            load_jsonl(path)
        assert str(caught.value) == f"no documents in {str(path)!r}"

    def test_blank_lines_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n\n\n", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            load_jsonl(path)

    def test_missing_text_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"label": "Sports"}\n', encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            load_jsonl(path)
        assert exc.value.line_no == 1

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = ['{"text": "a", "label": "x"}'] * 6 + ["{not json"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            load_jsonl(path)
        assert exc.value.line_no == 7

    def test_line_nested_too_deep_is_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": ' + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match="invalid JSON: nested too deep") as exc:
            load_jsonl(path)
        assert exc.value.line_no == 1

    def test_whitespace_only_text_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "   ", "label": "x"}])
        with pytest.raises(MalformedLineError):
            load_jsonl(path)

    @pytest.mark.parametrize("field, bad", [
        ("id", "a\tb"), ("label", "x\ty"), ("id", "a\nb"), ("label", "x\ry"),
    ])
    def test_tab_or_line_break_in_id_or_label_names_its_line(self, tmp_path, field, bad):
        # An id or label is a field of the tab-separated `predict` output.
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "ক", "label": "x"},
                           {"id": "b", "text": "খ", "label": "x", field: bad}])
        with pytest.raises(MalformedLineError, match="without tabs or line breaks") as exc:
            load_jsonl(path)
        assert exc.value.line_no == 2

    def test_other_line_boundary_in_id_names_its_line(self, tmp_path):
        # U+2028 stays inside its JSONL line, but str.splitlines would end a
        # `predict` output line at it.
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a\u2028b", "text": "ক", "label": "x"}])
        with pytest.raises(MalformedLineError, match="malformed line 1: .*without tabs") as exc:
            load_jsonl(path)
        assert exc.value.line_no == 1

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d", "text": "a", "label": "x"},
                           {"id": "d", "text": "b", "label": "y"}])
        with pytest.raises(DuplicateIdError):
            load_jsonl(path)

    def test_long_id_with_a_tab_is_cut_in_the_message(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_jsonl(tmp_path / "c.jsonl",
                    [{"id": "d" * 100_000 + "\t", "text": "a", "label": "x"}])
        with pytest.raises(MalformedLineError) as caught:
            load_jsonl("c.jsonl")
        assert str(caught.value).endswith("d" * 20 + "...") and len(str(caught.value)) < 300

    def test_long_repeated_id_is_cut_in_the_message(self, tmp_path):
        long_id = "d" * 100_000
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": long_id, "text": "a", "label": "x"},
                           {"id": long_id, "text": "b", "label": "y"}])
        with pytest.raises(DuplicateIdError) as caught:
            load_jsonl(path)
        assert caught.value.doc_id == long_id
        assert str(caught.value).endswith("d" * 20 + "...") and len(str(caught.value)) < 300

    def test_repeated_id_names_its_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d", "text": "a", "label": "x"},
                           {"id": "d", "text": "b", "label": "y"}])
        with pytest.raises(DuplicateIdError) as caught:
            load_jsonl(path)
        assert (caught.value.doc_id, caught.value.path) == ("d", str(path))
        assert str(caught.value) == f"{str(path)!r}: duplicate document id: 'd'"

    def test_crlf_file_loads_as_its_lf_copy(self, tmp_path):
        # Same file name, so the synthesized ids match too.
        (tmp_path / "lf").mkdir()
        (tmp_path / "crlf").mkdir()
        lf, crlf = tmp_path / "lf" / "c.jsonl", tmp_path / "crlf" / "c.jsonl"
        write_jsonl(lf, [{"id": "a", "text": "খেলা", "label": "x"},
                         {"text": "চুরি", "label": "y"}])
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_jsonl(crlf) == load_jsonl(lf)

    @pytest.mark.parametrize("boundary", ["\u2028", "\u2029", "\x85"])
    def test_raw_line_boundary_in_a_text_stays_in_its_document(self, tmp_path, boundary):
        # JSON strings may hold these line boundaries unescaped (unlike the
        # control characters "\r" and "\f").
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": f"খেলা{boundary}চুরি", "label": "x"}])
        assert boundary in path.read_text(encoding="utf-8")
        corpus = load_jsonl(path)
        assert [doc.text for doc in corpus] == [f"খেলা{boundary}চুরি"]

    @pytest.mark.parametrize("line, reason", [
        ('{"text": "ক", "label": "x", "label": "y"}', "key 'label' repeats within one object"),
        ('{"text": "ক", "label": "x", "score": NaN}', "NaN is not a JSON value"),
        ('{"text": "ক", "label": "x", "meta": {"w": [-Infinity]}}',
         "-Infinity is not a JSON value"),
    ], ids=["repeated_label", "nan_in_an_ignored_field", "nested_negative_infinity"])
    def test_json_outside_the_strict_rule_is_malformed(self, tmp_path, line, reason):
        path = tmp_path / "c.jsonl"
        path.write_text(f'{{"text": "খ", "label": "x"}}\n{line}\n', encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            load_jsonl(path)
        assert str(exc.value) == f"{str(path)!r}: malformed line 2: invalid JSON: {reason}"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_integer_over_the_digit_limit_names_its_line(self, tmp_path):
        # int() raises a plain ValueError here, not a json.JSONDecodeError.
        path = tmp_path / "c.jsonl"
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        path.write_text(f'{{"text": "ক", "label": "x", "n": {digits}}}\n', encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            load_jsonl(path)
        assert exc.value.line_no == 1
        assert exc.value.reason.startswith("invalid JSON: Exceeds the limit")

    def test_invalid_utf8_fails_loudly(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"text": "\xff\xfe", "label": "x"}\n')
        with pytest.raises(UnreadableFileError):
            load_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            load_jsonl(tmp_path / "absent.jsonl")

    def test_empty_path_is_a_missing_file(self, tmp_path, monkeypatch):
        # Read as Path(""), it would open the current directory.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(UnreadableFileError) as caught:
            load_jsonl("")
        assert str(caught.value) == "unreadable file '': [Errno 2] No such file or directory: ''"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        write_jsonl(plain, [{"id": "a", "text": "খেলা", "label": "x"},
                            {"id": "b", "text": "চুরি", "label": "y"}])
        marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert load_jsonl(marked) == load_jsonl(plain)

    def test_invalid_utf8_after_a_byte_order_mark_gives_its_file_offset(self, tmp_path):
        # 3 mark bytes and 10 bytes of `{"text": "` precede the bad byte.
        path = tmp_path / "c.jsonl"
        path.write_bytes(codecs.BOM_UTF8 + b'{"text": "\xff", "label": "x"}\n')
        with pytest.raises(UnreadableFileError, match=r"invalid UTF-8: .* in position 13:"):
            load_jsonl(path)


class TestLoadJsonlWithLabel:
    def test_given_label_replaces_the_label_fields(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "ক"}, {"id": "x", "text": "খ", "label": 5}])
        documents = load_jsonl(path, label="-")
        assert [(doc.id, doc.label) for doc in documents] == [("c.jsonl:1", "-"), ("x", "-")]

    def test_non_string_id_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "ক"}, {"id": 7, "text": "খ"}])
        with pytest.raises(MalformedLineError) as excinfo:
            load_jsonl(path, label="-")
        assert excinfo.value.line_no == 2


class TestLoadDir:
    def make_tree(self, root):
        (root / "Sports").mkdir()
        (root / "Crime").mkdir()
        (root / "Sports" / "a.txt").write_text("খেলা হয়েছে", encoding="utf-8")
        (root / "Sports" / "b.txt").write_text("ফুটবল ম্যাচ", encoding="utf-8")
        (root / "Crime" / "c.txt").write_text("চুরি হয়েছে", encoding="utf-8")

    def test_lexicographic_order(self, tmp_path):
        self.make_tree(tmp_path)
        corpus = load_dir(tmp_path)
        assert [d.id for d in corpus] == ["Crime/c.txt", "Sports/a.txt", "Sports/b.txt"]
        assert corpus.labels == ("Crime", "Sports")

    def test_single_category_is_valid(self, tmp_path):
        (tmp_path / "Sports").mkdir()
        (tmp_path / "Sports" / "a.txt").write_text("খেলা", encoding="utf-8")
        corpus = load_dir(tmp_path)
        assert corpus.labels == ("Sports",)

    # Path("") is the current directory, here a corpus of two categories.
    @pytest.mark.parametrize("name", ["", "missing", Path("Sports/a.txt")], ids=repr)
    def test_root_that_cannot_be_listed_fails_as_listdir_does(
        self, tmp_path, monkeypatch, name
    ):
        self.make_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        error = os_error(lambda: load_dir(name))
        assert error is not None and error == os_error(lambda: os.listdir(name))
        assert error[1].endswith(f": {str(name)!r}")

    def test_unreadable_file(self, tmp_path):
        (tmp_path / "Sports").mkdir()
        (tmp_path / "Sports" / "bad.txt").write_bytes(b"\xff\xfe\x00")
        with pytest.raises(UnreadableFileError):
            load_dir(tmp_path)

    def test_empty_document_rejected(self, tmp_path):
        (tmp_path / "Sports").mkdir()
        (tmp_path / "Sports" / "empty.txt").write_text("  \n", encoding="utf-8")
        with pytest.raises(UnreadableFileError):
            load_dir(tmp_path)

    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path, default_cfg):
        for root, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            (tmp_path / root / "Sports").mkdir(parents=True)
            (tmp_path / root / "Sports" / "a.txt").write_text("খেলা হয়েছে", encoding=encoding)
        plain, marked = load_dir(tmp_path / "plain"), load_dir(tmp_path / "marked")
        assert marked == plain
        assert preprocess_corpus(marked, default_cfg) == preprocess_corpus(plain, default_cfg)

    @pytest.mark.parametrize(
        "text", ["কনক খনখ\rগনগ ঘনঘ", "কনক খনখ\r\nগনগ ঘনঘ\r\n", "কনক খনখ\u2028গনগ ঘনঘ"],
        ids=["bare_cr", "crlf", "u2028"],
    )
    def test_document_file_reads_as_its_jsonl_text(self, tmp_path, default_cfg, text):
        (tmp_path / "tree" / "Sports").mkdir(parents=True)
        (tmp_path / "tree" / "Sports" / "a.txt").write_bytes(text.encode("utf-8"))
        write_jsonl(tmp_path / "c.jsonl", [{"id": "Sports/a.txt", "text": text, "label": "Sports"}])
        from_dir, from_jsonl = load_dir(tmp_path / "tree"), load_jsonl(tmp_path / "c.jsonl")
        assert from_dir == from_jsonl
        tokens = preprocess_corpus(from_dir, default_cfg)
        assert tokens == preprocess_corpus(from_jsonl, default_cfg)
        assert tokens[0].token_count == 4

    def test_empty_tree(self, tmp_path):
        (tmp_path / "Sports").mkdir()
        with pytest.raises(EmptyCorpusError) as caught:
            load_dir(tmp_path)
        assert str(caught.value) == f"no documents under {str(tmp_path)!r}"

    @pytest.mark.parametrize("category, name", [("Spo\trts", "a.txt"), ("Sports", "a\tb.txt")])
    def test_tab_in_label_or_file_name_names_the_file(self, tmp_path, category, name):
        (tmp_path / category).mkdir()
        (tmp_path / category / name).write_text("খেলা", encoding="utf-8")
        with pytest.raises(UnreadableFileError, match="without tabs") as exc:
            load_dir(tmp_path)
        assert exc.value.path == str(tmp_path / category / name)

    def test_line_boundary_in_file_name_names_the_file(self, tmp_path):
        # NEL (U+0085) would end the id's `predict` output line for str.splitlines.
        (tmp_path / "Sports").mkdir()
        (tmp_path / "Sports" / "a\x85b.txt").write_text("খেলা", encoding="utf-8")
        with pytest.raises(UnreadableFileError, match="without tabs or line breaks") as exc:
            load_dir(tmp_path)
        assert exc.value.path == str(tmp_path / "Sports" / "a\x85b.txt")


label_strategy = st.text(
    alphabet=st.characters(
        blacklist_characters="\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029",
        blacklist_categories=("Cs",),
    ),
    min_size=1,
    max_size=8,
).filter(lambda s: s)

text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40
).filter(lambda s: s.strip())

corpus_strategy = st.lists(
    st.tuples(text_strategy, label_strategy), min_size=1, max_size=12
).map(
    lambda rows: LabeledCorpus(
        tuple(
            LabeledDocument(id=f"doc-{i}", text=text, label=label)
            for i, (text, label) in enumerate(rows)
        )
    )
)


@given(corpus=corpus_strategy)
@settings(max_examples=60)
def test_jsonl_round_trip(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    save_jsonl(corpus, path)
    assert load_jsonl(path) == corpus

