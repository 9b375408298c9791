import codecs
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doccat.corpus import (
    LabeledCorpus,
    LabeledDocument,
    load_dir,
    load_jsonl,
    read_jsonl_documents,
)
from doccat.errors import (
    DuplicateIdError,
    EmptyCorpusError,
    MalformedLineError,
    UnreadableFileError,
)
from doccat.textprep import preprocess_corpus

from helpers import save_jsonl


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows), encoding="utf-8")


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
        with pytest.raises(EmptyCorpusError):
            load_jsonl(path)

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

    def test_invalid_utf8_fails_loudly(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"text": "\xff\xfe", "label": "x"}\n')
        with pytest.raises(UnreadableFileError):
            load_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            load_jsonl(tmp_path / "absent.jsonl")

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


class TestReadJsonlDocuments:
    def test_given_label_replaces_the_label_fields(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "ক"}, {"id": "x", "text": "খ", "label": 5}])
        documents = read_jsonl_documents(path, label="-")
        assert [(doc.id, doc.label) for doc in documents] == [("c.jsonl:1", "-"), ("x", "-")]

    def test_non_string_id_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "ক"}, {"id": 7, "text": "খ"}])
        with pytest.raises(MalformedLineError) as excinfo:
            read_jsonl_documents(path, label="-")
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

    def test_not_a_directory(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("x", encoding="utf-8")
        with pytest.raises(NotADirectoryError):
            load_dir(target)

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

    def test_empty_tree(self, tmp_path):
        (tmp_path / "Sports").mkdir()
        with pytest.raises(EmptyCorpusError):
            load_dir(tmp_path)

    @pytest.mark.parametrize("category, name", [("Spo\trts", "a.txt"), ("Sports", "a\tb.txt")])
    def test_tab_in_label_or_file_name_names_the_file(self, tmp_path, category, name):
        (tmp_path / category).mkdir()
        (tmp_path / category / name).write_text("খেলা", encoding="utf-8")
        with pytest.raises(UnreadableFileError, match="without tabs") as exc:
            load_dir(tmp_path)
        assert exc.value.path == str(tmp_path / category / name)


label_strategy = st.text(
    alphabet=st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",)),
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

