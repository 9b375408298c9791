import codecs
import re
from pathlib import Path

import pytest

from doccat.errors import MalformedLineError, UnreadableFileError
from doccat.evaluation import evaluate, write_report
from doccat.fileio import (
    STRICT_JSON, atomic_write_text, check_out_path, read_entries, read_lines, read_text,
)
from doccat.models import TrainHyperparams, save_model, train

from helpers import OUT_PATHS, assert_out_tree_kept, make_out_tree, os_error

# Every character other than "\n" at which str.splitlines ends a line.
OTHER_BOUNDARIES = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_other_boundaries_are_those_of_splitlines():
    ends = {c for c in map(chr, range(0x110000)) if len(f"x{c}y".splitlines()) == 2}
    assert ends == {"\n", *OTHER_BOUNDARIES}


class TestReadText:
    def test_line_ends_are_kept(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\rb\r\nc\n\r")
        assert read_text(path) == "a\rb\r\nc\n\r"

    def test_only_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(codecs.BOM_UTF8 * 2 + "a\ufeffb\n\ufeff".encode("utf-8"))
        assert read_text(path) == "\ufeffa\ufeffb\n\ufeff"


class TestStrictJson:
    def test_json_values_decode(self):
        assert STRICT_JSON.decode('{"a": [1, 2.5, {"b": null}], "c": "NaN"}') == {
            "a": [1, 2.5, {"b": None}], "c": "NaN",
        }

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_are_rejected(self, constant):
        with pytest.raises(ValueError, match=f"^{re.escape(constant)} is not a JSON value$"):
            STRICT_JSON.decode(f'{{"a": [1, {constant}]}}')

    def test_key_repeated_in_a_nested_object_is_rejected(self):
        with pytest.raises(ValueError, match="^key 'b' repeats within one object$"):
            STRICT_JSON.decode('{"a": {"b": 1, "c": 2, "b": 1}, "b": 3}')

    def test_same_key_in_two_objects_is_not_repeated(self):
        assert STRICT_JSON.decode('{"a": {"a": 1}, "b": [{"a": 2}, {"a": 3}]}') == {
            "a": {"a": 1}, "b": [{"a": 2}, {"a": 3}],
        }


class TestReadLines:
    def test_lines_end_at_newline_only(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("a\u2028b\n\nc\x85d\fe\rf\n".encode("utf-8"))
        assert list(read_lines(path)) == [
            (1, "a\u2028b"), (2, ""), (3, "c\x85d\fe\rf"), (4, ""),
        ]

    def test_one_carriage_return_before_a_newline_is_dropped(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\r\nb\r\r\nc\r")
        assert list(read_lines(path)) == [(1, "a"), (2, "b\r"), (3, "c")]

    def test_crlf_file_reads_as_its_lf_copy(self, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes("খেলা\n\nচুরি # x\n".encode("utf-8"))
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert list(read_lines(crlf)) == list(read_lines(lf))

    def test_byte_order_mark_is_dropped_from_the_first_line_only(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(codecs.BOM_UTF8 + "a\n\ufeffb".encode("utf-8"))
        assert list(read_lines(path)) == [(1, "a"), (2, "\ufeffb")]

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\n\xff\n")
        with pytest.raises(UnreadableFileError, match="invalid UTF-8: .* in position 2:") as exc:
            read_lines(path)
        assert exc.value.path == str(path)


class TestReadEntries:
    @pytest.mark.parametrize("boundary", OTHER_BOUNDARIES)
    def test_other_line_boundary_names_its_line(self, tmp_path, boundary):
        path = tmp_path / "f.txt"
        path.write_text(f"a\nb{boundary}c\nd\n", encoding="utf-8", newline="")
        with pytest.raises(MalformedLineError) as exc:
            read_entries(path)
        assert exc.value.line_no == 2
        assert exc.value.reason == f"holds the line boundary {boundary!r}; lines end at \\n only"

    def test_line_boundary_in_a_comment_is_malformed_too(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a  # note\u2028b\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as exc:
            read_entries(path)
        assert exc.value.line_no == 1

    def test_entries_keep_their_line_numbers(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"# head\r\n a \r\n\r\nb # tail\r\n")
        assert read_entries(path) == [(2, "a"), (4, "b")]


@pytest.fixture(scope="module")
def writers(tiny_corpus, default_cfg, tmp_path_factory):
    """Each writer of an output file, as a call on a path, and the text it
    must write there: what the same call writes to a fresh path."""
    trained = train(tiny_corpus, "tfidf", "nb", TrainHyperparams(), default_cfg)
    report = evaluate(trained, tiny_corpus, default_cfg)
    calls = {
        "atomic_write_text": lambda path: atomic_write_text(path, "text"),
        "save_model": lambda path: save_model(trained, path),
        "write_report": lambda path: write_report(report, path),
    }
    fresh = tmp_path_factory.mktemp("fresh")
    for name, call in calls.items():
        call(fresh / name)
    return {name: (call, (fresh / name).read_text(encoding="utf-8"))
            for name, call in calls.items()}


class TestAtomicWriteText:
    # Each path is judged as written: Path() would fold a trailing separator
    # or a last `.` away and name another file.
    @pytest.mark.parametrize("name", OUT_PATHS, ids=repr)
    @pytest.mark.parametrize("writer", ["atomic_write_text", "save_model", "write_report"])
    def test_every_writer_fails_as_open_does(self, tmp_path, monkeypatch, writers, writer, name):
        monkeypatch.chdir(tmp_path)
        make_out_tree(tmp_path)
        call, text = writers[writer]
        error = os_error(lambda: call(name))
        if error is None:
            assert Path(name).read_text(encoding="utf-8") == text
            assert not list(tmp_path.rglob("*.tmp"))
        else:
            assert_out_tree_kept(tmp_path)
        assert error == os_error(lambda: open(name, "w").close())


class TestCheckOutPath:
    @pytest.mark.parametrize("name", OUT_PATHS, ids=repr)
    def test_fails_as_open_does_and_creates_nothing(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        make_out_tree(tmp_path)
        error = os_error(lambda: check_out_path(name))
        assert_out_tree_kept(tmp_path)
        assert error == os_error(lambda: open(name, "w").close())

    def test_a_directory_is_named_by_its_string(self, tmp_path):
        with pytest.raises(IsADirectoryError) as caught:
            check_out_path(tmp_path)
        assert str(caught.value) == f"[Errno 21] Is a directory: {str(tmp_path)!r}"
