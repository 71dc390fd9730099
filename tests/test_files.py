import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from aspectsent import files
from aspectsent.corpus import Aspect, BinarySentiment, Sentiment
from aspectsent.errors import PipelineError


class TestFieldNumbers:
    """JSON has one number type, and `true`/`false` are not numbers."""

    @pytest.mark.parametrize("kind", [int, float])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_a_number(self, kind, value):
        with pytest.raises(PipelineError, match=f"^x: expected {kind.__name__}, got {value}$"):
            files.field({"x": value}, "x", kind)

    def test_bool_is_not_an_allowed_number(self):
        assert files.field({"v": 1}, "v", (1,)) == 1
        with pytest.raises(PipelineError, match="^v: expected one of 1, got True$"):
            files.field({"v": True}, "v", (1,))

    def test_integer_is_a_float(self):
        value = files.field({"x": 1}, "x", float)
        assert value == 1.0 and type(value) is float

    def test_integer_beyond_float_range_is_not_a_float(self):
        with pytest.raises(PipelineError, match="^x: expected float"):
            files.field({"x": 10**400}, "x", float)

    @pytest.mark.parametrize("value", [1.0, "1", [1]])
    def test_int_takes_only_integers(self, value):
        with pytest.raises(PipelineError, match="^x: expected int"):
            files.field({"x": value}, "x", int)


_ASPECTS = "Politics, Economy, Foreign, Culture, Situation, Measures, Racism, Overall"


class TestFieldEnums:
    """An Enum kind returns the member whose value it is given, and names its values otherwise."""

    @pytest.mark.parametrize("value, kind, member", [
        ("Politics", Aspect, Aspect.POLITICS),
        (Aspect.RACISM, Aspect, Aspect.RACISM),
        (Sentiment.NEGATIVE, BinarySentiment, BinarySentiment.NEGATIVE),  # a str equal to a value
    ])
    def test_a_value_or_a_member_gives_the_member(self, value, kind, member):
        assert files.field({"x": value}, "x", kind) is member
        assert files.field({"x": [value]}, "x", [kind]) == [member]

    @pytest.mark.parametrize("value, shown", [
        ("politics", "'politics'"),
        (["Politics"], r"\['Politics'\]"),  # unhashable
        (True, "True"),
        (1, "1"),
        ({"Politics": 1}, r"\{'Politics': 1\}"),
        (Sentiment.NEGATIVE, "<Sentiment.NE...E: 'Negative'>"),
    ])
    def test_anything_else_names_the_values(self, value, shown):
        with pytest.raises(PipelineError, match=f"^x: expected one of {_ASPECTS}, got {shown}$"):
            files.field({"x": value}, "x", Aspect)
        with pytest.raises(PipelineError, match=f"^x: expected one of {_ASPECTS}, got {shown}$"):
            files.field({"x": {"Politics": value}}, "x", {Aspect: Aspect})


def test_write_jsonl_writes_what_json_dumps_gives(tmp_path):
    objs = [{"text": "數據 ✓ \u00e9", "n": 1.5, "tags": ["a", None]}, {"b": True, "q": '"\\'}]
    assert files.write_jsonl(tmp_path / "x.jsonl", objs) == 2
    expected = "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs)
    assert (tmp_path / "x.jsonl").read_text(encoding="utf-8") == expected


class TestTextLines:
    """The one line reader, of a file or of the bytes of a run of its lines."""

    # any text, "\r", "\n", U+2028 and U+0085 included: text mode ends a line only at
    # "\n", "\r" and "\r\n"
    @given(lines=st.lists(st.tuples(st.text(), st.sampled_from(["\n", "\r\n", "\r"]))),
           final_newline=st.booleans())
    @example(lines=[("a\u2028b", "\n"), (" ", "\r"), ("", "\n"), ("c\x85d", "\r")],
             final_newline=False)
    def test_bytes_read_as_their_file_does(self, lines, final_newline):
        text = "".join(line + end for line, end in lines)
        data = (text if final_newline else text.rstrip("\r\n")).encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.txt"
            path.write_bytes(data)
            want = list(files.text_lines(path))
            with open(path, encoding="utf-8") as fh:
                read = len(fh.readlines())
        assert list(files.text_lines(data, "x")) == want
        assert files.line_count(data) == read

    # 8 KiB decode blocks: the bad byte in the block of the first line, and in a later one
    @pytest.mark.parametrize("n", [3, 5000])
    def test_every_line_before_a_bad_byte_is_yielded_first(self, tmp_path, n):
        data = b"".join(b"%d\n" % i for i in range(n)) + b"\n \r\ncaf\xe9\nlater\n"
        path = tmp_path / "x.txt"
        path.write_bytes(data)
        for source in (path, data):
            lines = []
            with pytest.raises(files.LineError) as exc:
                lines.extend(files.text_lines(source, "x"))
            assert lines == [(i + 1, f"{i}\n") for i in range(n)]
            assert str(exc.value) == f"x:{n + 3}: not valid UTF-8 (invalid continuation byte)"


_DECLARED = {"lag": (int, 1), "path": (str, None)}


class TestReadJsonl:
    @pytest.mark.parametrize("line, error", [
        ("[1]", "expected a JSON object, not list"),
        ("nope", "Expecting value: line 1 column 1 (char 0)"),
        ('{"x": true}', "x: expected int, got True"),
    ], ids=["not-an-object", "not-json", "bad-field"])
    def test_a_bad_line_names_file_and_line(self, tmp_path, line, error):
        path = tmp_path / "x.jsonl"
        path.write_text('{"x": 1}\n' + line + "\n", encoding="utf-8")
        want = f"{path}:2: bad x record: {error}"
        with pytest.raises(PipelineError, match=f"^{re.escape(want)}$"):
            list(files.read_jsonl(path, lambda obj: files.field(obj, "x", int), "x"))

    @pytest.mark.parametrize("bug", [KeyError, TypeError, AttributeError])
    def test_a_converter_bug_propagates_unchanged(self, tmp_path, bug):
        path = tmp_path / "x.jsonl"
        path.write_text('{"x": 1}\n', encoding="utf-8")
        raised = bug("y")

        def convert(obj):
            raise raised

        with pytest.raises(bug) as exc:
            list(files.read_jsonl(path, convert, "x"))
        assert exc.value is raised


class TestSettings:
    def test_defaults_fill_what_is_not_set(self):
        assert files.settings({}, _DECLARED, "s") == {"lag": 1, "path": None}
        assert files.settings({"lag": 3, "path": "p"}, _DECLARED, "s") == {"lag": 3, "path": "p"}

    def test_null_only_where_the_default_is_none(self):
        assert files.settings({"path": None}, _DECLARED, "s")["path"] is None
        with pytest.raises(PipelineError, match="^s.lag: null"):
            files.settings({"lag": None}, _DECLARED, "s")

    @pytest.mark.parametrize("obj, error", [
        ({"lag": "3"}, "^s.lag: expected int, got '3'$"),
        ({"lag": 2.5}, "^s.lag: expected int, got 2.5$"),
        ({"path": 5}, "^s.path: expected str, got 5$"),
        ({"lags": 3}, "^s.lags: unknown setting, expected one of lag, path$"),
    ])
    def test_unknown_or_wrong_typed_setting_names_it(self, obj, error):
        with pytest.raises(PipelineError, match=error):
            files.settings(obj, _DECLARED, "s")


class TestLoneSurrogates:
    """`json_object` refuses a string, key or value, that holds a lone UTF-16 surrogate."""

    @pytest.mark.parametrize("text, path", [
        ('{"a": "x\\ud800"}', "a"),
        ('{"a": {"b": ["ok", "\\udfff"]}}', "a.b"),
        ('{"a": {"\\udc00k": 1}}', "a.\udc00k"),
        ('{"a": "\\ud83d\\ude37", "b": [{"c": "\\ude37\\ud83d"}]}', "b.c"),
        ('{"a": "\\ud800", "b": "\\ud800"}', "a"),
    ], ids=["value", "list-item", "key", "reversed-pair", "first-in-document-order"])
    def test_names_the_key_path(self, text, path):
        with pytest.raises(files.LoneSurrogateError) as exc:
            files.json_object(text)
        assert exc.value.path == path
        assert str(exc.value) == f"lone UTF-16 surrogate in: {path!r}"
        str(exc.value).encode("utf-8")  # the message itself holds only escapes

    def test_pairs_and_escaped_backslashes_are_text(self):
        obj = files.json_object('{"a": "\\ud83d\\ude37 \\\\ud800", "\\u00e9": ["\\u00e9"]}')
        assert obj == {"a": "\U0001F637 \\ud800", "\u00e9": ["\u00e9"]}

    def test_read_jsonl_names_file_and_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n{"a": {"b": "\\udc00"}}\n', encoding="utf-8")
        with pytest.raises(PipelineError, match=(
                f"^{path}:3: bad x record: lone UTF-16 surrogate in: 'a.b'$")):
            list(files.read_jsonl(path, dict, "x"))

    def test_read_json_refuses_one(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{\n "a": "\\ud800"\n}\n', encoding="utf-8")
        with pytest.raises(files.LoneSurrogateError, match="'a'"):
            files.read_json(path)


class TestCommitted:
    """`files.committed()`: every output written in the block lands when it ends, metas first."""

    @pytest.fixture
    def renames(self, monkeypatch):
        """The (temp file, output) pairs `os.replace` is called with, in order."""
        calls, replace = [], os.replace

        def recording(src, dst):
            calls.append((os.path.basename(src), os.path.basename(dst)))
            replace(src, dst)

        monkeypatch.setattr(files.os, "replace", recording)
        return calls

    def test_metas_land_before_outputs(self, tmp_path, renames):
        with files.committed():
            files.write_csv(tmp_path / "a.csv", ["x"], [[1]])
            files.write_json(tmp_path / "a.csv.meta.json", {"a": 1})
            files.write_jsonl(tmp_path / "b.jsonl", [{"b": 1}])
            files.write_json(tmp_path / "b.jsonl.meta.json", {"b": 1})
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                f".{name}.{os.getpid()}.tmp"
                for name in ("a.csv", "a.csv.meta.json", "b.jsonl", "b.jsonl.meta.json")]
        assert [dst for _, dst in renames] == [
            "a.csv.meta.json", "b.jsonl.meta.json", "a.csv", "b.jsonl"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.csv", "a.csv.meta.json", "b.jsonl", "b.jsonl.meta.json"]

    def test_a_nested_block_joins_the_open_one(self, tmp_path, renames):
        with files.committed():
            with files.committed():
                files.write_json(tmp_path / "a.json", {})
            assert renames == [] and not (tmp_path / "a.json").exists()
            files.write_json(tmp_path / "b.json", {})
        assert [dst for _, dst in renames] == ["a.json", "b.json"]

    @pytest.mark.parametrize("error", [PipelineError, OSError, KeyboardInterrupt])
    def test_an_error_renames_nothing_and_removes_every_temp(self, tmp_path, renames, error):
        (tmp_path / "a.csv").write_bytes(b"previous\r\n")
        with pytest.raises(error):
            with files.committed():
                files.write_csv(tmp_path / "a.csv", ["x"], [[1]])
                files.write_json(tmp_path / "a.csv.meta.json", {})
                raise error("late")
        assert renames == []
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        assert (tmp_path / "a.csv").read_bytes() == b"previous\r\n"
        files.write_json(tmp_path / "b.json", {})  # no block is left open
        assert renames == [(f".b.json.{os.getpid()}.tmp", "b.json")]

    def test_a_failed_rename_names_the_output_and_leaves_the_outputs(self, tmp_path):
        (tmp_path / "a.csv").write_bytes(b"previous")
        meta = tmp_path / "a.csv.meta.json"
        with pytest.raises(IsADirectoryError) as exc:
            with files.committed():
                files.write_csv(tmp_path / "a.csv", ["x"], [[1]])
                files.write_json(meta, {})
                meta.mkdir()  # after the meta is staged
        assert exc.value.filename == str(meta)
        assert (tmp_path / "a.csv").read_bytes() == b"previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", meta.name]

    def test_a_writer_outside_a_block_lands_on_its_own(self, tmp_path, renames):
        files.write_json(tmp_path / "a.json", {"a": 1})
        assert renames == [(f".a.json.{os.getpid()}.tmp", "a.json")]
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_a_writer_given_a_staged_path_fills_it_in_place(self, tmp_path, renames):
        out = tmp_path / "a.jsonl"
        with files.committed():
            tmp = files.staged(out)
            files.write_jsonl(tmp, [{"a": 1}])
            assert tmp.read_text(encoding="utf-8") == '{"a": 1}\n' and not out.exists()
        assert renames == [(tmp.name, out.name)]
        assert out.read_text(encoding="utf-8") == '{"a": 1}\n'

    @pytest.mark.parametrize("path", ["", ".", "/", ".."])
    def test_a_directory_is_refused_before_any_write(self, tmp_path, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(IsADirectoryError) as exc:
            files.write_json(path, {})
        assert exc.value.filename == os.path.normpath(path)
        assert list(tmp_path.iterdir()) == []
