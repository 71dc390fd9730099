import pytest

from aspectsent import files
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


_DECLARED = {"lag": (int, 1), "path": (str, None)}


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
