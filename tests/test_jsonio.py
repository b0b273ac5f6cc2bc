import math

import numpy as np
import pytest

from voicebench.jsonio import canonical_dumps, canonical_loads


def _scalar(value) -> str:
    return canonical_dumps(value).rstrip("\n")


class TestCanonicalDumps:
    @pytest.mark.parametrize("value,text", [
        (3.0, "3"), (-2.0, "-2"), (0.0, "0"), (9999999999.0, "9999999999"),
        (0.99999999999, "1"),  # rounds to 10 digits first
    ])
    def test_whole_floats_below_1e10_print_as_ints(self, value, text):
        assert _scalar(value) == text

    @pytest.mark.parametrize("value", [0.1, 1e-05, 1.5e+20, 0.123456789012, -2.5e-7])
    def test_fractions_print_as_percent_10g(self, value):
        assert _scalar(value) == "%.10g" % value

    def test_keys_are_sorted_at_every_depth(self):
        text = canonical_dumps({"b": {"z": 1, "a": 2}, "a": [{"y": 0, "x": None}]})
        assert text == canonical_dumps({"a": [{"x": None, "y": 0}], "b": {"a": 2, "z": 1}})
        assert [line.strip()[:3] for line in text.splitlines() if ":" in line] == [
            '"a"', '"x"', '"y"', '"b"', '"a"', '"z"']

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf),
        np.array([1.0, math.nan]),
    ])
    def test_non_finite_values_raise(self, value):
        with pytest.raises(ValueError):
            canonical_dumps({"value": [value]})

    def test_numpy_values_render_like_python_values(self):
        numpy_values = {"i": np.int64(-7), "f": np.float64(0.1), "b": np.bool_(True),
                        "a": np.array([[1.0, 2.5], [1 / 3, 0.0]]), "s": np.float32(0.5)}
        python_values = {"i": -7, "f": 0.1, "b": True,
                         "a": [[1.0, 2.5], [1 / 3, 0.0]], "s": 0.5}
        assert canonical_dumps(numpy_values) == canonical_dumps(python_values)

    def test_dumps_of_loads_is_byte_identical(self):
        rng = np.random.default_rng(5)
        value = {
            "floats": (rng.standard_normal(50) * 10.0 ** rng.integers(-12, 25, 50)).tolist(),
            "whole": [float(v) for v in rng.integers(-10**9, 10**9, 20)],
            "nested": {"p": rng.uniform(size=(3, 3)), "name": "é \"q\"", "none": None},
            "tuple": (1, 2.0, False),
        }
        text = canonical_dumps(value)
        assert canonical_dumps(canonical_loads(text)) == text
