import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirikit as dk
from dirikit import jsonio
from dirikit.errors import MalformedInput

from conftest import oracle_dumps

MAX = 1.7976931348623157e308
SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308,
    MAX, -MAX, 1.0, 1.0 / 3.0, -2.0,
)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def float_arrays(draw):
    """1-D and 2-D float64 arrays drawn from a small pool of values, so most
    entries repeat; the pool mixes signed zeros, subnormals and the largest
    doubles with arbitrary finite floats."""
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), finite), min_size=1, max_size=6))
    if draw(st.booleans()):
        shape = (draw(st.integers(0, 30)),)
    else:
        shape = (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    size = math.prod(shape)
    picks = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return np.array(picks, dtype=float).reshape(shape)


def as_lists(obj):
    """The payload with every array replaced by its tolist(), for the oracle."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, list):
        return [as_lists(item) for item in obj]
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    return obj


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.one_of(st.sampled_from(SPECIAL), finite), st.text(max_size=8),
)
keys = st.one_of(st.text(max_size=6), st.integers(-5, 5))
flat_mappings = st.one_of(
    st.dictionaries(keys, st.text(max_size=8), max_size=6),
    st.dictionaries(keys, st.one_of(st.sampled_from(SPECIAL), finite), max_size=6),
)
payloads = st.recursive(
    st.one_of(scalars, float_arrays(), flat_mappings),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)


class TestFloatArrays:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(float_arrays())
    def test_same_bytes_as_the_oracle(self, arr):
        for indent in (0, 2):
            want = oracle_dumps(arr.tolist(), indent)
            assert jsonio.dumps(arr, indent) == want
            assert jsonio.dumps(arr.tolist(), indent) == want
            if arr.ndim == 2:
                assert jsonio.dumps(arr.T, indent) == oracle_dumps(arr.T.tolist(), indent)
            else:
                assert jsonio.dumps(arr[::2], indent) == oracle_dumps(arr[::2].tolist(), indent)

    def test_signed_zeros_stay_apart(self):
        arr = np.array([[0.0, -0.0], [-0.0, 0.0]])
        assert jsonio.dumps(arr) == oracle_dumps(arr.tolist())
        assert jsonio.dumps(arr).count("-0") == 2

    def test_other_arrays_are_rejected(self):
        for arr in (np.zeros(3, dtype=int), np.zeros((2, 2, 2)), np.ones(())):
            with pytest.raises(MalformedInput, match="cannot serialize ndarray"):
                jsonio.dumps(arr)


class TestPayloads:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(payloads)
    def test_same_bytes_as_the_oracle(self, payload):
        for indent in (0, 2):
            assert jsonio.dumps(payload, indent) == oracle_dumps(as_lists(payload), indent)

    def test_flat_mappings(self):
        for mapping in ({"a": "x", "b": "é\n"}, {1: 0.5, "b": -0.0, "c": 5e-324},
                        {"a": True, "b": 1.0}, {"a": 1, "b": 1.0}, {"a": "x", "b": 1.0}):
            assert jsonio.dumps(mapping) == oracle_dumps(mapping)


def oracle_error(obj) -> str:
    with pytest.raises(MalformedInput) as caught:
        oracle_dumps(obj)
    return str(caught.value)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_first_bad_value_is_named(self, bad):
        others = [v for v in (math.nan, math.inf, -math.inf) if str(v) != str(bad)]
        flat = np.array([1.0, -0.0, bad, others[0], 2.0, others[1]])
        cases = [flat, flat.reshape(2, 3), flat.reshape(3, 2), {"d": flat, "s": "x"}]
        for case in cases:
            want = oracle_error(as_lists(case))
            assert str(bad) in want
            with pytest.raises(MalformedInput) as caught:
                jsonio.dumps(case)
            assert str(caught.value) == want
        with pytest.raises(MalformedInput) as caught:
            jsonio.dumps(flat.tolist())
        assert str(caught.value) == oracle_error(flat.tolist())


def traced(call):
    """The call's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resistance_matrix_peak_memory():
    # Sierpinski L5 (366 vertices): about half of the 133,956 entries are
    # distinct; dumps on the array must not outgrow the list serialization
    d = dk.resistance_matrix(dk.generate("sierpinski", 5)).d
    got, peak = traced(lambda: jsonio.dumps(d))
    want, oracle_peak = traced(lambda: oracle_dumps(d.tolist()))
    assert got == want
    assert peak <= oracle_peak
