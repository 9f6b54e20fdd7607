"""``_floatrepr.reprs`` against ``repr``, cell by cell.

Every finite double's text is ``repr(v)``'s bytes and NaN's is empty. The
structured sets reach each path of the digit search (normal and subnormal
values, the narrower interval below a power of two, the shorter candidate
and both ends of each interval) and each layout (both format switches, the
sign, zeros padded on either side of the digits).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fortress._floatrepr import CHUNK_CELLS, SLOT, reprs


def _expected(values: np.ndarray) -> list[bytes]:
    return [b"" if v != v else repr(v).encode() for v in values.tolist()]


def _assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    got = reprs(values)
    assert got.dtype == np.dtype(f"S{SLOT}") and got.shape == values.shape
    got, expected = got.reshape(-1).tolist(), _expected(values.reshape(-1))
    wrong = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not wrong, f"{len(wrong)} of {len(got)} differ, first {wrong[:5]}"


def _from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _with_negatives(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def _rng() -> np.random.Generator:
    return np.random.default_rng(20240531)


_EXPONENTS = np.arange(2047, dtype=np.uint64) << np.uint64(52)  # every biased exponent


def _around(x: float) -> list[float]:
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


STRUCTURED = {
    # random finite bit patterns, NaNs included
    "random bits": lambda: _from_bits(_rng().integers(0, 2**64, 1_000_000, dtype=np.uint64)),
    # the least, the next and the largest significand of every exponent,
    # which holds each power of two, where the interval below is narrower
    "each exponent's mantissa 0, 1, 2**52 - 1": lambda: _with_negatives(_from_bits(
        np.concatenate([_EXPONENTS | np.uint64(m) for m in (0, 1, 2**52 - 1)])
    )),
    "subnormals 1..200,000": lambda: _from_bits(np.arange(1, 200_001)),
    "random subnormals": lambda: _from_bits(_rng().integers(1, 2**52, 500_000, dtype=np.uint64)),
    "powers of ten": lambda: _with_negatives([float(f"1e{k}") for k in range(-323, 309)]),
    "powers of two": lambda: _with_negatives([2.0**k for k in range(-1074, 1024)]),
    "integers": lambda: np.arange(-100_000, 100_001, dtype=np.float64),
    # repr is positional from 1e-4 up to below 1e16
    "the format switches": lambda: _with_negatives(
        [v for x in (1e-5, 1e-4, 1e-3, 1.0, 1e15, 1e16, 1e17) for v in _around(x)]
    ),
    "zeros and NaNs": lambda: np.array(
        [0.0, -0.0, np.nan, -np.nan, *_from_bits([0x7FF0000000000001, 0xFFF8000000000123])]
    ),
    # the shortest digits with a tie or a carry, and the extremes
    "edge values": lambda: _with_negatives([
        8e-323, 5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
        1.7976931348623157e308, 9007199254740993.0, 9007199254740992.0, 0.1, 0.3,
        1 / 3, 2 / 3, 123456789.0, 1e22, 1e23, 5e-324 * 3, 9.5, 0.5, 2.5e-5,
    ]),
}


@pytest.mark.parametrize("name", list(STRUCTURED))
def test_structured_sets_match_repr(name):
    _assert_reprs(STRUCTURED[name]())


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 5000),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_arrays_of_finite_floats_match_repr(values):
    _assert_reprs(values)


@pytest.mark.parametrize("size", [CHUNK_CELLS - 1, CHUNK_CELLS, CHUNK_CELLS + 1, 3 * CHUNK_CELLS + 7])
def test_chunk_boundaries_keep_each_cell_in_place(size):
    rng = _rng()
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    values[::7] = np.nan
    _assert_reprs(values)


def test_shape_and_memory_layout_are_kept():
    values = _rng().standard_normal((3, 40)) * 1e10
    _assert_reprs(values)
    _assert_reprs(values[:, ::3])  # a strided view
    _assert_reprs(values.T)
    assert reprs(np.zeros((0, 5))).shape == (0, 5)
    assert reprs(np.float64(2.5)).tolist() == b"2.5"


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_an_infinity_is_refused(value):
    with pytest.raises(ValueError, match=f"cannot format non-finite value {value!r}"):
        reprs(np.array([1.0, value, np.nan]))

