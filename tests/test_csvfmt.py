"""csvfmt.format_rows against Python's own "%.17g", byte for byte."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskscale.csvfmt as csvfmt
from riskscale.csvfmt import format_rows


def _expected(rows: np.ndarray) -> bytes:
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in rows.tolist()).encode("ascii")


def _assert_same_text(values, ncols=1):
    rows = np.asarray(values, dtype=np.float64).reshape(-1, ncols)
    assert format_rows(rows) == _expected(rows)


@pytest.mark.parametrize("exponent", range(-4, 16))
def test_exact_ties_round_half_to_even(exponent):
    # x = q / 2**(17 - X) with q odd puts x * 10**(16 - X) exactly halfway
    # between two integers; there are none at X = 16, where k = 0
    gen = np.random.default_rng(exponent + 100)
    scale = 2.0 ** (17 - exponent)
    low = int(10.0 ** exponent * scale) + 1
    high = int(min(10.0 ** (exponent + 1) * scale, 2.0 ** 53)) - 1
    ties = (gen.integers(low, high, 400) | 1) / scale
    for v in ties[:20].tolist():
        assert Fraction(v) * 10 ** (16 - exponent) % 1 == Fraction(1, 2)
    neighbours = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    _assert_same_text(np.concatenate([neighbours, -neighbours]), ncols=3)


def test_neighbours_of_powers_of_ten():
    # log10 rounds to the integer just below a power of ten, so the first
    # exponent estimate is one too high there and must be corrected
    powers = np.array([float(f"1e{e}") for e in range(-6, 19)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    _assert_same_text(np.concatenate([values, -values]), ncols=3)


def test_values_next_to_a_power_of_ten_round_as_printed():
    # literals that name 17-digit values next to 10**e: some parse to the
    # power itself, the others to a double below it that keeps 17 digits
    values = [float(f"9.9999999999999999e{e}") for e in range(-5, 18)]
    values += [float(f"9.999999999999999e{e}") for e in range(-5, 18)]
    values += [float(f"9.9999999999999995e{e}") for e in range(-5, 18)]
    _assert_same_text(values)


def test_fixed_scientific_switch():
    values = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e-5, 9.9999e-5,
              1.00000000000000002e-4, 1e16, np.nextafter(1e16, 0), np.nextafter(1e16, 1e17),
              1e17, np.nextafter(1e17, 0), np.nextafter(1e17, 1e18), 99999999999999984.0,
              1.2345678901234567e16, 1.2345678901234567e-4, 1.2345678901234567e-5]
    _assert_same_text(values + [-v for v in values])


def test_signs_zeros_subnormals_and_non_finite():
    tiny = np.finfo(np.float64).tiny
    values = [-0.0, 0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0),
              np.nan, -np.nan, np.inf, -np.inf, np.finfo(np.float64).max, -1.0, -0.5,
              -123.456, -1e-3, -9.87654321e15]
    _assert_same_text(values)


def test_chunk_where_every_value_falls_back(monkeypatch):
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-300, 1e-5,
                       -9.9e-5, 1e17, -3.5e200, 1.7976931348623157e308])
    _assert_same_text(np.tile(values, 50), ncols=4)

    # such a chunk never enters the digit pipeline; one value in the
    # window sends the whole chunk through it
    def no_digits(a):
        raise AssertionError("digit pipeline ran")

    monkeypatch.setattr(csvfmt, "_digits", no_digits)
    _assert_same_text(np.zeros(4096 * 3), ncols=3)
    with pytest.raises(AssertionError, match="digit pipeline ran"):
        format_rows(np.append(values, 0.5).reshape(-1, 1))


def test_integers_and_decimal_fractions():
    gen = np.random.default_rng(7)
    values = gen.integers(1, 10 ** 6, 2000) * 10.0 ** gen.integers(-10, 18, 2000)
    values = np.concatenate([values, np.arange(-500, 500) / 8.0, gen.random(2000)])
    _assert_same_text(values, ncols=5)


def test_random_bit_patterns():
    gen = np.random.default_rng(11)
    _assert_same_text(gen.integers(0, 2 ** 64, 30000, dtype=np.uint64).view(np.float64),
                      ncols=3)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=12),
       ncols=st.sampled_from((1, 2, 3)))
def test_any_floats_print_as_format(values, ncols):
    values = values[:len(values) // ncols * ncols] or [values[0]] * ncols
    _assert_same_text(values, ncols=ncols)
