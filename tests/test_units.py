import math

import pytest

from uwbcap.errors import QuantityError
from uwbcap.units import (
    FREQUENCY,
    POWER,
    TIME,
    db_to_linear,
    format_quantity,
    linear_to_db,
    parse_quantity,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("17ns", 17e-9),
        ("17 ns", 17e-9),
        ("380ps", 380e-12),
        ("1.5us", 1.5e-6),
        ("2ms", 2e-3),
        ("0.25 s", 0.25),
        ("0s", 0.0),
        ("50Hz", 50.0),
        ("1.2 kHz", 1200.0),
        ("75 MHz", 75e6),
        ("2.63GHz", 2.63e9),
        ("75MSPS", 75e6),
        ("2.2 GSPS", 2.2e9),
        ("3.9W", 3.9),
        ("800 mW", 0.8),
        ("1e3 MHz", 1e9),
        (".5ns", 0.5e-9),
    ],
)
def test_parse_quantity(text, expected):
    assert parse_quantity(text) == pytest.approx(expected, rel=1e-15)


def test_sample_rates_normalize_to_hertz():
    assert parse_quantity("5GSPS", expect=FREQUENCY) == 5e9
    assert parse_quantity("210 MSPS", expect=FREQUENCY) == 210e6


@pytest.mark.parametrize("text", ["17", "3.5", "", "ns", "17 nanoseconds", "2 Gs"])
def test_rejects_bare_numbers_and_unknown_suffixes(text):
    with pytest.raises(QuantityError):
        parse_quantity(text)


# 1e300GHz overflows only once the suffix's exponent is folded in
@pytest.mark.parametrize("text", ["1e400GHz", "1e400GSPS", "1e300GHz", "1.8e308 s"])
def test_rejects_values_that_overflow(text):
    with pytest.raises(QuantityError, match="overflows"):
        parse_quantity(text)


def test_rejects_decimal_comma():
    with pytest.raises(QuantityError, match="decimal point"):
        parse_quantity("2,63 GHz")


def test_dimension_mismatch():
    with pytest.raises(QuantityError, match="expected a time"):
        parse_quantity("2GHz", expect=TIME)
    with pytest.raises(QuantityError, match="expected a frequency"):
        parse_quantity("17ns", expect=FREQUENCY)
    with pytest.raises(QuantityError):
        parse_quantity("3.9W", expect=TIME)


def test_case_sensitive_suffixes():
    with pytest.raises(QuantityError):
        parse_quantity("17NS")
    with pytest.raises(QuantityError):
        parse_quantity("2ghz")


def test_format_quantity_round_trips_losslessly():
    for value, dim in [
        (17e-9, TIME),
        (1 / 3.0, TIME),
        (2.63e9, FREQUENCY),
        (5e9, FREQUENCY),
        (3.9, POWER),
        (0.8, POWER),
    ]:
        assert parse_quantity(format_quantity(value, dim), expect=dim) == value


def test_db_round_trip():
    for db in (-20.0, 0.0, 3.0, 4.77, 10.0, 30.0):
        linear = db_to_linear(db)
        assert math.isclose(linear_to_db(linear), db, rel_tol=1e-12, abs_tol=1e-12)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)
