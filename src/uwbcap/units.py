"""Unit-suffixed quantity parsing and formatting.

Everything internal to the package is SI (seconds, hertz, watts); unit
suffixes exist only at the I/O boundary.  The accepted grammar is a decimal
number (decimal point only, never a comma), an optional space, and one of
the suffixes below.  MSPS and GSPS are converter sample rates and normalize
to hertz.
"""

import math
import re

from .errors import QuantityError

TIME = "time"
FREQUENCY = "frequency"
POWER = "power"

# suffix -> (dimension, decimal exponent to the SI base unit)
SUFFIXES = {
    "ps": (TIME, -12),
    "ns": (TIME, -9),
    "us": (TIME, -6),
    "ms": (TIME, -3),
    "s": (TIME, 0),
    "Hz": (FREQUENCY, 0),
    "kHz": (FREQUENCY, 3),
    "MHz": (FREQUENCY, 6),
    "GHz": (FREQUENCY, 9),
    "MSPS": (FREQUENCY, 6),
    "GSPS": (FREQUENCY, 9),
    "W": (POWER, 0),
    "mW": (POWER, -3),
}

_BASE_SUFFIX = {TIME: "s", FREQUENCY: "Hz", POWER: "W"}

_QUANTITY_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?) ?([A-Za-z]+)\s*$"
)


def parse_quantity(text: str, expect: str | None = None) -> float:
    """Parse a unit-suffixed quantity into its SI base-unit value.

    Args:
        text:   e.g. ``"17 ns"``, ``"2.5GSPS"``, ``"3.9 W"``.
        expect: optional dimension (``TIME``, ``FREQUENCY`` or ``POWER``);
                a quantity of any other dimension is rejected.

    Returns:
        The value in seconds, hertz or watts.

    Raises:
        QuantityError: malformed number, unknown suffix, bare number,
            dimension mismatch, or a value too large for a float.
    """
    if "," in text:
        raise QuantityError(
            f"invalid quantity {text!r}: use a decimal point, not a comma"
        )
    match = _QUANTITY_RE.match(text)
    if match is None:
        raise QuantityError(
            f"invalid quantity {text!r}: expected a number followed by a "
            f"unit suffix, e.g. '17 ns' or '2.5GSPS'"
        )
    number, suffix = match.groups()
    if suffix not in SUFFIXES:
        raise QuantityError(
            f"unknown unit suffix {suffix!r} in {text!r}; valid suffixes: "
            + ", ".join(SUFFIXES)
        )
    dimension, shift = SUFFIXES[suffix]
    if expect is not None and dimension != expect:
        raise QuantityError(
            f"{text!r} is a {dimension}, expected a {expect}"
        )
    # fold the suffix into the decimal exponent so parsing stays correctly
    # rounded ("17ns" gives exactly the double nearest 17e-9, never an ulp
    # off from multiplying by a float scale)
    mantissa, _, exponent = number.lower().partition("e")
    total_shift = (int(exponent) if exponent else 0) + shift
    value = float(f"{mantissa}e{total_shift}")
    if math.isinf(value):
        raise QuantityError(f"quantity {text!r} overflows a float")
    return value


def format_quantity(value: float, dimension: str) -> str:
    """Format an SI value in its base unit, losslessly (repr precision)."""
    return f"{value!r} {_BASE_SUFFIX[dimension]}"


def db_to_linear(db: float) -> float:
    """Decibels to linear power ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    """Linear power ratio to decibels; the ratio must be positive."""
    if linear <= 0:
        raise ValueError("linear ratio must be > 0 to convert to dB")
    return 10.0 * math.log10(linear)
