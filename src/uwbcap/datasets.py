"""Embedded survey tables plus a CSV ingestion and query layer.

Five tables ship with the package: two analog-to-digital converter surveys
(state of the art, and parts available on the market), the RMS delay
spreads of the IEEE 802.15.4a channel environments, a UWB pulse-generator
survey, and delay spreads per antenna beamwidth configuration for the
3-10 GHz and 60 GHz bands.

All values are stored in SI units with decimal points.  Blank cells are
stored as None, never as zero.  The built-in tables are immutable;
ingestion produces new lists and never touches them.
"""

import csv
import math
import operator
import os
from dataclasses import dataclass, fields

from .errors import SchemaError
from .units import FREQUENCY, POWER, TIME, format_quantity, parse_quantity

STATE_OF_ART = "state_of_art"
MARKET = "market"
LOS = "LOS"
NLOS = "NLOS"
UWB_3_10GHZ = "UWB_3_10GHz"
UWB_60GHZ = "UWB_60GHz"

ADC_STATE_OF_ART = "adc_state_of_art"
ADC_MARKET = "adc_market"
CHANNELS = "channels"
PULSE_GENERATORS = "pulse_generators"
ANTENNA_CONFIGS = "antenna_configs"

TABLE_IDS = (ADC_STATE_OF_ART, ADC_MARKET, CHANNELS, PULSE_GENERATORS, ANTENNA_CONFIGS)


@dataclass(frozen=True)
class AdcEntry:
    """One analog-to-digital converter survey row."""

    designer: str
    year: int | None
    sampling_frequency: float  # Hz
    bit_precision: int
    dissipated_power: float | None  # W
    source: str  # STATE_OF_ART or MARKET
    reference: str = ""

    def __post_init__(self):
        if not 0 < self.sampling_frequency < math.inf:
            raise ValueError("sampling_frequency must be > 0 Hz")
        if not 1 <= self.bit_precision <= 32:
            raise ValueError("bit_precision must be within 1..32 bits")
        if self.dissipated_power is not None and not 0 < self.dissipated_power < math.inf:
            raise ValueError("dissipated_power must be finite and > 0 W when present")
        if self.source not in (STATE_OF_ART, MARKET):
            raise ValueError(f"source must be {STATE_OF_ART!r} or {MARKET!r}")


@dataclass(frozen=True)
class ChannelEnvironment:
    """A propagation environment and its RMS delay spread."""

    name: str
    sight: str  # LOS or NLOS
    rms_delay_spread: float  # s

    def __post_init__(self):
        if self.sight not in (LOS, NLOS):
            raise ValueError(f"sight must be {LOS!r} or {NLOS!r}")
        if not 0 < self.rms_delay_spread < math.inf:
            raise ValueError("rms_delay_spread must be > 0 s")


@dataclass(frozen=True)
class PulseGeneratorEntry:
    """One UWB pulse-generator survey row."""

    year: int
    author: str
    technology: str
    min_pulse_duration: float  # s
    max_pulse_duration: float | None  # s
    reference: str = ""

    def __post_init__(self):
        if not 0 < self.min_pulse_duration < math.inf:
            raise ValueError("min_pulse_duration must be > 0 s")
        if (
            self.max_pulse_duration is not None
            and not self.min_pulse_duration <= self.max_pulse_duration < math.inf
        ):
            raise ValueError("max_pulse_duration must be finite and >= min_pulse_duration")


@dataclass(frozen=True)
class AntennaConfigEntry:
    """Delay spread for a band and Tx/Rx half-power beamwidth pair."""

    band: str  # UWB_3_10GHZ or UWB_60GHZ
    tx_beamwidth: float  # degrees
    rx_beamwidth: float  # degrees
    rms_delay_spread: float  # s

    def __post_init__(self):
        if self.band not in (UWB_3_10GHZ, UWB_60GHZ):
            raise ValueError(f"band must be {UWB_3_10GHZ!r} or {UWB_60GHZ!r}")
        for width in (self.tx_beamwidth, self.rx_beamwidth):
            if not 0 < width <= 360:
                raise ValueError("beamwidths must lie in (0, 360] degrees")
        if not 0 < self.rms_delay_spread < math.inf:
            raise ValueError("rms_delay_spread must be > 0 s")


_ADC_STATE_OF_ART = (
    AdcEntry("W. Yang et al.", 2001, 75e6, 14, 0.35, STATE_OF_ART, "[8]"),
    AdcEntry("Y. Akazawa et al.", 1987, 400e6, 8, None, STATE_OF_ART, "[9]"),
    AdcEntry("I. Mehr and L. Singer", 1999, 500e6, 6, None, STATE_OF_ART, "[10]"),
    AdcEntry("HRL Labs", 1988, 1e9, 4, 0.1, STATE_OF_ART, "[7]"),
    AdcEntry("IERU", 1988, 1e9, 4, 2.4, STATE_OF_ART, "[7]"),
    AdcEntry("Fraunhofer & TriQuint", 1992, 1e9, 5, 3.4, STATE_OF_ART, "[7]"),
    AdcEntry("Signal Processing Tech", 1995, 1e9, 8, 5.5, STATE_OF_ART, "[7]"),
    AdcEntry("Raytheon", 1989, 1.2e9, 5, 3.0, STATE_OF_ART, "[7]"),
    AdcEntry("TRW", 1996, 1.75e9, 8, None, STATE_OF_ART, "[7]"),
    AdcEntry("Rockwell", 1995, 2e9, 8, 5.3, STATE_OF_ART, "[7]"),
    AdcEntry("T. Wakimoto et al.", 1988, 2e9, 6, None, STATE_OF_ART, "[11]"),
    AdcEntry("LEPA", 1986, 3e9, 4, 0.15, STATE_OF_ART, "[7]"),
    AdcEntry("S. Park et al.", 2006, 4e9, 4, 0.53, STATE_OF_ART, "[12]"),
    AdcEntry("HP & Rockwell", 1994, 4e9, 6, 5.7, STATE_OF_ART, "[7]"),
    AdcEntry("HP", 1991, 4e9, 8, 39.0, STATE_OF_ART, "[7]"),
    AdcEntry("HRL Labs", 1996, 8e9, 3, 3.5, STATE_OF_ART, "[7]"),
    AdcEntry("J. Lee et al.", 2003, 10e9, 5, None, STATE_OF_ART, "[13]"),
)

_ADC_MARKET = (
    AdcEntry("Texas Instrument", None, 210e6, 12, 1.23, MARKET),
    AdcEntry("Analog Device", None, 400e6, 12, 6.8, MARKET),
    AdcEntry("Texas Instrument", None, 500e6, 12, 2.25, MARKET),
    AdcEntry("e2v", None, 500e6, 12, 2.3, MARKET),
    AdcEntry("e2v", None, 500e6, 8, 1.4, MARKET),
    AdcEntry("National Semiconductor", None, 500e6, 8, 0.8, MARKET),
    AdcEntry("Maxim", None, 600e6, 8, None, MARKET),
    AdcEntry("Maxim", None, 1e9, 8, None, MARKET),
    AdcEntry("National Semiconductor", None, 1e9, 8, 1.2, MARKET),
    AdcEntry("National Semiconductor", None, 1.5e9, 8, 1.5, MARKET),
    AdcEntry("Maxim", None, 1.5e9, 8, None, MARKET),
    AdcEntry("e2v", None, 2e9, 10, 4.6, MARKET),
    AdcEntry("e2v", None, 2.2e9, 10, 4.2, MARKET),
    AdcEntry("Maxim", None, 2.2e9, 8, None, MARKET),
    AdcEntry("National Semiconductor", None, 3e9, 8, 1.6, MARKET),
    AdcEntry("e2v", None, 5e9, 8, 3.9, MARKET),
)

_CHANNELS = (
    ChannelEnvironment("Residential LOS", LOS, 17e-9),
    ChannelEnvironment("Residential NLOS", NLOS, 19e-9),
    ChannelEnvironment("Office LOS", LOS, 10e-9),
    ChannelEnvironment("Office NLOS", NLOS, 13e-9),
    ChannelEnvironment("Outdoor LOS", LOS, 28e-9),
    ChannelEnvironment("Outdoor NLOS", NLOS, 78e-9),
    ChannelEnvironment("Industrial LOS", LOS, 9e-9),
    ChannelEnvironment("Industrial NLOS", NLOS, 89e-9),
    ChannelEnvironment("Open Outdoor NLOS", NLOS, 21e-9),
)

_PULSE_GENERATORS = (
    PulseGeneratorEntry(2007, "Deparis et al.", "pHEMT", 50e-12, 800e-12, "[13]"),
    PulseGeneratorEntry(2007, "Badalawa et al.", "CMOS 90 nm", 224e-12, None, "[14]"),
    PulseGeneratorEntry(2006, "Kim et al.", "CMOS", 380e-12, 4000e-12, "[15]"),
    PulseGeneratorEntry(2006, "Bachelet et al.", "CMOS 130 nm", 92e-12, None, "[16]"),
)

_ANTENNA_CONFIGS = (
    AntennaConfigEntry(UWB_3_10GHZ, 360, 360, 17e-9),
    AntennaConfigEntry(UWB_60GHZ, 360, 360, 7.718e-9),
    AntennaConfigEntry(UWB_60GHZ, 360, 60, 6.2e-9),
    AntennaConfigEntry(UWB_60GHZ, 360, 15, 3.455e-9),
    AntennaConfigEntry(UWB_60GHZ, 60, 60, 2.147e-9),
    AntennaConfigEntry(UWB_60GHZ, 60, 15, 0.948e-9),
    AntennaConfigEntry(UWB_60GHZ, 15, 15, 0.87e-9),
)

_BUILTINS = {
    ADC_STATE_OF_ART: _ADC_STATE_OF_ART,
    ADC_MARKET: _ADC_MARKET,
    CHANNELS: _CHANNELS,
    PULSE_GENERATORS: _PULSE_GENERATORS,
    ANTENNA_CONFIGS: _ANTENNA_CONFIGS,
}


def load_builtin(table_id: str) -> list:
    """Return the full embedded table as a fresh list of entries.

    Raises:
        ValueError: unknown table id.
    """
    try:
        return list(_BUILTINS[table_id])
    except KeyError:
        raise ValueError(
            f"unknown table {table_id!r}; valid ids: " + ", ".join(TABLE_IDS)
        ) from None


# ---------------------------------------------------------------------------
# CSV schemas
# ---------------------------------------------------------------------------

# A codec is a (parse, write) pair: parse turns a CSV cell into a field
# value, write turns the value back into a cell that parses to it exactly.
_TEXT = (str.strip, str)
_INT = (int, str)
_FLOAT = (float, str)  # str of a float is its repr: lossless


def _quantity(dimension):
    return (
        lambda cell: parse_quantity(cell, expect=dimension),
        lambda value: format_quantity(value, dimension),
    )


def _watts(cell: str) -> float:
    """Power cell: bare number in watts, or a suffixed W/mW quantity."""
    try:
        return float(cell)
    except ValueError:
        return parse_quantity(cell, expect=POWER)


def _optional(codec):
    """A codec whose blank (or ``-``) cell is None, and None a blank cell."""
    parse, write = codec
    return (
        lambda cell: None if cell.strip() in ("", "-") else parse(cell),
        lambda value: "" if value is None else write(value),
    )


#: schema name -> (entry type, one (column, codec) pair per field, in field order)
_SCHEMAS = {
    "adc": (AdcEntry, (
        ("designer", _TEXT),
        ("year", _optional(_INT)),
        ("sampling_frequency", _quantity(FREQUENCY)),
        ("bit_precision", _INT),
        ("dissipated_power_w", _optional((_watts, str))),
        ("source", _TEXT),
        ("reference", _TEXT),
    )),
    "channel": (ChannelEnvironment, (
        ("name", _TEXT),
        ("sight", _TEXT),
        ("rms_delay_spread", _quantity(TIME)),
    )),
    "pulse_generator": (PulseGeneratorEntry, (
        ("year", _INT),
        ("author", _TEXT),
        ("technology", _TEXT),
        ("min_pulse_duration", _quantity(TIME)),
        ("max_pulse_duration", _optional(_quantity(TIME))),
        ("reference", _TEXT),
    )),
    "antenna": (AntennaConfigEntry, (
        ("band", _TEXT),
        ("tx_beamwidth_deg", _FLOAT),
        ("rx_beamwidth_deg", _FLOAT),
        ("rms_delay_spread", _quantity(TIME)),
    )),
}

_COLUMNS_BY_TYPE = dict(_SCHEMAS.values())


def _schema(table_id: str):
    if table_id in _SCHEMAS:
        return _SCHEMAS[table_id]
    if table_id in _BUILTINS:
        entry_type = type(_BUILTINS[table_id][0])
        return entry_type, _COLUMNS_BY_TYPE[entry_type]
    raise ValueError(
        f"unknown table {table_id!r}; valid ids: "
        + ", ".join(list(TABLE_IDS) + list(_SCHEMAS))
    )


def ingest_csv(path, table_id: str) -> list:
    """Parse a user-supplied CSV extension of one of the built-in tables.

    The file must be UTF-8, comma-separated, with the exact schema header
    for the table.  Quantity columns use the unit-suffix grammar; blank
    (or ``-``) cells mean absent.  Malformed rows are all reported, with
    their line numbers.

    Args:
        path:     CSV file path.
        table_id: a built-in table id or a schema name
                  (adc, channel, pulse_generator, antenna).

    Raises:
        FileNotFoundError: missing file.
        SchemaError: wrong header, or one or more malformed rows.
    """
    entry_type, columns = _schema(table_id)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as handle:
        return _ingest_stream(handle, entry_type, columns, str(path))


def _ingest_stream(handle, entry_type, columns, label):
    names = tuple(column for column, _ in columns)
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{label}: empty file, expected header {','.join(names)}")
    if tuple(cell.strip() for cell in header) != names:
        raise SchemaError(
            f"{label}: header mismatch: expected {','.join(names)}, "
            f"got {','.join(header)}"
        )
    entries = []
    problems = []
    for line_no, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(columns):
            problems.append(
                f"line {line_no}: expected {len(columns)} fields, got {len(cells)}"
            )
            continue
        try:
            entries.append(
                entry_type(*(parse(cell) for (_, (parse, _)), cell in zip(columns, cells)))
            )
        except ValueError as exc:
            problems.append(f"line {line_no}: {exc}")
    if problems:
        raise SchemaError(f"{label}: " + "; ".join(problems))
    return entries


def to_csv(entries) -> str:
    """Serialize homogeneous entries back to their schema, losslessly.

    Floats are written at repr precision so every value survives a
    serialize/parse round trip bit-for-bit.

    Raises:
        ValueError: an empty list, or entries that are not all of one
            survey entry type.
    """
    from .explorer import emit_csv_string  # explorer imports this module

    if not entries:
        raise ValueError("cannot infer a schema from an empty entry list")
    entry_type = type(entries[0])
    if entry_type not in _COLUMNS_BY_TYPE:
        raise ValueError(f"{entry_type.__name__} is not a survey entry type")
    columns = tuple(zip(fields(entry_type), _COLUMNS_BY_TYPE[entry_type]))
    rows = []
    for entry in entries:
        if type(entry) is not entry_type:
            raise ValueError("entries must all belong to the same table")
        rows.append({
            column: write(getattr(entry, field.name))
            for field, (column, (_, write)) in columns
        })
    return emit_csv_string(rows)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

#: Tried in this order, so each two-character operator wins over its prefix.
_COMPARATORS = {
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "=": operator.eq,
}


def _field_names(entry) -> tuple:
    return tuple(f.name for f in fields(entry))


def _check_field(entries, name: str):
    known = _field_names(entries[0])
    if name not in known:
        raise ValueError(f"unknown field {name!r}; fields: " + ", ".join(known))


def _parse_predicate(where: str):
    for op, compare in _COMPARATORS.items():
        if op in where:
            name, _, literal = where.partition(op)
            value = _literal(literal.strip())
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"predicate {where!r} compares with a non-finite number")
            return name.strip(), compare, value
    raise ValueError(
        f"cannot parse predicate {where!r}; expected FIELD OP VALUE with "
        "OP one of " + ", ".join(_COMPARATORS)
    )


def _literal(text: str):
    try:
        return parse_quantity(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def query(entries, where: str | None = None, min_by: str | None = None,
          max_by: str | None = None) -> list:
    """Filter entries with a predicate and/or select a min/max row.

    ``where`` is ``"FIELD OP VALUE"`` (e.g. ``"sampling_frequency>=1GSPS"``,
    ``"sight=NLOS"``); the value may be a suffixed quantity, a number, or a
    string.  ``min_by``/``max_by`` name a field and reduce the (filtered)
    list to its single extreme row.  Entries whose field is absent (None)
    never match and never win a min/max.  Order is stable.

    Raises:
        ValueError: unknown field name or unparseable predicate.
    """
    result = list(entries)
    if not result:
        return result
    if where is not None:
        name, compare, wanted = _parse_predicate(where)
        _check_field(result, name)
        kept = []
        for entry in result:
            actual = getattr(entry, name)
            if actual is None:
                continue
            try:
                if compare(actual, wanted):
                    kept.append(entry)
            except TypeError:
                raise ValueError(
                    f"cannot compare field {name!r} ({actual!r}) with {wanted!r}"
                ) from None
        result = kept
    for selector, pick in ((min_by, min), (max_by, max)):
        if selector is None or not result:
            continue
        _check_field(result, selector)
        candidates = [e for e in result if getattr(e, selector) is not None]
        if not candidates:
            result = []
            continue
        extreme = pick(candidates, key=lambda e: getattr(e, selector))
        result = [extreme]
    return result
