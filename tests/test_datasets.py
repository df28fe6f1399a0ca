import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uwbcap.datasets import (
    ADC_MARKET,
    ADC_STATE_OF_ART,
    ANTENNA_CONFIGS,
    CHANNELS,
    LOS,
    MARKET,
    NLOS,
    PULSE_GENERATORS,
    STATE_OF_ART,
    TABLE_IDS,
    UWB_3_10GHZ,
    UWB_60GHZ,
    AdcEntry,
    AntennaConfigEntry,
    ChannelEnvironment,
    PulseGeneratorEntry,
    ingest_csv,
    load_builtin,
    query,
    to_csv,
)
from uwbcap.errors import SchemaError

EXPECTED_ROW_COUNTS = {
    ADC_STATE_OF_ART: 17,
    ADC_MARKET: 16,
    CHANNELS: 9,
    PULSE_GENERATORS: 4,
    ANTENNA_CONFIGS: 7,
}


# ---------------------------------------------------------------------------
# built-in tables
# ---------------------------------------------------------------------------

def test_row_counts():
    for table_id, count in EXPECTED_ROW_COUNTS.items():
        assert len(load_builtin(table_id)) == count


def test_unknown_table_id():
    # schema names are for ingestion, not load_builtin
    with pytest.raises(ValueError, match="unknown table"):
        load_builtin("adc")
    with pytest.raises(ValueError):
        load_builtin("tables")


def test_loading_twice_yields_identical_lists():
    for table_id in TABLE_IDS:
        assert load_builtin(table_id) == load_builtin(table_id)


def test_channel_spot_values():
    channels = {c.name: c for c in load_builtin(CHANNELS)}
    assert channels["Industrial LOS"].sight == "LOS"
    assert channels["Industrial LOS"].rms_delay_spread == 9e-9
    assert channels["Residential LOS"].rms_delay_spread == 17e-9
    assert channels["Industrial NLOS"].rms_delay_spread == 89e-9
    assert channels["Open Outdoor NLOS"].sight == NLOS


def test_pulse_generator_spot_values():
    generators = {g.author: g for g in load_builtin(PULSE_GENERATORS)}
    bachelet = generators["Bachelet et al."]
    assert (bachelet.year, bachelet.technology) == (2006, "CMOS 130 nm")
    assert bachelet.min_pulse_duration == 92e-12
    assert bachelet.max_pulse_duration is None
    deparis = generators["Deparis et al."]
    assert deparis.min_pulse_duration == 50e-12
    assert deparis.max_pulse_duration == 800e-12


def test_adc_spot_values():
    market = load_builtin(ADC_MARKET)
    fastest = market[-1]
    assert (fastest.designer, fastest.sampling_frequency) == ("e2v", 5e9)
    assert (fastest.bit_precision, fastest.dissipated_power) == (8, 3.9)
    assert all(entry.year is None for entry in market)
    assert all(entry.source == MARKET for entry in market)

    state = load_builtin(ADC_STATE_OF_ART)
    assert all(entry.source == STATE_OF_ART for entry in state)
    # two distinct 1988 1 GSPS / 4-bit entries are kept verbatim
    twins = [
        e for e in state
        if e.year == 1988 and e.sampling_frequency == 1e9 and e.bit_precision == 4
    ]
    assert {e.designer for e in twins} == {"HRL Labs", "IERU"}
    assert {e.dissipated_power for e in twins} == {0.1, 2.4}


def test_blank_cells_are_none_not_zero():
    state = {(e.designer, e.year): e for e in load_builtin(ADC_STATE_OF_ART)}
    assert state[("Y. Akazawa et al.", 1987)].dissipated_power is None
    assert state[("TRW", 1996)].dissipated_power is None
    market = load_builtin(ADC_MARKET)
    assert sum(1 for e in market if e.dissipated_power is None) == 4  # the Maxim rows


def test_delay_spreads_appear_exactly_once_each():
    channel_ns = sorted(round(c.rms_delay_spread * 1e9, 6) for c in load_builtin(CHANNELS))
    assert channel_ns == sorted([17, 19, 10, 13, 28, 78, 9, 89, 21])
    antenna_ns = sorted(round(a.rms_delay_spread * 1e9, 6) for a in load_builtin(ANTENNA_CONFIGS))
    assert antenna_ns == sorted([17, 7.718, 6.2, 3.455, 2.147, 0.948, 0.87])


# ---------------------------------------------------------------------------
# CSV round trip and ingestion
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_lossless(tmp_path):
    for table_id in TABLE_IDS:
        entries = load_builtin(table_id)
        path = tmp_path / f"{table_id}.csv"
        path.write_text(to_csv(entries), encoding="utf-8")
        assert ingest_csv(path, table_id) == entries


# text cells with CSV's special characters; ingestion strips the ends of a
# cell, so generated text has no leading or trailing whitespace
_texts = st.one_of(
    st.text(alphabet=',"\r\n -ab'),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
).filter(lambda text: text == text.strip())
_positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_years = st.integers(min_value=-10**18, max_value=10**18)


@st.composite
def _pulse_generators(draw):
    durations = sorted(draw(st.lists(_positive, min_size=2, max_size=2)))
    return PulseGeneratorEntry(
        draw(_years), draw(_texts), draw(_texts), durations[0],
        draw(st.none() | st.just(durations[1])), draw(_texts),
    )


_ENTRIES = {
    "adc": st.builds(
        AdcEntry, _texts, st.none() | _years, _positive, st.integers(1, 32),
        st.none() | _positive, st.sampled_from((STATE_OF_ART, MARKET)), _texts,
    ),
    "channel": st.builds(ChannelEnvironment, _texts, st.sampled_from((LOS, NLOS)), _positive),
    "pulse_generator": _pulse_generators(),
    "antenna": st.builds(
        AntennaConfigEntry, st.sampled_from((UWB_3_10GHZ, UWB_60GHZ)),
        st.floats(min_value=5e-324, max_value=360), st.floats(min_value=5e-324, max_value=360),
        _positive,
    ),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_ENTRIES)).flatmap(
    lambda schema: st.tuples(st.just(schema), st.lists(_ENTRIES[schema], min_size=1, max_size=4))
))
@example(("channel", [ChannelEnvironment("a\rb", LOS, 1e-9)]))
def test_to_csv_then_ingest_csv_is_lossless(tmp_path_factory, schema_and_entries):
    schema, entries = schema_and_entries
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    path.write_text(to_csv(entries), encoding="utf-8", newline="")
    assert ingest_csv(path, schema) == entries


@pytest.mark.parametrize("make", [
    lambda: AdcEntry("Acme", 2024, math.inf, 6, 1.1, MARKET),
    lambda: AdcEntry("Acme", 2024, math.nan, 6, 1.1, MARKET),
    lambda: AdcEntry("Acme", 2024, 3e9, 6, math.nan, MARKET),
    lambda: AdcEntry("Acme", 2024, 3e9, 6, math.inf, MARKET),
    lambda: AdcEntry("Acme", 2024, 3e9, 6, 0.0, MARKET),
    lambda: ChannelEnvironment("Lab", LOS, math.nan),
    lambda: ChannelEnvironment("Lab", LOS, math.inf),
    lambda: PulseGeneratorEntry(2006, "Kim", "CMOS", math.inf, None),
    lambda: PulseGeneratorEntry(2006, "Kim", "CMOS", math.nan, None),
    lambda: PulseGeneratorEntry(2006, "Kim", "CMOS", 1e-10, math.inf),
    lambda: PulseGeneratorEntry(2006, "Kim", "CMOS", 1e-10, math.nan),
    lambda: AntennaConfigEntry(UWB_60GHZ, 60, 60, math.inf),
    lambda: AntennaConfigEntry(UWB_60GHZ, 60, 60, math.nan),
])
def test_entries_reject_non_finite_numbers(make):
    with pytest.raises(ValueError):
        make()


def test_ingest_rejects_a_nan_power(tmp_path):
    path = tmp_path / "adc.csv"
    path.write_text(
        "designer,year,sampling_frequency,bit_precision,dissipated_power_w,source,reference\n"
        "Acme,2024,3 GSPS,6,nan,market,\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="line 2: dissipated_power must be finite"):
        ingest_csv(path, "adc")


def test_to_csv_rejects_what_is_not_one_survey_table():
    with pytest.raises(ValueError, match="not a survey entry"):
        to_csv([1])
    with pytest.raises(ValueError, match="same table"):
        to_csv(load_builtin(CHANNELS) + load_builtin(ANTENNA_CONFIGS))


def test_ingest_adc_row(tmp_path):
    path = tmp_path / "adc.csv"
    path.write_text(
        "designer,year,sampling_frequency,bit_precision,dissipated_power_w,source,reference\n"
        "Acme,2024,3 GSPS,6,1.1,market,\n",
        encoding="utf-8",
    )
    (entry,) = ingest_csv(path, "adc")
    assert entry == AdcEntry("Acme", 2024, 3e9, 6, 1.1, MARKET, "")


def test_ingest_channel_row(tmp_path):
    path = tmp_path / "chan.csv"
    path.write_text(
        "name,sight,rms_delay_spread\nResidential LOS,LOS,17 ns\n", encoding="utf-8"
    )
    (entry,) = ingest_csv(path, "channel")
    assert entry == ChannelEnvironment("Residential LOS", "LOS", 17e-9)


def test_ingest_reports_invariant_violation_with_line_number(tmp_path):
    path = tmp_path / "adc.csv"
    path.write_text(
        "designer,year,sampling_frequency,bit_precision,dissipated_power_w,source,reference\n"
        "Acme,2024,0 GSPS,6,1.1,market,\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=r"line 2.*sampling_frequency must be > 0"):
        ingest_csv(path, "adc")


def test_ingest_reports_every_malformed_row(tmp_path):
    path = tmp_path / "chan.csv"
    path.write_text(
        "name,sight,rms_delay_spread\n"
        "Lab,LOS,5 ns\n"
        'Vault,LOS,"17,5 ns"\n'  # decimal comma
        "Hangar,SIDEWAYS,3 ns\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError) as excinfo:
        ingest_csv(path, "channel")
    message = str(excinfo.value)
    assert "line 3" in message and "line 4" in message and "line 2" not in message


_BAD_QUANTITY = "expected a number followed by a unit suffix, e.g. '17 ns' or '2.5GSPS'"

# one file per schema: rows with a bad int, a blank or "-" required
# quantity, a quantity of the wrong dimension, a bad float and bad watts,
# plus a valid row with "-" in every optional cell (absent, so unreported)
_MALFORMED = {
    "adc": (
        "designer,year,sampling_frequency,bit_precision,dissipated_power_w,source,reference\n"
        "Acme,20x4,3 GSPS,6,1.1,market,\n"
        "Acme,2024,,6,1.1,market,\n"
        "Acme,2024,3 ns,6,1.1,market,\n"
        "Acme,2024,3 GSPS,six,1.1,market,\n"
        "Acme,-,3 GSPS,6,-,market,\n"
        "Acme,2024,3 GSPS,6,5 ns,market,\n"
        "Acme,2024,3 GSPS,6,lots,market,\n",
        "line 2: invalid literal for int() with base 10: '20x4'; "
        f"line 3: invalid quantity '': {_BAD_QUANTITY}; "
        "line 4: '3 ns' is a time, expected a frequency; "
        "line 5: invalid literal for int() with base 10: 'six'; "
        "line 7: '5 ns' is a time, expected a power; "
        f"line 8: invalid quantity 'lots': {_BAD_QUANTITY}",
    ),
    "channel": (
        "name,sight,rms_delay_spread\n"
        "Lab,LOS,\n"
        "Lab,LOS,5 GHz\n"
        "Lab,LOS,5\n",
        f"line 2: invalid quantity '': {_BAD_QUANTITY}; "
        "line 3: '5 GHz' is a frequency, expected a time; "
        f"line 4: invalid quantity '5': {_BAD_QUANTITY}",
    ),
    "pulse_generator": (
        "year,author,technology,min_pulse_duration,max_pulse_duration,reference\n"
        "-,Kim,CMOS,380 ps,4 ns,\n"
        "2006,Kim,CMOS,380 ps,-,\n"
        "2006,Kim,CMOS,380 ps,4 GHz,\n"
        "2006,Kim,CMOS,-,4 ns,\n",
        "line 2: invalid literal for int() with base 10: '-'; "
        "line 4: '4 GHz' is a frequency, expected a time; "
        f"line 5: invalid quantity '-': {_BAD_QUANTITY}",
    ),
    "antenna": (
        "band,tx_beamwidth_deg,rx_beamwidth_deg,rms_delay_spread\n"
        "UWB_60GHz,wide,60,3 ns\n"
        "UWB_60GHz,60,,3 ns\n"
        "UWB_60GHz,60,60,-\n",
        "line 2: could not convert string to float: 'wide'; "
        "line 3: could not convert string to float: ''; "
        f"line 4: invalid quantity '-': {_BAD_QUANTITY}",
    ),
}


@pytest.mark.parametrize("schema", sorted(_MALFORMED))
def test_ingest_reports_each_malformed_cell_in_full(tmp_path, schema):
    text, problems = _MALFORMED[schema]
    path = tmp_path / f"{schema}.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as excinfo:
        ingest_csv(path, schema)
    assert str(excinfo.value) == f"{path}: {problems}"


def test_ingest_rejects_wrong_header(tmp_path):
    path = tmp_path / "chan.csv"
    path.write_text("name,rms_delay_spread\nLab,5 ns\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="header mismatch"):
        ingest_csv(path, CHANNELS)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_csv(tmp_path / "nope.csv", "channel")


def test_ingest_accepts_builtin_table_ids(tmp_path):
    path = tmp_path / "chan.csv"
    path.write_text(to_csv(load_builtin(CHANNELS)), encoding="utf-8")
    assert ingest_csv(path, CHANNELS) == load_builtin(CHANNELS)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def test_query_frequency_thresholds():
    market = load_builtin(ADC_MARKET)
    fast = query(market, where="sampling_frequency>=2GSPS")
    assert len(fast) == 5  # e2v 2, e2v 2.2, Maxim 2.2, National 3, e2v 5
    assert [e.sampling_frequency for e in fast] == [2e9, 2.2e9, 2.2e9, 3e9, 5e9]
    assert len(query(market, where="sampling_frequency>=1GSPS")) == 9


def test_query_by_sight():
    nlos = query(load_builtin(CHANNELS), where="sight=NLOS")
    assert len(nlos) == 5
    assert all(c.sight == NLOS for c in nlos)


def test_query_min_selects_shortest_pulse():
    (entry,) = query(load_builtin(PULSE_GENERATORS), min_by="min_pulse_duration")
    assert entry.author == "Deparis et al."
    assert entry.min_pulse_duration == 50e-12


def test_query_max_selects_fastest_adc():
    (entry,) = query(load_builtin(ADC_STATE_OF_ART), max_by="sampling_frequency")
    assert entry.designer == "J. Lee et al."
    assert entry.sampling_frequency == 10e9


def test_query_where_then_min():
    (entry,) = query(
        load_builtin(ADC_MARKET),
        where="sampling_frequency>=2GSPS",
        min_by="sampling_frequency",
    )
    assert entry.sampling_frequency == 2e9


def test_query_none_fields_never_match_or_win():
    market = load_builtin(ADC_MARKET)
    powered = query(market, where="dissipated_power>=0")
    assert len(powered) == 12  # 16 minus the four blank Maxim cells
    (greediest,) = query(market, max_by="dissipated_power")
    assert greediest.designer == "Analog Device"


def test_query_preserves_order():
    market = load_builtin(ADC_MARKET)
    subset = query(market, where="sampling_frequency>=500MSPS")
    positions = [market.index(e) for e in subset]
    assert positions == sorted(positions)


def test_query_unknown_field_and_bad_predicate():
    channels = load_builtin(CHANNELS)
    with pytest.raises(ValueError, match="unknown field"):
        query(channels, where="speed>=3")
    with pytest.raises(ValueError, match="unknown field"):
        query(channels, min_by="speed")
    with pytest.raises(ValueError, match="cannot parse predicate"):
        query(channels, where="sight NLOS")
    with pytest.raises(ValueError, match="cannot compare"):
        query(channels, where="name>=17ns")


@pytest.mark.parametrize("literal", ("nan", "inf", "-Infinity", "1e999"))
def test_query_rejects_a_non_finite_number(literal):
    where = f"rms_delay_spread>={literal}"
    with pytest.raises(ValueError, match=re.escape(repr(where))):
        query(load_builtin(CHANNELS), where=where)
