import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import uwbcap.capacity as cap
from uwbcap import explorer
from uwbcap.errors import DomainError
from uwbcap.explorer import (
    TABLE_IV_GOLDEN,
    TABLE_VII_GOLDEN,
    SweepSpec,
    SweepTable,
    check_table_iv,
    check_table_vii,
    default_bandwidth_sweep,
    default_circuit_sweep,
    default_sampling_sweep,
    emit_csv,
    emit_csv_string,
    emit_human,
    emit_json,
    market_capacity_points,
    reproduce_table_iv,
    reproduce_table_vii,
    rows_to_dicts,
    run_sweep,
)


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


def spread(ns):
    return cap.DelaySpread(ns * 1e-9)


# ---------------------------------------------------------------------------
# golden tables
# ---------------------------------------------------------------------------

class TestTableIv:
    def test_matches_printed_values(self):
        rows = reproduce_table_iv()
        assert len(rows) == 9
        for row, (env, d_ns, fs_gsps, n, printed) in zip(rows, TABLE_IV_GOLDEN):
            assert row.environment == env
            assert rel(row.rms_delay_spread_s, d_ns * 1e-9) <= 1e-12
            assert row.frequency_hz == fs_gsps * 1e9
            assert row.sampling_factor == n
            assert row.modulation_order == 2
            assert rel(row.capacity_mbit_s, printed) <= 1e-6

    def test_industrial_los_reaches_90_mbit(self):
        rows = {(r.environment, r.frequency_hz): r for r in reproduce_table_iv()}
        assert rel(rows[("Industrial LOS", 2e9)].capacity_mbit_s, 90.90909091) <= 1e-6
        assert rel(rows[("Residential LOS", 5e9)].capacity_mbit_s, 56.17977528) <= 1e-6
        assert rel(rows[("Industrial NLOS", 10e9)].capacity_mbit_s, 11.18568233) <= 1e-6

    def test_rows_agree_with_direct_model_calls(self):
        for row in reproduce_table_iv():
            direct = cap.mostly_digital_capacity(
                cap.SamplingConfig(row.frequency_hz, row.sampling_factor),
                cap.DelaySpread(row.rms_delay_spread_s),
            )
            assert rel(row.capacity_mbit_s, direct.rate / 1e6) <= 1e-12

    def test_check_passes_and_detects_mismatch(self, monkeypatch):
        assert check_table_iv() == []
        tampered = (("Residential LOS", 17.0, 2.0, 4.0, 52.64),) + TABLE_IV_GOLDEN[1:]
        monkeypatch.setattr("uwbcap.explorer.TABLE_IV_GOLDEN", tampered)
        problems = check_table_iv()
        assert len(problems) == 1 and "Residential LOS" in problems[0]

    @pytest.mark.parametrize(
        "entry, quantity",
        [
            # the reproduction runs at the fixture's F_s: a wrong one moves
            # the capacity away from the printed value
            (("Residential LOS", 17.0, 2.5, 4.0, 52.63157895), "capacity"),
            (("Residential LOS", 17.0, 2.0, 2.0, 52.63157895), "capacity"),
            (("Residential LOS", 18.0, 2.0, 4.0, 52.63157895), "d_RMS"),
        ],
        ids=["fs", "n", "d_rms"],
    )
    def test_check_reads_every_operating_point_from_the_fixture(
        self, monkeypatch, entry, quantity
    ):
        monkeypatch.setattr("uwbcap.explorer.TABLE_IV_GOLDEN", (entry,) + TABLE_IV_GOLDEN[1:])
        problems = check_table_iv()
        assert len(problems) == 1
        assert problems[0].startswith(f"Residential LOS at {entry[2]:g} GSPS: {quantity}")

    def test_deterministic_across_runs(self):
        assert reproduce_table_iv() == reproduce_table_iv()


class TestTableVii:
    def test_matches_printed_values(self):
        rows = reproduce_table_vii()
        assert len(rows) == 30
        for index, golden in enumerate(TABLE_VII_GOLDEN):
            d_ns, author, bandwidth_ghz, *printed = golden
            group = rows[3 * index : 3 * index + 3]
            assert [r.modulation_order for r in group] == [2, 3, 4]
            for row in group:
                assert rel(row.rms_delay_spread_s, d_ns * 1e-9) <= 1e-12
                assert author in row.environment
                assert rel(row.frequency_hz / 1e9, bandwidth_ghz) <= 5e-3
            for row, value in zip(group, printed):
                assert rel(row.capacity_mbit_s, value) <= 5e-3

    def test_mary_columns_scale_by_m_minus_one(self):
        # exact on the bit/s rates; the Mbit/s conversion may cost an ulp
        rows = reproduce_table_vii()
        for i in range(0, 30, 3):
            binary, ternary, m4 = rows[i : i + 3]
            assert rel(ternary.capacity_mbit_s, 2.0 * binary.capacity_mbit_s) <= 1e-15
            assert rel(m4.capacity_mbit_s, 3.0 * binary.capacity_mbit_s) <= 1e-15

    def test_rows_agree_with_direct_model_calls(self):
        for row in reproduce_table_vii():
            direct = cap.mixed_capacity(
                cap.CircuitFrequency(row.frequency_hz),
                cap.DelaySpread(row.rms_delay_spread_s),
                cap.ModulationScheme(row.modulation_order),
            )
            assert rel(row.capacity_mbit_s, direct.rate / 1e6) <= 1e-12

    def test_check_passes_and_detects_mismatch(self, monkeypatch):
        assert check_table_vii() == []
        tampered = ((17.0, "Kim et al.", 2.63, 60.0, 115.07, 172.61),) + TABLE_VII_GOLDEN[1:]
        monkeypatch.setattr("uwbcap.explorer.TABLE_VII_GOLDEN", tampered)
        problems = check_table_vii()
        assert len(problems) == 1 and "Kim et al." in problems[0]

    def test_check_reads_each_generator_from_the_fixture(self, monkeypatch):
        tampered = ((17.0, "Badalawa et al.", 2.63, 57.54, 115.07, 172.61),) + TABLE_VII_GOLDEN[1:]
        monkeypatch.setattr("uwbcap.explorer.TABLE_VII_GOLDEN", tampered)
        problems = check_table_vii()
        # the 4.46 GHz generator: its bandwidth and all three capacities
        assert len(problems) == 4
        assert problems[0].startswith("Badalawa et al. at 17 ns: bandwidth (GHz) 4.464285714")

    def test_check_compares_the_delay_spread(self, monkeypatch):
        printed = (0.9, "Deparis et al.", 20.00, 1086.96, 2173.91, 3260.87)
        tampered = TABLE_VII_GOLDEN[:-1] + (printed,)
        monkeypatch.setattr("uwbcap.explorer.TABLE_VII_GOLDEN", tampered)
        assert check_table_vii() == [
            "Deparis et al. at 0.9 ns: d_RMS (ns) 0.87 vs printed 0.9 (relative error 0.0333)"
        ]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def digital_spec(**overrides):
    base = dict(
        mode=cap.MOSTLY_DIGITAL,
        swept_parameter="sampling_frequency",
        start_hz=1e8,
        stop_hz=1e11,
        points=40,
        delay_spreads=(spread(9), spread(17), spread(89)),
        sampling_factors=(2.0, 4.0),
        outputs=("capacity", "derivative", "percent_of_max"),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpecValidation:
    def test_mode_parameter_pairing(self):
        with pytest.raises(ValueError, match="sweeps sampling_frequency"):
            digital_spec(swept_parameter="bandwidth")
        with pytest.raises(ValueError, match="mode must be"):
            digital_spec(mode="analog")

    def test_grid_invariants(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            digital_spec(points=1)
        with pytest.raises(ValueError, match="start_hz < stop_hz"):
            digital_spec(start_hz=1e11, stop_hz=1e8)
        with pytest.raises(ValueError, match="spacing"):
            digital_spec(spacing="cubic")

    def test_rows_are_bounded_before_any_allocation(self, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("allocated")

        for name in ("geomspace", "linspace", "empty", "array"):
            monkeypatch.setattr(np, name, allocate)
        monkeypatch.setattr(cap, "capacity_grid", allocate)
        # 3 delay spreads x 2 sampling factors: 6 rows per point
        with pytest.raises(ValueError, match=r"^points = 1666667 gives 10000002 sweep rows, over 10000000$"):
            digital_spec(points=10**7 // 6 + 1)
        digital_spec(points=10**7 // 6)  # at the bound: accepted, not run

    def test_grid_past_the_largest_float_names_the_range(self):
        spec = SweepSpec(
            mode=cap.MIXED, swept_parameter="circuit_frequency",
            start_hz=1.797693134862315e308, stop_hz=1.7976931348623157e308, points=55,
            delay_spreads=(spread(1),),
        )
        with pytest.raises(ValueError, match=r"from 1\.797693134862315e\+308 Hz to "
                           r"1\.7976931348623157e\+308 Hz overflows"):
            spec.grid()

    def test_delay_spreads_required_and_typed(self):
        with pytest.raises(ValueError, match="at least one delay spread"):
            digital_spec(delay_spreads=())
        with pytest.raises(ValueError, match="DelaySpread"):
            digital_spec(delay_spreads=(17e-9,))

    def test_sampling_factor_rules(self):
        with pytest.raises(ValueError, match="sampling factor"):
            digital_spec(sampling_factors=())
        with pytest.raises(ValueError, match="mostly_digital sweeps only"):
            SweepSpec(
                mode="binary",
                swept_parameter="bandwidth",
                start_hz=1e8,
                stop_hz=1e10,
                points=5,
                delay_spreads=(spread(9),),
                sampling_factors=(4.0,),
            )

    def test_snr_applies_to_ideal_sweeps_only(self):
        with pytest.raises(ValueError, match="snr applies to ideal sweeps only"):
            digital_spec(snr=cap.SnrValue(3.0))

    def test_output_rules(self):
        with pytest.raises(ValueError, match="outputs"):
            digital_spec(outputs=())
        with pytest.raises(ValueError, match="outputs"):
            digital_spec(outputs=("capacity", "slope"))
        with pytest.raises(ValueError, match="ideal mode"):
            SweepSpec(
                mode="ideal",
                swept_parameter="bandwidth",
                start_hz=1e8,
                stop_hz=1e10,
                points=5,
                delay_spreads=(spread(9),),
                outputs=("derivative",),
            )


class TestRunSweep:
    def test_row_count_is_grid_cardinality(self):
        assert len(run_sweep(digital_spec())) == 40 * 3 * 2
        two_point = SweepSpec(
            mode="binary",
            swept_parameter="bandwidth",
            start_hz=1e9,
            stop_hz=2e9,
            points=2,
            delay_spreads=(spread(17),),
        )
        assert len(run_sweep(two_point)) == 2

    def test_blocks_are_monotone(self):
        rows = run_sweep(digital_spec())
        by_block = {}
        for row in rows:
            by_block.setdefault(
                (row.rms_delay_spread_s, row.sampling_factor), []
            ).append(row)
        assert len(by_block) == 6
        for block in by_block.values():
            frequencies = [r.frequency_hz for r in block]
            capacities = [r.capacity_bit_s for r in block]
            derivatives = [r.derivative_bit_s_per_hz for r in block]
            percents = [r.percent_of_max for r in block]
            assert frequencies == sorted(frequencies)
            assert all(a < b for a, b in zip(capacities, capacities[1:]))
            assert all(a > b for a, b in zip(derivatives, derivatives[1:]))
            assert all(a < b for a, b in zip(percents, percents[1:]))

    def test_capacity_bounded_by_asymptote(self):
        for row in run_sweep(digital_spec()):
            assert 0.0 < row.capacity_bit_s < 1.0 / row.rms_delay_spread_s
            assert 0.0 < row.percent_of_max < 1.0

    def test_capacity_is_bit_identical_with_direct_call(self):
        spec = digital_spec(start_hz=2e9, stop_hz=2e10, points=2)
        rows = run_sweep(spec)
        reference = rows[0]
        assert reference.frequency_hz == 2e9
        direct = cap.mostly_digital_capacity(
            cap.SamplingConfig(2e9, reference.sampling_factor), spread(9)
        ).rate
        assert reference.capacity_bit_s == direct

    def test_table_iv_point_appears_in_sweep(self):
        spec = digital_spec(
            start_hz=2e9, stop_hz=2e10, points=2,
            delay_spreads=(spread(17),), sampling_factors=(4.0,),
        )
        first = run_sweep(spec)[0]
        assert rel(first.capacity_bit_s / 1e6, 52.63157895) <= 1e-6

    def test_mixed_sweep_percent_at_5ghz(self):
        spec = SweepSpec(
            mode=cap.MIXED,
            swept_parameter="circuit_frequency",
            start_hz=1e9,
            stop_hz=60e9,
            points=60,
            spacing="linear",
            delay_spreads=(spread(1), spread(5), spread(10)),
            outputs=("capacity", "percent_of_max"),
        )
        rows = run_sweep(spec)
        assert len(rows) == 180
        at_5 = [
            r for r in rows if r.frequency_hz == 5e9 and r.rms_delay_spread_s == 10e-9
        ]
        assert len(at_5) == 1
        assert rel(at_5[0].percent_of_max, float(Fraction(50, 51))) <= 1e-12
        for row in rows:
            assert row.capacity_bit_s < 1.0 / row.rms_delay_spread_s

    def test_binary_and_ideal_default_snr_agree(self):
        kwargs = dict(
            swept_parameter="bandwidth",
            start_hz=1e9,
            stop_hz=1e10,
            points=8,
            delay_spreads=(spread(9),),
            outputs=("capacity",),
        )
        binary_rows = run_sweep(SweepSpec(mode="binary", **kwargs))
        ideal_rows = run_sweep(SweepSpec(mode="ideal", **kwargs))
        for b, i in zip(binary_rows, ideal_rows):
            assert rel(b.capacity_bit_s, i.capacity_bit_s) <= 1e-12

    def test_ideal_snr15_doubles_binary(self):
        kwargs = dict(
            swept_parameter="bandwidth",
            start_hz=1e9,
            stop_hz=1e10,
            points=8,
            delay_spreads=(spread(9),),
            outputs=("capacity",),
        )
        binary_rows = run_sweep(SweepSpec(mode="binary", **kwargs))
        ideal_rows = run_sweep(SweepSpec(mode="ideal", snr=cap.SnrValue(15.0), **kwargs))
        for b, i in zip(binary_rows, ideal_rows):
            assert rel(i.capacity_bit_s, 2.0 * b.capacity_bit_s) <= 1e-12

    def test_percent_with_zero_spread_propagates_domain_error(self):
        spec = SweepSpec(
            mode=cap.MIXED,
            swept_parameter="circuit_frequency",
            start_hz=1e9,
            stop_hz=1e10,
            points=4,
            delay_spreads=(cap.DelaySpread(0.0),),
            outputs=("percent_of_max",),
        )
        with pytest.raises(DomainError):
            run_sweep(spec)

    def test_default_sweeps_run(self):
        assert len(run_sweep(default_bandwidth_sweep(points=10))) == 30
        assert len(run_sweep(default_sampling_sweep(points=10))) == 60
        assert len(run_sweep(default_circuit_sweep(points=10))) == 30


# ---------------------------------------------------------------------------
# survey converters vs environments
# ---------------------------------------------------------------------------

class TestMarketCapacityPoints:
    def test_full_cartesian_product(self):
        points = market_capacity_points()
        assert len(points) == (17 + 16) * 9

    def test_reference_points(self):
        points = market_capacity_points()
        e2v5 = [
            p for p in points
            if p.designer == "e2v"
            and p.sampling_frequency_hz == 5e9
            and p.environment == "Residential LOS"
        ]
        assert len(e2v5) == 1
        assert rel(e2v5[0].capacity_mbit_s, 56.17977528) <= 1e-6

        (nat3,) = [
            p for p in points
            if p.designer == "National Semiconductor"
            and p.sampling_frequency_hz == 3e9
            and p.environment == "Industrial LOS"
        ]
        # independent arithmetic: 1 / (4/3 GHz^-1 + 9 ns)
        expected = 1.0 / float(Fraction(4, 3 * 10**9) + Fraction(9, 10**9))
        assert rel(nat3.capacity_mbit_s, expected / 1e6) <= 1e-9

    def test_bounded_by_asymptote(self):
        for point in market_capacity_points():
            assert point.capacity_mbit_s * 1e6 < 1.0 / point.rms_delay_spread_s

    def test_environment_subset(self):
        from uwbcap.datasets import CHANNELS, load_builtin, query

        los = query(load_builtin(CHANNELS), where="sight=LOS")
        points = market_capacity_points(environments=los)
        assert len(points) == 33 * 4


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

class TestEmission:
    def test_csv_header_and_precision(self):
        spec = digital_spec(
            start_hz=2e9, stop_hz=2e10, points=2,
            delay_spreads=(spread(17),), sampling_factors=(4.0,),
        )
        text = emit_csv_string(run_sweep(spec))
        lines = text.strip().splitlines()
        assert lines[0] == (
            "frequency_hz,rms_delay_spread_s,sampling_factor,"
            "capacity_bit_s,derivative_bit_s_per_hz,percent_of_max"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "2000000000"
        assert first[3] == "52631578.95"  # ten significant digits

    def test_csv_parses_with_stdlib_reader(self):
        import csv

        text = emit_csv_string(reproduce_table_iv())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 9
        assert rows[0]["environment"] == "Residential LOS"
        assert float(rows[0]["capacity_mbit_s"]) == pytest.approx(52.63157895)

    def test_json_round_trip_and_rounding(self):
        buffer = io.StringIO()
        emit_json(reproduce_table_iv(), buffer)
        rows = json.loads(buffer.getvalue())
        assert len(rows) == 9
        assert rows[3]["environment"] == "Industrial LOS"
        value = rows[3]["capacity_mbit_s"]
        assert value == float(f"{90.90909090909092:.10g}")

    def test_scenario_rows_omit_absent_sampling_factor(self):
        dicts = rows_to_dicts(reproduce_table_vii())
        assert all("sampling_factor" not in d for d in dicts)
        dicts = rows_to_dicts(reproduce_table_iv())
        assert all(d["sampling_factor"] == 4.0 for d in dicts)

    def test_emit_csv_stream(self):
        buffer = io.StringIO()
        emit_csv(market_capacity_points()[:5], buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0].startswith("designer,source,sampling_frequency_hz")
        assert len(lines) == 6


_TOKEN_EXAMPLES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308,
    *(float("1234567890123456"[:digits]) for digits in range(1, 17)),
    *(float(f"1e{exponent}") for exponent in range(9, 18)),
    *(float(f"-1.5e{exponent}") for exponent in range(9, 18)),
)


def with_token_examples(test):
    for value in _TOKEN_EXAMPLES:
        test = example(value)(test)
    return test


class TestTokenRule:
    """The JSON token of a float array, read off its 10-digit text, is what
    json.dumps writes for the 10-digit rounding of each value."""

    @with_token_examples
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_token_is_json_of_the_ten_digit_rounding(self, value):
        rounded = float("{:.10g}".format(value))
        expected = json.dumps(rounded) if math.isfinite(rounded) else explorer._json_cell(value)
        assert explorer._json_floats(np.array([value])) == [expected]
        assert explorer._json_floats(np.array([value, 1.5])) == [expected, "1.5"]

    @with_token_examples
    @given(st.floats())
    def test_percent_and_format_texts_agree(self, value):
        assert "%.10g" % value == "{:.10g}".format(value)
        assert explorer._human_floats(np.array([value])) == ["{:.10g}".format(value)]


# values near a nonzero integer, on both sides of the 1e-9 relative margin
# and of the half-unit-in-the-tenth-digit rounding step
_near_integers = st.builds(
    lambda k, e: k * (1.0 + e), st.integers(-(10**10), 10**10), st.floats(-3e-9, 3e-9)
)


class TestPlainColumns:
    """A float array ``_plain`` passes writes each JSON token as its
    ``%.10g`` text."""

    @pytest.mark.filterwarnings("error")
    @given(st.floats() | _near_integers)
    @example(0.99999999996)
    @example(999999999.5)
    @example(9.99999999995e-5)
    @example(123456789.04)
    @example(5e-324)
    @example(-0.0)
    @example(math.inf)
    @example(math.nan)
    def test_plain_values_are_their_ten_digit_text(self, value):
        if explorer._plain(np.array([value])):
            assert "%.10g" % value == json.dumps(float("{:.10g}".format(value)))
        assert explorer._plain(np.array([value, 0.5])) == explorer._plain(np.array([value]))

    def test_examples_on_both_sides(self):
        assert explorer._plain(np.array([0.5, -1e-5, 123456789.4, 2.2250738585072014e-308]))
        for value in (0.99999999996, 999999999.5, 123456789.04, 5e-324, -0.0, 0.0, 3.0,
                      math.inf, math.nan):
            assert not explorer._plain(np.array([0.5, value]))


def stdlib_csv(dicts) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(dicts[0]), lineterminator="\n")
    writer.writeheader()
    for row in dicts:
        writer.writerow({k: (f"{v:.10g}" if isinstance(v, float) else v) for k, v in row.items()})
    return buffer.getvalue()


def stdlib_json(dicts) -> str:
    rounded = [
        {k: (float(f"{v:.10g}") if isinstance(v, float) else v) for k, v in row.items()}
        for row in dicts
    ]
    return json.dumps(rounded, indent=2) + "\n"


# The CLI's dict-per-row table writer before emit_human, kept as the
# reference for the human format's bytes.
def _human_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _human_table(rows, stream) -> None:
    dicts = explorer.rows_to_dicts(rows)
    if not dicts:
        return
    headers = list(dicts[0])
    cells = [[_human_cell(v) for v in row.values()] for row in dicts]
    widths = [
        max(len(h), *(len(line[i]) for line in cells)) for i, h in enumerate(headers)
    ]
    stream.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for line in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n")


def stdlib_human(rows) -> str:
    buffer = io.StringIO()
    _human_table(rows, buffer)
    return buffer.getvalue()


class TestColumnarEmission:
    """The chunked column formatter writes what csv.DictWriter and
    json.dump(indent=2) write for the same rows."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr("uwbcap.explorer._CHUNK_ROWS", 3)

    def emitted(self, rows):
        out = io.StringIO()
        emit_json(rows, out)
        return emit_csv_string(rows), out.getvalue()

    def test_table_with_repeated_signed_and_nonfinite_values(self):
        table = SweepTable({
            "frequency_hz": np.array([1e9, 2.5e9, 1e9, 2.5e9, 1e9, 2.5e9, 1e9]),
            "rms_delay_spread_s": np.array([0.0, 0.0, -0.0, -0.0, 17e-9, 17e-9, 17e-9]),
            "capacity_bit_s": np.array(
                [1 / 3, 2 / 3, math.inf, -math.inf, math.nan, 1e-320, 123456789012.0]
            ),
        })
        dicts = rows_to_dicts(table)
        assert self.emitted(table) == (stdlib_csv(dicts), stdlib_json(dicts))

    def test_table_with_repeating_and_distinct_columns(self):
        # chunks of 3 rows cut the runs of the repeating columns and the
        # all-distinct ones alike
        table = SweepTable({
            "frequency_hz": np.tile([1e9, 2.5e10, 1e15, 3e16], 2),
            "rms_delay_spread_s": np.repeat([1e-9, 17e-9], 4),
            "capacity_bit_s": np.array(
                [1 / 3, 2e10, -123456789012.0, 1e15, 1.5e16, 1234567890.0, 0.0, -0.0]
            ),
            # JSON fills a %.10g field with these, as CSV does
            "derivative_bit_s_per_hz": np.array(
                [0.5, -1e-5, 3.3e-300, 123.456, -99999999.4, 1 / 3, 2.5e-7, 0.99999999]
            ),
            "percent_of_max": np.array([0.5, 1e-5, 99.99999999, 12.0, 1e-300, 7e22, 1e9, -3.0]),
        })
        assert explorer._plain(table.columns["derivative_bit_s_per_hz"])
        dicts = rows_to_dicts(table)
        assert self.emitted(table) == (stdlib_csv(dicts), stdlib_json(dicts))
        assert self.human(table) == stdlib_human(table)

    def test_row_list_with_text_needing_quotes(self):
        rows = [
            {"name": 'a, "quoted"\nname', "value": 1 / 3, "count": 2,
             "asymptote": math.inf, "notes": ""},
            {"name": "plain", "value": -0.0, "count": 3,
             "asymptote": "unbounded", "notes": "x; y"},
        ] * 2
        assert self.emitted(rows) == (stdlib_csv(rows), stdlib_json(rows))

    def test_largest_floats_stay_finite_in_json(self):
        # 10-digit rounding takes these past the largest float, to inf
        big = [1.7976931348623157e308, -1.7976931346e308, 1.7976931344e308]
        table = SweepTable({"frequency_hz": np.array(big)})
        rows = [{"frequency_hz": value} for value in big]
        for emitted in (self.emitted(table)[1], self.emitted(rows)[1]):
            values = [row["frequency_hz"] for row in json.loads(emitted)]
            assert values == [1.7976931348623157e308, -1.7976931346e308, 1.797693134e308]

    def test_empty_row_list(self):
        assert self.emitted([]) == ("", "[]\n")

    def human(self, rows) -> str:
        out = io.StringIO()
        emit_human(rows, out)
        return out.getvalue()

    def test_human_rows_match_the_dict_table_writer(self):
        rows = [
            {"name": "with spaces, and commas", "value": 1 / 3, "count": 2,
             "missing": None, "blank": ""},
            {"name": "x", "value": -0.0, "count": -17, "missing": math.inf, "blank": ""},
            {"name": "", "value": math.nan, "count": 10**20, "missing": None, "blank": ""},
            {"name": "subnormal", "value": 5e-324, "count": 0, "missing": -math.inf,
             "blank": ""},
        ] * 2
        assert self.human(rows) == stdlib_human(rows)
        assert self.human(reproduce_table_vii()) == stdlib_human(reproduce_table_vii())
        assert self.human([]) == stdlib_human([]) == ""

    def test_human_table_matches_the_dict_table_writer(self):
        table = SweepTable({
            "frequency_hz": np.array([1e9, 2.5e9, 1e9, 2.5e9, 1e9, 2.5e9, 1e9]),
            "rms_delay_spread_s": np.array([0.0, 0.0, -0.0, -0.0, 17e-9, 17e-9, 17e-9]),
            "capacity_bit_s": np.array(
                [1 / 3, 2 / 3, math.inf, -math.inf, math.nan, 1e-320, 123456789012.0]
            ),
        })
        assert self.human(table) == stdlib_human(table)


def test_human_table_holds_one_chunk_of_cells():
    import os
    import tracemalloc

    # a 20k-row sweep: the human table once held every cell to size its
    # columns, 3.4 times the CSV peak at 60k rows
    table = run_sweep(digital_spec(points=5000, delay_spreads=(spread(9), spread(17))))
    assert len(table) == 20000
    peaks = {}
    with open(os.devnull, "w") as sink:
        for emit in (emit_csv, emit_human):
            tracemalloc.start()
            try:
                emit(table, sink)
                peaks[emit] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[emit_human] <= 2 * peaks[emit_csv]
