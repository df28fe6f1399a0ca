import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uwbcap
from uwbcap.cli import main
from uwbcap.datasets import CHANNELS, TABLE_IDS, ingest_csv, load_builtin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

class TestCapacityCommand:
    def test_digital_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "capacity", "digital",
            "--fs", "2GSPS", "--nsampling", "4", "--delay-spread", "17ns",
        )
        assert code == 0
        assert "52.63157895 Mbit/s" in out

    def test_mixed_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "capacity", "mixed",
            "--fcircuit", "20GHz", "--delay-spread", "0.87ns",
        )
        assert code == 0
        assert "1086.956522 Mbit/s" in out

    def test_binary_zero_spread(self, capsys):
        code, out, _ = run(
            capsys, "capacity", "binary",
            "--bandwidth", "1GHz", "--delay-spread", "0s",
        )
        assert code == 0
        assert "1000 Mbit/s" in out
        assert "unbounded" in out

    def test_cli_adds_no_arithmetic(self, capsys):
        from uwbcap.capacity import DelaySpread, SamplingConfig, mostly_digital_capacity

        payload = run_json(
            capsys, "capacity", "digital",
            "--fs", "5GSPS", "--nsampling", "4", "--delay-spread", "9ns",
        )
        direct = mostly_digital_capacity(SamplingConfig(5e9, 4.0), DelaySpread(9e-9))
        assert payload["rate_bit_s"] == direct.rate
        assert payload["limiting_asymptote_bit_s"] == direct.limiting_asymptote

    def test_ideal_defaults_to_binary_working_point(self, capsys):
        ideal = run_json(
            capsys, "capacity", "ideal",
            "--bandwidth", "2GHz", "--delay-spread", "17ns",
        )
        binary = run_json(
            capsys, "capacity", "binary",
            "--bandwidth", "2GHz", "--delay-spread", "17ns",
        )
        assert math.isclose(ideal["rate_bit_s"], binary["rate_bit_s"], rel_tol=1e-12)

    def test_ideal_low_snr_is_annotated(self, capsys):
        payload = run_json(
            capsys, "capacity", "ideal",
            "--bandwidth", "2GHz", "--delay-spread", "17ns", "--snr-db", "0",
        )
        assert any("3 dB" in note for note in payload["notes"])

    def test_mary_flag_scales_capacity(self, capsys):
        base = run_json(
            capsys, "capacity", "mixed",
            "--fcircuit", "10.87GHz", "--delay-spread", "7.718ns",
        )
        ternary = run_json(
            capsys, "capacity", "mixed",
            "--fcircuit", "10.87GHz", "--delay-spread", "7.718ns", "--mary", "3",
        )
        assert ternary["rate_bit_s"] == 2.0 * base["rate_bit_s"]
        log2 = run_json(
            capsys, "capacity", "mixed",
            "--fcircuit", "10.87GHz", "--delay-spread", "7.718ns",
            "--mary", "4", "--mary-convention", "log2",
        )
        assert log2["rate_bit_s"] == 2.0 * base["rate_bit_s"]

    def test_csv_format_single_row(self, capsys):
        code, out, _ = run(
            capsys, "capacity", "digital",
            "--fs", "2GSPS", "--delay-spread", "17ns", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["rate_mbit_s"] == "52.63157895"

    def test_bare_number_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["capacity", "digital", "--fs", "2000000000", "--delay-spread", "17ns"])
        assert excinfo.value.code == 2
        assert "--fs" in capsys.readouterr().err

    def test_wrong_dimension_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["capacity", "digital", "--fs", "2GSPS", "--delay-spread", "2GHz"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["capacity", "digital", "--delay-spread", "17ns"])
        assert excinfo.value.code == 2
        assert "--fs" in capsys.readouterr().err

    def test_nyquist_floor_violation_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "capacity", "digital",
            "--fs", "2GSPS", "--nsampling", "1", "--delay-spread", "17ns",
        )
        assert code == 2
        assert "sampling_factor" in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("ideal", "--bandwidth", "2GHz", "--delay-spread", "17ns", "--snr-db", "4000"),
             "SNR"),
            (("ideal", "--bandwidth", "2GHz", "--delay-spread", "17ns", "--snr-linear", "inf"),
             "SNR"),
            (("ideal", "--bandwidth", "2GHz", "--delay-spread", "17ns", "--snr-linear", "nan"),
             "SNR"),
            (("digital", "--fs", "2GSPS", "--nsampling", "nan", "--delay-spread", "17ns"),
             "sampling_factor"),
            (("digital", "--fs", "2GSPS", "--nsampling", "inf", "--delay-spread", "17ns"),
             "sampling_factor"),
        ],
    )
    def test_non_finite_inputs_are_usage_errors(self, capsys, argv, field):
        code, out, err = run(capsys, "capacity", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and field in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("digital", "--fs", "2GSPS", "--delay-spread", "1e-320s"), "delay spread"),
            (("binary", "--bandwidth", "1e-320Hz", "--delay-spread", "1ns"), "bandwidth"),
            (("binary", "--pulse-duration", "1e-320s", "--delay-spread", "1ns"),
             "pulse duration"),
        ],
    )
    def test_subnormal_inputs_are_domain_errors(self, capsys, argv, field):
        code, out, err = run(capsys, "capacity", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"domain error: {field} 1e-320") and "overflows" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("capacity", "digital", "--fs", "1e400GSPS", "--delay-spread", "17ns"), "--fs"),
        (("capacity", "mixed", "--fcircuit", "10GHz", "--delay-spread", "1e400s"),
         "--delay-spread"),
        (("validate-isi", "--delay-spread", "9ns", "--pulse-duration", "1ns",
          "--tap-spacing", "1e400ns"), "--tap-spacing"),
    ],
)
def test_overflowing_quantity_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "overflows" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class TestSweepCommand:
    def test_reference_sweep_row_count(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--mode", "digital", "--param", "fs",
            "--from", "0.1GSPS", "--to", "100GSPS", "--points", "200", "--log",
            "--delay-spreads", "9ns,17ns,89ns", "--nsampling", "4",
            "--outputs", "capacity,derivative,percent", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 601  # header + 200 x 3
        assert lines[0].endswith("capacity_bit_s,derivative_bit_s_per_hz,percent_of_max")

    def test_table_iv_point_in_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--mode", "digital", "--param", "fs",
            "--from", "2GSPS", "--to", "20GSPS", "--points", "2", "--log",
            "--delay-spreads", "17ns", "--nsampling", "4", "--format", "csv",
        )
        assert code == 0
        first = out.strip().splitlines()[1].split(",")
        assert first[0] == "2000000000"
        assert first[3] == "52631578.95"

    def test_mixed_sweep_respects_asymptote(self, capsys):
        rows = run_json(
            capsys, "sweep", "--mode", "mixed", "--param", "fcircuit",
            "--from", "1GHz", "--to", "60GHz", "--points", "60", "--linear",
            "--delay-spreads", "1ns,5ns,10ns",
        )
        assert len(rows) == 180
        for row in rows:
            assert row["capacity_bit_s"] < 1.0 / row["rms_delay_spread_s"]

    def test_zero_spread_percent_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--mode", "mixed", "--param", "fcircuit",
            "--from", "1GHz", "--to", "10GHz", "--points", "4",
            "--delay-spreads", "0s", "--outputs", "percent",
        )
        assert code == 3
        assert "domain error" in err

    def test_digital_without_nsampling_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--mode", "digital", "--param", "fs",
            "--from", "1GSPS", "--to", "10GSPS", "--points", "4",
            "--delay-spreads", "9ns",
        )
        assert code == 2
        assert "sampling factor" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--mode", "ideal", "--param", "bandwidth", "--snr-db", "4000"),
            ("--mode", "digital", "--param", "fs", "--nsampling", "nan",
             "--outputs", "derivative"),
            ("--mode", "digital", "--param", "fs", "--nsampling", "4,inf",
             "--outputs", "percent"),
        ],
    )
    def test_non_finite_inputs_are_usage_errors(self, capsys, argv):
        code, out, err = run(
            capsys, "sweep", *argv,
            "--from", "1GHz", "--to", "10GHz", "--points", "4", "--delay-spreads", "9ns",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_mode_param_mismatch_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--mode", "binary", "--param", "fs",
            "--from", "1GHz", "--to", "10GHz", "--points", "4",
            "--delay-spreads", "9ns",
        )
        assert code == 2


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

class TestTableCommand:
    def test_table_iv_check_passes(self, capsys):
        code, out, err = run(capsys, "table", "iv", "--check")
        assert code == 0
        assert "match" in err
        assert "Residential LOS" in out

    def test_table_vii_check_passes(self, capsys):
        code, out, _ = run(capsys, "table", "vii", "--check")
        assert code == 0
        assert "Deparis" in out

    def test_unknown_table_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "ix"])
        assert excinfo.value.code == 2

    def test_check_failure_exits_one(self, capsys, monkeypatch):
        import uwbcap.explorer as explorer

        tampered = (("Residential LOS", 17.0, 2.0, 4.0, 99.0),) + explorer.TABLE_IV_GOLDEN[1:]
        monkeypatch.setattr(explorer, "TABLE_IV_GOLDEN", tampered)
        code, _, err = run(capsys, "table", "iv", "--check")
        assert code == 1
        assert "MISMATCH" in err

    def test_table_csv_output(self, capsys):
        code, out, _ = run(capsys, "table", "iv", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert rows[0]["capacity_mbit_s"] == "52.63157895"


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

class TestDatasetsCommand:
    def test_list_channels(self, capsys):
        code, out, _ = run(capsys, "datasets", "list", "channels")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10  # header + 9 environments
        assert "Industrial NLOS" in out

    def test_min_selector(self, capsys):
        code, out, _ = run(
            capsys, "datasets", "list", "pulse-generators", "--min", "min_pulse_duration"
        )
        assert code == 0
        assert "Deparis et al." in out
        assert out.strip().count("\n") == 1  # header + single row

    def test_where_filter(self, capsys):
        rows = run_json(
            capsys, "datasets", "list", "adc-market",
            "--where", "sampling_frequency>=1GSPS",
        )
        assert len(rows) == 9

    def test_csv_output_reingests_losslessly(self, capsys, tmp_path):
        path = tmp_path / "channels.csv"
        code, _, _ = run(
            capsys, "datasets", "list", "channels",
            "--format", "csv", "--output", str(path),
        )
        assert code == 0
        assert ingest_csv(path, CHANNELS) == load_builtin(CHANNELS)

    def test_unknown_field_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "datasets", "list", "channels", "--where", "speed>=3"
        )
        assert code == 2
        assert "unknown field" in err

    def test_non_finite_literal_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "datasets", "list", "channels", "--where", "rms_delay_spread>=nan"
        )
        assert code == 2
        assert out == ""
        assert "rms_delay_spread>=nan" in err

    def test_unknown_table_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["datasets", "list", "adcs"])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# validate-isi
# ---------------------------------------------------------------------------

class TestValidateIsiCommand:
    def test_reports_and_monotonicity(self, capsys):
        reports = run_json(
            capsys, "validate-isi",
            "--delay-spread", "9ns", "--pulse-duration", "0.25ns",
            "--guard-multiples", "1,3,5", "--trials", "200", "--seed", "42",
        )
        assert len(reports) == 3
        spills = [r["spill_fraction"] for r in reports]
        assert spills[0] > spills[1] > spills[2]

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "validate-isi", "--delay-spread", "9ns", "--pulse-duration", "0.25ns",
            "--guard-multiples", "1,3", "--trials", "50", "--seed", "42",
            "--format", "json",
        ]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert code == 0
        assert first == second

    def test_deterministic_nominal_spacing(self, capsys):
        reports = run_json(
            capsys, "validate-isi",
            "--delay-spread", "9ns", "--pulse-duration", "0.25ns",
            "--guard-multiples", "1", "--deterministic",
        )
        assert abs(reports[0]["spill_fraction"] - math.exp(-1)) / math.exp(-1) <= 0.2

    def test_infeasible_discretization_exits_three(self, capsys):
        code, _, err = run(
            capsys, "validate-isi",
            "--delay-spread", "9ns", "--pulse-duration", "0.25ns",
            "--tap-spacing", "5ns",
        )
        assert code == 3
        assert "domain error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--delay-spread", "0ns", "--pulse-duration", "1ns"),
            ("--delay-spread", "9ns", "--pulse-duration", "0ns"),
            ("--delay-spread", "9ns", "--pulse-duration", "1ns", "--guard-multiples", "1,nan"),
            ("--delay-spread", "9ns", "--pulse-duration", "1ns", "--guard-multiples=-1"),
            ("--delay-spread", "9ns", "--pulse-duration", "1ns", "--tap-spacing", "0ns"),
            # a symbol period T_p + k * d_RMS past the largest float
            ("--delay-spread", "7s", "--pulse-duration", "1s", "--guard-multiples", "2.6e307"),
            # tap powers past ~745 decay constants underflow to 0
            ("--delay-spread", "1ns", "--pulse-duration", "0.25ns", "--num-taps", "40000",
             "--deterministic"),
            # the default tap grid would exceed its cap (1.5e12 taps; inf)
            ("--delay-spread", "1ns", "--pulse-duration", "0.25ns", "--tap-spacing", "1e-20s",
             "--deterministic"),
            ("--delay-spread", "1ns", "--pulse-duration", "0.25ns", "--tap-spacing", "1e-320s",
             "--deterministic"),
        ],
    )
    def test_out_of_domain_inputs_exit_three_without_traceback(self, capsys, argv):
        code, out, err = run(capsys, "validate-isi", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("domain error:") and "Traceback" not in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "validate-isi",
            "--delay-spread", "9ns", "--pulse-duration", "0.25ns",
            "--guard-multiples", "1,2", "--trials", "10", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0]["guard_multiple"] == "1"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--trials", "0"), "trials must be >= 1"),
            (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
            (("--seed", "-1", "--deterministic"), "seed must be a non-negative integer, got -1"),
        ],
    )
    def test_bad_counts_exit_two_naming_the_input(self, capsys, argv, message):
        code, out, err = run(
            capsys, "validate-isi", "--delay-spread", "9ns", "--pulse-duration", "0.25ns", *argv
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


# numpy overflows inside these runs, but their output is right
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("sweep", "--mode", "mixed", "--param", "fcircuit", "--from", "1e300Hz",
             "--to", "1.7976931348623157e308Hz", "--points", "3", "--delay-spreads", "1ns",
             "--format", "csv"),
            "frequency_hz,rms_delay_spread_s,capacity_bit_s\n"
            "1e+300,1e-09,1000000000\n"
            "1.340780793e+304,1e-09,1000000000\n"
            "1.797693135e+308,1e-09,1000000000\n",
        ),
        (
            ("validate-isi", "--delay-spread", "9ns", "--pulse-duration", "0.25ns",
             "--guard-multiples", "1e308", "--deterministic", "--format", "csv"),
            "target_d_rms_s,realized_d_rms_s,symbol_period_s,guard_multiple,spill_fraction,"
            "spill_min,spill_max,trials\n"
            "9e-09,9e-09,9e+299,1e+308,0,0,0,1\n",
        ),
        # spreads near both ends of the range whose calibration squares stay
        # normal; both on the 600-tap default grid, so they spill alike (1e-150 s
        # printed 0.3588182457 while its default grid rounded up to 601 taps)
        (
            ("validate-isi", "--delay-spread", "1e-150s", "--pulse-duration", "1e-170s",
             "--deterministic", "--guard-multiples", "1", "--format", "csv"),
            "target_d_rms_s,realized_d_rms_s,symbol_period_s,guard_multiple,spill_fraction,"
            "spill_min,spill_max,trials\n"
            "1e-150,1e-150,1e-150,1,0.3588185125,0.3588185125,0.3588185125,1\n",
        ),
        (
            ("validate-isi", "--delay-spread", "1e152s", "--pulse-duration", "1e-170s",
             "--deterministic", "--guard-multiples", "1", "--format", "csv"),
            "target_d_rms_s,realized_d_rms_s,symbol_period_s,guard_multiple,spill_fraction,"
            "spill_min,spill_max,trials\n"
            "1e+152,1e+152,1e+152,1,0.3588185125,0.3588185125,0.3588185125,1\n",
        ),
    ],
    ids=["sweep-geomspace", "validate-isi-tail", "validate-isi-1e-150s", "validate-isi-1e152s"],
)
def test_near_float_range_runs_warn_nothing(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


# the SNR enters ideal mode only; the other modes printed their SNR-3 curve
# whatever it was, even one whose Shannon factor rounds to 0
@pytest.mark.parametrize(
    "axis",
    [
        ("--mode", "binary", "--param", "bandwidth", "--from", "1GHz", "--to", "2GHz"),
        ("--mode", "digital", "--param", "fs", "--from", "1GSPS", "--to", "2GSPS",
         "--nsampling", "4"),
        ("--mode", "mixed", "--param", "fcircuit", "--from", "1GHz", "--to", "2GHz"),
    ],
    ids=["binary", "digital", "mixed"],
)
def test_sweep_rejects_an_snr_outside_ideal_mode(capsys, axis):
    assert run(
        capsys, "sweep", *axis, "--points", "2", "--delay-spreads", "1ns", "--snr-db", "-200",
        "--format", "csv",
    ) == (2, "", "error: snr applies to ideal sweeps only\n")


# the modulation enters digital and mixed mode only; binary and ideal sweeps
# printed the same bytes whatever --mary and --mary-convention said
@pytest.mark.parametrize(
    "axis",
    [
        ("--mode", "binary", "--param", "bandwidth"),
        ("--mode", "ideal", "--param", "bandwidth"),
    ],
    ids=["binary", "ideal"],
)
def test_sweep_rejects_a_modulation_outside_digital_and_mixed_mode(capsys, axis):
    assert run(
        capsys, "sweep", *axis, "--from", "1GHz", "--to", "2GHz", "--points", "2",
        "--delay-spreads", "1ns", "--mary", "8", "--mary-convention", "log2", "--format", "csv",
    ) == (2, "", "error: modulation applies to mostly_digital and mixed sweeps only\n")


# each raised numpy warnings (1e153 s) or came out wrong: a subnormal d_RMS^2
# missed the 1e-161 s target by 0.6%, and a Shannon factor of 0 was reported
# as a zero capacity (exit 2)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (("validate-isi", "--delay-spread", "1e-161s", "--pulse-duration", "1e-170s",
          "--deterministic", "--guard-multiples", "1", "--format", "csv"),
         "delay spread 1e-161 s is out of range: its square and that of the tap grid's "
         "span, 1.5e-160 s, must lie in the normal float range"),
        (("validate-isi", "--delay-spread", "1e153s", "--pulse-duration", "1ns",
          "--deterministic"),
         "delay spread 1e+153 s is out of range: its square and that of the tap grid's "
         "span, 1.5e+154 s, must lie in the normal float range"),
        (("capacity", "ideal", "--pulse-duration", "1ns", "--delay-spread", "5ns",
          "--snr-linear", "1e-17"),
         "SNR 1e-17 (-170 dB) is too small: its Shannon factor (1/2) log2(1 + SNR) "
         "rounds to 0 bit/symbol"),
        (("capacity", "ideal", "--pulse-duration", "1ns", "--delay-spread", "5ns",
          "--snr-db", "-200"),
         "SNR 1e-20 (-200 dB) is too small: its Shannon factor (1/2) log2(1 + SNR) "
         "rounds to 0 bit/symbol"),
        (("sweep", "--mode", "ideal", "--param", "bandwidth", "--from", "1GHz", "--to", "2GHz",
          "--points", "2", "--delay-spreads", "1ns", "--snr-db", "-200"),
         "SNR 1e-20 (-200 dB) is too small: its Shannon factor (1/2) log2(1 + SNR) "
         "rounds to 0 bit/symbol"),
        # the derivative underflowed and printed 0
        (("sweep", "--mode", "mixed", "--param", "fcircuit", "--from", "1e15GHz", "--to",
          "1e200GHz", "--points", "3", "--log", "--delay-spreads", "1ns", "--outputs",
          "capacity,derivative,percent", "--format", "csv"),
         "the capacity derivative at frequency 1e+209 Hz is out of float range"),
    ],
    ids=["validate-isi-1e-161s", "validate-isi-1e153s", "ideal-snr-linear", "ideal-snr-db",
         "ideal-sweep-snr-db", "mixed-sweep-derivative-underflow"],
)
def test_inputs_past_the_float_range_exit_three_naming_the_input(capsys, argv, message):
    assert run(capsys, *argv) == (3, "", f"domain error: {message}\n")


@pytest.mark.filterwarnings("error")
def test_sweep_grid_past_the_largest_float_names_the_range(capsys):
    # geomspace between two nearly equal endpoints at the top of the float
    # range leaves its inner points at inf
    code, out, err = run(
        capsys, "sweep", "--mode", "mixed", "--param", "fcircuit",
        "--from", "1.797693134862315e308Hz", "--to", "1.7976931348623157e308Hz",
        "--points", "55", "--delay-spreads", "1ns",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: the logarithmic sweep from 1.797693134862315e+308 Hz to "
        "1.7976931348623157e+308 Hz overflows: 53 grid points are past the "
        "largest float\n"
    )


# ---------------------------------------------------------------------------
# generated arguments of every command
# ---------------------------------------------------------------------------

_MAX_FLOAT = 1.7976931348623157e308
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

# subnormal to near-max, and the values where n/F, the derivative and the
# rate start to leave the float range
_hertz = (
    st.floats(min_value=5e-324, max_value=_MAX_FLOAT)
    | st.floats(min_value=1e6, max_value=1e12)
    | st.sampled_from((5e-324, 1e-320, 1e-160, 1e-154, 1e162, 1e308, _MAX_FLOAT))
)
_units = st.sampled_from(("Hz", "Hz", "GHz", "GSPS"))
_spreads = st.builds(
    "{!r}s".format,
    st.floats(min_value=0.0, max_value=_MAX_FLOAT)
    | st.sampled_from((0.0, 1e-320, 17e-9, 1.0)),
)
_factors = (
    st.floats(min_value=1.0, max_value=_MAX_FLOAT) | st.floats(min_value=2.0, max_value=64.0)
).map(repr)
_orders = (
    st.integers(min_value=2, max_value=16)
    | st.integers(min_value=2, max_value=10**400)
    | st.sampled_from((10**308, 10**400))
).map(str)


@st.composite
def _capacity_and_sweep_argv(draw):
    digital = draw(st.booleans())
    mary = ["--mary", draw(_orders), "--mary-convention", draw(st.sampled_from(("paper", "log2")))]
    fmt = ["--format", draw(st.sampled_from(("human", "csv", "json")))]
    unit = draw(_units)
    if draw(st.booleans()):
        frequency = f"{draw(_hertz)!r}{unit}"
        if digital:
            knob = ["digital", "--fs", frequency, "--nsampling", draw(_factors)]
        else:
            knob = ["mixed", "--fcircuit", frequency]
        return ["capacity", *knob, "--delay-spread", draw(_spreads), *mary, *fmt]
    if digital:
        axis = ["--mode", "digital", "--param", "fs", "--nsampling", draw(_factors)]
    else:
        axis = ["--mode", "mixed", "--param", "fcircuit"]
    start, stop = sorted(draw(st.lists(_hertz, min_size=2, max_size=2, unique=True)))
    return [
        "sweep", *axis, "--from", f"{start!r}{unit}", "--to", f"{stop!r}{unit}",
        "--points", str(draw(st.integers(2, 4))), draw(st.sampled_from(("--log", "--linear"))),
        "--delay-spreads", ",".join(draw(st.lists(_spreads, min_size=1, max_size=2))),
        "--outputs", "capacity,derivative,percent", *mary, *fmt,
    ]


_snrs = st.just(()) | st.tuples(
    st.just("--snr-db"), (st.floats(-400.0, 400.0) | st.sampled_from((-200.0, -160.0))).map(repr)
) | st.tuples(
    st.just("--snr-linear"),
    (st.floats(min_value=5e-324, max_value=_MAX_FLOAT) | st.sampled_from((1e-17, 1e-16, 3.0)))
    .map(repr),
)


@st.composite
def _pulse_capacity_argv(draw):
    model = draw(st.sampled_from(("ideal", "binary")))
    if draw(st.booleans()):
        pulse = ["--pulse-duration", draw(_spreads)]
    else:
        pulse = ["--bandwidth", f"{draw(_hertz)!r}{draw(_units)}"]
    snr = draw(_snrs) if model == "ideal" else ()
    fmt = ["--format", draw(st.sampled_from(("human", "csv", "json")))]
    return ["capacity", model, *pulse, "--delay-spread", draw(_spreads), *snr, *fmt]


@st.composite
def _table_argv(draw):
    check = ["--check"] if draw(st.booleans()) else []
    fmt = ["--format", draw(st.sampled_from(("human", "csv", "json")))]
    return ["table", draw(st.sampled_from(("iv", "vii"))), *check, *fmt]


_DATASET_TABLES = {
    name.replace("_", "-"): [field.name for field in fields(load_builtin(name)[0])]
    for name in TABLE_IDS
}
_literals = st.sampled_from(
    ("1GSPS", "17ns", "90GHz", "8", "2006", "1e400", "nan", "NLOS", "Kim et al.", "", "1 W")
) | st.floats(allow_nan=False).map(repr)


@st.composite
def _datasets_argv(draw):
    table = draw(st.sampled_from(sorted(_DATASET_TABLES)))
    names = st.sampled_from(_DATASET_TABLES[table]) | st.sampled_from(("bandwidth", ""))
    query = []
    if draw(st.booleans()):
        operator = draw(st.sampled_from(("<=", ">=", "==", "!=", "<", ">", "=", "~")))
        query += ["--where", f"{draw(names)}{operator}{draw(_literals)}"]
    for selector in ("--min", "--max"):
        if draw(st.booleans()):
            query += [selector, draw(names)]
    fmt = ["--format", draw(st.sampled_from(("human", "csv", "json")))]
    return ["datasets", "list", table, *query, *fmt]


# channel-like times, and spreads around those whose calibration squares
# leave the normal float range
_nanoseconds = st.floats(1e-12, 1e-6).map("{!r}s".format)
_oracle_spreads = _spreads | _nanoseconds | st.sampled_from(
    (1e-161, 1.48e-154, 1.5e-154, 1e-150, 1e152, 1.19e153, 1e153)
).map("{!r}s".format)


@st.composite
def _validate_isi_argv(draw):
    spread = draw(_oracle_spreads)
    grid = []
    if draw(st.booleans()):
        d = float(spread[:-1])
        grid += ["--tap-spacing", f"{d / draw(st.sampled_from((5, 10, 40, 1000)))!r}s"]
    if draw(st.booleans()):
        grid += ["--num-taps", str(draw(st.integers(1, 5000)))]
    guards = st.floats(0.0, 1e308) | st.sampled_from((1.0, math.nan))
    mode = ["--deterministic"] if draw(st.booleans()) else []
    fmt = ["--format", draw(st.sampled_from(("human", "csv", "json")))]
    pulse = draw(_spreads | _nanoseconds)
    return [
        "validate-isi", "--delay-spread", spread, "--pulse-duration", pulse,
        "--guard-multiples", ",".join(map(repr, draw(st.lists(guards, min_size=1, max_size=3)))),
        "--trials", str(draw(st.integers(1, 4))),
        "--seed", str(draw(st.integers(0, 2**32))), *grid, *mode, *fmt,
    ]


@settings(max_examples=1200, deadline=None)
@given(_capacity_and_sweep_argv() | _pulse_capacity_argv() | _table_argv() | _datasets_argv()
       | _validate_isi_argv())
# (n/F + d)^2 underflows to 0 in the derivative
@example(
    "sweep --mode mixed --param fcircuit --from 1e162Hz --to 2e162Hz --points 2 "
    "--delay-spreads 0s --outputs capacity,derivative,percent --format csv".split()
)
# 10-digit JSON rounding of the largest float overflows
@example(
    "sweep --mode mixed --param fcircuit --from 1Hz --to 1.7976931348623157e308Hz --points 2 "
    "--delay-spreads 1s --outputs capacity,derivative,percent --format json".split()
)
# the oracle's calibration squares of 1e-161 s and 1e153 s leave the normal
# float range
@example("validate-isi --delay-spread 1e-161s --pulse-duration 1e-170s --deterministic "
         "--guard-multiples 1 --format csv".split())
@example("validate-isi --delay-spread 1e153s --pulse-duration 1ns --deterministic".split())
# the Shannon factor of a tiny SNR rounds to 0
@example("capacity ideal --pulse-duration 1ns --delay-spread 5ns --snr-linear 1e-17".split())
def test_generated_argv_never_print_nan_inf_warn_or_crash(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert not _NON_FINITE.search(out.getvalue()), out.getvalue()
    if code == 0:
        checked = argv[0] == "table" and "--check" in argv
        status = f"table {argv[1]}: all values match the printed fixture\n" if checked else ""
        assert err.getvalue() == status


# ---------------------------------------------------------------------------
# output redirection
# ---------------------------------------------------------------------------

def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "capacity", "binary",
        "--bandwidth", "1GHz", "--delay-spread", "17ns",
        "--format", "json", "--output", str(path),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert math.isclose(payload["rate_mbit_s"], 55.55555556, rel_tol=1e-6)


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "table", "iv", "--check", "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(tmp_path) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # far more output than a pipe buffers: a write meets the closed pipe
        (["sweep", "--mode", "digital", "--param", "fs", "--from", "1GSPS", "--to", "2GSPS",
          "--points", "20000", "--delay-spreads", "17ns", "--nsampling", "4",
          "--format", "csv"], 1),
        # output that fits a buffer: the flush meets the closed pipe, and a
        # check that never ran is not reported as passed
        (["table", "iv", "--check"], 0),
    ],
)
def test_closed_stdout_exits_two_without_a_traceback(argv, lines_read):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdout, as in a default shell
    src = str(Path(uwbcap.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    with subprocess.Popen(
        [sys.executable, "-m", "uwbcap.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert "all values match" not in err
