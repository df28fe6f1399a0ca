import math
import re
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uwbcap.capacity import (
    BINARY_SNR_LINEAR,
    MARY_LOG2,
    MARY_PAPER,
    MIXED,
    MOSTLY_DIGITAL,
    CapacityResult,
    CircuitFrequency,
    DelaySpread,
    ModulationScheme,
    PulseSpec,
    SamplingConfig,
    SnrValue,
    asymptote,
    binary_capacity,
    capacity_derivative,
    ideal_capacity,
    mixed_capacity,
    mostly_digital_capacity,
    percent_of_max,
    required_frequency,
)
from uwbcap.errors import DomainError


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class TestDomainTypes:
    def test_delay_spread_accepts_zero(self):
        assert DelaySpread(0.0).value == 0.0

    def test_delay_spread_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            DelaySpread(-1e-9)
        with pytest.raises(ValueError):
            DelaySpread(float("nan"))

    def test_subnormal_pulse_input_names_itself(self):
        with pytest.raises(DomainError, match="bandwidth 1e-320 Hz.*overflows"):
            PulseSpec.from_bandwidth(1e-320)
        with pytest.raises(DomainError, match="pulse duration 1e-320 s.*overflows"):
            PulseSpec.from_duration(1e-320)

    def test_pulse_spec_locks_duration_bandwidth_product(self):
        pulse = PulseSpec.from_duration(380e-12)
        assert rel(pulse.bandwidth, 1.0 / 380e-12) < 1e-15
        pulse = PulseSpec.from_bandwidth(2e9)
        assert pulse.duration == 0.5e-9
        with pytest.raises(ValueError):
            PulseSpec(1e-9, 2e9)  # product 2, not 1
        with pytest.raises(ValueError):
            PulseSpec.from_duration(0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="pulse duration and bandwidth"):
                PulseSpec(bad, bad)
            with pytest.raises(ValueError, match="pulse duration"):
                PulseSpec.from_duration(bad)
            with pytest.raises(ValueError, match="bandwidth"):
                PulseSpec.from_bandwidth(bad)

    def test_sampling_config_invariants(self):
        cfg = SamplingConfig(2e9)
        assert cfg.sampling_factor == 4.0
        with pytest.raises(ValueError):
            SamplingConfig(2e9, 1.5)  # below the Nyquist floor
        with pytest.raises(ValueError):
            SamplingConfig(0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sampling_frequency"):
                SamplingConfig(bad)
            with pytest.raises(ValueError, match="sampling_factor"):
                SamplingConfig(2e9, bad)

    def test_circuit_frequency_positive(self):
        with pytest.raises(ValueError):
            CircuitFrequency(0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="circuit frequency"):
                CircuitFrequency(bad)

    def test_snr_db_round_trip(self):
        for db in (-3.0, 0.0, 3.0, 4.771212547196624, 20.0):
            snr = SnrValue.from_db(db)
            assert math.isclose(snr.db, db, rel_tol=1e-12, abs_tol=1e-12)
        with pytest.raises(ValueError):
            SnrValue(0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="SNR"):
                SnrValue(bad)
            with pytest.raises(ValueError, match="SNR"):
                SnrValue.from_db(bad)
        with pytest.raises(ValueError, match="SNR"):
            SnrValue.from_db(4000.0)  # 10 ** 400 overflows

    def test_modulation_multipliers_table_convention(self):
        assert ModulationScheme(2).multiplier == 1.0
        assert ModulationScheme(3).multiplier == 2.0
        assert ModulationScheme(4).multiplier == 3.0

    def test_modulation_multipliers_log2_convention(self):
        assert ModulationScheme(2, MARY_LOG2).multiplier == 1.0
        assert ModulationScheme(4, MARY_LOG2).multiplier == 2.0
        assert rel(ModulationScheme(3, MARY_LOG2).multiplier, math.log2(3)) < 1e-15

    def test_modulation_extrapolation_is_flagged(self):
        beyond = ModulationScheme(5)
        assert beyond.multiplier == 4.0
        assert beyond.is_extrapolated
        assert not ModulationScheme(3).is_extrapolated
        assert not ModulationScheme(5, MARY_LOG2).is_extrapolated

    def test_modulation_rejects_bad_order_or_convention(self):
        with pytest.raises(ValueError):
            ModulationScheme(1)
        with pytest.raises(ValueError):
            ModulationScheme(2, "dB")
        # M - 1 past the largest float (the log2 multiplier stays small)
        with pytest.raises(ValueError, match="modulation order 1000.* too large"):
            ModulationScheme(10**400)
        assert ModulationScheme(10**400, MARY_LOG2).multiplier == pytest.approx(400 * math.log2(10))

    def test_capacity_result_invariants(self):
        with pytest.raises(ValueError):
            CapacityResult(rate=0.0, limiting_asymptote=1.0, inputs_echo={})
        with pytest.raises(ValueError):
            CapacityResult(rate=2.0, limiting_asymptote=1.0, inputs_echo={})
        unbounded = CapacityResult(rate=1e9, limiting_asymptote=math.inf, inputs_echo={})
        assert unbounded.to_dict()["limiting_asymptote_bit_s"] == "unbounded"
        assert unbounded.rate_mbit_s == 1e3


# ---------------------------------------------------------------------------
# ideal capacity
# ---------------------------------------------------------------------------

class TestIdealCapacity:
    def test_snr3_zero_spread_collapses_to_bandwidth(self):
        # (1/2) log2(1 + 3) is exactly one bit/symbol, so the rate is 1/T_p.
        result = ideal_capacity(
            PulseSpec.from_duration(0.5e-9), DelaySpread(0.0), SnrValue(3.0)
        )
        assert rel(result.rate, 2e9) < 1e-12
        assert result.limiting_asymptote == math.inf

    def test_snr3_with_spread(self):
        # independent arithmetic: 1/(0.5 ns + 17 ns) = 10^10/175 Hz exactly
        result = ideal_capacity(
            PulseSpec.from_duration(0.5e-9), DelaySpread(17e-9), SnrValue(3.0)
        )
        assert rel(result.rate, float(Fraction(10**10, 175))) < 1e-12

    def test_snr15_doubles_the_bits_per_symbol(self):
        # (1/2) log2(16) = 2, so 1/(2 ns) * 2 = 1 Gbit/s
        result = ideal_capacity(
            PulseSpec.from_duration(1e-9), DelaySpread(1e-9), SnrValue(15.0)
        )
        assert rel(result.rate, 1e9) < 1e-12

    def test_low_snr_is_accepted_but_annotated(self):
        low = ideal_capacity(
            PulseSpec.from_duration(1e-9), DelaySpread(1e-9), SnrValue(1.5)
        )
        assert low.rate > 0
        assert any("3 dB" in note for note in low.notes)
        ok = ideal_capacity(
            PulseSpec.from_duration(1e-9), DelaySpread(1e-9), SnrValue(3.0)
        )
        assert ok.notes == ()

    def test_echo_carries_exact_inputs(self):
        result = ideal_capacity(
            PulseSpec.from_duration(1e-9), DelaySpread(5e-9), SnrValue(3.0)
        )
        echo = result.inputs_echo
        assert echo["pulse_duration_s"] == 1e-9
        assert echo["rms_delay_spread_s"] == 5e-9
        assert echo["snr_linear"] == 3.0


# ---------------------------------------------------------------------------
# binary capacity
# ---------------------------------------------------------------------------

class TestBinaryCapacity:
    def test_printed_value_380ps_17ns(self):
        result = binary_capacity(PulseSpec.from_duration(380e-12), DelaySpread(17e-9))
        assert rel(result.rate_mbit_s, 57.54) < 5e-3  # printed at 2 decimals
        # independent arithmetic: 1/(17.38 ns) = 10^12/17380 Hz
        assert rel(result.rate, float(Fraction(10**12, 17380))) < 1e-12

    def test_printed_value_20ghz_087ns(self):
        result = binary_capacity(PulseSpec.from_bandwidth(20e9), DelaySpread(0.87e-9))
        assert rel(result.rate_mbit_s, 1086.96) < 5e-3
        assert rel(result.rate, float(Fraction(10**12, 920))) < 1e-12

    def test_zero_spread_degenerates_to_bandwidth(self):
        result = binary_capacity(PulseSpec.from_bandwidth(1e9), DelaySpread(0.0))
        assert rel(result.rate, 1e9) < 1e-12
        assert result.limiting_asymptote == math.inf

    def test_equals_ideal_at_linear_snr_3(self):
        rng = np.random.default_rng(0)
        durations = 10.0 ** rng.uniform(-11, -8, 1000)
        spreads = 10.0 ** rng.uniform(-10, -6, 1000)
        spreads[::50] = 0.0  # sprinkle the degenerate-but-legal case
        for duration, spread in zip(durations, spreads):
            pulse = PulseSpec.from_duration(float(duration))
            d = DelaySpread(float(spread))
            b = binary_capacity(pulse, d).rate
            i = ideal_capacity(pulse, d, SnrValue(BINARY_SNR_LINEAR)).rate
            assert rel(b, i) <= 1e-12


# ---------------------------------------------------------------------------
# mostly digital capacity
# ---------------------------------------------------------------------------

class TestMostlyDigitalCapacity:
    @pytest.mark.parametrize(
        "fs,d_rms,printed_mbit",
        [
            (2e9, 17e-9, 52.63157895),
            (10e9, 9e-9, 106.3829787),
            (5e9, 89e-9, 11.13585746),
        ],
    )
    def test_printed_values(self, fs, d_rms, printed_mbit):
        result = mostly_digital_capacity(SamplingConfig(fs, 4.0), DelaySpread(d_rms))
        assert rel(result.rate_mbit_s, printed_mbit) < 1e-6

    def test_zero_spread_has_unbounded_asymptote(self):
        result = mostly_digital_capacity(SamplingConfig(4e9, 4.0), DelaySpread(0.0))
        assert result.limiting_asymptote == math.inf
        assert rel(result.rate, 1e9) < 1e-12  # n/F_s = 1 ns

    def test_reparameterizes_binary_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            fs = float(10.0 ** rng.uniform(8, 11))
            n = float(rng.uniform(2, 8))
            d = float(10.0 ** rng.uniform(-10, -7))
            digital = mostly_digital_capacity(SamplingConfig(fs, n), DelaySpread(d))
            binary = binary_capacity(PulseSpec.from_duration(n / fs), DelaySpread(d))
            assert digital.rate == binary.rate  # same formula, bit-identical


# ---------------------------------------------------------------------------
# mixed capacity
# ---------------------------------------------------------------------------

class TestMixedCapacity:
    def test_printed_value_m4(self):
        result = mixed_capacity(
            CircuitFrequency(10.87e9), DelaySpread(0.87e-9), ModulationScheme(4)
        )
        assert rel(result.rate_mbit_s, 3118.52) < 5e-3

    def test_printed_value_ternary(self):
        result = mixed_capacity(
            CircuitFrequency(10.87e9), DelaySpread(7.718e-9), ModulationScheme(3)
        )
        assert rel(result.rate_mbit_s, 256.08) < 5e-3

    def test_zero_spread_reduces_to_circuit_frequency(self):
        result = mixed_capacity(CircuitFrequency(1e9), DelaySpread(0.0))
        assert rel(result.rate, 1e9) < 1e-12

    def test_reparameterizes_binary_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = float(10.0 ** rng.uniform(8, 11))
            d = float(10.0 ** rng.uniform(-10, -7))
            mixed = mixed_capacity(CircuitFrequency(f), DelaySpread(d))
            binary = binary_capacity(PulseSpec.from_duration(1.0 / f), DelaySpread(d))
            assert mixed.rate == binary.rate

    def test_mary_scaling_is_exact(self):
        d = DelaySpread(9e-9)
        f = CircuitFrequency(10.87e9)
        base = mixed_capacity(f, d, ModulationScheme(2)).rate
        for order in (2, 3, 4, 5):
            for convention in (MARY_PAPER, MARY_LOG2):
                scheme = ModulationScheme(order, convention)
                assert mixed_capacity(f, d, scheme).rate == scheme.multiplier * base
        s = SamplingConfig(5e9, 4.0)
        base = mostly_digital_capacity(s, d).rate
        for order in (3, 4):
            scheme = ModulationScheme(order)
            assert mostly_digital_capacity(s, d, scheme).rate == scheme.multiplier * base

    def test_extrapolated_order_is_noted(self):
        result = mixed_capacity(
            CircuitFrequency(1e9), DelaySpread(1e-9), ModulationScheme(6)
        )
        assert any("extrapolated" in note for note in result.notes)


# ---------------------------------------------------------------------------
# asymptote
# ---------------------------------------------------------------------------

class TestAsymptote:
    def test_values(self):
        assert rel(asymptote(DelaySpread(17e-9)), float(Fraction(10**9, 17))) < 1e-12
        assert rel(asymptote(DelaySpread(89e-9)), float(Fraction(10**9, 89))) < 1e-12
        assert asymptote(DelaySpread(1.0)) == 1.0

    def test_modulation_scaling(self):
        assert asymptote(DelaySpread(1.0), ModulationScheme(4)) == 3.0

    def test_zero_spread_is_a_domain_error(self):
        with pytest.raises(DomainError):
            asymptote(DelaySpread(0.0))

    def test_subnormal_spread_is_a_domain_error_not_unbounded(self):
        d = DelaySpread(1e-320)
        with pytest.raises(DomainError, match="delay spread 1e-320 s.*overflows"):
            asymptote(d)
        with pytest.raises(DomainError, match="delay spread 1e-320 s.*overflows"):
            mostly_digital_capacity(SamplingConfig(2e9, 4.0), d)

    def test_bounds_every_capacity(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            f = float(10.0 ** rng.uniform(7, 13))
            n = float(rng.uniform(2, 8))
            d = DelaySpread(float(10.0 ** rng.uniform(-10, -6)))
            order = int(rng.integers(2, 5))
            scheme = ModulationScheme(order)
            bound = asymptote(d, scheme)
            digital = mostly_digital_capacity(SamplingConfig(f, n), d, scheme)
            mixed = mixed_capacity(CircuitFrequency(f), d, scheme)
            assert 0.0 < digital.rate < bound
            assert 0.0 < mixed.rate < bound
            assert digital.limiting_asymptote == bound
            assert mixed.limiting_asymptote == bound


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def central_difference(fn, f, h_rel=1e-6):
    h = f * h_rel
    return (fn(f + h) - fn(f - h)) / (2.0 * h)


class TestCapacityDerivative:
    def test_digital_example_against_finite_difference(self):
        d = DelaySpread(17e-9)
        analytic = capacity_derivative(MOSTLY_DIGITAL, 2e9, d, 4.0)
        # step of 1 kHz around 2 GSPS
        step = 1e3
        numeric = (
            mostly_digital_capacity(SamplingConfig(2e9 + step, 4.0), d).rate
            - mostly_digital_capacity(SamplingConfig(2e9 - step, 4.0), d).rate
        ) / (2.0 * step)
        assert rel(analytic, numeric) <= 1e-6
        assert rel(analytic, 2.770083e-3) < 1e-6

    def test_mixed_with_zero_spread_is_unity(self):
        assert capacity_derivative(MIXED, 1e9, DelaySpread(0.0)) == 1.0

    def test_flattens_at_extreme_frequency(self):
        assert capacity_derivative(MOSTLY_DIGITAL, 1e15, DelaySpread(10e-9), 4.0) < 1e-12
        assert capacity_derivative(MIXED, 1e15, DelaySpread(10e-9)) < 1e-12

    @pytest.mark.parametrize("mode", [MOSTLY_DIGITAL, MIXED])
    @pytest.mark.parametrize("d_rms", [1e-9, 5e-9, 10e-9])
    def test_matches_central_differences_on_log_grid(self, mode, d_rms):
        d = DelaySpread(d_rms)
        n = 4.0 if mode == MOSTLY_DIGITAL else None
        if mode == MOSTLY_DIGITAL:
            fn = lambda f: mostly_digital_capacity(SamplingConfig(f, 4.0), d).rate
        else:
            fn = lambda f: mixed_capacity(CircuitFrequency(f), d).rate
        previous = math.inf
        for f in np.geomspace(1e8, 1e12, 100):
            f = float(f)
            analytic = capacity_derivative(mode, f, d, n)
            assert rel(analytic, central_difference(fn, f)) <= 1e-6
            assert 0.0 < analytic < previous  # strictly decreasing in frequency
            previous = analytic

    @pytest.mark.parametrize(
        "mode, frequency, d_rms, n",
        [
            (MIXED, 1e-160, 1e-9, None),  # (n/F)/F overflows
            (MOSTLY_DIGITAL, 1e-155, 1e-9, 4.0),
            (MIXED, 1e-320, 1e-9, None),  # n/F itself overflows
            (MIXED, 1e162, 0.0, None),  # (n/F + d)^2 underflows to 0
            (MIXED, 1e160, 1e-9, None),  # (n/F)/F is subnormal, the result is not
            (MIXED, 1e163, 1e-9, None),  # the result underflows to 0
        ],
    )
    def test_out_of_range_derivative_is_a_domain_error(self, mode, frequency, d_rms, n):
        with pytest.raises(DomainError, match=re.escape(f"frequency {frequency!r} Hz")):
            capacity_derivative(mode, frequency, DelaySpread(d_rms), n)

    def test_mode_and_factor_validation(self):
        with pytest.raises(ValueError):
            capacity_derivative("analog", 1e9, DelaySpread(1e-9))
        with pytest.raises(ValueError):
            capacity_derivative(MOSTLY_DIGITAL, 1e9, DelaySpread(1e-9))  # n missing
        with pytest.raises(ValueError):
            capacity_derivative(MOSTLY_DIGITAL, 1e9, DelaySpread(1e-9), 1.0)
        with pytest.raises(ValueError):
            capacity_derivative(MIXED, 1e9, DelaySpread(1e-9), 4.0)
        with pytest.raises(ValueError):
            capacity_derivative(MIXED, 0.0, DelaySpread(1e-9))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sampling_factor"):
                capacity_derivative(MOSTLY_DIGITAL, 1e9, DelaySpread(1e-9), bad)
            with pytest.raises(ValueError, match="frequency"):
                capacity_derivative(MIXED, bad, DelaySpread(1e-9))


# ---------------------------------------------------------------------------
# percent of max / required frequency
# ---------------------------------------------------------------------------

class TestPercentOfMax:
    def test_digital_example_matches_capacity_over_asymptote(self):
        d = DelaySpread(17e-9)
        fraction = percent_of_max(MOSTLY_DIGITAL, 2e9, d, 4.0)
        direct = mostly_digital_capacity(SamplingConfig(2e9, 4.0), d).rate / asymptote(d)
        assert rel(fraction, direct) <= 1e-12
        assert rel(fraction, float(Fraction(17, 19))) <= 1e-12

    def test_mixed_5ghz_vs_60ghz_at_10ns(self):
        d = DelaySpread(10e-9)
        at_5 = percent_of_max(MIXED, 5e9, d)
        at_60 = percent_of_max(MIXED, 60e9, d)
        assert rel(at_5, float(Fraction(50, 51))) <= 1e-12
        assert rel(at_60, float(Fraction(600, 601))) <= 1e-12
        assert at_60 - at_5 < 0.02  # the whole 5 GHz ~ 60 GHz observation

    def test_exact_half_when_overhead_equals_spread(self):
        d = 2.0**-27  # keeps n/(n/d) exact in binary floating point
        assert percent_of_max(MOSTLY_DIGITAL, 4.0 / d, DelaySpread(d), 4.0) == 0.5
        assert rel(percent_of_max(MOSTLY_DIGITAL, 4.0 / 17e-9, DelaySpread(17e-9), 4.0), 0.5) < 1e-12

    # frequencies 1.16% or more apart and F d / n at most 1e9: each step
    # moves the fraction by far more than its rounding, and it stays below 1
    @given(
        st.builds(
            lambda start, steps: [10.0**x for x in accumulate(steps, initial=start)],
            st.floats(6.0, 10.0),
            st.lists(st.floats(0.005, 0.5), min_size=1, max_size=10),
        ),
        st.floats(1e-10, 1e-6),
        st.none() | st.floats(2.0, 16.0),
    )
    @example(list(np.geomspace(1e8, 1e13, 50)), 9e-9, None)
    def test_strictly_increasing_and_below_one(self, frequencies, d_s, n):
        mode = MIXED if n is None else MOSTLY_DIGITAL
        d = DelaySpread(d_s)
        fractions = [percent_of_max(mode, float(f), d, n) for f in frequencies]
        assert 0.0 < fractions[0]
        assert all(a < b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] < 1.0

    def test_zero_spread_is_a_domain_error(self):
        with pytest.raises(DomainError):
            percent_of_max(MIXED, 1e9, DelaySpread(0.0))

    def test_non_finite_inputs_are_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="frequency"):
                percent_of_max(MIXED, bad, DelaySpread(1e-9))
            with pytest.raises(ValueError, match="sampling_factor"):
                percent_of_max(MOSTLY_DIGITAL, 1e9, DelaySpread(1e-9), bad)


class TestOutOfRangeCapacity:
    def test_overflowing_overhead_names_the_frequency(self):
        d = DelaySpread(17e-9)
        with pytest.raises(DomainError, match="frequency 1e-320 Hz"):
            mostly_digital_capacity(SamplingConfig(1e-320, 4.0), d)
        with pytest.raises(DomainError, match="frequency 1e-320 Hz"):
            mixed_capacity(CircuitFrequency(1e-320), d)
        with pytest.raises(DomainError, match="frequency 1e-320 Hz"):
            percent_of_max(MIXED, 1e-320, d)

    def test_overflowing_rate_names_the_modulation_order(self):
        order = 10**308  # M - 1 = 1e308 still fits a float; the rate does not
        with pytest.raises(ValueError, match=f"modulation order {order}"):
            mostly_digital_capacity(
                SamplingConfig(2e9, 4.0), DelaySpread(17e-9), ModulationScheme(order)
            )
        with pytest.raises(ValueError, match="capacity overflows a float"):
            binary_capacity(PulseSpec.from_bandwidth(1.7976931348623157e308), DelaySpread(0.0))


def _sampled_round_trip_points(test):
    """The 100 (p, n, log10 d) points the round trip was first sampled at,
    as hypothesis examples."""
    rng = np.random.default_rng(4)
    bounds = ((0.01, 0.99), (2, 8), (-10, -6))
    for _ in range(100):
        p, n, log10_d = (float(rng.uniform(lo, hi)) for lo, hi in bounds)
        test = example(p, n, log10_d)(test)
    return test


class TestRequiredFrequency:
    def test_examples(self):
        f = required_frequency(MOSTLY_DIGITAL, 0.9, DelaySpread(17e-9), 4.0)
        assert rel(f, float(Fraction(36 * 10**9, 17))) <= 1e-12  # 2.11765 GSPS
        f_low = required_frequency(MOSTLY_DIGITAL, 0.9, DelaySpread(89e-9), 4.0)
        assert rel(f_low, float(Fraction(36 * 10**9, 89))) <= 1e-12  # 0.40449 GSPS
        assert f > f_low  # low delay spreads demand faster converters

    def test_mixed_accepts_explicit_unit_factor(self):
        f = required_frequency(MIXED, 0.5, DelaySpread(10e-9), 1)
        assert rel(f, 1e8) <= 1e-12

    @given(st.floats(0.01, 0.99), st.floats(2.0, 8.0), st.floats(-10.0, -6.0))
    @_sampled_round_trip_points
    def test_round_trip_through_percent_of_max(self, p, n, log10_d):
        d = DelaySpread(10.0**log10_d)
        f = required_frequency(MOSTLY_DIGITAL, p, d, n)
        assert rel(percent_of_max(MOSTLY_DIGITAL, f, d, n), p) <= 1e-12
        f = required_frequency(MIXED, p, d)
        assert rel(percent_of_max(MIXED, f, d), p) <= 1e-12

    def test_domain_errors(self):
        d = DelaySpread(9e-9)
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                required_frequency(MIXED, p, d)
        with pytest.raises(DomainError):
            required_frequency(MIXED, 0.5, DelaySpread(0.0))


# ---------------------------------------------------------------------------
# cross-model monotonicity
# ---------------------------------------------------------------------------

class TestMonotonicity:
    # frequencies 1.16% or more apart: n/F moves the rate by far more than
    # its rounding even at 1e15 Hz and 1 us
    @given(
        st.builds(
            lambda start, steps: [10.0**x for x in accumulate(steps, initial=start)],
            st.floats(6.0, 10.0),
            st.lists(st.floats(0.005, 0.5), min_size=1, max_size=10),
        ),
        st.floats(1e-10, 1e-6),
        st.floats(2.0, 16.0),
    )
    @example(list(np.geomspace(1e8, 1e12, 40)), 17e-9, 4.0)
    def test_rate_increases_with_frequency(self, frequencies, d_s, n):
        d = DelaySpread(d_s)
        rates = [
            mostly_digital_capacity(SamplingConfig(float(f), n), d).rate for f in frequencies
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    # spreads 1.16% or more apart, sampling factors 0.01 or more apart: each
    # step moves n/F + d by far more than its rounding
    @given(
        st.builds(
            lambda start, steps: [10.0**x for x in accumulate(steps, initial=start)],
            st.floats(-10.0, -6.0),
            st.lists(st.floats(0.005, 0.5), min_size=1, max_size=10),
        ),
        st.floats(1e8, 1e12),
        st.floats(2.0, 16.0),
    )
    @example(list(np.geomspace(1e-10, 1e-6, 40)), 5e9, 4.0)
    def test_rate_decreases_with_delay_spread(self, spreads, f, n):
        s = SamplingConfig(f, n)
        rates = [mostly_digital_capacity(s, DelaySpread(float(d))).rate for d in spreads]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    @given(
        st.builds(
            lambda start, steps: list(accumulate(steps, initial=start)),
            st.floats(2.0, 16.0),
            st.lists(st.floats(0.01, 2.0), min_size=1, max_size=10),
        ),
        st.floats(1e8, 1e12),
        st.floats(1e-10, 1e-6),
    )
    @example(list(np.linspace(2.0, 16.0, 20)), 5e9, 17e-9)
    def test_rate_decreases_with_sampling_factor(self, factors, f, d_s):
        d = DelaySpread(d_s)
        rates = [
            mostly_digital_capacity(SamplingConfig(f, float(n)), d).rate for n in factors
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))
