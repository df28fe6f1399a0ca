import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uwbcap import datasets, isi
from uwbcap.errors import DomainError
from uwbcap.isi import (
    IsiReport,
    TappedDelayLine,
    in_symbol_fraction,
    isi_spill,
    rms_delay_spread,
    synthesize_channel,
    validate_assumption,
)


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


# ---------------------------------------------------------------------------
# tap lines and the delay-spread moment
# ---------------------------------------------------------------------------

class TestTappedDelayLine:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one tap"):
            TappedDelayLine(np.array([]), np.array([]))
        with pytest.raises(ValueError, match="delay 0"):
            TappedDelayLine.from_taps([(1e-9, 1.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            TappedDelayLine.from_taps([(0.0, 0.5), (2e-9, 0.25), (1e-9, 0.25)])
        with pytest.raises(ValueError, match="> 0"):
            TappedDelayLine.from_taps([(0.0, 1.5), (1e-9, -0.5)])
        with pytest.raises(ValueError, match="sum to 1"):
            TappedDelayLine.from_taps([(0.0, 0.5), (1e-9, 0.4)])

    def test_normalized_rescales(self):
        line = TappedDelayLine.normalized([0.0, 1e-9], [3.0, 1.0])
        assert line.powers.sum() == pytest.approx(1.0, abs=1e-15)
        assert line.powers[0] == 0.75

    def test_arrays_are_read_only(self):
        line = TappedDelayLine.from_taps([(0.0, 0.5), (1e-9, 0.5)])
        with pytest.raises(ValueError):
            line.powers[0] = 1.0

    def test_to_csv_uses_quantity_grammar(self):
        from uwbcap.units import parse_quantity

        line = TappedDelayLine.from_taps([(0.0, 0.5), (2e-9, 0.5)])
        text = line.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "delay,power"
        delay_cell, power_cell = lines[2].split(",")
        assert parse_quantity(delay_cell, expect="time") == 2e-9
        assert float(power_cell) == 0.5


@st.composite
def _tap_profiles(draw):
    """(delays, powers) of 2 to 6 taps: the first at 0, the others on a grid
    of 1 ps to 1 ns steps, each power at least 1/50 of the largest, total 1."""
    steps = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True))
    delays = draw(st.floats(1e-12, 1e-9)) * np.array([0, *sorted(steps)], dtype=float)
    weights = np.array(draw(st.lists(st.floats(0.02, 1.0), min_size=delays.size,
                                     max_size=delays.size)))
    return delays, weights / weights.sum()


class TestRmsDelaySpread:
    def test_symmetric_two_path(self):
        line = TappedDelayLine.from_taps([(0.0, 0.5), (2e-9, 0.5)])
        assert rel(rms_delay_spread(line), 1e-9) < 1e-12

    def test_single_tap_is_zero(self):
        line = TappedDelayLine.from_taps([(0.0, 1.0)])
        assert rms_delay_spread(line) == 0.0

    def test_three_tap_hand_computation(self):
        # mean = 1 ns, second moment = 2.5 ns^2, sqrt(1.5) = 1.22474 ns
        line = TappedDelayLine.from_taps([(0.0, 0.5), (1e-9, 0.25), (3e-9, 0.25)])
        assert rel(rms_delay_spread(line), math.sqrt(1.5) * 1e-9) < 1e-9

    # shifts up to 10 times the last delay: the moment subtracts the squared
    # mean from the second moment, so far larger ones cancel digits away
    @given(_tap_profiles().flatmap(
        lambda p: st.tuples(st.just(p), st.floats(0.0, 10.0 * p[0][-1]))
    ))
    @example(((np.array([0.0, 1e-9, 3e-9]), np.array([0.5, 0.25, 0.25])), 7e-9))
    def test_translation_invariance(self, shifted_profile):
        # the moment itself must not depend on the time origin
        (delays, powers), shift = shifted_profile
        base = rms_delay_spread(SimpleNamespace(delays=delays, powers=powers))
        shifted = rms_delay_spread(
            SimpleNamespace(delays=delays + shift, powers=powers)
        )
        assert rel(shifted, base) < 1e-9

    @given(_tap_profiles(), st.floats(1e-3, 1e3))
    @example((np.array([0.0, 1e-9, 3e-9]), np.array([0.5, 0.25, 0.25])), 4.0)
    def test_scales_linearly_with_delays(self, profile, factor):
        line = TappedDelayLine(*profile)
        stretched = TappedDelayLine(line.delays * factor, line.powers)
        assert rel(rms_delay_spread(stretched), factor * rms_delay_spread(line)) < 1e-12


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

class TestSynthesizeChannel:
    def test_deterministic_calibration_9ns(self):
        channel = synthesize_channel(9e-9, 0.5e-9, 400)
        realized = rms_delay_spread(channel)
        assert 8.91e-9 <= realized <= 9.09e-9
        assert rel(realized, 9e-9) < 1e-4  # the solver lands far inside 1%

    def test_deterministic_calibration_1ns(self):
        realized = rms_delay_spread(synthesize_channel(1e-9, 0.05e-9, 400))
        assert 0.99e-9 <= realized <= 1.01e-9

    def test_profile_is_exponential(self):
        channel = synthesize_channel(9e-9, 0.5e-9, 400)
        # log-powers of an exponential profile are affine in delay
        ratios = channel.powers[1:] / channel.powers[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    @pytest.mark.parametrize(
        "d_rms, spacing, taps",
        [
            *(
                (d, d / 40.0, 600)
                for d in sorted(
                    {e.rms_delay_spread for e in datasets.load_builtin(datasets.CHANNELS)}
                    | {e.rms_delay_spread for e in datasets.load_builtin(datasets.ANTENNA_CONFIGS)}
                )
            ),
            (9e-9, 0.09e-9, 1500),
            (1e-9, 0.05e-9, 400),
        ],
    )
    def test_calibration_hits_target(self, d_rms, spacing, taps):
        # the default grid (600 taps of d_RMS / 40) for every survey d_RMS,
        # plus two explicit grids
        realized = rms_delay_spread(synthesize_channel(d_rms, spacing, taps))
        assert rel(realized, d_rms) <= 1e-12

    @pytest.mark.parametrize(
        "d_rms, spacing, name",
        [
            (math.nan, 0.1e-9, "target_d_rms"),
            (math.inf, 0.1e-9, "target_d_rms"),
            (-1e-9, 0.1e-9, "target_d_rms"),
            (9e-9, math.nan, "tap_spacing"),
            (9e-9, math.inf, "tap_spacing"),
            (9e-9, -math.inf, "tap_spacing"),
            (9e-9, 0.0, "tap_spacing"),
        ],
    )
    def test_non_finite_inputs_are_named(self, d_rms, spacing, name):
        with pytest.raises(DomainError, match=f"{name} must be finite and > 0"):
            synthesize_channel(d_rms, spacing, 400)

    def test_infeasible_discretizations(self):
        with pytest.raises(DomainError, match="tap_spacing"):
            synthesize_channel(9e-9, 1e-9, 400)  # coarser than target/10
        with pytest.raises(DomainError, match="num_taps"):
            synthesize_channel(9e-9, 0.5e-9, 100)  # span below 10 targets
        with pytest.raises(DomainError):
            synthesize_channel(0.0, 0.1e-9, 400)

    def test_underflowing_profile_names_num_taps(self):
        # 40000 taps of 25 ps span 1000 d_RMS: the calibrated profile's last
        # tap power, about exp(-1000), underflows to 0
        with pytest.raises(DomainError, match="num_taps"):
            synthesize_channel(1e-9, 25e-12, 40000)

    def test_certain_underflow_is_rejected_before_the_grid_is_built(self, monkeypatch):
        def calibrate(*args):
            raise AssertionError("the tap grid was built")

        monkeypatch.setattr(isi, "_calibrated_profile", calibrate)
        with pytest.raises(DomainError, match="num_taps"):
            synthesize_channel(1e-9, 25e-12, 10**15)
        with pytest.raises(DomainError, match="num_taps"):
            validate_assumption(1e-9, 0.25e-9, num_taps=10**15, deterministic=True)
        with pytest.raises(DomainError, match="num_taps"):
            synthesize_channel(1e-9, 25e-12, 10**400)  # no float holds it

    def test_oversized_tap_grid_is_rejected_before_it_is_built(self, monkeypatch):
        def calibrate(*args):
            raise AssertionError("the tap grid was built")

        monkeypatch.setattr(isi, "_calibrated_profile", calibrate)
        # 10**7 + 1 taps of 1 fs cover 10 ns and stay far from underflow
        with pytest.raises(DomainError, match="num_taps = 10000001 exceeds"):
            synthesize_channel(1e-9, 1e-15, 10**7 + 1)
        with pytest.raises(DomainError, match="num_taps = 10000001 exceeds"):
            validate_assumption(1e-9, 0.25e-9, tap_spacing=1e-15, num_taps=10**7 + 1)
        # the default grid of 15 d_RMS / tap_spacing taps: 1.5e12, and inf
        for spacing in (1e-20, 1e-320):
            with pytest.raises(DomainError, match="tap_spacing .* too fine"):
                validate_assumption(1e-9, 0.25e-9, tap_spacing=spacing, deterministic=True)

    # 1e-161 s: d_RMS^2 is subnormal and the calibration missed the target
    # by 0.6%; 1e153 s: the 15 d_RMS span squares to inf inside numpy
    @pytest.mark.parametrize("d_rms", [1e-161, 1.48e-154, 1e153])
    def test_spread_squaring_out_of_the_normal_range_is_rejected_before_the_grid(
        self, monkeypatch, d_rms
    ):
        def calibrate(*args):
            raise AssertionError("the tap grid was built")

        monkeypatch.setattr(isi, "_calibrated_profile", calibrate)
        message = re.escape(f"delay spread {d_rms!r} s is out of range")
        with pytest.raises(DomainError, match=message):
            synthesize_channel(d_rms, d_rms / 40.0, 600)
        with pytest.raises(DomainError, match=message):
            validate_assumption(d_rms, d_rms / 100.0, deterministic=True)

    def test_spreads_squaring_inside_the_normal_range_calibrate(self):
        for d_rms in (1.5e-154, 1e-150, 1e152):
            channel = synthesize_channel(d_rms, d_rms / 40.0, 600)
            assert rel(rms_delay_spread(channel), d_rms) < 1e-12

    def test_deterministic_mode_is_reproducible(self):
        a = synthesize_channel(9e-9, 0.5e-9, 400)
        b = synthesize_channel(9e-9, 0.5e-9, 400)
        assert np.array_equal(a.delays, b.delays)
        assert np.array_equal(a.powers, b.powers)

    def test_stochastic_mode_is_seeded(self):
        a = synthesize_channel(9e-9, 0.5e-9, 400, rng_seed=7)
        b = synthesize_channel(9e-9, 0.5e-9, 400, rng_seed=7)
        c = synthesize_channel(9e-9, 0.5e-9, 400, rng_seed=8)
        assert np.array_equal(a.powers, b.powers)
        assert not np.array_equal(a.powers, c.powers)
        assert abs(a.powers.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# spill
# ---------------------------------------------------------------------------

def geometric_spill(channel, pulse, period) -> float:
    """Spill of a calibrated (fading-free) profile in closed form.

    Its tap powers are r**i / S at delays i * step, with r = exp(-step / gamma)
    and S = (1 - r**N) / (1 - r); gamma is read back from the ratio of the
    first two tap powers.  Taps at or past the period spill whole:
    sum(r**i, i >= i1).  The taps straddling it, i0 <= i < i1, spill the
    share (c + j * step) / pulse, j = i - i0, c = i0 * step + pulse - period:
    an arithmetic-geometric series.
    """
    step, n = float(channel.delays[1]), len(channel.delays)
    gamma = step / math.log(channel.powers[0] / channel.powers[1])
    r, one_minus_r = math.exp(-step / gamma), -math.expm1(-step / gamma)
    i1 = min(math.ceil(period / step), n)
    i0 = min(max(math.floor((period - pulse) / step) + 1, 0), i1)
    m, c = i1 - i0, i0 * step + pulse - period
    geometric = (1 - r**m) / one_minus_r
    arithmetic = (r - m * r**m + (m - 1) * r ** (m + 1)) / one_minus_r**2
    straddling = r**i0 * (c * geometric + step * arithmetic) / pulse
    full = (r**i1 - r**n) / one_minus_r
    return (full + straddling) / ((1 - r**n) / one_minus_r)


def _pulse_and_periods(min_size, max_size):
    """A pulse duration of 1 ps to 5 ns and a sorted list of symbol periods
    from it to 100 ns."""
    return st.floats(1e-12, 5e-9).flatmap(lambda pulse: st.tuples(
        st.just(pulse),
        st.lists(st.floats(pulse, 100e-9), min_size=min_size, max_size=max_size).map(sorted),
    ))


class TestIsiSpill:
    def test_point_channel_spills_nothing(self):
        line = TappedDelayLine.from_taps([(0.0, 1.0)])
        assert isi_spill(line, 1e-9, 1e-9) == 0.0
        assert isi_spill(line, 2e-9, 5e-9) == 0.0

    # a quotient past the float range: in_symbol_fraction warned "overflow
    # encountered in divide" where isi_spill did not
    @pytest.mark.filterwarnings("error")
    def test_periods_past_the_float_range_warn_nothing(self):
        line = TappedDelayLine.from_taps([(0.0, 0.5), (1e-9, 0.5)])
        assert isi_spill(line, 1e-300, 1e300) == 0.0
        assert in_symbol_fraction(line, 1e-300, 1e300) == 1.0

    # each fraction is a 400-tap dot product: 2.6e-14 off 1 at worst over
    # 5000 draws
    @given(st.integers(0, 2**32 - 1), _pulse_and_periods(1, 4))
    @example(3, (0.25e-9, [0.25e-9, 5e-9, 9.25e-9, 30e-9]))
    def test_energy_conservation(self, seed, pulse_and_periods):
        channel = synthesize_channel(9e-9, 0.5e-9, 400, rng_seed=seed)
        pulse, periods = pulse_and_periods
        for symbol_period in periods:
            total = isi_spill(channel, pulse, symbol_period) + in_symbol_fraction(
                channel, pulse, symbol_period
            )
            assert abs(total - 1.0) <= 1e-12

    @given(st.none() | st.integers(0, 2**32 - 1), _pulse_and_periods(2, 20))
    @example(None, (0.25e-9, list(np.linspace(0.25e-9, 60e-9, 80))))
    def test_monotone_nonincreasing_in_symbol_period(self, seed, pulse_and_periods):
        channel = synthesize_channel(9e-9, 0.5e-9, 400, rng_seed=seed)
        pulse, periods = pulse_and_periods
        spills = [isi_spill(channel, pulse, float(t)) for t in periods]
        assert all(a >= b for a, b in zip(spills, spills[1:]))
        assert all(0.0 <= s <= 1.0 for s in spills)

    def test_exponential_tail_on_reference_grid(self):
        # spacing target/18, span ~22 targets
        channel = synthesize_channel(9e-9, 0.5e-9, 400)
        spill_k3 = isi_spill(channel, 0.25e-9, 0.25e-9 + 3 * 9e-9)
        assert 0.040 <= spill_k3 <= 0.060  # exp(-3) ~ 0.0498 plus discretization

    def test_exponential_tail_fine_grid_all_k(self):
        channel = synthesize_channel(9e-9, 0.09e-9, 1500)
        for k in range(1, 6):
            spill = isi_spill(channel, 0.25e-9, 0.25e-9 + k * 9e-9)
            assert rel(spill, math.exp(-k)) <= 0.2

    def test_nominal_spacing_spills_about_a_third(self):
        # the k = 1 spacing leaves roughly exp(-1) of the energy outside
        channel = synthesize_channel(9e-9, 0.09e-9, 1500)
        spill = isi_spill(channel, 0.25e-9, 0.25e-9 + 9e-9)
        assert rel(spill, math.exp(-1)) <= 0.2

    @pytest.mark.parametrize("pulse", [0.25e-9, 0.5e-9])
    @pytest.mark.parametrize(
        "d_rms, spacing, taps",
        [(9e-9, 9e-9 / 40, 600), (1e-9, 0.05e-9, 400), (9e-9, 0.09e-9, 1500),
         (17e-9, 17e-9 / 40, 600)],
    )
    def test_matches_the_grid_exact_geometric_series(self, d_rms, spacing, taps, pulse):
        channel = synthesize_channel(d_rms, spacing, taps)
        for k in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
            period = pulse + k * d_rms
            expected = geometric_spill(channel, pulse, period)
            assert rel(isi_spill(channel, pulse, period), expected) <= 1e-9

    def test_symbol_shorter_than_pulse_is_rejected(self):
        channel = synthesize_channel(9e-9, 0.5e-9, 400)
        with pytest.raises(DomainError):
            isi_spill(channel, 1e-9, 0.5e-9)
        with pytest.raises(ValueError):
            isi_spill(channel, 0.0, 1e-9)


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

class TestValidateAssumption:
    def test_mean_spill_strictly_decreasing_in_guard(self):
        reports = validate_assumption(
            9e-9, 0.25e-9, guard_multiples=(1, 2, 3, 4, 5), trials=200, rng_seed=42
        )
        means = [r.spill_fraction for r in reports]
        assert all(a > b for a, b in zip(means, means[1:]))
        assert all(r.trials == 200 for r in reports)
        assert all(r.spill_min <= r.spill_fraction <= r.spill_max for r in reports)

    def test_wide_guard_spills_little(self):
        reports = validate_assumption(
            9e-9, 0.25e-9, guard_multiples=(5,), trials=200, rng_seed=42
        )
        assert reports[0].spill_fraction < 0.02

    def test_no_guard_is_worst(self):
        zero, one = validate_assumption(
            9e-9, 0.25e-9, guard_multiples=(0, 1), trials=50, rng_seed=1
        )
        assert zero.spill_fraction >= one.spill_fraction

    def test_reproducible_per_seed(self):
        first = validate_assumption(9e-9, 0.25e-9, trials=60, rng_seed=42)
        second = validate_assumption(9e-9, 0.25e-9, trials=60, rng_seed=42)
        assert first == second
        different = validate_assumption(9e-9, 0.25e-9, trials=60, rng_seed=43)
        assert first != different

    def test_realized_spread_tracks_target(self):
        reports = validate_assumption(9e-9, 0.25e-9, trials=200, rng_seed=0)
        assert rel(reports[0].realized_d_rms, 9e-9) < 0.2

    def test_deterministic_mode_matches_direct_spill(self):
        reports = validate_assumption(
            9e-9,
            0.25e-9,
            guard_multiples=(1, 3),
            deterministic=True,
            tap_spacing=0.09e-9,
            num_taps=1500,
        )
        channel = synthesize_channel(9e-9, 0.09e-9, 1500)
        for report, k in zip(reports, (1, 3)):
            assert report.trials == 1
            # the closed form and the array sum in different orders
            spill = isi_spill(channel, 0.25e-9, 0.25e-9 + k * 9e-9)
            assert rel(report.spill_fraction, spill) <= 1e-12
            assert report.spill_min == report.spill_max == report.spill_fraction

    def test_deterministic_spill_is_scale_invariant(self):
        # the default grid scales with d_RMS, so with the pulse scaled too
        # every spill is the same number
        guards = (0, 1, 2, 3, 5)
        spills = [
            [r.spill_fraction for r in validate_assumption(
                d_rms, d_rms / 4.0, guard_multiples=guards, deterministic=True)]
            for d_rms in (9e-9, 1e-9, 17e-9, 21e-9)
        ]
        for other in spills[1:]:
            for spill, reference in zip(other, spills[0]):
                assert rel(spill, reference) <= 1e-12

    def test_report_serializes(self):
        import json

        reports = validate_assumption(9e-9, 0.25e-9, guard_multiples=(1,), trials=5, rng_seed=0)
        payload = json.dumps([r.to_dict() for r in reports])
        parsed = json.loads(payload)
        assert parsed[0]["guard_multiple"] == 1.0
        assert parsed[0]["trials"] == 5

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            validate_assumption(9e-9, 0.25e-9, trials=0)
        with pytest.raises(ValueError):
            validate_assumption(9e-9, 0.25e-9, guard_multiples=())
        with pytest.raises(ValueError):
            validate_assumption(9e-9, 0.25e-9, guard_multiples=(-1,))
        with pytest.raises(DomainError):
            validate_assumption(9e-9, 0.25e-9, tap_spacing=5e-9)

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_trials_are_bounded_before_any_allocation(self, monkeypatch, deterministic):
        def allocate(*args, **kwargs):
            raise AssertionError("allocated")

        for name in ("empty", "zeros", "arange"):
            monkeypatch.setattr(np, name, allocate)
        monkeypatch.setattr(isi, "synthesize_channel", allocate)
        with pytest.raises(ValueError, match=r"^trials = 1000001 exceeds the 1000000 "):
            validate_assumption(9e-9, 0.25e-9, trials=10**6 + 1, deterministic=deterministic)

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_negative_seed_is_named_before_any_draw(self, monkeypatch, deterministic):
        def no_draw(seed):
            raise AssertionError(f"drew from seed {seed!r}")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
            validate_assumption(9e-9, 0.25e-9, trials=3, rng_seed=-1,
                                deterministic=deterministic)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -0.1e-9])
    def test_bad_tap_spacing_raises_domain_error(self, spacing):
        # checked before the default num_taps is derived from it
        with pytest.raises(DomainError, match="tap_spacing must be finite and > 0"):
            validate_assumption(9e-9, 0.25e-9, trials=1, tap_spacing=spacing)

    @pytest.mark.parametrize(
        "d_rms, pulse, guards",
        [
            (0.0, 0.25e-9, (1.0,)),
            (math.nan, 0.25e-9, (1.0,)),
            (math.inf, 0.25e-9, (1.0,)),
            (9e-9, 0.0, (1.0,)),
            (9e-9, math.nan, (1.0,)),
            (9e-9, 0.25e-9, (1.0, math.nan)),
            (9e-9, 0.25e-9, (math.inf,)),
        ],
    )
    def test_out_of_domain_inputs_raise_domain_error_up_front(self, d_rms, pulse, guards):
        with pytest.raises(DomainError, match="finite"):
            validate_assumption(d_rms, pulse, guard_multiples=guards, trials=1)


def _per_trial_reference(
    target_d_rms, pulse_duration, guard_multiples=(1.0, 2.0, 3.0, 4.0, 5.0),
    trials=200, rng_seed=0, *, tap_spacing=None, num_taps=None, deterministic=False,
):
    """``validate_assumption`` as one synthesized channel per trial."""
    if tap_spacing is None:
        tap_spacing = target_d_rms / 40.0
        if num_taps is None:
            num_taps = 600
    if num_taps is None:
        num_taps = int(math.ceil(15.0 * target_d_rms / tap_spacing))
    if deterministic:
        channels = [synthesize_channel(target_d_rms, tap_spacing, num_taps)]
    else:
        channels = [
            synthesize_channel(target_d_rms, tap_spacing, num_taps, rng_seed=(rng_seed, t))
            for t in range(trials)
        ]
    realized = float(np.mean([rms_delay_spread(ch) for ch in channels]))
    reports = []
    for k in guard_multiples:
        symbol_period = pulse_duration + float(k) * target_d_rms
        spills = np.array([isi_spill(ch, pulse_duration, symbol_period) for ch in channels])
        reports.append(
            IsiReport(
                target_d_rms=target_d_rms,
                realized_d_rms=realized,
                symbol_period=symbol_period,
                guard_multiple=float(k),
                spill_fraction=float(spills.mean()),
                spill_min=float(spills.min()),
                spill_max=float(spills.max()),
                trials=len(channels),
            )
        )
    return reports


def _assert_close_reports(actual, expected):
    """Equal reports, but realized spread and spills within 1e-12 relative."""
    assert len(actual) == len(expected)
    for mine, theirs in zip(actual, expected):
        mine, theirs = mine.to_dict(), theirs.to_dict()
        assert mine.keys() == theirs.keys()
        for key, value in theirs.items():
            assert abs(mine[key] - value) <= 1e-12 * abs(value), key


class TestBatchedParity:
    """The one-pass trial loop equals the per-channel algorithm exactly; the
    closed-form fading-free oracle equals it within 1e-12 relative."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 101, 2**40 + 3])
    def test_default_grid(self, seed):
        args = (9e-9, 0.25e-9)
        kwargs = dict(trials=120, rng_seed=seed)
        assert validate_assumption(*args, **kwargs) == _per_trial_reference(*args, **kwargs)

    @pytest.mark.parametrize(
        "d_rms, pulse, guards, spacing, taps",
        [
            (9e-9, 0.25e-9, (0, 1, 3), 0.09e-9, 1500),
            (1e-9, 0.5e-9, (0.0, 0.5, 1.0, 2.0), 0.05e-9, 400),
            (17e-9, 1e-9, (2, 0, 4), None, 700),
            (0.87e-9, 0.3e-9, (1, 2), 0.01e-9, None),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_explicit_grids_and_zero_guard(self, d_rms, pulse, guards, spacing, taps, seed):
        kwargs = dict(
            guard_multiples=guards, trials=60, rng_seed=seed, tap_spacing=spacing, num_taps=taps
        )
        assert validate_assumption(d_rms, pulse, **kwargs) == _per_trial_reference(
            d_rms, pulse, **kwargs
        )

    @pytest.mark.parametrize(
        "d_rms, pulse, spacing, taps",
        [(9e-9, 0.25e-9, None, None), (1e-9, 0.5e-9, 0.05e-9, 400), (89e-9, 2e-9, 1e-9, 1400)],
    )
    def test_deterministic(self, d_rms, pulse, spacing, taps):
        kwargs = dict(
            guard_multiples=(0, 1, 2, 5), deterministic=True, tap_spacing=spacing, num_taps=taps
        )
        _assert_close_reports(validate_assumption(d_rms, pulse, **kwargs),
                              _per_trial_reference(d_rms, pulse, **kwargs))

    # grids of 10 to 400 taps per d_RMS over 10.5 to 40 d_RMS (None: the
    # default grid), pulses of 1e-4 to 5 d_RMS, guard multiples up to 8
    @given(
        st.floats(1e-11, 1e-6),
        st.none() | st.tuples(st.integers(10, 400), st.floats(10.5, 40.0)),
        st.floats(1e-4, 5.0),
        st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4),
    )
    # a tap exactly on the period: 4e-9 + 1e-30 == 4e-9 puts tap 160 before it
    @example(1e-9, None, 1e-21, [4.0])
    # a symbol period of 9e299 s: period / step overflows to inf
    @example(9e-9, None, 0.25e-9 / 9e-9, [1e308])
    def test_deterministic_matches_the_summed_arrays(self, d_rms, grid, pulse_share, guards):
        spacing, taps = (None, None) if grid is None else (d_rms / grid[0], int(grid[0] * grid[1]))
        reports = validate_assumption(d_rms, d_rms * pulse_share, guards, deterministic=True,
                                      tap_spacing=spacing, num_taps=taps)
        _assert_close_reports(reports, _per_trial_reference(
            d_rms, d_rms * pulse_share, guards, deterministic=True,
            tap_spacing=spacing, num_taps=taps))
        assert all(math.copysign(1.0, r.spill_fraction) == 1.0 for r in reports)

    def test_single_trial(self):
        kwargs = dict(guard_multiples=(1,), trials=1, rng_seed=5)
        assert validate_assumption(3e-9, 0.2e-9, **kwargs) == _per_trial_reference(
            3e-9, 0.2e-9, **kwargs
        )


def test_trial_loop_holds_no_trials_by_taps_matrix():
    import tracemalloc

    trials, taps = 1000, 600  # a (trials x taps) float matrix is 4.8 MB
    validate_assumption(9e-9, 0.25e-9, trials=1, num_taps=taps)  # calibrate outside
    tracemalloc.start()
    try:
        validate_assumption(9e-9, 0.25e-9, trials=trials, rng_seed=3, num_taps=taps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trials * taps * 8 / 10


def _fresh_python(script, *args) -> str:
    """stdout of ``script`` run in a new interpreter that imports ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


_LOADED_AFTER_MAIN = """
import contextlib, io, sys
import uwbcap.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert uwbcap.cli.main(sys.argv[1:]) == 0
print('numpy' in sys.modules, 'scipy' in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, numpy_loaded",
    [
        ((), False),
        (("capacity", "digital", "--fs", "2GSPS", "--delay-spread", "17ns"), False),
        (("capacity", "ideal", "--bandwidth", "2GHz", "--delay-spread", "17ns"), False),
        (("table", "iv", "--check"), False),
        (("table", "vii", "--check"), False),
        (("datasets", "list", "channels"), False),
        # the array commands load numpy, so the check can see it
        (
            ("sweep", "--mode", "mixed", "--param", "fcircuit", "--from", "1GHz",
             "--to", "2GHz", "--points", "3", "--delay-spreads", "1ns"),
            True,
        ),
        (("validate-isi", "--delay-spread", "1ns", "--pulse-duration", "0.25ns",
          "--trials", "2"), True),
        # the fading-free oracle is closed-form scalar arithmetic
        (("validate-isi", "--delay-spread", "1ns", "--pulse-duration", "0.25ns",
          "--deterministic", "--format", "json"), False),
    ],
    ids=["import", "capacity-digital", "capacity-ideal", "table-iv", "table-vii",
         "datasets-list", "sweep", "validate-isi", "validate-isi-deterministic"],
)
def test_only_array_commands_load_numpy(argv, numpy_loaded):
    # scipy is never imported
    assert _fresh_python(_LOADED_AFTER_MAIN, *argv) == f"{numpy_loaded} False"


def test_import_time_lists_the_lazily_loaded_modules():
    # -X importtime records __import__ but not importlib.import_module, so
    # these modules' time once showed as uwbcap.cli's own
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import uwbcap.cli"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    rows = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    assert {"uwbcap.capacity", "uwbcap.datasets", "uwbcap.explorer", "uwbcap.cli"} <= rows


def test_package_star_import_binds_every_exported_name():
    script = """
import uwbcap
namespace = {}
exec("from uwbcap import *", namespace)
import uwbcap.isi
print([name for name in uwbcap.__all__ if name not in namespace],
      uwbcap.validate_assumption is uwbcap.isi.validate_assumption)
"""
    assert _fresh_python(script) == "[] True"


#: The public names of ``uwbcap``, by the submodule that defines them.
_PUBLIC_NAMES = {
    "capacity": (
        "BINARY_SNR_LINEAR", "MARY_LOG2", "MARY_PAPER", "MIXED", "MOSTLY_DIGITAL",
        "CapacityResult", "CircuitFrequency", "DelaySpread", "ModulationScheme",
        "PulseSpec", "SamplingConfig", "SnrValue", "asymptote", "binary_capacity",
        "capacity_derivative", "ideal_capacity", "mixed_capacity",
        "mostly_digital_capacity", "percent_of_max", "required_frequency",
    ),
    "datasets": (
        "ADC_MARKET", "ADC_STATE_OF_ART", "ANTENNA_CONFIGS", "CHANNELS",
        "PULSE_GENERATORS", "TABLE_IDS", "AdcEntry", "AntennaConfigEntry",
        "ChannelEnvironment", "PulseGeneratorEntry", "ingest_csv", "load_builtin", "query",
    ),
    "errors": ("DomainError", "QuantityError", "SchemaError"),
    "explorer": (
        "MarketPoint", "ScenarioRow", "SweepPoint", "SweepSpec", "check_table_iv",
        "check_table_vii", "market_capacity_points", "reproduce_table_iv",
        "reproduce_table_vii", "run_sweep",
    ),
    "isi": (
        "IsiReport", "TappedDelayLine", "in_symbol_fraction", "isi_spill",
        "rms_delay_spread", "synthesize_channel", "validate_assumption",
    ),
    "units": ("format_quantity", "parse_quantity"),
}


def test_package_names_load_their_module_on_first_use():
    script = """
import importlib, json, sys
import uwbcap
loaded = sorted(m for m in sys.modules if m.startswith("uwbcap."))
capacity = uwbcap.capacity.__name__  # before any other name loads the module
public = json.loads(sys.argv[1])
try:
    uwbcap.nope
    nope = "resolved"
except AttributeError as exc:
    nope = str(exc)
print(json.dumps({
    "loaded": loaded,
    "all": sorted(uwbcap.__all__),
    "distinct": len(set(uwbcap.__all__)) == len(uwbcap.__all__),
    "mismatched": [
        name for module, names in public.items() for name in names
        if getattr(uwbcap, name) is not getattr(importlib.import_module("uwbcap." + module), name)
    ],
    "capacity": capacity,
    "nope": nope,
    "dir": sorted(set(uwbcap.__all__) - set(dir(uwbcap))),
}))
"""
    result = json.loads(_fresh_python(script, json.dumps(_PUBLIC_NAMES)))
    names = sorted(name for names in _PUBLIC_NAMES.values() for name in names)
    assert len(names) == 55
    assert result == {
        "loaded": [],
        "all": names,
        "distinct": True,
        "mismatched": [],
        "capacity": "uwbcap.capacity",
        "nope": "module 'uwbcap' has no attribute 'nope'",
        "dir": [],
    }
