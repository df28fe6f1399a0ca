import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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

    def test_translation_invariance(self):
        # the moment itself must not depend on the time origin
        delays = np.array([0.0, 1e-9, 3e-9])
        powers = np.array([0.5, 0.25, 0.25])
        base = rms_delay_spread(SimpleNamespace(delays=delays, powers=powers))
        shifted = rms_delay_spread(
            SimpleNamespace(delays=delays + 7e-9, powers=powers)
        )
        assert rel(shifted, base) < 1e-9

    def test_scales_linearly_with_delays(self):
        line = TappedDelayLine.from_taps([(0.0, 0.5), (1e-9, 0.25), (3e-9, 0.25)])
        stretched = TappedDelayLine(line.delays * 4.0, line.powers)
        assert rel(rms_delay_spread(stretched), 4.0 * rms_delay_spread(line)) < 1e-12


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
                (d, d / 40.0, int(math.ceil(15.0 * d / (d / 40.0))))
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
        # the default grid for every survey d_RMS, plus two explicit grids
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

class TestIsiSpill:
    def test_point_channel_spills_nothing(self):
        line = TappedDelayLine.from_taps([(0.0, 1.0)])
        assert isi_spill(line, 1e-9, 1e-9) == 0.0
        assert isi_spill(line, 2e-9, 5e-9) == 0.0

    def test_energy_conservation(self):
        channel = synthesize_channel(9e-9, 0.5e-9, 400, rng_seed=3)
        for symbol_period in (0.25e-9, 5e-9, 9.25e-9, 30e-9):
            total = isi_spill(channel, 0.25e-9, symbol_period) + in_symbol_fraction(
                channel, 0.25e-9, symbol_period
            )
            assert abs(total - 1.0) <= 1e-12

    def test_monotone_nonincreasing_in_symbol_period(self):
        channel = synthesize_channel(9e-9, 0.5e-9, 400)
        periods = np.linspace(0.25e-9, 60e-9, 80)
        spills = [isi_spill(channel, 0.25e-9, float(t)) for t in periods]
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
            assert report.spill_fraction == isi_spill(
                channel, 0.25e-9, 0.25e-9 + k * 9e-9
            )
            assert report.spill_min == report.spill_max == report.spill_fraction

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


class TestBatchedParity:
    """The one-pass trial loop equals the per-channel algorithm exactly."""

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
        assert validate_assumption(d_rms, pulse, **kwargs) == _per_trial_reference(
            d_rms, pulse, **kwargs
        )

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
    ],
    ids=["import", "capacity-digital", "capacity-ideal", "table-iv", "table-vii",
         "datasets-list", "sweep", "validate-isi"],
)
def test_only_array_commands_load_numpy(argv, numpy_loaded):
    # scipy is never imported
    assert _fresh_python(_LOADED_AFTER_MAIN, *argv) == f"{numpy_loaded} False"


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
