"""Tapped-delay-line synthesis and inter-symbol interference measurement.

The capacity models assume that symbols spaced ``T_p + d_RMS`` apart see no
inter-symbol interference.  This module is the oracle for that assumption:
it synthesizes multipath channels with a prescribed RMS delay spread
(single-cluster exponential power-delay profile, optionally with Rayleigh
fading on each tap) and measures how much received energy actually arrives
after a candidate symbol period.

For an exponential profile with decay constant equal to the delay spread
and a pulse much shorter than it (``T_p << d_RMS``), the energy past
``T_p + k * d_RMS`` is roughly ``exp(-k)`` -- about 37% at the nominal
k = 1 spacing -- so "no ISI" at that spacing is an optimistic
idealization, quantified here rather than assumed.  A wider pulse smears
each tap over ``[tau, tau + T_p)`` and lowers the spill below ``exp(-k)``:
at d_RMS = 1 ns, T_p = 0.5 ns and k = 1 the oracle gives 0.286.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError
from .units import TIME, format_quantity

_POWER_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TappedDelayLine:
    """Discrete power-delay profile: taps at increasing delays, powers summing to 1."""

    delays: np.ndarray  # s, first tap at 0, strictly increasing
    powers: np.ndarray  # dimensionless, > 0, total 1 within 1e-12

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        powers = np.asarray(self.powers, dtype=float)
        if delays.ndim != 1 or delays.size == 0:
            raise ValueError("a tap line needs at least one tap")
        if delays.shape != powers.shape:
            raise ValueError("delays and powers must have the same length")
        if delays[0] != 0.0:
            raise ValueError("the first tap must be at delay 0")
        if delays.size > 1 and not np.all(np.diff(delays) > 0):
            raise ValueError("tap delays must be strictly increasing")
        if not np.all(powers > 0):
            raise ValueError("tap powers must be > 0")
        if abs(powers.sum() - 1.0) > _POWER_SUM_TOL:
            raise ValueError("tap powers must sum to 1 within 1e-12")
        delays.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "powers", powers)

    @classmethod
    def normalized(cls, delays, powers) -> "TappedDelayLine":
        """Build a tap line, rescaling the powers to total exactly 1."""
        powers = np.asarray(powers, dtype=float)
        total = powers.sum()
        if total <= 0:
            raise ValueError("total tap power must be > 0")
        return cls(np.asarray(delays, dtype=float), powers / total)

    @classmethod
    def from_taps(cls, taps) -> "TappedDelayLine":
        """Build from an iterable of (delay, power) pairs."""
        pairs = list(taps)
        return cls(
            np.array([d for d, _ in pairs], dtype=float),
            np.array([p for _, p in pairs], dtype=float),
        )

    def to_csv(self) -> str:
        """Tap line as CSV, delays in the unit-suffix quantity grammar."""
        lines = ["delay,power"]
        for delay, power in zip(self.delays, self.powers):
            lines.append(f"{format_quantity(float(delay), TIME)},{float(power)!r}")
        return "\n".join(lines) + "\n"


def rms_delay_spread(channel: TappedDelayLine) -> float:
    """Root of the second central moment of the power-delay profile.

    sqrt( sum(p_i * tau_i^2) - (sum(p_i * tau_i))^2 ) with sum(p_i) = 1.
    Translation-invariant and linear under delay scaling.
    """
    mean = float(np.dot(channel.powers, channel.delays))
    second = float(np.dot(channel.powers, channel.delays**2))
    return math.sqrt(max(second - mean * mean, 0.0))


def _grid_rms(delays: np.ndarray, gamma: float) -> float:
    powers = np.exp(-delays / gamma)
    powers /= powers.sum()
    mean = float(np.dot(powers, delays))
    second = float(np.dot(powers, delays**2))
    return math.sqrt(max(second - mean * mean, 0.0))


@lru_cache(maxsize=64)
def _calibrated_profile(target_d_rms: float, tap_spacing: float, num_taps: int):
    """Exponential tap powers whose realized RMS delay spread hits the target.

    The decay constant is solved numerically because discretization and
    truncation shift the realized spread away from the continuous-profile
    value.  Returns read-only (delays, powers) arrays shared by every
    channel on the same grid.
    """
    delays = np.arange(num_taps, dtype=float) * tap_spacing
    gamma = brentq(
        lambda g: _grid_rms(delays, g) - target_d_rms,
        target_d_rms / 100.0,
        4.0 * target_d_rms,
        rtol=1e-13,
        maxiter=200,
    )
    powers = np.exp(-delays / gamma)
    powers /= powers.sum()
    delays.setflags(write=False)
    powers.setflags(write=False)
    return delays, powers


def synthesize_channel(
    target_d_rms: float,
    tap_spacing: float,
    num_taps: int,
    rng_seed=None,
) -> TappedDelayLine:
    """Synthesize a tapped delay line with a prescribed RMS delay spread.

    Tap powers follow a single-cluster exponential power-delay profile,
    with the decay constant calibrated so the realized RMS delay spread
    matches the target on the discrete grid.  With ``rng_seed=None`` the
    profile is deterministic (no fading); with a seed, each tap power is
    additionally drawn with an exponentially distributed magnitude
    (Rayleigh amplitude fading), reproducibly.

    Args:
        target_d_rms: wanted RMS delay spread in seconds (> 0).
        tap_spacing:  grid step in seconds; at most target_d_rms / 10.
        num_taps:     grid length; the span num_taps * tap_spacing must
                      cover at least 10 * target_d_rms.
        rng_seed:     None for the deterministic profile, else anything
                      ``numpy.random.default_rng`` accepts.

    Raises:
        DomainError: infeasible discretization (grid too coarse or short).
    """
    if target_d_rms <= 0:
        raise DomainError("target delay spread must be > 0 s")
    if tap_spacing <= 0 or tap_spacing > target_d_rms / 10.0:
        raise DomainError(
            "infeasible discretization: tap_spacing must be positive and "
            f"at most target_d_rms / 10 = {target_d_rms / 10.0!r} s"
        )
    if num_taps * tap_spacing < 10.0 * target_d_rms:
        raise DomainError(
            "infeasible discretization: num_taps * tap_spacing must cover "
            f"at least 10 * target_d_rms = {10.0 * target_d_rms!r} s"
        )
    delays, powers = _calibrated_profile(float(target_d_rms), float(tap_spacing), int(num_taps))
    if rng_seed is None:
        return TappedDelayLine(delays, powers)
    rng = np.random.default_rng(rng_seed)
    faded = powers * rng.exponential(1.0, powers.size)
    return TappedDelayLine.normalized(delays, faded)


def isi_spill(
    channel: TappedDelayLine,
    pulse_duration: float,
    symbol_period: float,
) -> float:
    """Fraction of received energy arriving at or after the symbol period.

    The transmit pulse is a unit-energy rectangular envelope of width
    ``pulse_duration``; each tap spreads its power over
    ``[tau_i, tau_i + pulse_duration)``, so the overlap with
    ``[symbol_period, inf)`` is exact, no convolution grid required.
    Monotone nonincreasing in the symbol period.

    Raises:
        DomainError: symbol_period < pulse_duration.
    """
    if pulse_duration <= 0:
        raise ValueError("pulse duration must be > 0 s")
    if symbol_period < pulse_duration:
        raise DomainError("symbol period must be at least the pulse duration")
    tail = np.clip(
        (channel.delays + pulse_duration - symbol_period) / pulse_duration, 0.0, 1.0
    )
    return float(np.dot(channel.powers, tail))


def in_symbol_fraction(
    channel: TappedDelayLine,
    pulse_duration: float,
    symbol_period: float,
) -> float:
    """Complementary energy fraction arriving before the symbol period."""
    if pulse_duration <= 0:
        raise ValueError("pulse duration must be > 0 s")
    if symbol_period < pulse_duration:
        raise DomainError("symbol period must be at least the pulse duration")
    head = np.clip((symbol_period - channel.delays) / pulse_duration, 0.0, 1.0)
    return float(np.dot(channel.powers, head))


@dataclass(frozen=True)
class IsiReport:
    """ISI spill at one guard setting, aggregated over channel realizations."""

    target_d_rms: float  # s
    realized_d_rms: float  # s, mean over realizations
    symbol_period: float  # s
    guard_multiple: float  # symbol period = pulse + guard_multiple * d_RMS
    spill_fraction: float  # mean over realizations
    spill_min: float
    spill_max: float
    trials: int

    def to_dict(self) -> dict:
        return {
            "target_d_rms_s": self.target_d_rms,
            "realized_d_rms_s": self.realized_d_rms,
            "symbol_period_s": self.symbol_period,
            "guard_multiple": self.guard_multiple,
            "spill_fraction": self.spill_fraction,
            "spill_min": self.spill_min,
            "spill_max": self.spill_max,
            "trials": self.trials,
        }


def validate_assumption(
    target_d_rms: float,
    pulse_duration: float,
    guard_multiples=(1.0, 2.0, 3.0, 4.0, 5.0),
    trials: int = 200,
    rng_seed: int = 0,
    *,
    tap_spacing: float | None = None,
    num_taps: int | None = None,
    deterministic: bool = False,
) -> list:
    """Measure ISI spill at symbol periods ``pulse + k * d_RMS`` for each k.

    Stochastic runs average over ``trials`` independently faded channels;
    each trial's random stream derives from (rng_seed, trial index), so
    results do not depend on evaluation order.  ``deterministic=True``
    evaluates the fading-free profile instead (trials collapse to 1).

    Returns one ``IsiReport`` per guard multiple, in the given order.

    Raises:
        DomainError: a delay spread or pulse duration that is not finite
            and > 0, or a guard multiple that is not finite and >= 0.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not guard_multiples:
        raise ValueError("at least one guard multiple is required")
    for name, value in (("delay spread", target_d_rms), ("pulse duration", pulse_duration)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and > 0 s, got {value!r}")
    if not all(math.isfinite(k) and k >= 0 for k in guard_multiples):
        raise DomainError("guard multiples must be finite and >= 0")
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
