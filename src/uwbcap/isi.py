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

from .errors import DomainError
from .explorer import emit_csv_string
from .units import TIME, format_quantity

_POWER_SUM_TOL = 1e-12
#: exp(-x) underflows to 0 in double precision for x above about 745.13.
_UNDERFLOW_DECAYS = 746.0
#: Longest tap grid built: 80 MB per float array, and the calibration holds
#: several such arrays (delays, powers, their products) at once.
_MAX_TAPS = 10**7


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
        return emit_csv_string([
            {"delay": format_quantity(delay, TIME), "power": repr(power)}
            for delay, power in zip(self.delays.tolist(), self.powers.tolist())
        ])


def _rms(powers: np.ndarray, delays: np.ndarray) -> float:
    """RMS delay spread of unit-total ``powers`` at ``delays``."""
    mean = float(np.dot(powers, delays))
    second = float(np.dot(powers, delays * delays))
    # mean * mean, not mean ** 2: a float ** 2 calls libm pow
    return math.sqrt(max(second - mean * mean, 0.0))


def rms_delay_spread(channel: TappedDelayLine) -> float:
    """Root of the second central moment of the power-delay profile.

    sqrt( sum(p_i * tau_i^2) - (sum(p_i * tau_i))^2 ) with sum(p_i) = 1.
    Translation-invariant and linear under delay scaling.
    """
    return _rms(channel.powers, channel.delays)


def _exponential_powers(delays: np.ndarray, gamma: float) -> np.ndarray:
    powers = np.exp(-delays / gamma)
    powers /= powers.sum()
    return powers


@lru_cache(maxsize=64)
def _calibrated_profile(target_d_rms: float, tap_spacing: float, num_taps: int):
    """Exponential tap powers whose realized RMS delay spread hits the target.

    Discretization and truncation shift the realized spread away from the
    continuous-profile value, so the decay constant gamma is solved on the
    grid itself.  The realized spread rises monotonically with gamma, so a
    bisection of the bracket ``[target / 100, 4 * target]`` finds it; the
    bisection stops when the midpoint equals one of the endpoints (two
    adjacent doubles, at most ~60 halvings) and keeps the endpoint whose
    spread is nearer the target.  Returns read-only (delays, powers)
    arrays shared by every channel on the same grid.

    Raises:
        DomainError: the bracket's endpoints do not straddle the target, or
            the grid outlasts the profile (its last tap power underflows to 0).
    """
    delays = np.arange(num_taps, dtype=float) * tap_spacing

    def excess(gamma):
        return _rms(_exponential_powers(delays, gamma), delays) - target_d_rms

    lo, hi = target_d_rms / 100.0, 4.0 * target_d_rms
    excess_lo, excess_hi = excess(lo), excess(hi)
    if not excess_lo <= 0.0 <= excess_hi:
        raise DomainError(
            "cannot calibrate the profile: no decay constant in "
            f"[{lo!r}, {hi!r}] s realizes a delay spread of {target_d_rms!r} s"
        )
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        excess_mid = excess(mid)
        if excess_mid < 0.0:
            lo, excess_lo = mid, excess_mid
        else:
            hi, excess_hi = mid, excess_mid
    gamma = lo if -excess_lo <= excess_hi else hi
    powers = _exponential_powers(delays, gamma)
    if powers[-1] == 0.0:
        raise DomainError(
            f"infeasible discretization: num_taps = {num_taps} spans "
            f"{num_taps * tap_spacing!r} s, past which the tap powers of a "
            f"{target_d_rms!r} s profile underflow to 0"
        )
    delays.setflags(write=False)
    powers.setflags(write=False)
    return delays, powers


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0 s, got {value!r}")


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
        target_d_rms: wanted RMS delay spread in seconds (finite, > 0).
        tap_spacing:  grid step in seconds (finite, > 0); at most
                      target_d_rms / 10.
        num_taps:     grid length, at most 10**7; the span
                      num_taps * tap_spacing must cover at least
                      10 * target_d_rms, and is too long once the last tap
                      power underflows to 0.
        rng_seed:     None for the deterministic profile, else anything
                      ``numpy.random.default_rng`` accepts.

    Raises:
        DomainError: a spread or spacing that is not finite and > 0, or an
            infeasible discretization (grid too coarse, too short, longer
            than 10**7 taps, or so long that tap powers underflow to 0).
    """
    _require_finite_positive("target_d_rms", target_d_rms)
    _require_finite_positive("tap_spacing", tap_spacing)
    if tap_spacing > target_d_rms / 10.0:
        raise DomainError(
            "infeasible discretization: tap_spacing must be at most "
            f"target_d_rms / 10 = {target_d_rms / 10.0!r} s"
        )
    # the decay constant is at most 4 * target_d_rms, so past this span the
    # last tap power underflows whatever the calibration finds: reject the
    # grid before allocating it (comparing the int num_taps, which may be
    # too large to convert to a float)
    if num_taps > _UNDERFLOW_DECAYS * 4.0 * target_d_rms / tap_spacing:
        raise DomainError(
            "infeasible discretization: num_taps * tap_spacing must stay below "
            f"{_UNDERFLOW_DECAYS * 4.0 * target_d_rms!r} s, past which tap powers "
            "underflow to 0"
        )
    if num_taps > _MAX_TAPS:
        raise DomainError(
            f"infeasible discretization: num_taps = {num_taps} exceeds the "
            f"{_MAX_TAPS} taps a grid may hold"
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


def _tail(delays: np.ndarray, pulse_duration: float, symbol_period: float) -> np.ndarray:
    """Share of each tap's pulse energy that lands at or after the symbol period."""
    return np.clip((delays + pulse_duration - symbol_period) / pulse_duration, 0.0, 1.0)


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
    return float(np.dot(channel.powers, _tail(channel.delays, pulse_duration, symbol_period)))


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

    The result equals synthesizing each trial's channel with
    ``synthesize_channel`` and measuring it with ``rms_delay_spread`` and
    ``isi_spill``, bit for bit, but the profile is calibrated and checked
    once, the spill tails are built once per guard multiple, and each
    trial is one faded power row measured with the same dot products.

    Returns one ``IsiReport`` per guard multiple, in the given order.

    Raises:
        DomainError: a delay spread, pulse duration or tap spacing that is
            not finite and > 0, a guard multiple that is not finite and
            >= 0, a tap spacing so fine that the default grid would exceed
            10**7 taps, or an infeasible discretization.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not guard_multiples:
        raise ValueError("at least one guard multiple is required")
    _require_finite_positive("delay spread", target_d_rms)
    _require_finite_positive("pulse duration", pulse_duration)
    if not all(math.isfinite(k) and k >= 0 for k in guard_multiples):
        raise DomainError("guard multiples must be finite and >= 0")
    if tap_spacing is None:
        tap_spacing = target_d_rms / 40.0
    _require_finite_positive("tap_spacing", tap_spacing)
    if num_taps is None:
        taps = 15.0 * target_d_rms / tap_spacing
        if not taps <= _MAX_TAPS:
            raise DomainError(
                f"tap_spacing {tap_spacing!r} s is too fine: the default grid "
                f"of 15 * d_RMS / tap_spacing = {taps!r} taps exceeds {_MAX_TAPS}"
            )
        num_taps = int(math.ceil(taps))

    profile = synthesize_channel(target_d_rms, tap_spacing, num_taps)
    delays, powers = profile.delays, profile.powers
    periods = [pulse_duration + float(k) * target_d_rms for k in guard_multiples]
    tails = [_tail(delays, pulse_duration, period) for period in periods]
    count = 1 if deterministic else trials
    realized = np.empty(count)
    spills = np.empty((len(tails), count))
    for t in range(count):
        if deterministic:
            row = powers
        else:
            # synthesize_channel's fading draw and normalization
            row = powers * np.random.default_rng((rng_seed, t)).exponential(1.0, powers.size)
            row /= row.sum()
        realized[t] = _rms(row, delays)
        for k, tail in enumerate(tails):
            spills[k, t] = np.dot(row, tail)
    realized_mean = float(realized.mean())

    return [
        IsiReport(
            target_d_rms=target_d_rms,
            realized_d_rms=realized_mean,
            symbol_period=period,
            guard_multiple=float(k),
            spill_fraction=float(spill.mean()),
            spill_min=float(spill.min()),
            spill_max=float(spill.max()),
            trials=count,
        )
        for k, period, spill in zip(guard_multiples, periods, spills)
    ]
