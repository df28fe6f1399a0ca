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

The default grid holds 600 taps, d_RMS / 40 apart, over 15 d_RMS.  On a
grid of N taps with step D, the fading-free profile with decay constant
gamma is a truncated geometric distribution with ratio r = exp(-D / gamma).
Its realized spread is D * sqrt(r / (1 - r)**2 - N**2 r**N / (1 - r**N)**2),
and its spill is a geometric sum over the taps past the symbol period plus
an arithmetic-geometric one over the taps the pulse straddles.  The
calibration and the fading-free oracle evaluate these closed forms with
``math`` alone, so only channel arrays and faded trials import numpy.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .explorer import emit_csv_string
from .units import TIME, format_quantity

_POWER_SUM_TOL = 1e-12
#: exp(-x) underflows to 0 in double precision for x above about 745.13.
_UNDERFLOW_DECAYS = 746.0
#: Longest tap grid built: 80 MB per float array, and a faded validation
#: holds several such arrays (delays, powers, a faded row, the tails) at once.
_MAX_TAPS = 10**7
#: Most trials a validation runs: one faded row of the tap grid each.
_MAX_TRIALS = 10**6
#: The default grid: taps d_RMS / 40 apart over 15 d_RMS, counted exactly
#: (ceil(15 * d / (d / 40)) is 601 wherever the quotient rounds up).
_STEPS_PER_SPREAD = 40
_DEFAULT_TAPS = 15 * _STEPS_PER_SPREAD


@dataclass(frozen=True, eq=False)
class TappedDelayLine:
    """Discrete power-delay profile: taps at increasing delays, powers summing to 1."""

    delays: "numpy.ndarray"  # s, first tap at 0, strictly increasing
    powers: "numpy.ndarray"  # dimensionless, > 0, total 1 within 1e-12

    def __post_init__(self):
        import numpy as np

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
        import numpy as np

        powers = np.asarray(powers, dtype=float)
        total = powers.sum()
        if total <= 0:
            raise ValueError("total tap power must be > 0")
        return cls(np.asarray(delays, dtype=float), powers / total)

    @classmethod
    def from_taps(cls, taps) -> "TappedDelayLine":
        """Build from an iterable of (delay, power) pairs."""
        import numpy as np

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


def _rms(powers, delays) -> float:
    """RMS delay spread of unit-total ``powers`` at ``delays`` (arrays)."""
    mean = float(powers.dot(delays))
    second = float(powers.dot(delays * delays))
    # mean * mean, not mean ** 2: a float ** 2 calls libm pow
    return math.sqrt(max(second - mean * mean, 0.0))


def rms_delay_spread(channel: TappedDelayLine) -> float:
    """Root of the second central moment of the power-delay profile.

    sqrt( sum(p_i * tau_i^2) - (sum(p_i * tau_i))^2 ) with sum(p_i) = 1.
    Translation-invariant and linear under delay scaling.
    """
    return _rms(channel.powers, channel.delays)


def _geometric_sum(x: float, n: int) -> float:
    """sum(r**j, j < n) for the tap ratio r = exp(-x)."""
    return math.expm1(-x * n) / math.expm1(-x)


def _arithmetic_geometric_sum(x: float, n: int) -> float:
    """sum(j * r**j, j < n) for the tap ratio r = exp(-x).

    Built by doubling the run of taps, every term positive: the textbook
    (r - n r**n + (n - 1) r**(n + 1)) / (1 - r)**2 cancels to about
    eps / (n x)**2 relative when n x is small.
    """
    total, taps = 0.0, 1
    for bit in bin(n)[3:]:
        # sum over 2 * taps = sum over taps + r**taps * (sum over taps + taps * geometric)
        total += math.exp(-x * taps) * (total + taps * _geometric_sum(x, taps))
        taps *= 2
        if bit == "1":
            total += taps * math.exp(-x * taps)
            taps += 1
    return total


def _geometric_spread(gamma: float, tap_spacing: float, num_taps: int) -> float:
    """Realized RMS delay spread of the fading-free profile, in closed form."""
    x = tap_spacing / gamma
    one_minus_r, one_minus_r_n = -math.expm1(-x), -math.expm1(-num_taps * x)
    variance = (math.exp(-x) / (one_minus_r * one_minus_r)
                - num_taps * num_taps * math.exp(-num_taps * x) / (one_minus_r_n * one_minus_r_n))
    return tap_spacing * math.sqrt(max(variance, 0.0))


@lru_cache(maxsize=64)
def _calibrated_profile(target_d_rms: float, tap_spacing: float, num_taps: int) -> float:
    """Decay constant gamma of the exponential tap powers whose realized RMS
    delay spread hits the target.

    Discretization and truncation shift the realized spread away from the
    continuous-profile value, so gamma is solved on the grid itself, through
    the closed-form spread of the truncated geometric profile (no grid is
    allocated).  The realized spread rises monotonically with gamma, so a
    bisection of the bracket ``[target / 100, 4 * target]`` finds it; the
    bisection stops when the midpoint equals one of the endpoints (two
    adjacent doubles, at most ~60 halvings) and keeps the endpoint whose
    spread is nearer the target.

    Raises:
        DomainError: the bracket's endpoints do not straddle the target, or
            the grid outlasts the profile (its last tap power underflows to 0).
    """
    def excess(gamma):
        return _geometric_spread(gamma, tap_spacing, num_taps) - target_d_rms

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
    last = math.exp(-((num_taps - 1) * tap_spacing) / gamma)
    if last / _geometric_sum(tap_spacing / gamma, num_taps) == 0.0:
        raise DomainError(
            f"infeasible discretization: num_taps = {num_taps} spans "
            f"{num_taps * tap_spacing!r} s, past which the tap powers of a "
            f"{target_d_rms!r} s profile underflow to 0"
        )
    return gamma


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0 s, got {value!r}")


def _feasible_decay(target_d_rms: float, tap_spacing: float, num_taps: int) -> float:
    """Check that the grid can hold the profile, then calibrate its decay
    constant.  Every check runs before anything grid-sized is computed."""
    _require_finite_positive("target_d_rms", target_d_rms)
    _require_finite_positive("tap_spacing", tap_spacing)
    if tap_spacing > target_d_rms / 10.0:
        raise DomainError(
            "infeasible discretization: tap_spacing must be at most "
            f"target_d_rms / 10 = {target_d_rms / 10.0!r} s"
        )
    # the decay constant is at most 4 * target_d_rms, so past this span the
    # last tap power underflows whatever the calibration finds (comparing
    # the int num_taps, which may be too large to convert to a float)
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
    span = num_taps * tap_spacing
    if span < 10.0 * target_d_rms:
        raise DomainError(
            "infeasible discretization: num_taps * tap_spacing must cover "
            f"at least 10 * target_d_rms = {10.0 * target_d_rms!r} s"
        )
    # the tap delays are squared: a subnormal d_RMS^2 loses precision and an
    # overflowing span^2 gives inf (x * x: a float ** 2 raises)
    if target_d_rms * target_d_rms < sys.float_info.min or span * span == math.inf:
        raise DomainError(
            f"delay spread {target_d_rms!r} s is out of range: its square and that of "
            f"the tap grid's span, {span!r} s, must lie in the normal float range"
        )
    return _calibrated_profile(float(target_d_rms), float(tap_spacing), int(num_taps))


def _tap_arrays(gamma: float, tap_spacing: float, num_taps: int):
    """Delays and unit-total exponential powers of the fading-free profile."""
    import numpy as np

    delays = np.arange(num_taps, dtype=float) * tap_spacing
    powers = np.exp(-delays / gamma)
    powers /= powers.sum()
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
        DomainError: a spread or spacing that is not finite and > 0, a
            spread whose square is subnormal or whose grid span's square
            overflows, or an infeasible discretization (grid too coarse, too
            short, longer than 10**7 taps, or so long that tap powers
            underflow to 0).
    """
    gamma = _feasible_decay(target_d_rms, tap_spacing, num_taps)
    delays, powers = _tap_arrays(gamma, float(tap_spacing), int(num_taps))
    if rng_seed is not None:
        [powers] = _faded(powers, [rng_seed])
    return TappedDelayLine(delays, powers)


def _faded(powers, seeds):
    """For each seed, ``powers`` times one exponential (Rayleigh-fading) draw
    per tap from ``default_rng(seed)``, rescaled to total 1."""
    from numpy.random import default_rng

    for seed in seeds:
        faded = powers * default_rng(seed).exponential(1.0, powers.size)
        faded /= faded.sum()
        yield faded


def _tail(delays, pulse_duration: float, symbol_period: float):
    """Share of each tap's pulse energy that lands at or after the symbol period."""
    import numpy as np

    # a symbol period near the float range overflows the quotient to -inf,
    # which clips to the right share, 0
    with np.errstate(over="ignore"):
        return np.clip((delays + pulse_duration - symbol_period) / pulse_duration, 0.0, 1.0)


def _first_tap(reaches, estimate: float, limit: int) -> int:
    """The first tap i <= limit where the monotone ``reaches(i)`` holds, else
    ``limit``: started from the float ``estimate`` of it and settled on
    ``reaches`` itself, so a tap exactly at a boundary lands on the side
    ``_tail`` puts it."""
    i = max(math.ceil(estimate), 0) if estimate < limit else limit
    while i > 0 and reaches(i - 1):
        i -= 1
    while i < limit and not reaches(i):
        i += 1
    return i


def _geometric_spill(gamma: float, tap_spacing: float, num_taps: int,
                     pulse_duration: float, symbol_period: float) -> float:
    """``isi_spill`` of the fading-free profile, in closed form.

    Taps i >= i1 spill whole, a geometric sum; the taps the pulse straddles,
    i0 <= i < i1, spill the share ``tail(i0) + j * tap_spacing /
    pulse_duration`` with j = i - i0, an arithmetic-geometric sum.
    """
    def tail(i):  # _tail's quotient at tap i, in its float operation order
        return (i * tap_spacing + pulse_duration - symbol_period) / pulse_duration

    i1 = _first_tap(lambda i: tail(i) >= 1.0, symbol_period / tap_spacing, num_taps)
    i0 = _first_tap(lambda i: tail(i) > 0.0,
                    (symbol_period - pulse_duration) / tap_spacing, i1)
    x = tap_spacing / gamma

    def power(i):  # tap i's power before normalization, as _tap_arrays has it
        return math.exp(-(i * tap_spacing) / gamma)

    spill = power(i1) * _geometric_sum(x, num_taps - i1)
    straddled = i1 - i0
    if straddled:
        spill += power(i0) * (tail(i0) * _geometric_sum(x, straddled) + tap_spacing
                              / pulse_duration * _arithmetic_geometric_sum(x, straddled))
    return spill / _geometric_sum(x, num_taps)


def _check_pulse(pulse_duration: float, symbol_period: float) -> None:
    if pulse_duration <= 0:
        raise ValueError("pulse duration must be > 0 s")
    if symbol_period < pulse_duration:
        raise DomainError("symbol period must be at least the pulse duration")


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
        ValueError: pulse_duration <= 0.
        DomainError: symbol_period < pulse_duration.
    """
    _check_pulse(pulse_duration, symbol_period)
    return float(channel.powers.dot(_tail(channel.delays, pulse_duration, symbol_period)))


def in_symbol_fraction(
    channel: TappedDelayLine,
    pulse_duration: float,
    symbol_period: float,
) -> float:
    """Complementary energy fraction arriving before the symbol period."""
    import numpy as np

    _check_pulse(pulse_duration, symbol_period)
    # as in _tail: a quotient past the float range clips to the right share
    with np.errstate(over="ignore"):
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


def _faded_trials(gamma, tap_spacing, num_taps, pulse_duration, periods, trials, rng_seed):
    """Mean realized spread and (mean, min, max) spill per period over
    ``trials`` faded rows of the tap grid, row t drawn from (rng_seed, t)."""
    import numpy as np

    delays, powers = _tap_arrays(gamma, tap_spacing, num_taps)
    tails = [_tail(delays, pulse_duration, period) for period in periods]
    realized = np.empty(trials)
    spills = np.empty((len(tails), trials))
    rows = _faded(powers, ((rng_seed, t) for t in range(trials)))
    for t, row in enumerate(rows):
        realized[t] = _rms(row, delays)
        for k, tail in enumerate(tails):
            spills[k, t] = np.dot(row, tail)
    return float(realized.mean()), [
        (float(spill.mean()), float(spill.min()), float(spill.max())) for spill in spills
    ]


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

    The grid defaults to 600 taps, d_RMS / 40 apart; with only
    ``tap_spacing`` given it covers ``ceil(15 * d_RMS / tap_spacing)`` taps.

    A stochastic result equals synthesizing each trial's channel with
    ``synthesize_channel`` and measuring it with ``rms_delay_spread`` and
    ``isi_spill``, bit for bit, but the profile is calibrated and checked
    once, the spill tails are built once per guard multiple, and each
    trial is one faded power row measured with the same dot products.  A
    deterministic result is the closed form of the truncated geometric
    profile (see the module docstring), evaluated without numpy: it equals
    the summed arrays within 1e-12 relative, the two summing in different
    orders.

    Returns one ``IsiReport`` per guard multiple, in the given order.

    Raises:
        ValueError: trials outside 1 to 10**6, a negative seed, or no guard
            multiple.
        DomainError: a delay spread, pulse duration or tap spacing that is
            not finite and > 0, a guard multiple that is not finite and
            >= 0 or whose symbol period overflows, a tap spacing so fine
            that the default grid would exceed 10**7 taps, or an
            infeasible discretization.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials = {trials} exceeds the {_MAX_TRIALS} a validation may run")
    if rng_seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {rng_seed}")
    if not guard_multiples:
        raise ValueError("at least one guard multiple is required")
    _require_finite_positive("delay spread", target_d_rms)
    _require_finite_positive("pulse duration", pulse_duration)
    periods = [pulse_duration + float(k) * target_d_rms for k in guard_multiples]
    if not all(k >= 0 and math.isfinite(t) for k, t in zip(guard_multiples, periods)):
        raise DomainError("guard multiples must be finite and >= 0, with symbol periods "
                          "pulse + k * d_RMS in the float range")
    if tap_spacing is None:
        tap_spacing = target_d_rms / _STEPS_PER_SPREAD
        if num_taps is None:
            num_taps = _DEFAULT_TAPS
    _require_finite_positive("tap_spacing", tap_spacing)
    if num_taps is None:
        taps = 15.0 * target_d_rms / tap_spacing
        if not taps <= _MAX_TAPS:
            raise DomainError(
                f"tap_spacing {tap_spacing!r} s is too fine: the default grid "
                f"of 15 * d_RMS / tap_spacing = {taps!r} taps exceeds {_MAX_TAPS}"
            )
        num_taps = int(math.ceil(taps))

    gamma = _feasible_decay(target_d_rms, tap_spacing, num_taps)
    tap_spacing, num_taps = float(tap_spacing), int(num_taps)
    if deterministic:
        trials = 1
        realized = _geometric_spread(gamma, tap_spacing, num_taps)
        spills = [
            (spill, spill, spill)
            for spill in (_geometric_spill(gamma, tap_spacing, num_taps, pulse_duration, period)
                          for period in periods)
        ]
    else:
        realized, spills = _faded_trials(
            gamma, tap_spacing, num_taps, pulse_duration, periods, trials, rng_seed
        )

    return [
        IsiReport(
            target_d_rms=target_d_rms,
            realized_d_rms=realized,
            symbol_period=period,
            guard_multiple=float(k),
            spill_fraction=mean,
            spill_min=low,
            spill_max=high,
            trials=trials,
        )
        for k, period, (mean, low, high) in zip(guard_multiples, periods, spills)
    ]
