"""IR-UWB channel-capacity models and their analytic companions.

The symbol period of an impulse-radio UWB link over a multipath channel is
the pulse duration plus the RMS channel delay spread: spacing symbols any
tighter lets echoes of one symbol land inside the next.  Capacity is that
symbol rate times the bits carried per symbol, and the implementation
models differ only in which hardware parameter sets the pulse-duration
term:

* ``ideal_capacity``          -- the pulse itself (1/bandwidth), with the
                                 Shannon log term for amplitude resolution
* ``binary_capacity``         -- the pulse itself, one bit per symbol
* ``mostly_digital_capacity`` -- the data converters: n_sampling / F_s
* ``mixed_capacity``          -- the slowest analog stage: 1 / F_circuit

Whatever the model, capacity is capped by the ``multiplier / d_RMS``
asymptote: no amount of bandwidth or clock speed beats the channel's own
temporal dispersion.

Each formula has one kernel of arithmetic operators, shared by the scalar
functions and by ``capacity_grid`` (a whole grid in one numpy broadcast),
so the two agree bit for bit.

All quantities are SI (seconds, hertz, bits per second).  Every function
here is a pure function of its arguments and safe to call concurrently.
"""

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .units import db_to_linear, linear_to_db

IDEAL = "ideal"
BINARY = "binary"
MOSTLY_DIGITAL = "mostly_digital"
MIXED = "mixed"
MODES = (IDEAL, BINARY, MOSTLY_DIGITAL, MIXED)
#: What ``capacity_grid`` can evaluate at each grid point.
OUTPUTS = ("capacity", "derivative", "percent_of_max")

#: M-ary multiplier conventions.  "paper" multiplies the binary rate by
#: M - 1, which is what the reproduced survey tables use; "log2" is the
#: information-theoretic log2(M) bits per symbol.
MARY_PAPER = "paper"
MARY_LOG2 = "log2"

#: Linear SNR that makes the Shannon factor (1/2)log2(1 + SNR) exactly one
#: bit per symbol, i.e. the binary-modulation working point.
BINARY_SNR_LINEAR = 3.0

#: Below this SNR the binary-modulation model is outside its stated
#: validity region; results are annotated, not rejected.
SNR_VALIDITY_FLOOR_DB = 3.0


@dataclass(frozen=True)
class DelaySpread:
    """RMS channel delay spread in seconds; the dominant capacity limiter."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"delay spread must be >= 0 s, got {self.value!r}")


@dataclass(frozen=True)
class PulseSpec:
    """Pulse duration / bandwidth pair, locked to duration * bandwidth = 1."""

    duration: float
    bandwidth: float

    def __post_init__(self):
        if not (0 < self.duration < math.inf and 0 < self.bandwidth < math.inf):
            raise ValueError("pulse duration and bandwidth must be > 0")
        if abs(self.duration * self.bandwidth - 1.0) > 1e-9:
            raise ValueError(
                "pulse duration and bandwidth must satisfy duration * bandwidth = 1"
            )

    @classmethod
    def from_duration(cls, duration: float) -> "PulseSpec":
        if not 0 < duration < math.inf:
            raise ValueError("pulse duration must be > 0 s")
        return cls(duration, _quotient(1.0, duration, "pulse duration", "s", "1 / T_p"))

    @classmethod
    def from_bandwidth(cls, bandwidth: float) -> "PulseSpec":
        if not 0 < bandwidth < math.inf:
            raise ValueError("bandwidth must be > 0 Hz")
        return cls(_quotient(1.0, bandwidth, "bandwidth", "Hz", "1 / B"), bandwidth)


@dataclass(frozen=True)
class SamplingConfig:
    """Data-converter sampling frequency and sampling factor.

    The sampling factor is the ratio of the sampling frequency to the
    analog signal's maximum frequency; 2 is the Nyquist floor, 4 the
    customary design value.
    """

    sampling_frequency: float
    sampling_factor: float = 4.0

    def __post_init__(self):
        if not 0 < self.sampling_frequency < math.inf:
            raise ValueError("sampling_frequency must be > 0 Hz")
        if not 2 <= self.sampling_factor < math.inf:
            raise ValueError("sampling_factor must be >= 2 (Nyquist floor)")


@dataclass(frozen=True)
class CircuitFrequency:
    """Minimum operating frequency among a transceiver's analog stages."""

    value: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError("circuit frequency must be > 0 Hz")


@dataclass(frozen=True)
class SnrValue:
    """Signal-to-noise ratio stored as a linear power ratio."""

    linear_ratio: float

    def __post_init__(self):
        if not 0 < self.linear_ratio < math.inf:
            raise ValueError("SNR linear ratio must be > 0")

    @classmethod
    def from_db(cls, db: float) -> "SnrValue":
        try:
            linear = db_to_linear(db)
        except OverflowError:
            raise ValueError(f"SNR {db!r} dB overflows a linear ratio") from None
        return cls(linear)

    @property
    def db(self) -> float:
        return linear_to_db(self.linear_ratio)


@dataclass(frozen=True)
class ModulationScheme:
    """Modulation order M and the factor it applies to the binary rate."""

    order: int = 2
    convention: str = MARY_PAPER

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("modulation order must be an integer >= 2")
        if self.convention not in (MARY_PAPER, MARY_LOG2):
            raise ValueError(
                f"convention must be {MARY_PAPER!r} or {MARY_LOG2!r}"
            )
        if self.convention == MARY_PAPER and self.order - 1 > sys.float_info.max:
            raise ValueError(
                f"modulation order {self.order} is too large: its multiplier "
                "M - 1 overflows a float"
            )

    @property
    def multiplier(self) -> float:
        if self.convention == MARY_LOG2:
            return math.log2(self.order)
        return float(self.order - 1)

    @property
    def is_extrapolated(self) -> bool:
        """True when the M - 1 rule is stretched past the tabulated 2..4."""
        return self.convention == MARY_PAPER and self.order not in (2, 3, 4)


@dataclass(frozen=True)
class CapacityResult:
    """A computed capacity plus the bound it saturates toward.

    ``limiting_asymptote`` is ``math.inf`` when the delay spread is zero
    (the bound is then unbounded).  ``inputs_echo`` repeats the exact
    parameter set used, with unit-annotated keys; ``notes`` carries
    validity annotations such as an out-of-region SNR.
    """

    rate: float
    limiting_asymptote: float
    inputs_echo: dict
    notes: tuple = ()

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("capacity must be > 0 bit/s")
        # <= tolerates float saturation when the frequency term underflows
        # next to d_RMS; strict inequality holds everywhere in-domain.
        if self.rate > self.limiting_asymptote:
            raise ValueError("capacity cannot exceed its limiting asymptote")

    @property
    def rate_mbit_s(self) -> float:
        return self.rate / 1e6

    def to_dict(self) -> dict:
        """Flat, JSON-ready mapping with unit-annotated field names."""
        asym = (
            self.limiting_asymptote
            if math.isfinite(self.limiting_asymptote)
            else "unbounded"
        )
        out = {
            "rate_bit_s": self.rate,
            "rate_mbit_s": self.rate_mbit_s,
            "limiting_asymptote_bit_s": asym,
        }
        out.update(self.inputs_echo)
        out["notes"] = list(self.notes)
        return out


def _symbol_rate(multiplier, overhead, d):
    # multiplier last, so that M-ary capacity scales exactly; overhead 0
    # gives the asymptote
    return multiplier * (1.0 / (overhead + d))


def _derivative(overhead, frequency, d):
    span = overhead + d
    # span * span, not span ** 2: numpy squares arrays by multiplying, while
    # float ** 2 calls libm pow, which can differ in the last bit
    return (overhead / frequency) / (span * span)


def _fraction_of_max(overhead, d):
    return d / (overhead + d)


def _half_log_factor(snr: SnrValue) -> float:
    factor = 0.5 * math.log2(1.0 + snr.linear_ratio)
    if factor == 0.0:  # 1 + SNR rounds to 1
        raise DomainError(
            f"SNR {snr.linear_ratio!r} ({snr.db:.6g} dB) is too small: its Shannon "
            "factor (1/2) log2(1 + SNR) rounds to 0 bit/symbol"
        )
    return factor


def _quotient(numerator, value: float, name: str, unit: str, quotient: str) -> float:
    """numerator / value for a positive input value, which overflows for a
    tiny one; ``quotient`` spells the division in the error."""
    result = numerator / value
    if result == math.inf:
        raise DomainError(f"{name} {value!r} {unit} is too small: {quotient} overflows a float")
    return result


def _overhead(n, frequency: float) -> float:
    """Per-symbol time overhead n / F, which overflows for a tiny F."""
    return _quotient(n, frequency, "frequency", "Hz", f"the symbol overhead {n!r} / F")


def _result(multiplier, overhead, d, echo, notes=()):
    rate = _symbol_rate(multiplier, overhead, d.value)
    if rate == math.inf:
        order = echo.get("modulation_order")
        raise ValueError(
            f"capacity overflows a float: multiplier {multiplier!r}"
            + ("" if order is None else f" (modulation order {order})")
            + f" over a symbol period of {overhead + d.value!r} s"
        )
    asymptote_ = math.inf if d.value == 0 else _asymptote(multiplier, d.value)
    return CapacityResult(
        rate=rate,
        limiting_asymptote=asymptote_,
        inputs_echo=echo,
        notes=tuple(notes),
    )


def ideal_capacity(pulse: PulseSpec, d: DelaySpread, snr: SnrValue) -> CapacityResult:
    """Capacity with an ideal implementation.

    rate = 1 / (T_p + d_RMS) * (1/2) * log2(1 + SNR)

    The symbol rate comes from the no-ISI spacing T_p + d_RMS, the bits per
    symbol from the Shannon formula.  An SNR below the 3 dB floor is
    accepted but annotated as outside the binary-modulation validity
    region.

    Args:
        pulse: pulse duration / bandwidth pair.
        d:     RMS delay spread (zero permitted; the asymptote is then
               unbounded).
        snr:   linear signal-to-noise ratio.
    """
    factor = _half_log_factor(snr)
    notes = []
    if snr.db < SNR_VALIDITY_FLOOR_DB:
        notes.append(
            f"snr {snr.db:.6g} dB is below the 3 dB validity floor for "
            "binary modulations"
        )
    echo = {
        "pulse_duration_s": pulse.duration,
        "bandwidth_hz": pulse.bandwidth,
        "rms_delay_spread_s": d.value,
        "snr_linear": snr.linear_ratio,
        "snr_db": snr.db,
    }
    return _result(factor, pulse.duration, d, echo, notes)


def binary_capacity(pulse: PulseSpec, d: DelaySpread) -> CapacityResult:
    """Binary-modulation capacity: rate = 1 / (T_p + d_RMS) = 1 / (1/B + d_RMS).

    Equals ``ideal_capacity`` at SNR = 3 (linear), where the Shannon factor
    is exactly one bit per symbol.
    """
    echo = {
        "pulse_duration_s": pulse.duration,
        "bandwidth_hz": pulse.bandwidth,
        "rms_delay_spread_s": d.value,
    }
    return _result(1.0, pulse.duration, d, echo)


def _modulation_echo(m: ModulationScheme) -> dict:
    return {
        "modulation_order": m.order,
        "modulation_convention": m.convention,
        "capacity_multiplier": m.multiplier,
    }


def _modulation_notes(m: ModulationScheme) -> list:
    if m.is_extrapolated:
        return [
            f"multiplier for M={m.order} extrapolated as M-1 beyond the "
            "tabulated orders 2..4"
        ]
    return []


def mostly_digital_capacity(
    s: SamplingConfig,
    d: DelaySpread,
    m: ModulationScheme = ModulationScheme(),
) -> CapacityResult:
    """Capacity of a mostly digital radio, limited by its data converters.

    rate = multiplier(M) / (n_sampling / F_s + d_RMS)

    The converters must run ``n_sampling`` times faster than the analog
    signal's maximum frequency, so the pulse can be no shorter than
    n_sampling / F_s.  With M = 2 the multiplier is 1.
    """
    echo = {
        "sampling_frequency_hz": s.sampling_frequency,
        "sampling_factor": s.sampling_factor,
        "rms_delay_spread_s": d.value,
    }
    echo.update(_modulation_echo(m))
    overhead = _overhead(s.sampling_factor, s.sampling_frequency)
    return _result(m.multiplier, overhead, d, echo, _modulation_notes(m))


def mixed_capacity(
    f: CircuitFrequency,
    d: DelaySpread,
    m: ModulationScheme = ModulationScheme(),
) -> CapacityResult:
    """Capacity of a mixed analog/digital radio.

    rate = multiplier(M) / (1 / F_circuit + d_RMS)

    Only the most constraining analog frequency (the minimum one across
    the pulse generator and both front-ends) matters; it bounds the pulse
    duration at 1 / F_circuit.
    """
    echo = {
        "circuit_frequency_hz": f.value,
        "rms_delay_spread_s": d.value,
    }
    echo.update(_modulation_echo(m))
    return _result(m.multiplier, _overhead(1.0, f.value), d, echo, _modulation_notes(m))


def asymptote(d: DelaySpread, m: ModulationScheme | None = None) -> float:
    """Hard upper bound multiplier(M) / d_RMS on the capacity (default M = 2).

    Raises:
        DomainError: the bound is unbounded when the delay spread is zero,
            or overflows a float when it is subnormal.
    """
    if d.value == 0:
        raise DomainError("asymptote is unbounded when the delay spread is zero")
    return _asymptote(1.0 if m is None else m.multiplier, d.value)


def _asymptote(multiplier, d):
    """multiplier / d for d > 0, which overflows for a subnormal d."""
    bound = _symbol_rate(multiplier, 0.0, d)
    if bound == math.inf:
        raise DomainError(
            f"delay spread {d!r} s is too small: the asymptote multiplier / d "
            f"= {multiplier!r} / {d!r} overflows a float"
        )
    return bound


def _overhead_factor(mode: str, sampling_factor) -> float:
    """Per-symbol time overhead is factor/frequency; returns the factor."""
    if mode == MOSTLY_DIGITAL:
        if sampling_factor is None:
            raise ValueError("sampling_factor is required in mostly_digital mode")
        if not 2 <= sampling_factor < math.inf:
            raise ValueError("sampling_factor must be >= 2 (Nyquist floor)")
        return float(sampling_factor)
    if mode == MIXED:
        if sampling_factor not in (None, 1, 1.0):
            raise ValueError("mixed mode has no sampling factor (implicitly 1)")
        return 1.0
    raise ValueError(f"mode must be {MOSTLY_DIGITAL!r} or {MIXED!r}, got {mode!r}")


def capacity_derivative(
    mode: str,
    frequency: float,
    d: DelaySpread,
    sampling_factor: float | None = None,
) -> float:
    """Analytic sensitivity of the binary capacity to its frequency knob.

    For mostly_digital:  dC/dF_s = (n / F_s^2) / (n / F_s + d)^2
    For mixed:           dC/dF   = (1 / F^2)  / (1 / F  + d)^2

    Strictly positive, strictly decreasing in frequency, and tending to
    zero as the capacity flattens onto the 1/d_RMS asymptote -- which is
    why chasing ever-higher sampling or clock rates stops paying off.

    Raises:
        DomainError: the overhead n/F or the derivative leaves the float
            range (F below about 1e-154 Hz, or (n/F + d)^2 underflowing to 0).
    """
    if not 0 < frequency < math.inf:
        raise ValueError("frequency must be > 0 Hz")
    n = _overhead_factor(mode, sampling_factor)
    overhead = _overhead(n, frequency)
    try:
        value = _derivative(overhead, frequency, d.value)
    except ZeroDivisionError:  # (n/F + d)^2 underflowed to 0
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"the capacity derivative at frequency {frequency!r} Hz is out of float range"
        )
    return value


def percent_of_max(
    mode: str,
    frequency: float,
    d: DelaySpread,
    sampling_factor: float | None = None,
) -> float:
    """Capacity at the given frequency as a fraction of its asymptote.

    Equals d / (n/F + d): strictly increasing in frequency, always < 1,
    independent of the modulation order (the multiplier cancels).

    Raises:
        DomainError: undefined when the delay spread is zero.
    """
    if not 0 < frequency < math.inf:
        raise ValueError("frequency must be > 0 Hz")
    if d.value == 0:
        raise DomainError(
            "percent of max is undefined when the delay spread is zero "
            "(the asymptote is unbounded)"
        )
    n = _overhead_factor(mode, sampling_factor)
    return _fraction_of_max(_overhead(n, frequency), d.value)


def required_frequency(
    mode: str,
    target_fraction: float,
    d: DelaySpread,
    sampling_factor: float | None = None,
) -> float:
    """Frequency at which the capacity reaches a given fraction of its max.

    Inverts ``percent_of_max``:  F = n * p / (d * (1 - p)), with n = 1 in
    mixed mode.  Round-trips through ``percent_of_max`` to float precision.

    Raises:
        DomainError: for p outside (0, 1) or a zero delay spread.
    """
    if not 0.0 < target_fraction < 1.0:
        raise DomainError(
            f"target fraction must lie strictly in (0, 1), got {target_fraction!r}"
        )
    if d.value == 0:
        raise DomainError(
            "required frequency is undefined when the delay spread is zero"
        )
    n = _overhead_factor(mode, sampling_factor)
    return n * target_fraction / (d.value * (1.0 - target_fraction))


def _check_point(mode, f, d, n, modulation, snr, outputs) -> None:
    """Evaluate one grid point through the scalar functions, in the order a
    point-by-point sweep calls them, so that they raise what they raise."""
    if "capacity" in outputs:
        if mode == IDEAL:
            ideal_capacity(PulseSpec.from_bandwidth(f), d, snr)
        elif mode == BINARY:
            binary_capacity(PulseSpec.from_bandwidth(f), d)
        elif mode == MOSTLY_DIGITAL:
            mostly_digital_capacity(SamplingConfig(f, n), d, modulation)
        else:
            mixed_capacity(CircuitFrequency(f), d, modulation)
    ratio_mode = MOSTLY_DIGITAL if mode == MOSTLY_DIGITAL else MIXED
    if "derivative" in outputs:
        capacity_derivative(ratio_mode, f, d, n)
    if "percent_of_max" in outputs:
        percent_of_max(ratio_mode, f, d, n)


def capacity_grid(
    mode: str,
    frequencies,
    delay_spreads,
    sampling_factors=(),
    modulation: ModulationScheme = ModulationScheme(),
    snr: SnrValue | None = None,
    outputs=("capacity",),
) -> dict:
    """Evaluate a model over a whole delay-spread x sampling-factor x frequency grid.

    One numpy broadcast through the scalar functions' kernels: entry
    ``[i, j, k]`` of each requested output -- "capacity" (the mode's capacity
    ``rate``), "derivative" (``capacity_derivative``), "percent_of_max" --
    equals, bit for bit, the scalar result at ``delay_spreads[i]``,
    ``sampling_factors[j]`` (mostly_digital only; other modes have one slot)
    and ``frequencies[k]``.  Ideal and binary grids take the mixed
    parameterization for the last two outputs.  ``snr`` (ideal only, default
    linear 3; other modes raise ValueError if given one) and ``modulation``
    (mostly_digital, mixed) set the multiplier.

    Raises what the scalar calls raise at the first point, in (d, n, F)
    order, that they reject: the points a vectorised screen flags (F not
    positive and finite, n below 2 or not finite, an overhead n/F, capacity
    or derivative that is not finite, d = 0 with percent_of_max, capacity
    outside (0, asymptote]) are re-run through the scalar functions.

    Returns:
        output name -> array of shape (len(d), len(n) or 1, len(F)).
    """
    import numpy as np  # only the array entry point needs it

    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if any(o not in OUTPUTS for o in outputs):
        raise ValueError(f"outputs must be a subset of {OUTPUTS}")
    if mode != IDEAL and snr is not None:
        raise ValueError("snr applies to ideal sweeps only")
    digital = mode == MOSTLY_DIGITAL
    if snr is None:
        snr = SnrValue(BINARY_SNR_LINEAR)
    multiplier = {BINARY: 1.0}.get(mode, modulation.multiplier)
    if mode == IDEAL:
        multiplier = _half_log_factor(snr)
    factors = tuple(sampling_factors) if digital else (None,)

    f = np.asarray(frequencies, dtype=float)
    d = np.array([x.value for x in delay_spreads], dtype=float)[:, None, None]
    n = np.array([1.0 if x is None else x for x in factors], dtype=float)[None, :, None]
    shape = (d.shape[0], n.shape[1], f.size)
    with np.errstate(all="ignore"):
        overhead = n / f
        values = {}
        suspect = ~((f > 0) & np.isfinite(f)) | ~np.isfinite(overhead)
        if digital:
            suspect = suspect | ~((n >= 2) & np.isfinite(n))
        if "capacity" in outputs:
            rate = _symbol_rate(multiplier, overhead, d)
            values["capacity"] = rate
            suspect = (
                suspect | ~((rate > 0) & np.isfinite(rate))
                | (rate > _symbol_rate(multiplier, 0.0, d))
            )
        if "derivative" in outputs:
            values["derivative"] = _derivative(overhead, f, d)
            suspect = suspect | ~np.isfinite(values["derivative"])
        if "percent_of_max" in outputs:
            values["percent_of_max"] = _fraction_of_max(overhead, d)
            suspect = suspect | (d == 0)
    for i, j, k in np.argwhere(np.broadcast_to(suspect, shape)):
        _check_point(
            mode, float(f[k]), delay_spreads[i], factors[j], modulation, snr, outputs
        )
    return values
