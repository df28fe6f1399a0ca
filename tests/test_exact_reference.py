"""Each closed form against its exact value.

Every output except ideal mode's log term is a rational function of its
float inputs, so ``fractions.Fraction`` gives its exact value; ``decimal``
at 50 digits gives the log term (1/2) log2(1 + SNR).  A result of k
correctly rounded operations on normal floats is within
gamma_k = k u / (1 - k u), u = 2**-53, of the exact value (Higham,
*Accuracy and Stability of Numerical Algorithms*, lemma 3.1).  So each
test asserts that bound, with k the number of roundings in the formula as
the code evaluates it, or that the call raises.  The bound is the
theorem's, not the worst error seen.

The draws are log-uniform: frequencies from 1e-3 to 1e170 Hz (past the
7e153 Hz or so from which the derivative leaves the normal range and
raises), delay spreads from 1 fs to 0.1 s.  Every intermediate and every
result they give that does not raise is a normal float, which the bound
needs.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uwbcap.capacity import (
    MARY_LOG2,
    MARY_PAPER,
    MIXED,
    MOSTLY_DIGITAL,
    CircuitFrequency,
    DelaySpread,
    ModulationScheme,
    PulseSpec,
    SamplingConfig,
    SnrValue,
    binary_capacity,
    capacity_derivative,
    ideal_capacity,
    mixed_capacity,
    mostly_digital_capacity,
    percent_of_max,
    required_frequency,
)
from uwbcap.errors import DomainError

U = 2.0**-53
RATIO_MODES = (MOSTLY_DIGITAL, MIXED)


def gamma(k: int) -> Fraction:
    """k u / (1 - k u), exactly."""
    return Fraction(k, 2**53 - k)


def assert_within(call, exact: Fraction, k: int) -> None:
    """call() is within gamma_k of ``exact``, relative, or raises."""
    try:
        value = call()
    except (DomainError, ValueError):
        return
    assert abs(Fraction(value) - exact) <= gamma(k) * abs(exact), (value, float(exact))


def log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


frequencies = log_uniform(-3.0, 170.0)
spreads = log_uniform(-15.0, -1.0)
factors = st.sampled_from((2.0, 2.5, 3.0, 4.0, 8.0)) | st.floats(2.0, 16.0)
schemes = st.builds(ModulationScheme, st.integers(2, 64), st.sampled_from((MARY_PAPER, MARY_LOG2)))


def _n(mode, n):
    """The sampling factor a mode takes, and its value in the formula."""
    return (n, n) if mode == MOSTLY_DIGITAL else (None, 1.0)


def _is_power_of_two(x: float) -> bool:
    return math.frexp(x)[0] == 0.5


@given(frequencies, spreads | st.just(0.0))
def test_binary_capacity(bandwidth, d):
    # 1/B, + d, 1/(...): the multiplier 1 is exact
    exact = 1 / (1 / Fraction(bandwidth) + Fraction(d))
    assert_within(
        lambda: binary_capacity(PulseSpec.from_bandwidth(bandwidth), DelaySpread(d)).rate, exact, 3
    )


@pytest.mark.parametrize("mode", RATIO_MODES)
@given(frequencies, spreads | st.just(0.0), factors, schemes)
def test_capacity(mode, frequency, d, n, scheme):
    n, value = _n(mode, n)
    # the scheme's float multiplier is the input; n/F, + d, 1/(...), then
    # the multiplier, exact for a power of two
    multiplier = scheme.multiplier
    exact = Fraction(multiplier) / (Fraction(value) / Fraction(frequency) + Fraction(d))
    if mode == MOSTLY_DIGITAL:
        def call():
            return mostly_digital_capacity(SamplingConfig(frequency, n), DelaySpread(d), scheme)
    else:
        def call():
            return mixed_capacity(CircuitFrequency(frequency), DelaySpread(d), scheme)
    assert_within(lambda: call().rate, exact, 3 if _is_power_of_two(multiplier) else 4)


def _log_term_error(snr: float) -> float:
    """Relative error bound of the float (1/2) log2(1 + snr).  Rounding
    1 + snr moves its natural log by at most u / (1 - u), which is relative
    error u / ((1 - u) ln(1 + snr)); libm's log2 adds under 1 ulp (2u
    relative); the 1/2 is exact.  log1p's own ulp is covered by 1 - 4u."""
    return (1 + U / ((1 - U) * math.log1p(snr) * (1 - 4 * U))) * (1 + 2 * U) - 1


@given(frequencies, spreads | st.just(0.0), log_uniform(-17.0, 6.0))
@example(1e9, 17e-9, 3.0)  # the binary working point: exactly 1 bit/symbol
def test_ideal_capacity(bandwidth, d, snr):
    try:
        rate = ideal_capacity(PulseSpec.from_bandwidth(bandwidth), DelaySpread(d), SnrValue(snr)).rate
    except (DomainError, ValueError):
        return
    with localcontext() as ctx:
        ctx.prec = 50
        log_term = (1 + Decimal(snr)).ln() / Decimal(2).ln() / 2
        exact = log_term / (1 / Decimal(bandwidth) + Decimal(d))
        error = abs(Decimal(rate) - exact) / exact
    # 1/B, + d, 1/(...) and the product with the log term, on top of the
    # log term's own error
    bound = (1 + gamma(4)) * (1 + Fraction(_log_term_error(snr))) - 1
    assert Fraction(error) <= bound, (rate, exact)


@pytest.mark.parametrize("mode", RATIO_MODES)
@given(frequencies, spreads | st.just(0.0), factors)
# (n/F)/F and the derivative below the normal range: 9.99989e-303 for the
# exact 1e-302, and 0.0 from about 1e163 Hz, before they raised
@example(1e160, 1e-9, 2.0)
@example(1e163, 1e-9, 2.0)
def test_capacity_derivative(mode, frequency, d, n):
    n, value = _n(mode, n)
    overhead = Fraction(value) / Fraction(frequency)
    exact = (overhead / Fraction(frequency)) / (overhead + Fraction(d)) ** 2
    # n/F, + d, (n/F)/F, the square, the quotient
    assert_within(lambda: capacity_derivative(mode, frequency, DelaySpread(d), n), exact, 5)


@pytest.mark.parametrize("mode", RATIO_MODES)
@given(frequencies, spreads, factors)
def test_percent_of_max(mode, frequency, d, n):
    n, value = _n(mode, n)
    exact = Fraction(d) / (Fraction(value) / Fraction(frequency) + Fraction(d))
    # n/F, + d, d/(...)
    assert_within(lambda: percent_of_max(mode, frequency, DelaySpread(d), n), exact, 3)


@pytest.mark.parametrize("mode", RATIO_MODES)
@given(st.floats(2.2250738585072014e-308, 1.0, exclude_max=True), spreads, factors)
def test_required_frequency(mode, target, d, n):
    n, value = _n(mode, n)
    p = Fraction(target)
    exact = Fraction(value) * p / (Fraction(d) * (1 - p))
    # n p, 1 - p, d (1 - p), the quotient
    assert_within(lambda: required_frequency(mode, target, DelaySpread(d), n), exact, 4)
