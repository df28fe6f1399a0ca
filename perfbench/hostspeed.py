"""Host-speed reference: a fixed piece of work timed beside the operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes as its neighbours' load changes.  The same
operation then takes a different wall time from one run to the next,
whatever the program does.  To take that drift out, the worker times this
reference kernel (pure-Python loops, float formatting, dict and string
work, small numpy array operations: the mix the operations themselves
run) right before and right after every operation, and the controller
does the same around every set-up.  Each time is then rescaled to the
host speed at which the kernel takes ``NOMINAL_S``:

    reported = wall * NOMINAL_S / reference

The kernel is the benchmark's own code and never touches the package
under test, so a change to the program moves ``wall`` and not
``reference``.  The raw wall times are kept in the result records.
"""

import time

import numpy as np

perf_counter = time.perf_counter

# about the kernel's median time on the 2-core 2.1 GHz Xeon VM it was tuned
# on; it only sets the scale of the reported times
NOMINAL_S = 0.005
# kernel runs timed on each side of an operation: about 50 ms, long enough
# to average over the host's short stalls as a one-second operation does
SAMPLES = 10

_X = np.linspace(0.1, 10.0, 4096)
_RNG_SEED = 12345


def _kernel() -> float:
    total = 0.0
    parts = []
    for i in range(3000):
        x = i * 0.37 + 1.0
        total += x / (x + 2.5) + (x * x) / (x + 1.0) ** 2
        parts.append(f"{x:.10g}")
    text = ",".join(parts)
    counts = {}
    for token in text.split(","):
        counts[token[-1]] = counts.get(token[-1], 0) + 1
    rng = np.random.default_rng(_RNG_SEED)
    y = _X / (_X + rng.random(_X.size))
    for _ in range(80):
        y = np.sqrt(y * y + 1e-3) * np.exp(-0.01 * y)
    return total + float(y.sum()) + len(counts)


def reference() -> float:
    """Mean time of ``SAMPLES`` kernel runs, in seconds.

    The mean, not the median: an operation's wall time averages the host
    speed over its whole span, stalls included, and so must its reference.
    """
    start = perf_counter()
    for _ in range(SAMPLES):
        _kernel()
    return (perf_counter() - start) / SAMPLES


def rescale(wall: float, before: float, after: float) -> float:
    """``wall`` at nominal host speed, from the references on each side."""
    return wall * NOMINAL_S / (0.5 * (before + after))
