"""Scenario engine: design-space sweeps and golden-table reproduction.

Composes the built-in survey datasets with the capacity models to compute
plot-ready curves over bandwidth, sampling frequency or circuit operating
frequency, to reproduce the two published reference data-rate tables
(mostly digital: table iv; mixed: table vii), and to score surveyed data
converters against channel environments.

Every capacity computed here is a direct call into :mod:`uwbcap.capacity`
(a sweep is one ``capacity_grid`` call over its whole grid, returned as a
columnar ``SweepTable``); this module adds grids and bookkeeping, never
arithmetic.  Writing the rows out is :mod:`uwbcap.emit`'s job.
"""

from collections.abc import Sequence
from dataclasses import dataclass

from . import capacity as cap
from . import datasets
# perfbench/layers.py and perfbench/replay.py time emission as explorer.emit_*
from .emit import emit_csv, emit_json  # noqa: F401

LINEAR = "linear"
LOGARITHMIC = "logarithmic"

#: Default delay spreads for sampling sweeps: the low-LOS,
#: mid-LOS and worst-NLOS rows of the channel table, in seconds.
DEFAULT_DELAY_SPREADS_S = (9e-9, 17e-9, 89e-9)
#: Default converter-rate axis for mostly digital sweeps, 0.1-100 GSPS.
DEFAULT_DIGITAL_RANGE_HZ = (1e8, 1e11)

#: Most rows a sweep may hold: 80 MB per float column.
_MAX_ROWS = 10**7

_MODE_PARAMETER = {
    cap.IDEAL: "bandwidth",
    cap.BINARY: "bandwidth",
    cap.MOSTLY_DIGITAL: "sampling_frequency",
    cap.MIXED: "circuit_frequency",
}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep of a capacity model over a frequency axis.

    ``outputs`` selects any of "capacity", "derivative" and
    "percent_of_max".  The derivative column is the binary-modulation
    sensitivity (it carries no M-ary multiplier) and is unavailable in
    ideal mode; percent_of_max requires nonzero delay spreads.  ``snr``
    applies to ideal mode only and defaults to the binary working point, a
    linear ratio of 3.

    Raises ValueError, first for what ``capacity.check_grid_arguments``
    rejects (so ``capacity_grid`` rejects the same mode, delay spreads,
    sampling factors, snr, modulation and outputs), then for a
    ``swept_parameter`` other than the mode's, not 0 < start_hz < stop_hz,
    fewer than 2 points, more than 10**7 rows, or an unknown ``spacing``.
    """

    mode: str
    swept_parameter: str
    start_hz: float
    stop_hz: float
    points: int
    delay_spreads: tuple
    spacing: str = LOGARITHMIC
    sampling_factors: tuple = ()
    modulation: cap.ModulationScheme = cap.ModulationScheme()
    snr: cap.SnrValue | None = None
    outputs: tuple = ("capacity",)

    def __post_init__(self):
        cap.check_grid_arguments(
            self.mode, self.delay_spreads, self.sampling_factors, self.modulation, self.snr,
            self.outputs,
        )
        if self.swept_parameter != _MODE_PARAMETER[self.mode]:
            raise ValueError(
                f"{self.mode} mode sweeps {_MODE_PARAMETER[self.mode]}, "
                f"not {self.swept_parameter!r}"
            )
        if not 0 < self.start_hz < self.stop_hz:
            raise ValueError("need 0 < start_hz < stop_hz")
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 points")
        rows = self.points * len(self.delay_spreads) * max(len(self.sampling_factors), 1)
        if rows > _MAX_ROWS:
            raise ValueError(f"points = {self.points} gives {rows} sweep rows, over {_MAX_ROWS}")
        if self.spacing not in (LINEAR, LOGARITHMIC):
            raise ValueError(f"spacing must be {LINEAR!r} or {LOGARITHMIC!r}")

    def grid(self):
        """The swept frequencies, a 1-D float array.  Raises ValueError if
        any lies past the largest float."""
        import numpy as np

        # near the float range numpy's intermediate powers overflow
        with np.errstate(over="ignore"):
            space = np.linspace if self.spacing == LINEAR else np.geomspace
            grid = space(self.start_hz, self.stop_hz, self.points)
        if not np.isfinite(grid).all():
            raise ValueError(
                f"the {self.spacing} sweep from {self.start_hz!r} Hz to {self.stop_hz!r} Hz "
                f"overflows: {np.count_nonzero(~np.isfinite(grid))} grid points are past "
                "the largest float"
            )
        return grid


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep; unrequested outputs are None."""

    frequency_hz: float
    rms_delay_spread_s: float
    sampling_factor: float | None = None
    capacity_bit_s: float | None = None
    derivative_bit_s_per_hz: float | None = None
    percent_of_max: float | None = None


class SweepTable(Sequence):
    """Columnar result of ``run_sweep``.

    ``columns`` maps the ``SweepPoint`` fields the sweep produced, in field
    order, to equal-length 1-D float arrays, one entry per row.  Built from
    such arrays or ``(levels, codes)`` pairs (distinct values, integer row
    codes), which ``levels`` keeps so emission formats each level once.
    ``len``, indexing and iteration give ``SweepPoint`` rows (unproduced
    fields None).
    """

    def __init__(self, columns: dict):
        self.levels = {name: pair for name, pair in columns.items() if isinstance(pair, tuple)}
        self.columns = {
            name: c[0][c[1]] if name in self.levels else c for name, c in columns.items()
        }

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return SweepPoint(
            **{name: column[index].item() for name, column in self.columns.items()}
        )

    def __iter__(self):
        names = list(self.columns)
        for values in zip(*(column.tolist() for column in self.columns.values())):
            yield SweepPoint(**dict(zip(names, values)))


#: SweepPoint field of each capacity_grid output, in SweepPoint field order.
_OUTPUT_FIELDS = {
    "capacity": "capacity_bit_s",
    "derivative": "derivative_bit_s_per_hz",
    "percent_of_max": "percent_of_max",
}


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate a sweep on its full grid.

    Returns a columnar ``SweepTable`` that indexes and iterates as one
    ``SweepPoint`` per (delay spread, sampling factor, grid frequency), in
    that nesting order, so each (d, n) block is a single
    ascending-frequency curve.  Row count is
    points * len(delay_spreads) * max(len(sampling_factors), 1).  Binary
    and ideal sweeps take the derivative and percent_of_max of the mixed
    parameterization: the frequency knob enters as 1/F either way.
    """
    import numpy as np

    grid = spec.grid()
    values = cap.capacity_grid(
        spec.mode, grid, spec.delay_spreads, spec.sampling_factors,
        spec.modulation, spec.snr, spec.outputs,
    )
    shape = (len(spec.delay_spreads), max(len(spec.sampling_factors), 1), len(grid))
    # each row's index along the d, n and F axes, into that axis's values
    d_codes, n_codes, f_codes = np.indices(shape, dtype=np.int32).reshape(3, -1)
    columns = {
        "frequency_hz": (grid, f_codes),
        "rms_delay_spread_s": (np.array([d.value for d in spec.delay_spreads]), d_codes),
    }
    if spec.sampling_factors:
        columns["sampling_factor"] = (np.array(spec.sampling_factors, dtype=float), n_codes)
    for output, field in _OUTPUT_FIELDS.items():
        if output in values:
            columns[field] = values[output].ravel()
    return SweepTable(columns)


# ---------------------------------------------------------------------------
# Golden reference tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioRow:
    """One reproduced reference-table entry (capacity in Mbit/s)."""

    environment: str
    rms_delay_spread_s: float
    frequency_hz: float
    sampling_factor: float | None
    modulation_order: int
    capacity_mbit_s: float


#: Printed values of reference table iv: (environment, d_RMS ns,
#: F_s GSPS, n, capacity Mbit/s), mostly digital, binary modulation.
TABLE_IV_GOLDEN = (
    ("Residential LOS", 17.0, 2.0, 4.0, 52.63157895),
    ("Residential LOS", 17.0, 5.0, 4.0, 56.17977528),
    ("Residential LOS", 17.0, 10.0, 4.0, 57.47126437),
    ("Industrial LOS", 9.0, 2.0, 4.0, 90.90909091),
    ("Industrial LOS", 9.0, 5.0, 4.0, 102.0408163),
    ("Industrial LOS", 9.0, 10.0, 4.0, 106.3829787),
    ("Industrial NLOS", 89.0, 2.0, 4.0, 10.98901099),
    ("Industrial NLOS", 89.0, 5.0, 4.0, 11.13585746),
    ("Industrial NLOS", 89.0, 10.0, 4.0, 11.18568233),
)

#: Printed values of reference table vii: (d_RMS ns, pulse-generator
#: author, bandwidth GHz, binary / ternary / M=4 capacities in Mbit/s).
TABLE_VII_GOLDEN = (
    (17.0, "Kim et al.", 2.63, 57.54, 115.07, 172.61),
    (17.0, "Badalawa et al.", 4.46, 58.06, 116.12, 174.17),
    (17.0, "Bachelet et al.", 10.87, 58.51, 117.01, 175.52),
    (7.718, "Bachelet et al.", 10.87, 128.04, 256.08, 384.12),
    (6.2, "Bachelet et al.", 10.87, 158.93, 317.86, 476.80),
    (3.455, "Bachelet et al.", 10.87, 281.93, 563.86, 845.79),
    (2.147, "Bachelet et al.", 10.87, 446.63, 893.26, 1339.89),
    (0.948, "Bachelet et al.", 10.87, 961.54, 1923.08, 2884.63),
    (0.87, "Bachelet et al.", 10.87, 1039.51, 2079.01, 3118.52),
    (0.87, "Deparis et al.", 20.00, 1086.96, 2173.91, 3260.87),
)

# antenna-config row of each TABLE_VII_GOLDEN entry: the 3-10 GHz row
# against three generators, then the 60 GHz beamwidth ladder with the
# fastest CMOS generator, then the sharpest beams with the pHEMT.
_TABLE_VII_ANTENNA_ROWS = (0, 0, 0, 1, 2, 3, 4, 5, 6, 6)


def reproduce_table_iv() -> list:
    """Mostly-digital data rates at the operating points of ``TABLE_IV_GOLDEN``.

    Each entry's channel environment, converter rate and sampling factor,
    binary modulation, with the environment's delay spread from the channel
    survey; 9 rows in table order.
    """
    channels = {c.name: c for c in datasets.load_builtin(datasets.CHANNELS)}
    rows = []
    for name, _, fs_gsps, factor, _ in TABLE_IV_GOLDEN:
        d = channels[name].rms_delay_spread
        fs = fs_gsps * 1e9
        result = cap.mostly_digital_capacity(cap.SamplingConfig(fs, factor), cap.DelaySpread(d))
        rows.append(ScenarioRow(name, d, fs, factor, modulation_order=2,
                                capacity_mbit_s=result.rate_mbit_s))
    return rows


def reproduce_table_vii() -> list:
    """Mixed-implementation data rates at the operating points of
    ``TABLE_VII_GOLDEN``.

    Ten (antenna configuration, pulse generator) pairs, each at modulation
    orders 2, 3 and 4 under the M - 1 multiplier convention; 30 rows,
    grouped by pair in table order.  The operating frequency of each pair
    is the bandwidth 1 / min_pulse_duration of its generator.
    """
    generators = {
        g.author: g for g in datasets.load_builtin(datasets.PULSE_GENERATORS)
    }
    antennas = datasets.load_builtin(datasets.ANTENNA_CONFIGS)
    rows = []
    for antenna_index, (_, author, *_) in zip(_TABLE_VII_ANTENNA_ROWS, TABLE_VII_GOLDEN):
        antenna = antennas[antenna_index]
        bandwidth = 1.0 / generators[author].min_pulse_duration
        d = cap.DelaySpread(antenna.rms_delay_spread)
        label = (
            f"{antenna.band} Tx{antenna.tx_beamwidth:g}/Rx{antenna.rx_beamwidth:g} "
            f"({author})"
        )
        for order in (2, 3, 4):
            result = cap.mixed_capacity(
                cap.CircuitFrequency(bandwidth),
                d,
                cap.ModulationScheme(order, cap.MARY_PAPER),
            )
            rows.append(
                ScenarioRow(label, antenna.rms_delay_spread, bandwidth, None, order,
                            result.rate_mbit_s)
            )
    return rows


def _mismatches(where: str, checks, tolerance: float) -> list:
    """A description of each (quantity, reproduced, printed) triple of
    ``checks`` whose relative error exceeds ``tolerance``."""
    return [
        f"{where}: {quantity} {got:.10g} vs printed {printed:.10g} (relative error {err:.3g})"
        for quantity, got, printed in checks
        if (err := abs(got - printed) / abs(printed)) > tolerance
    ]


def check_table_iv(tolerance: float = 1e-6) -> list:
    """Compare the reproduction against the printed fixture: each row's
    delay spread and capacity.

    Returns a list of mismatch descriptions; empty means every row agrees
    within ``tolerance`` relative error.
    """
    problems = []
    for row, (env, d_ns, fs_gsps, _, printed) in zip(reproduce_table_iv(), TABLE_IV_GOLDEN):
        problems += _mismatches(f"{env} at {fs_gsps:g} GSPS", (
            ("d_RMS (ns)", row.rms_delay_spread_s * 1e9, d_ns),
            ("capacity (Mbit/s)", row.capacity_mbit_s, printed),
        ), tolerance)
    return problems


def check_table_vii(tolerance: float = 5e-3) -> list:
    """Compare the reproduction against the printed fixture: each entry's
    delay spread, bandwidth and three capacities (0.5% default, the
    fixture being rounded to two decimals)."""
    problems = []
    rows = reproduce_table_vii()
    for index, (d_ns, author, bandwidth_ghz, *rates) in enumerate(TABLE_VII_GOLDEN):
        group = rows[3 * index : 3 * index + 3]
        problems += _mismatches(f"{author} at {d_ns:g} ns", (
            ("d_RMS (ns)", group[0].rms_delay_spread_s * 1e9, d_ns),
            ("bandwidth (GHz)", group[0].frequency_hz / 1e9, bandwidth_ghz),
            *((f"M={row.modulation_order} capacity (Mbit/s)", row.capacity_mbit_s, rate)
              for row, rate in zip(group, rates)),
        ), tolerance)
    return problems


# ---------------------------------------------------------------------------
# Survey converters vs channel environments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketPoint:
    """Capacity of one surveyed converter in one channel environment."""

    designer: str
    source: str
    sampling_frequency_hz: float
    environment: str
    rms_delay_spread_s: float
    sampling_factor: float
    capacity_mbit_s: float


def market_capacity_points(
    sampling_factor: float = 4.0,
    environments=None,
    adcs=None,
) -> list:
    """One mostly-digital capacity point per (converter, environment) pair.

    Defaults to every surveyed converter (state of the art plus market)
    against every built-in channel environment.
    """
    if environments is None:
        environments = datasets.load_builtin(datasets.CHANNELS)
    if adcs is None:
        adcs = datasets.load_builtin(datasets.ADC_STATE_OF_ART) + datasets.load_builtin(
            datasets.ADC_MARKET
        )
    points = []
    for adc in adcs:
        for env in environments:
            result = cap.mostly_digital_capacity(
                cap.SamplingConfig(adc.sampling_frequency, sampling_factor),
                cap.DelaySpread(env.rms_delay_spread),
            )
            points.append(
                MarketPoint(
                    designer=adc.designer,
                    source=adc.source,
                    sampling_frequency_hz=adc.sampling_frequency,
                    environment=env.name,
                    rms_delay_spread_s=env.rms_delay_spread,
                    sampling_factor=float(sampling_factor),
                    capacity_mbit_s=result.rate_mbit_s,
                )
            )
    return points


# ---------------------------------------------------------------------------
# Default sweep behind the reference curves (all knobs overridable)
# ---------------------------------------------------------------------------

def default_sampling_sweep(
    points: int = 200,
    delay_spreads_s=DEFAULT_DELAY_SPREADS_S,
    sampling_factors=(2.0, 4.0),
):
    """Mostly-digital capacity, sensitivity and percent-of-max vs F_s."""
    return SweepSpec(
        mode=cap.MOSTLY_DIGITAL,
        swept_parameter="sampling_frequency",
        start_hz=DEFAULT_DIGITAL_RANGE_HZ[0],
        stop_hz=DEFAULT_DIGITAL_RANGE_HZ[1],
        points=points,
        delay_spreads=tuple(cap.DelaySpread(d) for d in delay_spreads_s),
        sampling_factors=tuple(float(n) for n in sampling_factors),
        outputs=("capacity", "derivative", "percent_of_max"),
    )
