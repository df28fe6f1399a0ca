"""IR-UWB channel-capacity limits versus hardware implementation.

Capacity models for impulse-radio ultra-wideband links over multipath
channels (ideal, mostly digital, mixed analog), the embedded hardware and
channel surveys they are evaluated against, a sweep engine for design-space
exploration, and a Monte-Carlo tapped-delay-line oracle for the no-ISI
symbol-spacing assumption.
"""

from .capacity import (
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
from .datasets import (
    ADC_MARKET,
    ADC_STATE_OF_ART,
    ANTENNA_CONFIGS,
    CHANNELS,
    PULSE_GENERATORS,
    TABLE_IDS,
    AdcEntry,
    AntennaConfigEntry,
    ChannelEnvironment,
    PulseGeneratorEntry,
    ingest_csv,
    load_builtin,
    query,
)
from .errors import DomainError, QuantityError, SchemaError
from .explorer import (
    MarketPoint,
    ScenarioRow,
    SweepPoint,
    SweepSpec,
    check_table_iv,
    check_table_vii,
    market_capacity_points,
    reproduce_table_iv,
    reproduce_table_vii,
    run_sweep,
)
from .units import format_quantity, parse_quantity

__version__ = "0.1.0"

#: Names re-exported from ``uwbcap.isi``, which imports numpy: they are
#: loaded on first access (PEP 562), so scalar use never imports numpy.
_ISI_NAMES = frozenset({
    "IsiReport",
    "TappedDelayLine",
    "in_symbol_fraction",
    "isi_spill",
    "rms_delay_spread",
    "synthesize_channel",
    "validate_assumption",
})


def __getattr__(name):
    if name in _ISI_NAMES:
        from . import isi

        return getattr(isi, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ADC_MARKET",
    "ADC_STATE_OF_ART",
    "ANTENNA_CONFIGS",
    "BINARY_SNR_LINEAR",
    "CHANNELS",
    "MARY_LOG2",
    "MARY_PAPER",
    "MIXED",
    "MOSTLY_DIGITAL",
    "PULSE_GENERATORS",
    "TABLE_IDS",
    "AdcEntry",
    "AntennaConfigEntry",
    "CapacityResult",
    "ChannelEnvironment",
    "CircuitFrequency",
    "DelaySpread",
    "DomainError",
    "IsiReport",
    "MarketPoint",
    "ModulationScheme",
    "PulseGeneratorEntry",
    "PulseSpec",
    "QuantityError",
    "SamplingConfig",
    "ScenarioRow",
    "SchemaError",
    "SnrValue",
    "SweepPoint",
    "SweepSpec",
    "TappedDelayLine",
    "asymptote",
    "binary_capacity",
    "capacity_derivative",
    "check_table_iv",
    "check_table_vii",
    "format_quantity",
    "ideal_capacity",
    "in_symbol_fraction",
    "ingest_csv",
    "isi_spill",
    "load_builtin",
    "market_capacity_points",
    "mixed_capacity",
    "mostly_digital_capacity",
    "parse_quantity",
    "percent_of_max",
    "query",
    "reproduce_table_iv",
    "reproduce_table_vii",
    "required_frequency",
    "rms_delay_spread",
    "run_sweep",
    "synthesize_channel",
    "validate_assumption",
]
