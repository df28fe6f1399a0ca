"""IR-UWB channel-capacity limits versus hardware implementation.

Capacity models for impulse-radio ultra-wideband links over multipath
channels (ideal, mostly digital, mixed analog), the embedded hardware and
channel surveys they are evaluated against, a sweep engine for design-space
exploration, and a Monte-Carlo tapped-delay-line oracle for the no-ISI
symbol-spacing assumption.

``import uwbcap`` loads no submodule: each public name is imported from
its module the first time it is used (PEP 562), so scalar capacity use
never loads the surveys, the sweep engine or numpy.
"""

import sys

__version__ = "0.1.0"

#: Public names by the submodule that defines them.
_EXPORTS = {
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

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _submodule(name):
    # __import__, unlike importlib.import_module, shows in -X importtime
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name in _MODULE_OF:
        return getattr(_submodule(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
