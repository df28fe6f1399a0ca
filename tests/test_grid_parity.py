"""The array path against the scalar path, bit for bit.

``capacity.capacity_grid`` and ``explorer.run_sweep`` evaluate a whole
grid in one numpy broadcast.  The reference here is the point-by-point
loop over the public scalar functions: every value must be equal (``==``),
and every rejected grid must raise the same exception type and message.
A sweep's columns kept as levels must also write the bytes that the same
columns as plain arrays write.
"""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uwbcap.capacity as cap
from uwbcap.emit import emit_csv, emit_human, emit_json, rows_to_dicts
from uwbcap.explorer import SweepPoint, SweepSpec, SweepTable, run_sweep

_PARAMETER = {
    cap.IDEAL: "bandwidth",
    cap.BINARY: "bandwidth",
    cap.MOSTLY_DIGITAL: "sampling_frequency",
    cap.MIXED: "circuit_frequency",
}


def scalar_rows(mode, frequencies, delay_spreads, sampling_factors, modulation, snr, outputs):
    """One dict per (d, n, f) point, in that nesting order, from scalar calls.
    Only the digital model takes a sampling factor, only the ideal model an
    SNR, and only the digital and mixed models a modulation; the other
    modes' scalar functions have no such argument, so one given to them is
    rejected.  No scalar function gives the derivative of the ideal model's
    capacity (``capacity_derivative`` carries no Shannon factor), so that
    is rejected too."""
    if mode != cap.MOSTLY_DIGITAL and sampling_factors:
        raise ValueError("sampling_factors apply to mostly_digital sweeps only")
    if mode != cap.IDEAL and snr is not None:
        raise ValueError("snr applies to ideal sweeps only")
    if mode in (cap.IDEAL, cap.BINARY) and modulation != cap.ModulationScheme():
        raise ValueError("modulation applies to mostly_digital and mixed sweeps only")
    if mode == cap.IDEAL and "derivative" in outputs:
        raise ValueError("the derivative output is not defined in ideal mode")
    digital = mode == cap.MOSTLY_DIGITAL
    snr = cap.SnrValue(cap.BINARY_SNR_LINEAR) if snr is None else snr
    ratio_mode = cap.MOSTLY_DIGITAL if digital else cap.MIXED
    rows = []
    for d in delay_spreads:
        for n in sampling_factors if digital else (None,):
            for f in frequencies:
                row = {"frequency_hz": f, "rms_delay_spread_s": d.value}
                if n is not None:
                    row["sampling_factor"] = float(n)
                if "capacity" in outputs:
                    if mode == cap.IDEAL:
                        result = cap.ideal_capacity(cap.PulseSpec.from_bandwidth(f), d, snr)
                    elif mode == cap.BINARY:
                        result = cap.binary_capacity(cap.PulseSpec.from_bandwidth(f), d)
                    elif digital:
                        result = cap.mostly_digital_capacity(
                            cap.SamplingConfig(f, n), d, modulation
                        )
                    else:
                        result = cap.mixed_capacity(cap.CircuitFrequency(f), d, modulation)
                    row["capacity_bit_s"] = result.rate
                if "derivative" in outputs:
                    row["derivative_bit_s_per_hz"] = cap.capacity_derivative(
                        ratio_mode, f, d, n
                    )
                if "percent_of_max" in outputs:
                    row["percent_of_max"] = cap.percent_of_max(ratio_mode, f, d, n)
                rows.append(row)
    return rows


def outcome(call):
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - the exception is the result compared
        return None, exc


modulations = st.builds(
    cap.ModulationScheme,
    st.integers(2, 8),
    st.sampled_from((cap.MARY_PAPER, cap.MARY_LOG2)),
)
snrs = st.none() | st.floats(-10.0, 40.0).map(cap.SnrValue.from_db)
output_sets = st.lists(st.sampled_from(cap.OUTPUTS), min_size=1, max_size=3, unique=True)


@st.composite
def sweep_specs(draw):
    mode = draw(st.sampled_from(cap.MODES))
    start = draw(st.floats(1e6, 1e11))
    stop = start * draw(st.floats(1.001, 1e3))
    outputs = draw(output_sets.filter(lambda o: mode != cap.IDEAL or "derivative" not in o))
    spread = st.floats(1e-12, 1e-6)
    if "percent_of_max" not in outputs:
        spread = spread | st.just(0.0)
    factors = ()
    if mode == cap.MOSTLY_DIGITAL:
        factors = tuple(draw(st.lists(st.floats(2.0, 16.0), min_size=1, max_size=3)))
    return SweepSpec(
        mode=mode,
        swept_parameter=_PARAMETER[mode],
        start_hz=start,
        stop_hz=stop,
        points=draw(st.integers(2, 40)),
        delay_spreads=tuple(
            cap.DelaySpread(d) for d in draw(st.lists(spread, min_size=1, max_size=3))
        ),
        spacing=draw(st.sampled_from(("linear", "logarithmic"))),
        sampling_factors=factors,
        modulation=draw(modulations) if mode in (cap.MOSTLY_DIGITAL, cap.MIXED)
        else cap.ModulationScheme(),
        snr=draw(snrs) if mode == cap.IDEAL else None,
        outputs=tuple(outputs),
    )


@settings(max_examples=200, deadline=None)
@given(sweep_specs())
def test_sweep_table_columns_equal_scalar_calls(spec):
    expected = scalar_rows(
        spec.mode, spec.grid().tolist(), spec.delay_spreads, spec.sampling_factors,
        spec.modulation, spec.snr, spec.outputs,
    )
    table = run_sweep(spec)
    assert isinstance(table, SweepTable)
    assert rows_to_dicts(table) == expected
    for name, column in table.columns.items():
        assert column.tolist() == [row[name] for row in expected]
    points = [SweepPoint(**row) for row in expected]
    assert len(table) == len(points)
    assert list(table) == points
    assert table[0] == points[0] and table[-1] == points[-1]
    assert table[1:3] == points[1:3]


def _emitted(table) -> list:
    outputs = []
    for emit in (emit_csv, emit_json, emit_human):
        buffer = io.StringIO()
        emit(table, buffer)
        outputs.append(buffer.getvalue())
    return outputs


# run_sweep keeps its grid, d_RMS and n columns as levels and row codes,
# which emission formats once per level; the same columns as plain arrays
# are formatted value by value
@settings(max_examples=100, deadline=None)
@given(sweep_specs(), st.integers(1, 50))
def test_levels_write_what_plain_arrays_write(spec, chunk_rows):
    table = run_sweep(spec)
    assert set(table.levels) == {"frequency_hz", "rms_delay_spread_s"} | (
        {"sampling_factor"} if spec.sampling_factors else set()
    )
    plain = SweepTable(dict(table.columns))
    assert plain.levels == {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("uwbcap.emit._CHUNK_ROWS", chunk_rows)
        assert _emitted(table) == _emitted(plain)


frequencies = st.lists(
    st.floats(1e6, 1e12) | st.sampled_from((0.0, -0.0, -2e9)), min_size=1, max_size=6
)
# 0 leaves the asymptote unbounded; subnormal spreads overflow it
spreads = st.lists(
    (st.floats(1e-12, 1e-6) | st.sampled_from((0.0, 1e-320, 5e-324))).map(cap.DelaySpread),
    min_size=1, max_size=3,
)
factor_lists = st.lists(st.sampled_from((1.0, 1.5, 2.0, 4.0, 6.5)), min_size=1, max_size=3)
# shared: within one example, every draw from it gives the same mode
grid_modes = st.shared(st.sampled_from(cap.MODES), key="grid mode")


def _factors_for(mode):
    """Sampling factors for a digital grid; none for the other modes, except
    one grid in ten, which breaks that rule."""
    if mode == cap.MOSTLY_DIGITAL:
        return factor_lists
    return st.integers(1, 10).flatmap(lambda i: factor_lists if i == 5 else st.just([]))


def _example(freqs, spreads_s, factors, outputs):
    return example(
        cap.MOSTLY_DIGITAL, freqs, [cap.DelaySpread(d) for d in spreads_s], factors,
        cap.ModulationScheme(), None, outputs,
    )


@settings(max_examples=300, deadline=None)
@given(
    grid_modes, frequencies, spreads, grid_modes.flatmap(_factors_for),
    modulations, snrs, output_sets,
)
@_example([1e9, 0.0], [1e-9], [4.0], ["capacity"])
@_example([1e9, -1e9], [1e-9], [4.0], ["derivative"])
@_example([1e9], [1e-9], [4.0, 1.0], ["capacity"])
@_example([1e9], [1e-9, 0.0], [4.0], ["percent_of_max"])
# the first rejected point in (d, n, f) order decides the error
@_example([1e9], [0.0, 1e-9], [4.0, 1.0], ["capacity", "percent_of_max"])
@_example([1e9], [1e-9, 0.0], [1.0], ["percent_of_max"])
# non-finite F and n are rejected whatever the outputs
@_example([1e9, float("inf")], [1e-9], [4.0], ["derivative"])
@_example([1e9], [1e-9], [4.0, float("nan")], ["derivative"])
@_example([1e9], [1e-9], [float("inf")], ["derivative"])
# so are an overhead n/F, a capacity and a derivative that overflow
@_example([1e9, 1e-160], [1e-9], [4.0], ["derivative"])
@_example([1e9, 1e-320], [1e-9], [4.0], ["percent_of_max"])
@_example([1e9, 1e-320], [1e-9], [4.0], ["capacity", "derivative"])
@example(
    cap.MIXED, [1e9, 1e-160], [cap.DelaySpread(1e-9)], [], cap.ModulationScheme(),
    None, ["derivative"],
)
@example(
    cap.MIXED, [1e9, 1e162], [cap.DelaySpread(0.0)], [], cap.ModulationScheme(),
    None, ["derivative"],
)
# and a (n/F)/F or a derivative below the normal range
@example(
    cap.MIXED, [1e9, 1e160], [cap.DelaySpread(1e-9)], [], cap.ModulationScheme(),
    None, ["derivative"],
)
@example(
    cap.MIXED, [1e9, 1e163], [cap.DelaySpread(1e-9)], [], cap.ModulationScheme(),
    None, ["capacity", "derivative"],
)
@example(
    cap.MIXED, [1e9], [cap.DelaySpread(1e-9)], [], cap.ModulationScheme(10**308),
    None, ["capacity"],
)
@example(
    cap.BINARY, [1e9, 1.7976931348623157e308], [cap.DelaySpread(0.0)], [],
    cap.ModulationScheme(), None, ["capacity"],
)
def test_grid_raises_what_the_scalar_path_raises(
    mode, freqs, delay_spreads, factors, modulation, snr, outputs
):
    expected, expected_exc = outcome(
        lambda: scalar_rows(mode, freqs, delay_spreads, factors, modulation, snr, outputs)
    )
    grid, grid_exc = outcome(
        lambda: cap.capacity_grid(
            mode, np.array(freqs), delay_spreads, factors, modulation, snr, outputs
        )
    )
    assert type(grid_exc) is type(expected_exc)
    assert str(grid_exc) == str(expected_exc)
    if expected_exc is None:
        fields = {
            "capacity": "capacity_bit_s",
            "derivative": "derivative_bit_s_per_hz",
            "percent_of_max": "percent_of_max",
        }
        for output, values in grid.items():
            assert values.ravel().tolist() == [row[fields[output]] for row in expected]



def test_grid_rejects_an_snr_outside_ideal_mode():
    # binary returned its SNR-3 rate, 5e8 bit/s, whatever the SNR
    for mode, factors in ((cap.BINARY, ()), (cap.MOSTLY_DIGITAL, (4.0,)), (cap.MIXED, ())):
        with pytest.raises(ValueError, match="^snr applies to ideal sweeps only$"):
            cap.capacity_grid(
                mode, [1e9], [cap.DelaySpread(1e-9)], factors, snr=cap.SnrValue.from_db(-200)
            )


# each was accepted and ignored, or failed with an AttributeError
@pytest.mark.parametrize(
    "mode, delay_spreads, factors, outputs, message",
    [
        (cap.MIXED, [cap.DelaySpread(1e-9)], (4.0,), ("capacity",),
         "sampling_factors apply to mostly_digital sweeps only"),
        (cap.MIXED, [cap.DelaySpread(1e-9)], (), (),
         r"outputs must be a nonempty subset of \("),
        (cap.MOSTLY_DIGITAL, [cap.DelaySpread(1e-9)], (), ("capacity",),
         "mostly_digital sweeps need at least one sampling factor"),
        (cap.MIXED, [1e-9], (), ("capacity",), "delay_spreads must contain DelaySpread values"),
        (cap.IDEAL, [cap.DelaySpread(1e-9)], (), ("derivative",),
         "the derivative output is not defined in ideal mode"),
    ],
    ids=["mixed-factors", "no-outputs", "digital-no-factors", "raw-spreads", "ideal-derivative"],
)
def test_grid_rejects_what_it_ignored(mode, delay_spreads, factors, outputs, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        cap.capacity_grid(mode, [1e9], delay_spreads, factors, outputs=outputs)


def test_grid_takes_sampling_factors_as_any_sequence():
    args = (cap.MOSTLY_DIGITAL, [1e9], [cap.DelaySpread(1e-9)])
    assert cap.capacity_grid(*args, np.array([2.0, 4.0]))["capacity"].tolist() == (
        cap.capacity_grid(*args, [2.0, 4.0])["capacity"].tolist()
    )


@st.composite
def grid_arguments(draw):
    """(mode, delay spreads, sampling factors, modulation, snr, outputs),
    each breaking its rule about one time in five."""
    mode = draw(st.sampled_from(cap.MODES))

    def breaks():
        return draw(st.integers(1, 5)) == 3  # not an end, which hypothesis favours

    spreads_ = draw(st.lists(st.floats(1e-12, 1e-6).map(cap.DelaySpread), min_size=1, max_size=3))
    if breaks():
        spreads_ = draw(st.sampled_from(([], spreads_ + [1e-9])))
    digital = mode == cap.MOSTLY_DIGITAL
    factors = draw(st.lists(st.floats(2.0, 16.0), min_size=1, max_size=3)) if digital else []
    if breaks():
        factors = [] if digital else [4.0]
    snr = draw(snrs) if mode == cap.IDEAL else None
    if breaks():
        snr = cap.SnrValue(10.0)
    modulation = (
        draw(modulations) if mode in (cap.MOSTLY_DIGITAL, cap.MIXED) else cap.ModulationScheme()
    )
    if breaks():
        modulation = cap.ModulationScheme(4)
    outputs = draw(output_sets.filter(lambda o: mode != cap.IDEAL or "derivative" not in o))
    if breaks():
        outputs = draw(st.sampled_from(([], outputs + ["slope"], ["derivative"])))
    if breaks():
        mode = "digital"  # the CLI's name, not a capacity mode
    return mode, spreads_, factors, modulation, snr, outputs


# SweepSpec's own rules (axis, points, spacing) all hold here, and every
# point of the grid is in the domain, so only the shared rules can reject
@settings(max_examples=100, deadline=None)
@given(grid_arguments())
@example((cap.IDEAL, [cap.DelaySpread(1e-9)], [], cap.ModulationScheme(), None, ["derivative"]))
@example((cap.BINARY, [cap.DelaySpread(1e-9)], [], cap.ModulationScheme(8), None, ["capacity"]))
def test_sweep_spec_accepts_what_the_grid_accepts(arguments):
    mode, delay_spreads, factors, modulation, snr, outputs = arguments
    _, spec_exc = outcome(lambda: SweepSpec(
        mode=mode, swept_parameter=_PARAMETER.get(mode, "bandwidth"), start_hz=1e9,
        stop_hz=2e9, points=2, delay_spreads=tuple(delay_spreads),
        sampling_factors=tuple(factors), modulation=modulation, snr=snr, outputs=tuple(outputs),
    ))
    _, grid_exc = outcome(lambda: cap.capacity_grid(
        mode, [1e9, 2e9], delay_spreads, factors, modulation, snr, outputs
    ))
    assert type(spec_exc) is type(grid_exc)
    assert str(spec_exc) == str(grid_exc)
