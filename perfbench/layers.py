"""Per-layer measurements for the traced run.

Three sources feed the per-layer metrics:

* spans of the decomposed replay (:mod:`replay`), for the library calls an
  operation makes;
* timed loops of the same public calls on the operation's own inputs, for
  per-call costs too small to span one by one (a capacity call per sweep
  row, a faded channel per oracle trial);
* a fixed probe on seeded inputs, run once per traced operation, for the
  layers that an operation never calls.

A time metric reads the operation's own path whenever the workload calls
that layer and the probe otherwise, so every metric is a measurement on
every workload; ``source`` in the summary says which.  Counts always
describe the operation path alone.
"""

import dataclasses
import io
import itertools
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from uwbcap import capacity as cap
from uwbcap import cli, datasets, explorer, isi, units

from replay import self_times
from workloads import GUARD_MULTIPLES

perf_counter = time.perf_counter

# metric -> unit, in report order
TIME_METRICS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cli.parse_args_ms": "ms",
    "units.parse_quantity_us": "us",
    "capacity.scalar_call_us": "us",
    "capacity.derivative_us": "us",
    "capacity.percent_us": "us",
    "explorer.run_sweep_s": "s",
    "explorer.emit_csv_s": "s",
    "explorer.emit_json_s": "s",
    "explorer.table_check_ms": "ms",
    "datasets.load_builtin_us": "us",
    "datasets.query_us": "us",
    "datasets.to_csv_us": "us",
    "isi.calibrate_ms": "ms",
    "isi.synthesize_us": "us",
    "isi.spill_us": "us",
    "isi.rms_us": "us",
    "isi.validate_s": "s",
}
COUNT_METRICS = {
    "units.calls": "count/op",
    "capacity.calls": "count/op",
    "explorer.rows": "count/op",
    "explorer.emit_bytes": "B/op",
    "isi.trials": "count/op",
    "isi.spill_calls": "count/op",
    "isi.calibrations": "count/op",
    "isi.spill_bytes_computed": "B/op",
}

# replay span name -> (metric, scale from seconds)
SPAN_METRICS = {
    "cli.parse_args": ("cli.parse_args_ms", 1e3),
    "explorer.run_sweep": ("explorer.run_sweep_s", 1.0),
    "explorer.emit_csv": ("explorer.emit_csv_s", 1.0),
    "explorer.emit_json": ("explorer.emit_json_s", 1.0),
    "explorer.table_check": ("explorer.table_check_ms", 1e3),
    "datasets.load_builtin": ("datasets.load_builtin_us", 1e6),
    "datasets.query": ("datasets.query_us", 1e6),
    "datasets.to_csv": ("datasets.to_csv_us", 1e6),
    "isi.validate_assumption": ("isi.validate_s", 1.0),
}

QUANTITY_FLAGS = frozenset(
    ("--delay-spread", "--delay-spreads", "--pulse-duration", "--bandwidth",
     "--fs", "--fcircuit", "--from", "--to", "--tap-spacing")
)
# faded trials of an oracle operation that the per-call loops re-time
ISI_TIMED_TRIALS = 200
# repeats of a single scalar call, so one per-call figure spans > 10 us
SCALAR_REPEATS = 200
SPILL_BYTES_PER_TAP = 16


def quantity_args(argv) -> list:
    """The unit-suffixed strings the CLI hands to ``parse_quantity``."""
    found = []
    for flag, value in zip(argv, argv[1:]):
        if flag in QUANTITY_FLAGS:
            found.extend(value.split(","))
    return found


def default_taps(d: float) -> int:
    """Grid length ``validate_assumption`` picks for a target d_RMS."""
    return int(math.ceil(15.0 * d / (d / 40.0)))


def _per_call(call, inputs) -> float:
    start = perf_counter()
    for args in inputs:
        call(*args)
    return (perf_counter() - start) / len(inputs)


class LayerSamples:
    """Per-operation samples of every per-layer metric."""

    def __init__(self):
        self.path = defaultdict(list)
        self.probe = defaultdict(list)
        self.counts = defaultdict(float)
        self.self_s = defaultdict(float)
        self.ops = 0
        self._fresh_grid = itertools.count(1)

    def add(self, metric: str, value: float, probe: bool = False) -> None:
        (self.probe if probe else self.path)[metric].append(value)

    # ------------------------------------------------------------ op path

    def add_spans(self, spans) -> None:
        for layer, seconds in self_times(spans).items():
            self.self_s[layer] += seconds
        for name, start, end, _ in spans:
            if name in SPAN_METRICS:
                metric, scale = SPAN_METRICS[name]
                self.add(metric, (end - start) * scale)

    def add_op(self, op: dict, out_bytes: int) -> None:
        """Counts and timed loops on one operation's own inputs."""
        self.ops += 1
        quantities = quantity_args(op["argv"])
        self.counts["units.calls"] += len(quantities)
        if quantities:
            self._time_units(quantities, probe=False)
        kind = op.get("cli_kind", op["kind"])
        if kind == "sweep":
            rows = op["points"] * len(op["ds"]) * len(op["ns"])
            self.counts["capacity.calls"] += 3 * rows
            self.counts["explorer.rows"] += rows
            self.counts["explorer.emit_bytes"] += out_bytes
            self._time_capacity_grid(op, probe=False)
        elif kind in ("isi", "validate-isi"):
            trials = op["trials"]
            ks = len(GUARD_MULTIPLES)
            self.counts["isi.trials"] += trials
            self.counts["isi.spill_calls"] += trials * ks
            self.counts["isi.spill_bytes_computed"] += (
                trials * default_taps(op["d"]) * SPILL_BYTES_PER_TAP * ks
            )
            # a fresh interpreter calibrates its grid once; the in-process
            # oracle workload calibrated every grid during set-up
            self.counts["isi.calibrations"] += 1 if op["kind"] == "cli" else 0
            self._time_calibration(op["d"], probe=False)
            if not op["deterministic"]:
                self._time_trials(op, probe=False)
        elif kind.startswith("capacity"):
            self.counts["capacity.calls"] += 1
            self._time_scalar(op)
        elif kind.startswith("table"):
            rows = op["rows"]
            # reproduce once for the output, once more inside the check
            self.counts["capacity.calls"] += 2 * rows
            self.counts["explorer.rows"] += rows
            self.counts["explorer.emit_bytes"] += out_bytes

    def _time_units(self, quantities, probe: bool) -> None:
        inputs = [(q,) for q in quantities] * max(1, SCALAR_REPEATS // len(quantities))
        self.add("units.parse_quantity_us", 1e6 * _per_call(units.parse_quantity, inputs), probe)

    def _time_capacity_grid(self, op: dict, probe: bool) -> None:
        """The scalar calls ``run_sweep`` makes, over the operation's grid."""
        mode = op["mode"]
        grid = np.geomspace(op["start"], op["stop"], op["points"]).tolist()
        scheme = cap.ModulationScheme(op["order"])
        rows = [
            (f, cap.DelaySpread(d), n)
            for d in op["ds"]
            for n in op["ns"]
            for f in grid
        ]
        if mode == "digital":
            def scalar(f, d, n):
                return cap.mostly_digital_capacity(cap.SamplingConfig(f, n), d, scheme).rate
            ratio_mode, with_n = cap.MOSTLY_DIGITAL, True
        elif mode == "mixed":
            def scalar(f, d, n):
                return cap.mixed_capacity(cap.CircuitFrequency(f), d, scheme).rate
            ratio_mode, with_n = cap.MIXED, False
        else:
            def scalar(f, d, n):
                return cap.binary_capacity(cap.PulseSpec.from_bandwidth(f), d).rate
            ratio_mode, with_n = cap.MIXED, False

        def derivative(f, d, n):
            return cap.capacity_derivative(ratio_mode, f, d, n if with_n else None)

        def percent(f, d, n):
            return cap.percent_of_max(ratio_mode, f, d, n if with_n else None)

        self.add("capacity.scalar_call_us", 1e6 * _per_call(scalar, rows), probe)
        self.add("capacity.derivative_us", 1e6 * _per_call(derivative, rows), probe)
        self.add("capacity.percent_us", 1e6 * _per_call(percent, rows), probe)

    def _time_scalar(self, op: dict) -> None:
        """One CLI capacity call, repeated so the figure is measurable."""
        d = cap.DelaySpread(op["d"])
        model = op["model"]
        if model == "digital":
            def call():
                return cap.mostly_digital_capacity(
                    cap.SamplingConfig(op["fs"], op["n"]), d, cap.ModulationScheme(op["order"])
                )
        elif model == "mixed":
            def call():
                return cap.mixed_capacity(
                    cap.CircuitFrequency(op["f"]), d, cap.ModulationScheme(op["order"])
                )
        elif model == "binary":
            def call():
                return cap.binary_capacity(cap.PulseSpec.from_duration(op["tp"]), d)
        else:
            def call():
                return cap.ideal_capacity(
                    cap.PulseSpec.from_duration(op["tp"]), d, cap.SnrValue.from_db(op["snr_db"])
                )
        self.add("capacity.scalar_call_us", 1e6 * _per_call(call, [()] * SCALAR_REPEATS))

    def _time_calibration(self, d: float, probe: bool) -> None:
        """First ``synthesize_channel`` on a grid no call has used yet."""
        spacing = d / 40.0 * (1.0 + 1e-9 * next(self._fresh_grid))
        start = perf_counter()
        isi.synthesize_channel(d, spacing, default_taps(d))
        self.add("isi.calibrate_ms", 1e3 * (perf_counter() - start), probe)

    def _time_trials(self, op: dict, probe: bool, trials: int = ISI_TIMED_TRIALS) -> None:
        """The per-trial calls ``validate_assumption`` makes, re-timed."""
        d, tp = op["d"], op["tp"]
        seed = op["seed"]
        taps = default_taps(d)
        spacing = d / 40.0
        periods = [tp + k * d for k in GUARD_MULTIPLES]
        synth = rms = spill = 0.0
        count = min(trials, op["trials"])
        for t in range(count):
            start = perf_counter()
            channel = isi.synthesize_channel(d, spacing, taps, rng_seed=(seed, t))
            mid = perf_counter()
            isi.rms_delay_spread(channel)
            end = perf_counter()
            for period in periods:
                isi.isi_spill(channel, tp, period)
            synth += mid - start
            rms += end - mid
            spill += perf_counter() - end
        self.add("isi.synthesize_us", 1e6 * synth / count, probe)
        self.add("isi.rms_us", 1e6 * rms / count, probe)
        self.add("isi.spill_us", 1e6 * spill / (count * len(periods)), probe)

    # -------------------------------------------------------------- probe

    def run_probe(self, rng, surveys) -> None:
        """Seeded small calls into every layer, for layers off the op path."""
        d = float(rng.choice(surveys.all_d))
        tp = float(rng.choice(surveys.pulse_tp))
        self._time_units(["17ns", "2GSPS", "10.87GHz", "380ps"], probe=True)

        argv = ["sweep", "--mode", "digital", "--param", "fs", "--from", "0.1GSPS",
                "--to", "100GSPS", "--points", "100", "--delay-spreads", f"{d!r}s",
                "--nsampling", "2,4", "--outputs", "capacity,derivative,percent"]
        start = perf_counter()
        args = cli.build_parser().parse_args(argv)
        self.add("cli.parse_args_ms", 1e3 * (perf_counter() - start), probe=True)

        op = {"mode": "digital", "start": args.start, "stop": args.stop,
              "points": args.points, "ds": [d], "ns": list(args.nsampling), "order": 2}
        self._time_capacity_grid(op, probe=True)
        spec = explorer.SweepSpec(
            mode=cap.MOSTLY_DIGITAL, swept_parameter="sampling_frequency",
            start_hz=args.start, stop_hz=args.stop, points=args.points,
            delay_spreads=(cap.DelaySpread(d),), sampling_factors=args.nsampling,
            outputs=args.outputs,
        )
        start = perf_counter()
        rows = explorer.run_sweep(spec)
        self.add("explorer.run_sweep_s", perf_counter() - start, probe=True)
        for fmt, emit in (("csv", explorer.emit_csv), ("json", explorer.emit_json)):
            start = perf_counter()
            emit(rows, io.StringIO())
            self.add(f"explorer.emit_{fmt}_s", perf_counter() - start, probe=True)
        for check_table in (explorer.check_table_iv, explorer.check_table_vii):
            start = perf_counter()
            check_table()
            self.add("explorer.table_check_ms", 1e3 * (perf_counter() - start), probe=True)

        for table in datasets.TABLE_IDS:
            start = perf_counter()
            entries = datasets.load_builtin(table)
            field = dataclasses.fields(entries[0])[-1].name
            mid = perf_counter()
            datasets.query(entries, max_by=field)
            end = perf_counter()
            datasets.to_csv(entries)
            self.add("datasets.load_builtin_us", 1e6 * (mid - start), probe=True)
            self.add("datasets.query_us", 1e6 * (end - mid), probe=True)
            self.add("datasets.to_csv_us", 1e6 * (perf_counter() - end), probe=True)

        self._time_calibration(d, probe=True)
        seed = int(rng.integers(1 << 31))
        trials = 20
        isi_op = {"d": d, "tp": tp, "trials": trials, "seed": seed}
        self._time_trials(isi_op, probe=True, trials=trials)
        start = perf_counter()
        isi.validate_assumption(d, tp, trials=trials, rng_seed=seed)
        self.add("isi.validate_s", perf_counter() - start, probe=True)

    # ------------------------------------------------------------- report

    def report(self, import_times: dict) -> dict:
        """metric -> {"value", "unit", "source"} for every per-layer metric."""
        out = {}
        for metric, unit in TIME_METRICS.items():
            if metric in import_times:
                out[metric] = {"value": import_times[metric], "unit": unit, "source": "fresh interpreter"}
                continue
            path = self.path.get(metric)
            samples = path or self.probe.get(metric)
            out[metric] = {
                "value": statistics.median(samples) if samples else math.nan,
                "unit": unit,
                "source": "op path" if path else "probe",
            }
        ops = max(self.ops, 1)
        for metric, unit in COUNT_METRICS.items():
            out[metric] = {"value": self.counts.get(metric, 0.0) / ops, "unit": unit, "source": "op path"}
        return out


def _import_tree(stderr: str) -> list:
    """(depth, name, cumulative s) from ``-X importtime``, in print order."""
    lines = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        lines.append((depth, name.strip(), int(cumulative) / 1e6))
    return lines


def _outermost(tree, package: str) -> float:
    """Cumulative import time of ``package`` modules not nested in another."""
    total = 0.0
    ancestors = []
    # importtime prints a module after the modules it imported
    for depth, name, cumulative in reversed(tree):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = any(a == package or a.startswith(package + ".") for _, a in ancestors)
        if (name == package or name.startswith(package + ".")) and not inside:
            total += cumulative
        ancestors.append((depth, name))
    return total


def import_times(env: dict, repeats: int = 3) -> dict:
    """Median import cost of ``uwbcap.cli`` in fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import uwbcap.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        tree = _import_tree(proc.stderr)
        samples["import.total_s"].append(_outermost(tree, "uwbcap"))
        samples["import.scipy_s"].append(_outermost(tree, "scipy"))
        samples["import.numpy_s"].append(_outermost(tree, "numpy"))
    return {metric: statistics.median(values) for metric, values in samples.items()}
