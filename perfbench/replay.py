"""Traced, decomposed replay of one uwbcap CLI command.

``replay`` parses the argv with the CLI's own parser, then makes the same
public library calls the CLI handler makes, then emits the output the same
way, recording a span around each layer call.  The bytes it writes must be
identical to those of ``uwbcap.cli.main`` on the same argv; the benchmark
checks that for every traced operation.

Run as a script, it replays one command in a fresh interpreter, with the
package import inside a span, and writes its spans as JSON:

    PYTHONPATH=src python3 perfbench/replay.py --argv '["table", "iv"]' \\
        --stdout out.txt --spans spans.json
"""

import argparse
import contextlib
import json
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    """Spans kept in memory: (name, start, end, index of the parent span)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)


def self_times(spans) -> dict:
    """Seconds per layer (the span name up to its first dot), minus the
    part of each span that its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    totals = {}
    for (name, start, end, _), covered in zip(spans, child):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
    return totals


def _write_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# CLI names -> library values; a copy, so a drift in the CLI shows up as a
# replay that no longer matches the CLI's bytes
_MODES = {"ideal": "ideal", "binary": "binary", "digital": "mostly_digital", "mixed": "mixed"}
_PARAMS = {"bandwidth": "bandwidth", "fs": "sampling_frequency", "fcircuit": "circuit_frequency"}


def _emit_rows(rows, args, path, tracer) -> None:
    from uwbcap import explorer

    emit = {"csv": explorer.emit_csv, "json": explorer.emit_json}[args.format]
    with tracer.span(f"explorer.emit_{args.format}"):
        with open(path, "w", encoding="utf-8") as handle:
            emit(rows, handle)


def _replay_sweep(args, path, tracer) -> int:
    from uwbcap import capacity as cap
    from uwbcap import explorer

    spec = explorer.SweepSpec(
        mode=_MODES[args.mode],
        swept_parameter=_PARAMS[args.param],
        start_hz=args.start,
        stop_hz=args.stop,
        points=args.points,
        spacing=args.spacing,
        delay_spreads=tuple(cap.DelaySpread(d) for d in args.delay_spreads),
        sampling_factors=args.nsampling,
        modulation=cap.ModulationScheme(args.mary, args.mary_convention),
        snr=cap.SnrValue.from_db(args.snr_db) if args.snr_db is not None else None,
        outputs=args.outputs,
    )
    with tracer.span("explorer.run_sweep"):
        rows = explorer.run_sweep(spec)
    _emit_rows(rows, args, path, tracer)
    return 0


def _replay_validate(args, path, tracer) -> int:
    from uwbcap import isi

    if args.format != "json":
        raise ValueError("the replay covers validate-isi --format json only")
    with tracer.span("isi.validate_assumption"):
        reports = isi.validate_assumption(
            args.delay_spread,
            args.pulse_duration,
            guard_multiples=args.guard_multiples,
            trials=args.trials,
            rng_seed=args.seed,
            tap_spacing=args.tap_spacing,
            num_taps=args.num_taps,
            deterministic=args.deterministic,
        )
    with tracer.span("cli.emit_json"):
        _write_json([r.to_dict() for r in reports], path)
    return 0


def _replay_capacity(args, path, tracer) -> int:
    from uwbcap import capacity as cap

    if args.format != "json":
        raise ValueError("the replay covers capacity --format json only")
    with tracer.span(f"capacity.{args.model}"):
        delay = cap.DelaySpread(args.delay_spread)
        if args.model in ("ideal", "binary"):
            if args.pulse_duration is not None:
                pulse = cap.PulseSpec.from_duration(args.pulse_duration)
            else:
                pulse = cap.PulseSpec.from_bandwidth(args.bandwidth)
        if args.model == "ideal":
            if args.snr_linear is not None:
                snr = cap.SnrValue(args.snr_linear)
            elif args.snr_db is not None:
                snr = cap.SnrValue.from_db(args.snr_db)
            else:
                snr = cap.SnrValue(cap.BINARY_SNR_LINEAR)
            result = cap.ideal_capacity(pulse, delay, snr)
        elif args.model == "binary":
            result = cap.binary_capacity(pulse, delay)
        elif args.model == "digital":
            result = cap.mostly_digital_capacity(
                cap.SamplingConfig(args.fs, args.nsampling),
                delay,
                cap.ModulationScheme(args.mary, args.mary_convention),
            )
        else:
            result = cap.mixed_capacity(
                cap.CircuitFrequency(args.fcircuit),
                delay,
                cap.ModulationScheme(args.mary, args.mary_convention),
            )
    with tracer.span("cli.emit_json"):
        _write_json(result.to_dict(), path)
    return 0


def _replay_table(args, path, tracer) -> int:
    from uwbcap import explorer

    with tracer.span("explorer.reproduce_table"):
        rows = explorer.reproduce_table_iv() if args.which == "iv" else explorer.reproduce_table_vii()
    _emit_rows(rows, args, path, tracer)
    if not args.check:
        return 0
    with tracer.span("explorer.table_check"):
        problems = explorer.check_table_iv() if args.which == "iv" else explorer.check_table_vii()
    return 1 if problems else 0


def _replay_datasets(args, path, tracer) -> int:
    import dataclasses

    from uwbcap import datasets

    with tracer.span("datasets.load_builtin"):
        entries = datasets.load_builtin(args.table.replace("-", "_"))
    with tracer.span("datasets.query"):
        entries = datasets.query(entries, where=args.where, min_by=args.min_by, max_by=args.max_by)
    if args.format == "csv":
        with tracer.span("datasets.to_csv"):
            text = datasets.to_csv(entries) if entries else ""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif args.format == "json":
        with tracer.span("cli.emit_json"):
            _write_json([dataclasses.asdict(e) for e in entries], path)
    else:
        raise ValueError("the replay covers datasets list --format csv|json only")
    return 0


_REPLAYS = {
    "sweep": _replay_sweep,
    "validate-isi": _replay_validate,
    "capacity": _replay_capacity,
    "table": _replay_table,
    "datasets": _replay_datasets,
}


def replay(argv, tracer: Tracer, stdout_path) -> int:
    """Replay one command; output goes to ``--output`` or ``stdout_path``."""
    from uwbcap import cli

    with tracer.span(f"op.{argv[0]}"):
        with tracer.span("cli.parse_args"):
            args = cli.build_parser().parse_args(argv)
        return _REPLAYS[args.command](args, args.output or stdout_path, tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--argv", required=True, help="the CLI argv as a JSON list")
    parser.add_argument("--stdout", required=True, help="file that receives the output")
    parser.add_argument("--spans", required=True, help="file that receives the spans")
    options = parser.parse_args()
    tracer = Tracer()
    with tracer.span("import.uwbcap_cli"):
        import uwbcap.cli  # noqa: F401
    rc = replay(json.loads(options.argv), tracer, options.stdout)
    _write_json({"rc": rc, "spans": tracer.spans}, options.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
