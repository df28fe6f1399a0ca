"""Command-line front end.

Subcommands:
  capacity {ideal|binary|digital|mixed}   one-shot capacity computation
  sweep                                   grid sweep over a frequency axis
  table {iv|vii}                          reproduce/check the reference tables
  datasets list <table>                   browse the embedded surveys
  validate-isi                            Monte-Carlo ISI spill measurement

Quantity flags require a unit suffix (17ns, 2GSPS, 5 GHz); bare numbers are
rejected because the surveyed sources mix ps/ns and MSPS/GSPS freely.

Exit codes: 0 success, 1 check failure, 2 usage error (bad arguments, or an
output that cannot be written: an unwritable --output path or a closed
stdout pipe), 3 domain error.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import capacity as cap
from . import datasets, emit, explorer
from .errors import DomainError, QuantityError
from .units import FREQUENCY, TIME, parse_quantity

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_CLI_TABLES = {table.replace("_", "-"): table for table in datasets.TABLE_IDS}

_CLI_MODES = {
    "ideal": "ideal",
    "binary": "binary",
    "digital": cap.MOSTLY_DIGITAL,
    "mixed": cap.MIXED,
}

_CLI_PARAMS = {
    "bandwidth": "bandwidth",
    "fs": "sampling_frequency",
    "fcircuit": "circuit_frequency",
}

_CLI_OUTPUTS = {
    "capacity": "capacity",
    "derivative": "derivative",
    "percent": "percent_of_max",
    "percent_of_max": "percent_of_max",
}


def _quantity(dimension):
    def parse(text):
        try:
            return parse_quantity(text, expect=dimension)
        except QuantityError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


def _quantity_list(dimension):
    single = _quantity(dimension)

    def parse(text):
        return tuple(single(part) for part in text.split(","))

    return parse


def _float_list(text):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _outputs_list(text):
    names = []
    for part in text.split(","):
        key = part.strip()
        if key not in _CLI_OUTPUTS:
            raise argparse.ArgumentTypeError(
                f"unknown output {key!r}; choose from capacity, derivative, percent"
            )
        names.append(_CLI_OUTPUTS[key])
    return tuple(names)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "json", "csv"),
        default="human",
        help="output format (default: human)",
    )
    common.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="uwbcap",
        description="IR-UWB channel-capacity limits vs hardware implementation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # --- capacity ---------------------------------------------------------
    capacity_cmd = commands.add_parser("capacity", help="compute one capacity value")
    models = capacity_cmd.add_subparsers(dest="model", required=True)

    def add_delay(p):
        p.add_argument(
            "--delay-spread",
            type=_quantity(TIME),
            required=True,
            metavar="QTY",
            help="RMS channel delay spread, e.g. 17ns",
        )

    def add_pulse(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--pulse-duration", type=_quantity(TIME), metavar="QTY", help="e.g. 380ps"
        )
        group.add_argument(
            "--bandwidth", type=_quantity(FREQUENCY), metavar="QTY", help="e.g. 2.63GHz"
        )

    def add_mary(p):
        p.add_argument("--mary", type=int, default=2, metavar="M", help="modulation order (default 2)")
        p.add_argument(
            "--mary-convention",
            choices=(cap.MARY_PAPER, cap.MARY_LOG2),
            default=cap.MARY_PAPER,
            help="multiplier rule: M-1 (paper) or log2(M)",
        )

    ideal = models.add_parser("ideal", parents=[common], help="Shannon-factor capacity")
    add_pulse(ideal)
    add_delay(ideal)
    snr_group = ideal.add_mutually_exclusive_group()
    snr_group.add_argument("--snr-db", type=float, help="SNR in dB (default: linear 3)")
    snr_group.add_argument("--snr-linear", type=float, help="SNR as a linear ratio")
    ideal.set_defaults(handler=cmd_capacity_ideal)

    binary = models.add_parser("binary", parents=[common], help="one bit per symbol")
    add_pulse(binary)
    add_delay(binary)
    binary.set_defaults(handler=cmd_capacity_binary)

    digital = models.add_parser("digital", parents=[common], help="mostly digital radio")
    digital.add_argument(
        "--fs", type=_quantity(FREQUENCY), required=True, metavar="QTY",
        help="converter sampling frequency, e.g. 2GSPS",
    )
    digital.add_argument(
        "--nsampling", type=float, default=4.0, metavar="N",
        help="sampling factor >= 2 (default 4)",
    )
    add_delay(digital)
    add_mary(digital)
    digital.set_defaults(handler=cmd_capacity_digital)

    mixed = models.add_parser("mixed", parents=[common], help="mixed analog/digital radio")
    mixed.add_argument(
        "--fcircuit", type=_quantity(FREQUENCY), required=True, metavar="QTY",
        help="minimum analog operating frequency, e.g. 10.87GHz",
    )
    add_delay(mixed)
    add_mary(mixed)
    mixed.set_defaults(handler=cmd_capacity_mixed)

    # --- sweep ------------------------------------------------------------
    sweep = commands.add_parser("sweep", parents=[common], help="sweep a frequency axis")
    sweep.add_argument("--mode", choices=tuple(_CLI_MODES), required=True)
    sweep.add_argument("--param", choices=tuple(_CLI_PARAMS), required=True)
    sweep.add_argument("--from", dest="start", type=_quantity(FREQUENCY), required=True, metavar="QTY")
    sweep.add_argument("--to", dest="stop", type=_quantity(FREQUENCY), required=True, metavar="QTY")
    sweep.add_argument("--points", type=int, required=True)
    spacing = sweep.add_mutually_exclusive_group()
    spacing.add_argument("--log", dest="spacing", action="store_const",
                         const=explorer.LOGARITHMIC, default=explorer.LOGARITHMIC)
    spacing.add_argument("--linear", dest="spacing", action="store_const", const=explorer.LINEAR)
    sweep.add_argument(
        "--delay-spreads", type=_quantity_list(TIME), required=True, metavar="QTY[,QTY...]",
        help="comma-separated delay spreads, e.g. 9ns,17ns,89ns",
    )
    sweep.add_argument(
        "--nsampling", type=_float_list, default=(), metavar="N[,N...]",
        help="sampling factors for digital mode, e.g. 2,4",
    )
    sweep.add_argument(
        "--outputs", type=_outputs_list, default=("capacity",),
        metavar="LIST", help="subset of capacity,derivative,percent",
    )
    add_mary(sweep)
    sweep.add_argument("--snr-db", type=float, help="SNR for ideal mode (default: linear 3)")
    sweep.set_defaults(handler=cmd_sweep)

    # --- table ------------------------------------------------------------
    table = commands.add_parser("table", parents=[common], help="reproduce a reference table")
    table.add_argument("which", choices=("iv", "vii"))
    table.add_argument(
        "--check", action="store_true",
        help="compare against the embedded golden fixture; nonzero exit on mismatch",
    )
    table.set_defaults(handler=cmd_table)

    # --- datasets ---------------------------------------------------------
    datasets_cmd = commands.add_parser("datasets", help="browse the embedded surveys")
    actions = datasets_cmd.add_subparsers(dest="action", required=True)
    listing = actions.add_parser("list", parents=[common])
    listing.add_argument("table", choices=tuple(_CLI_TABLES))
    listing.add_argument("--where", metavar="PRED", help='e.g. "sampling_frequency>=1GSPS"')
    listing.add_argument("--min", dest="min_by", metavar="FIELD", help="select the minimum row")
    listing.add_argument("--max", dest="max_by", metavar="FIELD", help="select the maximum row")
    listing.set_defaults(handler=cmd_datasets_list)

    # --- validate-isi -----------------------------------------------------
    validate = commands.add_parser(
        "validate-isi", parents=[common],
        help="measure energy spill past the T_p + k*d_RMS symbol spacing",
    )
    add_delay(validate)
    validate.add_argument("--pulse-duration", type=_quantity(TIME), required=True, metavar="QTY")
    validate.add_argument(
        "--guard-multiples", type=_float_list, default=(1.0, 2.0, 3.0, 4.0, 5.0),
        metavar="K[,K...]",
    )
    validate.add_argument("--trials", type=int, help="faded channels averaged (default 200)")
    validate.add_argument("--seed", type=int, help="seed of the fading draws (default 0)")
    validate.add_argument(
        "--deterministic", action="store_true",
        help="fading-free profile, single realization, in closed form",
    )
    validate.add_argument("--tap-spacing", type=_quantity(TIME), metavar="QTY",
                          help="grid step (default: d_RMS / 40)")
    validate.add_argument("--num-taps", type=int,
                          help="grid length (default: 600, or ceil(15 d_RMS / tap spacing))")
    validate.set_defaults(handler=cmd_validate_isi)

    return parser


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------

def _full_precision_json(rows, stream) -> None:
    json.dump(rows, stream, indent=2)
    stream.write("\n")


def _emit(args, rows, *, write_csv=emit.emit_csv, write_json=_full_precision_json,
          write_human=emit.emit_human) -> int:
    """Write ``rows`` in ``--format`` to ``--output``, or to stdout.

    JSON keeps every float at full precision unless the caller passes
    ``emit.emit_json``, which rounds to 10 significant digits.
    """
    write = {"csv": write_csv, "json": write_json, "human": write_human}[args.format]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            write(rows, stream)
    else:
        write(rows, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, inside main's handlers
    return EXIT_OK


def _capacity_csv(payload, stream) -> None:
    emit.emit_csv([{**payload, "notes": "; ".join(payload["notes"])}], stream)


def _capacity_human(payload, stream) -> None:
    echo = dict(payload)  # what is left after the pops: the inputs echo
    del echo["rate_bit_s"]
    rate, asym, notes = (echo.pop(k) for k in ("rate_mbit_s", "limiting_asymptote_bit_s", "notes"))
    asym_text = "unbounded" if asym == "unbounded" else f"{asym / 1e6:.10g} Mbit/s"
    stream.write(f"channel capacity : {rate:.10g} Mbit/s\n")
    stream.write(f"asymptote        : {asym_text}\n")
    for key, value in echo.items():
        stream.write(f"  {key} = {emit.human_cell(value)}\n")
    for note in notes:
        stream.write(f"note: {note}\n")


def _emit_result(result: cap.CapacityResult, args) -> int:
    return _emit(args, result.to_dict(), write_csv=_capacity_csv, write_human=_capacity_human)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _pulse_from(args) -> cap.PulseSpec:
    if args.pulse_duration is not None:
        return cap.PulseSpec.from_duration(args.pulse_duration)
    return cap.PulseSpec.from_bandwidth(args.bandwidth)


def _scheme_from(args) -> cap.ModulationScheme:
    return cap.ModulationScheme(args.mary, args.mary_convention)


def cmd_capacity_ideal(args) -> int:
    if args.snr_linear is not None:
        snr = cap.SnrValue(args.snr_linear)
    elif args.snr_db is not None:
        snr = cap.SnrValue.from_db(args.snr_db)
    else:
        snr = cap.SnrValue(cap.BINARY_SNR_LINEAR)
    result = cap.ideal_capacity(_pulse_from(args), cap.DelaySpread(args.delay_spread), snr)
    return _emit_result(result, args)


def cmd_capacity_binary(args) -> int:
    result = cap.binary_capacity(_pulse_from(args), cap.DelaySpread(args.delay_spread))
    return _emit_result(result, args)


def cmd_capacity_digital(args) -> int:
    result = cap.mostly_digital_capacity(
        cap.SamplingConfig(args.fs, args.nsampling),
        cap.DelaySpread(args.delay_spread),
        _scheme_from(args),
    )
    return _emit_result(result, args)


def cmd_capacity_mixed(args) -> int:
    result = cap.mixed_capacity(
        cap.CircuitFrequency(args.fcircuit),
        cap.DelaySpread(args.delay_spread),
        _scheme_from(args),
    )
    return _emit_result(result, args)


def cmd_sweep(args) -> int:
    spec = explorer.SweepSpec(
        mode=_CLI_MODES[args.mode],
        swept_parameter=_CLI_PARAMS[args.param],
        start_hz=args.start,
        stop_hz=args.stop,
        points=args.points,
        spacing=args.spacing,
        delay_spreads=tuple(cap.DelaySpread(d) for d in args.delay_spreads),
        sampling_factors=args.nsampling,
        modulation=_scheme_from(args),
        snr=cap.SnrValue.from_db(args.snr_db) if args.snr_db is not None else None,
        outputs=args.outputs,
    )
    return _emit(args, explorer.run_sweep(spec), write_json=emit.emit_json)


def cmd_table(args) -> int:
    rows = explorer.reproduce_table_iv() if args.which == "iv" else explorer.reproduce_table_vii()
    _emit(args, rows, write_json=emit.emit_json)
    if not args.check:
        return EXIT_OK
    problems = explorer.check_table_iv() if args.which == "iv" else explorer.check_table_vii()
    if problems:
        for problem in problems:
            print(f"MISMATCH: {problem}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"table {args.which}: all values match the printed fixture", file=sys.stderr)
    return EXIT_OK


def cmd_datasets_list(args) -> int:
    entries = datasets.load_builtin(_CLI_TABLES[args.table])
    entries = datasets.query(entries, where=args.where, min_by=args.min_by, max_by=args.max_by)

    def write_csv(_, stream):
        # exact schema serialization, so the output re-ingests losslessly
        stream.write(datasets.to_csv(entries) if entries else "")

    return _emit(args, [dataclasses.asdict(entry) for entry in entries], write_csv=write_csv)


def cmd_validate_isi(args) -> int:
    from . import isi  # only this command uses the oracle

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
    return _emit(args, [report.to_dict() for report in reports])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader of stdout is gone: send the exit-time flush nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
