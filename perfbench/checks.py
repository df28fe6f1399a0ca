"""Output checks against references computed here, independently of uwbcap.

Each check takes an operation dict from :mod:`workloads`, the program's
exit code and its output, and returns a list of problems; an empty list
means the output is correct.  Nothing here imports the package under test:
every expected number comes from the closed forms of the model.
"""

import csv
import io
import json
import math

import numpy as np

from workloads import GUARD_MULTIPLES

# sweep output is written at 10 significant digits
SWEEP_RTOL = 1e-9
# capacity JSON carries full float precision
CAPACITY_RTOL = 1e-12
# realised RMS delay spread against the target
RMS_RTOL = 0.01
# mean spill against the continuous-PDP reference
SPILL_RTOL = 0.05


def check(op: dict, rc: int, out: bytes, err: bytes = b"") -> list:
    """Problems with one operation's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}: {err.decode(errors='replace').strip()[-300:]}"]
    try:
        text = out.decode("utf-8")
        if op["kind"] == "sweep":
            return check_sweep(op, text)
        if op["kind"] == "isi":
            return check_isi(op, text)
        return check_cli(op, text, err.decode("utf-8", errors="replace"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _worst_rel(actual, expected) -> float:
    """Largest relative error; NaN when any value is NaN or unmatched."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(actual / expected - 1.0)
    return float(np.max(rel)) if rel.size else 0.0


def _close(actual, expected, rtol: float) -> bool:
    return _worst_rel(actual, expected) <= rtol  # False for NaN


def sweep_reference(op: dict) -> dict:
    """Expected sweep columns, in the program's row order (d, n, frequency)."""
    points, ds, ns = op["points"], op["ds"], op["ns"]
    grid = op["start"] * (op["stop"] / op["start"]) ** (np.arange(points) / (points - 1))
    f = np.tile(grid, len(ds) * len(ns))
    d = np.repeat(np.asarray(ds, dtype=float), len(ns) * points)
    n = np.tile(np.repeat(np.asarray(ns, dtype=float), points), len(ds))
    overhead = n / f
    factor = 1.0 if op["mode"] == "binary" else float(op["order"] - 1)
    columns = {"frequency_hz": f, "rms_delay_spread_s": d}
    if op["sampling_column"]:
        columns["sampling_factor"] = n
    columns["capacity_bit_s"] = factor / (overhead + d)
    columns["derivative_bit_s_per_hz"] = (overhead / f) / (overhead + d) ** 2
    columns["percent_of_max"] = d / (overhead + d)
    return columns


def check_sweep(op: dict, text: str) -> list:
    expected = sweep_reference(op)
    names = list(expected)
    if op["format"] == "csv":
        lines = text.splitlines()
        header = lines[0].split(",") if lines else []
        if header != names:
            return [f"csv header {header} != {names}"]
        cells = [line.split(",") for line in lines[1:]]
        if any(len(row) != len(names) for row in cells):
            return ["csv row with the wrong number of cells"]
        table = np.array(cells, dtype=float).reshape(len(cells), len(names))
    else:
        rows = json.loads(text)
        if any(list(row) != names for row in rows):
            return [f"json row keys differ from {names}"]
        table = np.array([[row[k] for k in names] for row in rows], dtype=float)
        table = table.reshape(len(rows), len(names))
    rows_expected = op["points"] * len(op["ds"]) * len(op["ns"])
    if table.shape[0] != rows_expected:
        return [f"{table.shape[0]} rows, expected {rows_expected}"]
    problems = []
    for j, name in enumerate(names):
        worst = _worst_rel(table[:, j], expected[name])
        if not worst <= SWEEP_RTOL:
            problems.append(f"{name}: worst relative error {worst:.3g} > {SWEEP_RTOL:g}")
    return problems


def spill_reference(d: float, tp: float, k: float) -> float:
    """Spill past T_p + k d for a continuous exponential PDP of decay d."""
    return (d / tp) * (1.0 - math.exp(-tp / d)) * math.exp(-k)


def check_isi(op: dict, text: str) -> list:
    reports = json.loads(text)
    d, tp = op["d"], op["tp"]
    ks = [r["guard_multiple"] for r in reports]
    if ks != list(GUARD_MULTIPLES):
        return [f"guard multiples {ks}"]
    problems = []
    previous = math.inf
    for r in reports:
        k = r["guard_multiple"]
        spill = r["spill_fraction"]
        if r["trials"] != op["trials"]:
            problems.append(f"k={k:g}: {r['trials']} trials, expected {op['trials']}")
        if not _close(r["target_d_rms_s"], d, CAPACITY_RTOL):
            problems.append(f"k={k:g}: target d_RMS echoed as {r['target_d_rms_s']!r}")
        if not _close(r["symbol_period_s"], tp + k * d, CAPACITY_RTOL):
            problems.append(f"k={k:g}: symbol period {r['symbol_period_s']!r}")
        if not 0.0 <= r["spill_min"] <= spill <= r["spill_max"] <= 1.0:
            problems.append(f"k={k:g}: spill outside [0, 1] or min/mean/max out of order")
        if not spill <= previous:
            problems.append(f"k={k:g}: spill {spill!r} increases with k")
        previous = spill
        if not abs(r["realized_d_rms_s"] / d - 1.0) <= RMS_RTOL:
            problems.append(f"k={k:g}: realised d_RMS {r['realized_d_rms_s']!r} vs {d!r}")
        reference = spill_reference(d, tp, k)
        if not abs(spill / reference - 1.0) <= SPILL_RTOL:
            problems.append(f"k={k:g}: spill {spill!r} vs reference {reference!r}")
    return problems


def _row_count(fmt: str, text: str) -> int:
    if fmt == "csv":
        return max(len(list(csv.reader(io.StringIO(text)))) - 1, 0)
    return len(json.loads(text))


def check_cli(op: dict, text: str, err: str) -> list:
    kind = op["cli_kind"]
    if kind == "validate-isi":
        return check_isi(op, text)
    if kind == "sweep":
        return check_sweep(op, text)
    if kind.startswith("capacity"):
        payload = json.loads(text)
        rate = op["factor"] / (op["overhead"] + op["d"])
        asymptote = op["factor"] / op["d"]
        problems = []
        if not _close(payload["rate_bit_s"], rate, CAPACITY_RTOL):
            problems.append(f"rate {payload['rate_bit_s']!r}, closed form {rate!r}")
        if not _close(payload["limiting_asymptote_bit_s"], asymptote, CAPACITY_RTOL):
            problems.append(f"asymptote {payload['limiting_asymptote_bit_s']!r} vs {asymptote!r}")
        return problems
    rows = _row_count(op["format"], text)
    problems = []
    if op["rows"] is not None and rows != op["rows"]:
        problems.append(f"{rows} rows, expected {op['rows']}")
    if rows < 1:
        problems.append("no rows")
    if kind.startswith("table") and "all values match" not in err:
        problems.append(f"table check did not report a match: {err.strip()[-300:]}")
    return problems
