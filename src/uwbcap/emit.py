"""Row emission: the one 10-digit CSV, JSON and human-table formatter.

Every machine output of uwbcap (sweeps, the reference tables, survey
entries, capacity results) is written here, at 10 significant digits, the
precision the reference tables are printed at, by one column formatter
shared by CSV, JSON and the human-readable table.  It takes a list of
dataclass or dict rows, or a columnar table: an object with ``columns``
(name -> 1-D float array) and ``levels`` (name -> (distinct values, row
codes)), as ``explorer.SweepTable`` is.  It formats the columns kept as
levels (a sweep's grid, d_RMS and n) once per level; other float columns
go chunk by chunk, as floats into a ``%.10g`` field wherever that text is
the cell (always in CSV, in JSON where ``_plain`` says so), else through a
formatter that derives JSON tokens from the 10-digit text.  Each chunk of
rows is one ``%`` template fill.  Only the standard library is imported
here; numpy is imported where arrays are formatted.
"""

import dataclasses
import json
import math
import sys
from itertools import chain

#: Rows formatted and written per stream write: bounds the text held in
#: memory whatever the sweep size.
_CHUNK_ROWS = 4096


def rows_to_dicts(rows) -> list:
    """Dataclass rows to plain dicts in field order, None fields left out;
    dict rows pass through."""
    return [
        row if isinstance(row, dict)
        else {k: v for k, v in dataclasses.asdict(row).items() if v is not None}
        for row in rows
    ]


def _columns(rows):
    """Column name -> values, and column name -> (levels, codes) for the
    columns a columnar table keeps as levels; the first row's fields name
    a row list's columns."""
    if hasattr(rows, "levels"):
        return rows.columns, rows.levels
    dicts = rows_to_dicts(rows)
    names = list(dicts[0]) if dicts else []
    return {name: [row.get(name) for row in dicts] for name in names}, {}


#: The float rule of every format: 10 significant digits.
_TEN_DIGIT_FIELD = "%.10g"
_TEN_DIGITS = _TEN_DIGIT_FIELD.__mod__


def human_cell(value) -> str:
    """One value as table text: floats at 10 significant digits, None
    blank, anything else ``str``."""
    if isinstance(value, float):
        return _TEN_DIGITS(value)
    return "" if value is None else str(value)


def _human_floats(values) -> list:
    # one template fill and a split beat formatting value by value
    return ((_TEN_DIGIT_FIELD + "\n") * len(values) % tuple(values.tolist())).splitlines()


def _csv_cell(value) -> str:
    text = human_cell(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_cell(value) -> str:
    # json writes finite floats as float.__repr__; a float within 10 digits
    # of the largest keeps full precision, as rounding it up overflows to inf
    if isinstance(value, float) and math.isfinite(value):
        rounded = float(_TEN_DIGITS(value))
        return repr(rounded if math.isfinite(rounded) else value)
    return json.dumps(value)


def _json_floats(values) -> list:
    """``repr`` of each value's 10-digit rounding, read off its ``%.10g``
    text: ``.0`` after an integer, exponents 10-15 spelled out as ``repr``
    spells them.  An array holding a NaN, an inf, a subnormal or a
    magnitude from 1e308 takes ``_json_cell`` instead."""
    import numpy as np

    magnitude = np.abs(values)
    if not ((magnitude < 1e308) & ((magnitude >= sys.float_info.min) | (values == 0))).all():
        return list(map(_json_cell, values.tolist()))
    return [
        text + ".0" if "." not in text and "e" not in text
        else repr(float(text)) if "e+1" in text and text[-4] == "e" and text[-1] < "6"
        else text
        for text in _human_floats(values)
    ]


def _plain(values) -> bool:
    """Whether each JSON token of a float array is its ``%.10g`` text: every
    value normal, under 999999999.5 in magnitude and farther than 1e-9 of it
    from a nonzero integer (whose text JSON ends in ``.0``).  It may call a
    plain array non-plain, never the reverse."""
    import numpy as np

    magnitude = np.abs(values)
    if not ((magnitude >= sys.float_info.min) & (magnitude < 999999999.5)).all():
        return False  # before the subtraction below, which warns on inf
    return bool((np.abs(values - np.rint(values)) > 1e-9 * magnitude).all())


def _column(values, levels, cell, floats, plain=None):
    """One column's ``%`` field and its cells, ``_CHUNK_ROWS`` rows at a
    time: a list (row values) cell by cell; a column kept as ``levels``
    (distinct values, row codes) through ``floats`` once per level, the
    text gathered by code; any other float array chunk slice by chunk
    slice, through ``floats``, or, where ``plain(values)`` says the cells
    are their ``%.10g`` text, as floats into a ``%.10g`` field."""
    starts = range(0, len(values), _CHUNK_ROWS)
    if isinstance(values, list):
        return "%s", ([cell(v) for v in values[i : i + _CHUNK_ROWS]] for i in starts)
    if levels:
        import numpy as np

        distinct, codes = levels
        text = np.array(floats(distinct), dtype=object)
        return "%s", (text[codes[i : i + _CHUNK_ROWS]].tolist() for i in starts)
    if plain and plain(values):
        return _TEN_DIGIT_FIELD, (values[i : i + _CHUNK_ROWS].tolist() for i in starts)
    return "%s", (floats(values[i : i + _CHUNK_ROWS]) for i in starts)


def _write_rows(stream, row, separator, columns) -> None:
    """Write the ``_column`` chunks of ``columns`` as rows of the ``%``
    template ``row``, ``separator`` between rows: one fill per chunk."""
    for number, cells in enumerate(zip(*columns)):
        if number:
            stream.write(separator)
        template = separator.join([row] * len(cells[0]))
        stream.write(template % tuple(chain.from_iterable(zip(*cells))))


def emit_csv(rows, stream) -> None:
    """Write a ``SweepTable`` or a list of rows as CSV: header plus one line
    per row, floats at 10 significant digits, SI units annotated in the
    column names.  An empty row list writes nothing."""
    columns, levels = _columns(rows)
    if not columns:
        return
    stream.write(",".join(_csv_cell(name) for name in columns) + "\n")
    fields, chunks = zip(*(
        _column(values, levels.get(name), _csv_cell, _human_floats, lambda values: True)
        for name, values in columns.items()
    ))
    _write_rows(stream, ",".join(fields) + "\n", "", chunks)


def emit_json(rows, stream) -> None:
    """Write a ``SweepTable`` or a list of rows as a JSON array of objects
    with unit-annotated names, floats rounded to 10 significant digits
    (those that would round past the largest float at full precision),
    laid out as ``json.dump(..., indent=2)`` lays it out.  A float array
    whose tokens are its ``%.10g`` text (``_plain``) fills a ``%.10g``
    field, as in CSV; the tokens of any other, and of levels, are read off
    their 10-digit text (``_json_floats``)."""
    columns, levels = _columns(rows)
    if not columns:
        stream.write("[]\n")
        return
    fields, chunks = zip(*(
        _column(values, levels.get(name), _json_cell, _json_floats, _plain)
        for name, values in columns.items()
    ))
    row = ",\n".join(
        f"    {json.dumps(name).replace('%', '%%')}: {field}"
        for name, field in zip(columns, fields)
    )
    stream.write("[\n")
    _write_rows(stream, "  {\n" + row + "\n  }", ",\n", chunks)
    stream.write("\n]\n")


def emit_human(rows, stream) -> None:
    """Write a ``SweepTable`` or a list of rows as an aligned text table:
    ``human_cell`` text, each column padded to its widest cell (header
    included), two spaces between columns, trailing blanks stripped.  An
    empty row list writes nothing.  The cells are formatted twice, chunk
    by chunk: once for the widths, once to write them."""
    columns, levels = _columns(rows)
    if not columns:
        return

    def chunks():
        return zip(*(
            _column(values, levels.get(name), human_cell, _human_floats)[1]
            for name, values in columns.items()
        ))

    widths = list(map(len, columns))
    for cells in chunks():
        widths = [max(width, *map(len, column)) for width, column in zip(widths, cells)]
    template = "  ".join(f"%-{width}s" for width in widths)

    def line(row) -> str:
        return (template % row).rstrip() + "\n"

    stream.write(line(tuple(columns)))
    for cells in chunks():
        stream.writelines(map(line, zip(*cells)))
