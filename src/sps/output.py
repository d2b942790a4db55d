"""Deterministic output files: CSV tables and ``key=value`` sidecars.

Every cell and value is formatted by the rule of its dtype: floats at full
round-trip precision (``%.17g``), integers with ``%d``, bools as
``true``/``false`` and texts as they are.  Files are written with LF line
endings, so the same values give the same bytes.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

#: Rows that :func:`write_csv` formats with one ``%`` operation: enough to
#: spread the per-operation cost, which is flat per cell from 256 rows up,
#: few enough that a chunk's cells and text stay near a megabyte or below.
CSV_CHUNK_ROWS = 1024


def _column(values):
    """``(conversion, array)`` for a CSV column: the ``%`` rule of its dtype.

    Floats are written at full round-trip precision (``%.17g``), integers
    with ``%d``, bools as ``true``/``false`` and anything else with ``%s``.
    Strings not already in an array stay Python objects, since a numpy
    string drops trailing NULs; a list that numpy would turn into strings
    must hold only ``str``, or it is a ValueError.
    """
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind in "SU" and not isinstance(values, np.ndarray):
        array = np.asarray(values, dtype=object)
        if not all(isinstance(item, str) for item in array.flat):
            raise ValueError(f"a text column holds non-str values: {values!r:.80}")
    if kind == "b":
        return "%s", np.where(array, "true", "false")
    if kind == "f":
        return "%.17g", array
    if kind in "iu":
        return "%d", array
    return "%s", array


def format_value(value):
    """Serialize one value by the rule :func:`write_csv` applies to its column."""
    conversion, array = _column(value)
    return conversion % (array.tolist(),)


def _axis_texts(axis):
    """The CSV text of each value of float ``axis``, made by one ``%``."""
    conversion, array = _column(axis)
    return np.array((",".join([conversion] * array.size)
                     % tuple(array.tolist())).split(","), dtype=object)


def _open_output(path):
    """``path`` opened for writing text with LF line endings, after making
    its directory: a run's output directory is made by its first file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _checked_blocks(path, header, blocks):
    """Each of ``blocks`` as its ``(conversion, array)`` columns, after the
    checks :func:`write_csv` makes of it."""
    for columns in blocks:
        columns = [_column(values) for values in columns]
        if len(columns) != len(header):
            raise ValueError(f"{len(header)} CSV header names for "
                             f"{len(columns)} columns")
        for name, (_, array) in zip(header, columns):
            if array.dtype.kind == "f" and np.isnan(array).any():
                raise ValueError(f"{os.path.basename(path)}: column {name!r} "
                                 f"holds NaN")
        shapes = [array.shape for _, array in columns]
        if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
            raise ValueError(f"CSV columns need one axis and equal length, "
                             f"got shapes {shapes}")
        yield columns


def _write_rows(handle, columns):
    """Write checked ``columns`` as rows, ``CSV_CHUNK_ROWS`` by one ``%``."""
    n_rows = columns[0][1].size if columns else 0
    width = len(columns)
    row = ",".join(conversion for conversion, _ in columns) + "\n"
    for start in range(0, n_rows, CSV_CHUNK_ROWS):
        chunk = min(CSV_CHUNK_ROWS, n_rows - start)
        cells = [None] * (chunk * width)
        for j, (_, array) in enumerate(columns):
            cells[j::width] = array[start:start + chunk].tolist()
        handle.write(row * chunk % tuple(cells))


def write_csv(path, header, blocks):
    """Write the row ``blocks`` as CSV under ``header``.

    A block is a list of equal-length columns (arrays or lists), one per
    header name; a whole table is the one-block case ``[columns]``.  A
    column of a block holds one kind of value, and every cell of it is
    formatted by the rule of its dtype (see :func:`format_value`).  A column
    of texts is written as it is, so a caller whose column repeats a few
    values can format each once and pass the texts.  Each block is checked
    before it is written: columns of unequal length are a ValueError, and so
    is a float column holding NaN, naming the file and the first such
    column; inf, the perfect regime's sentinel, is written.  The first
    block is taken from ``blocks`` and checked before
    the file is opened, so a failure there leaves no file (nor directory);
    a failure in a later block, raised by its check or by ``blocks`` itself,
    removes the file, so no partial CSV is left.
    """
    blocks = _checked_blocks(path, header, blocks)
    first = next(blocks, [])
    handle = _open_output(path)
    try:
        with handle:
            handle.write(",".join(header) + "\n")
            for columns in itertools.chain([first], blocks):
                _write_rows(handle, columns)
    except BaseException:
        os.remove(path)
        raise


def write_meta(path, entries):
    with _open_output(path) as handle:
        for key, value in entries.items():
            handle.write(f"{key}={format_value(value)}\n")
