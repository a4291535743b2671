"""Matrix file formats: the DMM1 binary container and headerless CSV.

DMM1 layout: 8-byte magic ``DMMATRX1``, two little-endian u64 counts
(rows, columns), one u8 scalar kind (0 = real float64, 1 = complex128
stored as re/im float64 pairs), then the payload in column-major IEEE-754
little-endian order.  Binary round trips are bit exact.

CSV holds one row of the matrix per line, comma separated, no header.
CSV is a real-valued convenience format; complex data must use DMM1.
"""

import os

import numpy as np

from .errors import DataError, ShapeError
from .snapshots import _as_double, _check_matrix

__all__ = ["load_matrix", "store_matrix"]

MAGIC = b"DMMATRX1"
# Scalar kind byte -> payload dtype, for the reader and the writer.
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<c16")}
_HEADER_LEN = len(MAGIC) + 8 + 8 + 1


def _format_for(path):
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".csv":
        return "csv"
    if ext in (".dmm", ".dmm1", ".bin"):
        return "dmm"
    raise DataError("cannot infer matrix format from %r; use .csv, .dmm, .dmm1 or .bin" % (str(path),))


def _header(n, m, kind):
    return MAGIC + np.uint64(n).tobytes() + np.uint64(m).tobytes() + bytes([kind])


def _store_row_blocks(blocks, n, columns, path, dtype):
    """Write the chosen ``columns`` of an n-row matrix of payload ``dtype``, given by row blocks, as DMM1.

    ``blocks`` yields (start, rows) pairs that cover rows 0..n-1.  The
    piece of column ``columns[c]`` in a block is written at payload offset
    (c n + start) itemsize, so only one block is held at a time, and a
    block of all n rows writes whole columns in payload order, uncopied
    where the block is column-major.  This is the only DMM1 writer.
    """
    kind = int(np.dtype(dtype).kind == "c")
    dtype = _DTYPES[kind]
    with open(path, "wb") as fh:
        fh.write(_header(n, len(columns), kind))
        for start, rows in blocks:
            for c, j in enumerate(columns):
                fh.seek(_HEADER_LEN + (c * n + start) * dtype.itemsize)
                fh.write(np.ascontiguousarray(rows[:, j], dtype=dtype))
            del rows  # not held while the next block is formed


def store_matrix(a, path):
    """Write a 2-D matrix to ``path``: CSV for ``.csv``, DMM1 for ``.dmm``, ``.dmm1`` or ``.bin``.

    A dtype the readers reject is a :class:`DataError`, and no file is written.
    """
    a = _as_double(a, "store_matrix input")
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ShapeError("store_matrix needs a 2-D array, got ndim=%d" % a.ndim)
    if _format_for(path) == "csv":
        if np.iscomplexobj(a):
            raise DataError("complex data requires the DMM1 binary format, not CSV")
        with open(path, "w") as fh:
            # Rows joined by newlines, then one more: a 0-row matrix is one empty line.
            for i, row in enumerate(a):
                fh.write(("\n" if i else "") + ",".join(repr(float(v)) for v in row))
            fh.write("\n")
        return
    _store_row_blocks([(0, a)], a.shape[0], range(a.shape[1]), path, a.dtype)


def _load_csv(path):
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ShapeError(
                    "%s: ragged CSV row at line %d (%d fields, expected %d)"
                    % (path, lineno, len(fields), width)
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise DataError("%s: unparseable entry at line %d: %s" % (path, lineno, exc)) from exc
    if not rows:
        raise DataError("%s: empty CSV matrix" % (path,))
    return np.array(rows, dtype=np.float64)


def _load_dmm(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_LEN)
        if len(header) < _HEADER_LEN:
            raise DataError("%s: truncated DMM1 header" % (path,))
        if header[: len(MAGIC)] != MAGIC:
            raise DataError("%s: bad magic, not a DMM1 file" % (path,))
        n = int(np.frombuffer(header, dtype="<u8", count=1, offset=len(MAGIC))[0])
        m = int(np.frombuffer(header, dtype="<u8", count=1, offset=len(MAGIC) + 8)[0])
        kind = header[len(MAGIC) + 16]
        if kind not in _DTYPES:
            raise DataError("%s: unknown scalar kind %d" % (path, kind))
        dtype = _DTYPES[kind]
        expected = n * m * dtype.itemsize
        size = os.fstat(fh.fileno()).st_size - _HEADER_LEN
        if size < expected:
            raise DataError("%s: truncated payload (%d bytes, expected %d)" % (path, size, expected))
        if size > expected:
            raise DataError("%s: trailing bytes after payload (%d extra)" % (path, size - expected))
        if expected == 0:
            raise DataError("%s: empty matrix" % (path,))
        # The payload is column-major, so it lands in place in a Fortran array.
        flat = np.empty(n * m, dtype=dtype)
        got = fh.readinto(memoryview(flat).cast("B"))
    if got != expected:
        raise DataError("%s: truncated payload (%d bytes, expected %d)" % (path, got, expected))
    return flat.reshape((n, m), order="F")


def load_matrix(path):
    """Read a matrix written by :func:`store_matrix`, in the format its extension names.

    The one input gate, :func:`dmdkit.snapshots._check_matrix`, rejects
    non-finite entries, so downstream factorizations never see NaN or infinity.
    """
    a = _load_csv(path) if _format_for(path) == "csv" else _load_dmm(path)
    return _check_matrix(a, str(path))
