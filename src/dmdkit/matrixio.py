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
from .snapshots import _as_double

__all__ = ["load_matrix", "store_matrix"]

MAGIC = b"DMMATRX1"
_KIND_REAL64 = 0
_KIND_COMPLEX128 = 1
_HEADER_LEN = len(MAGIC) + 8 + 8 + 1
# Bytes per column block when a matrix that is not column-major is stored.
_STORE_BLOCK_BYTES = 1 << 22


def _format_for(path):
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".csv":
        return "csv"
    if ext in (".dmm", ".dmm1", ".bin"):
        return "dmm"
    raise DataError("cannot infer matrix format from %r; use .csv, .dmm, .dmm1 or .bin" % (str(path),))


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
        lines = [",".join(repr(float(v)) for v in row) for row in a]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    if np.iscomplexobj(a):
        kind, dtype = _KIND_COMPLEX128, np.dtype("<c16")
    else:
        kind, dtype = _KIND_REAL64, np.dtype("<f8")
    a = a.astype(dtype, copy=False)
    n, m = a.shape
    header = MAGIC + np.uint64(n).tobytes() + np.uint64(m).tobytes() + bytes([kind])
    with open(path, "wb") as fh:
        fh.write(header)
        if a.flags.f_contiguous:
            # The transpose of a column-major array is a C-contiguous view
            # whose bytes are the payload: written without a copy.
            fh.write(a.T)
            return
        # Any other layout goes out in column blocks of bounded size.
        step = max(1, _STORE_BLOCK_BYTES // max(1, n * dtype.itemsize))
        for j in range(0, m, step):
            fh.write(np.asfortranarray(a[:, j : j + step]).T)


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
        if kind == _KIND_REAL64:
            dtype = np.dtype("<f8")
        elif kind == _KIND_COMPLEX128:
            dtype = np.dtype("<c16")
        else:
            raise DataError("%s: unknown scalar kind %d" % (path, kind))
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

    Non-finite entries are rejected so downstream factorizations never see
    NaN or infinity.
    """
    a = _load_csv(path) if _format_for(path) == "csv" else _load_dmm(path)
    if not np.all(np.isfinite(a)):
        raise DataError("%s: non-finite entries in matrix" % (path,))
    return a
