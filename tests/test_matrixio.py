"""Round trips and corruption handling of the DMM1 and CSV formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from dmdkit.errors import DataError, ShapeError
from dmdkit import matrixio
from dmdkit.matrixio import MAGIC, load_matrix, store_matrix
from dmdkit.ritz import _block_rows, _row_ranges


def test_dmm_real_round_trip_is_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.Philox(5))
    a = rng.standard_normal((7, 3))
    path = tmp_path / "a.dmm"
    store_matrix(a, path)
    b = load_matrix(path)
    assert b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


def test_dmm_complex_round_trip_is_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.Philox(6))
    a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    path = tmp_path / "a.dmm"
    store_matrix(a, path)
    b = load_matrix(path)
    assert b.dtype == np.complex128
    assert a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dmm_round_trip_any_shape(tmp_path_factory, n, m, seed):
    a = np.random.Generator(np.random.Philox(seed)).standard_normal((n, m))
    path = tmp_path_factory.mktemp("rt") / "m.dmm"
    store_matrix(a, path)
    assert np.array_equal(load_matrix(path), a)


def test_csv_round_trip(tmp_path):
    a = np.array([[1.5, -2.0], [0.25, 1e-12]])
    path = tmp_path / "a.csv"
    store_matrix(a, path)
    assert np.array_equal(load_matrix(path), a)


def test_csv_rejects_complex(tmp_path):
    with pytest.raises(DataError):
        store_matrix(np.array([[1j]]), tmp_path / "a.csv")


def test_vector_is_stored_as_column(tmp_path):
    path = tmp_path / "v.dmm"
    store_matrix(np.array([1.0, 2.0, 3.0]), path)
    assert load_matrix(path).shape == (3, 1)


def test_format_inferred_from_extension(tmp_path):
    a = np.eye(2)
    for name in ("a.csv", "a.bin", "b.DMM1", "b.CSV"):
        store_matrix(a, tmp_path / name)
        assert np.array_equal(load_matrix(tmp_path / name), a)
    assert (tmp_path / "b.DMM1").read_bytes().startswith(MAGIC)
    assert (tmp_path / "b.CSV").read_text() == "1.0,0.0\n0.0,1.0\n"
    with pytest.raises(DataError, match=r"\.csv, \.dmm, \.dmm1 or \.bin"):
        store_matrix(a, tmp_path / "a.mystery")
    (tmp_path / "a.mystery").write_bytes((tmp_path / "a.bin").read_bytes())
    with pytest.raises(DataError, match=r"\.csv, \.dmm, \.dmm1 or \.bin"):
        load_matrix(tmp_path / "a.mystery")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "a.dmm"
    path.write_bytes(b"NOTMAGIC" + bytes(17))
    with pytest.raises(DataError, match="magic"):
        load_matrix(path)


def test_truncated_and_padded_payloads_rejected(tmp_path):
    path = tmp_path / "a.dmm"
    store_matrix(np.ones((2, 2)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_matrix(path)
    path.write_bytes(blob + b"\x00" * 4)
    with pytest.raises(DataError, match="trailing"):
        load_matrix(path)
    path.write_bytes(blob[:10])
    with pytest.raises(DataError, match="header"):
        load_matrix(path)


def test_unknown_scalar_kind_rejected(tmp_path):
    path = tmp_path / "a.dmm"
    header = MAGIC + np.uint64(1).tobytes() * 2 + bytes([7])
    path.write_bytes(header + bytes(8))
    with pytest.raises(DataError, match="kind"):
        load_matrix(path)


def test_load_rejects_non_finite_entries(tmp_path):
    # store accepts NaN (it is just bits); load is the validation gate
    path = tmp_path / "a.dmm"
    store_matrix(np.array([[1.0, np.nan]]), path)
    with pytest.raises(DataError, match="non-finite"):
        load_matrix(path)


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ShapeError, match="ragged"):
        load_matrix(path)


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("\n\n")
    with pytest.raises(DataError, match="empty"):
        load_matrix(path)


def test_store_rejects_3d():
    with pytest.raises(ShapeError):
        store_matrix(np.zeros((2, 2, 2)), "unused.dmm")


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)], ids=["0x3", "3x0", "0x0"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("order", ["C", "F"])
def test_store_of_an_empty_matrix_writes_the_header_alone(tmp_path, shape, dtype, order):
    # the readers reject the file as empty; the writer still writes it
    path = tmp_path / "e.dmm"
    store_matrix(np.zeros(shape, dtype=dtype, order=order), path)
    kind = 1 if dtype is np.complex128 else 0
    assert path.read_bytes() == MAGIC + np.uint64(shape[0]).tobytes() + np.uint64(shape[1]).tobytes() + bytes([kind])
    with pytest.raises(DataError, match="empty"):
        load_matrix(path)


def _dmm_bytes(a):
    """The DMM1 file of ``a``, built independently of store_matrix."""
    kind = 1 if np.iscomplexobj(a) else 0
    header = MAGIC + np.uint64(a.shape[0]).tobytes() + np.uint64(a.shape[1]).tobytes() + bytes([kind])
    return header + np.asfortranarray(a).tobytes(order="F")


def _layouts():
    rng = np.random.Generator(np.random.Philox(8))
    real = rng.standard_normal((37, 12))
    cplx = real + 1j * rng.standard_normal((37, 12))
    for kind, base in (("real", real), ("complex", cplx)):
        yield kind + "-C", np.ascontiguousarray(base)
        yield kind + "-F", np.asfortranarray(base)
        yield kind + "-sliced", base[::2, 1::3]
        yield kind + "-F-sliced", np.asfortranarray(base)[3:30, ::-2]
        yield kind + "-column", base[:, 4:5]
        yield kind + "-F-column", np.asfortranarray(base)[:, 4:5]
    wide = np.random.Generator(np.random.Philox(12)).standard_normal((4, 300))
    yield "wide-C", wide
    yield "wide-F", np.asfortranarray(wide)


_LAYOUTS = list(_layouts())


@pytest.mark.parametrize("name, a", _LAYOUTS, ids=[name for name, _ in _LAYOUTS])
def test_dmm_bytes_and_round_trip_for_every_layout(tmp_path, name, a):
    path = tmp_path / ("%s.dmm" % name)
    store_matrix(a, path)
    assert path.read_bytes() == _dmm_bytes(a)
    b = load_matrix(path)
    assert b.dtype == a.dtype and b.shape == a.shape
    assert b.flags.f_contiguous
    assert b.tobytes(order="F") == np.asfortranarray(a).tobytes(order="F")


def _blocks(a, rows):
    """``a`` as one block of all its rows, or by the row blocks of :func:`dmdkit.ritz._row_ranges`."""
    if rows is None:
        return [(0, a)]
    return ((start, a[start:stop]) for start, stop in _row_ranges(len(a), rows))


@pytest.mark.parametrize("rows", [None, 1, 5, "product"], ids=["whole", "rows-1", "rows-5", "rows-product"])
@pytest.mark.parametrize("chosen", [False, True], ids=["all", "chosen"])
@pytest.mark.parametrize("name, a", _LAYOUTS, ids=[name for name, _ in _LAYOUTS])
def test_the_one_writer_gives_the_bytes_of_the_stored_columns(tmp_path, name, a, chosen, rows):
    # The writer behind store_matrix and decompose --modes-out: any row blocks, any ascending columns
    columns = np.flatnonzero(np.arange(a.shape[1]) % 3 != 1) if chosen else np.arange(a.shape[1])
    rows = _block_rows(len(a)) if rows == "product" else rows
    matrixio._store_row_blocks(_blocks(a, rows), len(a), columns, tmp_path / "a.dmm", a.dtype)
    store_matrix(a[:, columns], tmp_path / "ref.dmm")
    got = (tmp_path / "a.dmm").read_bytes()
    assert got == (tmp_path / "ref.dmm").read_bytes() == _dmm_bytes(a[:, columns])
    b = load_matrix(tmp_path / "a.dmm")
    assert b.dtype == a.dtype and b.shape == (len(a), len(columns))
    assert b.tobytes(order="F") == np.asfortranarray(a[:, columns]).tobytes(order="F")


def test_oversized_header_is_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.dmm"
    path.write_bytes(MAGIC + np.uint64(2**40).tobytes() + np.uint64(1).tobytes() + bytes([0]) + bytes(10))

    def load():
        with pytest.raises(DataError, match="truncated payload"):
            load_matrix(path)

    assert traced_peak(load)[1] < 1 << 20


def test_empty_dmm_is_rejected(tmp_path):
    path = tmp_path / "empty.dmm"
    path.write_bytes(MAGIC + np.uint64(2**62).tobytes() + np.uint64(0).tobytes() + bytes([0]))
    with pytest.raises(DataError, match="empty"):
        load_matrix(path)


def test_column_major_store_and_load_make_no_copies(tmp_path):
    rng = np.random.Generator(np.random.Philox(10))
    a = np.asfortranarray(rng.standard_normal((20000, 60)) + 1j * rng.standard_normal((20000, 60)))
    path = tmp_path / "big.dmm"
    _, peak = traced_peak(lambda: store_matrix(a, path))
    assert peak < 1 << 20
    b, peak = traced_peak(lambda: load_matrix(path))
    # The array itself, plus the finiteness scan's boolean mask.
    assert peak < a.nbytes + a.size + (1 << 20)
    assert np.array_equal(a, b)


def test_row_major_store_copies_one_block_at_a_time(tmp_path):
    # one column at a time
    rng = np.random.Generator(np.random.Philox(11))
    a = rng.standard_normal((20000, 60)) + 1j * rng.standard_normal((20000, 60))
    path = tmp_path / "big.dmm"
    _, peak = traced_peak(lambda: store_matrix(a, path))
    assert peak < a.shape[0] * a.itemsize + (1 << 20)
    assert np.array_equal(load_matrix(path), a)


_LONG_DOUBLE_BEYOND = (np.longdouble(10) ** 400 if np.finfo(np.longdouble).max > np.finfo(np.float64).max
                       else None)


@pytest.mark.parametrize("ext", [".dmm", ".csv"])
@pytest.mark.parametrize("a", [
    pytest.param(np.arange(6).reshape(3, 2).astype("datetime64[s]"), id="datetime64"),
    pytest.param(np.arange(6).reshape(3, 2).astype(str), id="str"),
    pytest.param(np.arange(6.0).reshape(3, 2).astype(object), id="object"),
    pytest.param(np.full((3, 2), _LONG_DOUBLE_BEYOND), id="long-double-beyond-double",
                 marks=pytest.mark.skipif(_LONG_DOUBLE_BEYOND is None, reason="long double is double here")),
])
def test_store_rejects_what_the_readers_reject(tmp_path, a, ext):
    # the readers' dtype rule, applied before any byte is written
    path = tmp_path / ("m" + ext)
    with pytest.raises(DataError):
        store_matrix(a, path)
    assert not path.exists()
