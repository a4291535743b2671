"""End-to-end runs of the command-line surface via ``main(argv)``."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dmdkit
from conftest import traced_peak
from dmdkit.cli import main
from dmdkit.inner import InnerProduct
from dmdkit.matrixio import load_matrix, store_matrix
from dmdkit.pod import RankPolicy, default_epsilon
from dmdkit.variants import (
    VariantConfig,
    ddmd_rrr,
    ddmd_rrr_compressed,
    dmd,
    exact_dmd,
    fb_dmd_mrf,
    select_pairs,
)
from dmdkit.verify import make_oracle, trajectory, write_fixture_set
from dmdkit.weighted import two_sided_weighted_dmd, weighted_dmd


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _make_traj(path, n=24, m=10, seed=31):
    oracle = make_oracle(n, conditioning=15.0, seed=seed)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    f1 = rng.standard_normal(n)
    traj = trajectory(oracle, f1 / np.linalg.norm(f1), m)
    store_matrix(traj.F, str(path))
    return str(path)


@pytest.fixture()
def traj_file(tmp_path):
    return _make_traj(tmp_path / "traj.dmm")


def _decompose(capsys, *extra):
    rc = main(["decompose", *extra])
    out = capsys.readouterr().out
    return rc, out


def test_report_is_canonical_json(traj_file, capsys):
    rc, out = _decompose(capsys, "--seq", traj_file)
    assert rc == 0
    report = json.loads(out)
    # parse -> re-serialize reproduces the exact bytes
    assert _canonical(report) == out
    meta = report["meta"]
    assert meta["variant"] == "rrr"
    assert meta["n"] == 24 and meta["m"] == 10
    assert meta["epsilon"] == default_epsilon(24, 10)
    assert meta["scaled"] is True
    assert meta["weight"] == "none"
    assert meta["k"] == len(report["records"]) > 0


def test_records_sorted_by_residual(traj_file, capsys):
    rc, out = _decompose(capsys, "--seq", traj_file)
    assert rc == 0
    res = [r["residual"] for r in json.loads(out)["records"]]
    assert all(x is not None for x in res)
    assert res == sorted(res)


def test_select_cap_partitions_records(traj_file, capsys):
    rc, probe = _decompose(capsys, "--seq", traj_file)
    assert rc == 0
    res = [r["residual"] for r in json.loads(probe)["records"]]
    cap = float(np.median(res))
    rc, out = _decompose(capsys, "--seq", traj_file, "--select-cap", repr(cap))
    assert rc == 0
    for r in json.loads(out)["records"]:
        assert r["selected"] == (r["residual"] <= cap)


def test_no_cap_marks_everything_selected(traj_file, capsys):
    rc, out = _decompose(capsys, "--seq", traj_file)
    assert all(r["selected"] for r in json.loads(out)["records"])


def test_fixed_rank_nulls_epsilon(traj_file, capsys):
    rc, out = _decompose(capsys, "--seq", traj_file, "--rank", "5")
    assert rc == 0
    meta = json.loads(out)["meta"]
    assert meta["k"] == 5
    assert meta["epsilon"] is None


def test_rank_and_eps_are_mutually_exclusive(traj_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--seq", traj_file, "--rank", "5", "--eps", "0.5"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_eps_flag_is_echoed(traj_file, capsys):
    rc, out = _decompose(capsys, "--seq", traj_file, "--eps", "1e-6")
    assert rc == 0
    assert json.loads(out)["meta"]["epsilon"] == 1e-6


def test_refine_none_drops_refined_fields(traj_file, capsys):
    rc, out = _decompose(capsys, "--seq", traj_file, "--refine", "none")
    assert rc == 0
    assert not any("refined_residual" in r for r in json.loads(out)["records"])
    rc, out = _decompose(capsys, "--seq", traj_file, "--refine", "all")
    records = json.loads(out)["records"]
    assert all("refined_residual" in r and "rho_re" in r for r in records)


def test_bad_refine_spec_is_a_data_error(traj_file, capsys):
    assert main(["decompose", "--seq", traj_file, "--refine", "sometimes"]) == 2
    assert main(["decompose", "--seq", traj_file, "--refine", "cap=abc"]) == 2
    assert main(["decompose", "--seq", traj_file, "--refine", "cap=nan"]) == 2


@pytest.mark.parametrize("flags", [["--eps", "2"], ["--rank", "0"], ["--refine", "sometimes"]])
def test_bad_rank_and_refine_flags_are_data_errors_before_reading(tmp_path, capsys, flags):
    rc = main(["decompose", "--seq", str(tmp_path / "absent.dmm"), *flags])
    assert rc == 2
    assert "absent.dmm" not in capsys.readouterr().err


def test_overflowing_data_is_a_conditioning_error(tmp_path, capsys):
    rng = np.random.Generator(np.random.Philox(41))
    store_matrix(1e-200 * rng.standard_normal((30, 6)), str(tmp_path / "x.dmm"))
    store_matrix(1e150 * rng.standard_normal((30, 6)), str(tmp_path / "y.dmm"))
    assert main(["decompose", "--x", str(tmp_path / "x.dmm"), "--y", str(tmp_path / "y.dmm")]) == 3
    assert "overflow" in capsys.readouterr().err


def test_a_column_norm_beyond_the_double_range_is_a_conditioning_error(tmp_path, capsys):
    rng = np.random.Generator(np.random.Philox(43))
    store_matrix(5e307 * rng.uniform(size=(200, 12)), str(tmp_path / "x.dmm"))
    store_matrix(5e307 * rng.uniform(size=(200, 12)), str(tmp_path / "y.dmm"))
    assert main(["decompose", "--x", str(tmp_path / "x.dmm"), "--y", str(tmp_path / "y.dmm")]) == 3
    assert "the 2-norm of column 0 of X overflows" in capsys.readouterr().err


def test_dt_adds_log_mapped_frequencies(traj_file, capsys):
    rc, out = _decompose(capsys, "--seq", traj_file, "--dt", "0.5")
    assert rc == 0
    report = json.loads(out)
    assert report["meta"]["dt"] == 0.5
    for r in report["records"]:
        lam = complex(r["lambda_re"], r["lambda_im"])
        want = np.log(lam) / (2.0 * np.pi * 0.5)
        assert abs(complex(r["koopman_re"], r["koopman_im"]) - want) <= 1e-12
    # Rejected before the input is read, so a missing file does not matter.
    for bad in ("-0.5", "0", "nan", "inf"):
        assert main(["decompose", "--seq", traj_file + ".missing", "--dt", bad]) == 2
        assert "--dt" in capsys.readouterr().err


def test_input_flag_conflicts(traj_file, capsys):
    assert main(["decompose", "--seq", traj_file, "--x", traj_file]) == 2
    assert main(["decompose", "--x", traj_file]) == 2
    assert main(["decompose"]) == 2


def test_missing_file_is_a_data_error(tmp_path, capsys):
    assert main(["decompose", "--seq", str(tmp_path / "nope.dmm")]) == 2


def test_fb_guard_maps_to_conditioning_exit(tmp_path, capsys):
    x = tmp_path / "x.dmm"
    y = tmp_path / "y.dmm"
    store_matrix(np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]), str(x))
    store_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), str(y))
    rc = main(["decompose", "--variant", "fb", "--x", str(x), "--y", str(y),
               "--rank", "2", "--no-scale"])
    assert rc == 3
    assert "S_back" in capsys.readouterr().err


def test_weighted_variants_require_weight_files(traj_file, capsys):
    assert main(["decompose", "--seq", traj_file, "--variant", "weighted"]) == 2
    assert main(["decompose", "--seq", traj_file, "--variant", "weighted2"]) == 2


@pytest.mark.parametrize("variant, flags, named", [
    ("rrr", ["--weight", "w.dmm"], "--weight"),
    ("dmd", ["--weight", "w.dmm", "--weight-inverse"], "--weight"),
    ("weighted", ["--weight", "w.dmm", "--weight-n", "w.dmm"], "--weight-n"),
    ("rrr-compressed", ["--weight-n", "w.dmm"], "--weight-n"),
    ("fb", ["--weight-inverse"], "--weight-inverse"),
])
def test_weight_flags_the_variant_does_not_apply_are_data_errors(tmp_path, capsys, variant, flags, named):
    # Neither file exists: the flags are rejected before anything is read.
    flags = [str(tmp_path / f) if f.endswith(".dmm") else f for f in flags]
    rc = main(["decompose", "--seq", str(tmp_path / "absent.dmm"), "--variant", variant, *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert "%s is not used by --variant %s" % (named, variant) in err


@pytest.mark.parametrize("cap", ["nan", "-1"])
def test_bad_select_cap_is_a_data_error_before_reading(tmp_path, capsys, cap):
    rc = main(["decompose", "--seq", str(tmp_path / "absent.dmm"), "--select-cap", cap])
    assert rc == 2
    assert "residual cap" in capsys.readouterr().err


@pytest.mark.parametrize("variant, pipeline", [("exact", exact_dmd), ("rrr", ddmd_rrr), ("dmd", dmd)])
def test_select_cap_selects_what_select_pairs_keeps(traj_file, capsys, variant, pipeline):
    F = load_matrix(traj_file)
    dec = pipeline(F[:, :-1], F[:, 1:])
    for cap in (np.inf, float(np.nanmedian(dec.residuals)) if variant != "exact" else 1.0):
        rc, out = _decompose(capsys, "--seq", traj_file, "--variant", variant, "--select-cap", repr(cap))
        assert rc == 0
        selected = [r["selected"] for r in json.loads(out)["records"]]
        assert selected == np.isin(dec.ordering, select_pairs(dec, cap).ordering).tolist()
        if np.isinf(cap):
            assert all(selected) and len(selected) == dec.k


def test_vector_weight_file_means_diagonal(traj_file, tmp_path, capsys):
    wpath = tmp_path / "w.dmm"
    store_matrix(np.ones((24, 1)), str(wpath))
    rc, plain = _decompose(capsys, "--seq", traj_file)
    rc2, weighted = _decompose(capsys, "--seq", traj_file, "--variant", "weighted",
                               "--weight", str(wpath))
    assert rc == 0 and rc2 == 0
    a = json.loads(plain)["records"]
    b = json.loads(weighted)["records"]
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert abs(complex(ra["lambda_re"], ra["lambda_im"])
                   - complex(rb["lambda_re"], rb["lambda_im"])) <= 1e-10


def test_complex_weight_vector_is_a_data_error(tmp_path, capsys):
    traj = _make_traj(tmp_path / "traj.dmm", n=30, m=10)
    wpath = tmp_path / "w.dmm"
    store_matrix(np.full((30, 1), 1.0 + 1.0j), str(wpath))
    rc = main(["decompose", "--seq", traj, "--variant", "weighted", "--weight", str(wpath)])
    assert rc == 2
    assert "strictly positive" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(1.0, np.nan)], ids=["nan", "-inf", "complex-nan"])
@pytest.mark.parametrize("role", ["snapshots", "weight"])
def test_a_file_with_a_non_finite_entry_is_a_data_error(tmp_path, capsys, role, bad):
    traj = _make_traj(tmp_path / "traj.dmm", n=30, m=10)
    if role == "snapshots":
        target, a, argv = traj, load_matrix(traj), ["decompose", "--seq", traj]
    else:
        target, a = str(tmp_path / "w.dmm"), np.linspace(1.0, 2.0, 30)[:, None]
        argv = ["decompose", "--seq", traj, "--variant", "weighted", "--weight", target]
    a = a.astype(type(bad) if isinstance(bad, complex) else float)
    a[7, -1] = bad
    store_matrix(a, target)
    assert main(argv) == 2
    assert "%s contains non-finite entries" % target in capsys.readouterr().err


def test_modes_out_writes_present_vectors(traj_file, tmp_path, capsys):
    modes = tmp_path / "modes.dmm"
    rc, out = _decompose(capsys, "--seq", traj_file, "--modes-out", str(modes))
    assert rc == 0
    Z = load_matrix(str(modes))
    assert Z.shape == (24, json.loads(out)["meta"]["k"])
    assert np.allclose(np.linalg.norm(Z, axis=0), 1.0, atol=1e-12)


# Each variant's library call on the trajectory F, diagonal weights M and N.
_LIBRARY = {
    "rrr-compressed": lambda F, M, N: ddmd_rrr_compressed(F),
    "rrr": lambda F, M, N: ddmd_rrr(F[:, :-1], F[:, 1:]),
    "dmd": lambda F, M, N: dmd(F[:, :-1], F[:, 1:]),
    "exact": lambda F, M, N: exact_dmd(F[:, :-1], F[:, 1:]),
    "fb": lambda F, M, N: fb_dmd_mrf(F[:, :-1], F[:, 1:])[0],
    "weighted": lambda F, M, N: weighted_dmd(F[:, :-1], F[:, 1:], M),
    "weighted2": lambda F, M, N: two_sided_weighted_dmd(F[:, :-1], F[:, 1:], M, N),
}


@pytest.mark.parametrize("variant", list(_LIBRARY))
def test_modes_out_bytes_equal_the_stored_vectors(traj_file, tmp_path, capsys, variant):
    # every variant decomposes the file as loaded, uncopied
    w, wn = np.linspace(0.5, 2.0, 24), np.linspace(1.0, 0.5, 10)
    store_matrix(w[:, None], tmp_path / "w.dmm")
    store_matrix(wn[:, None], tmp_path / "wn.dmm")
    weights = {"weighted": ["--weight", str(tmp_path / "w.dmm")],
               "weighted2": ["--weight", str(tmp_path / "w.dmm"), "--weight-n", str(tmp_path / "wn.dmm")]}
    modes = tmp_path / "modes.dmm"
    rc, out = _decompose(capsys, "--seq", traj_file, "--variant", variant, "--modes-out", str(modes),
                         *weights.get(variant, []))
    assert rc == 0
    dec = _LIBRARY[variant](load_matrix(traj_file), InnerProduct.diagonal(w), InnerProduct.diagonal(wn))
    records = json.loads(out)["records"]
    assert [complex(r["lambda_re"], r["lambda_im"]) for r in records] == dec.lambdas.tolist()
    assert [r["residual"] for r in records] == [None if np.isnan(r) else float(r) for r in dec.residuals]
    store_matrix(dec.vectors[:, dec.vector_present], tmp_path / "ref.dmm")
    assert modes.read_bytes() == (tmp_path / "ref.dmm").read_bytes()


# At these sizes the lift's blocks hold n/32 rows, and the last block
# takes the tail of up to n/32 + 1 rows.
@pytest.mark.parametrize("n", [2049, 2050, 4099])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("rank", [None, 1])
def test_streamed_modes_equal_the_library_vectors(tmp_path, capsys, n, dtype, rank):
    # rrr-compressed on a trajectory writes the modes file by row blocks
    rng = np.random.default_rng(n)
    F = rng.standard_normal((n, 7)) + (1j * rng.standard_normal((n, 7)) if dtype is complex else 0)
    store_matrix(F, tmp_path / "t.dmm")
    flags = ["--seq", str(tmp_path / "t.dmm"), "--variant", "rrr-compressed"]
    if rank is not None:
        flags += ["--rank", str(rank)]
    assert main(["decompose", *flags, "--out", str(tmp_path / "plain.json")]) == 0
    assert main(["decompose", *flags, "--out", str(tmp_path / "r.json"), "--modes-out", str(tmp_path / "m.dmm")]) == 0
    report = (tmp_path / "r.json").read_bytes()
    assert report == (tmp_path / "plain.json").read_bytes()
    dec = ddmd_rrr_compressed(load_matrix(tmp_path / "t.dmm"),
                              VariantConfig(policy=None if rank is None else RankPolicy.fixed(rank)))
    records = json.loads(report)["records"]
    assert len(records) == dec.k == (6 if rank is None else 1)
    assert [complex(r["lambda_re"], r["lambda_im"]) for r in records] == dec.lambdas.tolist()
    assert [r["residual"] for r in records] == dec.residuals.tolist()
    store_matrix(dec.vectors, tmp_path / "ref.dmm")
    assert (tmp_path / "m.dmm").read_bytes() == (tmp_path / "ref.dmm").read_bytes()


# n/32 rows per block below 65,505 rows, 2048 from there on.
@pytest.mark.parametrize("n", [5000, 65504, 65505, 69633])
@pytest.mark.parametrize("dtype", [float, complex])
def test_streamed_modes_equal_the_library_vectors_below_and_above_the_block_cap(tmp_path, n, dtype):
    rng = np.random.default_rng(n)
    F = rng.standard_normal((n, 6)) + (1j * rng.standard_normal((n, 6)) if dtype is complex else 0)
    store_matrix(F, tmp_path / "t.dmm")
    del F
    assert main(["decompose", "--seq", str(tmp_path / "t.dmm"), "--variant", "rrr-compressed",
                 "--out", str(tmp_path / "r.json"), "--modes-out", str(tmp_path / "m.dmm")]) == 0
    store_matrix(ddmd_rrr_compressed(load_matrix(tmp_path / "t.dmm")).vectors, tmp_path / "ref.dmm")
    assert (tmp_path / "m.dmm").read_bytes() == (tmp_path / "ref.dmm").read_bytes()


def test_compressed_trajectory_route_holds_little_beyond_the_loaded_file(tmp_path, capsys):
    # The QR overwrites the loaded array and the modes go out by row
    # blocks: what remains is the file and the finiteness checks' boolean
    # temporaries (1/8 of it).  Holding the QR's copy, Q and the vectors
    # took about 4x.
    rng = np.random.default_rng(5)
    F = rng.standard_normal((40000, 41))
    store_matrix(F, tmp_path / "t.dmm")
    del F
    argv = ["decompose", "--seq", str(tmp_path / "t.dmm"), "--variant", "rrr-compressed",
            "--out", str(tmp_path / "r.json"), "--modes-out", str(tmp_path / "m.dmm")]
    main(argv)  # warm caches and imports outside the traced call
    rc, peak = traced_peak(lambda: main(argv))
    assert rc == 0
    assert peak <= 1.3 * 40000 * 41 * 8, peak / (40000 * 41 * 8)


def test_input_shapes_are_checked(tmp_path, capsys):
    one = tmp_path / "one.dmm"
    store_matrix(np.ones((5, 1)), one)
    for variant in ("rrr", "rrr-compressed"):
        assert main(["decompose", "--seq", str(one), "--variant", variant]) == 2
        assert "at least 2 columns" in capsys.readouterr().err
    other = tmp_path / "other.dmm"
    store_matrix(np.ones((5, 2)), other)
    for variant in ("rrr", "rrr-compressed"):
        assert main(["decompose", "--x", str(one), "--y", str(other), "--variant", variant]) == 2
        assert "equal shapes" in capsys.readouterr().err


def test_exact_variant_null_residuals(traj_file, capsys):
    rc, out = _decompose(capsys, "--seq", traj_file, "--variant", "exact",
                         "--select-cap", "1.0")
    assert rc == 0
    records = json.loads(out)["records"]
    assert all(r["residual"] is None for r in records)
    # NaN residual can never clear a finite cap
    assert not any(r["selected"] for r in records)


def test_csv_input_is_accepted(tmp_path, capsys):
    path = _make_traj(tmp_path / "traj.csv", n=12, m=6, seed=77)
    rc, out = _decompose(capsys, "--seq", path)
    assert rc == 0
    meta = json.loads(out)["meta"]
    assert (meta["n"], meta["m"]) == (12, 6)


def test_csv_and_dmm_files_give_identical_reports(tmp_path, capsys):
    # A CSV file loads row-major and a DMM1 file column-major; the reports
    # depend on the values only.
    rng = np.random.Generator(np.random.Philox(7))
    X = rng.standard_normal((300, 20)) * np.geomspace(1.0, 1e-3, 20)
    Y = X @ (0.3 * rng.standard_normal((20, 20))) + 1e-4 * rng.standard_normal((300, 20))
    for ext in ("csv", "dmm"):
        store_matrix(X, str(tmp_path / ("X." + ext)))
        store_matrix(Y, str(tmp_path / ("Y." + ext)))
    assert np.array_equal(load_matrix(str(tmp_path / "X.csv")), X)
    w, wn = str(tmp_path / "w.dmm"), str(tmp_path / "wn.dmm")
    store_matrix(np.linspace(0.5, 2.0, 300)[:, None], w)
    store_matrix(np.linspace(1.0, 0.5, 20)[:, None], wn)
    weights = {"weighted": ["--weight", w], "weighted2": ["--weight", w, "--weight-n", wn]}
    for variant in ("dmd", "exact", "fb", "rrr", "rrr-compressed", "weighted", "weighted2"):
        reports = []
        for ext in ("csv", "dmm"):
            rc, out = _decompose(capsys, "--x", str(tmp_path / ("X." + ext)), "--y", str(tmp_path / ("Y." + ext)),
                                 "--variant", variant, *weights.get(variant, []))
            assert rc == 0
            reports.append(out)
        assert reports[0] == reports[1], variant


def test_out_file_identical_across_runs_and_threads(traj_file, tmp_path, capsys):
    paths = [tmp_path / ("r%d.json" % i) for i in range(3)]
    argv = ["decompose", "--seq", traj_file]
    for path in paths:
        assert main(argv + ["--out", str(path)]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_report_bytes_identical_in_fresh_processes(tmp_path):
    # Same arguments and a fixed BLAS thread count in two fresh interpreters.
    write_fixture_set(str(tmp_path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmdkit.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = [subprocess.Popen([sys.executable, "-m", "dmdkit.cli", "decompose",
                              "--seq", str(tmp_path / "decaying-tall_trajectory.dmm"),
                              "--out", str(tmp_path / ("t%d.json" % t))],
                             env=env, stderr=subprocess.PIPE)
            for t in (1, 2)]
    for proc in runs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t2.json").read_bytes()


def test_verify_report_deterministic_at_small_scale(tmp_path, capsys):
    base = ["verify", "--n", "60", "--m", "18", "--seed", "5"]
    p1, p2, p3 = (tmp_path / ("v%d.json" % i) for i in range(3))
    rc1 = main(base + ["--out", str(p1)])
    rc2 = main(base + ["--out", str(p2)])
    fixdir = tmp_path / "fixtures"
    rc3 = main(base + ["--out", str(p3), "--fixtures", str(fixdir)])
    # small-scale checks may legitimately fail; determinism must hold anyway
    assert rc1 == rc2 == rc3
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    report = json.loads(p1.read_text())
    assert len(report["checks"]) == 11
    assert (fixdir / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "checks passed" in out


@pytest.mark.parametrize("flags", [["--n", "1"], ["--m", "0"], ["--seed", "-1"]])
def test_verify_rejects_bad_sizes_before_any_check(tmp_path, capsys, flags):
    rc = main(["verify", *flags, "--out", str(tmp_path / "v.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "verify needs" in captured.err
    assert not (tmp_path / "v.json").exists()


_COLD_START = r"""
import sys

def unloaded(when):
    loaded = [name for name in ("scipy.optimize", "dmdkit.checks") if name in sys.modules]
    assert not loaded, (when, loaded)

import dmdkit
unloaded("import dmdkit")
import dmdkit.cli
seq = sys.argv[1]
for variant in ("rrr-compressed", "dmd"):
    rc = dmdkit.cli.main(["decompose", "--seq", seq, "--variant", variant, "--out", seq + "." + variant + ".json"])
    assert rc == 0, (variant, rc)
    unloaded("decompose --variant " + variant)
assert dmdkit.match_eigenvalues([1.0, 2j], [2j, 1.0]) == 0.0
assert "scipy.optimize" in sys.modules
assert dmdkit.cli.main(["verify", "--n", "40"]) == 0
assert "dmdkit.checks" in sys.modules
"""


def test_import_and_decompose_load_neither_scipy_optimize_nor_the_checks(tmp_path):
    # Only eigenvalue matching and `dmdkit verify` need them; a fresh
    # interpreter shows what a one-shot `dmdkit decompose` process loads.
    write_fixture_set(str(tmp_path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmdkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "disc-small_trajectory.dmm")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "11/11 checks passed" in done.stdout
