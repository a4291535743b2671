"""Acceptance gate: one verdict per contract criterion, at contract scale.

Each test drives the corresponding self-check at the scale and tolerance
the package promises, prints a single PASS/FAIL line, and asserts the
verdict (plus the runtime budget where one is promised).
"""

import time

import pytest

from dmdkit import checks
from dmdkit.cli import main


def _verdict(num, result, elapsed=None):
    tail = "" if elapsed is None else " [%.1f s]" % elapsed
    line = "%s criterion %02d (%s): %s%s" % (
        "PASS" if result.passed else "FAIL", num, result.name, result.detail, tail)
    print(line)
    assert result.passed, line
    return elapsed


@pytest.fixture(scope="module")
def family():
    t0 = time.monotonic()
    batch = checks._instance_family(100)
    return batch, time.monotonic() - t0


def test_criterion_01_residual_identity():
    t0 = time.monotonic()
    result = checks.check_residual_identity()
    elapsed = time.monotonic() - t0
    _verdict(1, result, elapsed)
    assert elapsed < 10.0


def test_criterion_02_refinement_optimality(family):
    batch, build = family
    t0 = time.monotonic()
    result = checks.check_refinement_optimality(batch)
    elapsed = build + (time.monotonic() - t0)
    _verdict(2, result, elapsed)
    assert elapsed < 30.0


def test_criterion_03_rayleigh_optimality(family):
    batch, build = family
    t0 = time.monotonic()
    result = checks.check_rayleigh_optimality(batch)
    elapsed = build + (time.monotonic() - t0)
    _verdict(3, result, elapsed)
    assert elapsed < 30.0


def test_criterion_04_quotient_consistency(family):
    batch, build = family
    t0 = time.monotonic()
    result = checks.check_quotient_consistency(batch)
    elapsed = build + (time.monotonic() - t0)
    _verdict(4, result, elapsed)
    assert elapsed < 30.0


def test_criterion_05_compression_equivalence():
    _verdict(5, checks.check_compression_equivalence())


def test_criterion_06_exact_variant_contract():
    _verdict(6, checks.check_exact_variant())


def test_criterion_07_fb_consistency():
    _verdict(7, checks.check_fb_consistency())


def test_criterion_08_weighted_reduction():
    _verdict(8, checks.check_weighted_chain())


def test_criterion_09_spectral_distance_bound():
    _verdict(9, checks.check_spectral_distance_bound())


def test_criterion_10_scaling_rescue():
    t0 = time.monotonic()
    result = checks.check_scaling_rescue()
    elapsed = time.monotonic() - t0
    _verdict(10, result, elapsed)
    assert elapsed < 120.0


def test_criterion_11_companion_identity():
    _verdict(11, checks.check_companion_identity())


def test_criterion_12_deterministic_verification(tmp_path, capsys):
    paths = [tmp_path / ("report%d.json" % i) for i in range(3)]
    codes = [main(["verify", "--out", str(path)]) for path in paths]
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2]
    capsys.readouterr()
    ok = identical and codes == [0, 0, 0]
    print("%s criterion 12 (deterministic-verification): byte-identical = %s, exit codes = %s"
          % ("PASS" if ok else "FAIL", identical, codes))
    assert identical
    assert codes == [0, 0, 0]
