"""Negative controls for the benchmark's certificate check, at small sizes.

A run must count an iteration as failed when one reported residual is off,
when the pipeline raises, and when any other check of a workload is broken
(tall-cli's report against its modes file; variant-sweep's exact_dmd
against dmd and its auto route); otherwise the check could pass vacuously.
"""

import dataclasses
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import harness  # noqa: E402
import run  # noqa: E402
from dmdkit import BackendError, load_matrix, store_matrix  # noqa: E402

SMALL = [harness.RefineLarge(n=300, m=12), harness.TallCli(n=2000, m=12), harness.VariantSweep(n=400, m=10)]


def _perturbed(dec):
    """The decomposition with one residual larger by one part in 1e4, far
    above the check's 1e-6 tolerance."""
    residuals = dec.residuals.copy()
    residuals[dec.k // 2] *= 1 + 1e-4
    return dataclasses.replace(dec, residuals=residuals)


def _rewrite_report(inp, edit):
    with open(inp.data["report.json"]) as fh:
        report = json.load(fh)
    edit(report["records"])
    with open(inp.data["report.json"], "w") as fh:
        json.dump(report, fh)


def _perturb_report_residual(inp, out):
    def edit(records):
        records[len(records) // 2]["residual"] *= 1 + 1e-4

    _rewrite_report(inp, edit)
    return out


def _drop_mode(inp, out):
    modes = load_matrix(inp.data["modes.dmm"])
    store_matrix(modes[:, :-1], inp.data["modes.dmm"])
    return out


def _shift_exact_ritz_values(inp, out):
    exact = out["exact_dmd"]
    return {**out, "exact_dmd": dataclasses.replace(exact, lambdas=exact.lambdas * (1 + 1e-6))}


def _direct_auto_route(inp, out):
    return {**out, "ddmd_rrr_auto": dataclasses.replace(out["ddmd_rrr_auto"], variant="rrr")}


def _raise(inp, out):
    raise BackendError("injected backend failure")


class Tampered:
    """A workload whose every output is changed by ``tamper`` before the check."""

    def __init__(self, inner, tamper):
        self.inner, self.tamper = inner, tamper

    def generate(self, seed, workdir):
        return self.inner.generate(seed, workdir)

    def iterate(self, inp):
        return self.tamper(inp, self.inner.iterate(inp))

    def check(self, inp, out):
        return self.inner.check(inp, out)


REFINE, CLI, SWEEP = SMALL
# (workload, tamper, text every failure must contain): every check path of
# every workload, shown able to fail.
BAD = [
    pytest.param(REFINE, lambda inp, out: _perturbed(out), "reported residual", id="refine-large-residual"),
    pytest.param(REFINE, _raise, "BackendError", id="refine-large-raises"),
    pytest.param(CLI, _perturb_report_residual, "reported residual", id="tall-cli-residual"),
    pytest.param(CLI, _drop_mode, "modes file is", id="tall-cli-modes-file"),
    pytest.param(CLI, _raise, "BackendError", id="tall-cli-raises"),
    pytest.param(SWEEP, lambda inp, out: {**out, "weighted_dmd": _perturbed(out["weighted_dmd"])},
                 "reported residual", id="variant-sweep-residual"),
    pytest.param(SWEEP, _shift_exact_ritz_values, "exact_dmd Ritz values differ", id="variant-sweep-exact-dmd"),
    pytest.param(SWEEP, _direct_auto_route, "took the 'rrr' route", id="variant-sweep-auto-route"),
    pytest.param(SWEEP, _raise, "BackendError", id="variant-sweep-raises"),
]


def _measure(workload, tmp_path):
    return run.measure(harness, workload, seed=3, seconds=0.0, workdir=str(tmp_path), import_s=0.0)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_seed_code_passes_the_check(workload, tmp_path):
    stats, metrics, _ = _measure(workload, tmp_path)
    assert stats.errors == []
    assert stats.attempted >= 3 and stats.failed == 0
    assert metrics["pass_frac"] == 1.0 and metrics["pairs_per_s"] > 0


@pytest.mark.parametrize("workload, tamper, expect", BAD)
def test_bad_iterations_count_as_failed(workload, tamper, expect, tmp_path):
    stats, metrics, lines = _measure(Tampered(workload, tamper), tmp_path)
    assert stats.attempted >= 3 and stats.failed == stats.attempted
    assert all(expect in err for err in stats.errors), stats.errors
    assert metrics["pass_frac"] == 0.0
    assert any(line.startswith("failed_frac    1.0000") for line in lines)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS) == list(run.WORKLOADS)
