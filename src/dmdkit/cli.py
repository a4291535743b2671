"""Command-line surface: decompose snapshot files, verify the toolkit.

``dmdkit decompose`` reads snapshot matrices (DMM1 or CSV), runs the
requested variant, and emits a spectrum report as canonical JSON: keys
sorted, no whitespace, one trailing newline.  Parsing a report and
re-serializing it reproduces the bytes exactly, so reports can be
diffed, hashed, and archived.  ``dmdkit verify`` runs the self-check
suite on internally generated oracles and prints one pass/fail line per
check.  Timings go to stderr only; reports are byte-identical across runs
with the same input, seed and BLAS thread count.

Exit codes: 0 success, 1 failed verification, 2 data error,
3 conditioning error, 4 backend error.
"""

import argparse
import json
import sys
import time

import numpy as np

from .errors import BackendError, ConditioningError, DataError
from .inner import InnerProduct
from .matrixio import _store_row_blocks, load_matrix
from .pod import RankPolicy
from .ritz import _product_blocks, koopman_log_map
from .snapshots import SequentialTrajectory, SnapshotPair
from .variants import (
    VariantConfig,
    _check_cap,
    _compressed_trajectory,
    _resolve_policy,
    _selected,
    dmd,
    ddmd_rrr,
    ddmd_rrr_compressed,
    exact_dmd,
    fb_dmd_mrf,
)
from .verify import write_fixture_set
from .weighted import two_sided_weighted_dmd, weighted_dmd

__all__ = ["main"]


# Each variant: its pipeline call on (X, Y, data, M, N, config), where data
# is the loaded pair or trajectory, (X, Y) its snapshot pairs and M, N the
# loaded weights or None; and the weight flags it applies.
_VARIANTS = {
    "dmd": (lambda X, Y, data, M, N, config: dmd(X, Y, config), ()),
    "rrr": (lambda X, Y, data, M, N, config: ddmd_rrr(X, Y, config), ()),
    "rrr-compressed": (lambda X, Y, data, M, N, config: ddmd_rrr_compressed(data, config), ()),
    "exact": (lambda X, Y, data, M, N, config: exact_dmd(X, Y, config), ()),
    "fb": (lambda X, Y, data, M, N, config: fb_dmd_mrf(X, Y, config)[0], ()),
    "weighted": (lambda X, Y, data, M, N, config: weighted_dmd(X, Y, M, config),
                 ("--weight", "--weight-inverse")),
    "weighted2": (lambda X, Y, data, M, N, config: two_sided_weighted_dmd(X, Y, M, N, config),
                  ("--weight", "--weight-n", "--weight-inverse")),
}


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _num(x):
    x = float(x)
    return x if np.isfinite(x) else None


def _parse_refine(text):
    if text in ("none", "all"):
        return text
    if text.startswith("cap="):
        try:
            return float(text[4:])
        except ValueError as exc:
            raise DataError("bad refinement cap %r: %s" % (text, exc)) from exc
    raise DataError("refine must be 'none', 'all', or 'cap=REAL', got %r" % (text,))


def _load_weight(path, inverse=False):
    """Weight matrix from file: a vector is taken as diagonal weights."""
    a = load_matrix(path)
    orientation = "M-inverse" if inverse else "M"
    if 1 in a.shape:
        return InnerProduct.diagonal(a, orientation=orientation)
    return InnerProduct.from_matrix(a, orientation=orientation)


def _load_input(args):
    """The input files as a SequentialTrajectory (--seq) or a SnapshotPair (--x/--y).

    The containers check the shapes.  Every variant decomposes the
    arrays as loaded, uncopied, so a report equals the library call on
    ``load_matrix(file)``, and a CSV file gives the same report as the
    DMM1 file of the same matrix; ``rrr-compressed`` on a trajectory
    also factors the loaded array in place.
    """
    if args.seq is not None:
        if args.x is not None or args.y is not None:
            raise DataError("--seq cannot be combined with --x/--y")
        return SequentialTrajectory(load_matrix(args.seq))
    if args.x is None or args.y is None:
        raise DataError("either --seq FILE or both --x FILE and --y FILE are required")
    return SnapshotPair(load_matrix(args.x), load_matrix(args.y))


def _check_weight_flags(args):
    """Reject a weight flag the variant would not apply, or a weight file it needs but lacks."""
    uses = _VARIANTS[args.variant][1]
    for flag, value in (("--weight", args.weight), ("--weight-n", args.weight_n),
                        ("--weight-inverse", args.weight_inverse)):
        if value and flag not in uses:
            raise DataError("%s is not used by --variant %s" % (flag, args.variant))
        if not value and flag in uses and flag != "--weight-inverse":
            raise DataError("--variant %s requires %s FILE" % (args.variant, flag))


def _records(dec, dt, cap):
    recs = []
    selected = np.ones(dec.k, dtype=bool) if cap is None else _selected(dec.residuals, cap)
    for i in range(dec.k):
        lam = dec.lambdas[i]
        rec = {
            "index": i,
            "lambda_re": float(lam.real),
            "lambda_im": float(lam.imag),
            "residual": _num(dec.residuals[i]),
            "selected": bool(selected[i]),
        }
        refined = dec.refined[i]
        if refined is not None:
            rec["refined_residual"] = _num(refined.sigma_min)
            rec["rho_re"] = float(refined.rho.real)
            rec["rho_im"] = float(refined.rho.imag)
        if dt is not None and abs(lam) > 0:
            kv = koopman_log_map(np.array([lam]), dt)[0]
            rec["koopman_re"] = float(kv.real)
            rec["koopman_im"] = float(kv.imag)
        recs.append(rec)
    return recs


def cmd_decompose(args):
    if args.dt is not None and not (args.dt > 0 and np.isfinite(args.dt)):
        raise DataError("--dt must be positive and finite, got %r" % (args.dt,))
    cap = None if args.select_cap is None else _check_cap(args.select_cap)
    _check_weight_flags(args)
    policy = None
    if args.rank is not None:
        policy = RankPolicy.fixed(args.rank)
    elif args.eps is not None:
        policy = RankPolicy.spectral(args.eps)
    config = VariantConfig(
        policy=policy,
        scale=not args.no_scale,
        refine=_parse_refine(args.refine),
    )

    data = _load_input(args)
    X, Y = (data.X, data.Y) if isinstance(data, SnapshotPair) else (data.F[:, :-1], data.F[:, 1:])
    n, m = X.shape

    M = _load_weight(args.weight, args.weight_inverse) if args.weight else None
    N = _load_weight(args.weight_n) if args.weight_n else None

    if args.variant == "rrr-compressed" and isinstance(data, SequentialTrajectory):
        # The loaded array is the CLI's own: the QR overwrites it, and the
        # vectors, coefficients in Q here, are lifted only into the modes file.
        Q, dec = _compressed_trajectory(data.F, config)
    else:
        Q, dec = None, _VARIANTS[args.variant][0](X, Y, data, M, N, config)

    meta = {
        "variant": args.variant,
        "n": int(n),
        "m": int(m),
        "k": int(dec.rank),
        "epsilon": _resolve_policy(config, (n, m)).epsilon,
        "scaled": not args.no_scale,
        "weight": args.weight if args.weight else "none",
    }
    if args.dt is not None:
        meta["dt"] = args.dt
    report = {"meta": meta, "records": _records(dec, args.dt, cap)}
    payload = _canonical(report)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print("report: %s" % args.out, file=sys.stderr)
    else:
        sys.stdout.write(payload)

    if args.modes_out:
        present = dec.vector_present
        if not np.any(present):
            raise DataError("no vectors present to store in --modes-out")
        # A NaN coefficient column lifts to a NaN column of Q @ W, and only
        # there, so the coefficients tell which vectors are present.
        blocks = [(0, dec.vectors)] if Q is None else _product_blocks(Q, dec.vectors)
        _store_row_blocks(blocks, n, np.flatnonzero(present), args.modes_out, dec.vectors.dtype)
        print("modes: %s (%d columns)" % (args.modes_out, int(present.sum())), file=sys.stderr)
    return 0


def cmd_verify(args):
    if args.n < 2 or args.m < 1 or args.seed < 0:
        raise DataError("verify needs --n >= 2, --m >= 1 and --seed >= 0, got %d, %d and %d"
                        % (args.n, args.m, args.seed))
    from . import checks  # only verify runs the checks; decompose never loads them

    t0 = time.monotonic()
    results = checks.run_all(n=args.n, m=args.m, seed=args.seed)
    elapsed = time.monotonic() - t0

    for r in results:
        print("%s %s - %s" % ("PASS" if r.passed else "FAIL", r.name, r.detail))
    npass = sum(1 for r in results if r.passed)
    print("%d/%d checks passed" % (npass, len(results)))
    print("elapsed %.1f s" % elapsed, file=sys.stderr)

    if args.fixtures:
        manifest = write_fixture_set(args.fixtures)
        print("fixtures manifest: %s" % manifest, file=sys.stderr)

    if args.out:
        report = {
            "meta": {"n": args.n, "m": args.m, "seed": args.seed},
            "checks": [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results],
        }
        with open(args.out, "w") as fh:
            fh.write(_canonical(report))
        print("report: %s" % args.out, file=sys.stderr)
    return 0 if npass == len(results) else 1


def _build_parser():
    parser = argparse.ArgumentParser(prog="dmdkit", description="Data-driven modal decomposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose snapshot matrices and write a spectrum report")
    d.add_argument("--variant", default="rrr",
                   choices=list(_VARIANTS))
    d.add_argument("--x", help="snapshot matrix X (DMM1 or CSV)")
    d.add_argument("--y", help="snapshot matrix Y, columns paired with X")
    d.add_argument("--seq", help="sequential trajectory matrix; supersedes --x/--y")
    rank = d.add_mutually_exclusive_group()
    rank.add_argument("--eps", type=float, help="spectral truncation threshold (relative)")
    rank.add_argument("--rank", type=int, help="fixed truncation rank")
    d.add_argument("--no-scale", action="store_true", help="skip column scaling")
    d.add_argument("--refine", default="all", help="'none', 'all', or 'cap=REAL'")
    d.add_argument("--select-cap", type=float, default=None,
                   help="mark records with residual <= cap as selected")
    d.add_argument("--weight", help="weight matrix file (vector file = diagonal weights)")
    d.add_argument("--weight-n", help="right-side weight matrix file for weighted2")
    d.add_argument("--weight-inverse", action="store_true",
                   help="interpret the weight file through its inverse geometry")
    d.add_argument("--dt", type=float, help="snapshot spacing; adds continuous-time frequencies")
    d.add_argument("--modes-out", help="write mode vectors to this DMM1 file")
    d.add_argument("--out", help="write the JSON report here instead of stdout")
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify", help="run the self-verification suite on built-in oracles")
    v.add_argument("--n", type=int, default=400, help="ambient dimension of the large checks")
    v.add_argument("--m", type=int, default=79, help="snapshot pairs of the large checks")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--out", help="write the verification report as canonical JSON")
    v.add_argument("--fixtures", help="also write the oracle fixture set to this directory")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConditioningError as exc:
        print("conditioning error: %s" % exc, file=sys.stderr)
        return 3
    except BackendError as exc:
        print("backend error: %s" % exc, file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
