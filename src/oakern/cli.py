"""Command-line front-end.

Exit codes: 0 success (for ``counterexample`` that additionally requires
refuted=true, for ``verify-min-kernel`` a passing verdict), 1 input or
parse error, 2 numeric non-convergence, 3 internal consistency failure
(computed vs closed-form mismatch, or a verdict command whose claim did
not hold). Output is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .assignment_kernel import gram_matrix, load_tuple_dataset
from .counterexample import (
    gamma_sweep,
    run_counterexample,
    sweep_to_csv,
    verify_min_kernel_psd,
)
from .errors import ConfigError, ConsistencyError, InputError, NumericError
from .matrices import load_matrix, matrix_to_text
from .serialize import dumps_json
from .spectral import DEFAULT_TOL, jacobi_eigen, psd_check, psd_project_clip, spectrum_to_json_obj

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_CONSISTENCY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap onto the input-error code.
    def error(self, message):
        raise InputError(message)


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad grid value: {exc}") from exc
    if not values:
        raise InputError("grid must contain at least one value")
    return values


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite nonnegative number, got {text!r}"
        )
    return tol


def _parse_lengths(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad length value: {exc}") from exc
    if not values:
        raise InputError("lengths must contain at least one value")
    return values


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oakern",
        description="Optimal assignment kernel: Gram matrices, spectral audits, "
        "PSD repair, and the square-tuples refutation certificate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=True, output=True):
        if tol:
            p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL,
                           help="relative PSD tolerance (default 1e-9)")
        if output:
            p.add_argument("--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("gram", help="Gram matrix of a tuple dataset")
    p.add_argument("--input", required=True, help="tuple dataset JSON file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p, tol=False)

    p = sub.add_parser("spectrum", help="eigenvalues and PSD verdict of a matrix file")
    p.add_argument("--input", required=True, help="matrix file (.json or .csv)")
    add_common(p)

    p = sub.add_parser("counterexample", help="refutation certificate at one gamma")
    p.add_argument("--gamma", type=float, required=True)
    add_common(p)

    p = sub.add_parser("sweep", help="refutation sweep over a gamma grid (CSV)")
    p.add_argument("--grid", required=True, help="comma-separated gamma values")
    add_common(p)

    p = sub.add_parser("repair", help="clip negative eigenvalues (nearest PSD matrix)")
    p.add_argument("--input", required=True, help="matrix file (.json or .csv)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p, tol=False)

    p = sub.add_parser("verify-min-kernel", help="PSD verdict for min-kernel Gram matrices")
    p.add_argument("--lengths", required=True, help="comma-separated tuple lengths")
    add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import: parsing reuses it read-only
    return build_parser()


def _dispatch(args) -> int:
    if args.command == "gram":
        base, tuples = load_tuple_dataset(args.input)
        gram = gram_matrix(tuples, base)
        _write_output(matrix_to_text(gram, args.format), args.output)
        return EXIT_OK

    if args.command == "spectrum":
        gram = load_matrix(args.input)
        spectrum = jacobi_eigen(gram.values)
        verdict = psd_check(spectrum, args.tol)
        _write_output(dumps_json(spectrum_to_json_obj(spectrum, verdict)), args.output)
        return EXIT_OK

    if args.command == "counterexample":
        report = run_counterexample(args.gamma, args.tol)
        _write_output(dumps_json(report.to_json_obj()), args.output)
        if not report.refuted:
            print("counterexample did not refute PSD-ness", file=sys.stderr)
            return EXIT_CONSISTENCY
        return EXIT_OK

    if args.command == "sweep":
        rows = gamma_sweep(_parse_grid(args.grid), args.tol)
        _write_output(sweep_to_csv(rows), args.output)
        return EXIT_OK

    if args.command == "repair":
        gram = load_matrix(args.input)
        repaired = psd_project_clip(gram)
        _write_output(matrix_to_text(repaired, args.format), args.output)
        return EXIT_OK

    if args.command == "verify-min-kernel":
        verdict = verify_min_kernel_psd(_parse_lengths(args.lengths), args.tol)
        _write_output(dumps_json(verdict.to_json_obj()), args.output)
        if not verdict.passed:
            print("min-kernel verdict failed", file=sys.stderr)
            return EXIT_CONSISTENCY
        return EXIT_OK

    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _dispatch(args)
    except (InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


def entrypoint() -> None:
    sys.exit(main())
