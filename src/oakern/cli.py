"""Command-line front-end.

Exit codes: 0 success (for ``counterexample`` that additionally requires
refuted=true, for ``verify-min-kernel`` a passing verdict), 1 input or
parse error (a Gram matrix past ``check_gram_size``'s bound or an input
too large for memory included), 2 numeric failure (non-convergence, or an
assignment total, eigenvalue or repaired matrix outside float64 range), 3
internal consistency failure (computed vs closed-form mismatch, or a
verdict command whose claim did not hold). Output is byte-deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
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
from .errors import ConsistencyError, InputError, NumericError
from .matrices import load_matrix, matrix_to_text
from .serialize import dumps_json, real_number
from .spectral import DEFAULT_TOL, jacobi_eigen, psd_check, psd_project_clip, spectrum_to_json_obj

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_CONSISTENCY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap onto the input-error code.
    def error(self, message):
        raise InputError(message)


def _flag_numbers(text: str, what: str) -> list:
    """Comma-separated JSON number literals, each read by the number rule of files.

    A value keeps its JSON type, int or float, so a caller can ask for integers.
    """
    # as a CSV matrix row: the text parses as a JSON array iff each value is one literal
    try:
        values = json.loads(f"[{text}]")
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} must be comma-separated JSON numbers, got {text!r}") from exc
    for value in values:
        real_number(value, what)
    return values


def _flag_number(text: str, what: str) -> float:
    values = _flag_numbers(text, what)
    if len(values) != 1:
        raise InputError(f"{what} must be one number, got {text!r}")
    return float(values[0])


def _parse_tol(text: str) -> float:
    try:
        tol = _flag_number(text, "tolerance")
    except InputError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite nonnegative number, got {text!r}"
        )
    return tol


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

    def add_common(p, tol=True):
        if tol:
            p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL,
                           help="relative PSD tolerance (default 1e-9)")
        p.add_argument("--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("gram", help="Gram matrix of a tuple dataset")
    p.add_argument("--input", required=True, help="tuple dataset JSON file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p, tol=False)

    p = sub.add_parser("spectrum", help="eigenvalues and PSD verdict of a matrix file")
    p.add_argument("--input", required=True, help="matrix file (.json or .csv)")
    add_common(p)

    p = sub.add_parser("counterexample", help="refutation certificate at one gamma")
    p.add_argument("--gamma", required=True, help="RBF width, a JSON number")
    add_common(p)

    p = sub.add_parser("sweep", help="refutation sweep over a gamma grid (CSV)")
    p.add_argument("--grid", required=True, help="comma-separated gamma values")
    add_common(p)

    p = sub.add_parser("repair", help="clip negative eigenvalues (nearest PSD matrix)")
    p.add_argument("--input", required=True, help="matrix file (.json or .csv)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p, tol=False)

    p = sub.add_parser("verify-min-kernel", help="PSD verdict for min-kernel Gram matrices")
    p.add_argument("--lengths", required=True, help="comma-separated tuple lengths, JSON integers")
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
        report = run_counterexample(_flag_number(args.gamma, "gamma"), args.tol)
        _write_output(dumps_json(report), args.output)
        if not report["refuted"]:
            print("counterexample did not refute PSD-ness", file=sys.stderr)
            return EXIT_CONSISTENCY
        return EXIT_OK

    if args.command == "sweep":
        reports = gamma_sweep(_flag_numbers(args.grid, "grid"), args.tol)
        _write_output(sweep_to_csv(reports), args.output)
        return EXIT_OK

    if args.command == "repair":
        gram = load_matrix(args.input)
        repaired = psd_project_clip(gram)
        _write_output(matrix_to_text(repaired, args.format), args.output)
        return EXIT_OK

    if args.command == "verify-min-kernel":
        verdict = verify_min_kernel_psd(_flag_numbers(args.lengths, "lengths"), args.tol)
        _write_output(dumps_json(verdict), args.output)
        if not verdict["passed"]:
            print("min-kernel verdict failed", file=sys.stderr)
            return EXIT_CONSISTENCY
        return EXIT_OK

    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _dispatch(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except MemoryError:
        print("error: input too large to fit in memory", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
