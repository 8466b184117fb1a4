"""Command line surface.

Subcommands: ``gen`` (emit symbols), ``complexity`` (one of the four
profiles), ``extremes`` (per-length alternation min/max), ``verify`` (run a
registered claim check), ``conjecture`` (run a scanner), and ``kernel``
(exact subsequence-space rank of a profile).

All emitted indices are 1-based, matching the library convention and the
"n a(n)" b-file format. Exit codes: 0 success / clean report, 1 a check
found counterexamples, 2 usage or configuration error, 3 window
certification failure (the partial results and the least window length
that differed go to stderr as JSON), 141 stdout closed before the output
was written (nothing goes to stderr).

Sequences are named ``tm`` or ``pf``, or given as a path to a spec file of
``key = value`` lines (``#`` comments allowed)::

    kind = builtin | morphic | toeplitz
    name = tm | pf            # builtin only
    alphabet_size = <int>     # morphic, toeplitz
    seed = <symbol>           # morphic
    image.<symbol> = <word>   # morphic, one per symbol, e.g. image.0 = 01
    period = <word>           # toeplitz
    preperiod = <word>        # toeplitz, optional

Words are digit strings (or comma-separated integers for alphabets past
ten). The env var REDUXWORDS_MAX_PREFIX caps how many symbols any sequence
will materialize (default 2**26).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

import numpy as np

from .complexity import (
    WindowPolicy,
    abelian_complexity,
    alternation_extremes,
    factor_complexity,
    reduced_abelian_complexity,
    reduced_factor_complexity,
)
from .errors import ConfigurationError, ReduxwordsError, StabilizationError
from .sequences import BUILTIN_SEQUENCES, SequenceHandle, load_sequence_spec
from .theorems import CLAIMS, check_kernel_arguments, plan_claims, profile_kernel_rank, verify

KIND_ENGINES = {
    "factor": factor_complexity,
    "abelian": abelian_complexity,
    "red": reduced_factor_complexity,
    "abred": reduced_abelian_complexity,
}

CONJECTURE_IDS = [cid for cid, c in CLAIMS.items() if c.kind == "conjecture"]

EXIT_OK = 0
EXIT_COUNTEREXAMPLES = 1
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3


def _resolve_sequence(token: str) -> SequenceHandle:
    if token in BUILTIN_SEQUENCES:
        return BUILTIN_SEQUENCES[token]()
    return load_sequence_spec(token)


def _policy_from_args(args: argparse.Namespace) -> WindowPolicy:
    return WindowPolicy(
        initial_multiplier=args.window_multiplier,
        max_doublings=args.max_doublings,
        fixed_length=args.fixed_window,
    )


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window-multiplier", type=int, default=WindowPolicy.initial_multiplier,
        help="initial scan window is this many times n_max (default %(default)s)",
    )
    parser.add_argument(
        "--max-doublings", type=int, default=WindowPolicy.max_doublings,
        help="window doublings to attempt before giving up (default %(default)s)",
    )
    parser.add_argument(
        "--fixed-window", type=int, default=None, metavar="LENGTH",
        help="scan exactly this prefix length once, skipping certification",
    )


# rows per slice: the writer holds one slice of text and its mask at a time.
# 2**13 runs no faster, and when stdout is an in-memory buffer its many small
# writes left the process peak 9 MiB higher in some heap layouts
_SLICE_ROWS = 1 << 14


def _digit_column(column) -> tuple[np.ndarray, int, int]:
    """``column`` (an increasing range or an integer array, nonnegative) as an
    array for the digit passes, with the decimal widths of its least and
    greatest values. The array is uint32 when every value has at most 9
    digits, whose passes run several times faster than int64's."""
    if isinstance(column, range):
        least, top = column[0], column[-1]
        dtype = np.uint32 if top < 10**9 else np.int64
        values = np.arange(column.start, column.stop, column.step, dtype=dtype)
    else:
        least, top = int(column.min()), int(column.max())
        values = column.astype(np.uint32 if top < 10**9 else np.int64, copy=False)
    return values, len(str(least)), len(str(top))


def _fill_rows(pieces: list[bytes], columns: list) -> np.ndarray:
    """ASCII rows ``pieces[0] c0 pieces[1] c1 ... pieces[-1]`` of ``columns``
    (each as :func:`_digit_column` takes it), as a flat uint8 array.

    The rows are one byte matrix, a matrix row per output row: each constant
    piece fills its own columns, and each value its column's widest width,
    zero-padded, one decimal place per pass, right to left, on uint32 when
    the column's values have at most 9 digits and on int64 otherwise. The
    text is the matrix read in row order without the leading zeros. Only a
    column whose least value is narrower than its widest can hold leading
    zeros, so only such a column fills a mask of the places to keep; with
    none (as in a stretch of consecutive indices that crosses no power of
    ten), the matrix is the text as it is.
    """
    columns = [_digit_column(column) for column in columns]
    widths = sum(width for _, _, width in columns)
    text = np.empty((len(columns[0][0]), widths + sum(map(len, pieces))), dtype=np.uint8)
    keep = None
    at = 0
    for index, piece in enumerate(pieces):
        text[:, at : at + len(piece)] = np.frombuffer(piece, dtype=np.uint8)
        at += len(piece)
        if index == len(columns):
            break
        rest, least, width = columns[index]
        if least < width and keep is None:
            keep = np.ones(text.shape, dtype=bool)
        at += width
        for place in range(width):
            quotient = rest // 10
            digit = quotient * 10
            np.subtract(rest, digit, out=digit)
            digit += ord("0")
            text[:, at - 1 - place] = digit
            if least <= place:
                # where the value has run out of digits, the place is a leading zero
                keep[:, at - 1 - place] = rest != 0
            rest = quotient
    return text.ravel() if keep is None else text[keep]


def _emit_rows(columns, header: str, fmt: str, metadata: dict) -> None:
    """Write the rows of equal-length ``columns`` (ranges or integer arrays) as json, csv or bfile (``fmt``).

    Rows are formatted and written one slice at a time, each column converted
    to an array only for its slice, so memory stays bounded by the slice, not
    the output. The text equals ``str.format`` per csv/bfile row, and
    ``json.dumps(records, indent=2)`` for json records of the ``header``
    fields followed by the scalar ``metadata``.
    """
    fields = header.split(",")
    rows = len(columns[0])
    if fmt == "json":
        keys = [f"{json.dumps(field)}: " for field in fields]
        tail = "".join(f",\n    {json.dumps(k)}: {json.dumps(v)}" for k, v in metadata.items())
        pieces = ["  {\n    " + keys[0], *(",\n    " + key for key in keys[1:]), tail + "\n  },\n"]
        sys.stdout.write("[\n" if rows else "[]\n")
    else:
        separator = "," if fmt == "csv" else " "
        pieces = ["", *[separator] * (len(fields) - 1), "\n"]
        if fmt == "csv":
            sys.stdout.write(header + "\n")
    pieces = [piece.encode("ascii") for piece in pieces]
    for lo in range(0, rows, _SLICE_ROWS):
        hi = min(lo + _SLICE_ROWS, rows)
        text = _fill_rows(pieces, [column[lo:hi] for column in columns])
        if fmt == "json" and hi == rows:
            # the last record closes the list instead of continuing it
            text = text[:-2]
        sys.stdout.write(text.tobytes().decode("ascii"))
    if fmt == "json" and rows:
        sys.stdout.write("\n]\n")


# -- subcommands ----------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    handle = _resolve_sequence(args.sequence)
    if args.start < 1:
        raise ConfigurationError(f"--start must be >= 1, got {args.start}")
    if args.count < 0:
        raise ConfigurationError(f"--count must be >= 0, got {args.count}")
    metadata = {"sequence": handle.name, "kind": "symbols"}
    if args.count == 0:
        # no symbols to generate: raw and bfile are empty, json an empty
        # list and csv its header alone
        if args.format != "raw":
            _emit_rows((range(0), range(0)), "n,value", args.format, metadata)
        return EXIT_OK
    upto = args.start + args.count - 1
    symbols = handle.prefix_symbols(upto)[args.start - 1 :]
    if args.format == "raw":
        if handle.alphabet_size <= 10:
            text = (symbols + ord("0")).tobytes().decode("ascii")
        else:
            text = " ".join(map(str, symbols.tolist()))
        sys.stdout.write(text + "\n")
        return EXIT_OK
    _emit_rows((range(args.start, upto + 1), symbols), "n,value", args.format, metadata)
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace, engine, header: str) -> int:
    handle = _resolve_sequence(args.sequence)
    profile = engine(handle, args.n_max, _policy_from_args(args))
    metadata = {
        "sequence": handle.name,
        "kind": profile.kind,
        "certified_window": profile.certified_window,
    }
    # n, then the values, or the least and the greatest, from n = 1
    columns = (range(1, len(profile.values)), *np.atleast_2d(profile.values.T)[:, 1:])
    _emit_rows(columns, header, args.format, metadata)
    return EXIT_OK


def _report_to_json(report) -> dict:
    claim = CLAIMS.get(report.claim_id)
    return {
        "claim_id": report.claim_id,
        "claim_kind": claim.kind if claim else None,
        "n_lo": report.n_lo,
        "n_hi": report.n_hi,
        "status": report.status,
        "counterexamples": report.counterexamples,
        "declared_exceptions": report.declared_exceptions,
        "details": report.details,
    }


def _summarize(report) -> str:
    extras = []
    if report.declared_exceptions:
        pts = ", ".join(f"n={n} -> {v}" for n, v in sorted(report.declared_exceptions.items()))
        extras.append(f"declared exceptions: {pts}")
    if report.counterexamples:
        extras.append(f"{len(report.counterexamples)} counterexamples")
        first = report.counterexamples[0]
        extras.append(f"first at n={first[0]}: expected {first[1]}, got {first[2]}")
    suffix = f" ({'; '.join(extras)})" if extras else ""
    return f"{report.claim_id}: {report.status} over n={report.n_lo}..{report.n_hi}{suffix}"


def _cmd_claims(args: argparse.Namespace, conjectures: bool) -> int:
    """Run ``args.claim`` on one profile store planned with the claims run;
    ``all`` is every claim of the table, in its order, that is a conjecture
    exactly when ``conjectures`` is set."""
    policy = _policy_from_args(args)
    if args.claim == "all":
        ids = [cid for cid, c in CLAIMS.items() if (c.kind == "conjecture") == conjectures]
    elif conjectures and args.claim not in CONJECTURE_IDS:
        raise ConfigurationError(
            f"{args.claim!r} is not a conjecture id; choices: {', '.join(CONJECTURE_IDS)}, all"
        )
    else:
        ids = [args.claim]
    profiles = plan_claims(ids, args.n_max)
    reports = [verify(cid, args.n_max, policy, profiles) for cid in ids]
    if args.json:
        payload = [_report_to_json(r) for r in reports]
        sys.stdout.write(json.dumps(payload if len(payload) > 1 else payload[0], indent=2) + "\n")
    else:
        for report in reports:
            sys.stdout.write(_summarize(report) + "\n")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_COUNTEREXAMPLES


def _cmd_kernel(args: argparse.Namespace) -> int:
    handle = _resolve_sequence(args.sequence)
    engine = KIND_ENGINES[args.kind]
    policy = _policy_from_args(args)
    if args.n_max >= 1:
        # the profile holds one value per n <= n_max, so arguments it cannot
        # fill are rejected before it is computed; a smaller n_max is the engine's error
        check_kernel_arguments(args.n_max, args.base, args.depth, args.terms)
    profile = engine(handle, args.n_max, policy)
    estimate = profile_kernel_rank(profile, base=args.base, depth=args.depth, terms=args.terms)
    if args.json:
        payload = {
            "sequence": handle.name,
            "kind": profile.kind,
            "n_max": args.n_max,
            "base": estimate.base,
            "depth": estimate.depth,
            "terms": estimate.terms,
            "ranks": list(estimate.ranks),
            "stabilized": estimate.stabilized,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        ranks = ", ".join(str(r) for r in estimate.ranks)
        sys.stdout.write(
            f"{profile.kind} profile of {handle.name}, n <= {args.n_max}: "
            f"subsequence-space ranks by depth = [{ranks}]\n"
        )
        if estimate.stabilized:
            sys.stdout.write("rank stopped growing at the deepest level scanned\n")
        else:
            sys.stdout.write("rank still growing at the deepest level scanned\n")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reduxwords",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a stretch of a sequence")
    p.add_argument("sequence", help="tm, pf, or a spec-file path")
    p.add_argument("--start", type=int, default=1, help="first index, 1-based (default 1)")
    p.add_argument("--count", type=int, required=True, help="how many symbols")
    p.add_argument("--format", choices=("raw", "csv", "json", "bfile"), default="raw")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("complexity", help="compute a complexity profile")
    p.add_argument("sequence", help="tm, pf, or a spec-file path")
    p.add_argument("kind", choices=sorted(KIND_ENGINES))
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    _add_policy_flags(p)
    p.set_defaults(func=lambda args: _cmd_profile(args, KIND_ENGINES[args.kind], "n,value"))

    p = sub.add_parser("extremes", help="per-length min/max window alternation counts")
    p.add_argument("sequence", help="tm, pf, or a spec-file path")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_policy_flags(p)
    p.set_defaults(func=lambda args: _cmd_profile(args, alternation_extremes, "n,min,max"))

    p = sub.add_parser("verify", help="check a registered claim against the engines")
    p.add_argument("claim", help=f"claim id or 'all'; ids: {', '.join(sorted(CLAIMS))}")
    p.add_argument("--n-max", type=int, default=None, help="override the claim's default range")
    p.add_argument("--json", action="store_true", help="emit the structured report")
    _add_policy_flags(p)
    p.set_defaults(func=lambda args: _cmd_claims(args, conjectures=False))

    p = sub.add_parser("conjecture", help="scan an open statement and report evidence")
    p.add_argument("claim", help=f"conjecture id or 'all'; ids: {', '.join(CONJECTURE_IDS)}")
    p.add_argument("--n-max", type=int, default=None, help="override the claim's default range")
    p.add_argument("--json", action="store_true", help="emit the structured report")
    _add_policy_flags(p)
    p.set_defaults(func=lambda args: _cmd_claims(args, conjectures=True))

    p = sub.add_parser("kernel", help="exact rank of a profile's arithmetic subsequences")
    p.add_argument("sequence", help="tm, pf, or a spec-file path")
    p.add_argument("--kind", choices=sorted(KIND_ENGINES), default="red")
    p.add_argument("--n-max", type=int, default=2048)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--terms", type=int, default=64)
    p.add_argument("--json", action="store_true")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_kernel)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that :func:`main` reuses; its subcommands look their
    engines up in ``KIND_ENGINES`` when they run."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except StabilizationError as exc:
        payload = {
            "error": "stabilization-failure",
            "message": str(exc),
            "window": exc.window,
            "first_unstable_n": exc.first_unstable_n,
            # the one place an array of values indexed by n becomes {n: value}
            "partial_values": dict(enumerate(exc.partial_values[1:].tolist(), 1)),
        }
        sys.stderr.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_CERTIFICATION
    except ReduxwordsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    try:
        code = main()
        # flushed here, so that a reader that closed stdout early (``| head``)
        # is caught also at the last write
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout goes to devnull, so that the flush at interpreter exit stays
        # silent, and the status is a shell's for a process killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 128 + 13
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
