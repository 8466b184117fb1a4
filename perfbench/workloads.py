"""The benchmark's workloads: fixed operations, each with an output check.

A workload is a list of operations. One pass runs each operation once, in
an order shuffled by the seed; the seed changes nothing else. Every
operation returns its output, and its check returns ``None`` when the
output is correct or a one-line reason when it is not. Checks run outside
the timed region.

``smoke=True`` builds the same operations and checks at tiny sizes, so the
benchmark's own tests can run every code path in seconds.

The workloads (see README.md for why each exists):

* ``binary-2048``: the two acceptance-gate profile kinds through the library
  API, at n = 2048.
* ``claims-512``: ``verify all``, ``conjecture all`` and ``kernel`` through
  the in-process CLI.
* ``morphic-spec``: four profiles of a 3-letter morphic spec file through the
  in-process CLI, held to frozen values.
* ``long-prefix``: 1M-symbol ``gen`` output and a 2M-symbol fixed-window
  profile through the in-process CLI.

Each pass takes a few seconds, so a run holds several passes.
"""

from __future__ import annotations

import io
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reduxwords as rw
from reduxwords import cli

from oracle import EXPECTED_PATH, FULL_SIZES, SPEC_PATH, expected_profiles

NON_CONJECTURE_IDS = frozenset({
    "tm_red", "pf_red", "abred_f", "rho_t_A005942", "rho_f_4n",
    "mu_alternation", "tm_max_min", "tm_mod4", "odd_len",
    "f_2n", "f_1mod8", "f_3mod8", "f_5mod8", "f_7mod8",
})
CONJECTURE_IDS = frozenset({"conj_odd_halving", "conj_mod4_gap"})
PASSING_STATUSES = frozenset({"pass", "exception-at-small-n"})
# morphic-spec sizes: the frozen profiles cover FULL_SIZES; a pass uses these.
MORPHIC_SIZES = (("abred", 128), ("red", 256), ("abelian", 128), ("factor", 512))


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """Run ``cli.main`` in process, capturing stdout as bytes and stderr as text."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
        out.flush()
    finally:
        sys.stdout, sys.stderr = saved
    return CliResult(code, out.buffer.getvalue(), err.getvalue())


def resolve_sequence(token: str) -> rw.SequenceHandle:
    """Resolve a sequence token the way the CLI does: a builtin name or a spec path."""
    if token in ("tm", "pf"):
        return rw.thue_morse() if token == "tm" else rw.paperfolding()
    return rw.load_sequence_spec(token)


# -- independent references ------------------------------------------------------

def tm_symbols(count: int) -> np.ndarray:
    """tm(1..count) as the popcount parity of n-1, by xor folding."""
    x = np.arange(count, dtype=np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> np.uint64(shift)
    return (x & np.uint64(1)).astype(np.uint8)


def pf_symbols(count: int) -> np.ndarray:
    """pf(1..count): 0 when the odd part of n is 1 mod 4, else 1."""
    n = np.arange(1, count + 1, dtype=np.int64)
    odd = n // (n & -n)
    return ((odd >> 1) & 1).astype(np.uint8)


def closed_form_values(formula, n_max: int) -> list[int]:
    """Closed-form values for n = 1..n_max, using the declared value at n = 1."""
    values = []
    for n in range(1, n_max + 1):
        try:
            values.append(formula(n))
        except rw.SmallCaseException as exc:
            values.append(exc.known_value)
    return values


# -- output checks ---------------------------------------------------------------

def first_mismatch(label: str, got: list[int], expected: list[int]) -> str | None:
    if len(got) != len(expected):
        return f"{label}: {len(got)} values, expected {len(expected)}"
    for n, (g, e) in enumerate(zip(got, expected), start=1):
        if g != e:
            return f"{label}: n={n} gave {g}, expected {e}"
    return None


def check_profile(profile, expected: list[int]) -> str | None:
    got = [profile.values[n] for n in range(1, len(expected) + 1)]
    return first_mismatch(f"{profile.kind} of {profile.sequence}", got, expected)


def cli_failure(result: CliResult) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[:200]}"
    return None


def parse_csv_profile(result: CliResult) -> list[int]:
    lines = result.stdout.decode("ascii").splitlines()
    if not lines or lines[0] != "n,value":
        raise ValueError("missing 'n,value' header")
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    if [n for n, _ in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("row indices are not 1..n_max")
    return [v for _, v in rows]


def check_csv_profile(label: str, expected: list[int]) -> Callable[[CliResult], str | None]:
    def check(result: CliResult) -> str | None:
        return cli_failure(result) or first_mismatch(label, parse_csv_profile(result), expected)

    return check


def check_raw_symbols(expected: np.ndarray) -> Callable[[CliResult], str | None]:
    def check(result: CliResult) -> str | None:
        if failure := cli_failure(result):
            return failure
        data = np.frombuffer(result.stdout, dtype=np.uint8)
        if data.size != expected.size + 1 or data[-1] != ord("\n"):
            return f"raw output has {data.size} bytes, expected {expected.size + 1}"
        bad = np.flatnonzero(data[:-1] - ord("0") != expected)
        return f"raw symbol {bad[0] + 1} is wrong" if bad.size else None

    return check


def check_bfile_symbols(expected: np.ndarray) -> Callable[[CliResult], str | None]:
    """Check 'n symbol' lines: count, line lengths, the symbol column, and the ends."""

    def check(result: CliResult) -> str | None:
        if failure := cli_failure(result):
            return failure
        data = np.frombuffer(result.stdout, dtype=np.uint8)
        ends = np.flatnonzero(data == ord("\n"))
        count = expected.size
        if ends.size != count or ends[-1] != data.size - 1:
            return f"bfile output has {ends.size} lines, expected {count}"
        n = np.arange(1, count + 1)
        digits = np.ones(count, dtype=np.int64)
        for power in range(1, 19):
            digits += n >= 10**power
        lengths = np.diff(ends, prepend=-1)
        if not np.array_equal(lengths, digits + 3):
            return "bfile line lengths do not match 'n symbol'"
        if not np.all(data[ends - 2] == ord(" ")):
            return "bfile lines do not separate index and symbol by one space"
        bad = np.flatnonzero(data[ends - 1] - ord("0") != expected)
        if bad.size:
            return f"bfile symbol {bad[0] + 1} is wrong"
        first = bytes(data[: ends[0] + 1])
        last = bytes(data[ends[-2] + 1 :]) if count > 1 else first
        if first != f"1 {expected[0]}\n".encode() or last != f"{count} {expected[-1]}\n".encode():
            return "bfile first or last line is wrong"
        return None

    return check


def check_verify_all(result: CliResult) -> str | None:
    if failure := cli_failure(result):
        return failure
    reports = json.loads(result.stdout)
    ids = {r["claim_id"] for r in reports}
    if ids != NON_CONJECTURE_IDS or len(reports) != len(NON_CONJECTURE_IDS):
        return f"verify all reported ids {sorted(ids)}"
    bad = [r["claim_id"] for r in reports if r["status"] not in PASSING_STATUSES]
    return f"claims not passing: {bad}" if bad else None


SUMMARY_LINE = re.compile(r"^(\w+): (\S+) over n=\d+\.\.\d+(.*)$")


def check_conjecture_all(result: CliResult) -> str | None:
    if failure := cli_failure(result):
        return failure
    lines = result.stdout.decode("utf-8").splitlines()
    seen = set()
    for line in lines:
        match = SUMMARY_LINE.match(line)
        if not match:
            return f"unparsed conjecture line {line!r}"
        claim_id, status, suffix = match.groups()
        if status not in PASSING_STATUSES or "counterexamples" in suffix:
            return f"conjecture counterexamples: {line!r}"
        seen.add(claim_id)
    if seen != CONJECTURE_IDS or len(lines) != len(CONJECTURE_IDS):
        return f"conjecture all reported {lines!r}"
    return None


def check_kernel_ranks(expected: list[int]) -> Callable[[CliResult], str | None]:
    def check(result: CliResult) -> str | None:
        if failure := cli_failure(result):
            return failure
        match = re.search(r"ranks by depth = \[([\d, ]*)\]", result.stdout.decode("utf-8"))
        if not match:
            return "kernel output has no ranks"
        ranks = [int(r) for r in match.group(1).split(",")]
        return None if ranks == expected else f"kernel ranks {ranks}, expected {expected}"

    return check


# -- workloads --------------------------------------------------------------------

def binary_2048(smoke: bool) -> list[Op]:
    n = 64 if smoke else 2048

    def tm_red():
        return rw.reduced_factor_complexity(rw.thue_morse(), n)

    def pf_abred():
        return rw.reduced_abelian_complexity(rw.paperfolding(), n)

    tm_expected = closed_form_values(rw.tm_reduced_factor_count, n)
    pf_expected = closed_form_values(rw.pf_reduced_abelian_count, n)
    if pf_expected[0] != 2:
        raise ValueError(f"pf abred declares {pf_expected[0]} at n=1, expected 2")
    return [
        Op("tm-red", tm_red, lambda p: check_profile(p, tm_expected)),
        Op("pf-abred", pf_abred, lambda p: check_profile(p, pf_expected)),
    ]


def claims_512(smoke: bool) -> list[Op]:
    n_verify, n_conjecture, n_kernel, depth = (64, 16, 256, 2) if smoke else (512, 256, 2048, 5)
    ranks = [1, 2, 4, 4, 4, 4][: depth + 1]
    verify_argv = ["verify", "all", "--n-max", str(n_verify), "--json"]
    conjecture_argv = ["conjecture", "all", "--n-max", str(n_conjecture)]
    kernel_argv = ["kernel", "tm", "--kind", "red", "--n-max", str(n_kernel), "--depth", str(depth)]
    return [
        Op("verify-all", lambda: run_cli(verify_argv), check_verify_all),
        Op("conjecture-all", lambda: run_cli(conjecture_argv), check_conjecture_all),
        Op("kernel-tm-red", lambda: run_cli(kernel_argv), check_kernel_ranks(ranks)),
    ]


def morphic_spec(smoke: bool) -> list[Op]:
    if smoke:
        expected = expected_profiles(SPEC_PATH, [(kind, n // 16) for kind, n in FULL_SIZES])
        sizes = {kind: n // 16 for kind, n in FULL_SIZES}
    else:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)["profiles"]
        sizes = dict(MORPHIC_SIZES)
    ops = []
    for kind, _ in FULL_SIZES:
        # Profile values do not depend on n_max, so a smaller run is held to
        # the first n_max frozen values.
        values = expected[kind]["values"][: sizes[kind]]
        argv = ["complexity", SPEC_PATH, kind, "--n-max", str(len(values))]
        ops.append(
            Op(f"{kind}-{len(values)}", lambda argv=argv: run_cli(argv),
               check_csv_profile(f"{kind} of the spec", values))
        )
    return ops


def long_prefix(smoke: bool) -> list[Op]:
    count = 4096 if smoke else 1 << 20
    window = 2 * count
    gen_tm = ["gen", "tm", "--count", str(count), "--format", "bfile"]
    gen_pf = ["gen", "pf", "--count", str(count)]
    profile = ["complexity", "pf", "red", "--n-max", "8", "--fixed-window", str(window)]
    pf_red = closed_form_values(rw.pf_reduced_factor_count, 8)
    return [
        Op("gen-tm-bfile", lambda: run_cli(gen_tm), check_bfile_symbols(tm_symbols(count))),
        Op("gen-pf-raw", lambda: run_cli(gen_pf), check_raw_symbols(pf_symbols(count))),
        Op("pf-red-fixed", lambda: run_cli(profile), check_csv_profile("pf red", pf_red)),
    ]


@dataclass(frozen=True)
class Workload:
    sequences: tuple[str, ...]
    build: Callable[[bool], list[Op]]


WORKLOADS = {
    "binary-2048": Workload(("tm", "pf"), binary_2048),
    "claims-512": Workload(("tm", "pf"), claims_512),
    "morphic-spec": Workload((SPEC_PATH,), morphic_spec),
    "long-prefix": Workload(("tm", "pf"), long_prefix),
}
