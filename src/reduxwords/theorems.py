"""Closed-form evaluators, the claim table, and conjecture scanners.

Each statement the library can check is one row of ``CLAIMS``, under a
stable claim id, and is run in one of three shapes:

- a closed-form row names its sequence, profile kind, closed form and
  residue filter, and one runner compares it with the brute-force engines
  in :mod:`reduxwords.complexity`;
- an identity row (the two tm extremes lemmas and the two conjecture
  scanners) names identities per length on one tm profile and the
  lengths a n + b they read, and one body checks them;
- ``mu_alternation`` and ``odd_len`` are structural checks of their own,
  each with a ``runner(n_max, policy, profiles)``.

Every row but the last two declares what it reads (:meth:`Claim.reads`):
per profile, the lengths it looks at. :func:`verify` runs one row on a
:class:`ProfileStore` that lasts one run: planned with the reads of the
run's claims (:func:`plan_claims`), it takes each kind of a sequence once,
to the longest length the claims read of it, where its morphism proves the
counts (:func:`reduxwords.complexity.proven_counts`, the path the profiles
take too): tm's and pf's binary kinds from the morphism's recursion and the
rest on at most one index; any other profile it computes once. A claim
reads a profile as an int64 array indexed by n, and compares predicted
with observed values at all its lengths at once: a closed-form row calls
its closed form once per length into an array, an identity row evaluates
each identity over an array of n, and every such claim collects its
counterexamples by one rule, :func:`_mismatches`, one ``np.flatnonzero``
of the differences. Conjectures are only ever scanned, and their reports
are evidence, never assertions.

Closed forms are memoized pure functions with explicit base-case tables.
Declared small-case exceptions are raised as :class:`SmallCaseException`
carrying the true value, and the runner records them instead of failing,
provided the engine agrees with the carried value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .complexity import (
    ComplexityProfile,
    WindowPolicy,
    _indexed,
    _profile,
    _proven_prefix,
    proven_counts,
)
from .errors import ConfigurationError, SmallCaseException
from .sequences import (
    BUILTIN_SEQUENCES,
    paperfolding,
    thue_morse,
    thue_morse_morphism,
)
from .words import Word, alternations


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one claim over an index range.

    ``counterexamples`` holds (n, expected, actual) triples; for claims that
    bundle several named identities the expected/actual slots are
    (identity_name, value) pairs. ``declared_exceptions`` maps indices the
    claim explicitly excludes to their known true values; their presence
    downgrades a clean pass to ``exception-at-small-n`` without failing it.
    """

    claim_id: str
    n_lo: int
    n_hi: int
    status: str
    counterexamples: tuple = ()
    declared_exceptions: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _status(counterexamples, declared_exceptions=None) -> str:
    if counterexamples:
        return "fail"
    return "exception-at-small-n" if declared_exceptions else "pass"


def _mismatches(ns: np.ndarray, expected: np.ndarray, actual: np.ndarray, names=(None,)) -> list:
    """Counterexamples where ``expected`` and ``actual``, a row per n of ``ns``
    and a column per name of ``names``, differ, in order of n and then of
    name: ``(n, expected, actual)``, or ``(n, (name, expected), (name,
    actual))`` when the row names one of several identities checked at n.
    Every number in them is a Python int."""
    bad = np.flatnonzero(expected != actual)  # row-major: by n, then by name
    n = ns[bad // len(names)].tolist()
    expected, actual = expected.ravel()[bad].tolist(), actual.ravel()[bad].tolist()
    if names == (None,):
        return list(zip(n, expected, actual))
    named = [names[i] for i in (bad % len(names)).tolist()]
    return [(m, (name, e), (name, a)) for m, name, e, a in zip(n, named, expected, actual)]


def _report(claim_id, n_lo, n_hi, counterexamples, declared_exceptions=None, details=None):
    declared_exceptions = declared_exceptions or {}
    return VerificationReport(
        claim_id=claim_id,
        n_lo=n_lo,
        n_hi=n_hi,
        status=_status(counterexamples, declared_exceptions),
        counterexamples=tuple(counterexamples),
        declared_exceptions=declared_exceptions,
        details=details or {},
    )


# -- closed forms ---------------------------------------------------------------

@lru_cache(maxsize=None)
def tm_factor_count(n: int) -> int:
    """Distinct factor count of tm by the classical halving recursion.

    The recursion f(2m) = f(m) + f(m+1), f(2m+1) = 2 f(m+1) needs three
    seeded values to be well founded: f(2) refers to itself through the even
    branch and f(3) = 2 f(2) = 8 would contradict the true value 6.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n <= 3:
        return {1: 2, 2: 4, 3: 6}[n]
    if n % 2 == 0:
        return tm_factor_count(n // 2) + tm_factor_count(n // 2 + 1)
    return 2 * tm_factor_count((n + 1) // 2)


@lru_cache(maxsize=None)
def tm_reduced_factor_count(n: int) -> int:
    """Distinct reduced-factor count of tm by its halving recursion.

    Odd n descends to (n+1)/2; even n = 4m or 4m+2 descends to m+1 and adds
    two classes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n <= 2:
        return {1: 2, 2: 4}[n]
    if n % 2 == 1:
        return tm_reduced_factor_count((n + 1) // 2)
    return tm_reduced_factor_count(n // 4 + 1) + 2


_PF_FACTOR_SMALL = {1: 2, 2: 4, 3: 8, 4: 12, 5: 18, 6: 23}


def pf_factor_count(n: int) -> int:
    """Distinct factor count of pf: tabulated through n=6, then exactly 4n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n <= 6:
        return _PF_FACTOR_SMALL[n]
    return 4 * n


def pf_reduced_factor_count(n: int) -> int:
    """Distinct reduced-factor count of pf: 6 at residues 3,5,7 mod 8, else 4.

    The single length outside the pattern is n=1, whose true count is 2;
    that case raises SmallCaseException rather than returning a wrong value.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        raise SmallCaseException(1, 2)
    return 6 if n % 8 in (3, 5, 7) else 4


def pf_reduced_abelian_count(n: int) -> int:
    """Reduced abelian count of pf: 3 for even n, 4 at 1 mod 4, 5 at 3 mod 4.

    n=1 falls outside the pattern (true count 2) and raises
    SmallCaseException.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        raise SmallCaseException(1, 2)
    if n % 2 == 0:
        return 3
    return 4 if n % 4 == 1 else 5


# -- profile store and the closed-form runner -------------------------------------

class Read(NamedTuple):
    """A claim's read: the ``kind`` profile of a builtin ``sequence`` at n,
    read at ``lengths`` (an increasing int64 array, all at most n)."""

    sequence: str
    kind: str
    n: int
    lengths: np.ndarray


class ProfileStore:
    """The profiles that one run of claims reads.

    A claim asks for a :class:`Read` under a policy, and gets the profile's
    values as an int64 array indexed by n (slot 0 unused; an extremes
    profile has a column each for the least and the greatest), with its
    ``certified_window``. The store computes each (sequence, kind, n,
    policy) profile once, as the profile functions of
    :mod:`reduxwords.complexity` do, and keeps it in ``profiles``; it turns
    such a profile's values into that array when it is read.

    A planned store (:func:`plan_claims`) also holds in ``planned`` the
    longest length the run's claims read, per (sequence, kind). A read at n
    up to that length is served from one table when the profile at n under
    the read's policy would be proven, that is, counted on a prefix that
    the sequence's morphism proves holds every factor; ``proofs`` keeps
    that prefix per (sequence, n, policy). The first such read of a
    sequence takes each of its planned kinds once, to its longest length,
    by the path the profiles take (:func:`proven_counts`): tm's and pf's
    ``red``, ``abred`` and ``extremes`` from their morphism's recursion, and
    every other kind on one index of a proven prefix. It keeps those arrays
    in ``tables`` (None where the profiles at the longest length N of all
    would not be counted so), and a served read hands its claim the kind's
    array itself. Those values are the sequence's own at every n <= N
    (Allouche and Shallit, Automatic Sequences, 2003, ch. 7 and 10), so
    they are the profile's, and the read reports the ``certified_window``
    that profile reports, the policy's initial window at n. Every other
    read computes its profile, so its values, capacity errors and
    certification failures are those of the profile at n.
    """

    def __init__(self):
        self.planned: dict[tuple[str, str], int] = {}
        self.tables: dict[str, dict[str, np.ndarray] | None] = {}
        self.proofs: dict[tuple, int | None] = {}
        self.profiles: dict = {}

    def values(self, read: Read, policy: WindowPolicy | None) -> tuple[np.ndarray, int]:
        """The values of the read's profile, indexed by n, and its ``certified_window``."""
        policy = policy or WindowPolicy()
        key = (read.sequence, read.kind, read.n, policy)
        if key not in self.profiles:
            served = self._served(read, policy)
            if served is not None:
                return served
            self.profiles[key] = _profile(BUILTIN_SEQUENCES[read.sequence](), read.n, policy, read.kind)
        profile = self.profiles[key]
        return _indexed(profile.values), profile.certified_window

    def _served(self, read: Read, policy: WindowPolicy) -> tuple[np.ndarray, int] | None:
        longest = self.planned.get((read.sequence, read.kind))
        if read.n < 1 or longest is None or read.n > longest:
            return None
        make = BUILTIN_SEQUENCES[read.sequence]
        proof = (read.sequence, read.n, policy)
        if proof not in self.proofs:
            self.proofs[proof] = _proven_prefix(make(), read.n, policy)
        if self.proofs[proof] is None:
            return None
        if read.sequence not in self.tables:
            planned = {kind: n for (seq, kind), n in self.planned.items() if seq == read.sequence}
            self.tables[read.sequence] = proven_counts(make(), policy, planned)
        table = self.tables[read.sequence]
        if table is None:
            return None
        return table[read.kind], policy.initial_window(read.n)


def plan_claims(claim_ids: Iterable[str], n_max: int | None = None) -> ProfileStore:
    """A store planned with the longest length that the claims ``claim_ids``
    read of each (sequence, kind) at ``n_max`` (each claim's default when
    None). An unknown id reads nothing, and a read of no lengths plans
    nothing."""
    store = ProfileStore()
    for claim_id in claim_ids:
        claim = CLAIMS.get(claim_id)
        if claim is None:
            continue
        for read in claim.reads(claim.default_n_max if n_max is None else n_max):
            if len(read.lengths):
                key = (read.sequence, read.kind)
                store.planned[key] = max(store.planned.get(key, 0), read.n)
    return store


def _check_closed_form(claim: Claim, n_max: int, policy, profiles: ProfileStore) -> VerificationReport:
    """Compare a closed-form row with its stored profile at the lengths its residues keep."""
    read, *bridge = claim.reads(n_max)
    values, window = profiles.values(read, policy)
    expected, exceptions = [], {}
    for n in read.lengths.tolist():
        try:
            expected.append(claim.closed_form(n))
        except SmallCaseException as exc:
            exceptions[exc.n] = exc.known_value
            expected.append(exc.known_value)
    counterexamples = _mismatches(read.lengths, np.array(expected, dtype=np.int64), values[read.lengths])
    details = {"checked": len(read.lengths), "certified_window": window}
    if bridge:
        extremes, extremes_window = profiles.values(bridge[0], policy)
        every = bridge[0].lengths
        # each alternation count between the least and the greatest, with
        # either first symbol
        least, greatest = extremes[every].T
        bridged = _mismatches(every, 2 * (greatest - least + 1), values[every])
        details.update(
            recursion_status=_status(counterexamples, exceptions),
            bridge_status=_status(bridged),
            extremes_certified_window=extremes_window,
        )
        counterexamples += bridged
    return _report(claim.claim_id, 1, n_max, counterexamples, exceptions, details)


# -- structural lemma checks ------------------------------------------------------

MU_CHECK_HARD_CAP = 18


_POPCOUNT_BYTE = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each nonnegative int64, a byte at a time through a table."""
    count = np.zeros(len(x), dtype=np.int64)
    while x.any():
        count += _POPCOUNT_BYTE[x & 255]
        x = x >> 8
    return count


def check_mu_alternation(max_len: int = 12) -> VerificationReport:
    """Exhaustively confirm how the tm morphism transforms alternation counts.

    For every binary word w of each length up to max_len, the image under
    0 -> 01, 1 -> 10 must contain exactly 2|w| - 1 - alternations(w)
    alternations. The enumeration is exponential, hence the hard cap.
    """
    if max_len < 1:
        raise ConfigurationError("max_len must be >= 1")
    if max_len > MU_CHECK_HARD_CAP:
        raise ConfigurationError(
            f"exhaustive check above length {MU_CHECK_HARD_CAP} is unreasonable, got {max_len}"
        )
    images = [thue_morse_morphism().images[a] for a in (0, 1)]
    # the image of w alternates inside each letter's image and where the
    # image of one letter meets the image of the next
    inner = [alternations(Word(image)) for image in images]
    first = [image[0] for image in images]
    last = [image[-1] for image in images]
    counterexamples = []
    checked = 0
    for length in range(1, max_len + 1):
        # word b has bit i of b as its i-th symbol; bit i of a mask below
        # stands for the pair of symbols i and i + 1
        words = np.arange(1 << length, dtype=np.int64)
        full, pairs = (1 << length) - 1, (1 << (length - 1)) - 1
        # the words whose i-th symbol is the last, and the first, symbol of
        # the image of symbol i of w
        ends, starts = ((words & (full * t[1])) | (~words & (full * t[0])) for t in (last, first))
        ones = _popcount(words)
        expected = 2 * length - 1 - _popcount((words ^ (words >> 1)) & pairs)
        actual = inner[1] * ones + inner[0] * (length - ones)
        actual += _popcount((ends ^ (starts >> 1)) & pairs)
        checked += len(words)
        bad = np.flatnonzero(actual != expected)
        counterexamples += zip([length] * len(bad), expected[bad].tolist(), actual[bad].tolist())
    return _report("mu_alternation", 1, max_len, counterexamples, details={"words_checked": checked})


def check_alternating_skeleton_runs(
    n_max: int = 129,
    policy: WindowPolicy | None = None,
) -> VerificationReport:
    """Check run counts of odd pf windows whose every-other-symbol skeleton alternates.

    A window of length 2k+1 qualifies when its symbols at offsets
    0, 2, ..., 2k alternate strictly; the claim is that such a window always
    has exactly k+1 runs. Windows starting at odd 1-based positions always
    qualify, because pf restricted to odd positions alternates globally.
    """
    if n_max < 3:
        raise ConfigurationError("n_max must be >= 3")
    window = (policy or WindowPolicy()).initial_window(n_max)
    arr = paperfolding().prefix_symbols(window)
    length = len(arr)
    longest = (n_max - 1) // 2  # windows 2k + 1 for k = 1..longest
    # skeleton[s] = length of the maximal strictly alternating stride-2 chain
    # starting at s: one more than the steps of 2 from s to the first t >= s
    # with arr[t] == arr[t + 2] (the last two positions end every chain)
    positions = np.arange(length)
    stops = np.where(np.r_[arr[:-2] == arr[2:], True, True], positions, length)
    skeleton = np.empty(length, dtype=np.int64)
    for parity in (0, 1):
        stop = np.minimum.accumulate(stops[parity::2][::-1])[::-1]
        skeleton[parity::2] = 1 + (stop - positions[parity::2]) // 2

    # the window 2k + 1 at s qualifies for k < skeleton[s], and then fits
    # before the end, since the chain does
    qualifying = int(np.minimum(skeleton - 1, longest).sum())
    # 0-based even start = 1-based odd position; at 2k + 1 the even starts
    # below length - 2k all qualify when their least skeleton exceeds k
    ks = np.arange(1, longest + 1)
    least = np.minimum.accumulate(skeleton[0::2])
    odd_start_misses = int(np.count_nonzero(least[(length - 2 * ks - 1) // 2] <= ks))

    # a qualifying window is k chain steps p -> p + 2 with arr[p] != arr[p + 2],
    # so it has k alternations unless some such step adds other than one
    # (never in a binary word, whose middle symbol equals one of the two)
    step = (arr[:-2] != arr[1:-1]).astype(np.int64) + (arr[1:-1] != arr[2:])
    counterexamples = []
    if np.any((arr[:-2] != arr[2:]) & (step != 1)):
        # alt[i] counts the unequal adjacent pairs among positions 0..i
        alt = np.zeros(length, dtype=np.int64)
        np.cumsum(arr[1:] != arr[:-1], out=alt[1:])
        for k in ks.tolist():
            n = 2 * k + 1
            starts = length - n + 1
            d = alt[n - 1 :] - alt[:starts]
            bad = np.nonzero((skeleton[:starts] >= k + 1) & (d != k))[0]
            if bad.size:
                counterexamples.append((n, k + 1, int(d[bad[0]]) + 1))
    return _report(
        "odd_len", 3, n_max, counterexamples,
        details={
            "window": window,
            "qualifying_windows": qualifying,
            "odd_start_lengths_missing_qualification": odd_start_misses,
        },
    )


# -- per-length identities on one tm profile: the extremes lemmas and the scans ----

@dataclass(frozen=True)
class Identities:
    """Named identities checked per n, for n_lo <= n <= n_max, on one tm profile.

    ``kind`` is the profile read (``extremes`` or ``abred``), at the lengths
    a n + b for each pair (a, b) of ``at`` and each n, so up to the largest
    a n_max + b. ``check(*columns, ns)`` gives (name, lhs, rhs) triples, an
    array of lhs and one of rhs over the int64 array ``ns``, the name
    ``None`` for a claim of one identity; the columns are arrays indexed by
    n, the minima and the maxima of an extremes table, or the values of any
    other profile. ``details(*columns, n_max)`` adds to the report's details.
    """

    kind: str
    n_lo: int
    at: tuple[tuple[int, int], ...]
    check: Callable
    details: Callable | None = None

    def read(self, n_max: int) -> Read:
        longest = max(a * n_max + b for a, b in self.at)
        n = np.arange(self.n_lo, n_max + 1)
        wanted = np.zeros(max(longest, 0) + 1, dtype=bool)
        wanted[np.concatenate([a * n + b for a, b in self.at])] = True
        return Read("tm", self.kind, longest, np.flatnonzero(wanted).astype(np.int64))


def _check_identities(
    claim: Claim, n_max: int, policy, profiles: ProfileStore | None, table=None
) -> VerificationReport:
    """Check the identities of ``claim`` at every n on its tm profile:
    ``table``, or else the one in ``profiles``."""
    identities = claim.identities
    least = max(identities.n_lo, 1)  # the range n_lo..n_max holds some n >= 1
    if n_max < least:
        raise ConfigurationError(f"n_max must be >= {least}")
    read = identities.read(n_max)
    if table is None:
        values, window = (profiles if profiles is not None else ProfileStore()).values(read, policy)
    elif max(table.values) < read.n:
        raise ConfigurationError(f"supplied {read.kind} table stops at {max(table.values)}, need {read.n}")
    else:
        values, window = _indexed(table.values), table.certified_window
    columns = tuple(values.T) if read.kind == "extremes" else (values,)
    ns = np.arange(identities.n_lo, n_max + 1, dtype=np.int64)
    names, lhs, rhs = zip(*identities.check(*columns, ns))
    # a row per n, a column per identity
    counterexamples = _mismatches(ns, np.transpose(rhs), np.transpose(lhs), names)
    details = {"certified_window": window}
    if identities.details:
        details.update(identities.details(*columns, n_max))
    return _report(claim.claim_id, identities.n_lo, n_max, counterexamples, details=details)


def check_extremes_halving(
    n_max: int = 512,
    policy: WindowPolicy | None = None,
    profiles: ProfileStore | None = None,
    *,
    table: ComplexityProfile | None = None,
) -> VerificationReport:
    """Check the four identities relating extremes at 2n and 2n+1 to n and n+1, on the
    tm extremes table up to 2 n_max + 1: ``table``, or else the one in ``profiles``."""
    return _check_identities(CLAIMS["tm_max_min"], n_max, policy, profiles, table)


def check_extremes_mod4(
    n_max: int = 512,
    policy: WindowPolicy | None = None,
    profiles: ProfileStore | None = None,
    *,
    table: ComplexityProfile | None = None,
) -> VerificationReport:
    """Check the four identities relating extremes at 4n and 4n+2 to n+1, on the
    tm extremes table up to 4 n_max + 2: ``table``, or else the one in ``profiles``."""
    return _check_identities(CLAIMS["tm_mod4"], n_max, policy, profiles, table)


def scan_odd_halving(
    n_max: int = 256,
    policy: WindowPolicy | None = None,
    profiles: ProfileStore | None = None,
) -> VerificationReport:
    """Scan the observed halving of the reduced abelian count of tm at odd lengths.

    Reports whether value(2n+1) = value(n+1) for 0 <= n <= n_max. This is an
    open statement: the scan gathers evidence and never asserts it.
    """
    return _check_identities(CLAIMS["conj_odd_halving"], n_max, policy, profiles)


def scan_mod4_gap(
    n_max: int = 256,
    policy: WindowPolicy | None = None,
    profiles: ProfileStore | None = None,
) -> VerificationReport:
    """Scan the mod-4 gap law for the reduced abelian count of tm.

    For each n the absolute difference value(4n+2) - value(4n) is compared
    with the predicate [tm(n+1) != tm(3n+1)]: equal symbols should give gap
    0, unequal symbols gap 1. The sign of each nonzero gap is genuinely open;
    the scanner records the pattern in details and draws no conclusion.
    """
    return _check_identities(CLAIMS["conj_mod4_gap"], n_max, policy, profiles)


def _gap_law(v, ns):
    tm = thue_morse().prefix_symbols(3 * int(ns[-1]) + 1)  # tm[k] is tm(k + 1)
    return ((None, np.abs(v[4 * ns + 2] - v[4 * ns]), (tm[ns] != tm[3 * ns]).astype(np.int64)),)


def _gap_signs(v, n_max: int) -> dict:
    ns = np.arange(1, n_max + 1)
    signs = np.sign(v[4 * ns + 2] - v[4 * ns])
    return {
        "sign_pattern": np.array([b"-", b"0", b"+"])[signs + 1].tobytes().decode(),
        "zero": int(np.count_nonzero(signs == 0)),
        "positive": int(np.count_nonzero(signs > 0)),
        "negative": int(np.count_nonzero(signs < 0)),
    }


# -- empirical regularity estimate ----------------------------------------------

@dataclass(frozen=True)
class KernelEstimate:
    """Exact rank of the subsequence space a(b^e n + r), per depth e."""

    base: int
    depth: int
    terms: int
    ranks: tuple[int, ...]

    @property
    def final_rank(self) -> int:
        return self.ranks[-1]

    @property
    def stabilized(self) -> bool:
        return len(self.ranks) >= 2 and self.ranks[-1] == self.ranks[-2]


def _fold_into_basis(basis: dict[int, list[int]], row: list[int]) -> bool:
    """Reduce row against the basis with integer arithmetic; add if independent."""
    row = list(row)
    for j in range(len(row)):
        if row[j] == 0:
            continue
        if j in basis:
            pivot = basis[j]
            pj, rj = pivot[j], row[j]
            row = [pj * a - rj * b for a, b in zip(row, pivot)]
        else:
            g = reduce(math.gcd, row)
            basis[j] = [v // g for v in row]
            return True
    return False


def check_kernel_arguments(available: int, base: int, depth: int, terms: int) -> None:
    """Raise unless ``available`` values fill every row of a kernel rank with these arguments."""
    if base < 2:
        raise ConfigurationError("base must be >= 2")
    if depth < 0:
        raise ConfigurationError("depth must be >= 0")
    if terms < 1:
        raise ConfigurationError("terms must be >= 1")
    if depth * (base.bit_length() - 1) > available.bit_length():
        # base**depth > 2**available.bit_length() > available: a count too
        # large to build or print
        raise ConfigurationError(
            f"need more than {available} values for base={base}, depth={depth}, "
            f"terms={terms}; got {available}"
        )
    needed = base**depth * terms
    if available < needed:
        raise ConfigurationError(
            f"need at least {needed} values for base={base}, depth={depth}, "
            f"terms={terms}; got {available}"
        )


def kernel_rank(
    values: Sequence[int],
    base: int = 2,
    depth: int = 4,
    terms: int = 64,
) -> KernelEstimate:
    """Rank of the space spanned by arithmetic subsequences of ``values``.

    The sequence is read 0-indexed. For each level e up to ``depth``, every
    subsequence n -> values[base^e * n + r] with 0 <= r < base^e contributes
    its first ``terms`` entries as a row; ranks[e] is the exact rank of all
    rows collected through level e, so the tuple is non-decreasing. A rank
    that stops growing as the depth increases is the numerical signature of
    a base-``base`` regular sequence.

    Requires len(values) >= base^depth * terms so every row is full length.
    """
    check_kernel_arguments(len(values), base, depth, terms)
    values = [int(v) for v in values]
    basis: dict[int, list[int]] = {}
    ranks = []
    for e in range(depth + 1):
        step = base**e
        for r in range(step):
            _fold_into_basis(basis, values[r : r + step * terms : step])
        ranks.append(len(basis))
    return KernelEstimate(base=base, depth=depth, terms=terms, ranks=tuple(ranks))


def profile_kernel_rank(
    profile: ComplexityProfile,
    base: int = 2,
    depth: int = 4,
    terms: int = 64,
) -> KernelEstimate:
    """Kernel rank of a profile's value sequence, read off in index order."""
    n_hi = max(profile.values)
    values = [profile.values[n] for n in range(1, n_hi + 1)]
    return kernel_rank(values, base=base, depth=depth, terms=terms)


# -- claim table -------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One row of the claim table.

    A closed-form row names a builtin ``sequence``, the ``profile_kind`` it
    reads (``factor``, ``red`` or ``abred``), the ``closed_form`` predicting
    each value, and optionally the residues mod 8 it is checked at; with
    ``bridge`` set, each value is also predicted from the sequence's
    alternation extremes. An identity row carries its ``identities`` on one
    tm profile. One runner serves each of these shapes, and compares the
    values of every length it reads at once, on the profile's array
    (:class:`ProfileStore`). Any other row carries its own
    ``runner(n_max, policy, profiles)``.
    """

    claim_id: str
    kind: str
    summary: str
    default_n_max: int
    runner: Callable[..., VerificationReport] | None = None
    sequence: str | None = None
    profile_kind: str | None = None
    closed_form: Callable[[int], int] | None = None
    residues_mod8: tuple[int, ...] | None = None
    bridge: bool = False
    identities: Identities | None = None

    def reads(self, n_max: int) -> list[Read]:
        """The profiles the row reads at ``n_max``, and the lengths it reads of each."""
        if self.identities is not None:
            return [self.identities.read(n_max)]
        if self.closed_form is None:
            return []
        every = ns = np.arange(1, n_max + 1, dtype=np.int64)
        if self.residues_mod8 is not None:
            ns = every[np.any(every[:, None] % 8 == self.residues_mod8, axis=1)]
        reads = [Read(self.sequence, self.profile_kind, n_max, ns)]
        if self.bridge:
            reads.append(Read(self.sequence, "extremes", n_max, every))
        return reads


_PF_RED = {"sequence": "pf", "profile_kind": "red", "closed_form": pf_reduced_factor_count}

CLAIMS: dict[str, Claim] = {
    c.claim_id: c
    for c in (
        Claim(
            "tm_red", "theorem",
            "reduced factor count of tm satisfies its halving recursion and the extremes bridge",
            512, sequence="tm", profile_kind="red", closed_form=tm_reduced_factor_count,
            bridge=True,
        ),
        Claim(
            "pf_red", "theorem",
            "reduced factor count of pf is 6 at residues 3,5,7 mod 8, else 4 (n=1 excepted)",
            512, **_PF_RED,
        ),
        Claim(
            "abred_f", "theorem",
            "reduced abelian count of pf is 3/4/5 by residue mod 4 (n=1 excepted)",
            512, sequence="pf", profile_kind="abred", closed_form=pf_reduced_abelian_count,
        ),
        Claim(
            "rho_t_A005942", "theorem",
            "factor count of tm satisfies the A005942 recursion",
            512, sequence="tm", profile_kind="factor", closed_form=tm_factor_count,
        ),
        Claim(
            "rho_f_4n", "theorem",
            "factor count of pf is 4n for n >= 7",
            512, sequence="pf", profile_kind="factor", closed_form=pf_factor_count,
        ),
        Claim(
            "mu_alternation", "lemma",
            "the tm morphism maps alternation count a to 2|w|-1-a",
            # the enumeration is exponential, so a blanket n_max (as from
            # `verify all`) is clamped; the report's n_hi shows the range run
            12, lambda n_max, policy, profiles: check_mu_alternation(min(n_max, 14)),
        ),
        Claim(
            "tm_max_min", "lemma",
            "alternation extremes of tm at 2n and 2n+1 reduce to n and n+1",
            512, identities=Identities(
                "extremes", 2, ((1, 0), (1, 1), (2, 0), (2, 1)),
                lambda m, big, n: (
                    ("min_at_2n", m[2 * n], 2 * n - 1 - big[n + 1]),
                    ("max_at_2n", big[2 * n], 2 * n - 1 - m[n]),
                    ("min_at_2n+1", m[2 * n + 1], 2 * n - big[n + 1]),
                    ("max_at_2n+1", big[2 * n + 1], 2 * n - m[n + 1]),
                ),
            ),
        ),
        Claim(
            "tm_mod4", "lemma",
            "alternation extremes of tm at 4n and 4n+2 reduce to n+1",
            512, identities=Identities(
                "extremes", 1, ((1, 1), (4, 0), (4, 2)),
                lambda m, big, n: (
                    ("min_at_4n", m[4 * n], 2 * n - 1 + m[n + 1]),
                    ("max_at_4n", big[4 * n], 2 * n + big[n + 1]),
                    ("min_at_4n+2", m[4 * n + 2], 2 * n + m[n + 1]),
                    ("max_at_4n+2", big[4 * n + 2], 2 * n + 1 + big[n + 1]),
                ),
            ),
        ),
        Claim(
            "odd_len", "lemma",
            "odd pf windows with alternating stride-2 skeleton have (len+1)/2 runs",
            129, lambda n_max, policy, profiles: check_alternating_skeleton_runs(n_max, policy),
        ),
        Claim(
            "f_2n", "lemma",
            "reduced factor count of pf is 4 at every even length",
            512, **_PF_RED, residues_mod8=(0, 2, 4, 6),
        ),
        Claim(
            "f_1mod8", "lemma",
            "reduced factor count of pf is 4 at lengths 1 mod 8 (n=1 excepted)",
            512, **_PF_RED, residues_mod8=(1,),
        ),
        Claim(
            "f_3mod8", "lemma",
            "reduced factor count of pf is 6 at lengths 3 mod 8",
            512, **_PF_RED, residues_mod8=(3,),
        ),
        Claim(
            "f_5mod8", "lemma",
            "reduced factor count of pf is 6 at lengths 5 mod 8",
            512, **_PF_RED, residues_mod8=(5,),
        ),
        Claim(
            "f_7mod8", "lemma",
            "reduced factor count of pf is 6 at lengths 7 mod 8",
            512, **_PF_RED, residues_mod8=(7,),
        ),
        Claim(
            "conj_odd_halving", "conjecture",
            "scan: reduced abelian count of tm at 2n+1 equals its value at n+1",
            256, identities=Identities(
                "abred", 0, ((2, 1), (1, 1)),
                lambda v, n: ((None, v[2 * n + 1], v[n + 1]),),
                lambda v, n_max: {"scanned": n_max + 1},
            ),
        ),
        Claim(
            "conj_mod4_gap", "conjecture",
            "scan: |gap at 4n+2 vs 4n| of tm reduced abelian count matches a tm predicate",
            256, identities=Identities(
                "abred", 1, ((4, 0), (4, 2)),
                _gap_law, _gap_signs,
            ),
        ),
    )
}


def verify(
    claim_id: str,
    n_max: int | None = None,
    policy: WindowPolicy | None = None,
    profiles: ProfileStore | None = None,
) -> VerificationReport:
    """Run one row of the claim table.

    Pass the same ``profiles`` store, planned with the run's claims
    (:func:`plan_claims`), to every call of a run: where a sequence's
    morphism proves the counts, each of its kinds is then taken once to the
    longest length the claims read, and every other profile is computed once.
    Without one, the call plans a store for this claim alone. The
    reports are those of a computation of each profile at the length the
    claim reads it. A configuration error raised by the claim carries its
    id.
    """
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise ConfigurationError(
            f"unknown claim id {claim_id!r}; known ids: {', '.join(sorted(CLAIMS))}"
        )
    bound = n_max if n_max is not None else claim.default_n_max
    if profiles is None:
        profiles = plan_claims([claim_id], bound)
    try:
        if claim.identities is not None:
            return _check_identities(claim, bound, policy, profiles)
        if claim.closed_form is not None:
            return _check_closed_form(claim, bound, policy, profiles)
        return claim.runner(bound, policy, profiles)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{claim_id}: {exc}") from exc
