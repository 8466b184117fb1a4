"""Window-scan engines for factor-style complexity functions.

Each complexity notion counts the distinct classes of the length-n windows
of a long finite prefix, for every n up to ``n_max``. The class keys are

* ``factor``: the window itself,
* ``abelian``: the window's symbol-count vector,
* ``reduced_factor``: the window's run-length reduction,
* ``reduced_abelian``: the symbol-count vector of the reduction.

All four kinds, and the per-length alternation extremes, read one index,
:class:`AlternationPrefix`. For a prefix of length L and the largest window
N it picks one *representative start* per distinct length-N window (its
first occurrence), plus the N-1 tail starts L-N+1..L-1. A length-n window
at any start s <= L-N is a prefix of the length-N window at s, which is
equal to the one at its representative, so the representatives with room
for a length-n window hold every distinct length-n window. The counts are
therefore exactly those of a scan over all L-n+1 starts.

The representatives are found exactly, without hashing, by prefix doubling
(Karp, Miller and Rosenberg): windows of length 2k get names from the pair
of names of their two halves. Names are packed integers (literal windows at
first) while they fit in 32 bits, and are compressed to ranks by a sort
only when they no longer do; either way they sort as the windows do.
``factor`` sorts the representatives' windows by name and finds each one's
common prefix with its predecessor from the same names; the other kinds
evaluate a key per representative and length. With D distinct length-N
windows, the index takes log N packing passes over the L starts (plus the
sorts), and the counts evaluate N(D + N) keys: O(L log N + N D) when
D >= N, as for tm and pf (D is about 4N), instead of O(N L) for every start
at every length.

A finite scan can only undercount the infinite sequence, so counts are
certified empirically: the scan is repeated at twice the window and must
agree on every value. ``certified_window`` records the smaller of the two
agreeing windows. This is evidence, not proof; proofs live in
:mod:`reduxwords.theorems`.

Window starts are 0-based internally; the public profile maps window length
``n`` (>= 1) to its count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, StabilizationError
from .sequences import SequenceHandle, _uint_dtype

Counts = dict[int, int]


@dataclass(frozen=True)
class WindowPolicy:
    """How long a prefix to scan and how to certify the counts.

    In ``stabilize`` mode the first scan uses ``initial_multiplier * n_max``
    symbols and the window doubles until two consecutive scans agree
    everywhere, up to ``max_doublings`` doublings. In ``fixed`` mode a single
    scan is performed at ``fixed_length`` (or the initial window if unset)
    with no agreement check.
    """

    initial_multiplier: int = 32
    max_doublings: int = 6
    mode: str = "stabilize"
    fixed_length: int | None = None

    def __post_init__(self):
        if self.mode not in ("stabilize", "fixed"):
            raise ConfigurationError(f"mode must be 'stabilize' or 'fixed', got {self.mode!r}")
        if self.initial_multiplier < 1:
            raise ConfigurationError("initial_multiplier must be >= 1")
        if self.max_doublings < 1:
            raise ConfigurationError("max_doublings must be >= 1")
        if self.fixed_length is not None and self.mode != "fixed":
            raise ConfigurationError("fixed_length only applies to mode='fixed'")

    def initial_window(self, n_max: int) -> int:
        return self.initial_multiplier * n_max


@dataclass(frozen=True)
class ComplexityProfile:
    """Counts per window length, with the window that certified them."""

    kind: str
    sequence: str
    values: Counts
    certified_window: int

    def value(self, n: int) -> int:
        return self.values[n]

    def as_rows(self) -> list[tuple[int, int]]:
        return sorted(self.values.items())


@dataclass(frozen=True)
class ExtremesTable:
    """Min and max window alternation counts per length."""

    sequence: str
    minima: Counts
    maxima: Counts
    certified_window: int

    def as_rows(self) -> list[tuple[int, int, int]]:
        return [(n, self.minima[n], self.maxima[n]) for n in sorted(self.minima)]


def reduced_complexity_from_extremes(table: ExtremesTable, n: int) -> int:
    """Reduced factor count predicted from window alternation extremes.

    Valid for sequences whose length-n windows realize every alternation
    count between the minimum and the maximum, with both starting symbols.
    """
    return 2 * (table.maxima[n] - table.minima[n] + 1)


def _doubling_names(arr: np.ndarray, alphabet_size: int, n_max: int):
    """Yield ``(span, names)`` for span = 1, 2, 4, ... and finally ``n_max``.

    ``names[s]`` names the length-``span`` window at ``s``, padded past the
    prefix end with a symbol below every other: equal names, equal windows,
    and names sort as their windows do. Doubling names the length-``new``
    window at s by the pair of names at s and at s + new - span, whose
    windows cover it. Pairs pack into one integer; once a pair would need
    more than 32 bits, the names are first replaced by their ranks. Name 0
    is the empty window past the end.
    """
    width = alphabet_size.bit_length()
    names = arr.astype(_uint_dtype(width)) + 1
    span = 1
    yield span, names
    while span < n_max:
        if 2 * width > 32:
            ordered = np.sort(names)
            distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
            width = len(distinct).bit_length()
            names = (np.searchsorted(distinct, names) + 1).astype(_uint_dtype(width))
        new = min(2 * span, n_max)
        shift = new - span
        halves = names
        names = halves.astype(_uint_dtype(2 * width))
        names <<= width
        names[: len(names) - shift] |= halves[shift:]
        width *= 2
        span = new
        yield span, names


class AlternationPrefix:
    """Per-position alternation index over a fixed finite prefix.

    ``alt[i]`` counts adjacent unequal pairs among positions 0..i, so the
    window starting at ``s`` of length ``n`` has ``alt[s+n-1] - alt[s]``
    alternations, and ``alt[s]`` is the index of the run containing position
    ``s``. ``run_symbols`` lists one symbol per run (as bytes of the symbol
    dtype); the reduction of the window is ``run_symbols`` from run
    ``alt[s]`` through run ``alt[s+n-1]``.

    With ``n_max`` the index also holds ``representatives``: the sorted
    first-occurrence starts of the distinct length-``n_max`` windows, then
    the ``n_max - 1`` tail starts. :meth:`starts` gives those with room for a
    length-n window; together they hold every distinct length-n window.
    Symbols are stored in the narrowest unsigned dtype for the alphabet.
    """

    def __init__(self, symbols: Sequence[int], alphabet_size: int, n_max: int | None = None):
        if len(symbols) == 0:
            raise ConfigurationError("cannot index an empty prefix")
        if alphabet_size < 1:
            raise ConfigurationError("alphabet_size must be positive")
        dtype = _uint_dtype(max(1, (alphabet_size - 1).bit_length()))
        try:
            self.arr = np.asarray(symbols, dtype=dtype)
        except OverflowError as exc:
            raise ConfigurationError(f"symbols outside an alphabet of {alphabet_size}") from exc
        if int(self.arr.max()) >= alphabet_size:
            raise ConfigurationError(f"symbols outside an alphabet of {alphabet_size}")
        self.alphabet_size = alphabet_size
        self.length = len(self.arr)
        self.n_max = n_max
        if n_max is not None:
            if not (1 <= n_max <= self.length):
                raise ConfigurationError(f"window length {n_max} outside prefix of {self.length}")
            for _, names in _doubling_names(self.arr, alphabet_size, n_max):
                pass
            _, first = np.unique(names[: self.length - n_max + 1], return_index=True)
            first.sort()
            tail = np.arange(self.length - n_max + 1, self.length)
            self.representatives = np.concatenate((first, tail))
        boundary = self.arr[1:] != self.arr[:-1]
        self.alt = np.zeros(self.length, dtype=np.int64)
        np.cumsum(boundary, out=self.alt[1:])
        keep = np.empty(self.length, dtype=bool)
        keep[0] = True
        keep[1:] = boundary
        self.run_symbols = self.arr[keep].tobytes()
        if n_max is not None:
            self._rep_alt = self.alt[self.representatives]

    def starts(self, n: int) -> np.ndarray:
        """Representative starts with room for a length-n window, ascending."""
        if self.n_max is None or not (1 <= n <= self.n_max):
            raise ConfigurationError(f"window length {n} outside the index's n_max={self.n_max}")
        return self.representatives[: len(self.representatives) - n + 1]

    def alternations_at_starts(self, n: int) -> np.ndarray:
        """Alternation counts of the length-n windows at :meth:`starts`."""
        starts = self.starts(n)
        return self.alt[n - 1 :][starts] - self._rep_alt[: len(starts)]

    def window_alternations(self, n: int) -> np.ndarray:
        """Alternation counts of every length-n window, by start position."""
        if not (1 <= n <= self.length):
            raise ConfigurationError(f"window length {n} outside prefix of {self.length}")
        starts = self.length - n + 1
        return self.alt[n - 1:] - self.alt[:starts]

    def reductions(self, starts: np.ndarray, n: int) -> list[bytes]:
        """Reductions of the length-n windows at ``starts``, as run-symbol bytes."""
        size = self.arr.itemsize
        lo = self.alt[starts] * size
        hi = (self.alt[starts + (n - 1)] + 1) * size
        runs = self.run_symbols
        return [runs[a:b] for a, b in zip(lo.tolist(), hi.tolist())]

    def reduction_bytes(self, s: int, n: int) -> bytes:
        return self.reductions(np.array([s]), n)[0]


# -- distinct-window counting --------------------------------------------------

def factor_counts(index: AlternationPrefix) -> Counts:
    """Distinct windows of each length 1..n_max.

    The representatives' windows, cut at the prefix end, are distinct. In
    sorted order the i-th shares a prefix of ``lcp[i]`` symbols with the one
    before it, so its length-n prefix is new exactly for lcp[i] < n <= its
    length. The common prefixes come from the doubling names, longest
    power of two first.
    """
    n_max, length = index.n_max, index.length
    levels = dict(_doubling_names(index.arr, index.alphabet_size, n_max))
    reps = index.representatives
    ordered = reps[np.argsort(levels[n_max][reps], kind="stable")]
    lengths = np.minimum(n_max, length - ordered)
    room = np.minimum(lengths[1:], lengths[:-1])
    lcp = np.zeros(len(ordered), dtype=np.int64)
    span = 1 << (n_max.bit_length() - 1)
    while span:
        names = levels[span]
        fits = lcp[1:] + span <= room
        here = np.where(fits, ordered[1:] + lcp[1:], 0)
        before = np.where(fits, ordered[:-1] + lcp[1:], 0)
        lcp[1:] += span * (fits & (names[here] == names[before]))
        span >>= 1
    size = n_max + 2
    counts = np.cumsum(np.bincount(lcp + 1, minlength=size) - np.bincount(lengths + 1, minlength=size))
    return {n: int(counts[n]) for n in range(1, n_max + 1)}


def _distinct(keys) -> int:
    """Distinct items of a list, rows of a 2-D array, or small nonnegative integers of a 1-D one."""
    if isinstance(keys, list):
        return len(set(keys))
    if keys.ndim == 2 and keys.shape[1] == 1:
        keys = keys[:, 0]
    if keys.ndim == 1:
        return int(np.count_nonzero(np.bincount(keys)))
    return len({row.tobytes() for row in keys})


def _parikh_counts(index: AlternationPrefix, reduced: bool) -> Counts:
    """Distinct symbol-count vectors of the windows, or of their reductions, per length.

    Row i of the count matrix belongs to ``index.representatives[i]``; at
    length n it counts the symbol at offset n-1 of the window, for
    reductions only where that symbol starts a new run.
    """
    vectors = np.zeros((len(index.representatives), index.alphabet_size), dtype=np.int32)
    out: Counts = {}
    for n in range(1, index.n_max + 1):
        starts = index.starts(n)
        rows = np.arange(len(starts))
        symbols = index.arr[n - 1 :][starts]
        if reduced and n > 1:
            fresh = symbols != index.arr[n - 2 :][starts]
            rows, symbols = rows[fresh], symbols[fresh]
        vectors[rows, symbols] += 1
        # a window's count of symbol 0 is n minus the others, so it adds
        # nothing to the key; a reduction's length varies, so it does there
        out[n] = _distinct(vectors[: len(starts), 0 if reduced else 1 :])
    return out


def abelian_counts(index: AlternationPrefix) -> Counts:
    """Distinct symbol-count vectors of the windows of each length 1..n_max."""
    return _parikh_counts(index, reduced=False)


def reduced_factor_counts(index: AlternationPrefix) -> Counts:
    """Distinct window reductions of each length 1..n_max."""
    out: Counts = {}
    for n in range(1, index.n_max + 1):
        starts = index.starts(n)
        if index.alphabet_size == 2:
            # a binary reduction alternates, so its first symbol and its
            # alternation count name it
            out[n] = _distinct(2 * index.alternations_at_starts(n) + index.arr[starts])
        else:
            out[n] = _distinct(index.reductions(starts, n))
    return out


def reduced_abelian_counts(index: AlternationPrefix) -> Counts:
    """Distinct symbol-count vectors of the window reductions of each length 1..n_max."""
    if index.alphabet_size != 2:
        return _parikh_counts(index, reduced=True)
    out: Counts = {}
    for n in range(1, index.n_max + 1):
        # a binary reduction of r runs alternates: it holds r/2 of each symbol
        # when r is even and one more of its first symbol when r is odd, so
        # 2r + (first symbol if r is odd) names its count vector
        runs = index.alternations_at_starts(n) + 1
        out[n] = _distinct(2 * runs + (runs & index.arr[index.starts(n)]))
    return out


def extremes_counts(index: AlternationPrefix) -> tuple[Counts, Counts]:
    """Least and greatest alternation count of the windows of each length 1..n_max."""
    minima: Counts = {}
    maxima: Counts = {}
    for n in range(1, index.n_max + 1):
        d = index.alternations_at_starts(n)
        minima[n] = int(d.min())
        maxima[n] = int(d.max())
    return minima, maxima


# -- certification driver ------------------------------------------------------

def _scan_until_stable(
    handle: SequenceHandle,
    n_max: int,
    policy: WindowPolicy,
    scan: Callable[[Sequence[int]], object],
):
    """Run ``scan`` on growing prefixes until two consecutive results agree.

    Returns ``(result, certified_window)`` where the result was identical at
    ``certified_window`` and at twice it. Raises StabilizationError after
    ``max_doublings`` unsuccessful doublings, carrying the last result.
    """
    if policy.mode == "fixed":
        window = policy.fixed_length if policy.fixed_length is not None else policy.initial_window(n_max)
        if window < n_max:
            raise ConfigurationError(f"fixed window {window} is shorter than n_max={n_max}")
        return scan(handle.prefix_symbols(window)), window

    window = policy.initial_window(n_max)
    prev = scan(handle.prefix_symbols(window))
    for _ in range(policy.max_doublings):
        nxt_window = window * 2
        nxt = scan(handle.prefix_symbols(nxt_window))
        if nxt == prev:
            return prev, window
        prev, window = nxt, nxt_window
    raise StabilizationError(
        f"counts for {handle.name!r} did not stabilize by window {window} "
        f"(n_max={n_max}, {policy.max_doublings} doublings)",
        partial_values=prev,
        window=window,
    )


def _indexed_scan(handle: SequenceHandle, n_max: int, count: Callable[[AlternationPrefix], object]):
    """A scan that builds the representative index of a prefix and counts on it."""
    return lambda symbols: count(AlternationPrefix(symbols, handle.alphabet_size, n_max))


def _profile(handle, n_max, policy, kind, scan) -> ComplexityProfile:
    if n_max < 1:
        raise ConfigurationError("n_max must be >= 1")
    policy = policy or WindowPolicy()
    values, window = _scan_until_stable(handle, n_max, policy, scan)
    return ComplexityProfile(kind=kind, sequence=handle.name, values=values, certified_window=window)


def factor_complexity(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """Distinct windows of each length 1..n_max."""
    scan = _indexed_scan(handle, n_max, factor_counts)
    return _profile(handle, n_max, policy, "factor", scan)


def abelian_complexity(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """Distinct window symbol-count vectors of each length 1..n_max."""
    scan = _indexed_scan(handle, n_max, abelian_counts)
    return _profile(handle, n_max, policy, "abelian", scan)


def reduced_factor_complexity(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """Distinct window reductions of each length 1..n_max."""
    scan = _indexed_scan(handle, n_max, reduced_factor_counts)
    return _profile(handle, n_max, policy, "reduced_factor", scan)


def reduced_abelian_complexity(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """Distinct reduction symbol-count vectors of each length 1..n_max."""
    scan = _indexed_scan(handle, n_max, reduced_abelian_counts)
    return _profile(handle, n_max, policy, "reduced_abelian", scan)


def alternation_extremes(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ExtremesTable:
    """Least and greatest alternation count over windows of each length."""
    if n_max < 1:
        raise ConfigurationError("n_max must be >= 1")
    policy = policy or WindowPolicy()
    scan = _indexed_scan(handle, n_max, extremes_counts)
    (minima, maxima), window = _scan_until_stable(handle, n_max, policy, scan)
    return ExtremesTable(sequence=handle.name, minima=minima, maxima=maxima, certified_window=window)
