"""Window-scan engines for factor-style complexity functions.

Each complexity notion counts the distinct classes of the length-n windows
of a long finite prefix, for every n up to ``n_max``. The class keys are

* ``factor``: the window itself,
* ``abelian``: the window's symbol-count vector,
* ``reduced_factor``: the window's run-length reduction,
* ``reduced_abelian``: the symbol-count vector of the reduction.

The alternation extremes are a profile too, whose value at n is the pair
(least, greatest) of the alternation counts of the length-n windows. All
five can read one index, :class:`AlternationPrefix`, of a prefix of length L
and the largest window N. It holds the starts that are a first occurrence
for some n: those whose length-n window, for some n <= N that fits before
the prefix end, occurs nowhere earlier. Every distinct length-n window has
its first occurrence among them, so the counts are exactly those of a scan
over all L-n+1 starts.

Windows are named exactly, without hashing, by prefix doubling (Karp,
Miller and Rosenberg; the rank steps of Manber and Myers' suffix arrays):
windows of length 2k get names from the pair of names of their two halves,
padded past the prefix end. Names are packed integers (literal windows at
first) while they fit in 32 bits, and are compressed to dense ranks only
when they no longer do; either way they sort as the windows do. Each sort,
a rank step's and the final one, is one in-place sort of a uint64 key with
the name (or one 32-bit word of a wider name) above the start, so the first
start of each name comes first among its equals. When every final name is
below the prefix length, as for short windows over a long prefix, the final
sort is replaced by one scatter-min of the starts into a table indexed by
name, whose filled entries are those first starts in name order
(:func:`_first_starts`). The index takes the common prefix of each such
start with its sorted neighbour, one packed chunk of literal symbols at a
time, and from these its longest previous factor (Crochemore and Ilie): the
longest prefix of its window that also starts earlier, which is its longer
common prefix with the previous and the next smaller start in sorted order.
Numpy passes over a tree of block minima find those, at most 2 log2(m) + 2
passes each way for m starts, whatever the word. The length-n window at a
start is a first occurrence exactly for lpf < n <= its room (its window
length), so it keeps the starts with lpf < room, ordered by lpf, and the
first occurrences of the distinct length-n windows are a prefix of them.
``factor`` counts those intervals; the other kinds and the extremes
evaluate one key matrix per block of lengths over a prefix of those rows,
each key a few gathers from prefix sums, alternation counts or factor
names. A start with lpf >= n repeats, at n, a window that starts earlier
among the same rows, so its key is there already; only windows that run
past the prefix end are dropped. Every window that fits ends by the
index's reach, the largest start + room over those rows, so ``alt[i]``
and the other per-position arrays are defined for i < reach only, padded
past it for the dropped windows; only the naming reads all L starts. The
index takes log N packing passes and as many sorts over the L starts, and
the counts evaluate sum_n rho(n) keys (rho the factor complexity, about
1.5 N^2 for tm and pf) instead of N(L - N) for every start at every length.

A finite scan can only undercount the infinite sequence. For a fixed
point of a morphism, or a coding of one (tm, pf and morphic spec files),
the morphism proves a prefix P that holds every factor of length up to
n_max (:func:`_proof_window`): 7 * 2^k symbols for tm and 13 * 2^k for
pf, with 2^k >= n_max - 1. When P is at most the initial window W, and
2W fits the handle's cap, the counts are proven, and ``certified_window``
records W, as doubling would, since W and 2W hold the same factors.
:func:`proven_counts` is the one path that decides this and counts them,
for a profile (one kind) and for the claims' tables (each kind to the
longest length the claims read of it) alike.

On that path, a binary word that is the coding of the fixed point of a
k-uniform morphism passing the check of :func:`_recursive_codes` (tm, pf,
a binary uniform spec; not period-doubling or Rudin-Shapiro) builds no
index for ``reduced_factor``, ``reduced_abelian`` and the extremes. A
window's reduction is fixed by its first symbol and alternation count, and
the morphism gives those of the length-n windows by table lookups on those
of length about n / k (the closure of k-regular sequences under such
recursions: Allouche and Shallit, "The ring of k-regular sequences", TCS
98, 1992). So a profile to N takes O(log N) levels of numpy passes, where
the index evaluates about 1.5 N^2 keys, and ``certified_window`` is still
W. Every other kind is counted on one index of the prefix proven for the
longest length of those kinds.

Everywhere else (Toeplitz specs, a letter with bounded images, a window
shorter than P, 2W past the cap) the counts are certified empirically:
the window W doubles until the counts on the first W symbols equal those
on the first 2W, and ``certified_window`` records W. Every count function
takes one index and returns its counts, and each step counts on an index
at 2W. The length-n windows of the first W symbols are those whose first
occurrence ends within W, so when every first occurrence in that index
does, the counts on W equal those on 2W for every kind, with no second
index. For pf's Toeplitz spec at the default W = 32n every first
occurrence ends within the first 22% of W. Otherwise the kind is counted
again on an index of W itself. Each further doubling compares its counts
with those of the step before. This is the verdict that scanning W and
2W separately gives; it is evidence, not proof, and the paper's closed
forms live in :mod:`reduxwords.theorems`.

Window starts are 0-based internally. Every count function and profile
gives its values as one int64 array indexed by window length ``n`` (slot 0
unused and 0), of shape ``(n_max + 1, 2)`` for the (least, greatest) extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, StabilizationError
from .sequences import SequenceHandle, _uint_dtype


@dataclass(frozen=True)
class WindowPolicy:
    """How long a prefix to scan and how to certify the counts.

    With ``fixed_length`` unset, the counts are certified by doubling: the
    first scan uses ``initial_multiplier * n_max`` symbols and the window
    doubles until two consecutive scans agree everywhere, up to
    ``max_doublings`` doublings. With ``fixed_length`` set, one scan of
    exactly that many symbols is performed, with no agreement check.
    """

    initial_multiplier: int = 32
    max_doublings: int = 6
    fixed_length: int | None = None

    def __post_init__(self):
        if self.initial_multiplier < 1:
            raise ConfigurationError("initial_multiplier must be >= 1")
        if self.max_doublings < 1:
            raise ConfigurationError("max_doublings must be >= 1")

    def initial_window(self, n_max: int) -> int:
        """The first window scanned for lengths up to ``n_max``: the fixed one, if set."""
        if self.fixed_length is None:
            return self.initial_multiplier * n_max
        if self.fixed_length < n_max:
            raise ConfigurationError(f"fixed window {self.fixed_length} is shorter than n_max={n_max}")
        return self.fixed_length


@dataclass(frozen=True)
class ComplexityProfile:
    """Values per window length, with the window that certified them: an
    int64 array indexed by n, slot 0 unused and 0, of shape ``(n_max + 1,)``
    for counts and ``(n_max + 1, 2)`` for the (least, greatest) alternation
    counts of ``alternation_extremes``."""

    kind: str
    sequence: str
    values: np.ndarray
    certified_window: int

    def value(self, n: int):
        """The count at n as an ``int``, or the extremes as a ``(least, greatest)`` tuple."""
        if not 0 < n < len(self.values):
            raise IndexError(f"no value at n={n}; the profile runs from 1 to {len(self.values) - 1}")
        value = self.values[n].tolist()
        return tuple(value) if isinstance(value, list) else value


def reduced_complexity_from_extremes(table: ComplexityProfile, n: int) -> int:
    """Reduced factor count predicted from the window alternation extremes at n.

    Valid for sequences whose length-n windows realize every alternation
    count between the minimum and the maximum, with both starting symbols.
    """
    least, greatest = table.value(n)
    return 2 * (greatest - least + 1)


def _name_order(names: np.ndarray):
    """The starts sorted by (name, start), and where each new name begins.

    Returns ``(order, new)``: ``new[i]`` says whether the name at
    ``order[i]`` differs from the one before it, so ``new[0]`` is True.
    Each pass is one in-place sort of a uint64 key that holds a 32-bit word
    of the name in its high half and the position in the order so far in
    its low half; ``order`` reads the low halves through a uint32 view. The
    words go least significant first, each pass keeping the order of the
    ones before among equal words, so a name of up to 32 bits takes one
    pass and a wider one two.
    """
    low, high = (slice(0, None, 2), slice(1, None, 2))[:: 1 if np.little_endian else -1]
    order = None
    for shift in range(0, 8 * names.dtype.itemsize, 32):
        if order is None:
            word = names
        else:
            word = names[order]
            word >>= np.uint64(shift)
        key = np.arange(len(names), dtype=np.uint64)
        key.view(np.uint32)[high] = word  # truncates a wider word to its low 32 bits
        del word
        key.sort()
        step = key.view(np.uint32)[low]
        order = step if order is None else order[step]
    # a name of one word is left sorted in the key; a wider one is gathered
    sorted_names = key.view(np.uint32)[high] if shift == 0 else names[order]
    new = np.empty(len(names), dtype=bool)
    new[0] = True
    np.not_equal(sorted_names[1:], sorted_names[:-1], out=new[1:])
    return order, new


def _first_starts(names: np.ndarray, table_size: int) -> np.ndarray:
    """The least start of each distinct name, as uint32, in name order.

    When every name is below ``table_size`` (a prefix length, so that the
    table is no larger than the sort keys it saves), the least starts come
    from one scatter-min into a table indexed by name, whose filled entries
    are in name order; otherwise from the first start of each name in a
    :func:`_name_order` sort.
    """
    size = int(names.max()) + 1
    if size > table_size:
        order, new = _name_order(names)
        return order[new]
    empty = len(names)  # above every start
    table = np.full(size, empty, dtype=np.uint32)
    np.minimum.at(table, names, np.arange(len(names), dtype=np.uint32))
    return table[table != empty]


def _dense_ranks(names: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank from 1 of each name among the distinct names, from one
    :func:`_name_order` sort, in the narrowest unsigned dtype, and its bit width."""
    order, new = _name_order(names)
    order = np.ascontiguousarray(order)  # so the sort key is freed
    ranks = np.cumsum(new, dtype=np.uint32)
    del new
    width = int(ranks[-1]).bit_length()
    dense = np.empty(len(order), dtype=_uint_dtype(width))
    dense[order] = ranks
    return dense, width


def _doubling_names(arr, alphabet_size: int, n_max: int, ranked: bool = False):
    """Yield ``(span, names, literal)`` for span = 1, 2, 4, ... and finally ``n_max``.

    ``names[s]`` names the length-``span`` window at ``s``, padded past the
    prefix end with a symbol below every other: equal names, equal windows,
    and names sort as their windows do. Doubling names the length-``new``
    window at s by the pair of names at s and at s + new - span, whose
    windows cover it. Pairs pack into one integer; once a pair would need
    more than 32 bits, the names are first replaced by their dense ranks
    (:func:`_dense_ranks`). With ``ranked``, every level's names are
    replaced by their dense ranks before it is yielded, so each level is
    sorted once. Name 0 is the empty window past the end. ``literal`` says
    the names still pack the window itself, symbol + 1 in
    ``alphabet_size.bit_length()`` bits each, first symbol highest.
    """
    width = alphabet_size.bit_length()
    names = arr.astype(_uint_dtype(width)) + 1
    span, literal = 1, not ranked
    if ranked:
        names, width = _dense_ranks(names)
    yield span, names, literal
    while span < n_max:
        if 2 * width > 32 and not ranked:
            names, width = _dense_ranks(names)
            literal = False
        new = min(2 * span, n_max)
        shift = new - span
        halves = names
        names = halves.astype(_uint_dtype(2 * width))
        names <<= width
        names[: len(names) - shift] |= halves[shift:]
        del halves
        width *= 2
        literal = literal and shift == span
        span = new
        if ranked:
            names, width = _dense_ranks(names)
        yield span, names, literal


def _packed_windows(arr: np.ndarray, bits: int, span: int) -> np.ndarray:
    """``packed[s]``: the ``span`` symbols at s, ``bits`` bits each, first
    symbol highest, and 0s past the prefix end. Each step appends to the
    window at s the first symbols of the window just after it."""
    packed = arr.astype(_uint_dtype(span * bits))
    width = 1
    while width < span:
        grow = min(width, span - width)
        head = packed[width:] >> ((width - grow) * bits)
        packed <<= grow * bits
        packed[: len(head)] |= head
        width += grow
    return packed


def _neighbour_lcp(ordered, room, literal, span: int, bits: int) -> np.ndarray:
    """Common prefix of each window in sorted order with the one before it.

    ``ordered`` holds the starts in window order and ``room`` their window
    lengths; ``literal[s]`` packs the ``span`` symbols at s, ``bits`` bits
    each. Each step compares one packed chunk of every pair still equal so
    far; in the first unequal chunk, the bit length of the XOR gives the
    number of leading equal symbols. Entry 0 has no predecessor and gets 0.
    """
    cap = np.minimum(room[1:], room[:-1])
    lcp = np.zeros(len(ordered), dtype=room.dtype)
    lcp[1:] = cap
    pairs = np.flatnonzero(cap > 0)
    ordered = ordered.astype(np.intp)
    before, after = ordered[:-1], ordered[1:]
    depth = 0
    while len(pairs):
        x = literal[after[pairs] + depth] ^ literal[before[pairs] + depth]
        differ = x != 0
        ended = pairs[differ]
        equal = (span * bits - np.frexp(x[differ].astype(np.float64))[1]) // bits
        lcp[ended + 1] = np.minimum(depth + equal, cap[ended])
        depth += span
        differ |= cap[pairs] <= depth
        pairs = pairs[~differ]
    return lcp


def _previous_smaller_lcp(values: np.ndarray, lcp: np.ndarray) -> np.ndarray:
    """For each i, ``min(lcp[j+1..i])`` for the nearest j < i with
    ``values[j] < values[i]``, or 0 where there is none (``values`` distinct).

    Level k holds the minima of both arrays over aligned blocks of 2^k
    entries, about 2m entries in all. Entry i climbs, having passed entries
    q..i-1 with q = (i >> k) << k at level k: the block just left of q is
    block (i >> k) - 1. If that block holds a value below values[i], it
    holds j. If not, and i >> k is odd, the entry passes it and the lcp
    takes the block's minimum in; if i >> k is even, the block is the right
    half of the one the next level looks at. The entry then descends
    through the halves of the block that holds j, passing each right half
    that lies above it. Each level is one numpy pass over the entries still
    moving, so there are at most 2 log2(m) + 2 passes for any input. The
    passes select with arithmetic and index lists rather than masked
    writes, which cost several times more on arrays of this size.
    """
    value_levels, lcp_levels = [values], [lcp]
    while len(value_levels[-1]) > 1:
        even = len(value_levels[-1]) & ~1
        value_levels.append(np.minimum(value_levels[-1][0:even:2], value_levels[-1][1:even:2]))
        lcp_levels.append(np.minimum(lcp_levels[-1][0:even:2], lcp_levels[-1][1:even:2]))
    top = np.iinfo(lcp.dtype).max  # an lcp ORed with it is never taken in
    # the entries still climbing, each with its lcp with the entry just left
    # of the blocks passed so far; per level, those whose block holds j. An
    # entry below every earlier one has no j and does not climb.
    entry = np.flatnonzero(values[1:] > np.minimum.accumulate(values)[:-1]) + 1
    acc = lcp.take(entry)
    stopped = []
    for k, (level_values, level_lcp) in enumerate(zip(value_levels, lcp_levels)):
        block = entry >> k
        block -= 1
        found = level_values.take(block) < values.take(entry)
        passed = (block & 1) == 0
        passed &= ~found
        taken = level_lcp.take(block)
        taken |= np.multiply(~passed, top, dtype=lcp.dtype)
        np.minimum(acc, taken, out=acc)
        stop = found.nonzero()[0]
        stopped.append((entry.take(stop), acc.take(stop)))
        # past level k, an entry below 2^(k+1) has no block left of it
        found |= block == 0
        del passed, taken, block, stop
        moving = (~found).nonzero()[0]
        entry, acc = entry.take(moving), acc.take(moving)
        if not len(entry):
            break
    # descend from level k: ``block`` is the block there that holds j
    entry, acc = np.empty(0, dtype=np.intp), np.empty(0, dtype=lcp.dtype)
    block = entry
    for k in range(len(stopped) - 1, 0, -1):
        joined, joined_acc = stopped.pop()
        entry, acc = np.concatenate((entry, joined)), np.concatenate((acc, joined_acc))
        block = np.concatenate((block, (joined >> k) - 1))
        del joined, joined_acc
        right = 2 * block + 1
        holds = value_levels[k - 1].take(right) < values.take(entry)
        taken = lcp_levels[k - 1].take(right)
        taken |= np.multiply(holds, top, dtype=lcp.dtype)
        np.minimum(acc, taken, out=acc)
        block = right - 1 + holds
    result = np.zeros_like(lcp)
    result[entry] = acc
    # those found at level 0 have j = entry - 1
    entry, acc = stopped.pop()
    result[entry] = acc
    return result


def _longest_previous_factor(ordered: np.ndarray, lcp: np.ndarray) -> np.ndarray:
    """Longest previous factor of each entry in sorted order (Crochemore & Ilie 2008).

    An entry's longest common prefix with any earlier start is the larger of
    those with its previous and its next smaller start in sorted order, each
    the minimum of the neighbour common prefixes between them; the next
    smaller one is the previous smaller one in the reversed order. Starts
    and common prefixes are below the prefix length, so the passes run on
    int32 copies while it fits.
    """
    dtype = np.int32 if max(int(ordered.max()), int(lcp.max())) < 2**31 - 1 else np.int64
    values, lcp = ordered.astype(dtype), lcp.astype(dtype)
    lpf = _previous_smaller_lcp(values, lcp)
    reversed_lcp = np.zeros_like(lcp)
    reversed_lcp[1:] = lcp[:0:-1]
    del lcp
    np.maximum(lpf, _previous_smaller_lcp(values[::-1], reversed_lcp)[::-1], out=lpf)
    return lpf


def _interval_counts(lo: np.ndarray, hi: np.ndarray, n_max: int) -> np.ndarray:
    """For n = 0..n_max+1, how many of the intervals lo < n <= hi hold n (lo <= hi <= n_max)."""
    size = n_max + 2
    return np.cumsum(np.bincount(lo + 1, minlength=size) - np.bincount(hi + 1, minlength=size))


class AlternationPrefix:
    """Per-position alternation index over a fixed finite prefix.

    ``alt[i]`` counts adjacent unequal pairs among positions 0..i, so the
    window starting at ``s`` of length ``n`` has ``alt[s+n-1] - alt[s]``
    alternations, and ``alt[s]`` is the index of the run containing position
    ``s``, so the window's reduction is the symbols of runs ``alt[s]``
    through ``alt[s+n-1]``. ``alt[i]`` is defined for i < ``reach``, the
    largest ``s + room`` over ``starts``: every window that fits ends by it.
    ``alt`` is int32 while twice the reach fits, so keys built from it stay
    in range.

    The index also holds ``starts``, the starts whose length-n window is a
    first occurrence for some n, with each one's ``room`` (window length,
    ``min(n_max, length - s)``) and longest previous factor ``lpf`` (the
    longest prefix of its window that also starts earlier). The length-n
    window at ``starts[i]`` is a first occurrence exactly for ``lpf[i] < n
    <= room[i]``. The rows are ordered by (lpf, start), so the first
    occurrences at n are a prefix of them, less the starts whose room ends
    before n; :meth:`new_start_blocks` gives them with the repeats among
    them, which add no class. The windows are sorted by packed uint64 keys,
    one sort per rank step and a final one, which a table indexed by name
    replaces when every final name is below the prefix length
    (:func:`_first_starts`); ``lpf`` comes from bounded numpy passes
    (:func:`_longest_previous_factor`). A prefix is at most 2**32 - 1
    symbols, so that a start fits in half a key. Symbols are stored in the
    narrowest unsigned dtype for the alphabet.
    """

    def __init__(self, symbols: Sequence[int], alphabet_size: int, n_max: int):
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
        if not (1 <= n_max <= self.length):
            raise ConfigurationError(f"window length {n_max} outside prefix of {self.length}")
        if self.length >= 2**32:
            # the sort keys pack each start into 32 bits
            raise ConfigurationError(f"cannot index a prefix of {self.length} symbols, 2**32 or more")
        self._index_windows(n_max)
        # every window that fits ends by the reach, so alt stops there; past
        # it, alt repeats its last value, so that keys of windows that would
        # run past the prefix end can be computed and then discarded
        reach = self.reach
        dtype = np.int32 if 2 * reach < 2**31 else np.int64
        padded = np.empty(reach + n_max, dtype=dtype)
        padded[0] = 0
        np.cumsum(self.arr[1:reach] != self.arr[: reach - 1], dtype=padded.dtype, out=padded[1:reach])
        padded[reach:] = padded[reach - 1]
        self.alt = padded[:reach]
        self._padded_alt = padded
        self._start_alt = self.alt[self.starts]

    def _index_windows(self, n_max: int) -> None:
        for span, names, literal in _doubling_names(self.arr, self.alphabet_size, n_max):
            pass
        # in name order, the first start of each name is its first occurrence;
        # a tail start's padded window occurs nowhere else
        ordered = _first_starts(names, self.length)
        room = np.minimum(n_max, self.length - ordered)
        bits = self.alphabet_size.bit_length()
        if not literal:
            # 32-bit chunks of the symbols themselves, made after the sort
            # above rather than kept beside the final names through it. The
            # 0s past the end need no mark of their own: room caps each
            # common prefix before the end.
            del names
            bits = max(1, (self.alphabet_size - 1).bit_length())
            span = max(1, 32 // bits)
            names = _packed_windows(self.arr, bits, span)
        lcp = _neighbour_lcp(ordered, room, names, span, bits)
        del names
        lpf = _longest_previous_factor(ordered, lcp)
        # the starts that are a first occurrence for some n, by (lpf, start):
        # those new at n are the first cut[n], less any whose room ends before n
        kept = lpf < room
        key = lpf[kept].astype(np.uint64)
        key <<= np.uint64(32)
        key |= ordered[kept].astype(np.uint64)
        key.sort()
        self.starts = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
        self.lpf = (key >> np.uint64(32)).astype(np.int64)
        self.room = np.minimum(n_max, self.length - self.starts)
        self._cut = np.searchsorted(self.lpf, np.arange(n_max + 1))
        self._least_room = np.minimum.accumulate(self.room)
        self.reach = int((self.starts + self.room).max())

    def new_start_blocks(self, budget: int):
        """Yield ``(ns, cut, fresh)`` for consecutive blocks of the lengths 1..n_max.

        The first ``cut`` of ``starts`` hold the first occurrences for every
        n in the block, start 0 (one at every n) first. ``fresh[i, j]``, or
        None when all True, says whether the window of the j-th at ``ns[i]``
        fits before the prefix end. Those that fit are the distinct length-n
        windows, each at least once: a start with lpf >= n repeats the
        window of an earlier first occurrence among the same ``cut``, so a
        key taken there adds no class and moves neither extreme. A block has
        about ``budget`` entries, or one n when ``budget`` is 0.
        """
        first = 1
        while first <= self.n_max:
            size = max(1, budget // self._cut[first])
            while size > 1 and size * self._cut[min(self.n_max, first + size - 1)] > budget:
                size //= 2
            last = min(self.n_max, first + size - 1)
            ns = np.arange(first, last + 1)
            cut = self._cut[last]
            fresh = None
            if self._least_room[cut - 1] < last:
                fresh = self.room[:cut] >= ns[:, None]
            yield ns, cut, fresh
            first = last + 1

    def block_ends(self, padded: np.ndarray, ns: np.ndarray, cut: int) -> np.ndarray:
        """``padded`` at the last position of the windows at the first ``cut``
        of ``starts``, a row per n in ``ns``; ``padded`` runs n_max past the
        prefix end, for the windows that the block's ``fresh`` discards."""
        return padded[self.starts[:cut] + (ns[:, None] - 1)]

    def block_alternations(self, ns: np.ndarray, cut: int) -> np.ndarray:
        """Alternation counts at the first ``cut`` of ``starts``, a row per n in ``ns``.

        A window that would run past the prefix end gets a count too, which
        the block's ``fresh`` marks to be discarded.
        """
        return self.block_ends(self._padded_alt, ns, cut) - self._start_alt[:cut]


# -- distinct-window counting --------------------------------------------------
#
# Every count reads the first occurrences of the distinct length-n windows,
# at every length 1..n_max of its index.

def factor_counts(index: AlternationPrefix) -> np.ndarray:
    """Distinct windows of each length.

    Each start adds a new length-n window exactly for lpf < n <= its room,
    so the counts are the cumulative count of those intervals, none at n = 0.
    """
    return _interval_counts(index.lpf, index.room, index.n_max)[: index.n_max + 1]


_BLOCK = 1 << 16  # key entries evaluated at once for a block of lengths


def _distinct_per_row(words: Sequence[np.ndarray]) -> np.ndarray:
    """Distinct keys per row of nonnegative integer matrices, a key being one
    entry of every word: by a sort of each row for one word, else by one
    lexsort."""
    if len(words) == 1:
        keys = np.sort(words[0], axis=1)
        return 1 + np.count_nonzero(keys[:, 1:] != keys[:, :-1], axis=1)
    rows, cut = words[0].shape
    row = np.repeat(np.arange(rows), cut)
    order = np.lexsort([word.ravel() for word in words] + [row])
    # the rows come out in order, each with its keys sorted
    new = np.zeros(len(order), dtype=bool)
    new[::cut] = True
    for word in words:
        word = word.ravel()[order]
        new[1:] |= word[1:] != word[:-1]
    return np.bincount(row[new], minlength=rows)


def _key_table(
    index: AlternationPrefix, key: Callable, summary: Callable = _distinct_per_row, words: int = 1, shape=()
) -> np.ndarray:
    """An int64 array indexed by n, ``shape`` per n: ``summary`` of the rows of
    each block's key words, ``key(ns, cut)``: ``words`` matrices over the
    first ``cut`` starts of a block of :meth:`AlternationPrefix.new_start_blocks`,
    a row per n, which share the block's budget of entries."""
    values = np.zeros((index.n_max + 1, *shape), dtype=np.int64)
    for ns, cut, fresh in index.new_start_blocks(_BLOCK // words):
        keys = key(ns, cut)
        if fresh is not None:
            # a window past the prefix end takes the key of start 0, whose
            # window fits at every n, so it adds no class
            keys = [np.where(fresh, word, word[:, :1]) for word in keys]
        values[ns] = summary(keys)
    return values


def _runs(index: AlternationPrefix) -> np.ndarray:
    """One symbol per run of the prefix up to the index's reach: run
    ``alt[s]`` holds position s."""
    return index.arr[np.flatnonzero(np.diff(index.alt, prepend=-1))]


def _packed_counts(symbols: np.ndarray, low: int, bits: int) -> np.ndarray:
    """Prefix sums of the counts of the symbols from ``low`` on, packed.

    Each such symbol present gets ``bits`` bits in one of as many int64
    words as they need, 63 // bits to a word: ``[w, i]`` packs the counts
    among ``symbols[:i]`` of the symbols of word w. The sums wrap past
    2**63, but the difference of two entries packs the counts between them
    exactly while each count is below 2**bits.
    """
    per_word = 63 // bits
    present = np.unique(symbols)
    present = present[present >= low]
    at = np.flatnonzero(symbols >= low)
    slot = np.searchsorted(present, symbols[at])
    sums = np.zeros((max(1, -(-len(present) // per_word)), len(symbols) + 1), dtype=np.int64)
    sums[slot // per_word, at + 1] = np.left_shift(1, bits * (slot % per_word))
    return np.cumsum(sums, axis=1, out=sums)


def _factor_names(symbols: np.ndarray, alphabet_size: int, cap: int) -> np.ndarray:
    """``[k, r]``: the dense uint32 rank of the :func:`_doubling_names` name of
    the length-2^k factor of ``symbols`` at r, for 2^k <= ``cap``."""
    names = np.empty((cap.bit_length(), len(symbols)), dtype=np.uint32)
    for span, level, _ in _doubling_names(symbols, alphabet_size, 1 << (cap.bit_length() - 1), ranked=True):
        names[span.bit_length() - 1] = level
    return names


def abelian_counts(index: AlternationPrefix) -> np.ndarray:
    """Distinct symbol-count vectors of the windows of each length."""
    # a window's count of symbol 0 is n minus the others, so it adds nothing
    # to the key; every window that fits ends by the reach, and the padding
    # 0s give windows past the prefix end a key too
    padded = np.concatenate((index.arr[: index.reach], np.zeros(index.n_max, dtype=index.arr.dtype)))
    sums = _packed_counts(padded, 1, index.n_max.bit_length())

    def key(ns, cut):
        starts = index.starts[:cut]
        return sums[:, starts + ns[:, None]] - sums[:, None, starts]

    return _key_table(index, key, words=len(sums))


def reduced_factor_counts(index: AlternationPrefix) -> np.ndarray:
    """Distinct window reductions of each length."""
    if index.alphabet_size == 2:
        # a binary reduction alternates, so its first symbol and its
        # alternation count a < n_max name it, as a + n_max * first: alt at
        # the window's end, less a per-start offset
        first = index.arr[index.starts].astype(index._start_alt.dtype)
        offset = index._start_alt - first * index.n_max
        alt = index._padded_alt
        return _key_table(index, lambda ns, cut: [index.block_ends(alt, ns, cut) - offset[:cut]])
    # the reduction of m = a + 1 runs is the length-m factor of the run
    # symbols at run r = alt[s]; with 2^k <= m < 2^(k+1), its first and its
    # last 2^k run symbols cover it, so m and their names name it
    runs = _runs(index)
    cap = min(index.n_max, len(runs))
    names = _factor_names(runs, index.alphabet_size, cap)
    level = np.frexp(np.arange(1, cap + 1))[1] - 1  # k, by a = m - 1
    bits = int(names.max()).bit_length()
    one_word = cap.bit_length() + 2 * bits <= 63  # a < cap

    def key(ns, cut):
        a = index.block_alternations(ns, cut)
        r, k = index._start_alt[:cut], level[a]
        tail = names[k, r + a + 1 - (1 << k)]
        # packed in place, to hold few int64 blocks at once
        key = a.astype(np.int64)
        key <<= bits
        key |= names[k, r]
        if not one_word:
            return [key, tail]
        key <<= bits
        key |= tail
        return [key]

    return _key_table(index, key, words=1 if one_word else 2)


def reduced_abelian_counts(index: AlternationPrefix) -> np.ndarray:
    """Distinct symbol-count vectors of the window reductions of each length."""
    if index.alphabet_size == 2:
        # a binary reduction of a + 1 runs alternates, so a and its count of
        # 1s less its count of 0s, d in {-1, 0, 1}, name its count vector, as
        # 3a + d. With R the prefix sum of +1 at each 1-run start and -1 at
        # each 0-run start, d is R at the window's end, less R at its start,
        # plus the sign of its first symbol; since the runs alternate, R is
        # the sign of the prefix's first symbol where alt is even and 0
        # where it is odd. So the key is G = 3 alt + R at the window's end,
        # less a per-start offset. Cast first: 3 alt may not fit alt's dtype.
        dtype = np.int32 if 4 * index.reach < 2**31 else np.int64
        alt = index._padded_alt.astype(dtype, copy=False)
        sign = 2 * int(index.arr[0]) - 1
        ends = 3 * alt + sign * (1 - (alt & 1))
        offset = ends[index.starts] - (2 * index.arr[index.starts].astype(dtype) - 1)
        return _key_table(index, lambda ns, cut: [index.block_ends(ends, ns, cut) - offset[:cut]])
    # the reduction of a window holds runs alt[s] through alt[s+n-1]; its
    # length varies, so its count of symbol 0 is part of the key
    sums = _packed_counts(_runs(index), 0, index.n_max.bit_length())

    def key(ns, cut):
        r = index._start_alt[:cut]
        return sums[:, r + index.block_alternations(ns, cut) + 1] - sums[:, None, r]

    return _key_table(index, key, words=len(sums))


def extremes_counts(index: AlternationPrefix) -> np.ndarray:
    """(least, greatest) alternation count of the windows of each length."""

    def summary(words) -> np.ndarray:
        return np.stack((words[0].min(axis=1), words[0].max(axis=1)), axis=1)

    return _key_table(index, lambda ns, cut: [index.block_alternations(ns, cut)], summary, shape=(2,))


class _Kind(NamedTuple):
    """A profile kind: the ``kind`` its profiles carry, and its count function."""

    profile: str
    counts: Callable


# the kinds by the names the command line and the claims read them by
_KINDS = {
    "factor": _Kind("factor", factor_counts),
    "abelian": _Kind("abelian", abelian_counts),
    "red": _Kind("reduced_factor", reduced_factor_counts),
    "abred": _Kind("reduced_abelian", reduced_abelian_counts),
    "extremes": _Kind("alternation_extremes", extremes_counts),
}


# -- proof windows ---------------------------------------------------------------

# Letters of a fixed point searched for its 2-letter factors; a morphism
# whose factors first appear later keeps the doubling.
_PAIR_SEARCH = 1 << 16


def _pair_prefix(image: Mapping[int, tuple[int, ...]], seed: int) -> tuple[list[int], set] | None:
    """The shortest prefix of the fixed point of the morphism with images
    ``image`` at ``seed`` that holds all of its 2-letter factors, with the
    set of those factors; or None if it is longer than ``_PAIR_SEARCH``.

    Those factors are a closure: x0 x1, and the 2-letter factors of
    sigma(ab) for each factor ab, since every 2-letter factor of x =
    sigma(x) lies in the image of the one at an earlier position.
    """
    x = list(image[seed])
    pairs, todo = set(), [(x[0], x[1])]
    while todo:
        pair = todo.pop()
        if pair not in pairs:
            pairs.add(pair)
            word = image[pair[0]] + image[pair[1]]
            todo.extend(zip(word, word[1:]))
    # x extends by sigma of its letters from x1 on, since x = sigma(x)
    seen, consumed = set(), 1
    for end in range(1, _PAIR_SEARCH):
        if len(seen) == len(pairs):
            return x[:end], pairs
        while len(x) <= end:
            x.extend(image[x[consumed]])
            consumed += 1
        seen.add((x[end - 1], x[end]))
    return None


def _proof_window(handle: SequenceHandle, n_max: int, window: int) -> int | None:
    """A prefix length P <= ``window`` that holds every factor of length up
    to ``n_max``, or None when the handle's source morphism gives none.

    For the fixed point x of a morphism sigma, let k be least with
    |sigma^k(c)| >= n_max - 1 for every letter c of x. A window of length n
    <= n_max of x = sigma^k(x) meets at most two consecutive blocks
    sigma^k(x_i) sigma^k(x_i+1), and x_i x_i+1 occurs in the prefix x[0..p)
    that holds every 2-letter factor, so the window occurs in sigma^k of
    that prefix, of length P = sum |sigma^k(x_i)| for i < p (Allouche and
    Shallit, Automatic Sequences, 2003, ch. 7 and 10). A coding maps the
    prefix of x onto the same prefix of the coded word, whose factors are
    the codings of those of x. If a letter of x has bounded images, no k
    exists. While every letter grows, the least image length rises within
    any run of as many steps as x has letters, so a run without a rise
    shows a bounded letter.
    """
    if handle._source is None:
        return None
    morphism, seed, _ = handle._source
    found = _pair_prefix(morphism.images, seed)
    if found is None:
        return None
    prefix = found[0]
    letters = set(prefix)
    lengths = dict.fromkeys(letters, 1)
    least, stalled = 1, 0
    while least < n_max - 1:
        lengths = {c: sum(lengths[d] for d in morphism.images[c]) for c in letters}
        # the prefix holds every letter, so P is at least the longest image
        if max(lengths.values()) > window:
            return None
        stalled = stalled + 1 if min(lengths.values()) == least else 0
        if stalled == len(letters):
            return None
        least = min(lengths.values())
    proof = sum(lengths[c] for c in prefix)
    return proof if proof <= window else None


def _proven_prefix(handle: SequenceHandle, n_max: int, policy: WindowPolicy) -> int | None:
    """The prefix P whose counts are the profiles at ``n_max`` under
    ``policy`` (:func:`proven_counts`), or None when they double or read a
    fixed window: P is the handle's proof window, when there is one within
    the initial window W and twice W fits the handle's cap, so that
    capacity errors stay those of doubling."""
    if policy.fixed_length is not None:
        return None
    window = policy.initial_window(n_max)
    proof = _proof_window(handle, n_max, window)
    return proof if proof is not None and 2 * window <= handle._cap else None


def proven_counts(
    handle: SequenceHandle, policy: WindowPolicy, longest: Mapping[str, int]
) -> dict[str, np.ndarray] | None:
    """Per kind of ``longest`` (a key of ``_KINDS``), its values at every n
    up to its longest length, as an int64 array indexed by n (slot 0
    unused; ``extremes`` has a column each for the least and the greatest);
    or None.

    None when the profiles at the longest length N under ``policy`` are not
    counted on a prefix that the handle's morphism proves holds every factor
    up to N (:func:`_proven_prefix`). Otherwise the values are those of the
    infinite sequence. A binary word whose morphism passes the check of
    :func:`_recursive_codes` takes ``red``, ``abred`` and ``extremes`` from
    one run of that recursion, to the longest of their lengths. The other
    kinds, or all of them when the check fails, are counted on one index of
    the prefix proven for the longest of their own lengths, which fits
    within the initial window at N.
    """
    n_max = max(longest.values())
    proof = _proven_prefix(handle, n_max, policy)
    if proof is None:
        return None
    values = {}
    recursive = {kind: n for kind, n in longest.items() if kind in ("red", "abred", "extremes")}
    if recursive:
        found = _recursive_codes(handle, max(recursive.values()))
        if found is not None:
            for kind, n in recursive.items():
                values[kind] = _code_values(*found, kind, n)
    rest = {kind: n for kind, n in longest.items() if kind not in values}
    if rest:
        n_rest = max(rest.values())
        if n_rest < n_max:
            proof = _proof_window(handle, n_rest, policy.initial_window(n_max))
        index = AlternationPrefix(handle.prefix_symbols(proof), handle.alphabet_size, n_rest)
        for kind, n in rest.items():
            values[kind] = _KINDS[kind].counts(index)[: n + 1]
    return values


# -- morphic recursion -----------------------------------------------------------

def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a nonempty array, sorted (by a sort and a diff,
    which numpy's hashing ``unique`` is slower than here)."""
    values.sort()
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _moore_classes(output: list, successors: np.ndarray) -> np.ndarray:
    """Class ids of the coarsest partition of states with equal ``output``
    whose successors ``successors[i, j]`` under each input j lie in equal
    classes (Moore's refinement)."""
    classes = output
    while True:
        signatures = [(c, *(classes[j] for j in row)) for c, row in zip(classes, successors.tolist())]
        ids = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        if len(ids) == len(set(classes)):
            return np.array([ids[sig] for sig in signatures])
        classes = [ids[sig] for sig in signatures]


def _recursive_codes(handle: SequenceHandle, n_max: int):
    """``(n, c)``, sorted: the distinct c = 2a + t over the length-n windows
    for n = 1..n_max, with a a window's alternation count and t its first
    symbol; or None unless the binary word is the coding tau of the fixed
    point x = sigma(x) of a k-uniform morphism that passes this check: some
    p, q give alt(tau sigma(x)) + [tau sigma(x) ends unlike tau sigma(y)
    starts] = p + q [tau x != tau y] for every 2-letter factor xy of x (tm:
    2, -1; pf's source: 1, 0). Summed over a factor u of x of length M,
    alt(tau sigma(u)) = (M - 1) p + q alt(tau u) + alt(tau sigma(u_M-1)).

    The window of length n at s = kj + r (r < k) is sigma(u)[r : r + n] for
    u = x[j : j + M], M = ceil((n + r) / k), and since x = sigma(x) every
    such cut of every factor u is a window. The cut drops the alternations
    in the first r + 1 letters of tau sigma(u_0) and in the last e + 1 of
    tau sigma(u_M-1), e = kM - r - n < k. So keyed by (first pair u_0 u_1,
    last pair u_M-2 u_M-1, a = alt(tau u)), the cut's key is a lookup on
    (r, e, u's key): its a is (M - 1) p + q a plus terms of (r, u_0) and
    (e, u_M-1), its pairs are letters r, r + 1 of sigma(u_0 u_1) and the
    last e + 2, e + 1 of sigma(u_M-2 u_M-1). First pairs with the same first
    symbol, cut terms and successor classes at every r are one class, and
    so are last pairs at every e (Moore); merging them changes no (t, a).
    tm keeps a class per first symbol and one last class, pf 4 x 4.

    For n >= 2k + 2, 3 <= M < n, so the keys at n follow from shorter
    lengths: the n in [b, k(b - 2) + 1] read only lengths below b, a level
    of numpy passes. The keys at n <= 2k + 1 are read off sigma^2 of the
    least prefix of x that holds every 2-letter factor: a window of at most
    k^2 + 1 letters of x = sigma^2(x) lies in sigma^2(ab) for such a factor
    ab (:func:`_proof_window`).
    """
    if handle.alphabet_size != 2:
        return None
    morphism, seed, coding = handle._source
    found = _pair_prefix(morphism.images, seed)
    if found is None:
        return None
    image, (x, pairs) = morphism.images, found
    k = len(image[seed])
    pairs = sorted(pairs)
    if any(len(image[c]) != k for pair in pairs for c in pair):
        return None
    tau = (lambda c: c) if coding is None else coding.__getitem__

    def alt(word) -> int:
        return sum(tau(u) != tau(v) for u, v in zip(word, word[1:]))

    sums: dict = {}
    for u, v in pairs:
        total = alt(image[u] + image[v][:1])
        if sums.setdefault(tau(u) != tau(v), total) != total:
            return None
    p = sums.get(False, 0)
    q = sums.get(True, p) - p
    at = {pair: i for i, pair in enumerate(pairs)}
    joined = [image[u] + image[v] for u, v in pairs]
    front = np.array([[alt(image[u][: r + 1]) for u, _ in pairs] for r in range(k)])
    gain = np.array([[alt(image[v]) - alt(image[v][k - e - 1 :]) for _, v in pairs] for e in range(k)])
    s_next = np.array([[at[w[r], w[r + 1]] for w in joined] for r in range(k)])
    e_next = np.array([[at[w[-e - 2], w[-e - 1]] for w in joined] for e in range(k)])
    start = _moore_classes([(tau(u), *col) for (u, _), col in zip(pairs, front.T.tolist())], s_next.T)
    end = _moore_classes([tuple(col) for col in gain.T.tolist()], e_next.T)
    sb, eb = int(start.max()).bit_length(), int(end.max()).bit_length()

    def per_class(values, classes, bits) -> np.ndarray:
        """Rows of per-pair values as rows of per-class values, 2**bits classes wide."""
        table = np.zeros((len(values), 1 << bits), dtype=np.int64)
        table[:, classes] = values
        return table

    first = per_class([[tau(u) for u, _ in pairs]], start, sb)[0]
    front, s_next = per_class(front, start, sb), per_class(start[s_next], start, sb)
    gain, e_next = per_class(gain, end, eb), per_class(end[e_next], end, eb)
    # a key packs n, then c = 2a + t in cb bits, then the first and the last
    # class in sb + eb = shift bits
    shift, cb = sb + eb, (2 * n_max - 1).bit_length()
    if n_max.bit_length() + cb + shift > 62:
        return None
    # per (r, cut, first class, last class) of u: the cut's key less its n
    # and (M - 1) p + q a, added in its a
    s, e = s_next[:, None, :, None], e_next[None, :, None, :]
    cuts = (gain[None, :, None, :] - front[:, None, :, None]) * (1 << (shift + 1))
    table = (cuts + (first[s] << shift) + (s << eb) + e).ravel()
    for _ in range(2):
        x = [c for d in x for c in image[d]]
    ids = [at[pair] for pair in zip(x, x[1:])]
    firsts, lasts = start[ids], end[ids]
    t = np.array([tau(c) for c in x])
    alts = np.concatenate(([0], np.cumsum(t[1:] != t[:-1])))
    rows = []
    for n in range(1, min(n_max, 2 * k + 1) + 1):
        i = np.arange(len(x) - max(n, 2) + 1)
        s, e = firsts[i], lasts[i + max(n, 2) - 2]
        rows.append((n << (cb + shift)) + ((2 * (alts[i + n - 1] - alts[i]) + first[s]) << shift) + (s << eb) + e)
    known = _sorted_distinct(np.concatenate(rows))
    b = 2 * k + 2
    while b <= n_max:
        hi = min(k * (b - 2) + 1, n_max)
        n = np.repeat(np.arange(b, hi + 1), k)
        r = np.tile(np.arange(k), hi - b + 1)
        m = (n + r + k - 1) // k
        offsets = np.searchsorted(known, np.arange(b + 1) << (cb + shift))
        size = offsets[m + 1] - offsets[m]
        key = known[np.arange(size.sum()) + np.repeat(offsets[m] - np.cumsum(size) + size, size)]
        a = (key >> (shift + 1)) & ((1 << (cb - 1)) - 1)
        cut = table[np.repeat((r * k + k * m - r - n) << shift, size) + (key & ((1 << shift) - 1))]
        new = np.repeat((n << (cb + shift)) + ((m - 1) * p << (shift + 1)), size) + a * (q << (shift + 1)) + cut
        known = np.concatenate((known, _sorted_distinct(new)))
        b = hi + 1
    codes = _sorted_distinct(known >> shift)
    return codes >> cb, codes & ((1 << cb) - 1)


def _code_values(n: np.ndarray, c: np.ndarray, kind: str, n_max: int) -> np.ndarray:
    """The ``red``, ``abred`` or ``extremes`` values at n = 1..n_max, as
    :func:`proven_counts` returns them, from the codes ``(n, c)`` of
    :func:`_recursive_codes`.

    A binary reduction alternates, so (t, a) names it. Its count vector is
    named by a alone when a is odd, and by (t, a) when a is even.
    """
    if kind == "extremes":
        lengths = np.arange(1, n_max + 1)
        values = np.zeros((n_max + 1, 2), dtype=np.int64)
        values[1:, 0] = c[np.searchsorted(n, lengths)] >> 1
        values[1:, 1] = c[np.searchsorted(n, lengths, side="right") - 1] >> 1
        return values
    if kind == "abred":
        # t = 1 at an odd a, where t = 0 comes just before it
        twin = np.zeros(len(c), dtype=bool)
        twin[1:] = (c[1:] & 3 == 3) & (c[:-1] == c[1:] - 1) & (n[:-1] == n[1:])
        n = n[~twin]
    return np.bincount(n, minlength=n_max + 1)[: n_max + 1].astype(np.int64, copy=False)


# -- certification driver ------------------------------------------------------

def _scan_until_stable(handle: SequenceHandle, n_max: int, policy: WindowPolicy, table: Callable):
    """Double the window until the values on it equal those on twice it.

    ``table(index)`` returns the values on the whole indexed prefix, an array
    indexed by n. Each step indexes twice the window. The first step takes
    the values on the window from that index when every first occurrence in
    it ends within the window, and otherwise counts them on an index of the
    window itself; each later step compares with the step before. Returns
    ``(values, certified_window)``. Raises StabilizationError after
    ``max_doublings`` unsuccessful doublings, carrying the values at the
    last window and the least n that differed. A policy with
    ``fixed_length`` set gets the values on that one window, unchecked.
    """

    def index(length: int) -> AlternationPrefix:
        return AlternationPrefix(handle.prefix_symbols(length), handle.alphabet_size, n_max)

    window = policy.initial_window(n_max)
    if policy.fixed_length is not None:
        return table(index(window)), window
    # a view; asked for first so that a capacity error names the same prefix
    # length as a scan of the window itself would
    handle.prefix_symbols(window)
    twice = index(2 * window)
    values = table(twice)
    # the windows of the first W symbols are those whose first occurrence
    # ends within W; if every one does, both prefixes hold the same windows
    reach = twice.reach
    del twice
    inside = values if reach <= window else table(index(window))
    for _ in range(policy.max_doublings - 1):
        if np.array_equal(inside, values):
            break
        window *= 2
        inside, values = values, table(index(2 * window))
    if np.array_equal(inside, values):
        return values, window
    window *= 2
    raise StabilizationError(
        f"counts for {handle.name!r} did not stabilize by window {window} "
        f"(n_max={n_max}, {policy.max_doublings} doublings)",
        partial_values=values,
        window=window,
        # the first entry that differs, in row order, over the entries per n
        first_unstable_n=int(np.flatnonzero(values != inside)[0]) // values[0].size,
    )


def _profile(handle, n_max, policy, kind) -> ComplexityProfile:
    """The ``kind`` profile (a key of ``_KINDS``) to ``n_max``: proven
    (:func:`proven_counts`) where the handle's morphism allows, else
    certified by doubling or read on the policy's fixed window."""
    if n_max < 1:
        raise ConfigurationError("n_max must be >= 1")
    policy = policy or WindowPolicy()
    name, counts = _KINDS[kind]
    proven = proven_counts(handle, policy, {kind: n_max})
    if proven is None:
        values, window = _scan_until_stable(handle, n_max, policy, counts)
    else:
        values, window = proven[kind], policy.initial_window(n_max)
    return ComplexityProfile(kind=name, sequence=handle.name, values=values, certified_window=window)


def factor_complexity(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """Distinct windows of each length 1..n_max."""
    return _profile(handle, n_max, policy, "factor")


def abelian_complexity(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """Distinct window symbol-count vectors of each length 1..n_max."""
    return _profile(handle, n_max, policy, "abelian")


def reduced_factor_complexity(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """Distinct window reductions of each length 1..n_max."""
    return _profile(handle, n_max, policy, "red")


def reduced_abelian_complexity(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """Distinct reduction symbol-count vectors of each length 1..n_max."""
    return _profile(handle, n_max, policy, "abred")


def alternation_extremes(
    handle: SequenceHandle, n_max: int, policy: WindowPolicy | None = None
) -> ComplexityProfile:
    """(least, greatest) alternation count over windows of each length 1..n_max."""
    return _profile(handle, n_max, policy, "extremes")
