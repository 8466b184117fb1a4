"""Brute-force window-set oracle for the window engines.

For each window length n it collects the set of distinct length-n windows
of a finite word and classifies them with plain Python: the window itself,
its sorted symbols (an anagram class is fixed by its symbol counts), its
run-length reduction, and the sorted symbols of the reduction. Alternation
extremes are the least and greatest count of adjacent unequal pairs over
the windows. Values come as the engines give them, an int64 array indexed
by n. Nothing here uses the package, so it checks the engines
independently.
"""

from itertools import groupby

import numpy as np

KINDS = ("factor", "abelian", "reduced_factor", "reduced_abelian")


def _reduce(window):
    return tuple(symbol for symbol, _ in groupby(window))


KEYS = {
    "factor": lambda w: w,
    "abelian": lambda w: tuple(sorted(w)),
    "reduced_factor": _reduce,
    "reduced_abelian": lambda w: tuple(sorted(_reduce(w))),
}


def windows(symbols, n):
    symbols = tuple(symbols)
    return {symbols[s : s + n] for s in range(len(symbols) - n + 1)}


def oracle_counts(symbols, kind, n_values):
    """Distinct classes of the length-n windows under ``kind``, at each n of
    ``n_values``, in an int64 array indexed by n, 0 at every other index."""
    key = KEYS[kind]
    counts = np.zeros(max(n_values) + 1, dtype=np.int64)
    for n in n_values:
        counts[n] = len({key(w) for w in windows(symbols, n)})
    return counts


def oracle_extremes(symbols, n_values):
    """``[n] = (min, max)``: least and greatest alternation count of the
    length-n windows at each n of ``n_values``, in an int64 array indexed by
    n, 0s at every other index."""
    extremes = np.zeros((max(n_values) + 1, 2), dtype=np.int64)
    for n in n_values:
        counts = [sum(a != b for a, b in zip(w, w[1:])) for w in windows(symbols, n)]
        extremes[n] = (min(counts), max(counts))
    return extremes


def two_scan_reference(handle, kind, n_max, policy):
    """What a profile under ``policy`` must report, from oracle scans of growing prefixes.

    ``kind`` is one of KINDS or "extremes"; ``handle`` needs only
    ``prefix_symbols`` and ``policy`` only its fields. A fixed policy scans
    its one window; otherwise the reference scans the initial window, then
    twice it, and so on, until two consecutive scans agree or the doublings
    run out. Returns ``(certified, values, window, first_unstable_n)``:
    ``certified`` is False when the scans never agreed, and then ``values``
    are those at the last ``window`` and ``first_unstable_n`` is the least
    n at which the last two scans differed.
    """
    ns = range(1, n_max + 1)

    def scan(length):
        symbols = handle.prefix_symbols(length).tolist()
        return oracle_extremes(symbols, ns) if kind == "extremes" else oracle_counts(symbols, kind, ns)

    if policy.fixed_length is not None:
        return True, scan(policy.fixed_length), policy.fixed_length, None
    window = policy.initial_multiplier * n_max
    prev = scan(window)
    for _ in range(policy.max_doublings):
        nxt = scan(2 * window)
        if np.array_equal(nxt, prev):
            return True, prev, window, None
        differ = min(n for n in ns if prev[n].tolist() != nxt[n].tolist())
        prev, window = nxt, 2 * window
    return False, prev, window, differ


def longest_previous_factor_stack(ordered, lcp):
    """Longest previous factor of each entry in sorted order, by one stack pass.

    The reference for the index's vectorized passes (Crochemore & Ilie
    2008): ``ordered`` holds distinct starts in window order and ``lcp[i]``
    the common prefix of entries i - 1 and i. An entry's longest common
    prefix with any earlier start is the larger of those with its previous
    and its next smaller start in sorted order, each the least ``lcp``
    between them.
    """
    lpf = [0] * len(ordered)
    above = len(ordered)  # above every common prefix, which is at most n_max
    # the previous-smaller chain: (start, sorted position, common prefix with
    # the entry below it), over a sentinel
    stack = [(-1, -1, 0)]
    top = 0  # common prefix of the stack top and the current entry
    for i, (start, h) in enumerate(zip(list(ordered), list(lcp))):
        if h < top:
            top = h
        while stack[-1][0] > start:
            _, j, below = stack.pop()
            lpf[j] = below if below > top else top
            if below < top:
                top = below
        stack.append((start, i, top))
        top = above
    for _, j, below in stack[1:]:
        lpf[j] = below
    return lpf
