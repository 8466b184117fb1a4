"""Brute-force window-set oracle for the window engines.

For each window length n it collects the set of distinct length-n windows
of a finite word and classifies them with plain Python: the window itself,
its sorted symbols (an anagram class is fixed by its symbol counts), its
run-length reduction, and the sorted symbols of the reduction. Alternation
extremes are the least and greatest count of adjacent unequal pairs over
the windows. Nothing here uses the package, so it checks the engines
independently.
"""

from itertools import groupby

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
    """Distinct classes of the length-n windows under ``kind``, per n."""
    key = KEYS[kind]
    return {n: len({key(w) for w in windows(symbols, n)}) for n in n_values}


def oracle_extremes(symbols, n_values):
    """(minima, maxima): least and greatest alternation count of the length-n windows."""
    minima, maxima = {}, {}
    for n in n_values:
        counts = [sum(a != b for a, b in zip(w, w[1:])) for w in windows(symbols, n)]
        minima[n], maxima[n] = min(counts), max(counts)
    return minima, maxima
