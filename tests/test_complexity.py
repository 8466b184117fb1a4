"""Window engines: golden values, oracle agreement, structural invariants,
and the certification policy."""

import functools
import json
import random
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import reduxwords as rw
from reduxwords import complexity
from reduxwords.complexity import (
    AlternationPrefix,
    WindowPolicy,
    abelian_counts,
    extremes_counts,
    factor_counts,
    reduced_abelian_counts,
    reduced_factor_counts,
)
from reduxwords.errors import CapacityError, ConfigurationError, StabilizationError
from reduxwords.sequences import SequenceHandle, _fixed_point
from reduxwords.words import Word

from conftest import (
    DATA,
    RHO_AB_F_21,
    RHO_ABRED_F_22,
    RHO_ABRED_T_19,
    RHO_AB_T_16,
    RHO_F_15,
    RHO_RED_F_23,
    RHO_RED_T_23,
    RHO_T_15,
    profile_values,
)
from window_oracle import (
    longest_previous_factor_stack,
    oracle_counts,
    oracle_extremes,
    two_scan_reference,
    windows,
)


class TestGoldenProfiles:
    def test_tm_factor(self, tm_handle):
        p = rw.factor_complexity(tm_handle, 15)
        assert profile_values(p, 15) == RHO_T_15

    def test_tm_reduced(self, tm_handle):
        p = rw.reduced_factor_complexity(tm_handle, 23)
        assert profile_values(p, 23) == RHO_RED_T_23

    def test_pf_factor(self, pf_handle):
        p = rw.factor_complexity(pf_handle, 15)
        assert profile_values(p, 15) == RHO_F_15

    def test_pf_reduced(self, pf_handle):
        p = rw.reduced_factor_complexity(pf_handle, 23)
        assert profile_values(p, 23) == RHO_RED_F_23

    def test_pf_abelian(self, pf_handle):
        p = rw.abelian_complexity(pf_handle, 21)
        assert profile_values(p, 21) == RHO_AB_F_21

    def test_pf_reduced_abelian(self, pf_handle):
        p = rw.reduced_abelian_complexity(pf_handle, 22)
        assert profile_values(p, 22) == RHO_ABRED_F_22

    def test_tm_reduced_abelian(self, tm_handle):
        p = rw.reduced_abelian_complexity(tm_handle, 19)
        assert profile_values(p, 19) == RHO_ABRED_T_19

    def test_tm_abelian(self, tm_handle):
        # 2 for odd n, 3 for even n
        p = rw.abelian_complexity(tm_handle, 16)
        assert profile_values(p, 16) == RHO_AB_T_16


def whole_alternations(symbols) -> np.ndarray:
    """``alt[i]``: the adjacent unequal pairs among positions 0..i of the whole prefix."""
    symbols = np.asarray(symbols)
    return np.concatenate(([0], np.cumsum(symbols[1:] != symbols[:-1])))


def reached_alternations(idx, symbols) -> np.ndarray:
    """The whole prefix's alternation sums, having checked that ``idx.alt``
    holds their first ``idx.reach`` entries and no more."""
    alt = whole_alternations(symbols)
    assert len(idx.alt) == idx.reach
    assert idx.alt.tolist() == alt[: idx.reach].tolist()
    return alt


class TestAlternationPrefix:
    def test_alt_array_on_known_word(self):
        symbols = [0, 0, 1, 0, 0, 0, 1]
        idx = AlternationPrefix(symbols, 2, 3)
        assert whole_alternations(symbols).tolist() == [0, 0, 1, 2, 2, 2, 3]
        # 000 at 3 is the last first occurrence; the windows at 4, 5 and 6
        # occur earlier, so alt stops before the last symbol
        assert idx.reach == 6
        reached_alternations(idx, symbols)
        assert idx.alt.dtype == np.int32
        assert complexity._runs(idx).tolist() == [0, 1, 0]

    def test_window_alternations_match_brute_force(self, tm_handle):
        symbols = tm_handle.prefix_symbols(300)
        idx = AlternationPrefix(symbols, 2, 16)
        alt = reached_alternations(idx, symbols)
        for n in (1, 2, 3, 7, 16):
            d = alt[n - 1 :] - alt[: 300 - n + 1]
            for s in range(0, 300 - n + 1, 17):
                w = Word(tuple(symbols[s : s + n]))
                assert d[s] == rw.alternations(w)

    def test_reduction_bytes_match_reduce(self, pf_handle):
        symbols = pf_handle.prefix_symbols(200)
        idx = AlternationPrefix(symbols, 2, 20)
        alt = reached_alternations(idx, symbols)
        runs = symbols[np.flatnonzero(np.diff(alt, prepend=-1))].tolist()
        # the index holds the runs up to the one at its reach
        assert complexity._runs(idx).tolist() == runs[: alt[idx.reach - 1] + 1]
        for n in (1, 3, 8, 20):
            for s in range(0, 200 - n + 1, 13):
                w = Word(tuple(symbols[s : s + n]))
                # the reduction is the run symbols from run alt[s] to run alt[s+n-1]
                reduction = runs[alt[s] : alt[s + n - 1] + 1]
                assert tuple(reduction) == rw.reduce(w).symbols

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            AlternationPrefix([], 2, 1)


INDEX_ENGINES = {
    "factor": factor_counts,
    "abelian": abelian_counts,
    "reduced_factor": reduced_factor_counts,
    "reduced_abelian": reduced_abelian_counts,
}


def engine_counts(symbols, sigma, kind, n_max):
    """One kind's counts for n = 1..n_max, read off the window index."""
    return INDEX_ENGINES[kind](AlternationPrefix(symbols, sigma, n_max))


class TestEnginePathEquivalence:
    """The window-index engines and the window-set oracle must agree."""

    N_VALUES = list(range(1, 33))

    def cases(self):
        rng = random.Random(20240817)
        yield rw.thue_morse().prefix_symbols(2048), 2
        yield rw.paperfolding().prefix_symbols(2048), 2
        yield [rng.randrange(2) for _ in range(1024)], 2
        yield [rng.randrange(3) for _ in range(1024)], 3

    def test_factor_paths(self):
        for symbols, sigma in self.cases():
            assert np.array_equal(
                engine_counts(symbols, sigma, "factor", 32), oracle_counts(symbols, "factor", self.N_VALUES)
            )

    def test_abelian_paths(self):
        for symbols, sigma in self.cases():
            assert np.array_equal(
                engine_counts(symbols, sigma, "abelian", 32), oracle_counts(symbols, "abelian", self.N_VALUES)
            )

    def test_reduced_factor_paths(self):
        for symbols, sigma in self.cases():
            engine = engine_counts(symbols, sigma, "reduced_factor", 32)
            # direct count: distinct reductions via Word operations
            direct = [0]
            for n in self.N_VALUES:
                seen = {
                    rw.reduce(Word(tuple(symbols[s : s + n]), sigma)).symbols
                    for s in range(len(symbols) - n + 1)
                }
                direct.append(len(seen))
            assert np.array_equal(engine, direct)
            assert np.array_equal(engine, oracle_counts(symbols, "reduced_factor", self.N_VALUES))

    def test_reduced_abelian_paths(self):
        for symbols, sigma in self.cases():
            engine = engine_counts(symbols, sigma, "reduced_abelian", 32)
            direct = [0]
            for n in self.N_VALUES:
                seen = {
                    rw.abelian_reduced_key(Word(tuple(symbols[s : s + n]), sigma))
                    for s in range(len(symbols) - n + 1)
                }
                direct.append(len(seen))
            assert np.array_equal(engine, direct)
            assert np.array_equal(engine, oracle_counts(symbols, "reduced_abelian", self.N_VALUES))

    def test_extremes_paths(self):
        for symbols, sigma in self.cases():
            engine = extremes_counts(AlternationPrefix(symbols, sigma, 32))
            assert np.array_equal(engine, oracle_extremes(symbols, self.N_VALUES))


@st.composite
def indexed_words(draw):
    """(symbols, alphabet size, n_max): a random word, or a random block repeated."""
    sigma = draw(st.integers(2, 4))
    block = draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=400))
    length = draw(st.integers(1, 400))
    symbols = (block * (length // len(block) + 1))[:length]
    n_max = draw(st.integers(1, min(40, length)))
    return symbols, sigma, n_max


@st.composite
def handled_words(draw):
    """(handle, n_max, policy): a random word wrapped in a capped handle, and a short policy.

    The word is a random preperiod followed by a repeated random block, so
    some policies certify and others run out of doublings.
    """
    sigma = draw(st.integers(2, 4))
    letters = st.integers(0, sigma - 1)
    head = draw(st.lists(letters, max_size=64))
    block = draw(st.lists(letters, min_size=1, max_size=64))
    word = (head + block * 256)[:256]
    handle = SequenceHandle(
        "word", sigma, lambda buf, target: word[len(buf) : target], max_prefix=len(word)
    )
    n_max = draw(st.integers(1, 8))
    if draw(st.booleans()):
        policy = WindowPolicy(
            initial_multiplier=draw(st.integers(1, 4)), max_doublings=draw(st.integers(1, 3))
        )
    else:
        policy = WindowPolicy(fixed_length=draw(st.integers(n_max, 256)))
    return handle, n_max, policy


@st.composite
def prolongable_morphisms(draw):
    """(morphism, seed 0) over 2 to 4 letters, with images of 1 to 3 letters;
    a letter whose images stay one letter long is bounded."""
    sigma = draw(st.integers(2, 4))
    letters = st.integers(0, sigma - 1)
    images = {c: tuple(draw(st.lists(letters, min_size=1, max_size=3))) for c in range(1, sigma)}
    images[0] = (0, *draw(st.lists(letters, min_size=1, max_size=2)))
    return rw.Morphism(images, sigma), 0


class TestRepresentativeIndex:
    @settings(max_examples=60, deadline=None)
    @given(indexed_words())
    def test_counts_and_extremes_match_oracle(self, case):
        symbols, sigma, n_max = case
        index = AlternationPrefix(symbols, sigma, n_max)
        ns = range(1, n_max + 1)
        for kind, engine in INDEX_ENGINES.items():
            assert np.array_equal(engine(index), oracle_counts(symbols, kind, ns)), kind
        assert np.array_equal(extremes_counts(index), oracle_extremes(symbols, ns))
        first = {n: {} for n in ns}
        for n in ns:
            for s in range(len(symbols) - n + 1):
                first[n].setdefault(tuple(symbols[s : s + n]), s)
        expected = {n: sorted(occurrences.values()) for n, occurrences in first.items()}
        # the rows are the starts whose window of some length occurs nowhere
        # earlier, tail starts included, ordered by (lpf, start) from start 0
        starts = index.starts.tolist()
        assert sorted(starts) == sorted(set().union(*expected.values()))
        rooms = [min(n_max, len(symbols) - s) for s in starts]
        assert index.room.tolist() == rooms
        # lpf: the longest prefix of the window that also starts earlier
        lpf = [
            sum(first[n][tuple(symbols[s : s + n])] < s for n in range(1, room + 1))
            for s, room in zip(starts, rooms)
        ]
        assert index.lpf.tolist() == lpf
        assert list(zip(lpf, starts)) == sorted(zip(lpf, starts))
        assert starts[0] == 0
        # the first occurrences at n are the starts with lpf < n <= room, and
        # in blocks of any size they are among the first cut of each block
        for n in ns:
            new = [s for s, low, room in zip(starts, lpf, rooms) if low < n <= room]
            assert sorted(new) == expected[n], n
        for budget in (0, 7, 1 << 16):
            for block, cut, _ in index.new_start_blocks(budget):
                for n in block.tolist():
                    assert set(expected[n]) <= set(starts[:cut]), (budget, n)

    def test_tm_needs_few_representatives(self, tm_handle):
        index = AlternationPrefix(tm_handle.prefix_symbols(32 * 256), 2, 256)
        assert len(index.starts) == rw.tm_factor_count(256)

    def test_wide_names_are_compressed_exactly(self):
        # 2**17 random bits have more than 2**16 distinct windows of length 32,
        # so doubling past 32 bits must rank names before packing them
        rng = np.random.default_rng(7)
        symbols = rng.integers(0, 2, 1 << 17).tolist()
        index = AlternationPrefix(symbols, 2, 48)
        # here some tail starts are first occurrences: their suffix occurs
        # nowhere earlier
        data = bytes(symbols)
        tails = range(len(data) - 47, len(data))
        fresh_tails = [s for s in tails if data.find(data[s:]) == s]
        assert 0 < len(fresh_tails) < 47
        assert len(index.starts) == len(windows(symbols, 48)) + len(fresh_tails)
        assert set(fresh_tails) <= set(index.starts.tolist())
        counts = factor_counts(index)
        assert [counts[n] for n in (20, 48)] == [len(windows(symbols, n)) for n in (20, 48)]

    @pytest.mark.parametrize("sigma", [1, 2, 3, 5, 9, 300])
    def test_packed_windows(self, sigma):
        rng = random.Random(sigma)
        bits = max(1, (sigma - 1).bit_length())
        span = max(1, 32 // bits)
        symbols = [rng.randrange(sigma) for _ in range(3 * span + 16)]
        packed = complexity._packed_windows(np.array(symbols), bits, span)
        padded = symbols + [0] * span
        expected = [
            sum(c << (bits * (span - 1 - j)) for j, c in enumerate(padded[s : s + span]))
            for s in range(len(symbols))
        ]
        assert packed.tolist() == expected
        # the common prefixes of the index read these chunks once names are ranks
        ns = range(1, span + 9)
        index = AlternationPrefix(symbols, sigma, span + 8)
        assert np.array_equal(factor_counts(index), oracle_counts(symbols, "factor", ns))

    def test_symbols_must_fit_the_alphabet(self):
        with pytest.raises(ConfigurationError):
            AlternationPrefix([0, 1, 3], 3, 2)
        with pytest.raises(ConfigurationError):
            AlternationPrefix([0, 300], 3, 1)

    def test_starts_needs_n_max(self):
        # rooms stop at n_max, and the tail start 2, whose window 0 starts
        # at 0 too, is no first occurrence
        index = AlternationPrefix([0, 1, 0], 2, 2)
        assert index.starts.tolist() == [0, 1]
        assert index.room.tolist() == [2, 2]
        with pytest.raises(ConfigurationError):
            AlternationPrefix([0, 1, 0], 2, 4)

    @settings(max_examples=60, deadline=None)
    @given(indexed_words())
    def test_blocks_with_repeats_mask_only_the_room(self, case):
        # the windows of a block's starts that fit are exactly the distinct
        # length-n windows, each at least once
        symbols, sigma, n_max = case
        index = AlternationPrefix(symbols, sigma, n_max)
        for budget in (0, 7, 1 << 16):
            for block, cut, fresh in index.new_start_blocks(budget):
                starts = index.starts[:cut]
                for i, n in enumerate(block.tolist()):
                    fits = index.room[:cut] >= n
                    assert fits.tolist() == (fits if fresh is None else fresh[i]).tolist()
                    kept = starts[fits].tolist()
                    assert {tuple(symbols[s : s + n]) for s in kept} == windows(symbols, n)


@st.composite
def lpf_words(draw):
    """(symbols, alphabet size, n_max): a random, run-heavy or periodic word over 1-5 letters."""
    sigma = draw(st.integers(1, 5))
    letters = st.integers(0, sigma - 1)
    shape = draw(st.sampled_from(("random", "runs", "periodic")))
    if shape == "random":
        symbols = draw(st.lists(letters, min_size=1, max_size=600))
    elif shape == "runs":
        runs = draw(st.lists(st.tuples(letters, st.integers(1, 80)), min_size=1, max_size=30))
        symbols = [symbol for symbol, run in runs for _ in range(run)]
    else:
        block = draw(st.lists(letters, min_size=1, max_size=12))
        symbols = block * draw(st.integers(1, 600 // len(block)))
    n_max = draw(st.integers(1, len(symbols)))
    return symbols, sigma, n_max


def stack_pass_index(symbols, sigma, n_max) -> AlternationPrefix:
    """The index built with the stack pass of window_oracle for the longest previous factor."""

    def stack_pass(ordered, lcp):
        return np.array(longest_previous_factor_stack(ordered.tolist(), lcp.tolist()), dtype=np.int64)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexity, "_longest_previous_factor", stack_pass)
        return AlternationPrefix(symbols, sigma, n_max)


class TestLongestPreviousFactor:
    """The vectorized passes give the index the stack pass gives."""

    def assert_same_index(self, symbols, sigma, n_max):
        index = AlternationPrefix(symbols, sigma, n_max)
        reference = stack_pass_index(symbols, sigma, n_max)
        for name in ("starts", "lpf", "room", "_cut"):
            got, want = getattr(index, name), getattr(reference, name)
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name

    @settings(max_examples=150, deadline=None)
    @given(lpf_words())
    def test_matches_stack_pass(self, case):
        self.assert_same_index(*case)

    def test_long_run_between_two_ones(self):
        # following previous-smaller pointers one hop per round would take a
        # round per zero here
        symbols = [1] + [0] * 4096 + [1]
        self.assert_same_index(symbols, 2, len(symbols))

    def test_previous_smaller_on_every_permutation_of_six(self):
        lcp = np.array([0, 3, 1, 4, 1, 5])
        for values in permutations(range(6)):
            values = np.array(values)
            want = []
            for i in range(6):
                j = next((j for j in range(i - 1, -1, -1) if values[j] < values[i]), None)
                want.append(0 if j is None else int(lcp[j + 1 : i + 1].min()))
            assert complexity._previous_smaller_lcp(values, lcp).tolist() == want, values


@st.composite
def fresh_tail_words(draw):
    """(symbols, alphabet size, n_max): a random word whose last few symbols
    may hold a letter that the rest lacks, so that some tail starts are
    first occurrences; n_max is short, so that the names often fit a table."""
    sigma = draw(st.integers(1, 4))
    head = draw(st.lists(st.integers(0, max(0, sigma - 2)), max_size=1000))
    tail = draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=8))
    symbols = head + tail
    return symbols, sigma, draw(st.integers(1, min(8, len(symbols))))


def index_and_sorted_index(symbols, sigma, n_max):
    """The index as built, and the index built with its first starts taken
    by the sort only; and whether the first took them from a table."""
    first_starts = complexity._first_starts
    sizes = []

    def recorded(names, table_size):
        sizes.append((int(names.max()) + 1, table_size))
        return first_starts(names, table_size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexity, "_first_starts", recorded)
        index = AlternationPrefix(symbols, sigma, n_max)
        patch.setattr(complexity, "_first_starts", lambda names, table_size: first_starts(names, 0))
        sorted_index = AlternationPrefix(symbols, sigma, n_max)
    ((size, table_size),) = sizes
    return index, sorted_index, size <= table_size


def five_kinds(index):
    counts = {kind: engine(index) for kind, engine in INDEX_ENGINES.items()}
    counts["extremes"] = extremes_counts(index)
    return counts


def assert_same_tables(got, want):
    """Both None, or the same kinds, each with an equal array indexed by n, shape included."""
    assert (got is None) == (want is None)
    if want is not None:
        assert got.keys() == want.keys()
        for kind in want:
            assert np.array_equal(got[kind], want[kind]), kind


BUILTINS = {"tm": rw.thue_morse, "pf": rw.paperfolding}


@functools.cache
def prefix_oracle(name):
    """The oracle's counts and extremes at n = 1..8 on 2^16 symbols of tm or pf."""
    symbols = BUILTINS[name]().prefix_symbols(1 << 16).tolist()
    ns = range(1, 9)
    counts = {kind: oracle_counts(symbols, kind, ns) for kind in INDEX_ENGINES}
    counts["extremes"] = oracle_extremes(symbols, ns)
    return counts


class TestFirstStarts:
    """A table indexed by name gives the first starts that the sort gives."""

    @settings(max_examples=100, deadline=None)
    @example((np.random.default_rng(3).integers(0, 2, 4096).tolist(), 2, 5))
    @example(([0] * 600 + [1], 2, 8))
    @given(fresh_tail_words())
    def test_table_and_sort_agree(self, case):
        index, sorted_index, by_table = index_and_sorted_index(*case)
        for name in ("starts", "lpf", "room"):
            got, want = getattr(index, name), getattr(sorted_index, name)
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name
        assert_same_tables(five_kinds(index), five_kinds(sorted_index))
        event("table" if by_table else "sort")

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(sorted(BUILTINS)), st.integers(1, 8))
    def test_long_builtin_prefixes_take_the_table(self, name, n_max):
        symbols = BUILTINS[name]().prefix_symbols(1 << 16)
        index, sorted_index, by_table = index_and_sorted_index(symbols, 2, n_max)
        assert by_table
        assert index.starts.tolist() == sorted_index.starts.tolist()
        want = prefix_oracle(name)
        assert_same_tables(five_kinds(index), {kind: want[kind][: n_max + 1] for kind in want})


class TestRoomMasks:
    """The key tables drop only windows past the prefix end."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_words_with_fresh_tail_starts(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(200, 1200))
        n_max = int(rng.integers(24, 64))
        symbols = rng.integers(0, 2, length).tolist()
        index = AlternationPrefix(symbols, 2, n_max)
        # a random word's long suffixes occur nowhere earlier, so some tail
        # starts are first occurrences and their blocks carry a room mask
        assert (index.room < n_max).any()
        blocks = index.new_start_blocks(complexity._BLOCK)
        assert any(fresh is not None for _, _, fresh in blocks)
        ns = range(1, n_max + 1)
        assert np.array_equal(reduced_factor_counts(index), oracle_counts(symbols, "reduced_factor", ns))
        assert np.array_equal(reduced_abelian_counts(index), oracle_counts(symbols, "reduced_abelian", ns))
        assert np.array_equal(extremes_counts(index), oracle_extremes(symbols, ns))


class TestKeyTables:
    """Every kind but factor counts one packed key matrix per block of lengths."""

    @settings(max_examples=100, deadline=None)
    @given(lpf_words())
    def test_every_kind_matches_oracle_on_one_to_five_letters(self, case):
        symbols, sigma, n_max = case
        # the oracle's cost grows as the cube of the length
        symbols = symbols[:150]
        n_max = min(n_max, len(symbols))
        index = AlternationPrefix(symbols, sigma, n_max)
        ns = range(1, n_max + 1)
        want = {kind: oracle_counts(symbols, kind, ns) for kind in INDEX_ENGINES}
        extremes = oracle_extremes(symbols, ns)
        # a budget of 0 gives a block per length, the default blocks of several
        for budget in (0, complexity._BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(complexity, "_BLOCK", budget)
                for kind, engine in INDEX_ENGINES.items():
                    assert np.array_equal(engine(index), want[kind]), (kind, budget)
                assert np.array_equal(extremes_counts(index), extremes), budget

    def test_packed_counts_that_wrap_and_span_several_words(self):
        # 3 bits per symbol at n_max = 7 and 23 symbols past 0 take two
        # words, and the prefix sums of the top slots pass 2**63
        rng = np.random.default_rng(22)
        symbols = rng.integers(0, 24, 3000)
        index = AlternationPrefix(symbols, 24, 7)
        sums = complexity._packed_counts(symbols, 1, 3)
        assert len(sums) == 2 and (sums < 0).any()
        ns = range(1, 8)
        for kind, engine in INDEX_ENGINES.items():
            assert np.array_equal(engine(index), oracle_counts(symbols.tolist(), kind, ns)), kind

    def test_red_keys_in_two_words(self, monkeypatch):
        # names past 2**30 leave no room for the last name in the first word
        factor_names = complexity._factor_names
        monkeypatch.setattr(
            complexity, "_factor_names", lambda *args: factor_names(*args) + np.uint32(1 << 30)
        )
        rng = random.Random(9)
        symbols = [rng.randrange(3) for _ in range(500)]
        ns = range(1, 41)
        index = AlternationPrefix(symbols, 3, 40)
        assert np.array_equal(reduced_factor_counts(index), oracle_counts(symbols, "reduced_factor", ns))
        # a block of several lengths keeps both key words within the budget
        monkeypatch.setattr(complexity, "_BLOCK", 1 << 10)
        key_table, entries = complexity._key_table, []

        def recording_key_table(index, key, *args, **kwargs):
            def recorded(ns, cut):
                keys = key(ns, cut)
                if len(ns) > 1:
                    entries.append(sum(word.size for word in keys))
                return keys

            return key_table(index, recorded, *args, **kwargs)

        monkeypatch.setattr(complexity, "_key_table", recording_key_table)
        assert np.array_equal(reduced_factor_counts(index), oracle_counts(symbols, "reduced_factor", ns))
        assert entries and max(entries) <= complexity._BLOCK

    def test_distinct_per_row_split_keys(self):
        rng = np.random.default_rng(3)
        # the binary kinds pass int32 keys, the others int64
        for shape, high, dtype in (
            ((5, 37), 40, np.int32),
            ((5, 37), 40, np.int64),
            ((5, 37), 1 << 40, np.int64),
            ((1, 37), 40, np.int64),
            ((5, 1), 40, np.int64),
            ((1, 1), 40, np.int32),
        ):
            keys = rng.integers(0, high, shape).astype(dtype)
            want = [len(set(row)) for row in keys.tolist()]
            assert np.array_equal(complexity._distinct_per_row([keys]), want), (shape, high, dtype)
            split = [keys >> 20, keys & ((1 << 20) - 1)]
            assert np.array_equal(complexity._distinct_per_row(split), want), (shape, high, dtype)


class TestProfileInvariants:
    def test_factor_counts_nondecreasing(self, tm_handle, pf_handle):
        for handle in (tm_handle, pf_handle):
            p = rw.factor_complexity(handle, 128)
            vals = profile_values(p, 128)
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_dominance_chain(self, tm_handle, pf_handle):
        # equality classes coarsen left to right, so counts can only drop
        for handle in (tm_handle, pf_handle):
            factor = rw.factor_complexity(handle, 64).values
            abelian = rw.abelian_complexity(handle, 64).values
            red = rw.reduced_factor_complexity(handle, 64).values
            abred = rw.reduced_abelian_complexity(handle, 64).values
            for n in range(1, 65):
                assert abelian[n] <= factor[n]
                assert red[n] <= factor[n]
                assert abred[n] <= red[n]

    def test_tm_reduced_counts_even(self, tm_handle):
        # tm's factor set is complement-closed and flipping changes the
        # reduction, so reduced classes pair up
        p = rw.reduced_factor_complexity(tm_handle, 128)
        assert len(p.values) == 129
        assert all(v % 2 == 0 for v in p.values[1:].tolist())

    def test_alternation_interval_is_full(self, tm_handle, pf_handle):
        # sliding a window one step changes its alternation count by at most
        # one, so every value between min and max is realized
        for handle in (tm_handle, pf_handle):
            symbols = handle.prefix_symbols(4096)
            alt = reached_alternations(AlternationPrefix(symbols, 2, 64), symbols)
            for n in (2, 3, 5, 9, 17, 33, 64):
                d = alt[n - 1 :] - alt[: 4096 - n + 1]
                present = set(np.unique(d).tolist())
                assert present == set(range(min(present), max(present) + 1))

    def test_extremes_table_bounds_and_monotonicity(self, tm_handle):
        table = rw.alternation_extremes(tm_handle, 64)
        assert table.kind == "alternation_extremes"
        for n in range(1, 65):
            least, greatest = table.values[n]
            assert 0 <= least <= greatest <= n - 1
        for n in range(1, 64):
            assert table.values[n][0] <= table.values[n + 1][0]
            assert table.values[n][1] <= table.values[n + 1][1]

    def test_bridge_small(self, tm_handle):
        table = rw.alternation_extremes(tm_handle, 64)
        profile = rw.reduced_factor_complexity(tm_handle, 64)
        for n in range(1, 65):
            assert rw.reduced_complexity_from_extremes(table, n) == profile.values[n]


PROFILE_ENGINES = {
    "factor": rw.factor_complexity,
    "abelian": rw.abelian_complexity,
    "reduced_factor": rw.reduced_factor_complexity,
    "reduced_abelian": rw.reduced_abelian_complexity,
    "extremes": rw.alternation_extremes,
}


def brute_force_reach(symbols, n_max) -> int:
    """The largest end of the first occurrence of any window of length n <= n_max."""
    reach = 0
    for n in range(1, n_max + 1):
        seen = set()
        for s in range(len(symbols) - n + 1):
            window = tuple(symbols[s : s + n])
            if window not in seen:
                seen.add(window)
                reach = max(reach, s + n)
    return reach


@st.composite
def reach_words(draw):
    """(symbols, alphabet size, n_max): a random word over 1-5 letters."""
    sigma = draw(st.integers(1, 5))
    symbols = draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=120))
    return symbols, sigma, draw(st.integers(1, len(symbols)))


class TestReach:
    """After naming, the index's per-position arrays stop at its reach."""

    @settings(max_examples=100, deadline=None)
    @example(([0] * 40 + [1], 2, 3))
    @example(([1] + [0] * 40 + [1], 2, 3))
    @example(([1] + [0] * 40 + [1], 2, 41))
    @given(reach_words())
    def test_reach_is_the_last_end_of_a_first_occurrence(self, case):
        symbols, sigma, n_max = case
        index = AlternationPrefix(symbols, sigma, n_max)
        assert index.reach == brute_force_reach(symbols, n_max)
        reached_alternations(index, symbols)

    def test_a_new_last_symbol_reaches_the_end(self):
        for k in (1, 5, 300):
            symbols = [0] * k + [1]
            for n_max in (1, 2, k + 1):
                assert AlternationPrefix(symbols, 2, n_max).reach == k + 1

    @pytest.mark.parametrize("n_max", [1, 2, 8, 16])
    @pytest.mark.parametrize("name", ["tm", "pf", "tribonacci"])
    def test_a_long_fixed_window_counts_the_proven_profiles(self, name, n_max):
        tribonacci = DATA.parent.parent / "perfbench" / "data" / "tribonacci.spec"
        handle = rw.load_sequence_spec(str(tribonacci)) if name == "tribonacci" else BUILTINS[name]()
        fixed = WindowPolicy(fixed_length=1 << 16)
        index = AlternationPrefix(handle.prefix_symbols(1 << 16), handle.alphabet_size, n_max)
        # every first occurrence ends within the first 128 symbols
        assert index.reach <= 128
        assert complexity._proven_prefix(handle, n_max, WindowPolicy()) is not None
        for kind, engine in PROFILE_ENGINES.items():
            assert np.array_equal(engine(handle, n_max, fixed).values, engine(handle, n_max).values), kind


def stabilization_partials(make, engine, n_max):
    """A profile whose counts fail to stabilize: only its ``partial_values`` are read."""

    def run(handle, n, policy=None):
        with pytest.raises(StabilizationError) as excinfo:
            engine(handle, n, WindowPolicy(initial_multiplier=1, max_doublings=1))
        return excinfo.value.partial_values

    return make, run, n_max, None, (2,) if engine is rw.alternation_extremes else ()


# per engine path: the sequence, the profile function (or what reads the
# values), n_max, the policy and the shape of one value
VALUE_PATHS = {
    "recursion-red": (rw.thue_morse, rw.reduced_factor_complexity, 64, None, ()),
    "recursion-extremes": (rw.thue_morse, rw.alternation_extremes, 64, None, (2,)),
    "proven-index-factor": (rw.thue_morse, rw.factor_complexity, 64, None, ()),
    "doubling-abred": (
        lambda: rw.load_sequence_spec(str(DATA / "pf_toeplitz.spec")), rw.reduced_abelian_complexity, 16, None, ()
    ),
    "fixed-window-extremes": (rw.paperfolding, rw.alternation_extremes, 16, WindowPolicy(fixed_length=512), (2,)),
    "partial-values-factor": stabilization_partials(rw.thue_morse, rw.factor_complexity, 64),
    "partial-values-extremes": stabilization_partials(rw.thue_morse, rw.alternation_extremes, 4),
}


class TestValueArrays:
    """Every engine path gives its values as one int64 array indexed by n."""

    @pytest.mark.parametrize("path", list(VALUE_PATHS))
    def test_values_are_one_int64_array_indexed_by_n(self, monkeypatch, path):
        make, engine, n_max, policy, shape = VALUE_PATHS[path]
        built = TestMorphicRecursion.count_indexes(monkeypatch)
        result = engine(make(), n_max, policy)
        # only the recursion builds no index
        assert (built == []) == path.startswith("recursion")
        values = result if isinstance(result, np.ndarray) else result.values
        assert values.dtype == np.int64
        assert values.shape == (n_max + 1, *shape)
        # slot 0 is unused; from n = 1 every count is at least 1, and least <= greatest
        assert not values[0].any()
        if shape:
            assert (values[1:, 0] >= 0).all() and (values[1:, 0] <= values[1:, 1]).all()
        else:
            assert (values[1:] >= 1).all()

    def test_value_reads_plain_python_values(self, tm_handle):
        red = rw.reduced_factor_complexity(tm_handle, 23)
        assert [red.value(n) for n in range(1, 24)] == RHO_RED_T_23
        assert all(type(red.value(n)) is int for n in range(1, 24))
        extremes = rw.alternation_extremes(tm_handle, 8)
        assert extremes.value(5) == (2, 3)
        assert all(type(x) is int for x in extremes.value(5))
        for n in (0, -1, 24):
            with pytest.raises(IndexError, match=f"^no value at n={n}; the profile runs from 1 to 23$"):
                red.value(n)


class TestWindowPolicy:
    def test_defaults(self):
        policy = WindowPolicy()
        assert policy.initial_multiplier == 32
        assert policy.max_doublings == 6
        assert policy.fixed_length is None
        assert policy.initial_window(100) == 3200

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowPolicy(initial_multiplier=0)
        with pytest.raises(ConfigurationError):
            WindowPolicy(max_doublings=0)

    def test_stabilization_soundness(self, tm_handle):
        # the reported counts must be what a direct scan finds at the
        # certified window and at twice it
        profile = rw.reduced_factor_complexity(tm_handle, 32)
        w = profile.certified_window
        ns = range(1, 33)
        at_w = oracle_counts(tm_handle.prefix_symbols(w), "reduced_factor", ns)
        at_2w = oracle_counts(tm_handle.prefix_symbols(2 * w), "reduced_factor", ns)
        assert np.array_equal(at_w, profile.values)
        assert np.array_equal(at_2w, profile.values)

    def test_stabilization_failure_carries_partials(self, tm_handle):
        policy = WindowPolicy(initial_multiplier=1, max_doublings=1)
        with pytest.raises(StabilizationError) as excinfo:
            rw.factor_complexity(tm_handle, 64, policy)
        err = excinfo.value
        assert err.window == 128
        # a value per n in 1..64, indexed by n, as a profile's
        assert (err.partial_values.dtype, err.partial_values.shape) == (np.int64, (65,))
        assert err.partial_values[0] == 0
        # the least n whose counts differ between the windows 64 and 128
        ns = range(1, 65)
        at_64 = oracle_counts(tm_handle.prefix_symbols(64), "factor", ns)
        at_128 = oracle_counts(tm_handle.prefix_symbols(128), "factor", ns)
        assert np.array_equal(err.partial_values, at_128)
        assert err.first_unstable_n == min(n for n in ns if at_64[n] != at_128[n]) == 18

    @settings(max_examples=60, deadline=None)
    @given(handled_words())
    def test_profiles_match_two_scan_reference(self, case):
        handle, n_max, policy = case
        for kind, engine in PROFILE_ENGINES.items():
            certified, values, window, first_unstable_n = two_scan_reference(
                handle, kind, n_max, policy
            )
            if certified:
                result = engine(handle, n_max, policy)
                assert np.array_equal(result.values, values), kind
                assert result.certified_window == window, kind
            else:
                with pytest.raises(StabilizationError) as excinfo:
                    engine(handle, n_max, policy)
                err = excinfo.value
                assert np.array_equal(err.partial_values, values), kind
                assert err.window == window, kind
                assert err.first_unstable_n == first_unstable_n, kind

    @pytest.mark.parametrize("kind", list(PROFILE_ENGINES))
    def test_second_index_only_when_a_first_occurrence_ends_past_the_window(
        self, monkeypatch, kind
    ):
        built = []

        class CountedIndex(AlternationPrefix):
            def __init__(self, symbols, alphabet_size, n_max):
                built.append(len(symbols))
                super().__init__(symbols, alphabet_size, n_max)

        monkeypatch.setattr(complexity, "AlternationPrefix", CountedIndex)
        rng = random.Random(5)
        # a long aperiodic preperiod: at multiplier 1 the first occurrences
        # in twice the window end past it until the window covers the head
        word = [rng.randrange(3) for _ in range(200)] + [0, 1, 2] * 200
        head = SequenceHandle("head", 3, lambda buf, target: word[len(buf) : target])
        cases = [
            # tm's morphism proves that its first 7 * 8 symbols hold every
            # factor of length 8 or less, so that prefix is the one index;
            # the binary kinds take tm's recursion and build none
            (rw.thue_morse(), WindowPolicy(), [56] if kind in ("factor", "abelian") else []),
            # a Toeplitz spec carries no morphism, and doubles
            (rw.load_sequence_spec(str(DATA / "pf_toeplitz.spec")), WindowPolicy(), [512]),
            (head, WindowPolicy(initial_multiplier=1), [16, 8]),
            (head, WindowPolicy(initial_multiplier=1, max_doublings=2), [16, 8]),
        ]
        for handle, policy, first in cases:
            built.clear()
            certified, values, window, first_unstable_n = two_scan_reference(
                handle, kind, 8, policy
            )
            if certified:
                result = PROFILE_ENGINES[kind](handle, 8, policy)
                assert np.array_equal(result.values, values)
                assert result.certified_window == window
                last = 2 * window
            else:
                with pytest.raises(StabilizationError) as excinfo:
                    PROFILE_ENGINES[kind](handle, 8, policy)
                err = excinfo.value
                assert np.array_equal(err.partial_values, values)
                assert err.window == window
                assert err.first_unstable_n == first_unstable_n
                last = window
            # the first step indexes twice the window, and the window itself
            # only when a first occurrence ends past it; each later step one
            w = policy.initial_window(8)
            assert built[: len(first)] == first
            assert built[len(first) :] == [w << k for k in range(2, (last // w).bit_length())]

    def test_proof_windows_of_the_builtins_and_the_tribonacci_spec(self):
        tribonacci = rw.load_sequence_spec(str(DATA.parent.parent / "perfbench" / "data" / "tribonacci.spec"))
        cases = [(1, 7, 13, 8), (2, 7, 13, 8), (8, 56, 104, 94), (2048, 14336, 26624, 41658)]
        for n_max, tm, pf, trib in cases:
            window = 32 * n_max
            assert complexity._proof_window(rw.thue_morse(), n_max, window) == tm
            assert complexity._proof_window(rw.paperfolding(), n_max, window) == pf
            assert complexity._proof_window(tribonacci, n_max, window) == trib
        # no proof past the window, nor for a Toeplitz spec
        assert complexity._proof_window(rw.thue_morse(), 2048, 14335) is None
        pf_toeplitz = rw.load_sequence_spec(str(DATA / "pf_toeplitz.spec"))
        assert complexity._proof_window(pf_toeplitz, 8, 256) is None

    @pytest.mark.parametrize("kind", sorted(PROFILE_ENGINES))
    def test_a_profile_computes_its_proof_once(self, monkeypatch, kind):
        # the tribonacci spec is proven at 128, and fails the recursion's
        # check, so every kind is counted on the index of its proven prefix
        tribonacci = rw.load_sequence_spec(str(DATA.parent.parent / "perfbench" / "data" / "tribonacci.spec"))
        proof_window, calls = complexity._proof_window, []

        def counting(handle, n_max, window):
            calls.append(n_max)
            return proof_window(handle, n_max, window)

        monkeypatch.setattr(complexity, "_proof_window", counting)
        profile = PROFILE_ENGINES[kind](tribonacci, 128)
        assert profile.certified_window == 32 * 128
        assert calls == [128]

    def test_a_bounded_letter_keeps_doubling(self, monkeypatch):
        # 0 -> 01, 1 -> 1: the images of 1 never grow, so no k exists
        handle = rw.morphic_fixed_point(rw.Morphism({0: (0, 1), 1: (1,)}, 2), 0)
        assert complexity._proof_window(handle, 8, 1 << 20) is None
        built = []

        class CountedIndex(AlternationPrefix):
            def __init__(self, symbols, alphabet_size, n_max):
                built.append(len(symbols))
                super().__init__(symbols, alphabet_size, n_max)

        monkeypatch.setattr(complexity, "AlternationPrefix", CountedIndex)
        profile = rw.factor_complexity(handle, 8)
        assert np.array_equal(profile.values, [0] + [2] * 8)
        assert profile.certified_window == 256
        assert built == [512]

    @settings(max_examples=60, deadline=None)
    @given(prolongable_morphisms(), st.integers(1, 10))
    def test_proof_window_matches_doubling_and_the_oracle(self, source, n_max):
        morphism, seed = source
        handle = rw.morphic_fixed_point(morphism, seed)
        # the same sequence without its morphism, certified by doubling
        plain = SequenceHandle(
            "plain", morphism.alphabet_size, lambda buf, target: handle.prefix_symbols(target)[len(buf) :]
        )
        policy = WindowPolicy()
        proof = complexity._proof_window(handle, n_max, policy.initial_window(n_max))
        ns = range(1, n_max + 1)
        for kind, engine in PROFILE_ENGINES.items():
            outcomes = []
            for h in (handle, plain):
                try:
                    profile = engine(h, n_max, policy)
                    outcomes.append((profile.values, profile.certified_window))
                except StabilizationError as exc:
                    outcomes.append((exc.partial_values, exc.window, exc.first_unstable_n))
            assert len(outcomes[0]) == len(outcomes[1]), kind
            assert np.array_equal(outcomes[0][0], outcomes[1][0]), kind
            assert outcomes[0][1:] == outcomes[1][1:], kind
            if proof is not None:
                symbols = handle.prefix_symbols(8 * proof).tolist()
                oracle = (
                    oracle_extremes(symbols, ns) if kind == "extremes" else oracle_counts(symbols, kind, ns)
                )
                assert np.array_equal(outcomes[0][0], oracle), kind

    @settings(max_examples=40, deadline=None)
    @given(prolongable_morphisms(), st.integers(2, 24), st.data())
    def test_proven_counts_are_the_profiles_at_each_length(self, source, n_max, data):
        # one index at the longest length gives each kind, up to its own
        # longest length, what the profile at the longest length gives
        morphism, seed = source
        handle = rw.morphic_fixed_point(morphism, seed)
        policy = WindowPolicy()
        kinds = {"factor": "factor", "red": "reduced_factor", "abred": "reduced_abelian", "extremes": "extremes"}
        drawn = sorted(data.draw(st.sets(st.sampled_from(sorted(kinds)), min_size=1)))
        longest = {kind: data.draw(st.integers(1, n_max)) for kind in drawn[1:]}
        longest[drawn[0]] = n_max
        counts = proven_values(handle, policy, longest)
        assert_same_tables(counts, index_counts(handle, policy, longest))
        if counts is None:
            return
        for kind, n in longest.items():
            profile = PROFILE_ENGINES[kinds[kind]](handle, n_max, policy)
            assert np.array_equal(counts[kind], profile.values[: n + 1]), kind

    def test_capacity_error_names_the_same_prefix(self, monkeypatch):
        # the first scan asks for the window and certification for twice it;
        # the error names the first length past the cap
        monkeypatch.setenv("REDUXWORDS_MAX_PREFIX", "3000")
        m = rw.Morphism({0: (0, 1), 1: (2, 0), 2: (1, 2)}, 3)

        with pytest.raises(CapacityError, match="prefix of 3200 symbols"):
            rw.reduced_factor_complexity(rw.morphic_fixed_point(m, 0, name="ternary"), 100)
        with pytest.raises(CapacityError, match="prefix of 4096 symbols"):
            rw.reduced_factor_complexity(rw.morphic_fixed_point(m, 0, name="ternary"), 64)

    def test_fixed_mode(self, tm_handle):
        policy = WindowPolicy(fixed_length=4096)
        profile = rw.reduced_factor_complexity(tm_handle, 16, policy)
        assert profile.certified_window == 4096
        assert profile_values(profile, 16) == RHO_RED_T_23[:16]

    def test_fixed_mode_window_must_cover_n_max(self, tm_handle):
        policy = WindowPolicy(fixed_length=8)
        with pytest.raises(ConfigurationError, match="^fixed window 8 is shorter than n_max=64$"):
            rw.factor_complexity(tm_handle, 64, policy)

    def test_n_max_must_be_positive(self, tm_handle):
        with pytest.raises(ConfigurationError):
            rw.factor_complexity(tm_handle, 0)


# the profile kinds that a uniform morphism's recursion serves, by their read kind
RECURSIVE_KINDS = {"red": "reduced_factor", "abred": "reduced_abelian", "extremes": "extremes"}


def index_counts(handle, policy, longest):
    """Per kind (``factor``, ``red``, ``abred`` or ``extremes``), its counts at
    every n up to its ``longest`` length on one window index of the prefix
    that the morphism proves holds every factor up to the longest length of
    all; None where no such prefix is counted. The reference that the
    morphism's recursion is held to."""
    n_max = max(longest.values())
    proof = complexity._proven_prefix(handle, n_max, policy)
    if proof is None:
        return None
    index = AlternationPrefix(handle.prefix_symbols(proof), handle.alphabet_size, n_max)
    counts = {
        "factor": factor_counts,
        "red": reduced_factor_counts,
        "abred": reduced_abelian_counts,
        "extremes": extremes_counts,
    }
    return {kind: counts[kind](index)[: n + 1] for kind, n in longest.items()}


def proven_values(handle, policy, longest):
    """:func:`complexity.proven_counts`, having checked that its tables are
    int64 arrays of n + 1 rows for a kind's longest n."""
    tables = complexity.proven_counts(handle, policy, longest)
    if tables is None:
        return None
    for kind, table in tables.items():
        shape = (longest[kind] + 1, 2) if kind == "extremes" else (longest[kind] + 1,)
        assert (table.dtype, table.shape) == (np.int64, shape), kind
    return tables


def coded_fixed_point(morphism, coding, name="coded"):
    """The binary coding of the fixed point of ``morphism`` at 0, carrying its
    source as :func:`reduxwords.paperfolding` does."""
    return _fixed_point(morphism, 0, name, coding, 2)


@st.composite
def coded_uniform_morphisms(draw):
    """(handle, n_max): a random binary coding of the fixed point at 0 of a
    random k-uniform morphism, k in {2, 3}, on 2 to 4 letters."""
    k, sigma = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    image = st.lists(st.integers(0, sigma - 1), min_size=k, max_size=k)
    images = {c: tuple(draw(image)) for c in range(sigma)}
    images[0] = (0, *images[0][1:])
    coding = draw(st.lists(st.integers(0, 1), min_size=sigma, max_size=sigma))
    return coded_fixed_point(rw.Morphism(images, sigma), coding), draw(st.integers(1, 32))


class TestMorphicRecursion:
    """Binary profiles of a uniform morphism's coding, from its recursion."""

    @staticmethod
    def count_indexes(monkeypatch) -> list:
        built = []

        class CountedIndex(AlternationPrefix):
            def __init__(self, symbols, alphabet_size, n_max):
                built.append(len(symbols))
                super().__init__(symbols, alphabet_size, n_max)

        monkeypatch.setattr(complexity, "AlternationPrefix", CountedIndex)
        return built

    @pytest.mark.parametrize("make", [rw.thue_morse, rw.paperfolding], ids=["tm", "pf"])
    def test_builtins_equal_the_index_at_every_length(self, monkeypatch, make):
        # 1, 2 and 3 fall in the base cases and 5 = 2k + 1 is the last of them
        policy = WindowPolicy()
        index = index_counts(make(), policy, dict.fromkeys(RECURSIVE_KINDS, 4096))
        built = self.count_indexes(monkeypatch)
        for n_max in (1, 2, 3, 5, 6, 4096):
            for kind, name in RECURSIVE_KINDS.items():
                profile = PROFILE_ENGINES[name](make(), n_max, policy)
                assert np.array_equal(profile.values, index[kind][: n_max + 1]), (kind, n_max)
                assert profile.certified_window == 32 * n_max
        assert built == []

    def test_planned_claim_tables_equal_the_index(self):
        # to the longest length that `verify all --n-max 2048` and
        # `conjecture all --n-max 1024` read; tm's extremes reach 4 * 2048 + 2
        policy = WindowPolicy()
        read = set()
        for conjectures, n_max in ((False, 2048), (True, 1024)):
            ids = [cid for cid, claim in rw.CLAIMS.items() if (claim.kind == "conjecture") == conjectures]
            store = rw.plan_claims(ids, n_max)
            for name, make in (("tm", rw.thue_morse), ("pf", rw.paperfolding)):
                longest = {kind: n for (seq, kind), n in store.planned.items() if seq == name}
                if longest:
                    read.update((name, kind) for kind in longest)
                    counts = proven_values(make(), policy, longest)
                    assert counts is not None, (name, n_max)
                    assert_same_tables(counts, index_counts(make(), policy, longest))
        assert {kind for _, kind in read} == {"factor", "red", "abred", "extremes"}

    @settings(max_examples=100, deadline=None)
    @given(coded_uniform_morphisms())
    def test_uniform_morphisms_that_pass_the_check_equal_the_oracle(self, case):
        handle, n_max = case
        policy = WindowPolicy()
        assume(complexity._proven_prefix(handle, n_max, policy) is not None)
        assume(complexity._recursive_codes(handle, n_max) is not None)
        symbols = handle.prefix_symbols(complexity._proof_window(handle, n_max, 32 * n_max)).tolist()
        ns = range(1, n_max + 1)
        for kind, name in RECURSIVE_KINDS.items():
            profile = PROFILE_ENGINES[name](handle, n_max, policy)
            oracle = oracle_extremes(symbols, ns) if kind == "extremes" else oracle_counts(symbols, name, ns)
            assert np.array_equal(profile.values, oracle), kind
            assert profile.certified_window == 32 * n_max, kind

    def test_other_morphisms_keep_the_index(self, monkeypatch):
        # period-doubling and the Rudin-Shapiro coding are uniform but fail
        # the check; the tribonacci spec is neither binary nor uniform
        period_doubling = rw.morphic_fixed_point(rw.Morphism({0: (0, 1), 1: (0, 0)}, 2), 0)
        rudin_shapiro = coded_fixed_point(rw.Morphism({0: (0, 1), 1: (0, 2), 2: (3, 1), 3: (3, 2)}, 4), (0, 0, 1, 1))
        tribonacci = rw.load_sequence_spec(str(DATA.parent.parent / "perfbench" / "data" / "tribonacci.spec"))
        assert complexity._recursive_codes(period_doubling, 64) is None
        assert complexity._recursive_codes(rudin_shapiro, 64) is None
        policy = WindowPolicy()
        for handle in (period_doubling, rudin_shapiro, tribonacci):
            longest = dict.fromkeys(RECURSIVE_KINDS, 64)
            index = index_counts(handle, policy, longest)
            built = self.count_indexes(monkeypatch)
            assert index is not None
            assert_same_tables(proven_values(handle, policy, longest), index)
            # the check fails, so all three kinds take one index
            assert len(built) == 1
            built.clear()
            for kind, name in RECURSIVE_KINDS.items():
                assert np.array_equal(PROFILE_ENGINES[name](handle, 64, policy).values, index[kind]), (handle.name, kind)
            assert len(built) == 3


class TestNonBinaryEndToEnd:
    def test_ternary_morphic_profiles(self):
        # engines must work off the binary keys too
        m = rw.Morphism({0: (0, 1), 1: (2, 0), 2: (1, 2)}, 3)
        handle = rw.morphic_fixed_point(m, 0, name="ternary")
        profile = rw.reduced_factor_complexity(handle, 12)
        symbols = handle.prefix_symbols(profile.certified_window)
        assert np.array_equal(profile.values, oracle_counts(symbols, "reduced_factor", range(1, 13)))
        ab = rw.abelian_complexity(handle, 12)
        assert np.array_equal(
            ab.values, oracle_counts(handle.prefix_symbols(ab.certified_window), "abelian", range(1, 13))
        )
        abred = rw.reduced_abelian_complexity(handle, 12)
        assert np.array_equal(
            abred.values,
            oracle_counts(handle.prefix_symbols(abred.certified_window), "reduced_abelian", range(1, 13)),
        )
        table = rw.alternation_extremes(handle, 12)
        assert np.array_equal(
            table.values, oracle_extremes(handle.prefix_symbols(table.certified_window), range(1, 13))
        )

    def test_three_hundred_letters(self):
        # the spec of the CLI's alphabet-past-256 test: the Parikh keys take
        # many words and the reductions many run names
        images = {0: tuple(range(300)), **{i: (i, i) for i in range(1, 300)}}
        handle = rw.morphic_fixed_point(rw.Morphism(images, 300), 0, name="wide")
        for kind in ("abelian", "reduced_factor", "reduced_abelian"):
            profile = PROFILE_ENGINES[kind](handle, 20)
            symbols = handle.prefix_symbols(profile.certified_window).tolist()
            assert max(symbols) >= 256
            assert np.array_equal(profile.values, oracle_counts(symbols, kind, range(1, 21))), kind


class TestFrozenMorphicValues:
    """The four kinds on the tribonacci spec at the sizes frozen for the benchmark."""

    @pytest.mark.parametrize(
        "kind, engine",
        [
            ("abred", rw.reduced_abelian_complexity),
            ("red", rw.reduced_factor_complexity),
            ("abelian", rw.abelian_complexity),
            ("factor", rw.factor_complexity),
        ],
    )
    def test_matches_frozen_values(self, kind, engine):
        data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
        frozen = json.loads((data / "morphic_expected.json").read_text())["profiles"][kind]
        handle = rw.load_sequence_spec(str(data / "tribonacci.spec"))
        policy = WindowPolicy(fixed_length=frozen["prefix_length"])
        profile = engine(handle, frozen["n_max"], policy)
        assert profile_values(profile, frozen["n_max"]) == frozen["values"]
