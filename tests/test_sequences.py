"""Sequence generators: golden prefixes, cross-construction agreement,
structural identities, caps, and the spec-file loader."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reduxwords as rw
from reduxwords.errors import CapacityError, ConfigurationError, SpecFileError
from reduxwords.sequences import ToeplitzSpec, _fixed_point, toeplitz

from conftest import DATA, PF_PREFIX_55, TM_PREFIX_54, pointwise_handle


def _second_construction(name):
    """The spec file of a builtin: ``tm_morphic`` or ``pf_toeplitz``. Both
    build the handle the builtin builds, so the rules and the gap-filling
    reference below are the independent checks."""
    return rw.load_sequence_spec(str(DATA / f"{name}.spec"))


def _toeplitz_fill(spec: ToeplitzSpec, length: int) -> list[int]:
    """Reference Toeplitz prefix: the gap-filling passes run on a finite buffer."""
    # A position's value is final once written, and the k-th remaining gap of
    # the finite buffer is the k-th remaining gap of the infinite sequence, so
    # prefixes of different lengths agree.
    buf = [0] * length
    gaps = list(range(length))
    while gaps:
        for j, pos in enumerate(gaps[0::2]):
            buf[pos] = spec.filler_at(j)
        gaps = gaps[1::2]
    return buf


def thue_morse_block(n: np.ndarray) -> np.ndarray:
    """:func:`reduxwords.thue_morse_at` on an int64 array of indices in 1..2**63-1."""
    x = n - 1
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return (x & 1).astype(np.uint8)


def paperfolding_block(n: np.ndarray) -> np.ndarray:
    """:func:`reduxwords.paperfolding_at` on an int64 array of positive indices.

    Bit 1 of the odd part of n is the bit of n just above its lowest set bit.
    """
    return ((n & ((n & -n) << 1)) != 0).astype(np.uint8)


def iterated_fixed_point(m: rw.Morphism, seed: int) -> rw.SequenceHandle:
    """Reference handle for the fixed point of ``m`` at ``seed``, grown one
    symbol at a time."""
    state = {"consumed": 1, "overshoot": list(m.images[seed])}

    def extend(buf, target):
        # buf + overshoot is the image of the first ``consumed`` symbols of
        # the fixed point; ``work`` holds its positions from ``base`` on.
        consumed = state["consumed"]
        base = min(consumed, len(buf))
        work = buf[base:].tolist() + state["overshoot"]
        while base + len(work) < target:
            work.extend(m.images[work[consumed - base]])
            consumed += 1
        state["consumed"], state["overshoot"] = consumed, work[target - base :]
        return work[len(buf) - base : target - base]

    return rw.SequenceHandle("iterated", m.alphabet_size, extend)


@st.composite
def prolongable_morphisms(draw):
    """(morphism, coding): a random morphism prolongable at 0, on up to five
    letters of an alphabet of 2 to 300, with images of one length or of
    lengths 1 to 4 (so letters may stay bounded), and, when the images
    have one length, a random binary coding of its letters or None."""
    sigma = draw(st.sampled_from([2, 3, 5, 300]))
    letters = [0] + draw(st.lists(st.integers(1, sigma - 1), min_size=1, max_size=4, unique=True))
    width = draw(st.none() | st.integers(2, 4))
    images = {}
    for c in letters:
        size = width or draw(st.integers(2 if c == 0 else 1, 4))
        images[c] = tuple(draw(st.lists(st.sampled_from(letters), min_size=size, max_size=size)))
    images[0] = (0, *images[0][1:])
    coding = None
    if width and draw(st.booleans()):
        coding = [0] * sigma
        for c in letters:
            coding[c] = draw(st.integers(0, 1))
    return rw.Morphism(images, sigma), coding


@st.composite
def toeplitz_specs(draw):
    sigma = draw(st.integers(1, 4))
    letters = st.integers(0, sigma - 1)
    return ToeplitzSpec(
        period=tuple(draw(st.lists(letters, min_size=1, max_size=6))),
        preperiod=tuple(draw(st.lists(letters, max_size=6))),
        alphabet_size=sigma,
    )


class TestGoldenPrefixes:
    def test_tm_prefix(self, tm_handle):
        assert str(tm_handle.prefix(54)) == TM_PREFIX_54

    def test_pf_prefix(self, pf_handle):
        assert str(pf_handle.prefix(55)) == PF_PREFIX_55

    def test_pointwise_matches_prefix(self, tm_handle, pf_handle):
        for n in range(1, 200):
            assert tm_handle.at(n) == rw.thue_morse_at(n)
            assert pf_handle.at(n) == rw.paperfolding_at(n)

    def test_one_based_indexing(self, tm_handle):
        assert tm_handle.at(1) == 0
        with pytest.raises(ValueError):
            tm_handle.at(0)
        with pytest.raises(ValueError):
            rw.thue_morse_at(0)
        with pytest.raises(ValueError):
            rw.paperfolding_at(-3)


class TestCrossConstruction:
    def test_tm_morphic_agrees_with_rule(self):
        a = rw.thue_morse().prefix_symbols(1 << 14)
        b = _second_construction("tm_morphic").prefix_symbols(1 << 14)
        assert a.tolist() == b.tolist()

    def test_pf_toeplitz_agrees_with_rule(self):
        a = rw.paperfolding().prefix_symbols(1 << 14)
        b = _second_construction("pf_toeplitz").prefix_symbols(1 << 14)
        assert a.tolist() == b.tolist()
        assert a.tolist() == paperfolding_block(np.arange(1, (1 << 14) + 1)).tolist()

    @pytest.mark.parametrize("builtin", [rw.thue_morse, rw.paperfolding])
    def test_builtin_is_the_coding_of_its_source_morphism(self, builtin):
        # pf: 0, 2 -> 0 and 1, 3 -> 1 of the fixed point of 0 -> 02, 1 -> 03,
        # 2 -> 12, 3 -> 13, its Toeplitz source; tm: the fixed point of
        # 0 -> 01, 1 -> 10
        handle = builtin()
        morphism, seed, coding = handle._source
        source = rw.morphic_fixed_point(morphism, seed).prefix_symbols(1 << 16)
        coded = source if coding is None else np.array(coding)[source]
        assert np.array_equal(coded, handle.prefix_symbols(1 << 16))


class TestMorphic:
    def test_tm_prefix_is_fixed_by_morphism(self, tm_handle):
        mu = rw.thue_morse_morphism()
        for length in (1, 5, 32, 100):
            w = tm_handle.prefix(length)
            assert mu.apply(w) == tm_handle.prefix(2 * length)

    def test_nonuniform_images(self):
        # symbols 1 and 2 with images of lengths 3 and 5
        m = rw.Morphism({1: (1, 2, 1), 2: (1, 2, 2, 2, 1)}, alphabet_size=3)
        h = rw.morphic_fixed_point(m, 1)
        assert h.prefix_symbols(8).tolist() == [1, 2, 1, 1, 2, 2, 2, 1]

    def test_requires_prolongable_seed(self):
        m = rw.Morphism({0: (1, 0), 1: (0, 1)}, 2)
        with pytest.raises(ConfigurationError):
            rw.morphic_fixed_point(m, 0)

    def test_requires_length_two_image(self):
        m = rw.Morphism({0: (0,), 1: (1, 0)}, 2)
        with pytest.raises(ConfigurationError):
            rw.morphic_fixed_point(m, 0)

    def test_requires_closure(self):
        m = rw.Morphism({0: (0, 1)}, 2)
        with pytest.raises(ConfigurationError):
            rw.morphic_fixed_point(m, 0)

    def test_rejects_empty_image(self):
        with pytest.raises(ConfigurationError):
            rw.Morphism({0: ()}, 2)

    @settings(max_examples=80, deadline=None)
    @given(prolongable_morphisms(), st.lists(st.integers(1, 3000), min_size=1, max_size=5))
    def test_gather_matches_per_symbol_reference(self, drawn, lengths):
        morphism, coding = drawn
        expected = iterated_fixed_point(morphism, 0).prefix_symbols(max(lengths))
        if coding is not None:
            expected = np.array(coding)[expected]

        def gathered():
            return _fixed_point(morphism, 0, "gathered", coding, None if coding is None else 2)

        # the extender called at any targets, so that growth stops mid-image
        extend = gathered()._extend
        buf = np.empty(0, dtype=expected.dtype)
        for target in sorted(set(lengths)):
            buf = np.concatenate((buf, extend(buf, target)))
            assert buf.tolist() == expected[:target].tolist()
        # the handle, grown in several steps and in one
        handle = gathered()
        for length in lengths:
            assert handle.prefix_symbols(length).tolist() == expected[:length].tolist()
        assert gathered().prefix_symbols(max(lengths)).tolist() == expected.tolist()

    def test_bounded_letter_matches_per_symbol_reference(self):
        # 0 -> 01, 1 -> 1 adds one symbol per level
        m = rw.Morphism({0: (0, 1), 1: (1,)}, 2)
        length = 1 << 14
        expected = iterated_fixed_point(m, 0).prefix_symbols(length)
        assert np.array_equal(rw.morphic_fixed_point(m, 0).prefix_symbols(length), expected)

    def test_rejects_out_of_alphabet_image(self):
        with pytest.raises(ConfigurationError):
            rw.Morphism({0: (0, 2)}, 2)

    def test_coding_needs_images_of_one_length(self):
        m = rw.Morphism({0: (0, 1), 1: (1,)}, 2)
        with pytest.raises(ConfigurationError, match="one length"):
            _fixed_point(m, 0, "coded", (1, 0), 2)

    @pytest.mark.parametrize("big", [2, 299, 10**9 - 1])
    def test_tables_hold_the_letters_of_the_fixed_point(self, big):
        # letters 0 and big of an alphabet of 10**9: a table per declared
        # letter would not fit in memory; 299 and 10**9 - 1 take rows by rank
        length = 5000
        for images in ({0: (0, 1), 1: (1, 0)}, {0: (0, 1, 1), 1: (0,)}):
            expected = iterated_fixed_point(rw.Morphism(images, 2), 0).prefix_symbols(length)
            renamed = {big * c: tuple(big * s for s in image) for c, image in images.items()}
            handle = rw.morphic_fixed_point(rw.Morphism(renamed, 10**9), 0)
            assert np.array_equal(handle.prefix_symbols(length), big * expected.astype(np.int64))

    @pytest.mark.parametrize("big", [2, 299])
    def test_coded_tables_hold_the_letters_of_the_fixed_point(self, big):
        # tm as the coding big -> 1 of the fixed point of 0 -> 0 big, big -> big 0
        m = rw.Morphism({0: (0, big), big: (big, 0)}, 300)
        coding = [0] * 300
        coding[big] = 1
        handle = _fixed_point(m, 0, "coded", coding, 2)
        assert np.array_equal(handle.prefix_symbols(5000), rw.thue_morse().prefix_symbols(5000))


class TestToeplitz:
    def test_values_independent_of_buffer_length(self):
        spec = ToeplitzSpec(period=(0, 1), preperiod=(1, 1, 0))
        assert _toeplitz_fill(spec, 64) == _toeplitz_fill(spec, 512)[:64]

    def test_first_pass_writes_filler_into_even_positions(self):
        spec = ToeplitzSpec(period=(1, 0), preperiod=())
        buf = _toeplitz_fill(spec, 32)
        assert buf[0::2] == [spec.filler_at(j) for j in range(16)]

    def test_second_pass_restarts_filler(self):
        # positions 1, 5, 9, ... are the gaps the second pass fills, again
        # from the start of the filler
        spec = ToeplitzSpec(period=(0, 1))
        buf = _toeplitz_fill(spec, 64)
        assert buf[1::4] == [spec.filler_at(j) for j in range(16)]

    def test_rejects_empty_period(self):
        with pytest.raises(ConfigurationError):
            ToeplitzSpec(period=())

    def test_filler_preperiod_then_cycle(self):
        spec = ToeplitzSpec(period=(1, 0), preperiod=(0,))
        assert [spec.filler_at(i) for i in range(6)] == [0, 1, 0, 1, 0, 1]

    @settings(max_examples=100, deadline=None)
    @given(toeplitz_specs(), st.integers(1, 3000))
    def test_handle_matches_gap_filling(self, spec, length):
        # the handle codes the fixed point of a 2-uniform morphism on pairs
        # (filler state, symbol); the reference runs the passes themselves
        assert toeplitz(spec).prefix_symbols(length).tolist() == _toeplitz_fill(spec, length)


class TestSequenceHandle:
    def test_prefix_stability_under_growth(self):
        h = rw.thue_morse()
        small = h.prefix_symbols(10).tolist()
        h.prefix_symbols(5000)
        assert h.prefix_symbols(10).tolist() == small
        assert h.prefix_symbols(5000)[:10].tolist() == small

    def test_prefix_of_prefix(self, pf_handle):
        long = pf_handle.prefix_symbols(2048)
        assert pf_handle.prefix_symbols(100).tolist() == long[:100].tolist()

    def test_capacity_error(self):
        h = pointwise_handle(rw.thue_morse_at, 2, "capped", max_prefix=100)
        assert len(h.prefix_symbols(100)) == 100
        with pytest.raises(CapacityError):
            h.prefix_symbols(101)

    def test_env_var_cap(self, monkeypatch):
        monkeypatch.setenv("REDUXWORDS_MAX_PREFIX", "50")
        h = rw.thue_morse()
        with pytest.raises(CapacityError):
            h.prefix_symbols(51)

    def test_env_var_must_be_positive_int(self, monkeypatch):
        monkeypatch.setenv("REDUXWORDS_MAX_PREFIX", "zero")
        with pytest.raises(ConfigurationError):
            rw.thue_morse()
        monkeypatch.setenv("REDUXWORDS_MAX_PREFIX", "0")
        with pytest.raises(ConfigurationError):
            rw.thue_morse()

    def test_prefix_requires_positive_length(self, tm_handle):
        with pytest.raises(rw.WordDomainError):
            tm_handle.prefix(0)


class TestSymbolBuffer:
    def test_prefix_symbols_is_a_view_of_the_cache(self):
        h = rw.thue_morse()
        view = h.prefix_symbols(100)
        assert np.shares_memory(view, h._buf)
        assert view.dtype == np.uint8

    def test_prefix_symbols_is_read_only(self):
        view = rw.paperfolding().prefix_symbols(100)
        with pytest.raises(ValueError):
            view[0] = 1

    def test_view_keeps_its_values_after_growth(self):
        h = rw.paperfolding()
        view = h.prefix_symbols(64)
        before = view.tolist()
        h.prefix_symbols(1 << 15)
        assert view.tolist() == before == h.prefix_symbols(64).tolist()

    def test_at_returns_python_int(self):
        handles = [
            rw.thue_morse(), rw.paperfolding(),
            _second_construction("tm_morphic"), _second_construction("pf_toeplitz"),
        ]
        for h in handles:
            assert type(h.at(5)) is int

    def test_dtype_follows_alphabet(self):
        m = rw.Morphism({0: (0, 299), 299: (299, 0)}, 300)
        view = rw.morphic_fixed_point(m, 0).prefix_symbols(8)
        assert view.dtype == np.uint16
        assert view.tolist() == [0, 299, 299, 0, 299, 0, 0, 299]

    @pytest.mark.parametrize("bad", [300, -1, 2, 2**70, -(2**70)])
    def test_rule_leaving_the_alphabet_is_rejected(self, bad):
        h = pointwise_handle(lambda n: bad if n == 70 else 0, 2, "bad")
        assert h.prefix_symbols(64).tolist() == [0] * 64
        with pytest.raises(ConfigurationError, match="n=70"):
            h.prefix_symbols(65)
        assert len(h.prefix_symbols(64)) == 64

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_object_block_leaving_the_alphabet_is_rejected(self, bad):
        def extend(buf, target):
            return np.array([bad if n == 70 else 0 for n in range(len(buf) + 1, target + 1)], dtype=object)

        h = rw.SequenceHandle("bad", 2, extend)
        assert h.prefix_symbols(64).tolist() == [0] * 64
        with pytest.raises(ConfigurationError, match=f"symbol {bad} at n=70"):
            h.prefix_symbols(65)

    def test_non_integer_rule_is_rejected(self):
        h = pointwise_handle(lambda n: 0.5, 2, "float")
        with pytest.raises(ConfigurationError):
            h.at(1)

    def test_concurrent_reads_while_growing(self):
        h = _second_construction("tm_morphic")
        length = 1 << 14
        expected = [rw.thue_morse_at(n) for n in range(1, length + 1)]
        wrong = []

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(40):
                n = rng.randrange(1, length + 1)
                try:
                    if h.prefix_symbols(n).tolist() != expected[:n] or h.at(n) != expected[n - 1]:
                        wrong.append(n)
                except Exception as exc:  # a failed read in a thread must fail the test
                    wrong.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_morphic_growth_matches_iteration(self):
        # images of unequal lengths, so growth stops mid-image and the rest
        # of that image must carry over to the next growth
        m = rw.Morphism({0: (0, 1, 2, 1), 1: (2,), 2: (1, 0, 0)}, 3)
        word = [0]
        while len(word) < 5000:
            word = [s for sym in word for s in m.images[sym]]
        h = rw.morphic_fixed_point(m, 0)
        for length in (1, 63, 64, 65, 200, 129, 1000, 5000):
            assert h.prefix_symbols(length).tolist() == word[:length]


class TestBlockRules:
    def test_handles_match_pointwise_rules_across_doublings(self):
        length = (1 << 17) + 5  # past several doublings and a block chunk
        tm = rw.thue_morse().prefix_symbols(length).tolist()
        pf = rw.paperfolding().prefix_symbols(length).tolist()
        assert tm == [rw.thue_morse_at(n) for n in range(1, length + 1)]
        assert pf == [rw.paperfolding_at(n) for n in range(1, length + 1)]

    def test_handles_match_block_rules(self):
        tm_length, pf_length = 1 << 20, (1 << 21) + 3
        tm = rw.thue_morse().prefix_symbols(tm_length)
        pf = rw.paperfolding().prefix_symbols(pf_length)
        assert np.array_equal(tm, thue_morse_block(np.arange(1, tm_length + 1, dtype=np.int64)))
        assert np.array_equal(pf, paperfolding_block(np.arange(1, pf_length + 1, dtype=np.int64)))

    @pytest.mark.parametrize("centre", [1 << 10, 1 << 26, 1 << 40, 1 << 62, (1 << 63) - 300])
    def test_block_rules_far_out(self, centre):
        n = np.arange(centre - 256, centre + 256, dtype=np.int64)
        assert thue_morse_block(n).tolist() == [rw.thue_morse_at(int(k)) for k in n]
        assert paperfolding_block(n).tolist() == [rw.paperfolding_at(int(k)) for k in n]


class TestFactorClosureProperties:
    def test_tm_factors_closed_under_complement(self, tm_handle):
        buf = bytes(tm_handle.prefix_symbols(16384))
        for length in (1, 2, 3, 5, 8, 13, 21, 40, 64):
            factors = {buf[i : i + length] for i in range(len(buf) - length + 1)}
            flipped = {bytes(1 - b for b in f) for f in factors}
            assert flipped == factors


class TestSpecFiles:
    def test_builtin(self, tmp_path):
        path = tmp_path / "seq.conf"
        path.write_text("kind = builtin\nname = tm\n")
        h = rw.load_sequence_spec(str(path))
        assert str(h.prefix(12)) == TM_PREFIX_54[:12]

    def test_morphic_matches_builtin(self, tmp_path):
        path = tmp_path / "tmlike.conf"
        path.write_text(
            "# fixed point of 0 -> 01, 1 -> 10\n"
            "kind = morphic\n"
            "alphabet_size = 2\n"
            "seed = 0\n"
            "image.0 = 01\n"
            "image.1 = 10\n"
        )
        h = rw.load_sequence_spec(str(path))
        assert h.prefix_symbols(512).tolist() == rw.thue_morse().prefix_symbols(512).tolist()

    def test_toeplitz_matches_builtin(self, tmp_path):
        path = tmp_path / "pflike.conf"
        path.write_text("kind = toeplitz\nalphabet_size = 2\nperiod = 01\n")
        h = rw.load_sequence_spec(str(path))
        assert h.prefix_symbols(512).tolist() == rw.paperfolding().prefix_symbols(512).tolist()

    def test_comma_separated_symbols(self):
        h = rw.parse_sequence_spec(
            "kind = morphic\nalphabet_size = 12\nseed = 0\n"
            "image.0 = 0,11\nimage.11 = 11,0\n"
        )
        assert h.prefix_symbols(4).tolist() == [0, 11, 11, 0]

    def test_missing_kind(self):
        with pytest.raises(SpecFileError):
            rw.parse_sequence_spec("name = tm\n")

    def test_unknown_kind(self):
        with pytest.raises(SpecFileError):
            rw.parse_sequence_spec("kind = automaton\n")

    def test_unknown_builtin(self):
        with pytest.raises(SpecFileError):
            rw.parse_sequence_spec("kind = builtin\nname = fib\n")

    def test_morphic_missing_images(self):
        with pytest.raises(SpecFileError):
            rw.parse_sequence_spec("kind = morphic\nalphabet_size = 2\nseed = 0\n")

    def test_morphic_bad_seed(self):
        with pytest.raises(SpecFileError):
            rw.parse_sequence_spec(
                "kind = morphic\nalphabet_size = 2\nseed = 1\nimage.1 = 01\nimage.0 = 10\n"
            )

    def test_malformed_line(self):
        with pytest.raises(SpecFileError):
            rw.parse_sequence_spec("kind builtin\n")

    @pytest.mark.parametrize("text, lines", [
        ("kind = morphic\nalphabet_size = 2\nseed = 0\nimage.0 = 01\nimage.1 = 10\n"
         "image.1 = 11\n", (5, 6)),
        ("kind = morphic\nalphabet_size = 2\nseed = 0\nimage.0 = 01\nimage.1 = 10\n"
         "image.01 = 11\n", (5, 6)),
        ("kind = toeplitz\nalphabet_size = 2\nperiod = 01\n# comment\nperiod = 10\n", (3, 5)),
        ("kind = builtin\nkind = builtin\nname = tm\n", (1, 2)),
    ], ids=["image.1", "image.01", "period", "kind"])
    def test_duplicate_keys_name_both_lines(self, text, lines):
        with pytest.raises(SpecFileError, match=f"line {lines[1]}: .* line {lines[0]}"):
            rw.parse_sequence_spec(text)

    def test_unrecognized_keys(self):
        with pytest.raises(SpecFileError):
            rw.parse_sequence_spec("kind = builtin\nname = tm\nbogus = 1\n")

    def test_non_integer_value(self):
        with pytest.raises(SpecFileError):
            rw.parse_sequence_spec("kind = toeplitz\nalphabet_size = two\nperiod = 01\n")

    def test_missing_file(self):
        with pytest.raises(SpecFileError):
            rw.load_sequence_spec("/nonexistent/path/seq.conf")

    def test_comments_and_blanks_ignored(self):
        h = rw.parse_sequence_spec("\n# a comment\nkind = builtin\nname = pf  # inline\n\n")
        assert str(h.prefix(8)) == PF_PREFIX_55[:8]
