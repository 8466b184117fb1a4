"""Deterministic generators for 1-indexed infinite sequences.

Every sequence is accessed through a :class:`SequenceHandle`, which owns a
growable cached prefix and a hard materialization cap. Indexing is 1-based
throughout the public API; internal buffers are 0-based and the boundary is
fixed here.

The cached prefix is one numpy array in the narrowest unsigned dtype for
the alphabet (one byte per symbol up to 256 letters). It grows by doubling:
each growth asks the handle's extender for the block of new symbols, checks
the block against the alphabet, and replaces the buffer with a fresh
read-only array, so the views that :meth:`SequenceHandle.prefix_symbols`
hands out are never copied and never change.

Every sequence built here is built one way: as the fixed point of a
prolongable morphism, optionally mapped letter by letter through a coding,
grown a level at a time by numpy gathers through a table of the images.
``tm`` is the fixed point of 0 -> 01, 1 -> 10. A Toeplitz word (iterated
gap-filling with an eventually periodic filler: each pass writes the
filler, restarted from its beginning, into every other remaining gap) is
the coding of the fixed point of a 2-uniform morphism on pairs (filler
state, symbol) (Cassaigne and Karhumaki, "Toeplitz words, generalized
periodicity and periodically iterated morphisms", European J. Combin. 18,
1997), and ``pf`` is the one with filler 01. Each handle carries its
morphism and coding, from which the window scans bound the prefix that
holds every factor.

``tests/data/tm_morphic.spec`` (the fixed point of 0->01, 1->10) and
``tests/data/pf_toeplitz.spec`` (the Toeplitz word with filler 01) write
the builtins as spec files, which build the same handles, so the checks
independent of this construction are the arithmetic rules
:func:`thue_morse_at` and :func:`paperfolding_at` and the tests'
gap-filling passes run on a finite buffer. Arbitrary eventually periodic
Toeplitz fillers are supported as an extension beyond the alternating 0/1
filler the paperfolding sequence needs.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ConfigurationError, SpecFileError, WordDomainError
from .words import Symbol, Word

DEFAULT_MAX_PREFIX = 1 << 26
MAX_PREFIX_ENV_VAR = "REDUXWORDS_MAX_PREFIX"


def _default_cap() -> int:
    raw = os.environ.get(MAX_PREFIX_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_PREFIX
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{MAX_PREFIX_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConfigurationError(f"{MAX_PREFIX_ENV_VAR} must be positive, got {cap}")
    return cap


def _uint_dtype(bits: int):
    """The narrowest unsigned dtype holding ``bits`` bits."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bits <= np.iinfo(dtype).bits:
            return dtype
    return np.uint64


class SequenceHandle:
    """Lazily materialized, 1-indexed infinite sequence.

    The cached prefix grows by doubling and is shared by all queries; a
    position's value never changes once computed. Cache growth is
    synchronized, so concurrent reads at arbitrary indices are safe and
    deterministic.

    ``extender(buf, target)`` gets the current read-only prefix and returns
    the symbols at 1-based indices ``len(buf)+1 .. target`` as one block.
    The prefix is capped at ``max_prefix`` symbols, by default at
    ``REDUXWORDS_MAX_PREFIX`` (2**26 when unset), read when the handle is made.
    """

    def __init__(
        self,
        name: str,
        alphabet_size: int,
        extender: Callable[[np.ndarray, int], Sequence[int]],
        max_prefix: int | None = None,
    ):
        if alphabet_size < 1:
            raise ConfigurationError("alphabet_size must be positive")
        self.name = name
        self.alphabet_size = alphabet_size
        self._extend = extender
        self._cap = max_prefix if max_prefix is not None else _default_cap()
        self._buf = np.empty(0, dtype=_uint_dtype(max(1, (alphabet_size - 1).bit_length())))
        self._buf.flags.writeable = False
        self._lock = threading.Lock()
        # (morphism, seed, coding) when the sequence is the fixed point of
        # the morphism at the seed, mapped letter by letter through the
        # coding (None: the identity); the window scans read it to bound
        # the prefix that holds every factor
        self._source = None

    def _ensure(self, length: int) -> None:
        if len(self._buf) >= length:
            return
        if length > self._cap:
            raise CapacityError(
                f"sequence {self.name!r}: prefix of {length} symbols exceeds the "
                f"cap of {self._cap} (raise {MAX_PREFIX_ENV_VAR} or max_prefix)"
            )
        with self._lock:
            old = len(self._buf)
            if old >= length:
                return
            target = max(64, old)
            while target < length:
                target *= 2
            target = min(target, self._cap)
            block = np.asarray(self._extend(self._buf, target))
            if block.shape != (target - old,) or block.dtype.kind not in "biuO":
                raise ConfigurationError(
                    f"sequence {self.name!r}: extender must return {target - old} integer "
                    f"symbols, got shape {block.shape} of {block.dtype}"
                )
            # checked before the cast, which would wrap or raise on a symbol
            # outside the dtype's range; the extremes first, and the scan for
            # the first bad symbol only when they fail
            if block.max() >= self.alphabet_size or (block.dtype.kind in "iO" and block.min() < 0):
                bad = np.flatnonzero((block < 0) | (block >= self.alphabet_size))
                raise ConfigurationError(
                    f"sequence {self.name!r}: symbol {block[bad[0]]} at n={old + bad[0] + 1} "
                    f"is outside the alphabet 0..{self.alphabet_size - 1}"
                )
            buf = np.concatenate((self._buf, block), dtype=self._buf.dtype, casting="unsafe")
            buf.flags.writeable = False
            self._buf = buf

    def at(self, n: int) -> Symbol:
        """Symbol at 1-based index ``n``."""
        if n < 1:
            raise ValueError(f"sequence indices are 1-based, got n={n}")
        self._ensure(n)
        return int(self._buf[n - 1])

    def prefix(self, length: int) -> Word:
        """The word formed by indices 1..length."""
        if length < 1:
            raise WordDomainError("prefix length must be >= 1")
        self._ensure(length)
        return Word(tuple(self._buf[:length].tolist()), self.alphabet_size)

    def prefix_symbols(self, length: int) -> np.ndarray:
        """Read-only view of indices 1..length; no copy, cheaper than :meth:`prefix`."""
        if length < 1:
            raise WordDomainError("prefix length must be >= 1")
        self._ensure(length)
        return self._buf[:length]

    def __repr__(self) -> str:
        return f"SequenceHandle({self.name!r}, alphabet_size={self.alphabet_size})"


# -- builtin sequences --------------------------------------------------------

def thue_morse_at(n: int) -> Symbol:
    """Bit-count parity of n-1; the n-th symbol (1-based) of the tm sequence."""
    if n < 1:
        raise ValueError(f"sequence indices are 1-based, got n={n}")
    return bin(n - 1).count("1") & 1


def paperfolding_at(n: int) -> Symbol:
    """0 when the odd part of n is 1 mod 4, else 1."""
    if n < 1:
        raise ValueError(f"sequence indices are 1-based, got n={n}")
    odd = n // (n & -n)
    return (odd >> 1) & 1


def thue_morse() -> SequenceHandle:
    return _fixed_point(thue_morse_morphism(), 0, "tm")


def paperfolding() -> SequenceHandle:
    return toeplitz(ToeplitzSpec(period=(0, 1)), "pf")


# -- morphic fixed points -----------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    """Substitution sending each symbol to a nonempty word."""

    images: Mapping[Symbol, tuple[Symbol, ...]]
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ConfigurationError("alphabet_size must be positive")
        object.__setattr__(self, "images", dict(self.images))
        for sym, image in self.images.items():
            if not (0 <= sym < self.alphabet_size):
                raise ConfigurationError(f"morphism domain symbol {sym} out of alphabet")
            if len(image) == 0:
                raise ConfigurationError(f"image of {sym} is empty")
            if any(not (0 <= s < self.alphabet_size) for s in image):
                raise ConfigurationError(f"image of {sym} leaves the alphabet: {image}")

    def apply(self, w: Word) -> Word:
        out: list[Symbol] = []
        for s in w.symbols:
            if s not in self.images:
                raise ConfigurationError(f"morphism has no image for symbol {s}")
            out.extend(self.images[s])
        return Word(tuple(out), self.alphabet_size)

    def is_prolongable_at(self, seed: Symbol) -> bool:
        image = self.images.get(seed)
        return image is not None and len(image) >= 2 and image[0] == seed


def thue_morse_morphism() -> Morphism:
    return Morphism({0: (0, 1), 1: (1, 0)}, 2)


def morphic_fixed_point(m: Morphism, seed: Symbol, name: str | None = None) -> SequenceHandle:
    """Handle for the fixed point obtained by iterating ``m`` on ``seed``.

    Requires the morphism to be prolongable at the seed (the seed's image
    starts with the seed and has length >= 2) and to have an image for every
    symbol reachable from the seed.

    The prefix grows by levels, x <- sigma(x) over the stretch of x not yet
    expanded: the letters of the prefix whose images are not yet in it are
    expanded by one numpy gather through a table of the images (whole rows
    when the images have one length, else positions of one flat array), and
    the gathered symbols are the next level's letters. A morphism whose
    images have one length expands by its power whose images fill up to 4
    bytes (0 -> 0110, 1 -> 1001 for tm), which has the same fixed point. The
    tables hold the letters of the fixed point, not every letter the
    alphabet declares: a row per letter up to the largest one, or, for a few
    letters spread over a large alphabet, a row per letter by rank. A level
    of fewer than 128 letters, as at the start and at every level of a
    morphism whose levels stay short (0 -> 01, 1 -> 1 adds one symbol per
    level, 0 -> 0 1^64, 1 -> 1 adds 64), is expanded one symbol at a time:
    there the dozen numpy calls of a gather cost more than the Python steps
    they save. A growth that ends inside an image takes that image up again
    from the buffer, which is the fixed point's prefix, so the handle keeps
    no other state.
    """
    return _fixed_point(m, seed, f"morphic(seed={seed})" if name is None else name)


# Sources below which a level is expanded one symbol at a time. A gather
# costs about a dozen numpy calls whatever its length (15 us on a 2-vCPU
# Xeon), a per-symbol step about 0.16 us per letter expanded, so they
# break even near 100 letters; a morphism with a bounded letter can add as
# few as one symbol per level, and one with linear growth a fixed number.
_GATHER_MIN = 128


class _ImageTable:
    """A morphism's images, mapped through a coding, as gather tables."""

    def __init__(self, images: Mapping[Symbol, tuple[Symbol, ...]], dtype):
        letters = sorted(images)
        widths = {len(image) for image in images.values()}
        self.width = widths.pop() if len(widths) == 1 else None
        if letters[-1] < 2 * len(letters) + 256:
            # rows indexed by the letters themselves; a letter outside the
            # fixed point gets a row that is never read
            self.letters = None
            unused = () if self.width is None else images[letters[0]]
            rows = [images.get(c, unused) for c in range(letters[-1] + 1)]
        else:
            # a few letters spread over a large alphabet: rows by rank among
            # the letters, so the tables stay the size of the images
            self.letters = np.array(letters)
            rows = [images[c] for c in letters]
        if self.width is not None:
            self.rows = np.array(rows, dtype=dtype)
        else:
            self.lens = np.array([len(image) for image in rows], dtype=np.int64)
            self.offsets = np.cumsum(self.lens) - self.lens
            self.flat = np.array([s for image in rows for s in image], dtype=dtype)

    def rows_of(self, src: np.ndarray) -> np.ndarray:
        """The rows of the tables that hold the images of the letters ``src``."""
        return src if self.letters is None else np.searchsorted(self.letters, src)

    def level(self, src: np.ndarray, start: int, lo: int, target: int) -> tuple[np.ndarray, int]:
        """Positions ``lo`` up to ``min(end, target)`` of the image of ``src``,
        which begins at position ``start`` <= ``lo`` and ends before ``end``,
        by one gather over the letters that reach them; returns them and ``end``."""
        if self.width is not None:
            k = self.width
            end = start + k * len(src)
            hi = min(end, target)
            first = (lo - start) // k
            at = self.rows_of(src[first : -(-(hi - start) // k)])
            rows = self.rows.take(at, axis=0).ravel()
            skip = lo - start - first * k
            return rows[skip : skip + hi - lo], end
        at = self.rows_of(src)
        lens = self.lens.take(at)
        ends = np.cumsum(lens)
        ends += start
        end = int(ends[-1])
        hi = min(end, target)
        # letters a..b-1 of src: the first whose image passes lo, the last
        # whose image reaches hi
        a = int(np.searchsorted(ends, lo, side="right"))
        b = int(np.searchsorted(ends, hi)) + 1
        lens, begins = lens[a:b], ends[a:b] - lens[a:b]
        index = np.repeat(self.offsets.take(at[a:b]) - begins, lens)
        index += np.arange(begins[0], ends[b - 1])
        return self.flat.take(index[lo - begins[0] : hi - begins[0]]), end


class _FixedPointExtender:
    """Extender of the fixed point of a morphism at a seed, mapped through
    a coding when one is given."""

    def __init__(self, m: Morphism, seed: Symbol, reachable: set, coding, alphabet_size: int):
        dtype = _uint_dtype(max(1, (m.alphabet_size - 1).bit_length()))
        base = {c: m.images[c] for c in reachable}
        self.images = base
        widths = {len(image) for image in base.values()}
        if len(widths) == 1:
            # numpy's take costs about the same per row for rows of a few
            # bytes, so a uniform morphism expands by its power with the
            # longest images that fit in 4 bytes, which has the same fixed
            # point; longer rows measured no faster, as a level's allocations
            # then dominate
            k = widths.pop()
            while len(self.images[seed]) * k * np.dtype(dtype).itemsize <= 4:
                self.images = {
                    c: tuple(s for t in image for s in self.images[t]) for c, image in base.items()
                }
        self.seed_image = np.array(self.images[seed], dtype=dtype)
        self.table = _ImageTable(self.images, dtype)
        self.coded = None
        if coding is not None:
            coded = {c: tuple(coding[s] for s in image) for c, image in self.images.items()}
            self.coded = _ImageTable(coded, _uint_dtype(max(1, (alphabet_size - 1).bit_length())))
            # the fixed point's prefix whose image reaches the coded prefix
            self.source = np.empty(0, dtype=dtype)

    def __call__(self, buf: np.ndarray, target: int) -> np.ndarray:
        if self.coded is None:
            return self._grow(buf, target)
        k = self.table.width
        if len(self.source) * k < target:
            self.source = np.concatenate((self.source, self._grow(self.source, -(-target // k))))
        return self.coded.level(self.source, 0, len(buf), target)[0]

    def _grow(self, known: np.ndarray, target: int) -> np.ndarray:
        """Symbols ``len(known)`` up to ``target`` of the fixed point, given
        its first ``len(known)`` symbols."""
        old = len(known)
        if old < len(self.seed_image):
            known = self.seed_image
        p = len(known)
        pieces = [known[old:target]]
        if p >= target:
            return pieces[0]
        # the first c letters have their images inside the known prefix,
        # which ends inside the image of letter c, begun at ``start``
        table = self.table
        if table.width is not None:
            c = p // table.width
            start = c * table.width
        else:
            ends = np.cumsum(table.lens.take(table.rows_of(known)))
            c = int(np.searchsorted(ends, p, side="right"))
            start = int(ends[c - 1])
        src = known[c:]
        if p - c < _GATHER_MIN:
            # work holds the fixed point from position c, and its letters
            # before ``done`` are expanded
            images, stop = self.images, target - c
            work = src.tolist()
            work += images[work[0]][p - start :]
            done = 1
            # the iterator sees the symbols appended while it runs
            for letter in islice(work, 1, None):
                if len(work) >= stop or len(work) - done >= _GATHER_MIN:
                    break
                work += images[letter]
                done += 1
            pieces.append(np.array(work[p - c : target - c], dtype=known.dtype))
            src, start = np.array(work[done:], dtype=known.dtype), c + len(work)
            p = start
        while p < target:
            src, start = table.level(src, start, p, target)
            pieces.append(src)
            p += len(src)
        return np.concatenate(pieces)


def _fixed_point(
    m: Morphism,
    seed: Symbol,
    name: str,
    coding: Sequence[Symbol] | None = None,
    alphabet_size: int | None = None,
) -> SequenceHandle:
    """Handle for the fixed point of ``m`` at ``seed``, mapped letter by
    letter through ``coding`` onto ``alphabet_size`` letters when given, that
    carries its source for the window scans. A coding needs images of one
    length, as a Toeplitz word's source has."""
    if not m.is_prolongable_at(seed):
        raise ConfigurationError(
            f"morphism is not prolongable at seed {seed}: its image must "
            f"start with the seed and have length >= 2"
        )
    reachable = {seed}
    frontier = [seed]
    while frontier:
        sym = frontier.pop()
        image = m.images.get(sym)
        if image is None:
            raise ConfigurationError(f"no image for reachable symbol {sym}")
        for s in image:
            if s not in reachable:
                reachable.add(s)
                frontier.append(s)
    if coding is None:
        alphabet_size = m.alphabet_size
    elif len({len(m.images[c]) for c in reachable}) == 1:
        coding = tuple(coding)
    else:
        raise ConfigurationError("a coding needs a morphism whose images have one length")
    extender = None

    def extend(buf: np.ndarray, target: int) -> np.ndarray:
        # the tables are built at the first growth, so that a handle whose
        # profiles take only its source (tm and pf at n = 2048) builds none
        nonlocal extender
        if extender is None:
            extender = _FixedPointExtender(m, seed, reachable, coding, alphabet_size)
        return extender(buf, target)

    handle = SequenceHandle(name, alphabet_size, extend)
    handle._source = (m, seed, coding)
    return handle


# -- Toeplitz construction ----------------------------------------------------

@dataclass(frozen=True)
class ToeplitzSpec:
    """Eventually periodic filler for the iterated gap-filling construction.

    Each pass writes ``preperiod`` followed by cyclic repetitions of
    ``period`` into every other remaining gap (the 1st, 3rd, 5th, ...),
    restarting from the beginning of the filler on every pass.
    """

    period: tuple[Symbol, ...]
    preperiod: tuple[Symbol, ...] = ()
    alphabet_size: int = 2

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ConfigurationError("alphabet_size must be positive")
        if len(self.period) == 0:
            raise ConfigurationError("toeplitz period must be nonempty")
        for s in self.preperiod + self.period:
            if not (0 <= s < self.alphabet_size):
                raise ConfigurationError(f"filler symbol {s} out of alphabet")

    def filler_at(self, i: int) -> Symbol:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]


def toeplitz(spec: ToeplitzSpec, name: str = "toeplitz") -> SequenceHandle:
    """Handle for the limit of the iterated gap-filling passes, as the
    coding of the fixed point of a 2-uniform morphism.

    Pass k (from 0) fills the positions n with 2-adic valuation k, and n is
    the j-th of them for j = n >> (k + 1), so the symbol x(n) is F(j), F
    the filler. The 0-based word b(i) = x(i + 1) then has b(2m) = F(m) and
    b(2m + 1) = b(m): 2m + 1 is odd, the m-th position of pass 0, and 2m + 2
    is filled by the pass after the one that fills m + 1, at the same j.
    With h the preperiod's length and c the period's, F(m) = F[state(m)]
    for state(m) = m when m < h, else h + (m - h) % c, and state(2m) and
    state(2m + 1) are functions of state(m). So the letter (state(m), b(m))
    of position m is sent to those of positions 2m and 2m + 1, (state(2m),
    F(m)) and (state(2m + 1), b(m)), and b is the second component of the
    fixed point at the letter (0, F(0)). A letter pairs a state q with the
    rank i of one of the filler's d symbols, as q * d + i, so symbols the
    alphabet declares but the filler does not use add no letters.
    """
    filler = spec.preperiod + spec.period
    head, cycle = len(spec.preperiod), len(spec.period)
    symbols = sorted(set(filler))
    d = len(symbols)
    rank = {s: i for i, s in enumerate(symbols)}

    def state(m: int) -> int:
        return m if m < head else head + (m - head) % cycle

    images = {
        q * d + i: (state(2 * q) * d + rank[filler[q]], state(2 * q + 1) * d + i)
        for q in range(len(filler))
        for i in range(d)
    }
    source = Morphism(images, len(filler) * d)
    return _fixed_point(
        source, rank[filler[0]], name, coding=symbols * len(filler), alphabet_size=spec.alphabet_size
    )


# -- sequence spec files ------------------------------------------------------

BUILTIN_SEQUENCES: dict[str, Callable[[], SequenceHandle]] = {
    "tm": thue_morse,
    "pf": paperfolding,
}


def _parse_symbol_string(raw: str, key: str) -> tuple[Symbol, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        if "," in raw:
            return tuple(int(part) for part in raw.split(","))
        return tuple(int(c) for c in raw)
    except ValueError as exc:
        raise SpecFileError(
            f"{key}: expected a digit string or comma-separated integers, got {raw!r}"
        ) from exc


def parse_sequence_spec(text: str, name: str = "spec") -> SequenceHandle:
    """Build a handle from the key/value spec format.

    Lines are ``key = value``; blank lines and ``#`` comments are ignored.
    ``kind`` selects the construction: ``builtin`` (key ``name``: tm or pf),
    ``morphic`` (keys ``alphabet_size``, ``seed``, and one ``image.<symbol>``
    per symbol), or ``toeplitz`` (keys ``alphabet_size``, ``period``,
    optional ``preperiod``). Symbol strings are digit strings, or
    comma-separated integers for alphabets past 10. A key may appear once.
    """
    entries: dict[str, str] = {}
    # the line of each key; image keys by the symbol they name, so that
    # image.1 and image.01 collide as they would in the morphism
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        sym = _image_symbol(key)
        same = key if sym is None else f"image.{sym}"
        if same in first_line:
            raise SpecFileError(f"line {lineno}: {key!r} repeats the key of line {first_line[same]}")
        first_line[same] = lineno
        entries[key] = value

    kind = entries.pop("kind", None)
    if kind is None:
        raise SpecFileError("missing required key 'kind'")

    def take_int(key: str) -> int:
        if key not in entries:
            raise SpecFileError(f"kind {kind!r} requires key {key!r}")
        raw = entries.pop(key)
        try:
            return int(raw)
        except ValueError as exc:
            raise SpecFileError(f"{key}: expected an integer, got {raw!r}") from exc

    if kind == "builtin":
        builtin = entries.pop("name", None)
        if builtin not in BUILTIN_SEQUENCES:
            raise SpecFileError(
                f"builtin name must be one of {sorted(BUILTIN_SEQUENCES)}, got {builtin!r}"
            )
        _reject_extras(entries)
        return BUILTIN_SEQUENCES[builtin]()

    if kind == "morphic":
        alphabet_size = take_int("alphabet_size")
        seed = take_int("seed")
        images: dict[int, tuple[int, ...]] = {}
        for key in list(entries):
            if key.startswith("image."):
                sym = _image_symbol(key)
                if sym is None:
                    raise SpecFileError(f"bad image key {key!r}")
                images[sym] = _parse_symbol_string(entries.pop(key), key)
        if not images:
            raise SpecFileError("kind 'morphic' requires at least one image.<symbol> key")
        _reject_extras(entries)
        try:
            morphism = Morphism(images, alphabet_size)
            return morphic_fixed_point(morphism, seed, name=name)
        except ConfigurationError as exc:
            raise SpecFileError(str(exc)) from exc

    if kind == "toeplitz":
        alphabet_size = take_int("alphabet_size")
        period = _parse_symbol_string(entries.pop("period", ""), "period")
        preperiod = _parse_symbol_string(entries.pop("preperiod", ""), "preperiod")
        _reject_extras(entries)
        try:
            spec = ToeplitzSpec(period=period, preperiod=preperiod, alphabet_size=alphabet_size)
        except ConfigurationError as exc:
            raise SpecFileError(str(exc)) from exc
        return toeplitz(spec, name=name)

    raise SpecFileError(f"unknown kind {kind!r} (expected builtin, morphic, or toeplitz)")


def _image_symbol(key: str) -> int | None:
    """The symbol an ``image.<symbol>`` key names, or None for any other key."""
    if key.startswith("image."):
        try:
            return int(key[len("image."):])
        except ValueError:
            pass
    return None


def _reject_extras(entries: dict[str, str]) -> None:
    if entries:
        raise SpecFileError(f"unrecognized keys: {sorted(entries)}")


def load_sequence_spec(path: str) -> SequenceHandle:
    """Read a spec file from disk; see :func:`parse_sequence_spec` for the format."""
    try:
        # utf-8-sig drops the byte-order mark some editors write before the first key
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc}") from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_sequence_spec(text, name=name)
