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

Three constructions are provided:

* direct arithmetic rules (the generators of the two builtin sequences
  ``tm`` and ``pf``, evaluated on whole blocks of indices),
* fixed points of prolongable morphisms,
* iterated gap-filling with an eventually periodic filler (the Toeplitz
  construction; each pass writes the filler, restarted from its beginning,
  into every other remaining gap). Pass k fills the indices n of 2-adic
  valuation k, so symbol n is the filler's entry n >> (k + 1), and the
  handle evaluates that rule on blocks of indices like the builtins.

Each builtin sequence has a second, independent construction written as a
spec file (``tests/data/tm_morphic.spec``: the fixed point of 0->01,
1->10; ``tests/data/pf_toeplitz.spec``: the Toeplitz word with filler 01),
and the tests cross-check the two. Arbitrary eventually periodic Toeplitz
fillers are supported as an extension beyond the alternating 0/1 filler
the paperfolding sequence needs.

The builtins and every morphic fixed point also carry the morphism they
are a fixed point of (for pf, a coding of one: a, b -> 0 and c, d -> 1 of
the fixed point of a -> ab, b -> cb, c -> ad, d -> cd), from which the
window scans bound the prefix that holds every factor.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ConfigurationError, SpecFileError, WordDomainError
from .words import Symbol, Word

DEFAULT_MAX_PREFIX = 1 << 26
MAX_PREFIX_ENV_VAR = "REDUXWORDS_MAX_PREFIX"
# Indices per call of a block rule, so its int64 temporaries stay small.
_BLOCK_CHUNK = 1 << 16


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
            # outside the dtype's range
            bad = np.flatnonzero((block < 0) | (block >= self.alphabet_size))
            if len(bad):
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


def _from_block_rule(
    rule: Callable[[np.ndarray], np.ndarray], alphabet_size: int, name: str
) -> SequenceHandle:
    """Handle for a rule evaluated on an int64 array of 1-based indices."""

    def extend(buf: np.ndarray, target: int) -> np.ndarray:
        starts = range(len(buf) + 1, target + 1, _BLOCK_CHUNK)
        return np.concatenate([
            rule(np.arange(lo, min(lo + _BLOCK_CHUNK, target + 1), dtype=np.int64)) for lo in starts
        ])

    return SequenceHandle(name, alphabet_size, extend)


# -- builtin arithmetic rules -------------------------------------------------

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


def thue_morse_block(n: np.ndarray) -> np.ndarray:
    """:func:`thue_morse_at` on an int64 array of indices in 1..2**63-1."""
    x = n - 1
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return (x & 1).astype(np.uint8)


def paperfolding_block(n: np.ndarray) -> np.ndarray:
    """:func:`paperfolding_at` on an int64 array of positive indices.

    Bit 1 of the odd part of n is the bit of n just above its lowest set bit.
    """
    return ((n & ((n & -n) << 1)) != 0).astype(np.uint8)


def thue_morse() -> SequenceHandle:
    handle = _from_block_rule(thue_morse_block, 2, "tm")
    handle._source = (thue_morse_morphism(), 0, None)
    return handle


def paperfolding() -> SequenceHandle:
    handle = _from_block_rule(paperfolding_block, 2, "pf")
    # pf is the coding a, b -> 0 and c, d -> 1 of the fixed point of
    # a -> ab, b -> cb, c -> ad, d -> cd, with a..d as 0..3
    handle._source = (Morphism({0: (0, 1), 1: (2, 1), 2: (0, 3), 3: (2, 3)}, 4), 0, (0, 0, 1, 1))
    return handle


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
    """
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

    state = {"consumed": 1, "overshoot": list(m.images[seed])}

    def extend(buf: np.ndarray, target: int) -> list[int]:
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

    if name is None:
        name = f"morphic(seed={seed})"
    handle = SequenceHandle(name, m.alphabet_size, extend)
    handle._source = (m, seed, None)
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
    """Handle for the limit of the iterated gap-filling passes.

    Pass k (from 0) fills the positions n with 2-adic valuation k, and n is
    the j-th of them for j = n >> (k + 1), so symbol n is ``filler_at(j)``.
    """
    filler = np.array(spec.preperiod + spec.period, dtype=np.int64)
    head, cycle = len(spec.preperiod), len(spec.period)

    def rule(n: np.ndarray) -> np.ndarray:
        j = n // (2 * (n & -n))
        return filler[np.where(j < head, j, head + (j - head) % cycle)]

    return _from_block_rule(rule, spec.alphabet_size, name)


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
