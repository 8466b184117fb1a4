"""Brute-force window-set oracle for the morphic-spec workload's frozen profiles.

For each window length n the oracle collects the set of distinct length-n
windows of a prefix, then counts distinct windows (factor), distinct symbol
counts (abelian), distinct run-length reductions (red) and distinct symbol
counts of the reductions (abred). The prefix is built by iterating the
morphism in plain Python, independently of ``reduxwords.sequences``; only
the prefix length is taken from the library, as the window at which its
engine certified the profile, so both count over the same prefix.

Freeze the expected values (done once; the result is committed)::

    python3 perfbench/oracle.py

This computes the four profiles with the oracle and with the library,
stops if they differ, and writes ``perfbench/data/morphic_expected.json``.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(HERE, "data", "tribonacci.spec")
EXPECTED_PATH = os.path.join(HERE, "data", "morphic_expected.json")
FULL_SIZES = (("abred", 256), ("red", 512), ("abelian", 256), ("factor", 512))

RUN = re.compile(rb"(.)\1+", re.DOTALL)


def read_morphism(spec_path: str) -> tuple[int, int, dict[int, bytes]]:
    """(alphabet_size, seed, images) of a single-digit-symbol morphic spec file."""
    entries = {}
    with open(spec_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = (part.strip() for part in line.split("=", 1))
                entries[key] = value
    if entries.pop("kind") != "morphic":
        raise ValueError("the oracle reads morphic spec files only")
    alphabet = int(entries.pop("alphabet_size"))
    seed = int(entries.pop("seed"))
    images = {int(k[len("image."):]): bytes(int(c) for c in v) for k, v in entries.items()}
    return alphabet, seed, images


def fixed_point_prefix(images: dict[int, bytes], seed: int, length: int) -> bytes:
    word = images[seed]
    while len(word) < length:
        word = b"".join(images[s] for s in word)
    return word[:length]


def window_set_profile(prefix: bytes, kind: str, n_max: int, alphabet: int) -> list[int]:
    reduce = lambda w: RUN.sub(rb"\1", w)
    parikh = lambda w: tuple(w.count(bytes([c])) for c in range(alphabet))
    key = {
        "factor": lambda w: w,
        "abelian": parikh,
        "red": reduce,
        "abred": lambda w: parikh(reduce(w)),
    }[kind]
    values = []
    for n in range(1, n_max + 1):
        windows = {prefix[s : s + n] for s in range(len(prefix) - n + 1)}
        values.append(len({key(w) for w in windows}))
    return values


def certified_window(spec_path: str, kind: str, n_max: int) -> tuple[int, list[int]]:
    """The library's certified window for one profile, and its values there."""
    import reduxwords as rw

    engine = {
        "factor": rw.factor_complexity,
        "abelian": rw.abelian_complexity,
        "red": rw.reduced_factor_complexity,
        "abred": rw.reduced_abelian_complexity,
    }[kind]
    profile = engine(rw.load_sequence_spec(spec_path), n_max)
    return profile.certified_window, [profile.values[n] for n in range(1, n_max + 1)]


def expected_profiles(spec_path: str, sizes) -> dict:
    """Oracle profiles at the library's certified windows; raises if the two disagree."""
    alphabet, seed, images = read_morphism(spec_path)
    out = {}
    for kind, n_max in sizes:
        window, library = certified_window(spec_path, kind, n_max)
        values = window_set_profile(fixed_point_prefix(images, seed, window), kind, n_max, alphabet)
        if values != library:
            raise AssertionError(f"{kind}: oracle and library differ at prefix {window}")
        out[kind] = {"n_max": n_max, "prefix_length": window, "values": values}
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    profiles = expected_profiles(SPEC_PATH, FULL_SIZES)
    payload = {
        "spec": os.path.relpath(SPEC_PATH, ROOT),
        "checked_by": "window-set oracle in perfbench/oracle.py, at each profile's prefix_length",
        "profiles": profiles,
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
